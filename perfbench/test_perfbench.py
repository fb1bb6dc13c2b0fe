"""The benchmark's own tests: every checker must reject a corrupted output,
and a smoke run of every workload must pass its checks.

    python3 -m pytest perfbench/test_perfbench.py          # from the repo root
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, os.path.join(ROOT, "src"))

import paragen as pg  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# mine


@pytest.fixture(scope="module")
def mined():
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="test-", dir=RESULTS)
    try:
        wl = workloads.Mine()
        truth = wl.generate(3, workdir)
        inp = {"docs": pg.miner.load_documents(os.path.join(workdir, "docs"))}
        (op,) = wl.operations(pg, inp, truth, workdir, 3)
        record = wl.capture(op.run())
    finally:
        shutil.rmtree(workdir)
    return wl, inp, truth, record


def _mine_problems(mined, rows=None, tsv=None, sidecar=None, topk_edit=None):
    wl, inp, truth, (rows0, tsv0, side0) = mined
    cfg = wl.cfg
    index = pg.miner.build_index(pg.miner.sentence_records(inp["docs"], cfg))
    refs = [truth["planted"][0][0], truth["syndicated"][0][0], 7]
    topk = {r: pg.miner.query_similar(index.records[r], index, cfg.k) for r in refs}
    if topk_edit:
        topk_edit(topk)
    tfidf = oracles.DenseTfidf([oracles.tokenize(s) for s in truth["sentences"]])
    rows = rows0 if rows is None else rows
    return checks.check_mining(truth, tfidf, (cfg.min_sim, cfg.max_sim), rows,
                               tsv0 if tsv is None else tsv,
                               side0 if sidecar is None else sidecar, topk, cfg.k)


def _rejects(problems, why):
    return any(why in p for p in problems)


def test_mine_checker_accepts_program_output(mined):
    assert _mine_problems(mined) == []


def _with_row(rows, i, **change):
    fields = ["x", "y", "sim", "xs", "ys", "xsrc", "ysrc"]
    row = dict(zip(fields, rows[i]))
    row.update(change)
    return rows[:i] + [tuple(row[f] for f in fields)] + rows[i + 1:]


def test_mine_checker_rejects_corrupted_output(mined):
    wl, inp, truth, (rows, tsv, side) = mined
    x, y, sim, xs, ys, xsrc, ysrc = rows[0]
    sents = truth["sentences"]
    a, b = sorted(truth["syndicated"][0])
    copy = (sents[a], sents[b], 1.0, a, b, truth["sources"][a], truth["sources"][b])
    cases = [
        (_with_row(rows, 0, sim=sim + 1e-6), "dense cosine"),
        (rows[1:], "planted paraphrases"),
        (sorted(rows + [copy], key=lambda r: (r[3], r[4])), "syndicated copies emitted"),
        (_with_row(rows, 0, x=y), "text or source differs"),
        (_with_row(rows, 0, ysrc=xsrc), "both sentences from"),
    ]
    for bad, why in cases:
        assert _rejects(_mine_problems(mined, rows=bad), why), why
    assert _rejects(_mine_problems(mined, tsv=tsv.replace("\t", " ", 1)), "TSV")
    assert _rejects(_mine_problems(mined, sidecar="\n".join(side.splitlines()[1:])), "sidecar")

    def swap(topk):
        ref = next(r for r, hits in topk.items() if len(hits) > 1)
        topk[ref] = [topk[ref][1], topk[ref][0]] + topk[ref][2:]

    def wrong_sid(topk):
        ref = next(iter(topk))
        sid, s = topk[ref][0]
        topk[ref][0] = (sid + 1 if sid + 1 != ref else sid + 2, s)

    assert _rejects(_mine_problems(mined, topk_edit=swap), "not ranked")
    assert _rejects(_mine_problems(mined, topk_edit=wrong_sid), "dense cosine")


# ---------------------------------------------------------------------------
# train


@pytest.fixture(scope="module")
def trained():
    pairs = inputs.copy_pairs(5, 60)
    vocab = pg.vocab.build_vocab([pg.vocab.tokenize(x) for x, _ in pairs] * 2, max_size=54)
    cfg = pg.training.TrainConfig(seed=5, epochs=1, vocab_size=54, d_emb=8, d_h=8, d_s=8,
                                  d_a=8)
    data = pairs[:6]
    params, report = pg.training.train(data, cfg, vocab=vocab)
    initial = {n: p.data.copy() for n, p in
               pg.training.ModelParams(cfg.dims(vocab.size), seed=5).named_parameters()}
    params.zero_grad()
    loss = pg.training.sequence_loss(data[0], params, vocab)
    pg.autograd.backward(loss)
    analytic = {n: p.grad.copy() for n, p in params.named_parameters()}
    tok = oracles.tokenize
    return dict(data=[(tok(x), tok(y)) for x, y in data], vocab_index=vocab.token_to_id,
                initial=initial,
                trained={n: p.data.copy() for n, p in params.named_parameters()},
                final_nll=report.final_nll, grad_example=(tok(data[0][0]), tok(data[0][1])),
                analytic=analytic, program_loss=float(loss.data),
                elements=checks.probe_elements(analytic, np.random.default_rng(0)))


def _train_problems(run, **change):
    kwargs = {k: v for k, v in run.items()}
    kwargs.update(change)
    kwargs["trained"] = {n: a.copy() for n, a in kwargs["trained"].items()}
    return checks.check_training(**kwargs)


def test_train_checker_accepts_program_output(trained):
    assert trained["elements"]
    assert _train_problems(trained) == []


def test_train_checker_rejects_corrupted_output(trained):
    name, j = trained["elements"][0]
    bent = {n: g.copy() for n, g in trained["analytic"].items()}
    bent[name].reshape(-1)[j] *= 1.001
    assert _rejects(_train_problems(trained, analytic=bent), "central differences")
    assert _rejects(_train_problems(trained, final_nll=float("nan")), "final training loss")
    assert _rejects(_train_problems(trained, trained=trained["initial"]), "did not lower")
    assert _rejects(_train_problems(trained, program_loss=trained["program_loss"] + 1e-6),
                    "straight-line loss")


# ---------------------------------------------------------------------------
# generate


@pytest.fixture(scope="module")
def decoded():
    words = inputs.word_list(60)
    vocab = pg.vocab.Vocabulary(words)
    params = pg.model.ModelParams(pg.model.ModelDims(vocab_size=vocab.size, d_emb=8, d_h=8,
                                                     d_s=8, d_a=8), seed=9)
    src = inputs.decode_sources(9, 1, words, length=6)[0]
    hyps = pg.decoding.beam_decode(src, params, vocab, pg.decoding.BeamConfig(max_len=12))
    one = pg.decoding.BeamConfig(beam_width=1, max_len=12)
    greedy = (pg.decoding.greedy_decode(src, params, vocab, max_len=12),
              pg.decoding.beam_decode(src, params, vocab, one)[0].surface)
    model = oracles.StraightLineModel({n: p.data.copy() for n, p in params.named_parameters()})
    return model, oracles.tokenize(src), vocab.id_to_token, \
        [(h.ids, h.log_prob, tuple(h.surface)) for h in hyps], greedy


def test_beam_checker_accepts_program_output(decoded):
    model, src, vocab_tokens, hyps, greedy = decoded
    assert len(hyps) == 4
    assert checks.check_beam(model, src, vocab_tokens, hyps, 0.7, greedy) == []


def test_beam_checker_rejects_corrupted_output(decoded):
    model, src, vocab_tokens, hyps, greedy = decoded
    ids, logp, surface = hyps[0]
    cases = [
        ([(ids, logp + 1e-6, surface)] + hyps[1:], "replay"),
        (hyps[::-1], "normalised score"),
        ([(ids, logp, surface[:-1] + ("nowhere",))] + hyps[1:], "surface tokens"),
        ([(ids[:-1] + (10_000,), logp, surface)] + hyps[1:], "outside vocabulary and source"),
    ]
    for bad, why in cases:
        assert _rejects(checks.check_beam(model, src, vocab_tokens, bad, 0.7), why), why
    assert _rejects(checks.check_beam(model, src, vocab_tokens, hyps, 0.7,
                                      (greedy[0], greedy[1][:-1])), "width 1")


# ---------------------------------------------------------------------------
# smoke: every workload end to end, one round each


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke(workload, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
