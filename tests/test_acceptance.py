"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins.
"""

import time

import numpy as np

from paragen.cli import main as cli_main
from paragen.decoding import BeamConfig, beam_decode, greedy_decode
from paragen.gradcheck import grad_check
from paragen.metrics import bleu
from paragen.miner import MineConfig, align, build_index, query_similar, sentence_records
from paragen.model import ModelDims, ModelParams, prepare_source
from paragen.pointer import mix, step_forward
from paragen.training import TrainConfig, sequence_loss, train
from paragen.vocab import BOS, EOS, ExtendedVocab, Vocabulary, tokenize

from conftest import (copy_task_corpus, copy_task_vocab, planted_paraphrase_docs,
                      random_sentence_docs, tiny_model, write_doc_fixture)
from oracles import brute_force_neighbours, enumerate_best_sequence, model_arrays, \
    straight_line_greedy, straight_line_step
from test_miner import planted_recall


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c1_gradient_correctness():
    # tiny model: V_fixed = 12, all widths 8, N = 4, T = 4, one OOV target id
    started = time.perf_counter()
    params, vocab = tiny_model(seed=3, n_tokens=8, width=8)
    assert vocab.size == 12
    pair = ("alpha zyxxy beta gamma", "beta zyxxy alpha gamma")

    report = grad_check(lambda: sequence_loss(pair, params, vocab),
                        params.named_parameters(), h=1e-5)
    elapsed = time.perf_counter() - started
    assert report.max_rel_err <= 1e-4, repr(report)
    assert len(report.rows) == sum(p.data.size for _, p in params.named_parameters())
    assert elapsed <= 60.0, f"gradient check took {elapsed:.1f}s"
    _report("c1 gradient-correctness",
            f"max rel err {report.max_rel_err:.2e} over {len(report.rows)} elements, "
            f"{elapsed:.1f}s")


def test_c2_distribution_laws():
    rng = np.random.default_rng(42)
    vocab = Vocabulary(["alpha", "beta"])  # V_fixed = 6
    dims = ModelDims(vocab_size=vocab.size, d_emb=4, d_h=4, d_s=4, d_a=4)
    pool = ["alpha", "beta", "nx1", "nx2", "nx3"]
    checked_mix = 0
    for draw in range(1000):
        params = ModelParams(dims, seed=draw)
        for _, p in params.named_parameters():
            p.data[...] = rng.normal(scale=0.5, size=p.data.shape)
        n = int(rng.integers(1, 6))
        tokens = [pool[int(i)] for i in rng.integers(0, len(pool), size=n)]
        ev, states, state, _ = prepare_source(tokens, params, vocab)
        prev = int(rng.integers(0, ev.size))
        out, _ = step_forward([prev], ev, states, state, params)

        assert abs(out.attn.sum() - 1.0) <= 1e-12
        assert abs(out.p_copy.sum() - 1.0) <= 1e-9
        off_source = np.setdiff1d(np.arange(ev.size), np.asarray(ev.source_ids))
        assert np.all(out.p_copy[0, off_source] == 0.0)
        assert abs(out.p.sum() - 1.0) <= 1e-9
        assert 0.0 < out.p_gen[0] < 1.0

        if draw % 100 == 0:
            pure_copy = mix(out.p_vocab, out.p_copy, np.array([0.0]))
            np.testing.assert_allclose(pure_copy, out.p_copy, atol=1e-12, rtol=0)
            pure_vocab = mix(out.p_vocab, out.p_copy, np.array([1.0]))
            np.testing.assert_allclose(pure_vocab[:, :vocab.size], out.p_vocab,
                                       atol=1e-12, rtol=0)
            assert np.all(pure_vocab[:, vocab.size:] == 0.0)
            checked_mix += 1
    _report("c2 distribution-laws", f"1000 draws, {checked_mix} degenerate-mix checks")


def _decode_accuracy(held, held_oovs, params, vocab, force_p_gen=None):
    total = hit = oov_total = oov_hit = 0
    for (src, tgt), oov in zip(held, held_oovs):
        gold = tokenize(tgt)
        out = greedy_decode(src, params, vocab, max_len=12, force_p_gen=force_p_gen)
        for i, g in enumerate(gold):
            total += 1
            ok = i < len(out) and out[i] == g
            hit += int(ok)
            if g == oov:
                oov_total += 1
                oov_hit += int(ok)
    return hit / total, oov_hit / oov_total, oov_hit


def test_c3_copy_mechanism_efficacy():
    started = time.perf_counter()
    pairs, oovs = copy_task_corpus(2000, seed=1)
    train_pairs, held = pairs[:1800], pairs[1800:]
    held_oovs = oovs[1800:]
    vocab = copy_task_vocab()

    cfg = TrainConfig(seed=1, epochs=5, vocab_size=54)  # defaults otherwise
    params, report = train(train_pairs, cfg, vocab=vocab)

    acc, oov_acc, _ = _decode_accuracy(held, held_oovs, params, vocab)
    assert acc >= 0.95, f"overall token accuracy {acc:.4f}"
    assert oov_acc >= 0.90, f"OOV-position accuracy {oov_acc:.4f}"

    # ablation: gate forced to pure generation cannot emit extended ids
    _, _, ablation_hits = _decode_accuracy(held, held_oovs, params, vocab, force_p_gen=1.0)
    assert ablation_hits == 0

    elapsed = time.perf_counter() - started
    assert elapsed <= 600.0, f"copy task took {elapsed:.0f}s"
    _report("c3 copy-mechanism",
            f"overall {acc:.3f}, OOV {oov_acc:.3f}, ablation OOV hits 0, "
            f"{cfg.epochs} epochs, {elapsed:.0f}s")


def test_c4_straight_line_oracle_equivalence():
    rng = np.random.default_rng(2024)
    pool = ["alpha", "beta", "gamma", "delta", "newword", "otherword"]
    worst = 0.0
    for case in range(100):
        params, vocab = tiny_model(seed=case, n_tokens=8, width=8)
        n = int(rng.integers(1, 6))
        tokens = [pool[int(i)] for i in rng.integers(0, len(pool), size=n)]
        ev, states, state, _ = prepare_source(tokens, params, vocab)
        prev = int(rng.integers(0, ev.size))

        out, _ = step_forward([prev], ev, states, state, params)
        w = model_arrays(params)
        from paragen.vocab import UNK
        prev_emb = w["embedding"][prev if prev < vocab.size else UNK]
        d_s = params.dims.d_s
        oracle = straight_line_step(w, states.H.copy(), ev.source_ids, ev.size,
                                    prev_emb, state[0, :d_s].copy(), state[0, d_s:].copy())
        for mine, theirs in ((out.p[0], oracle["p"]),
                             (out.p_vocab[0], oracle["p_vocab"]),
                             (out.p_copy[0], oracle["p_copy"]),
                             (out.state[0, :d_s], oracle["h"]),
                             (out.state[0, d_s:], oracle["c"])):
            diff = float(np.max(np.abs(mine - theirs)))
            worst = max(worst, diff)
            assert diff <= 1e-12
        gate_diff = abs(out.p_gen[0] - oracle["p_gen"])
        worst = max(worst, gate_diff)
        assert gate_diff <= 1e-12
    _report("c4 straight-line-oracle", f"100 cases, worst elementwise diff {worst:.2e}")


def test_c5_miner_exactness_and_recall():
    sizes = [50, 75, 100, 150, 200, 250, 300, 350, 400, 450,
             500, 550, 600, 650, 700, 750, 800, 850, 900, 1000]
    checked = 0
    for trial, size in enumerate(sizes):
        docs = random_sentence_docs(seed=trial, n_sentences=size,
                                    n_sources=4, vocab_size=100)
        recs = sentence_records(docs)
        index = build_index(recs)
        stride = max(1, len(recs) // 40)  # every corpus, a spread of references
        for rec in recs[::stride]:
            mine = query_similar(rec, index, k=5)
            oracle = brute_force_neighbours(recs, rec.sid, k=5)
            assert [sid for sid, _ in mine] == [sid for sid, _ in oracle], \
                f"trial {trial} sid {rec.sid}"
            for (_, s_mine), (_, s_oracle) in zip(mine, oracle):
                assert abs(s_mine - s_oracle) <= 1e-9
            checked += 1

    docs, planted = planted_paraphrase_docs(seed=4)
    pairs = align(docs, MineConfig())
    found = planted_recall(pairs, planted)
    assert found >= 45, f"planted recall {found}/50"
    _report("c5 miner-exactness",
            f"{checked} reference queries across 20 corpora exact; "
            f"planted recall {found}/50")


def test_c6_beam_sanity():
    rng = np.random.default_rng(7)
    base = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for trial in range(50):
        params, vocab = tiny_model(seed=100 + trial)
        n = int(rng.integers(1, 6))
        tokens = [base[int(i)] for i in rng.integers(0, len(base), size=n)]
        if rng.uniform() < 0.5:
            tokens[int(rng.integers(0, n))] = f"oov{trial}"
        source = " ".join(tokens)
        argmax = straight_line_greedy(params, vocab, tokenize(source), max_len=8)
        top = beam_decode(source, params, vocab, BeamConfig(beam_width=1, max_len=8))[0]
        assert top.surface == argmax
        assert greedy_decode(source, params, vocab, max_len=8) == argmax

    # exhaustive enumeration on a 2-step toy: V_fixed 6 + 2 OOVs = 8 ids
    matched = 0
    for seed in range(10):
        vocab = Vocabulary(["alpha", "beta"])
        dims = ModelDims(vocab_size=vocab.size, d_emb=4, d_h=4, d_s=4, d_a=4)
        params = ModelParams(dims, seed=seed)
        source = "alpha ox1 beta ox2"
        ev = ExtendedVocab(vocab, tokenize(source))
        assert ev.size == 8
        cfg = BeamConfig(beam_width=ev.size, max_len=2, length_norm=0.7)
        top = beam_decode(source, params, vocab, cfg)[0]

        def step_probs(prefix):
            _, states, state, _ = prepare_source(tokenize(source), params, vocab)
            for prev in (BOS,) + prefix:
                out, _ = step_forward([prev], ev, states, state, params)
                state = out.state
            return out.p[0]

        best_ids, best_lp, best_norm = enumerate_best_sequence(step_probs, 0.7, EOS)
        assert tuple(top.ids) == best_ids, f"seed {seed}: {top.ids} vs {best_ids}"
        assert abs(top.log_prob - best_lp) <= 1e-12
        matched += 1
    _report("c6 beam-sanity",
            f"50 width-1 trials token-exact; {matched}/10 exhaustive toys matched")


def test_c7_bleu():
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(15)]
    corpus = [[words[int(i)] for i in rng.integers(0, 15, size=rng.integers(3, 9))]
              for _ in range(20)]
    assert bleu(corpus, corpus).bleu == 1.0

    clipped = bleu([["the", "the", "the", "the"]], [["the", "cat", "the", "mat"]])
    assert clipped.precisions[0] == 0.5  # min(4, 2) / 4 exactly

    hyps = []
    refs = []
    for ref in corpus:
        hyp = list(ref)
        if rng.uniform() < 0.5:
            hyp[int(rng.integers(0, len(hyp)))] = words[int(rng.integers(0, 15))]
        hyps.append(hyp)
        refs.append(ref)
    base = bleu(hyps, refs)
    perm = list(rng.permutation(20))
    shuffled = bleu([hyps[i] for i in perm], [refs[i] for i in perm])
    assert shuffled.bleu == base.bleu
    _report("c7 bleu", f"identity 1.0, clipped p1 {clipped.precisions[0]}, "
            f"permutation-invariant at {base.bleu:.4f}")


def test_c8_cli_determinism(tmp_path, three_source_docs):
    doc_dir = write_doc_fixture(tmp_path, three_source_docs)
    mined = []
    for run in (1, 2):
        out = tmp_path / f"mine{run}.tsv"
        assert cli_main(["--seed", "1", "mine", "--docs", str(doc_dir),
                         "--out", str(out), "--min-sim", "0.3"]) == 0
        mined.append(out.read_bytes())
    assert mined[0] == mined[1]

    pairs, _ = copy_task_corpus(15, seed=0, min_len=3, max_len=5)
    data = tmp_path / "train.tsv"
    data.write_text("".join(f"{x}\t{y}\n" for x, y in pairs), encoding="utf-8")
    ckpts = []
    for run in (1, 2):
        ckpt = tmp_path / f"model{run}.ckpt"
        assert cli_main(["--seed", "1", "train", "--data", str(data), "--out", str(ckpt),
                         "--epochs", "2", "--vocab-size", "60", "--d-emb", "8",
                         "--d-h", "8", "--d-s", "8", "--d-a", "8"]) == 0
        ckpts.append(ckpt.read_bytes())
    assert ckpts[0] == ckpts[1]

    src = tmp_path / "input.txt"
    src.write_text("".join(x + "\n" for x, _ in pairs[:5]), encoding="utf-8")
    outs = []
    for run in (1, 2):
        out = tmp_path / f"gen{run}.tsv"
        assert cli_main(["--seed", "1", "generate", "--checkpoint", str(tmp_path / "model1.ckpt"),
                         "--input", str(src), "--out", str(out), "--beam", "3"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    _report("c8 determinism", "mine, train, generate byte-identical across reruns")
