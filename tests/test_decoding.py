from types import SimpleNamespace

import numpy as np
import pytest

import paragen.autograd as ag
import paragen.decoding as decoding
from paragen.decoding import (BeamConfig, Hypothesis, beam_decode, greedy_decode, render,
                              score_sequence)
from paragen.errors import ValidationError
from paragen.model import prepare_source
from paragen.training import TrainConfig, sequence_loss, train
from paragen.vocab import BOS, EOS, PAD, UNK, ExtendedVocab, tokenize

from conftest import copy_task_corpus, copy_task_vocab, tiny_model
from oracles import per_hypothesis_beam, straight_line_greedy


def test_render_mixed_ids():
    params, vocab = tiny_model()
    ev = ExtendedVocab(vocab, ["alpha", "zyxxy"])
    ids = [BOS, vocab.lookup("alpha"), vocab.size, EOS]
    assert render(ids, ev) == ["alpha", "zyxxy"]


def test_render_strips_all_specials():
    params, vocab = tiny_model()
    ev = ExtendedVocab(vocab, ["alpha"])
    assert render([BOS, EOS, PAD], ev) == []


def test_render_unk_is_literal():
    params, vocab = tiny_model()
    ev = ExtendedVocab(vocab, ["alpha"])
    assert render([UNK], ev) == ["<unk>"]


def test_render_out_of_range():
    params, vocab = tiny_model()
    ev = ExtendedVocab(vocab, ["alpha"])
    with pytest.raises(ValidationError):
        render([ev.size], ev)


def test_render_of_encoded_source_is_identity():
    params, vocab = tiny_model()
    tokens = ["alpha", "newword", "beta", "newword", "other"]
    ev = ExtendedVocab(vocab, tokens)
    assert render(ev.source_ids, ev) == tokens


def _stub_full_step(script):
    """B-row step stand-in that plays a fixed list of distributions, the same
    one to every row of a step, and hands each row its state back."""
    calls = {"t": 0}

    def fake(prev_ids, ev, states, state, params, force_p_gen=None):
        probs = script[min(calls["t"], len(script) - 1)]
        calls["t"] += 1
        p = np.tile(np.asarray(probs, dtype=np.float64), (len(prev_ids), 1))
        return SimpleNamespace(p=p, state=state), None
    return fake


def test_greedy_forced_copy_chain(monkeypatch):
    # one-hot chain over the source ids, then EOS: output must equal the
    # source verbatim, OOV surface included
    params, vocab = tiny_model()
    tokens = ["alpha", "zyxxy", "beta"]
    ev = ExtendedVocab(vocab, tokens)
    ids = ev.source_ids
    size = ev.size
    script = []
    for idx in ids:
        row = np.zeros(size)
        row[idx] = 1.0
        script.append(row)
    eos_row = np.zeros(size)
    eos_row[EOS] = 1.0
    script.append(eos_row)
    monkeypatch.setattr(decoding, "full_step", _stub_full_step(script))
    out = greedy_decode("alpha zyxxy beta", params, vocab, max_len=10)
    assert out == tokens


def test_greedy_max_len_zero():
    params, vocab = tiny_model()
    assert greedy_decode("alpha beta gamma delta", params, vocab, max_len=0) == []


def test_greedy_tie_breaks_to_lowest_id(monkeypatch):
    params, vocab = tiny_model()
    ev = ExtendedVocab(vocab, ["alpha"])
    flat = np.full(ev.size, 1.0 / ev.size)
    monkeypatch.setattr(decoding, "full_step", _stub_full_step([flat]))
    out1 = greedy_decode("alpha", params, vocab, max_len=1)
    out2 = greedy_decode("alpha", params, vocab, max_len=1)
    assert out1 == out2 == []  # id 0 is PAD, stripped by render


def test_greedy_empty_source_rejected():
    params, vocab = tiny_model()
    with pytest.raises(ValidationError):
        greedy_decode("", params, vocab)


def test_beam_width_one_equals_greedy():
    rng = np.random.default_rng(0)
    base = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for trial in range(50):
        params, vocab = tiny_model(seed=trial)
        n = int(rng.integers(1, 6))
        tokens = [base[int(i)] for i in rng.integers(0, len(base), size=n)]
        if rng.uniform() < 0.5:
            tokens[int(rng.integers(0, n))] = f"oov{trial}"
        source = " ".join(tokens)
        argmax = straight_line_greedy(params, vocab, tokenize(source), max_len=8)
        beam = beam_decode(source, params, vocab,
                           BeamConfig(beam_width=1, max_len=8))
        assert beam[0].surface == argmax, f"trial {trial}: {beam[0].surface} != {argmax}"
        assert greedy_decode(source, params, vocab, max_len=8) == argmax


def test_beam_matches_per_hypothesis_search():
    rng = np.random.default_rng(5)
    base = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for trial in range(50):
        params, vocab = tiny_model(seed=200 + trial)
        n = int(rng.integers(1, 6))
        tokens = [base[int(i)] for i in rng.integers(0, len(base), size=n)]
        if rng.uniform() < 0.5:
            tokens[int(rng.integers(0, n))] = f"oov{trial}"
        source = " ".join(tokens)
        width = trial % 4 + 1
        mine = beam_decode(source, params, vocab, BeamConfig(beam_width=width, max_len=6))
        oracle = per_hypothesis_beam(params, vocab, tokens, width, 6, BeamConfig.length_norm)
        assert [h.ids for h in mine] == [ids for ids, _ in oracle], f"trial {trial}"
        for hyp, (_, log_prob) in zip(mine, oracle):
            assert abs(hyp.log_prob - log_prob) <= 1e-12, f"trial {trial}"


def test_beam_tie_uniform_keeps_lowest_ids(monkeypatch):
    params, vocab = tiny_model()
    ev = ExtendedVocab(vocab, ["alpha"])
    flat = np.full(ev.size, 1.0 / ev.size)
    monkeypatch.setattr(decoding, "full_step", _stub_full_step([flat]))
    hyps = beam_decode("alpha", params, vocab, BeamConfig(beam_width=4, max_len=1))
    assert sorted(h.ids for h in hyps) == [(0,), (1,), (2,), (3,)]
    hyps = beam_decode("alpha", params, vocab, BeamConfig(beam_width=4, max_len=2))
    # step 2 keeps (0, 0) .. (0, 3) of the 36 tied candidates; (0, EOS) retires
    assert [h.ids for h in hyps] == [(EOS,), (0, 0), (0, 1), (0, 2), (0, EOS)]


def test_beam_tie_at_floor_breaks_to_lowest_extended_id():
    # forced pure generation: the extended ids get probability 0, clamped to
    # LOG_FLOOR; the vocabulary branch puts all but two ids below the floor
    # too, so width 4 keeps those two and then the lowest floor ids
    params, vocab = tiny_model(seed=3)
    params.projection.weight.data[...] = 0.0
    params.projection.bias.data[...] = -60.0
    params.projection.bias.data[[5, 9]] = 0.0
    source = "zyxxy alpha qwerty"
    cfg = BeamConfig(beam_width=4, max_len=3)
    mine = beam_decode(source, params, vocab, cfg, force_p_gen=1.0)
    oracle = per_hypothesis_beam(params, vocab, tokenize(source), 4, 3, cfg.length_norm,
                                 force_p_gen=1.0)
    assert [h.ids for h in mine] == [ids for ids, _ in oracle]
    for hyp, (_, log_prob) in zip(mine, oracle):
        assert abs(hyp.log_prob - log_prob) <= 1e-12
    first = beam_decode(source, params, vocab, BeamConfig(beam_width=4, max_len=1),
                        force_p_gen=1.0)
    assert sorted(h.ids for h in first) == [(0,), (1,), (5,), (9,)]


def test_decoding_builds_no_graph_after_prepare_source(monkeypatch):
    """prepare_source, beam_decode and score_sequence build no loss node with
    a backward closure; the training loss of one pair is exactly one."""
    params, vocab = tiny_model(seed=6)
    built, node = [], ag._node

    def counting_node(*args, **kwargs):
        out = node(*args, **kwargs)
        if out._backward is not None:
            built.append(out)
        return out

    monkeypatch.setattr(ag, "_node", counting_node)
    prepare_source(["alpha", "zyxxy", "beta"], params, vocab)
    hyps = beam_decode("alpha zyxxy beta", params, vocab, BeamConfig(beam_width=3, max_len=6))
    score_sequence("alpha zyxxy beta", hyps[0].ids, params, vocab)
    assert built == []
    loss = sequence_loss(("alpha zyxxy beta", "zyxxy beta"), params, vocab)
    assert built == [loss]


def test_score_sequence_rejects_ids_outside_extended_vocabulary():
    params, vocab = tiny_model(seed=6)
    ev = ExtendedVocab(vocab, tokenize("alpha zyxxy beta"))
    assert score_sequence("alpha zyxxy beta", [ev.size - 1], params, vocab) < 0.0
    for bad in (-1, ev.size, 2.5):
        with pytest.raises(ValidationError, match="not an int in"):
            score_sequence("alpha zyxxy beta", [5, bad], params, vocab)


def test_beam_scores_replayable():
    for seed in (1, 2, 3):
        params, vocab = tiny_model(seed=seed)
        source = "alpha oovword beta"
        for hyp in beam_decode(source, params, vocab, BeamConfig(beam_width=3, max_len=6)):
            replayed = score_sequence(source, hyp.ids, params, vocab)
            assert abs(replayed - hyp.log_prob) <= 1e-9


def test_beam_hypothesis_logprob_nonincreasing():
    params, vocab = tiny_model(seed=4)
    hyps = beam_decode("alpha beta gamma", params, vocab,
                       BeamConfig(beam_width=4, max_len=6))
    for hyp in hyps:
        assert hyp.log_prob <= 0.0
        assert hyp.finished == (hyp.ids[-1] == EOS if hyp.ids else False)


def test_length_normalization_flips_ranking():
    short_high = Hypothesis(ids=(5, EOS), log_prob=-0.2, finished=True)
    long_low = Hypothesis(ids=(5, 6, 7, 8, EOS), log_prob=-0.4, finished=True)
    # alpha 0: raw log-prob wins, short hypothesis first
    assert short_high.normalized_score(0.0) > long_low.normalized_score(0.0)
    # alpha 1: per-token average wins, long hypothesis first
    assert long_low.normalized_score(1.0) > short_high.normalized_score(1.0)


def test_beam_config_validation():
    with pytest.raises(ValidationError):
        BeamConfig(beam_width=0)
    with pytest.raises(ValidationError):
        BeamConfig(length_norm=1.5)


def test_trained_copy_model_copies_oov():
    # tiny end-to-end sanity run: after training on the copy task the decoder
    # reproduces unseen OOV tokens through the copy branch
    pairs, oovs = copy_task_corpus(80, seed=3, min_len=3, max_len=5)
    # lr scaled with the default batch of 8 pairs, which takes 8x fewer updates
    cfg = TrainConfig(seed=3, epochs=6, lr=8e-3, vocab_size=60, d_emb=16, d_h=16, d_s=16,
                      d_a=16)
    vocab = copy_task_vocab()
    params, _ = train(pairs[:70], cfg, vocab=vocab)
    hits = 0
    for (src, _), oov in zip(pairs[70:], oovs[70:]):
        out = greedy_decode(src, params, vocab, max_len=10)
        if oov in out:
            hits += 1
    assert hits >= 7, f"copied OOV in only {hits}/10 held-out sentences"


def test_top_candidates_match_stable_argsort_of_logs():
    rng = np.random.default_rng(9)
    rows = [rng.dirichlet(np.ones(30)) for _ in range(20)]
    for x in (3e-10, 1e-11, 2e-12):
        # the two largest probabilities differ but their logs round to the
        # same double; the lower id holds the smaller one, so only the log
        # order puts it first
        row = np.full(30, x / 2)
        row[[4, 7]] = np.nextafter(x, 0.0), x
        assert np.log(row[4]) == np.log(row[7])
        rows.append(row)
    rows.append(np.zeros(30))  # every id at LOG_FLOOR
    for k in (1, 2, 4, 31):
        for p in rows:
            rs, ids, logp = decoding.top_candidates(p[None], k)
            logs = np.log(np.maximum(p, 1e-12))
            expect = np.argsort(-logs, kind="stable")[:k]
            assert ids.tolist() == expect.tolist() and not rs.any()
            np.testing.assert_array_equal(logp, logs[expect])
