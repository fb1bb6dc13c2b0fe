import numpy as np
import pytest

import paragen.decoding as decoding
from paragen.autograd import Tensor
from paragen.decoding import (BeamConfig, Hypothesis, beam_decode, greedy_decode, render,
                              score_sequence)
from paragen.errors import ValidationError
from paragen.pointer import StepDistribution
from paragen.training import TrainConfig, train
from paragen.vocab import BOS, EOS, PAD, UNK, encode_source, tokenize

from conftest import copy_task_corpus, copy_task_vocab, tiny_model
from oracles import straight_line_greedy


def test_render_mixed_ids():
    params, vocab = tiny_model()
    _, ev = encode_source(["alpha", "zyxxy"], vocab)
    ids = [BOS, vocab.lookup("alpha"), vocab.size, EOS]
    assert render(ids, ev) == ["alpha", "zyxxy"]


def test_render_strips_all_specials():
    params, vocab = tiny_model()
    _, ev = encode_source(["alpha"], vocab)
    assert render([BOS, EOS, PAD], ev) == []


def test_render_unk_is_literal():
    params, vocab = tiny_model()
    _, ev = encode_source(["alpha"], vocab)
    assert render([UNK], ev) == ["<unk>"]


def test_render_out_of_range():
    params, vocab = tiny_model()
    _, ev = encode_source(["alpha"], vocab)
    with pytest.raises(ValidationError):
        render([ev.size], ev)


def test_render_of_encoded_source_is_identity():
    params, vocab = tiny_model()
    tokens = ["alpha", "newword", "beta", "newword", "other"]
    ids, ev = encode_source(tokens, vocab)
    assert render(ids, ev) == tokens


def _stub_full_step(script):
    """full_step stand-in that plays a fixed list of distributions."""
    calls = {"t": 0}

    def fake(prev_id, ev, states, state, params, force_p_gen=None):
        probs = script[min(calls["t"], len(script) - 1)]
        calls["t"] += 1
        p = Tensor(np.asarray(probs, dtype=np.float64))
        dist = StepDistribution(p_vocab=p, p_copy=p, p_gen=Tensor(0.5), p=p)
        return dist, state
    return fake


def test_greedy_forced_copy_chain(monkeypatch):
    # one-hot chain over the source ids, then EOS: output must equal the
    # source verbatim, OOV surface included
    params, vocab = tiny_model()
    tokens = ["alpha", "zyxxy", "beta"]
    ids, ev = encode_source(tokens, vocab)
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
    _, ev = encode_source(["alpha"], vocab)
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
    short_high = Hypothesis(ids=(5, EOS), log_prob=-0.2, state=None, finished=True)
    long_low = Hypothesis(ids=(5, 6, 7, 8, EOS), log_prob=-0.4, state=None, finished=True)
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
    cfg = TrainConfig(seed=3, epochs=6, vocab_size=60, d_emb=16, d_h=16, d_s=16, d_a=16)
    vocab = copy_task_vocab()
    params, _ = train(pairs[:70], cfg, vocab=vocab)
    hits = 0
    for (src, _), oov in zip(pairs[70:], oovs[70:]):
        out = greedy_decode(src, params, vocab, max_len=10)
        if oov in out:
            hits += 1
    assert hits >= 7, f"copied OOV in only {hits}/10 held-out sentences"
