import hashlib
import io
import json
import math
import tempfile
import time
import tracemalloc
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paragen.autograd import backward
from paragen import training
from paragen.errors import NumericalError, ValidationError
from paragen.layers import stack_gates
from paragen.model import ModelDims, ModelParams, prepare_source
from paragen.training import (Adam, CheckpointError, CorruptCheckpointError, TrainConfig,
                              VersionMismatchError,
                              VocabMismatchError, WidthMismatchError, clip_gradients,
                              load_checkpoint, load_pairs_tsv, save_checkpoint,
                              save_pairs_tsv, sequence_loss, train)
from paragen.vocab import Vocabulary, tokenize

from conftest import copy_task_corpus, copy_task_vocab, tiny_model, zero_params
from oracles import (PerTensorAdam, per_step_sequence_loss, per_tensor_grad_norm,
                     straight_line_sequence_nll)


def test_zero_weight_model_closed_form_loss():
    # disjoint source/target vocab: copy mass never lands on a gold token, so
    # every step has P(gold) = p_gen / V = 0.5 / V exactly
    vocab = Vocabulary(["aa", "bb", "cc", "dd", "ee"])
    dims = ModelDims(vocab_size=vocab.size, d_emb=4, d_h=4, d_s=4, d_a=4)
    params = zero_params(ModelParams(dims, seed=0))
    loss = sequence_loss(("aa bb cc", "dd ee"), params, vocab)
    expected = -math.log(0.5 / vocab.size)
    assert float(loss.data) == pytest.approx(expected, abs=1e-9)


def test_loss_positive_single_token_copy():
    params, vocab = tiny_model(seed=1)
    loss = sequence_loss(("alpha", "alpha"), params, vocab)
    assert np.isfinite(loss.data) and float(loss.data) > 0.0


def test_sequence_loss_matches_straight_line_oracle():
    params, vocab = tiny_model(seed=11)
    src = ["alpha", "zyxxy", "beta"]
    tgt = ["zyxxy", "alpha"]
    mine = float(sequence_loss((" ".join(src), " ".join(tgt)), params, vocab).data)
    oracle = straight_line_sequence_nll(params, vocab, src, tgt)
    assert mine == pytest.approx(oracle, abs=1e-12)


def test_sequence_loss_matches_per_step_oracle():
    """One output layer over the whole sequence against one per gold token:
    loss to 1e-12 relative, every gradient element to 1e-12 of its tensor's
    largest, greedy-match count and per-step gates exactly.

    The attention tensors are held to the model's largest gradient entry
    instead: their gradients pass through the attention softmax's, which sums
    to zero over positions, so they are sums of terms that nearly cancel, and
    the last-bit differences of the batched projection reach 5e-11 (bias) and
    6e-13 (weight) of their own largest entries."""
    from paragen.training import _teacher_forced, _tokenized, _truncated

    cases = [("w01 name1x w02", "w02", 50),  # one target token: the shortest sequence
             ("w03 w04 w03 w04 w03", "w04 w03 w03 w05", 50),  # repeated source tokens
             ("w06 name2x w07 name3x", "name3x w07 name2x name2x", 50),  # OOV gold ids
             # truncated target, holding an OOV absent from the source (trains as UNK)
             ("w08 w09", "w09 w08 unseenx w10 w11 w12", 4)]
    v350 = Vocabulary([f"w{i:02d}" for i in range(50)] + [f"u{i:03d}" for i in range(296)])
    for vocab in (copy_task_vocab(), v350):
        assert vocab.size in (54, 350)
        for width in range(1, 17):
            params = ModelParams(ModelDims(vocab_size=vocab.size, d_emb=width, d_h=width,
                                           d_s=width, d_a=width), seed=width)
            for x, y, max_target_len in cases:
                params.zero_grad()
                loss, _, correct, _, p_gen = _teacher_forced(
                    _truncated(_tokenized([(x, y)]), 50, max_target_len), params, vocab)
                backward(loss)
                grads = [p.grad.copy() for _, p in params.named_parameters()]
                want_loss, want_correct, want_p_gen = per_step_sequence_loss(
                    params, vocab, tokenize(x), tokenize(y)[:max_target_len])
                assert abs(float(loss.data) - want_loss) <= 1e-12 * abs(want_loss)
                assert (correct, p_gen) == (want_correct, want_p_gen)
                for mine, (name, p) in zip(grads, params.named_parameters()):
                    scale = params.grad if name.startswith("attention.") else p.grad
                    assert np.abs(mine - p.grad).max() <= 1e-12 * np.abs(scale).max(), name


def test_sequence_loss_truncates_with_warning(caplog):
    params, vocab = tiny_model(seed=0)
    long_src = " ".join(["alpha"] * 60)
    with caplog.at_level("WARNING"):
        loss = sequence_loss((long_src, "alpha"), params, vocab)
    assert np.isfinite(loss.data)
    assert any("truncated" in r.message for r in caplog.records)


def test_train_tokenizes_and_truncates_each_pair_once_per_run(caplog, monkeypatch):
    """Two epochs over a pair longer than the source limit: the pair is
    tokenized once and its truncation is logged once, not once per epoch."""
    import paragen.training as training

    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(training, "tokenize", counting)
    pairs = [(" ".join(["w01"] * 9), "w01 w02"), ("w03 w04", "w04 w03")]
    cfg = TrainConfig(seed=0, epochs=2, max_source_len=6, d_emb=4, d_h=4, d_s=4, d_a=4)
    with caplog.at_level("WARNING", logger="paragen.training"):
        train(pairs, cfg, vocab=copy_task_vocab())
    assert [r.getMessage() for r in caplog.records if "truncated" in r.getMessage()] == [
        "source truncated from 9 to 6 tokens"]
    assert sorted(calls) == sorted(text for pair in pairs for text in pair)


def test_empty_pair_rejected():
    """The error names the pair's index in what the caller passed."""
    params, vocab = tiny_model(seed=0)
    with pytest.raises(ValidationError, match="^pair 0: empty source or target"):
        sequence_loss(("", "alpha"), params, vocab)
    with pytest.raises(ValidationError, match="^pair 2: empty source or target"):
        train([("a b", "c"), ("d", "e f"), ("g", " \t")], TrainConfig(seed=0))


def test_clip_gradients_norm_and_direction():
    rng = np.random.default_rng(0)
    grad = rng.normal(size=15) * 10
    flat_before = grad.copy()
    pre_norm = clip_gradients(grad, clip=2.0)
    post_norm = float(np.linalg.norm(grad))
    assert pre_norm == pytest.approx(float(np.linalg.norm(flat_before)), rel=1e-12)
    assert post_norm <= 2.0 + 1e-9
    cosine = float(flat_before @ grad / (np.linalg.norm(flat_before) * post_norm))
    assert cosine == pytest.approx(1.0, abs=1e-12)


def test_clip_noop_when_below_threshold():
    grad = np.array([0.1, 0.0, 0.0])
    grad.setflags(write=False)  # a factor of exactly 1.0 skips the multiply
    clip_gradients(grad, clip=2.0)
    np.testing.assert_array_equal(grad, [0.1, 0.0, 0.0])


@pytest.mark.parametrize("clip", [1e6, 0.5])  # the mean below the clip; above it
def test_clip_gradients_of_a_sum_clips_its_mean(clip):
    rng = np.random.default_rng(1)
    grads = rng.normal(size=(3, 15))
    grad = grads.sum(axis=0)
    mean = grads.mean(axis=0)
    norm = clip_gradients(grad, clip, batch_size=3)
    assert norm == pytest.approx(float(np.linalg.norm(mean)), rel=1e-12)
    np.testing.assert_allclose(grad, mean * min(1.0, clip / norm), rtol=1e-12, atol=0)


def _model_gradient(seed):
    params, vocab = tiny_model(seed=seed)
    backward(sequence_loss(("alpha beta gamma", "gamma zyxxy alpha"), params, vocab))
    return params


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_clip_norm_matches_per_tensor_oracle(seed):
    params = _model_gradient(seed)
    oracle = per_tensor_grad_norm(params.named_parameters())
    before = params.grad.copy()
    norm = clip_gradients(params.grad, clip=oracle * 2)
    assert norm == pytest.approx(oracle, rel=1e-12)
    np.testing.assert_array_equal(params.grad, before)  # below the clip: untouched


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_clip_above_threshold_scales_by_exactly_clip_over_norm(seed):
    params = _model_gradient(seed)
    before = params.grad.copy()
    clip = per_tensor_grad_norm(params.named_parameters()) / 3
    norm = clip_gradients(params.grad, clip)
    np.testing.assert_array_equal(params.grad, before * (clip / norm))
    assert float(np.linalg.norm(params.grad)) == pytest.approx(clip, rel=1e-12)


def test_adam_zero_lr_is_identity():
    params, vocab = tiny_model(seed=3)
    reference = {n: p.data.copy() for n, p in params.named_parameters()}
    opt = Adam(params.flat, params.grad, lr=0.0)
    loss = sequence_loss(("alpha beta", "beta alpha"), params, vocab)
    params.zero_grad()
    backward(loss)
    opt.step()
    for n, p in params.named_parameters():
        np.testing.assert_array_equal(p.data, reference[n])


def test_flat_adam_equals_per_tensor_adam_bit_for_bit():
    params, vocab = tiny_model(seed=3)
    reference = {n: p.data.copy() for n, p in params.named_parameters()}
    oracle = PerTensorAdam(reference, lr=1e-2)
    opt = Adam(params.flat, params.grad, lr=1e-2)
    pairs = [("alpha beta", "beta alpha"), ("gamma zyxxy", "zyxxy"), ("delta", "eta delta")]
    for step in range(5):
        params.zero_grad()
        backward(sequence_loss(pairs[step % len(pairs)], params, vocab))
        oracle.step({n: p.grad.copy() for n, p in params.named_parameters()})
        opt.step()
        for n, p in params.named_parameters():
            np.testing.assert_array_equal(p.data, reference[n], err_msg=f"step {step} {n}")
    assert not np.array_equal(params.flat, tiny_model(seed=3)[0].flat)


@pytest.mark.parametrize("block", [1, 7, 1 << 20])  # one value per block, a ragged tail, one block
def test_blocked_adam_equals_per_tensor_adam_across_block_boundaries(block, monkeypatch):
    size = tiny_model(seed=3)[0].flat.size
    assert size % 7 and size < 1 << 20
    monkeypatch.setattr(Adam, "BLOCK", block)
    test_flat_adam_equals_per_tensor_adam_bit_for_bit()


def test_training_equals_oracle_adam_and_norm_loop_bit_for_bit():
    # a clip nothing reaches: the clipping path must leave every gradient as it is
    pairs, _ = copy_task_corpus(6, seed=7)
    vocab = copy_task_vocab()
    cfg = TrainConfig(seed=7, epochs=2, clip=1e6, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4,
                      batch_size=1)
    trained, _ = train(pairs, cfg, vocab=vocab)

    params = ModelParams(cfg.dims(vocab.size), seed=cfg.seed)
    oracle = PerTensorAdam({n: p.data for n, p in params.named_parameters()}, lr=cfg.lr)
    shuffle_rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        for idx in shuffle_rng.permutation(len(pairs)):
            params.zero_grad()
            backward(sequence_loss(pairs[idx], params, vocab))
            assert per_tensor_grad_norm(params.named_parameters()) < cfg.clip
            oracle.step({n: p.grad for n, p in params.named_parameters()})
    np.testing.assert_array_equal(trained.flat, params.flat)
    assert not np.array_equal(trained.flat, ModelParams(cfg.dims(vocab.size), seed=7).flat)


@pytest.mark.parametrize("seed", [7, 8, 9])
@pytest.mark.parametrize("batch_size", [3, 4, 12])  # 3, 3, 3, 1; 4, 4, 2; one batch per epoch
def test_batched_training_equals_mean_gradient_oracle(batch_size, seed, monkeypatch):
    """Each update steps the clipped mean of its pairs' gradients. Every Adam
    step of train() is recorded with the weights it started from and the
    scaled, clipped gradient it stepped. From those same weights an oracle
    collects per-example gradients, sums them tensor by tensor and scales the
    sum once by min(1, clip / norm) / B, the same order of rounding as train.
    Comparing update by update keeps Adam from growing the last-bit
    differences of nearly cancelling sums over later updates; the weights are
    then held bit for bit to Adam stepping train's own gradients. The clip is
    the median norm of an unclipped run's updates, so both the clipped and
    the unclipped path run. Each batch is encoded once, as one EncoderStates
    over all its pairs, and those states (the gate copies among them) are
    the ones the weights the previous update left give."""
    pairs, _ = copy_task_corpus(10, seed=7)
    vocab = copy_task_vocab()
    cfg = TrainConfig(seed=seed, epochs=2, lr=1e-2, clip=1e6, vocab_size=60,
                      d_emb=4, d_h=4, d_s=4, d_a=4, batch_size=batch_size)
    encoded, updates = [], []  # (sources, EncoderStates, initial states); (weights, gradient)

    def recording_prepare(sources, *args):
        evs, states, state, cache = prepare_source(sources, *args)
        encoded.append((sources, states, state))
        return evs, states, state, cache

    def recording_step(self):
        updates.append((self.data.copy(), self.grad.copy()))
        step(self)

    def recorded_train(cfg):
        encoded.clear()
        updates.clear()
        with monkeypatch.context() as m:
            m.setattr("paragen.training.prepare_source", recording_prepare)
            m.setattr(Adam, "step", recording_step)
            return train(pairs, cfg, vocab=vocab)

    step = Adam.step
    recorded_train(cfg)  # unclipped, each update steps its mean gradient
    cfg = replace(cfg, clip=float(np.median([np.linalg.norm(g) for _, g in updates])))
    trained, report = recorded_train(cfg)

    n_updates = math.ceil(len(pairs) / batch_size)
    assert len(updates) == cfg.epochs * n_updates
    assert [e.updates for e in report.epochs] == [n_updates] * cfg.epochs
    params = ModelParams(cfg.dims(vocab.size), seed=cfg.seed)
    stepped = ModelParams(cfg.dims(vocab.size), seed=cfg.seed)
    oracle = PerTensorAdam({n: p.data for n, p in stepped.named_parameters()}, lr=cfg.lr)
    shuffle_rng = np.random.default_rng(cfg.seed)
    batches = [order[start:start + batch_size] for order in
               (shuffle_rng.permutation(len(pairs)) for _ in range(cfg.epochs))
               for start in range(0, len(pairs), batch_size)]
    assert len(encoded) == len(updates)  # one encoding per batch
    norms = []
    for batch, (weights, got), (sources, states, state) in zip(batches, updates, encoded):
        np.testing.assert_array_equal(weights, stepped.flat)
        params.flat[...] = weights
        assert sources == [tokenize(pairs[idx][0]) for idx in batch]
        _, want_states, want_state, _ = prepare_source(sources, params, vocab)
        for got_field, want_field in zip((*astuple(states)[:4], *states.gates, state),
                                         (*astuple(want_states)[:4], *want_states.gates,
                                          want_state)):
            np.testing.assert_array_equal(got_field, want_field)
        np.testing.assert_array_equal(states.gates[0], stack_gates(params.decoder)[0])
        grads = []
        for idx in batch:
            params.zero_grad()
            backward(sequence_loss(pairs[idx], params, vocab))
            grads.append({n: p.grad.copy() for n, p in params.named_parameters()})
        total = {n: np.sum([g[n] for g in grads], axis=0) for n in grads[0]}
        norms.append(float(np.sqrt(sum((g * g).sum() for g in total.values()))) / len(batch))
        scale = min(1.0, cfg.clip / norms[-1]) / len(batch)
        params.grad[...] = got  # read train's gradient through the named views
        for name, p in params.named_parameters():
            want = total[name] * scale
            assert np.max(np.abs(p.grad - want)) <= 1e-12 * np.max(np.abs(want)), name
        oracle.step({n: p.grad for n, p in params.named_parameters()})
    np.testing.assert_array_equal(trained.flat, stepped.flat)
    assert min(norms) < cfg.clip < max(norms)  # both the clipped and the unclipped path ran

    # the second batch's gates are the first update's, not the initial copy
    assert not np.allclose(encoded[1][1].gates[0], encoded[0][1].gates[0], rtol=0, atol=1e-6)


def test_gates_are_stacked_once_per_cell_per_batch(monkeypatch):
    """Memory contract: a batch holds its caches until its backward, so its
    pairs are encoded together and share one stacked copy of each LSTM
    cell's gates instead of stacking three of their own. Training stores
    nothing on the parameters, and a later encoding stacks the weights
    afresh."""
    import paragen.model as model

    calls, encoded = [], []

    def counting(cell):
        calls.append(cell)
        return stack_gates(cell)

    def recording_prepare(sources, *args):
        evs, states, state, cache = prepare_source(sources, *args)
        _, _, W_f, W_b, *_ = cache[1]  # the encode cache holds each direction's stacked W
        encoded.append((len(sources), states.gates, W_f, W_b))
        return evs, states, state, cache

    monkeypatch.setattr(model, "stack_gates", counting)
    monkeypatch.setattr("paragen.training.prepare_source", recording_prepare)
    pairs, _ = copy_task_corpus(10, seed=3)
    cfg = TrainConfig(seed=3, epochs=2, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4,
                      batch_size=4)  # batches of 4, 4 and 2 pairs
    params, _ = train(pairs, cfg, vocab=copy_task_vocab())
    assert len(calls) == 3 * 3 * cfg.epochs  # three cells, three batches, two epochs
    assert calls[:3] == [params.encoder_fwd, params.encoder_bwd, params.decoder]
    assert [n for n, *_ in encoded] == [4, 4, 2] * cfg.epochs  # one encoding per batch
    for k in range(1, 4):  # each batch stacked its own copies
        assert len({id(stacked[k]) for stacked in encoded}) == len(encoded)
    assert vars(params).keys() == vars(ModelParams(params.dims, seed=3)).keys()

    calls.clear()
    sequence_loss(pairs[0], params, copy_task_vocab())
    assert calls == [params.encoder_fwd, params.encoder_bwd, params.decoder]


def test_batch_gradient_equals_sum_of_pair_gradients_at_v10k():
    """One vocabulary half over every pair's rows against one per pair, at
    the CLI's vocabulary size: each pair's loss exactly, every gradient
    element to 1e-12 of its tensor's largest (the batch sums the
    projection's and the gate's products over all its rows at once). As in
    test_sequence_loss_matches_per_step_oracle, the attention tensors, sums
    of nearly cancelling terms, are held to the model's largest entry."""
    from paragen.training import _teacher_forced, _tokenized, _truncated

    vocab = Vocabulary([f"u{i:04d}" for i in range(10000)])
    params = ModelParams(ModelDims(vocab_size=vocab.size, d_emb=8, d_h=8, d_s=8, d_a=8), seed=4)
    pairs = [("u0001 u0002 zyxxy u0003", "u0002 zyxxy u0500"), ("u9999 qwop", "qwop u9999 u0001"),
             ("u0010 u0011 u0012 u0010", "unseenx u0011")]
    want_nlls = []
    for pair in pairs:
        loss = sequence_loss(pair, params, vocab)
        backward(loss)
        want_nlls.append(float(loss.data))
    want = [p.grad.copy() for _, p in params.named_parameters()]
    largest = np.abs(params.grad).max()
    params.zero_grad()
    loss, nlls, *_ = _teacher_forced(_truncated(_tokenized(pairs), 50, 50), params, vocab)
    backward(loss)
    assert nlls == want_nlls
    for (name, p), theirs in zip(params.named_parameters(), want):
        scale = largest if name.startswith("attention.") else np.abs(theirs).max()
        assert np.abs(p.grad - theirs).max() <= 1e-12 * scale, name


BATCH_WORDS = ["w0", "w1", "w2", "w3", "w4", "w5", "oa", "ob"]  # the last two are OOV


def _batch_model(width, seed):
    vocab = Vocabulary(BATCH_WORDS[:6])
    return ModelParams(ModelDims(vocab_size=vocab.size, d_emb=width, d_h=width, d_s=width,
                                 d_a=width), seed=seed), vocab


@st.composite
def _token_pair(draw):
    """A source of 1-12 tokens with repeats and OOVs, and a target of 1-6
    tokens drawn from the source (so OOVs are copied, with gold ids past V),
    the vocabulary and an OOV absent from the source (gold UNK)."""
    src = draw(st.lists(st.sampled_from(BATCH_WORDS), min_size=1, max_size=12))
    tgt = draw(st.lists(st.sampled_from(src + BATCH_WORDS[:3] + ["unseenx"]),
                        min_size=1, max_size=6))
    return src, tgt


def _batch_grads(run, pairs, params, vocab):
    """``run`` (a teacher-forced loss of token pairs) and its backward from
    zeroed gradients: (loss, nlls, correct, gold ids, gates, gradients)."""
    params.zero_grad()
    loss, nlls, correct, golds, gates = run(pairs, params, vocab)
    backward(loss)
    return (float(loss.data), nlls, correct, golds, gates,
            {name: p.grad.copy() for name, p in params.named_parameters()})


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pairs=st.lists(_token_pair(), min_size=1, max_size=8), width=st.integers(1, 4),
       seed=st.integers(0, 3))
def test_padded_batch_equals_per_pair_oracle(pairs, width, seed):
    """One padded, masked recurrence over the batch against the per-pair
    path it replaced: the batch loss and each pair's NLL to 1e-12 relative,
    every gradient tensor to 1e-12 of its largest entry, the greedy-match
    count and the gold ids exactly, and the gates to 1e-12. The gates are
    not held bit for bit: the oracle's one-row products go through gemv,
    which rounds apart from the batch's gemm."""
    from oracles import per_pair_teacher_forced
    from paragen.training import _teacher_forced

    params, vocab = _batch_model(width, seed)
    loss, nlls, correct, golds, gates, grads = _batch_grads(_teacher_forced, pairs, params, vocab)
    want_loss, want_nlls, want_correct, want_golds, want_gates, want = _batch_grads(
        per_pair_teacher_forced, pairs, params, vocab)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for nll, want_nll in zip(nlls, want_nlls, strict=True):
        assert abs(nll - want_nll) <= 1e-12 * abs(want_nll)
    assert (correct, golds) == (want_correct, want_golds)
    np.testing.assert_allclose(gates, want_gates, rtol=0, atol=1e-12)
    for name, theirs in want.items():
        assert np.abs(grads[name] - theirs).max() <= 1e-12 * np.abs(theirs).max(), name


def test_a_pair_does_not_depend_on_its_batch():
    """A pair shuffled into batches whose other pairs have shorter and longer
    sources and targets: its NLL, and its share of the batch gradient (the
    batch's gradient less that of the batch without it), equal the pair's
    own to 1e-12 of each tensor's largest entry."""
    from paragen.training import _teacher_forced

    params, vocab = _batch_model(4, 2)
    pair = (["w1", "oa", "w2", "oa", "w3"], ["oa", "w2", "w1"])
    others = [(["w4"], ["w4", "w4", "w4", "w4", "w5"]), (["ob", "w0"], ["ob"]),
              (["w5", "w4", "w3", "w2", "w1", "w0", "oa", "ob", "w0", "w1", "w2", "w3"], ["w0"])]
    _, (alone,), *_, own = _batch_grads(_teacher_forced, [pair], params, vocab)
    for at, companions in ((0, others), (1, others[:1]), (2, others[::-1]), (1, others[2:])):
        batch = companions[:at] + [pair] + companions[at:]
        _, nlls, *_, with_pair = _batch_grads(_teacher_forced, batch, params, vocab)
        *_, without = _batch_grads(_teacher_forced, companions, params, vocab)
        assert abs(nlls[at] - alone) <= 1e-12 * alone
        for name, theirs in own.items():
            share = with_pair[name] - without[name]
            assert np.abs(share - theirs).max() <= 1e-12 * np.abs(theirs).max(), (at, name)


def test_pads_get_no_attention_and_no_gradient():
    """Sources of 1, 12 and 5 tokens and targets of 6, 1 and 3: at every
    step each row weighs its source's pads exactly 0.0, and the batch's
    gradient reaches no pad embedding (PAD's row stays exactly zero)."""
    from paragen.pointer import recur_forced
    from paragen.training import _teacher_forced
    from paragen.vocab import BOS, PAD

    params, vocab = _batch_model(3, 1)
    pairs = [(["oa"], ["oa", "w1", "w1", "w2", "oa", "w0"]),
             (BATCH_WORDS + BATCH_WORDS[:4], ["ob"]),
             (["w3", "w3", "ob", "w4", "w3"], ["w3", "ob", "unseenx"])]
    _, states, state, _ = prepare_source([src for src, _ in pairs], params, vocab)
    assert states.valid.sum(axis=1).tolist() == [1, 12, 5]
    (_, _, _, attn), *_ = recur_forced(np.full((3, 6), BOS), states, state, params)
    assert np.all(attn.transpose(1, 0, 2)[:, ~states.valid] == 0.0)
    assert np.all(attn[states.valid[:, None, :].repeat(6, axis=1)] > 0.0)
    *_, grads = _batch_grads(_teacher_forced, pairs, params, vocab)
    assert not grads["embedding"][PAD].any() and grads["embedding"].any()


def test_short_source_beside_a_long_one_decodes_as_alone():
    """A one-token source next to a twelve-token one: fed the same ids, its
    row's states, attention and context, and its loss, are those of the
    source alone."""
    from paragen.pointer import recur_forced
    from paragen.training import _teacher_forced

    params, vocab = _batch_model(4, 3)
    short, long = (["oa"], ["oa", "w2", "oa"]), (BATCH_WORDS + ["w0"] * 4, ["w5"])
    prev = np.array([[2, 8, 4, 8, 0, 1]])  # BOS, the copied OOV, w0, OOV, PAD, UNK
    runs = []
    for batch in ([short], [short, long]):
        _, states, state, _ = prepare_source([src for src, _ in batch], params, vocab)
        steps, *_ = recur_forced(prev.repeat(len(batch), axis=0), states, state, params)
        runs.append((*(column[0] for column in steps[:3]), steps[3][0, :, :1],
                     _teacher_forced(batch, params, vocab)[1][0]))
    for alone, beside in zip(*runs):
        np.testing.assert_allclose(beside, alone, rtol=1e-12, atol=0)


def test_padded_batch_gradient_matches_finite_differences():
    """Every parameter of a tiny model through a batch of three pairs of
    different source and target lengths (pads, masked rows, a copied OOV).
    Some gradients are as small as 1e-8, where the central difference's own
    error at h=1e-5 reaches a few 1e-6 of them; c1 allows 1e-4."""
    from paragen.gradcheck import grad_check
    from paragen.training import _teacher_forced

    params, vocab = _batch_model(2, 5)
    pairs = [(["oa", "w1"], ["oa", "w1", "oa"]), (["w2", "w3", "w2", "ob"], ["ob"]),
             (["w4"], ["w4", "unseenx"])]
    report = grad_check(lambda: _teacher_forced(pairs, params, vocab)[0],
                        params.named_parameters(), h=1e-5)
    assert report.max_rel_err <= 1e-5, repr(report)


def test_non_finite_gradient_raises_before_the_step(tmp_path, monkeypatch):
    built = []

    def keep(*args, **kwargs):
        built.append(ModelParams(*args, **kwargs))
        return built[-1]

    def nan_backward(loss):
        backward(loss)
        built[-1].decoder.w_i.grad[0, 0] = np.nan

    monkeypatch.setattr("paragen.training.ModelParams", keep)
    monkeypatch.setattr("paragen.training.backward", nan_backward)
    pairs = [("alpha beta", "beta alpha"), ("gamma delta", "delta"), ("beta", "beta gamma")]
    for batch_size in (1, TrainConfig.batch_size):
        cfg = TrainConfig(seed=5, epochs=1, vocab_size=30, d_emb=4, d_h=4, d_s=4, d_a=4,
                          batch_size=batch_size)
        ckpt = tmp_path / f"b{batch_size}.ckpt"
        with pytest.raises(NumericalError, match="gradient") as err:
            train(pairs, cfg, checkpoint_path=ckpt)
        first = np.random.default_rng(5).permutation(len(pairs))[:batch_size]
        assert f"epoch 1, batch of examples {first.tolist()}" in str(err.value)
        np.testing.assert_array_equal(built[-1].flat, ModelParams(built[-1].dims, seed=5).flat)
        assert not ckpt.exists()


def test_train_zero_lr_bit_identical(tmp_path):
    pairs = [("alpha beta", "beta alpha"), ("gamma delta", "delta gamma")]
    cfg = TrainConfig(seed=5, epochs=3, lr=0.0, vocab_size=30,
                      d_emb=4, d_h=4, d_s=4, d_a=4)
    params, _ = train(pairs, cfg)
    fresh = ModelParams(params.dims, seed=5)
    for (n, p), (_, q) in zip(params.named_parameters(), fresh.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=n)


def test_train_deterministic_checkpoints(tmp_path):
    pairs, _ = copy_task_corpus(12, seed=0)
    cfg = TrainConfig(seed=7, epochs=2, vocab_size=60, d_emb=8, d_h=8, d_s=8, d_a=8)
    vocab = copy_task_vocab()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    train(pairs, cfg, vocab=vocab, checkpoint_path=p1)
    train(pairs, cfg, vocab=vocab, checkpoint_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_nll_decreases_on_copy_task():
    pairs, _ = copy_task_corpus(60, seed=1)
    # lr scaled with the default batch of 8 pairs, which takes 8x fewer updates
    cfg = TrainConfig(seed=1, epochs=5, lr=8e-3, vocab_size=60, d_emb=16, d_h=16, d_s=16,
                      d_a=16)
    _, report = train(pairs, cfg, vocab=copy_task_vocab())
    nlls = [e.mean_nll for e in report.epochs]
    assert all(b < a for a, b in zip(nlls, nlls[1:])), nlls
    assert report.epochs[-1].token_accuracy > report.epochs[0].token_accuracy


def test_train_empty_dataset_rejected():
    with pytest.raises(ValidationError):
        train([], TrainConfig(seed=0))


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(seed=None)
    with pytest.raises(ValidationError):
        TrainConfig(seed=0, epochs=0)
    for batch_size in (0, -1):
        with pytest.raises(ValidationError, match="batch_size"):
            TrainConfig(seed=0, batch_size=batch_size)
    with pytest.raises(ValidationError):
        TrainConfig(seed=0, clip=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(seed=0, lr=-1.0)
    for bad in ({"lr": math.nan}, {"lr": math.inf}, {"clip": math.nan}):
        with pytest.raises(ValidationError, match="finite"):
            TrainConfig(seed=0, **bad)
    TrainConfig(seed=0, lr=0.0)  # null update is allowed
    TrainConfig(seed=0, clip=math.inf)  # no clipping


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    loaded, fingerprint = load_checkpoint(path, expected_vocab=vocab)
    assert fingerprint == vocab.fingerprint()
    for (n, p), (_, q) in zip(params.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=n)
    assert loaded.dims == params.dims


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(0, 999), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     max_size=20))
def test_checkpoint_round_trips_flat_bit_for_bit(seed, specials):
    params, vocab = tiny_model(seed=seed, n_tokens=3, width=2)
    # any finite value survives: -0.0, subnormals, the extremes
    params.flat[:len(specials)] = specials
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(params, path, vocab)
        loaded, _ = load_checkpoint(path, expected_dims=params.dims, expected_vocab=vocab)
    assert loaded.flat.tobytes() == params.flat.tobytes()


def test_checkpoint_truncated_is_corrupt(tmp_path):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_trailing_byte_is_corrupt(tmp_path):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(CorruptCheckpointError, match="payload is"):
        load_checkpoint(path)


class _ShortRead(io.BufferedReader):
    """A reader whose payload read comes up 8 bytes short."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer).cast("B")[:-8])


class _GrowsWhileRead(io.BufferedReader):
    """A reader whose file gains a byte after its size was checked."""

    def readinto(self, buffer):
        with open(self.name, "ab") as fh:
            fh.write(b"\x00")
        return super().readinto(buffer)


@pytest.mark.parametrize("reader", [_ShortRead, _GrowsWhileRead])
def test_checkpoint_payload_read_must_be_whole_and_last(reader, tmp_path, monkeypatch):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    monkeypatch.setattr(training, "open", lambda name, mode: reader(io.FileIO(name, mode)),
                        raising=False)
    with pytest.raises(CorruptCheckpointError, match="payload read"):
        load_checkpoint(path, expected_vocab=vocab)


def test_checkpoint_load_holds_the_payload_once(tmp_path):
    vocab = Vocabulary([f"w{i}" for i in range(1996)])
    params = ModelParams(ModelDims(vocab_size=vocab.size), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    payload = 8 * params.dims.parameter_count()
    del params
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded, _ = load_checkpoint(path, expected_vocab=vocab)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    # the zeroed gradient vector is counted whole, though no page of it is
    # touched before a gradient is written; what is left is the payload's copies
    assert loaded.flat.nbytes == payload
    assert peak - loaded.grad.nbytes <= 1.25 * payload, peak / payload


def test_parameter_count_matches_model():
    for dims in [ModelDims(vocab_size=9, d_emb=2, d_h=3, d_s=5, d_a=7),
                 ModelDims(vocab_size=60, d_emb=8, d_h=4, d_s=8, d_a=1)]:
        params = ModelParams(dims, seed=0)
        assert dims.parameter_count() == sum(p.data.size for _, p in params.named_parameters())


def test_init_checkpoint_bytes_golden(tmp_path):
    # pins the random draws of parameter_layout: their order, shapes and init values
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    params = ModelParams(ModelDims(vocab_size=vocab.size, d_emb=3, d_h=2, d_s=4, d_a=5),
                         seed=1234)
    save_checkpoint(params, tmp_path / "g.ckpt", vocab)
    assert hashlib.sha256((tmp_path / "g.ckpt").read_bytes()).hexdigest() == (
        "983c42c81deb0da563016c8de9089cad476061b33ddf2226c106ec96b6f401b6")


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded, _ = load_checkpoint(path)
    for (n, p), (_, q) in zip(params.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=n)
        assert q.data.flags.writeable and q.grad is not None, n


@pytest.mark.parametrize("field", range(5))
def test_checkpoint_corrupt_width_rejected_before_allocation(field, tmp_path, monkeypatch):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    blob = path.read_bytes()
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        raise AssertionError("ModelParams built from a corrupt header")

    monkeypatch.setattr("paragen.training.ModelParams", spy)
    monkeypatch.setattr("paragen.training.params_from_payload", spy)
    for byte in range(4):
        corrupt = bytearray(blob)
        corrupt[6 + 4 * field + byte] ^= 0xFF
        path.write_bytes(bytes(corrupt))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)
    assert built == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_checkpoint_non_finite_payload_is_corrupt(value, tmp_path):
    params, vocab = tiny_model(seed=9)
    params.flat[17] = value
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    with pytest.raises(CorruptCheckpointError, match="non-finite"):
        load_checkpoint(path)


def test_checkpoint_header_corruption_raises_only_checkpoint_errors(tmp_path):
    vocab = Vocabulary(["alpha"])
    params = ModelParams(ModelDims(vocab_size=vocab.size, d_emb=1, d_h=1, d_s=1, d_a=1), seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    blob = path.read_bytes()
    cases = [(f"truncated to {n}", blob[:n]) for n in range(len(blob))]
    for i in range(66):  # every header byte
        for value in (0x00, 0xFF, blob[i] ^ 0x01, blob[i] ^ 0x80):
            corrupt = bytearray(blob)
            corrupt[i] = value
            cases.append((f"byte {i} = {value:#04x}", bytes(corrupt)))
    escaped = []
    for label, case in cases:
        path.write_bytes(case)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception is the failure
            escaped.append((label, repr(exc)))
    assert escaped == []


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


@pytest.mark.parametrize("name", [f.name for f in fields(ModelDims)])
def test_checkpoint_width_mismatch_names_both(tmp_path, name):
    # every width distinct, so a name paired with another field's value shows
    vocab = Vocabulary(["a", "b", "c"])
    dims = ModelDims(vocab_size=vocab.size, d_emb=3, d_h=4, d_s=5, d_a=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ModelParams(dims, seed=9), path, vocab)
    got = getattr(dims, name)
    with pytest.raises(WidthMismatchError) as err:
        load_checkpoint(path, expected_dims=replace(dims, **{name: got + 10}))
    assert f"checkpoint {name}={got}, run expects {name}={got + 10}" in str(err.value)


def test_checkpoint_vocab_fingerprint_mismatch(tmp_path):
    params, vocab = tiny_model(seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, vocab)
    other = Vocabulary(["completely", "different"])
    with pytest.raises(VocabMismatchError):
        load_checkpoint(path, expected_vocab=other)


def test_pairs_tsv_round_trip(tmp_path):
    path = tmp_path / "pairs.tsv"
    pairs = [("a b", "c d"), ("x y", "z w")]
    save_pairs_tsv(pairs, path)
    assert load_pairs_tsv(path) == pairs


_LINE_TEXT = st.text(st.characters(exclude_characters="\t\n", exclude_categories=("Cs",)))


@settings(derandomize=True, deadline=None)
@given(st.lists(st.tuples(_LINE_TEXT, _LINE_TEXT), max_size=4))
def test_pairs_tsv_round_trips_any_text_without_tab_or_lf(pairs):
    # "\r", "\x85", "\u2028" and the other str.splitlines() breaks stay inside a line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        save_pairs_tsv(pairs, path)
        assert load_pairs_tsv(path) == pairs


def test_pairs_tsv_crlf_gives_the_same_tokens(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"a b\tc d\r\nx\ty z\r\n")
    assert [(tokenize(x), tokenize(y)) for x, y in load_pairs_tsv(path)] == [
        (["a", "b"], ["c", "d"]), (["x"], ["y", "z"])]


def test_pairs_tsv_rejects_bad_lines(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("good\tline\nbad line without tab\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_pairs_tsv(path)
    assert "line 2" in str(err.value)

    path.write_text("too\tmany\ttabs\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_pairs_tsv(path)
    assert "line 1" in str(err.value)


def test_train_writes_log_and_interval_checkpoints(tmp_path):
    import json

    pairs, _ = copy_task_corpus(6, seed=2)
    cfg = TrainConfig(seed=2, epochs=3, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4,
                      checkpoint_interval=2)
    ckpt = tmp_path / "m.ckpt"
    log = tmp_path / "m.log"
    log.write_text("a line from an earlier run\n", encoding="utf-8")
    train(pairs, cfg, vocab=copy_task_vocab(), checkpoint_path=ckpt, log_path=log)
    assert ckpt.exists()
    assert Vocabulary.load(tmp_path / "m.ckpt.vocab").id_to_token == copy_task_vocab().id_to_token
    lines = log.read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert rec["epoch"] == i
        assert rec["mean_nll"] >= 0.0


def test_failed_run_keeps_previous_log(tmp_path, monkeypatch):
    pairs, _ = copy_task_corpus(4, seed=2)

    def fail(loss):
        raise NumericalError("backward failed")

    for batch_size in (1, TrainConfig.batch_size):
        cfg = TrainConfig(seed=2, epochs=2, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4,
                          batch_size=batch_size)
        run_dir = tmp_path / f"b{batch_size}"
        run_dir.mkdir()
        log = run_dir / "m.log"
        log.write_text('{"epoch": 1, "note": "an earlier run"}\n', encoding="utf-8")
        before = log.read_bytes()
        with monkeypatch.context() as m:
            m.setattr("paragen.training.backward", fail)
            with pytest.raises(NumericalError):
                train(pairs, cfg, vocab=copy_task_vocab(), log_path=log)
        assert log.read_bytes() == before

        train(pairs, cfg, vocab=copy_task_vocab(), log_path=log)
        assert [json.loads(line)["epoch"] for line in log.read_text().splitlines()] == [1, 2]
        assert [p.name for p in run_dir.iterdir()] == ["m.log"]


def test_train_log_reports_gradient_and_gate_telemetry(tmp_path, monkeypatch):
    import paragen.training as training

    norms = []

    def recording_clip(grad, clip, batch_size):
        norms.append(clip_gradients(grad, clip, batch_size))
        return norms[-1]

    monkeypatch.setattr(training, "clip_gradients", recording_clip)
    pairs, _ = copy_task_corpus(8, seed=4)  # every target holds one source OOV
    # batches of 3, 3 and 2 pairs: three updates, so three norms, per epoch
    cfg = TrainConfig(seed=4, epochs=2, clip=0.5, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4,
                      batch_size=3)
    log = tmp_path / "m.log"
    train(pairs, cfg, vocab=copy_task_vocab(), log_path=log)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(norms) == 6
    for rec, epoch_norms in zip(records, (norms[:3], norms[3:])):
        assert list(rec)[:4] == ["epoch", "mean_nll", "token_accuracy", "wall_time_s"]
        assert rec["updates"] == 3
        assert rec["grad_norm_mean"] == pytest.approx(np.mean(epoch_norms), rel=1e-12)
        assert rec["grad_norm_max"] == max(epoch_norms)
        assert 0.0 < rec["grad_norm_mean"] <= rec["grad_norm_max"]
        assert rec["clipped_fraction"] == sum(n > 0.5 for n in epoch_norms) / 3
        assert 0.0 <= rec["clipped_fraction"] <= 1.0
        for key in ("p_gen_oov_mean", "p_gen_in_vocab_mean"):
            assert 0.0 < rec[key] < 1.0

    in_vocab_only = [("w01 w02", "w02 w01"), ("w03", "w03 w04")]
    _, report = train(in_vocab_only, cfg, vocab=copy_task_vocab())
    assert report.epochs[-1].p_gen_oov_mean is None
    assert 0.0 < report.epochs[-1].p_gen_in_vocab_mean < 1.0


def test_train_log_reports_target_tokens_per_second(tmp_path):
    pairs, _ = copy_task_corpus(6, seed=5)
    cfg = TrainConfig(seed=5, epochs=2, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4)
    log = tmp_path / "m.log"
    train(pairs, cfg, vocab=copy_task_vocab(), log_path=log)
    gold_tokens = sum(len(tokenize(y)) + 1 for _, y in pairs)  # each target ends in EOS
    for rec in map(json.loads, log.read_text().splitlines()):
        assert list(rec)[3:5] == ["wall_time_s", "target_tokens_per_s"]
        assert rec["target_tokens_per_s"] > 0.0
        assert rec["target_tokens_per_s"] * rec["wall_time_s"] == pytest.approx(gold_tokens,
                                                                                 rel=1e-12)


def test_train_log_reports_optimizer_seconds(tmp_path, monkeypatch):
    import paragen.training as training

    def slowed(fn):
        def run(*args):
            time.sleep(0.005)
            return fn(*args)
        return run

    monkeypatch.setattr(training, "clip_gradients", slowed(clip_gradients))
    monkeypatch.setattr(Adam, "step", slowed(Adam.step))
    pairs, _ = copy_task_corpus(6, seed=5)
    # batches of 2 pairs: three updates per epoch, so optimizer_s must sum over updates
    cfg = TrainConfig(seed=5, epochs=2, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4,
                      batch_size=2)
    log = tmp_path / "m.log"
    train(pairs, cfg, vocab=copy_task_vocab(), log_path=log)
    for rec in map(json.loads, log.read_text().splitlines()):
        assert list(rec)[:4] == ["epoch", "mean_nll", "token_accuracy", "wall_time_s"]
        assert list(rec)[-3:-1] == ["updates", "optimizer_s"]
        assert rec["updates"] == 3
        assert rec["updates"] * 2 * 0.005 <= rec["optimizer_s"] < rec["wall_time_s"]


def test_train_log_reports_backward_seconds(tmp_path, monkeypatch):
    import paragen.training as training

    def slowed(loss):
        time.sleep(0.005)
        backward(loss)

    monkeypatch.setattr(training, "backward", slowed)
    pairs, _ = copy_task_corpus(6, seed=5)
    cfg = TrainConfig(seed=5, epochs=2, vocab_size=60, d_emb=4, d_h=4, d_s=4, d_a=4)
    log = tmp_path / "m.log"
    train(pairs, cfg, vocab=copy_task_vocab(), log_path=log)
    for rec in map(json.loads, log.read_text().splitlines()):
        assert list(rec)[-2:] == ["optimizer_s", "backward_s"]
        assert rec["updates"] * 0.005 <= rec["backward_s"]  # one backward per batch
        assert rec["backward_s"] + rec["optimizer_s"] <= rec["wall_time_s"]
