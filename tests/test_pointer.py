import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paragen.pointer as pointer
from paragen.errors import NumericalError, ValidationError
from paragen.gradcheck import grad_check
from paragen.layers import LOG_FLOOR
from paragen.model import ModelDims, ModelParams, prepare_source
from paragen.pointer import (copy_distribution, mix, output_backward, output_forward,
                             recur_forced, step_forward)
from paragen.vocab import BOS, EOS, UNK, Vocabulary, encode_target

from conftest import TINY_TOKENS, step_loss_node, tiny_model
from oracles import dense_output_backward, model_arrays, sigmoid_scalar, straight_line_step


def test_copy_distribution_accumulates_repeats():
    p = copy_distribution(np.array([[0.2, 0.3, 0.5]]), [4, 7, 4], 9)[0]
    assert p[4] == pytest.approx(0.7, abs=1e-15)
    assert p[7] == pytest.approx(0.3, abs=1e-15)
    off_source = [i for i in range(9) if i not in (4, 7)]
    assert np.all(p[off_source] == 0.0)


def test_copy_distribution_distinct_ids_scatter():
    p = copy_distribution(np.array([[0.1, 0.2, 0.7]]), [2, 0, 5], 6)[0]
    assert p[2] == 0.1 and p[0] == 0.2 and p[5] == 0.7


def test_copy_distribution_conserves_mass():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        raw = rng.uniform(0.1, 1.0, size=(2, n))
        a = raw / raw.sum(axis=1, keepdims=True)
        ids = rng.integers(0, 12, size=n)
        p = copy_distribution(a, ids, 12)
        assert np.all(np.abs(p.sum(axis=1) - a.sum(axis=1)) <= 1e-15)


def test_copy_distribution_range_check():
    with pytest.raises(ValidationError):
        copy_distribution(np.array([[1.0]]), [7], 6)


def _gate(seed, emb, hidden, context, weight=None, bias=None):
    """p_gen of output_forward for one row, widths d_emb 2, d_s 3, d_h 2."""
    params = ModelParams(ModelDims(vocab_size=6, d_emb=2, d_h=2, d_s=3, d_a=2), seed=seed)
    gp = params.copy_gate
    if weight is not None:
        gp.weight.data[...] = weight
        gp.bias.data[...] = bias
    (_, _, _, p_gen), _ = output_forward(np.atleast_2d(emb), np.atleast_2d(hidden),
                                         np.atleast_2d(context), np.array([[1.0]]), [4], 6,
                                         params)
    return float(p_gen[0]), gp


def test_generation_gate_zero_is_half():
    g, _ = _gate(0, np.ones(2), np.ones(3), np.ones(4), weight=0.0, bias=0.0)
    assert g == 0.5


def test_generation_gate_saturation_finite():
    g, _ = _gate(0, np.zeros(2), np.zeros(3), np.zeros(4), weight=0.0, bias=40.0)
    assert np.isfinite(g)
    assert abs(g - 1.0) < 1e-12


def test_generation_gate_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    w, hidden, ctx = rng.normal(size=2), rng.normal(size=3), rng.normal(size=4)
    g, gp = _gate(1, w, hidden, ctx)
    z = np.concatenate([w, hidden, ctx])
    expect = sigmoid_scalar(float(np.dot(gp.weight.data, z) + gp.bias.data))
    assert g == pytest.approx(expect, abs=1e-14)


def test_mix_degenerate_gates():
    rng = np.random.default_rng(2)
    pv_raw = rng.uniform(0.1, 1.0, size=(1, 4))
    pc_raw = rng.uniform(0.1, 1.0, size=(1, 6))
    pv = pv_raw / pv_raw.sum()
    pc = pc_raw / pc_raw.sum()
    pure_copy = mix(pv, pc, np.array([0.0]))
    np.testing.assert_allclose(pure_copy, pc, atol=1e-12)
    pure_vocab = mix(pv, pc, np.array([1.0]))
    np.testing.assert_allclose(pure_vocab[:, :4], pv, atol=1e-12)
    assert np.all(pure_vocab[:, 4:] == 0.0)


def test_mix_hand_value():
    # p_gen 0.6, vocab prob 0.5, copy prob 0.25 -> 0.6*0.5 + 0.4*0.25 = 0.4
    out = mix(np.array([[0.5, 0.5]]), np.array([[0.25, 0.25, 0.5]]), np.array([0.6]))
    assert out[0, 0] == pytest.approx(0.4, abs=1e-15)
    assert abs(out.sum() - 1.0) <= 1e-9


def test_mix_rejects_bad_gate():
    pv = np.array([[1.0]])
    pc = np.array([[1.0]])
    with pytest.raises(ValidationError):
        mix(pv, pc, np.array([1.5]))
    with pytest.raises(ValidationError):
        mix(pv, pc, np.array([-0.1]))


@pytest.mark.parametrize("gate", [[np.nan], [np.inf], [-np.inf], [0.5, np.nan]])
def test_mix_non_finite_gate_is_a_numerical_error(gate):
    pv, pc = np.array([[1.0]] * len(gate)), np.array([[1.0]] * len(gate))
    with pytest.raises(NumericalError):
        mix(pv, pc, np.array(gate))


def _step_setup(seed, source=("alpha", "zyxxy", "beta", "zyxxy")):
    params, vocab = tiny_model(seed=seed)
    (ev,), states, state, _ = prepare_source([list(source)], params, vocab)
    return params, vocab, ev, states, state


def test_full_step_deterministic():
    outs = []
    for _ in range(2):  # rebuild everything from scratch with the same seed
        params, vocab, ev, states, state = _step_setup(4)
        outs.append(step_forward([BOS], ev, states, state, params)[0])
    o1, o2 = outs
    np.testing.assert_array_equal(o1.p, o2.p)
    np.testing.assert_array_equal(o1.p_vocab, o2.p_vocab)
    np.testing.assert_array_equal(o1.p_gen, o2.p_gen)


def test_full_step_distribution_laws():
    for seed in range(25):
        params, vocab, ev, states, state = _step_setup(seed)
        out, _ = step_forward([BOS], ev, states, state, params)
        assert abs(out.p.sum() - 1.0) <= 1e-9
        assert abs(out.p_copy.sum() - 1.0) <= 1e-9
        assert abs(out.p_vocab.sum() - 1.0) <= 1e-12
        assert 0.0 < out.p_gen[0] < 1.0


def test_full_step_oov_probability_is_pure_copy():
    params, vocab, ev, states, state = _step_setup(6)
    out, _ = step_forward([BOS], ev, states, state, params)
    oov_id = ev.lookup("zyxxy")
    expect = (1.0 - out.p_gen[0]) * out.p_copy[0, oov_id]
    assert out.p[0, oov_id] == pytest.approx(expect, rel=1e-12)
    assert out.p[0, oov_id] > 0.0  # attention gives every position mass


def test_full_step_in_vocab_and_in_source_strictly_positive():
    params, vocab, ev, states, state = _step_setup(7, source=("alpha", "beta", "alpha"))
    out, _ = step_forward([BOS], ev, states, state, params)
    for tok in ("alpha", "beta"):
        assert out.p[0, vocab.lookup(tok)] > 0.0
    # off-source extended region is empty here; vocabulary entries all positive
    assert np.all(out.p[0, :vocab.size] > 0.0)


def test_full_step_force_p_gen_one_kills_extended_ids():
    params, vocab, ev, states, state = _step_setup(8)
    out, _ = step_forward([BOS], ev, states, state, params, force_p_gen=1.0)
    assert np.all(out.p[0, vocab.size:] == 0.0)
    assert abs(out.p.sum() - 1.0) <= 1e-9


def test_full_step_matches_straight_line_oracle():
    params, vocab, ev, states, state = _step_setup(9)
    out, _ = step_forward([BOS], ev, states, state, params)
    w = model_arrays(params)
    d_s = params.dims.d_s
    oracle = straight_line_step(w, states.H[0].copy(), ev.source_ids, ev.size,
                                w["embedding"][BOS], state[0, :d_s], state[0, d_s:])
    np.testing.assert_allclose(out.p[0], oracle["p"], atol=1e-12, rtol=0)
    np.testing.assert_allclose(out.state[0, :d_s], oracle["h"], atol=1e-12, rtol=0)
    assert out.p_gen[0] == pytest.approx(oracle["p_gen"], abs=1e-13)


def test_full_step_prev_extended_id_uses_unk_embedding():
    params, vocab, ev, states, state = _step_setup(10)
    oov_id = ev.lookup("zyxxy")
    o_oov, _ = step_forward([oov_id], ev, states, state, params)
    o_unk, _ = step_forward([UNK], ev, states, state, params)
    np.testing.assert_array_equal(o_oov.p, o_unk.p)


def test_step_rows_match_single_row_and_oracle():
    # rows fed an in-vocabulary id, a repeated source id, an OOV (extended) id
    # and BOS, each from its own state, over a source with a repeated OOV
    rng = np.random.default_rng(12)
    for seed in range(10):
        params, vocab, ev, states, state = _step_setup(seed, source=(
            "alpha", "zyxxy", "beta", "zyxxy", "alpha"))
        prev = [vocab.lookup("beta"), vocab.lookup("alpha"), ev.lookup("zyxxy"), BOS]
        rows = state + rng.normal(scale=0.3, size=(len(prev), state.shape[1]))
        out, _ = step_forward(prev, ev, states, rows, params)
        w = model_arrays(params)
        d_s = params.dims.d_s
        for r, prev_id in enumerate(prev):
            one, _ = step_forward([prev_id], ev, states, rows[r:r + 1], params)
            oracle = straight_line_step(w, states.H[0], ev.source_ids, ev.size,
                                        w["embedding"][prev_id if prev_id < vocab.size else UNK],
                                        rows[r, :d_s], rows[r, d_s:])
            for mine, single, theirs in ((out.p[r], one.p[0], oracle["p"]),
                                         (out.p_vocab[r], one.p_vocab[0], oracle["p_vocab"]),
                                         (out.p_copy[r], one.p_copy[0], oracle["p_copy"]),
                                         (out.attn[r], one.attn[0], oracle["attn"]),
                                         (out.state[r, :d_s], one.state[0, :d_s], oracle["h"]),
                                         (out.state[r, d_s:], one.state[0, d_s:], oracle["c"]),
                                         (out.p_gen[r], one.p_gen[0], oracle["p_gen"])):
                np.testing.assert_allclose(mine, single, atol=1e-12, rtol=0)
                np.testing.assert_allclose(mine, theirs, atol=1e-12, rtol=0)


def test_step_backward_matches_finite_differences():
    # two rows, one fed an extended id; the loss weighs every output of the
    # step, so every parameter, the encoder states and the incoming state
    # get checked
    params, vocab = tiny_model(seed=13, width=3)
    (ev,), states, state, _ = prepare_source([["alpha", "zyxxy", "beta", "zyxxy"]], params,
                                             vocab)
    rng = np.random.default_rng(13)
    prev = [ev.lookup("zyxxy"), vocab.lookup("beta")]
    node, named = step_loss_node(params, ev, states, state + rng.normal(
        scale=0.3, size=(2, state.shape[1])), prev, rng)
    report = grad_check(node, params.named_parameters() + named, h=1e-5)
    assert report.max_rel_err <= 1e-6, repr(report)


def _gold_only_equals_dense(params, vocab, src, tgt, floored=()):
    """Run one pair's teacher-forced output layer, then its backward for the
    NLL's d p twice: the dense oracle over the whole d p, and the gold-only
    ``output_backward`` with its d copy scattered over the source. Rows in
    ``floored`` get a zero d p, as rows with p_gold at or below LOG_FLOOR
    do. Asserts that both give the same outputs and gradients element for
    element, but for the projection's weight gradient: it is one product per
    block of vocabulary rows, which a BLAS need not round as it rounds those
    rows of one whole product, so it is held to 1e-12 of its largest entry.
    Returns the gold ids."""
    (ev,), states, state, _ = prepare_source([src], params, vocab)
    gold = np.array(encode_target(tgt, ev) + [EOS])
    rows = np.arange(len(gold))
    steps, *_ = recur_forced([[BOS, *gold[:-1]]], states, state, params)
    emb, hidden, context, attn = (column[0] for column in steps)
    (p, _, p_copy, _), cache = output_forward(emb, hidden, context, attn, ev.source_ids, ev.size,
                                              params)
    p_gold = p[rows, gold]
    live = (p_gold > LOG_FLOOR) & ~np.isin(rows, floored)
    g_gold = np.divide(-1.0 / len(gold), p_gold, out=np.zeros_like(p_gold), where=live)
    g_p = np.zeros_like(p)
    g_p[rows, gold] = g_gold

    params.zero_grad()
    # the gold-only backward writes d logits over p_vocab, so the oracle reads a copy
    want = dense_output_backward((*cache[:3], cache[3].copy(), cache[4]), p_copy,
                                 ev.source_ids, g_p)
    want_grads = [tensor.grad.copy() for _, tensor in params.named_parameters()]
    params.zero_grad()
    *got, g_copy = output_backward(cache, gold, g_gold, p_copy[rows, gold])
    got.append(np.where(np.equal.outer(gold, ev.source_ids), g_copy[:, None], 0.0))
    for mine, theirs in zip(got, want):
        np.testing.assert_array_equal(mine, theirs)
    for (name, tensor), theirs in zip(params.named_parameters(), want_grads):
        if name == "projection.weight":  # a product per block of rows: BLAS may round it apart
            assert np.abs(tensor.grad - theirs).max() <= 1e-12 * np.abs(theirs).max()
        else:
            np.testing.assert_array_equal(tensor.grad, theirs, err_msg=name)
    return gold


WORDS = TINY_TOKENS[:6] + ["zyxxy", "qwop"]  # the last two are OOV in a 6-word vocabulary


@settings(derandomize=True, deadline=None, max_examples=60)
@given(src=st.lists(st.sampled_from(WORDS), min_size=1, max_size=6),
       tgt=st.lists(st.sampled_from(WORDS + ["unseenx"]), min_size=1, max_size=6),
       width=st.integers(1, 4), seed=st.integers(0, 3), block=st.sampled_from([1, 3, 256]),
       floored=st.lists(st.integers(0, 6), max_size=3))
def test_gold_only_backward_equals_dense_oracle(src, tgt, width, seed, block, floored):
    """Gold ids that are copied OOVs, OOVs absent from the source (UNK),
    fixed ids in and out of the source, repeated source ids, zero rows, and
    projection blocks of one row, of a ragged 3 rows and of the whole
    vocabulary."""
    vocab = Vocabulary(WORDS[:6])
    params = ModelParams(ModelDims(vocab_size=vocab.size, d_emb=width, d_h=width, d_s=width,
                                   d_a=width), seed=seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pointer, "PROJECTION_BLOCK", block)
        _gold_only_equals_dense(params, vocab, src, tgt, floored)


def test_gold_only_backward_equals_dense_oracle_at_v10k():
    """The CLI's vocabulary size and default widths: 40 projection blocks,
    the last one ragged (10004 rows)."""
    vocab = Vocabulary([f"u{i:04d}" for i in range(10000)])
    params = ModelParams(ModelDims(vocab_size=vocab.size), seed=3)
    gold = _gold_only_equals_dense(
        params, vocab, "u0001 u0002 zyxxy u0003 u0002 qwop u9999".split(),
        "u0002 zyxxy unseenx u0500 qwop u9999 u0001".split(), floored=[5])
    assert vocab.size % pointer.PROJECTION_BLOCK and (gold >= vocab.size).sum() == 2
