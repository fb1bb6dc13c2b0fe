import numpy as np
import pytest

import paragen.autograd as ag
from paragen.errors import DimensionError, ValidationError
from paragen.gradcheck import grad_check
from paragen.layers import lstm_cell, stack_gates
from paragen.model import (ModelDims, ModelParams, ParamGroup, encode, encode_backward,
                           parameter_layout, params_from_payload, prepare_source)
from paragen.pointer import output_forward, step_forward
from paragen.vocab import BOS, UNK

from conftest import TINY_TOKENS, hand_states, leaf, model_part, step_loss_node, tiny_model
from oracles import (cell_arrays, lstm_step_scalar, model_arrays, one_row_encode,
                     one_row_encode_backward, per_step_encode, per_step_encode_backward,
                     softmax_highprec, straight_line_encode)


def _cell_step(cell, z, c):
    """The cell on rows z = [x, h] through its stacked gates: (h', c', cache)."""
    W, b = stack_gates(cell)
    return lstm_cell(z @ W.T + b, c)


def _encode_one(emb, fwd, bwd):
    """``encode`` of one unpadded source (N x d_emb): (H, h_final, cache)
    without the source axis."""
    H, h_final, cache = encode(emb[None], np.ones((1, len(emb)), dtype=bool), fwd, bwd)
    return H[0], h_final[0], cache


def _encode_one_backward(cache, g_H, g_final):
    return encode_backward(cache, g_H[None], g_final[None])[0]


def _zero_cell(name="encoder_fwd", **widths):
    cell = model_part(name, **widths)
    for _, p in cell.named_parameters():
        p.data[...] = 0.0
    return cell


def test_lstm_zero_everything():
    cell = _zero_cell(d_emb=3, d_h=4)
    h, c, _ = _cell_step(cell, np.zeros((1, 7)), np.zeros((1, 4)))
    assert np.all(h == 0.0) and np.all(c == 0.0)


def test_lstm_saturated_forget_preserves_cell():
    cell = _zero_cell(d_emb=3, d_h=4)
    cell.b_f.data[...] = 40.0   # forget gate pinned at 1
    cell.b_i.data[...] = -40.0  # input gate pinned at 0
    c0 = np.array([0.3, -1.2, 0.7, 2.0])
    h, c, _ = _cell_step(cell, np.concatenate([np.ones(3), np.zeros(4)])[None], c0[None])
    np.testing.assert_array_equal(c[0], c0)


def test_lstm_matches_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    cell = model_part("encoder_fwd", seed=3, d_emb=3, d_h=5)
    x = rng.normal(size=3)
    h0 = rng.normal(size=5)
    c0 = rng.normal(size=5)
    h, c, _ = _cell_step(cell, np.concatenate([x, h0])[None], c0[None])
    oh, oc = lstm_step_scalar(cell_arrays(cell), list(x), list(h0), list(c0))
    np.testing.assert_allclose(h[0], oh, atol=1e-12, rtol=0)
    np.testing.assert_allclose(c[0], oc, atol=1e-12, rtol=0)


def test_lstm_shape_validation():
    # pre-activations must be four cell-state widths wide, a row per state row
    for pre, c in ((np.zeros((1, 15)), np.zeros((1, 4))), (np.zeros((1, 16)), np.zeros((1, 5))),
                   (np.zeros((2, 16)), np.zeros((1, 4)))):
        with pytest.raises(DimensionError):
            lstm_cell(pre, c)


def test_encode_single_token():
    rng = np.random.default_rng(4)
    fwd = model_part("encoder_fwd", seed=4, d_emb=4, d_h=3)
    bwd = model_part("encoder_bwd", seed=4, d_emb=4, d_h=3)
    H, h_final, _ = _encode_one(rng.normal(size=(1, 4)), fwd, bwd)
    assert H.shape == (1, 6)
    np.testing.assert_array_equal(H[0], h_final)


def test_encode_palindrome_symmetry():
    rng = np.random.default_rng(5)
    shared = model_part("encoder_fwd", seed=5, d_emb=4, d_h=3)
    emb = rng.normal(size=(5, 4))
    emb[3] = emb[1]
    emb[4] = emb[0]  # palindrome rows
    H, _, _ = _encode_one(emb, shared, shared)
    d = 3
    for i in range(5):
        np.testing.assert_allclose(H[i, :d], H[5 - 1 - i, d:], atol=1e-12)


def test_encode_matches_unrolled_cells():
    """prepare_source's states against the straight-line transcription of the two
    unrolled cells, on sources of 1-12 tokens with repeated and OOV words."""
    params, vocab = tiny_model(seed=6)
    rng = np.random.default_rng(6)
    words = TINY_TOKENS + ["zyxxy", "qwop"]  # the last two are OOV, embedded as UNK
    covered = set()
    for n in range(1, 13):
        tokens = [words[i] for i in rng.integers(0, len(words), size=n)]
        (ev,), states, _, _ = prepare_source([tokens], params, vocab)
        src_ids = ev.source_ids
        covered |= {"oov"} if max(src_ids) >= vocab.size else set()
        covered |= {"repeat"} if len(set(src_ids)) < n else set()
        emb_ids = [i if i < vocab.size else UNK for i in src_ids]
        H, h_final = straight_line_encode(model_arrays(params), emb_ids, params.dims.d_h)
        np.testing.assert_allclose(states.H[0], H, atol=1e-12, rtol=0)
        np.testing.assert_allclose(states.h_final[0], h_final, atol=1e-12, rtol=0)
    assert covered == {"oov", "repeat"}


def test_encode_backward_matches_finite_differences():
    """A random weighting of H and h_final, so the h_final path is checked
    apart from the decoder's use of it."""
    rng = np.random.default_rng(11)
    params = ModelParams(ModelDims(vocab_size=6, d_emb=3, d_h=2), seed=11)
    E = leaf(rng.normal(size=(4, 3)))
    wH, wf = rng.normal(size=(4, 4)), rng.normal(size=4)
    named = (params.encoder_fwd.named_parameters() + params.encoder_bwd.named_parameters()
             + [("E", E)])

    def f():
        H, h_final, cache = _encode_one(E.data, params.encoder_fwd, params.encoder_bwd)

        def back(g):
            E.grad += _encode_one_backward(cache, g * wH, g * wf)

        return ag._node((H * wH).sum() + (h_final * wf).sum(), back)

    report = grad_check(f, named, h=1e-5)
    assert report.max_rel_err <= 1e-6, repr(report)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_encode_matches_per_step_oracle(n):
    """The hoisted input half and the once-per-direction gate gradients
    against the per-step four-product encoder they replaced: H and h_final
    to 1e-12, d embeddings and each cell tensor's gradient to 1e-12 of its
    largest entry, over widths 1-16 (d_emb = 17 - d_h, so W is never square)."""
    for width in range(1, 17):
        rng = np.random.default_rng([n, width])
        params = ModelParams(ModelDims(vocab_size=6, d_emb=17 - width, d_h=width), seed=width)
        emb = rng.normal(size=(n, 17 - width))
        g_H, g_final = rng.normal(size=(n, 2 * width)), rng.normal(size=2 * width)
        cells = params.encoder_fwd.named_parameters() + params.encoder_bwd.named_parameters()
        results = []
        for run, run_backward in ((_encode_one, _encode_one_backward),
                                  (per_step_encode, per_step_encode_backward)):
            params.zero_grad()
            H, h_final, cache = run(emb, params.encoder_fwd, params.encoder_bwd)
            g_emb = run_backward(cache, g_H, g_final)
            results.append((H, h_final, g_emb, [p.grad.copy() for _, p in cells]))
        (H, h_final, g_emb, grads), (want_H, want_final, want_emb, want_grads) = results
        np.testing.assert_allclose(H, want_H, atol=1e-12, rtol=0)
        np.testing.assert_allclose(h_final, want_final, atol=1e-12, rtol=0)
        assert np.abs(g_emb - want_emb).max() <= 1e-12 * np.abs(want_emb).max()
        for mine, want, (name, _) in zip(grads, want_grads, cells):
            assert np.abs(mine - want).max() <= 1e-12 * np.abs(want).max(), (width, name)


def _padded_sources(rng, lengths, d_emb):
    """Right-padded embeddings (B x N x d_emb) of sources of these lengths,
    with random values at the pads too, and their ``valid`` mask."""
    valid = np.arange(max(lengths)) < np.array(lengths)[:, None]
    return rng.normal(size=valid.shape + (d_emb,)), valid


def test_padded_encoder_matches_one_row_oracle():
    """A batch of sources of 1-12 tokens against each source encoded alone
    by the one-row encoder it replaced: H and h_final to 1e-12 and H zero at
    pads; d embeddings to 1e-12 of their largest and zero at pads; each cell
    tensor's gradient to 1e-12 of its largest entry. Pads hold values and
    gradients that must not leak in."""
    rng = np.random.default_rng(17)
    for width, lengths in ((3, [1, 12, 5, 1]), (5, [7, 2]), (2, [4]), (4, list(range(1, 13)))):
        params = ModelParams(ModelDims(vocab_size=6, d_emb=width + 1, d_h=width), seed=width)
        emb, valid = _padded_sources(rng, lengths, width + 1)
        g_H = rng.normal(size=valid.shape + (2 * width,))
        g_final = rng.normal(size=(len(lengths), 2 * width))
        cells = params.encoder_fwd.named_parameters() + params.encoder_bwd.named_parameters()
        params.zero_grad()
        H, h_final, cache = encode(emb, valid, params.encoder_fwd, params.encoder_bwd)
        g_emb = encode_backward(cache, g_H, g_final)
        grads = [p.grad.copy() for _, p in cells]
        params.zero_grad()
        assert not H[~valid].any() and not g_emb[~valid].any()
        for b, n in enumerate(lengths):
            want_H, want_final, want_cache = one_row_encode(emb[b, :n], params.encoder_fwd,
                                                            params.encoder_bwd)
            want_emb = one_row_encode_backward(want_cache, g_H[b, :n], g_final[b])
            np.testing.assert_allclose(H[b, :n], want_H, atol=1e-12, rtol=0)
            np.testing.assert_allclose(h_final[b], want_final, atol=1e-12, rtol=0)
            assert np.abs(g_emb[b, :n] - want_emb).max() <= 1e-12 * np.abs(want_emb).max()
        for mine, (name, p) in zip(grads, cells):
            assert np.abs(mine - p.grad).max() <= 1e-12 * np.abs(p.grad).max(), (width, name)


def test_padded_encode_backward_matches_finite_differences():
    """Sources of 3, 1 and 2 tokens: the pads' embeddings, which only ever
    feed held steps, get a zero gradient, numerically and analytically."""
    rng = np.random.default_rng(12)
    params = ModelParams(ModelDims(vocab_size=6, d_emb=3, d_h=2), seed=12)
    data, valid = _padded_sources(rng, [3, 1, 2], 3)
    E = leaf(data)
    wH, wf = rng.normal(size=valid.shape + (4,)), rng.normal(size=(3, 4))
    named = (params.encoder_fwd.named_parameters() + params.encoder_bwd.named_parameters()
             + [("E", E)])

    def f():
        H, h_final, cache = encode(E.data, valid, params.encoder_fwd, params.encoder_bwd)

        def back(g):
            E.grad += encode_backward(cache, g * wH, g * wf)

        return ag._node((H * wH).sum() + (h_final * wf).sum(), back)

    report = grad_check(f, named, h=1e-5)
    assert report.max_rel_err <= 1e-6, repr(report)
    assert not E.grad[~valid].any() and E.grad[valid].all()


def test_encode_empty_source_error():
    params, vocab = tiny_model()
    with pytest.raises(ValidationError):
        prepare_source([[]], params, vocab)


class _Source:
    """The two ExtendedVocab fields a decoder step reads."""

    def __init__(self, source_ids, size):
        self.source_ids, self.size = source_ids, size


def _random_attend(seed, n=4, d_h=3, d_s=3, d_a=3, d_emb=2):
    """Random encoder states H and one decoder state row for a model with
    these widths; returns (params, source, states, state)."""
    rng = np.random.default_rng(seed)
    params = ModelParams(ModelDims(vocab_size=6, d_emb=d_emb, d_h=d_h, d_s=d_s, d_a=d_a),
                         seed=seed)
    H = rng.normal(size=(n, 2 * d_h))
    states = hand_states(params, H, H[n - 1])
    return params, _Source([4] * n, 6), states, rng.normal(size=(1, 2 * d_s))


def _attend(params, source, states, state):
    out, _ = step_forward([BOS], source, states, state, params)
    return out.attn[0], out.context[0]


def test_attend_single_state():
    params, source, states, state = _random_attend(0, n=1)
    a, ctx = _attend(params, source, states, state)
    assert a.tolist() == [1.0]
    np.testing.assert_array_equal(ctx, states.H[0, 0])


def test_attend_zero_score_vector_uniform():
    params, source, states, state = _random_attend(1, n=5)
    params.attention.score.data[...] = 0.0
    a, ctx = _attend(params, source, states, state)
    np.testing.assert_allclose(a, np.full(5, 0.2), atol=1e-15)
    np.testing.assert_allclose(ctx, states.H[0].mean(axis=0), atol=1e-12)


def test_attend_context_is_weighted_sum():
    params, source, states, state = _random_attend(2, n=6)
    a, ctx = _attend(params, source, states, state)
    manual = np.zeros(states.H.shape[2])
    for i in range(6):
        manual += a[i] * states.H[0, i]
    np.testing.assert_allclose(ctx, manual, atol=1e-12)


def test_attend_weights_sum_to_one_and_hull():
    for seed in range(30):
        params, source, states, state = _random_attend(seed, n=5)
        a, ctx = _attend(params, source, states, state)
        assert abs(a.sum() - 1.0) <= 1e-12
        assert np.all(a >= 0.0)
        lo = states.H[0].min(axis=0) - 1e-12
        hi = states.H[0].max(axis=0) + 1e-12
        assert np.all(ctx >= lo) and np.all(ctx <= hi)


def test_attend_gradients():
    params, source, states, state = _random_attend(7, n=4)
    f, named = step_loss_node(params, source, states, state, [BOS],
                              np.random.default_rng(8))
    report = grad_check(f, params.attention.named_parameters() + named[:1], h=1e-5)
    assert report.max_rel_err <= 1e-4


def test_decoder_step_zero_weights():
    params, source, states, state = _random_attend(3, d_emb=3, d_h=2, d_s=4)  # 7+4 inputs
    for _, p in params.decoder.named_parameters():
        p.data[...] = 0.0
    states = hand_states(params, states.H[0], states.h_final[0])  # they hold a copy of the gates
    out, _ = step_forward([BOS], source, states, np.zeros_like(state), params)
    assert np.all(out.state == 0.0)


def test_decoder_step_is_cell_on_concat():
    params, source, states, state = _random_attend(9, d_emb=3, d_h=2, d_s=4)
    out, _ = step_forward([BOS], source, states, state, params)
    z = np.concatenate([params.embedding.data[BOS], out.context[0], state[0, :4]])
    h2, c2, _ = _cell_step(params.decoder, z[None], state[:, 4:])
    np.testing.assert_array_equal(out.state[:, :4], h2)
    np.testing.assert_array_equal(out.state[:, 4:], c2)


def test_decoder_step_width_check():
    params, source, states, state = _random_attend(3, d_emb=3, d_h=2, d_s=4)
    with pytest.raises(DimensionError):
        step_forward([BOS], source, states, state[:, 1:], params)


def _project(pp_params, hidden, context):
    (_, p_vocab, _, _), _ = output_forward(np.zeros((1, 2)), hidden[None], context[None],
                                           np.array([[1.0]]), [4], pp_params.dims.vocab_size,
                                           pp_params)
    return p_vocab[0]


def _projection_model(seed=0, vocab_size=6):
    return ModelParams(ModelDims(vocab_size=vocab_size, d_emb=2, d_h=2, d_s=3, d_a=2), seed=seed)


def test_project_vocab_uniform_when_zero():
    params = _projection_model()
    params.projection.weight.data[...] = 0.0
    params.projection.bias.data[...] = 0.0
    p = _project(params, np.ones(3), np.ones(4))
    np.testing.assert_allclose(p, np.full(6, 1 / 6), atol=1e-15)


def test_project_vocab_huge_bias_saturates_without_overflow():
    params = _projection_model()
    pp = params.projection
    pp.weight.data[...] = 0.0
    pp.bias.data[...] = 0.0
    pp.bias.data[2] = 1e6
    p = _project(params, np.zeros(3), np.zeros(4))
    assert np.all(np.isfinite(p))
    assert p[2] == pytest.approx(1.0)


def test_project_vocab_matches_highprec_softmax():
    rng = np.random.default_rng(11)
    params = _projection_model(seed=11, vocab_size=7)
    pp = params.projection
    hidden, ctx = rng.normal(size=3), rng.normal(size=4)
    p = _project(params, hidden, ctx)
    logits = pp.weight.data @ np.concatenate([hidden, ctx]) + pp.bias.data
    np.testing.assert_allclose(p, softmax_highprec(logits), atol=1e-14)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_model_params_inventory_and_order():
    params, vocab = tiny_model(seed=0)
    names = [n for n, _ in params.named_parameters()]
    assert names[0] == "embedding"
    assert names[-2:] == ["bridge_hidden", "bridge_cell"]
    for expected in ("attention.weight", "attention.bias", "attention.score",
                     "projection.weight", "projection.bias",
                     "copy_gate.weight", "copy_gate.bias"):
        assert expected in names
    assert len(names) == len(set(names))
    # every learned symbol appears exactly once: 1 emb + 3 cells * 8 + 3 attn
    # + 2 proj + 2 gate + 2 bridge
    assert len(names) == 1 + 24 + 3 + 2 + 2 + 2
    # forget bias initialized to one
    assert np.all(params.decoder.b_f.data == 1.0)
    assert np.all(params.decoder.b_i.data == 0.0)


def test_named_parameters_follow_layout_and_groups():
    dims = ModelDims(vocab_size=7, d_emb=2, d_h=3, d_s=4, d_a=5)
    params = ModelParams(dims, seed=0)
    layout = parameter_layout(dims)
    assert [n for n, _ in params.named_parameters()] == list(layout)
    for name, p in params.named_parameters():
        shape, init = layout[name]
        assert p.data.shape == shape == p.grad.shape, name
        if isinstance(init, float):
            assert np.all(p.data == init), name
        else:
            assert np.all(np.abs(p.data) <= 0.1) and np.unique(p.data).size == p.data.size
        prefix, _, leaf = name.rpartition(".")
        assert getattr(getattr(params, prefix) if prefix else params, leaf) is p, name
    assert isinstance(params.decoder, ParamGroup)
    assert params.decoder.named_parameters() == [
        (n, p) for n, p in params.named_parameters() if n.startswith("decoder.")]


def _assert_flat_views(params):
    """Each tensor's .data and .grad are the slices of flat and grad at its layout offset."""
    params.flat[...] = np.arange(params.flat.size)
    params.grad[...] = -np.arange(params.grad.size)
    start = 0
    for name, p in params.named_parameters():
        end = start + p.data.size
        assert np.shares_memory(p.data, params.flat), name
        assert np.shares_memory(p.grad, params.grad), name
        np.testing.assert_array_equal(p.data.ravel(), np.arange(start, end), err_msg=name)
        np.testing.assert_array_equal(p.grad.ravel(), -np.arange(start, end), err_msg=name)
        start = end
    assert start == params.flat.size == params.dims.parameter_count()


def test_tensors_are_views_of_flat_buffers():
    dims = ModelDims(vocab_size=7, d_emb=2, d_h=3, d_s=4, d_a=5)
    params = ModelParams(dims, seed=0)
    _assert_flat_views(params_from_payload(dims, params.flat.copy()))
    _assert_flat_views(params)
    params.zero_grad()
    assert not any(p.grad.any() for _, p in params.named_parameters())


def test_views_survive_grad_check_dtype_swap():
    params = ModelParams(ModelDims(vocab_size=6, d_emb=2, d_h=2, d_s=2, d_a=2), seed=4)
    named = params.named_parameters()
    before = params.flat.copy()

    def f():  # the sum of squares of every parameter, as one node
        def back(g):
            for _, p in named:
                p.grad += 2.0 * g * p.data

        return ag._node(sum((p.data * p.data).sum() for _, p in named), back)

    report = grad_check(f, named, h=1e-5)
    assert report.max_rel_err <= 1e-6
    np.testing.assert_array_equal(params.flat, before)
    _assert_flat_views(params)


def test_bridge_shapes_and_tanh_range():
    params, vocab = tiny_model(seed=2)
    _, _, s0, _ = prepare_source([["alpha", "beta"]], params, vocab)
    assert s0.shape == (1, 16)  # one row [hidden | cell]
    assert np.all(np.abs(s0) < 1.0)
