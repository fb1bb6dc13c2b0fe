"""Bidirectional LSTM encoder, the bridge to the decoder's initial state, the
source half of additive attention (together ``prepare_source`` and its
``source_backward``, on a right-padded batch of sources), and the model's
parameters; the decoder step itself is in pointer.py. Each forward has a
numpy backward and reads the weights through their tensors' ``.data``,
which gradcheck may swap.

Widths used throughout: d_emb embedding size, d_h encoder hidden size per
direction (so encoder states are 2*d_h wide), d_s decoder state size, d_a
attention size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .errors import ValidationError
from .layers import (GATES, accumulate_gates, lstm_cell, lstm_cell_backward, row_product,
                     stack_gates)
from .vocab import PAD, UNK, ExtendedVocab


@dataclass
class EncoderStates:
    """S sources right-padded to N: H (S x N x 2*d_h, 0 at pads), valid, final
    states, and what each decoder step reuses: features W_H·H + b (S x N x d_a)
    and the decoder's stacked gates (W, b, contiguous W.T), copies of weights
    that go stale at the next update (training encodes each batch afresh).
    A step's rows all read source 0 if S is 1, else row r reads source r."""

    H: np.ndarray
    valid: np.ndarray
    h_final: np.ndarray
    features: np.ndarray
    gates: tuple


def _steps(fwd, bwd):
    """Per-direction arrays (B x N x ...) as (N x 2 x B x ...) in each one's
    step order: the backward direction reads position N-1-k at step k."""
    return np.stack([fwd.swapaxes(0, 1), bwd.swapaxes(0, 1)[::-1]], axis=1)


def encode(embeddings, valid, fwd, bwd):
    """Both encoder directions over B right-padded sources (B x N x d_emb), row
    b's tokens where ``valid[b]`` (a nonempty prefix): H[b, i] = [forward after
    token i, backward after the last back to i], 0 at pads. One stacked product
    a step; a row holds its state through pads, so h_final is [forward at its
    last token, backward at its first]. Returns (H, h_final, cache)."""
    b, n, d_emb = embeddings.shape
    if b < 1 or n < 1 or not valid[:, 0].all():
        raise ValidationError("encode: empty source")
    (W_f, b_f), (W_b, b_b) = stack_gates(fwd), stack_gates(bwd)
    d_h, flat = W_f.shape[0] // 4, embeddings.reshape(-1, d_emb)
    X = _steps(*((row_product(flat, W[:, :d_emb].T) + bias).reshape(b, n, -1)
                 for W, bias in ((W_f, b_f), (W_b, b_b))))
    keep = _steps(valid[:, :, None], valid[:, :, None])
    W_hT = np.stack([W_f[:, d_emb:].T, W_b[:, d_emb:].T])  # 2 x d_h x 4*d_h
    hs = np.zeros((n + 1, 2, b, d_h), X.dtype)  # X's dtype: gradcheck probes at longdouble
    c, caches = np.zeros((2 * b, d_h), X.dtype), [None] * n
    for k in range(n):
        h, c_new, caches[k] = lstm_cell((X[k] + row_product(hs[k], W_hT)).reshape(2 * b, -1), c)
        hs[k + 1] = np.where(keep[k], h.reshape(2, b, d_h), hs[k])
        c = np.where(keep[k].reshape(-1, 1), c_new, c)
    H = np.concatenate([hs[1:, 0], hs[:0:-1, 1]], axis=2).swapaxes(0, 1)
    return (np.where(valid[:, :, None], H, 0.0), np.concatenate([hs[n, 0], hs[n, 1]], axis=1),
            (fwd, bwd, W_f, W_b, embeddings, keep, hs, caches))


def encode_backward(cache, g_H, g_final):
    """Gradients of ``encode``: the steps in reverse (a held step passes its d
    state through), then per direction one ``accumulate_gates`` over its real
    steps and one product for d embeddings (B x N x d_emb, 0 at pads)."""
    fwd, bwd, W_f, W_b, embeddings, keep, hs, caches = cache
    (n, _, b, d_h), d_emb = hs[1:].shape, embeddings.shape[2]
    g_steps = np.where(keep, _steps(g_H[:, :, :d_h], g_H[:, :, d_h:]), 0.0)  # pads' H are 0
    W_h = np.stack([W_f[:, d_emb:], W_b[:, d_emb:]])  # 2 x 4*d_h x d_h
    D = np.zeros((2, n, b, 4 * d_h))
    g_h, g_c = g_final.reshape(b, 2, d_h).swapaxes(0, 1), np.zeros((2 * b, d_h))
    for k in reversed(range(n)):
        g = g_steps[k] + g_h
        d_pre, g_c_prev = lstm_cell_backward(caches[k], g.reshape(2 * b, -1), g_c)
        D[:, k] = np.where(keep[k], d_pre.reshape(2, b, -1), 0.0)
        g_h = np.where(keep[k], row_product(D[:, k], W_h), g)
        g_c = np.where(keep[k].reshape(-1, 1), g_c_prev, g_c)
    inputs, real = _steps(embeddings, embeddings), keep[..., 0]
    for direction, cell in enumerate((fwd, bwd)):
        accumulate_gates(cell, D[direction][real[:, direction]], np.concatenate(
            [inputs[:, direction], hs[:-1, direction]], axis=2)[real[:, direction]])
    g_f, g_b = ((D[d].reshape(-1, 4 * d_h) @ W[:, :d_emb]).reshape(n, b, d_emb)
                for d, W in enumerate((W_f, W_b)))
    return (g_f + g_b[::-1]).swapaxes(0, 1)


@dataclass
class ModelDims:
    vocab_size: int
    d_emb: int = 64
    d_h: int = 64
    d_s: int = 64
    d_a: int = 64

    def parameter_count(self):
        """Float64 values in ModelParams(self), known without building it."""
        return sum(math.prod(shape) for shape, _ in parameter_layout(self).values())


UNIFORM = "uniform"  # init drawn from uniform(-0.1, 0.1); any other init is a constant fill


def parameter_layout(dims):
    """name -> (shape, init) of every trainable tensor.

    The order is the order of the random draws, of named_parameters() and of
    the checkpoint payload. A name "group.leaf" is reached as params.group.leaf.
    """
    v, e, h, s, a = dims.vocab_size, dims.d_emb, dims.d_h, dims.d_s, dims.d_a
    layout = {"embedding": ((v, e), UNIFORM)}
    # LSTM cells: each gate maps [input, hidden] to hidden; forget bias starts at 1
    for cell, d_in, d_out in (("encoder_fwd", e, h), ("encoder_bwd", e, h),
                              ("decoder", e + 2 * h, s)):
        for gate in GATES:
            layout[f"{cell}.w_{gate}"] = ((d_out, d_in + d_out), UNIFORM)
            layout[f"{cell}.b_{gate}"] = ((d_out,), 1.0 if gate == "f" else 0.0)
    layout.update({
        "attention.weight": ((a, 2 * h + s), UNIFORM),
        "attention.bias": ((a,), 0.0),
        "attention.score": ((a,), UNIFORM),
        "projection.weight": ((v, s + 2 * h), UNIFORM),
        "projection.bias": ((v,), 0.0),
        # copy gate over [previous word embedding, decoder state, context]
        "copy_gate.weight": ((e + s + 2 * h,), UNIFORM),
        "copy_gate.bias": ((), 0.0),
        # final encoder state -> initial decoder hidden and cell state
        "bridge_hidden": ((s, 2 * h), UNIFORM),
        "bridge_cell": ((s, 2 * h), UNIFORM),
    })
    return layout


class ParamGroup:
    """The tensors under one layout prefix as attributes: params.decoder.w_i
    is the tensor named "decoder.w_i"."""

    def __init__(self, named):
        self._named = named
        for name, tensor in named:
            setattr(self, name.rpartition(".")[2], tensor)

    def named_parameters(self):
        return list(self._named)


class ModelParams:
    """Every trainable tensor of the model, laid out by parameter_layout(dims).

    ``flat`` holds every value and ``grad`` every gradient, in layout order;
    each named tensor's .data and .grad are views of its slice of the two.
    """

    def __init__(self, dims, seed):
        self._bind(dims, np.empty(dims.parameter_count()))
        rng = np.random.default_rng(seed)
        for (_, p), (_, init) in zip(self._named, parameter_layout(dims).values()):
            if init == UNIFORM:  # uniform(-0.1, 0.1)'s arithmetic, in place
                rng.random(out=p.data)
                p.data *= 0.2
                p.data += -0.1
            else:
                p.data[...] = init

    def _bind(self, dims, flat):
        """Name a view of ``flat`` (and of a zeroed ``grad``) for each layout entry.

        ``grad`` comes from np.zeros, whose pages are mapped on first write,
        so a model that never computes a gradient never pays for one."""
        self.dims, self.flat, self.grad = dims, flat, np.zeros(flat.shape)
        self._named, groups, start = [], {}, 0
        for name, (shape, _) in parameter_layout(dims).items():
            end = start + math.prod(shape)
            tensor = Tensor(flat[start:end].reshape(shape), self.grad[start:end].reshape(shape))
            self._named.append((name, tensor))
            start = end
            prefix = name.rpartition(".")[0]
            if prefix:
                groups.setdefault(prefix, []).append((name, tensor))
            else:
                setattr(self, name, tensor)
        for prefix, named in groups.items():
            setattr(self, prefix, ParamGroup(named))

    def named_parameters(self):
        return list(self._named)

    def zero_grad(self):
        self.grad.fill(0.0)

    def embedding_rows(self, ids):
        """The embedding row each extended id reads: a fixed id its own, an
        id past the fixed vocabulary (a copied OOV) UNK's."""
        ids = np.asarray(ids, dtype=np.intp)
        return np.where(ids < self.dims.vocab_size, ids, UNK)


def prepare_source(sources, params, vocab):
    """All a decoder needs before step 1, for a batch of source token lists:
    their ExtendedVocabs, ``source_states`` of their extended ids (padded with
    PAD, embedded by ``embedding_rows``), initial states tanh([W_h·h_final ;
    W_c·h_final]) (B x 2*d_s) and the cache training keeps for the backward."""
    evs = [ExtendedVocab(vocab, tokens) for tokens in sources]
    lengths = np.array([len(ev.source_ids) for ev in evs], dtype=np.intp)
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    ids = np.full(valid.shape, PAD)
    ids[valid] = [i for ev in evs for i in ev.source_ids]
    H, h_final, cache = encode(params.embedding.data[params.embedding_rows(ids)], valid,
                               params.encoder_fwd, params.encoder_bwd)
    state = np.tanh(np.concatenate([row_product(h_final, params.bridge_hidden.data.T),
                                    row_product(h_final, params.bridge_cell.data.T)], axis=1))
    return evs, source_states(params, H, valid, h_final), state, (ids, cache)


def source_states(params, H, valid, h_final):
    """EncoderStates of H, ``valid`` and h_final, with the attention features
    and the decoder's stacked gates taken from the current weights."""
    ap, width = params.attention, H.shape[2]
    features = row_product(H.reshape(-1, width), ap.weight.data[:, :width].T) + ap.bias.data
    W, b = stack_gates(params.decoder)
    return EncoderStates(H, valid, h_final, features.reshape(*H.shape[:2], -1),
                         (W, b, np.ascontiguousarray(W.T)))


def source_backward(params, cache, states, state, g_H, g_state):
    """Add the gradients of ``prepare_source`` for d H and d initial states
    into the grad views: the bridge's, the encoder's and the embedding's."""
    ids, encode_cache = cache  # the padded extended source ids
    g_hidden, g_cell = np.split(g_state * (1.0 - state * state), 2, axis=1)
    params.bridge_hidden.grad += g_hidden.T @ states.h_final
    params.bridge_cell.grad += g_cell.T @ states.h_final
    g_final = (row_product(g_hidden, params.bridge_hidden.data)
               + row_product(g_cell, params.bridge_cell.data))
    np.add.at(params.embedding.grad, params.embedding_rows(ids[states.valid]),
              encode_backward(encode_cache, g_H, g_final)[states.valid])


def params_from_payload(dims, payload):
    """ModelParams whose ``flat`` is a copy of little-endian float64 ``payload``.

    Draws nothing; the caller checks len(payload) == 8 * dims.parameter_count().
    """
    params = ModelParams.__new__(ModelParams)  # skips the random init
    params._bind(dims, np.frombuffer(payload, dtype="<f8").astype(np.float64))
    return params
