"""Bidirectional LSTM encoder, the bridge to the decoder's initial state, the
source half of additive attention (together ``prepare_source`` and its
``source_backward``), and the model's parameters; the decoder step itself
is in pointer.py. Each forward has a numpy backward and reads the
weights through their tensors' ``.data``, which gradcheck may swap.

Widths used throughout: d_emb embedding size, d_h encoder hidden size per
direction (so encoder states are 2*d_h wide), d_s decoder state size, d_a
attention size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .errors import ValidationError
from .layers import GATES, accumulate_gates, lstm_cell, lstm_cell_backward, stack_gates
from .vocab import UNK, ExtendedVocab


@dataclass
class EncoderStates:
    """Per-token bidirectional states H (N x 2*d_h), the combined final state
    (2*d_h), and what every decoder step reuses: the attention features
    W_H·H + b (N x d_a) and the decoder cell's ``stack_gates`` (weight, bias).

    Both are copies taken from the weights at encoding time, so the states are
    valid only until the next optimizer update; training encodes every pair
    afresh, so each batch runs on the weights the previous update left (its
    pairs share one ``stack_cells`` copy of the gates, given to ``prepare_source``)."""

    H: np.ndarray
    h_final: np.ndarray
    features: np.ndarray
    gates: tuple


def encode(embeddings, fwd, bwd, gates=None):
    """Run both encoder directions over a source embedding matrix (N x d_emb).

    Row i of H holds the forward state after reading token i concatenated
    with the backward state after reading tokens N..i. The combined final
    state is forward-at-N alongside backward-at-1. A direction's input half
    of the gates is one product over all tokens. ``gates``: each direction's
    ``stack_gates``, if already stacked. Returns (H, h_final, cache).
    """
    n, d_emb = embeddings.shape
    if n < 1:
        raise ValidationError("encode: empty source")

    def run(cell, order, stacked):
        W, b = stacked
        X, W_hT = embeddings @ W[:, :d_emb].T + b, W[:, d_emb:].T
        Z = np.concatenate([embeddings, np.zeros((n, W_hT.shape[0]))], axis=1)  # steps' [x, h]
        h = c = np.zeros((1, W_hT.shape[0]))
        states, caches = [None] * n, [None] * n
        for i in order:
            Z[i, d_emb:] = h[0]
            h, c, caches[i] = lstm_cell(X[i:i + 1] + h @ W_hT, c)
            states[i] = h[0]
        return states, (cell, W, Z, order, caches)

    gates = gates or (stack_gates(fwd), stack_gates(bwd))
    fwd_states, fwd_cache = run(fwd, range(n), gates[0])
    bwd_states, bwd_cache = run(bwd, range(n - 1, -1, -1), gates[1])
    H = np.concatenate([np.stack(fwd_states), np.stack(bwd_states)], axis=1)
    h_final = np.concatenate([fwd_states[-1], bwd_states[0]])
    return H, h_final, (fwd_cache, bwd_cache)


def encode_backward(cache, g_H, g_final):
    """Gradients of ``encode`` for d H and d h_final: per direction, one
    ``accumulate_gates`` over every step's d pre, and one product for the
    embeddings' share. Returns d embeddings (N x d_emb)."""
    d_h, g_emb = g_H.shape[1] // 2, 0.0
    for (cell, W, Z, order, caches), cols in zip(cache, (slice(0, d_h), slice(d_h, None))):
        D, g_h, g_c = np.empty((len(caches), 4 * d_h)), g_final[None, cols], np.zeros((1, d_h))
        for i in reversed(order):  # the last step's h also feeds h_final
            d_pre, g_c = lstm_cell_backward(caches[i], g_H[i:i + 1, cols] + g_h, g_c)
            D[i], g_h = d_pre[0], d_pre @ W[:, -d_h:]
        accumulate_gates(cell, D, Z)
        g_emb = g_emb + D @ W[:, :-d_h]
    return g_emb


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


def stack_cells(params):
    """``stack_gates`` of the two encoder cells and of the decoder cell, in that order."""
    return [stack_gates(c) for c in (params.encoder_fwd, params.encoder_bwd, params.decoder)]


def prepare_source(tokens, params, vocab, gates=None):
    """All a decoder needs before step 1, for source ``tokens``: returns
    (ExtendedVocab, EncoderStates, initial decoder state, cache).

    The extended source ids are embedded (``embedding_rows``) and encoded;
    the attention features W_H·H + b and the decoder's stacked gates are
    kept for every step; the initial state [hidden | cell] (1 x 2*d_s) is
    bridged from the final encoder state: tanh([W_h·h_final ; W_c·h_final]).
    ``gates``: ``stack_cells(params)``, if already stacked. Only training
    keeps the cache, for ``source_backward``.
    """
    ev = ExtendedVocab(vocab, tokens)
    *encoder_gates, decoder_gates = gates or stack_cells(params)
    emb_ids = params.embedding_rows(ev.source_ids)
    H, h_final, cache = encode(params.embedding.data[emb_ids],
                               params.encoder_fwd, params.encoder_bwd, encoder_gates)
    ap = params.attention
    features = H @ ap.weight.data[:, :H.shape[1]].T + ap.bias.data
    state = np.tanh(np.concatenate([params.bridge_hidden.data @ h_final,
                                    params.bridge_cell.data @ h_final]))[None]
    return ev, EncoderStates(H, h_final, features, decoder_gates), state, (emb_ids, cache)


def source_backward(params, cache, states, state, g_H, g_state):
    """Gradients of ``prepare_source`` for d H and d initial state: the
    bridge's, both encoder cells' and the embedding's (repeated ids add up),
    accumulated into the grad views."""
    emb_ids, encode_cache = cache
    d_s = params.dims.d_s
    g_pre = g_state[0] * (1.0 - state[0] * state[0])
    g_hidden, g_cell = g_pre[:d_s], g_pre[d_s:]
    params.bridge_hidden.grad += np.outer(g_hidden, states.h_final)
    params.bridge_cell.grad += np.outer(g_cell, states.h_final)
    g_final = g_hidden @ params.bridge_hidden.data + g_cell @ params.bridge_cell.data
    np.add.at(params.embedding.grad, emb_ids, encode_backward(encode_cache, g_H, g_final))


def params_from_payload(dims, payload):
    """ModelParams whose ``flat`` is a copy of little-endian float64 ``payload``.

    Draws nothing; the caller checks len(payload) == 8 * dims.parameter_count().
    """
    params = ModelParams.__new__(ModelParams)  # skips the random init
    params._bind(dims, np.frombuffer(payload, dtype="<f8").astype(np.float64))
    return params
