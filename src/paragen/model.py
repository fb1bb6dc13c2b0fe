"""Bidirectional LSTM encoder, additive attention, and the decoder stack.

Widths used throughout: d_emb embedding size, d_h encoder hidden size per
direction (so encoder states are 2*d_h wide), d_s decoder state size, d_a
attention size.
"""

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor, lstm_step
from .errors import DimensionError, ValidationError
from .vocab import EmbeddingTable


class LSTMCellParams:
    """Gate weights for one LSTM cell; forget-gate bias starts at 1.0."""

    GATES = ("i", "f", "g", "o")

    def __init__(self, d_in, d_h, rng):
        self.d_in = d_in
        self.d_h = d_h
        for gate in self.GATES:
            w = Tensor(rng.uniform(-0.1, 0.1, size=(d_h, d_in + d_h)), requires_grad=True)
            b = Tensor(np.full(d_h, 1.0 if gate == "f" else 0.0), requires_grad=True)
            setattr(self, f"w_{gate}", w)
            setattr(self, f"b_{gate}", b)

    def named_parameters(self, prefix):
        out = []
        for gate in self.GATES:
            out.append((f"{prefix}.w_{gate}", getattr(self, f"w_{gate}")))
            out.append((f"{prefix}.b_{gate}", getattr(self, f"b_{gate}")))
        return out


class DecoderState:
    """Hidden and cell vectors of the decoder LSTM."""

    __slots__ = ("hidden", "cell")

    def __init__(self, hidden, cell):
        self.hidden = hidden
        self.cell = cell


class EncoderStates:
    """Per-token bidirectional states H (N x 2*d_h) and the combined final state."""

    __slots__ = ("H", "h_final", "n")

    def __init__(self, H, h_final, n):
        self.H = H
        self.h_final = h_final
        self.n = n


def encode(embeddings, fwd, bwd):
    """Run both encoder directions over a source embedding matrix (N x d_emb).

    Row i of the result holds the forward state after reading token i
    concatenated with the backward state after reading tokens N..i. The
    combined final state is forward-at-N alongside backward-at-1.
    """
    n = embeddings.data.shape[0]
    if n < 1:
        raise ValidationError("encode: empty source")
    d_h = fwd.d_h

    def run(cell, order):
        h = Tensor(np.zeros(d_h))
        c = Tensor(np.zeros(d_h))
        states = [None] * n
        for i in order:
            h, c = lstm_step(cell, ag.row(embeddings, i), (h, c))
            states[i] = h
        return states, h

    fwd_states, fwd_last = run(fwd, range(n))
    bwd_states, bwd_last = run(bwd, range(n - 1, -1, -1))
    H = ag.stack([ag.concat(fwd_states[i], bwd_states[i]) for i in range(n)])
    h_final = ag.concat(fwd_last, bwd_last)
    return EncoderStates(H, h_final, n)


class AttentionParams:
    """Additive attention: score_i = score_vec . tanh(W [h_i, s] + bias)."""

    def __init__(self, d_enc, d_s, d_a, rng):
        self.weight = Tensor(rng.uniform(-0.1, 0.1, size=(d_a, d_enc + d_s)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_a), requires_grad=True)
        self.score = Tensor(rng.uniform(-0.1, 0.1, size=d_a), requires_grad=True)

    def named_parameters(self, prefix="attention"):
        return [(f"{prefix}.weight", self.weight),
                (f"{prefix}.bias", self.bias),
                (f"{prefix}.score", self.score)]


def attend(states, s, ap):
    """Score every encoder state against the decoder state.

    Returns (scores, weights, context): raw scores e, their softmax a, and
    the attention-weighted sum of encoder states.
    """
    n = states.n
    X = ag.concat(states.H, ag.tile_rows(s.hidden, n), axis=1)
    pre = ag.add(ag.matmul(X, ag.transpose(ap.weight)), ag.tile_rows(ap.bias, n))
    e = ag.matmul(ag.tanh(pre), ap.score)
    a = ag.softmax(e)
    context = ag.matmul(a, states.H)
    return e, a, context


def decoder_step(prev_emb, context, state, dec):
    """Advance the decoder LSTM on [previous word embedding, context]."""
    if dec.d_in != prev_emb.data.shape[0] + context.data.shape[0]:
        raise DimensionError(
            f"decoder_step: cell expects d_in={dec.d_in}, got "
            f"{prev_emb.data.shape[0]} + {context.data.shape[0]}")
    h, c = lstm_step(dec, ag.concat(prev_emb, context), (state.hidden, state.cell))
    return DecoderState(h, c)


class ProjectionParams:
    """Affine map from [decoder state, context] onto fixed-vocabulary logits."""

    def __init__(self, vocab_size, d_s, d_enc, rng):
        self.weight = Tensor(rng.uniform(-0.1, 0.1, size=(vocab_size, d_s + d_enc)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(vocab_size), requires_grad=True)

    def named_parameters(self, prefix="projection"):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


def project_vocab(state, context, pp):
    """Softmax distribution over the fixed vocabulary."""
    z = ag.concat(state.hidden, context)
    return ag.softmax(ag.add(ag.matmul(pp.weight, z), pp.bias))


@dataclass
class ModelDims:
    vocab_size: int
    d_emb: int = 64
    d_h: int = 64
    d_s: int = 64
    d_a: int = 64

    def parameter_count(self):
        """Float64 values in ModelParams(self), known without building it."""
        v, e, h, s, a = self.vocab_size, self.d_emb, self.d_h, self.d_s, self.d_a
        lstm = lambda d_in, d_out: 4 * d_out * (d_in + d_out + 1)  # noqa: E731
        # embedding, encoders, decoder, attention, projection, copy gate, bridges
        return (v * e + 2 * lstm(e, h) + lstm(e + 2 * h, s) + a * (2 * h + s + 2)
                + v * (s + 2 * h + 1) + e + s + 2 * h + 1 + 4 * s * h)


class ModelParams:
    """Every trainable tensor of the model, in a fixed declaration order.

    The order of named_parameters() is also the checkpoint payload order.
    """

    def __init__(self, dims, seed):
        from .pointer import GateParams  # local import to avoid a cycle

        self.dims = dims
        self.seed = seed
        rng = np.random.default_rng(seed)
        d = dims
        self.embedding = EmbeddingTable(d.vocab_size, d.d_emb, rng)
        self.encoder_fwd = LSTMCellParams(d.d_emb, d.d_h, rng)
        self.encoder_bwd = LSTMCellParams(d.d_emb, d.d_h, rng)
        self.decoder = LSTMCellParams(d.d_emb + 2 * d.d_h, d.d_s, rng)
        self.attention = AttentionParams(2 * d.d_h, d.d_s, d.d_a, rng)
        self.projection = ProjectionParams(d.vocab_size, d.d_s, 2 * d.d_h, rng)
        self.copy_gate = GateParams(d.d_emb, d.d_s, 2 * d.d_h, rng)
        self.bridge_hidden = Tensor(rng.uniform(-0.1, 0.1, size=(d.d_s, 2 * d.d_h)),
                                    requires_grad=True)
        self.bridge_cell = Tensor(rng.uniform(-0.1, 0.1, size=(d.d_s, 2 * d.d_h)),
                                  requires_grad=True)

    def named_parameters(self):
        out = [("embedding", self.embedding.table)]
        out += self.encoder_fwd.named_parameters("encoder_fwd")
        out += self.encoder_bwd.named_parameters("encoder_bwd")
        out += self.decoder.named_parameters("decoder")
        out += self.attention.named_parameters()
        out += self.projection.named_parameters()
        out += self.copy_gate.named_parameters()
        out += [("bridge_hidden", self.bridge_hidden), ("bridge_cell", self.bridge_cell)]
        return out

    def zero_grad(self):
        for _, p in self.named_parameters():
            p.zero_grad()

    def embed(self, idx):
        return self.embedding.lookup(idx)

    def initial_decoder_state(self, states):
        """Bridge the combined final encoder state into the decoder widths."""
        h = ag.tanh(ag.matmul(self.bridge_hidden, states.h_final))
        c = ag.tanh(ag.matmul(self.bridge_cell, states.h_final))
        return DecoderState(h, c)

    def encode_source_ids(self, source_ids):
        """Embed extended source ids (OOVs fall back to UNK) and run the encoder."""
        from .vocab import UNK

        emb_ids = [i if i < self.dims.vocab_size else UNK for i in source_ids]
        embs = ag.rows(self.embedding.table, emb_ids)
        return encode(embs, self.encoder_fwd, self.encoder_bwd)
