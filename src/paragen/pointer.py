"""The decoder step in numpy, on B rows at once: attention, LSTM update,
vocabulary softmax, copy distribution, generation gate and their mixture.

A step is two halves. ``recur_forward`` (attention and the LSTM update)
carries the state from step to step; ``output_forward`` (projection, softmax,
gate, copy scatter, mixture) reads one step's rows and nothing later reads it.
``step_forward`` composes them for inference, one step at a time.
``teacher_forced`` runs the recurrence over a whole given sequence and then
the output layer once over all its rows; training.sequence_loss keeps its
cache for ``teacher_forced_backward``, and decoding.score_sequence drops it.
"""

from dataclasses import dataclass

import numpy as np

from .autograd import _sig, lstm_backward, lstm_forward, outer_sum, softmax_rows
from .errors import ValidationError
from .vocab import UNK, encode_source


def copy_distribution(attn, source_ids, size):
    """Scatter each row of attention weights (B x N) onto the source's
    extended ids (B x size); repeated ids accumulate in source order, and
    ids absent from the source stay exactly zero."""
    ids = np.asarray(source_ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise ValidationError(f"copy_distribution: source id out of range [0, {size})")
    out = np.zeros((attn.shape[0], size), dtype=attn.dtype)
    np.add.at(out.T, ids, attn.T)
    return out


def mix(p_vocab, p_copy, p_gen):
    """Row-wise p_gen * p_vocab + (1 - p_gen) * p_copy over the extended ids,
    one gate value per row; the extended ids draw only on the copy branch."""
    if not np.all((p_gen >= 0.0) & (p_gen <= 1.0)):
        raise ValidationError(f"mix: p_gen {p_gen} outside [0, 1]")
    out = p_copy * (1.0 - p_gen)[:, None]
    out[:, :p_vocab.shape[1]] += p_vocab * p_gen[:, None]
    return out


def output_forward(emb, hidden, context, attn, source_ids, size, params, force_p_gen=None):
    """The output layer on B rows: softmax(W [hidden, context] + b) over the
    fixed vocabulary, the gate sigmoid(w . [emb, hidden, context] + b) or
    force_p_gen, the copy scatter of ``attn`` and the mixture.
    Returns ((p, p_vocab, p_copy, p_gen), cache)."""
    pp, gp = params.projection, params.copy_gate
    z_p = np.concatenate([hidden, context], axis=1)
    p_vocab = softmax_rows(z_p @ pp.weight.data.T + pp.bias.data)
    z_g = np.concatenate([emb, hidden, context], axis=1)
    if force_p_gen is None:
        # a dot product per row, so a row's gate does not depend on B
        p_gen = _sig(np.einsum("bk,k->b", z_g, gp.weight.data) + gp.bias.data)
    else:
        p_gen = np.full(len(z_g), float(force_p_gen))
    p_copy = copy_distribution(attn, source_ids, size)
    p = mix(p_vocab, p_copy, p_gen)
    return (p, p_vocab, p_copy, p_gen), (params, z_p, z_g, p_vocab, p_copy, p_gen, source_ids)


def output_backward(cache, g_p):
    """Gradients of ``output_forward`` (learned gate) for d p: accumulates the
    projection and gate gradients; returns (d emb, d hidden, d context, d attn)."""
    params, z_p, z_g, p_vocab, p_copy, p_gen, source_ids = cache
    pp, gp = params.projection, params.copy_gate
    v, e, s = p_vocab.shape[1], params.dims.d_emb, params.dims.d_s
    g_gen = (g_p[:, :v] * p_vocab).sum(axis=1) - (g_p * p_copy).sum(axis=1)
    g_vocab = g_p[:, :v] * p_gen[:, None]
    g_logits = p_vocab * (g_vocab - (g_vocab * p_vocab).sum(axis=1, keepdims=True))
    pp.weight.grad += g_logits.T @ z_p
    pp.bias.grad += g_logits.sum(axis=0)
    g_pre = g_gen * p_gen * (1.0 - p_gen)
    gp.weight.grad += g_pre @ z_g
    gp.bias.grad += g_pre.sum()
    g_zp = g_logits @ pp.weight.data
    g_zg = g_pre[:, None] * gp.weight.data
    g_attn = (g_p * (1.0 - p_gen)[:, None])[:, np.asarray(source_ids, dtype=np.intp)]
    return (g_zg[:, :e], g_zp[:, :s] + g_zg[:, e:e + s], g_zp[:, s:] + g_zg[:, e + s:],
            g_attn)


@dataclass
class StepOutputs:
    """One decoder step's results, a row per hypothesis (B rows)."""

    attn: np.ndarray     # B x N attention weights over source positions
    context: np.ndarray  # B x 2*d_h attention-weighted sum of encoder states
    p_vocab: np.ndarray  # B x V fixed-vocabulary distribution
    p_copy: np.ndarray   # B x size copy distribution over extended ids
    p_gen: np.ndarray    # B gate values
    p: np.ndarray        # B x size final distribution over extended ids
    state: np.ndarray    # B x 2*d_s next decoder state [hidden | cell]


def prepare_source(tokens, params, vocab):
    """(ExtendedVocab, EncoderStates, initial decoder state: one row
    [hidden | cell]) for source ``tokens``: all a decoder needs before step 1."""
    src_ids, ev = encode_source(tokens, vocab)
    states, _ = params.encode_source_ids(src_ids)
    return ev, states, params.initial_decoder_state(states)


def recur_forward(prev_ids, states, state, params):
    """The recurrence half of a decoder step for B rows: attend with the
    incoming state (B x 2*d_s), then update the LSTM on [embedding of prev_ids
    (extended ids embed as UNK), context]. Returns
    ((emb, attn, context, next state), cache)."""
    prev_ids = np.asarray(prev_ids, dtype=np.intp)
    d_s = params.dims.d_s
    if prev_ids.size and prev_ids.min() < 0:
        raise ValidationError(f"step: negative previous id in {prev_ids}")
    emb_ids = np.where(prev_ids < params.dims.vocab_size, prev_ids, UNK)
    emb = params.embedding.data[emb_ids]
    H, ap, hidden = states.H, params.attention, state[:, :d_s]
    t = np.tanh(states.features + (hidden @ ap.weight.data[:, H.shape[1]:].T)[:, None, :])
    attn = softmax_rows(t @ ap.score.data)
    context = attn @ H
    new_h, new_c, lstm_cache = lstm_forward(
        params.decoder, np.concatenate([emb, context, hidden], axis=1), state[:, d_s:])
    return ((emb, attn, context, np.concatenate([new_h, new_c], axis=1)),
            (params, states, emb_ids, hidden, t, attn, lstm_cache))


def recur_backward(cache, g_emb, g_hidden, g_context, g_attn, g_state):
    """Gradients of ``recur_forward`` for the output layer's d emb, d hidden,
    d context and d attn (``output_backward``'s results) and d next state.
    Accumulates the gradients of the decoder cell, the embedding and the
    attention, the features' share of W_H and b included; returns
    (d incoming state, d H)."""
    params, states, emb_ids, hidden, t, attn, lstm_cache = cache
    d_s, e, width = params.dims.d_s, params.dims.d_emb, states.H.shape[1]
    ap, H = params.attention, states.H
    g_z, g_cell = lstm_backward(lstm_cache, g_hidden + g_state[:, :d_s], g_state[:, d_s:])
    np.add.at(params.embedding.grad, emb_ids, g_emb + g_z[:, :e])
    g_context = g_context + g_z[:, e:e + width]
    # context = attn @ H, attn = softmax(tanh(features + W_s h) @ score)
    g_attn = g_attn + g_context @ H.T
    g_scores = attn * (g_attn - (g_attn * attn).sum(axis=1, keepdims=True))
    ap.score.grad += np.einsum("bn,bna->a", g_scores, t)
    g_pre = g_scores[:, :, None] * ap.score.data * (1.0 - t * t)
    g_features, g_hs = g_pre.sum(axis=0), g_pre.sum(axis=1)
    ap.weight.grad[:, width:] += outer_sum(g_hs, hidden)
    ap.weight.grad[:, :width] += g_features.T @ H
    ap.bias.grad += g_features.sum(axis=0)
    g_H = attn.T @ g_context + g_features @ ap.weight.data[:, :width]
    g_h = g_z[:, e + width:] + g_hs @ ap.weight.data[:, width:]
    return np.concatenate([g_h, g_cell], axis=1), g_H


def step_forward(prev_ids, ev, states, state, params, force_p_gen=None):
    """One decoder step for B rows: ``recur_forward``, then ``output_forward``
    on its rows; force_p_gen overrides the learned gate for ablations.
    Returns (StepOutputs, (recurrence cache, output cache))."""
    (emb, attn, context, new_state), recur_cache = recur_forward(prev_ids, states, state, params)
    (p, p_vocab, p_copy, p_gen), out_cache = output_forward(
        emb, new_state[:, :params.dims.d_s], context, attn, ev.source_ids, ev.size, params,
        force_p_gen)
    return (StepOutputs(attn, context, p_vocab, p_copy, p_gen, p, new_state),
            (recur_cache, out_cache))


def teacher_forced(prev_ids, ev, states, state, params, force_p_gen=None):
    """Decode with the given previous ids (teacher forcing), one row a step:
    ``recur_forward`` step by step from ``state`` (1 x 2*d_s), then one
    ``output_forward`` over every step's row, since no later step reads the
    output layer. Returns ((p, p_vocab, p_copy, p_gen), cache), a row per id."""
    rows, caches = [], []
    for prev in prev_ids:
        (emb, attn, context, state), cache = recur_forward([prev], states, state, params)
        rows.append((emb, state[:, :params.dims.d_s], context, attn))
        caches.append(cache)
    emb, hidden, context, attn = (np.concatenate(column) for column in zip(*rows))
    outputs, out_cache = output_forward(emb, hidden, context, attn, ev.source_ids, ev.size,
                                        params, force_p_gen)
    return outputs, (params, states, caches, out_cache)


def teacher_forced_backward(cache, g_p):
    """Gradients of ``teacher_forced`` (learned gate) for d p, a row per step:
    one ``output_backward`` over every row, then ``recur_backward`` step by
    step in reverse. Accumulates every decoder parameter gradient; returns
    (d initial state, d H)."""
    params, states, caches, out_cache = cache
    g_emb, g_hidden, g_context, g_attn = output_backward(out_cache, g_p)
    g_state, g_H = np.zeros((1, 2 * params.dims.d_s)), np.zeros_like(states.H)
    for t in reversed(range(len(caches))):
        r = slice(t, t + 1)
        g_state, g_step_H = recur_backward(caches[t], g_emb[r], g_hidden[r], g_context[r],
                                           g_attn[r], g_state)
        g_H += g_step_H
    return g_state, g_H
