"""The decoder step in numpy, on B rows at once: attention, LSTM update,
vocabulary softmax, copy distribution, generation gate and their mixture.

Training and decoding share one step, its rows attending over the padded
sources of an ``EncoderStates``. ``recur_forward`` (attention and the LSTM
update) carries the state; ``step_forward`` runs it once, with the output
layer, for decoding, and ``recur_forced`` over T steps, the embedding third
of the gates one product for all. The output layer reads a
step's rows. Its vocabulary half (``vocab_forward``) has independent rows,
always V wide, so training runs it once per batch on the real rows; its copy
half (``copy_distribution``, ``mix``) reads each row's source. Going back,
``output_backward`` reads only each row's gold column, ``recur_backward``
carries the state one step, and ``recur_grads`` forms each parameter
gradient once over every step.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .layers import (accumulate_gates, lstm_cell, lstm_cell_backward, row_product, sigmoid,
                     softmax_rows)

PROJECTION_BLOCK = 256  # vocabulary rows per product of the projection's weight gradient


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
    one gate value per row; the extended ids draw only on the copy branch. A
    gate outside [0, 1] is a NumericalError if not finite, else a ValidationError."""
    if not np.all((p_gen >= 0.0) & (p_gen <= 1.0)):
        error = ValidationError if np.isfinite(p_gen).all() else NumericalError
        raise error(f"mix: p_gen {p_gen} outside [0, 1]")
    out = p_copy * (1.0 - p_gen)[:, None]
    out[:, :p_vocab.shape[1]] += p_vocab * p_gen[:, None]
    return out


def vocab_forward(emb, hidden, context, params, force_p_gen=None):
    """The vocabulary half of the output layer on R rows: softmax(W [hidden,
    context] + b), in place over the logits, and the gate sigmoid(w . [emb,
    hidden, context] + b) or force_p_gen. Returns ((p_vocab, p_gen), cache)."""
    pp, gp = params.projection, params.copy_gate
    z_p = np.concatenate([hidden, context], axis=1)
    z_g = np.concatenate([emb, z_p], axis=1)
    logits = z_p @ pp.weight.data.T
    logits += pp.bias.data
    p_vocab = softmax_rows(logits, out=logits)
    if force_p_gen is None:
        # a dot product per row, so a row's gate does not depend on R
        p_gen = sigmoid(np.einsum("bk,k->b", z_g, gp.weight.data) + gp.bias.data)
    else:
        p_gen = np.full(len(z_g), float(force_p_gen))
    return (p_vocab, p_gen), (params, z_p, z_g, p_vocab, p_gen)


def output_forward(emb, hidden, context, attn, source_ids, size, params, force_p_gen=None):
    """The output layer on B rows of one source: ``vocab_forward``, the copy
    scatter of ``attn`` and the mixture. Returns ((p, p_vocab, p_copy, p_gen),
    ``vocab_forward``'s cache)."""
    (p_vocab, p_gen), cache = vocab_forward(emb, hidden, context, params, force_p_gen)
    p_copy = copy_distribution(attn, source_ids, size)
    return (mix(p_vocab, p_copy, p_gen), p_vocab, p_copy, p_gen), cache


def output_backward(cache, gold, g_gold, p_copy_gold):
    """Gradients of the output layer (learned gate) on R rows whose d p is
    ``g_gold`` at extended id ``gold`` (an int array) and zero elsewhere, as
    under an NLL. Writes d logits over the cache's p_vocab, and adds the
    projection's weight gradient PROJECTION_BLOCK rows at a time. Returns
    (d emb, d hidden, d context, d copy), d copy being each row's d attn at
    every source position that holds its gold id."""
    params, z_p, z_g, g_logits, p_gen = cache
    pp, gp = params.projection, params.copy_gate
    e, s, v = params.dims.d_emb, params.dims.d_s, g_logits.shape[1]
    rows, fixed = np.arange(len(gold)), gold < v
    cols = np.where(fixed, gold, 0)  # an id past V has no p_vocab column: its zero p_gold
    p_gold = np.where(fixed, g_logits[rows, cols], 0.0)  # zeroes its whole d logits row
    g_vocab = g_gold * p_gen  # d p_vocab at gold
    g_dot = g_vocab * p_gold
    g_logits *= -g_dot[:, None]  # d logits = p_vocab * (d p_vocab - d p_vocab . p_vocab)
    g_logits[rows, cols] = p_gold * (g_vocab - g_dot)
    pp.bias.grad += g_logits.sum(axis=0)
    block = np.empty((min(PROJECTION_BLOCK, v), z_p.shape[1]))
    for start in range(0, v, PROJECTION_BLOCK):
        g_block = g_logits[:, start:start + PROJECTION_BLOCK]
        pp.weight.grad[start:start + PROJECTION_BLOCK] += np.matmul(
            g_block.T, z_p, out=block[:g_block.shape[1]])
    g_pre = (g_gold * p_gold - g_gold * p_copy_gold) * p_gen * (1.0 - p_gen)
    gp.weight.grad += g_pre @ z_g
    gp.bias.grad += g_pre.sum()
    g_zp = g_logits @ pp.weight.data
    g_zg = g_pre[:, None] * gp.weight.data
    return (g_zg[:, :e], g_zp[:, :s] + g_zg[:, e:e + s], g_zp[:, s:] + g_zg[:, e + s:],
            g_gold * (1.0 - p_gen))


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


def recur_forward(emb_ids, emb, x, states, state, params):
    """The recurrence half of a step for B rows of previous embeddings and
    their gate term x = emb·W_eᵀ + b: attend with the state (B x 2*d_s), a pad
    weighing exactly 0, then update the LSTM. ((attn, context, state), cache)"""
    d_s, e = params.dims.d_s, emb.shape[1]
    H, ap, hidden = states.H, params.attention, state[:, :d_s]
    width = H.shape[2]
    t = np.tanh(states.features + row_product(hidden, ap.weight.data[:, width:].T)[:, None, :])
    attn = softmax_rows(np.where(states.valid, (t * ap.score.data).sum(axis=2), -np.inf))
    context = (attn[:, :, None] * H).sum(axis=1)
    z = np.concatenate([context, hidden], axis=1)
    new_h, new_c, lstm_cache = lstm_cell(x + row_product(z, states.gates[2][e:]), state[:, d_s:])
    return ((attn, context, np.concatenate([new_h, new_c], axis=1)),
            (params, states, emb_ids, emb, z, t, attn, lstm_cache))


def recur_backward(cache, g_emb, g_hidden, g_context, g_attn, g_state):
    """Gradients of ``recur_forward`` for the output layer's d emb, d hidden,
    d context, d attn and for d next state: (d incoming state, pieces), with
    every parameter gradient (the gates' share of d emb too) left to ``recur_grads``."""
    params, states, emb_ids, emb, z, t, attn, lstm_cache = cache
    d_s, width, H = params.dims.d_s, states.H.shape[2], states.H
    d_pre, g_cell = lstm_cell_backward(lstm_cache, g_hidden + g_state[:, :d_s], g_state[:, d_s:])
    g_z = row_product(d_pre, states.gates[0][:, emb.shape[1]:])
    g_context = g_context + g_z[:, :width]
    # context = attn @ H, attn = softmax(tanh(features + W_s h) @ score)
    g_attn = g_attn + (H * g_context[:, None, :]).sum(axis=2)
    g_scores = attn * (g_attn - (g_attn * attn).sum(axis=1, keepdims=True))
    u = params.attention.score.data * (1.0 - t * t)
    g_pre = g_scores[:, :, None] * u
    u_mean = (attn[:, :, None] * u).sum(axis=1, keepdims=True)
    g_row = (g_scores[:, :, None] * (u - u_mean)).sum(axis=1)  # g_pre's would nearly cancel
    g_h = g_z[:, width:] + row_product(g_row, params.attention.weight.data[:, width:])
    return (np.concatenate([g_h, g_cell], axis=1),
            (emb_ids, emb, z, t, attn, d_pre, g_emb, g_context, g_scores, g_pre, g_row))


def recur_grads(params, states, pieces):
    """Add the parameter gradients of steps' ``recur_backward`` pieces, each
    one product or scatter over all rows: the decoder cell's, the embedding's
    and the attention's (with the features' W_H and b). Returns d H."""
    emb_ids, emb, Z, T, attn, D, g_emb, g_context, g_scores, g_pre, g_row = (
        np.concatenate(column) for column in zip(*pieces))
    ap, H, (W, _, _) = params.attention, states.H, states.gates
    (s, n, width), e, d_a = H.shape, emb.shape[1], T.shape[2]
    accumulate_gates(params.decoder, D, np.concatenate([emb, Z], axis=1))
    np.add.at(params.embedding.grad, emb_ids, g_emb + D @ W[:, :e])
    ap.score.grad += g_scores.reshape(-1) @ T.reshape(-1, d_a)
    ap.weight.grad[:, width:] += g_row.T @ Z[:, width:]
    ap.bias.grad += g_row.reshape(-1, s, d_a).sum(axis=0).sum(axis=0)  # source by source
    g_features = g_pre.reshape(-1, s, n, d_a).sum(axis=0)  # row r reads source r % S
    ap.weight.grad[:, :width] += g_features.reshape(-1, d_a).T @ H.reshape(-1, width)
    g_H = attn.reshape(-1, s, n).transpose(1, 2, 0) @ g_context.reshape(-1, s, width).swapaxes(0, 1)
    return g_H + g_features @ ap.weight.data[:, :width]


def step_forward(prev_ids, ev, states, state, params, force_p_gen=None):
    """One decoder step for B rows fed ``prev_ids``, ``recur_forward`` then
    ``output_forward`` (force_p_gen overrides the gate):
    (StepOutputs, (recur cache, output cache))."""
    emb_ids, emb, x = _gate_inputs(prev_ids, states, params)
    (attn, context, new_state), recur_cache = recur_forward(emb_ids, emb, x, states, state, params)
    (p, p_vocab, p_copy, p_gen), out_cache = output_forward(
        emb, new_state[:, :params.dims.d_s], context, attn, ev.source_ids, ev.size, params,
        force_p_gen)
    return (StepOutputs(attn, context, p_vocab, p_copy, p_gen, p, new_state),
            (recur_cache, out_cache))


def _gate_inputs(prev_ids, states, params):
    """For previous ids of any shape: the embedding row each reads
    (``embedding_rows``), those rows, and their gate term emb·W_eᵀ + b, one
    product for all."""
    prev_ids = np.asarray(prev_ids, dtype=np.intp)
    if prev_ids.size and prev_ids.min() < 0:
        raise ValidationError(f"step: negative previous id in {prev_ids}")
    emb_ids = params.embedding_rows(prev_ids)
    emb = params.embedding.data[emb_ids]
    e, (_, b, W_T) = emb.shape[-1], states.gates
    x = row_product(emb.reshape(-1, e), W_T[:e]) + b
    return emb_ids, emb, x.reshape(*prev_ids.shape, -1)


def recur_forced(prev_ids, states, state, params):
    """``recur_forward`` over T steps from ``state`` (B x 2*d_s), row b fed the
    ids prev_ids[b] (B x T, read by ``embedding_rows``), all gate terms in one
    product: ((emb, hidden, context, attn) each B x T x ..., last state, caches)."""
    emb_ids, emb, x = _gate_inputs(prev_ids, states, params)
    rows, caches = [], []
    for t in range(emb_ids.shape[1]):
        (attn, context, state), cache = recur_forward(emb_ids[:, t], emb[:, t], x[:, t], states,
                                                      state, params)
        rows.append((state[:, :params.dims.d_s], context, attn))
        caches.append(cache)
    return (emb, *(np.stack(column, axis=1) for column in zip(*rows))), state, caches
