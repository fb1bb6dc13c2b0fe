"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the most direct style possible
(scalar loops, dense matrices, exhaustive enumeration) and shares no code
with the library beyond numpy itself, except where a docstring says so.
"""

import math

import numpy as np


def softmax_highprec(x):
    """Exp-normalize evaluated at extended precision, rounded back to f64."""
    x = np.asarray(x, dtype=np.longdouble)
    e = np.exp(x - x.max())
    return (e / e.sum()).astype(np.float64)


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def two_branch_sigmoid(x):
    """layers.sigmoid as first written: both branches of the np.where are
    computed, each with its own division."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm_step_scalar(w, x, h, c):
    """One LSTM cell step with pure-Python loops.

    ``w`` maps gate name (i, f, g, o) to (weight 2-D list-like, bias) where
    weight columns cover [x, h] concatenated.
    """
    z = list(x) + list(h)
    d_h = len(h)

    def affine(gate, r):
        weight, bias = w[gate]
        s = float(bias[r])
        for col, zc in enumerate(z):
            s += float(weight[r][col]) * zc
        return s

    h2, c2 = [], []
    for r in range(d_h):
        gi = sigmoid_scalar(affine("i", r))
        gf = sigmoid_scalar(affine("f", r))
        gg = math.tanh(affine("g", r))
        go = sigmoid_scalar(affine("o", r))
        c_new = gf * c[r] + gi * gg
        c2.append(c_new)
        h2.append(go * math.tanh(c_new))
    return h2, c2


def cell_arrays(cell):
    return {gate: (getattr(cell, f"w_{gate}").data, getattr(cell, f"b_{gate}").data)
            for gate in ("i", "f", "g", "o")}


def model_arrays(params):
    """Copy every weight of a model into plain numpy arrays."""
    return {name: p.data.copy() for name, p in params.named_parameters()}


def _lstm_np(w, prefix, x, h, c):
    z = np.concatenate([x, h])
    gi = _sig_np(w[f"{prefix}.w_i"] @ z + w[f"{prefix}.b_i"])
    gf = _sig_np(w[f"{prefix}.w_f"] @ z + w[f"{prefix}.b_f"])
    gg = np.tanh(w[f"{prefix}.w_g"] @ z + w[f"{prefix}.b_g"])
    go = _sig_np(w[f"{prefix}.w_o"] @ z + w[f"{prefix}.b_o"])
    c2 = gf * c + gi * gg
    return go * np.tanh(c2), c2


def _sig_np(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def _softmax_np(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def straight_line_encode(w, emb_ids, d_h):
    """Bidirectional encoder transcription; returns (H, h_final)."""
    E = w["embedding"]
    n = len(emb_ids)
    hf = np.zeros(d_h)
    cf = np.zeros(d_h)
    fwd = [None] * n
    for i in range(n):
        hf, cf = _lstm_np(w, "encoder_fwd", E[emb_ids[i]], hf, cf)
        fwd[i] = hf
    hb = np.zeros(d_h)
    cb = np.zeros(d_h)
    bwd = [None] * n
    for i in range(n - 1, -1, -1):
        hb, cb = _lstm_np(w, "encoder_bwd", E[emb_ids[i]], hb, cb)
        bwd[i] = hb
    H = np.stack([np.concatenate([fwd[i], bwd[i]]) for i in range(n)])
    return H, np.concatenate([fwd[-1], bwd[0]])


def straight_line_step(w, H, source_ids, ext_size, prev_emb, s_h, s_c, force_p_gen=None):
    """One decoder step transcribed directly from the model definition.

    Attention scores against the incoming state, state update on
    [prev word, context], vocabulary projection, attention-scatter copy
    distribution, sigmoid gate (or the forced value), convex mixture.
    """
    n = H.shape[0]
    scores = np.array([
        w["attention.score"] @ np.tanh(
            w["attention.weight"] @ np.concatenate([H[i], s_h]) + w["attention.bias"])
        for i in range(n)])
    a = _softmax_np(scores)
    context = np.zeros(H.shape[1])
    for i in range(n):
        context = context + a[i] * H[i]

    x = np.concatenate([prev_emb, context])
    h2, c2 = _lstm_np(w, "decoder", x, s_h, s_c)

    p_vocab = _softmax_np(w["projection.weight"] @ np.concatenate([h2, context])
                          + w["projection.bias"])
    p_copy = np.zeros(ext_size)
    for pos, idx in enumerate(source_ids):
        p_copy[idx] += a[pos]
    p_gen = force_p_gen if force_p_gen is not None else sigmoid_scalar(float(
        w["copy_gate.weight"] @ np.concatenate([prev_emb, h2, context])
        + w["copy_gate.bias"]))

    padded = np.zeros(ext_size)
    padded[:p_vocab.shape[0]] = p_vocab
    p_final = p_gen * padded + (1.0 - p_gen) * p_copy
    return {"scores": scores, "attn": a, "context": context, "h": h2, "c": c2,
            "p_vocab": p_vocab, "p_copy": p_copy, "p_gen": p_gen, "p": p_final}


def _straight_line_start(params, vocab, src_tokens):
    """Weights, extended source ids and vocabulary, encoder states H and the
    bridged initial decoder state."""
    from paragen.vocab import UNK, ExtendedVocab

    w = model_arrays(params)
    ev = ExtendedVocab(vocab, src_tokens)
    src_ids = ev.source_ids
    emb_ids = [i if i < vocab.size else UNK for i in src_ids]
    H, h_final = straight_line_encode(w, emb_ids, params.dims.d_h)
    s_h = np.tanh(w["bridge_hidden"] @ h_final)
    s_c = np.tanh(w["bridge_cell"] @ h_final)
    return w, src_ids, ev, H, s_h, s_c


def straight_line_sequence_nll(params, vocab, src_tokens, tgt_tokens):
    """Full teacher-forced mean NLL transcription, encoder included."""
    from paragen.vocab import BOS, EOS, UNK, encode_target

    w, src_ids, ev, H, s_h, s_c = _straight_line_start(params, vocab, src_tokens)
    gold = encode_target(tgt_tokens, ev) + [EOS]
    prev = BOS
    total = 0.0
    for gold_id in gold:
        prev_emb = w["embedding"][prev if prev < vocab.size else UNK]
        out = straight_line_step(w, H, src_ids, ev.size, prev_emb, s_h, s_c)
        total += -math.log(max(out["p"][gold_id], 1e-12))
        s_h, s_c = out["h"], out["c"]
        prev = gold_id
    return total / len(gold)


def straight_line_greedy(params, vocab, src_tokens, max_len):
    """Argmax decoding transcription: feed back the most probable extended id
    (lowest id on ties) until EOS or max_len steps; returns the surface tokens
    with the reserved ids dropped."""
    from paragen.vocab import BOS, EOS, PAD, UNK

    w, src_ids, ev, H, s_h, s_c = _straight_line_start(params, vocab, src_tokens)
    out = []
    prev = BOS
    for _ in range(max_len):
        prev_emb = w["embedding"][prev if prev < vocab.size else UNK]
        step = straight_line_step(w, H, src_ids, ev.size, prev_emb, s_h, s_c)
        prev = int(np.argmax(step["p"]))
        if prev == EOS:
            break
        out.append(prev)
        s_h, s_c = step["h"], step["c"]
    return [ev.token(i) for i in out if i not in (PAD, BOS)]


def per_hypothesis_beam(params, vocab, src_tokens, width, max_len, length_norm,
                        force_p_gen=None):
    """Beam search as the decoder ran it before its B-row step, one
    straight-line step per live hypothesis: the full np.log of the clamped
    distribution, the first ``width`` ids of a stable argsort of its
    negation, then every hypothesis's candidates sorted together by
    (-log_prob, ids) and cut to ``width``. Returns (ids, log_prob) pairs
    ranked by length-normalized score, then ids."""
    from paragen.vocab import BOS, EOS, UNK

    w, src_ids, ev, H, s_h, s_c = _straight_line_start(params, vocab, src_tokens)
    live = [((), 0.0, (s_h, s_c))]
    pool = []
    for _ in range(max_len):
        if not live or len(pool) >= width:
            break
        candidates = []
        for ids, log_prob, (h, c) in live:
            prev = ids[-1] if ids else BOS
            step = straight_line_step(w, H, src_ids, ev.size,
                                      w["embedding"][prev if prev < vocab.size else UNK],
                                      h, c, force_p_gen)
            logp = np.log(np.maximum(step["p"], 1e-12))
            for idx in np.argsort(-logp, kind="stable")[:width]:
                candidates.append((ids + (int(idx),), log_prob + float(logp[idx]),
                                   (step["h"], step["c"])))
        candidates.sort(key=lambda cand: (-cand[1], cand[0]))
        live = []
        for cand in candidates[:width]:
            (pool if cand[0][-1] == EOS else live).append(cand)
    if len(pool) < width:
        pool.extend(live)
    ranked = sorted(pool, key=lambda cand: (-cand[1] / max(len(cand[0]), 1) ** length_norm,
                                            cand[0]))
    return [(ids, log_prob) for ids, log_prob, _ in ranked]


def four_product_lstm_forward(cell, z, c):
    """The LSTM cell as the library ran it before its gates were stacked: one
    product per gate on B rows of z = [x, h]. Returns (h', c', cache), the
    cache in ``lstm_cell``'s form (c, i, f, g, o, tanh c')."""
    gi = _sig_np(z @ cell.w_i.data.T + cell.b_i.data)
    gf = _sig_np(z @ cell.w_f.data.T + cell.b_f.data)
    gg = np.tanh(z @ cell.w_g.data.T + cell.b_g.data)
    go = _sig_np(z @ cell.w_o.data.T + cell.b_o.data)
    c_new = gf * c + gi * gg
    tc = np.tanh(c_new)
    return go * tc, c_new, (c, gi, gf, gg, go, tc)


def four_product_lstm_backward(cell, z, cache, g_h, g_c):
    """The cell's backward before its gates were stacked, for the cell inputs
    z and an ``lstm_cell`` cache: per gate, adds one einsum outer product
    and one bias sum into the cell's gradients, and one product into d z.
    Returns (d z, d c)."""
    c, gi, gf, gg, go, tc = cache
    d_c = g_h * go * (1.0 - tc * tc) + g_c
    d_pre = {"i": d_c * gg * gi * (1.0 - gi), "f": d_c * c * gf * (1.0 - gf),
             "g": d_c * gi * (1.0 - gg * gg), "o": g_h * tc * go * (1.0 - go)}
    d_z = 0.0
    for gate, d in d_pre.items():
        getattr(cell, f"w_{gate}").grad += np.einsum("bi,bj->ij", d, z)
        getattr(cell, f"b_{gate}").grad += d.sum(axis=0)
        d_z = d_z + d @ getattr(cell, f"w_{gate}").data
    return d_z, d_c * gf


def per_step_encode(embeddings, fwd, bwd):
    """``model.encode`` of one source as it ran before the input half of the
    gates was hoisted: ``four_product_lstm_forward`` on one row [x_i, h] per
    token. Returns (H, h_final, cache), the cache in ``one_row_encode``'s form."""
    n, d_emb = embeddings.shape

    def run(cell, order):
        d_h = cell.w_i.data.shape[0]
        h = c = np.zeros((1, d_h))
        Z, states, caches = np.zeros((n, d_emb + d_h)), np.zeros((n, d_h)), [None] * n
        for i in order:
            Z[i] = np.concatenate([embeddings[i], h[0]])
            h, c, caches[i] = four_product_lstm_forward(cell, Z[i:i + 1], c)
            states[i] = h[0]
        return states, (cell, None, Z, order, caches)

    fwd_states, fwd_cache = run(fwd, range(n))
    bwd_states, bwd_cache = run(bwd, range(n - 1, -1, -1))
    return (np.concatenate([fwd_states, bwd_states], axis=1),
            np.concatenate([fwd_states[-1], bwd_states[0]]), (fwd_cache, bwd_cache))


def per_step_encode_backward(cache, g_H, g_final):
    """``one_row_encode_backward`` as it ran before: ``four_product_lstm_backward``
    step by step, each step adding into the weight gradients and its row of
    d embeddings. Reads a cache of either encoder; returns d embeddings."""
    d_h = g_H.shape[1] // 2
    d_emb = cache[0][2].shape[1] - d_h  # Z holds the rows [x, h]
    g_emb = np.zeros((g_H.shape[0], d_emb))
    for (cell, _, Z, order, caches), cols in zip(cache, (slice(0, d_h), slice(d_h, None))):
        g_h, g_c = g_final[cols], np.zeros((1, d_h))
        for i in reversed(order):
            g_z, g_c = four_product_lstm_backward(cell, Z[i:i + 1], caches[i],
                                                  (g_H[i, cols] + g_h)[None], g_c)
            g_emb[i] += g_z[0, :d_emb]
            g_h = g_z[0, d_emb:]
    return g_emb


def one_row_encode(embeddings, fwd, bwd):
    """``model.encode`` of one unpadded source (N x d_emb) as it ran before
    sources were batched: each direction in turn, one row [x_i, h] per step
    through the cell's stacked gates, the input half hoisted. Returns
    (H, h_final, cache), the cache in ``per_step_encode``'s form."""
    from paragen.layers import lstm_cell, stack_gates

    n, d_emb = embeddings.shape
    if n < 1:
        raise ValueError("one_row_encode: empty source")

    def run(cell, order):
        W, b = stack_gates(cell)
        X, W_hT = embeddings @ W[:, :d_emb].T + b, W[:, d_emb:].T
        Z = np.concatenate([embeddings, np.zeros((n, W_hT.shape[0]))], axis=1)  # steps' [x, h]
        h = c = np.zeros((1, W_hT.shape[0]))
        states, caches = [None] * n, [None] * n
        for i in order:
            Z[i, d_emb:] = h[0]
            h, c, caches[i] = lstm_cell(X[i:i + 1] + h @ W_hT, c)
            states[i] = h[0]
        return states, (cell, W, Z, order, caches)

    fwd_states, fwd_cache = run(fwd, range(n))
    bwd_states, bwd_cache = run(bwd, range(n - 1, -1, -1))
    H = np.concatenate([np.stack(fwd_states), np.stack(bwd_states)], axis=1)
    h_final = np.concatenate([fwd_states[-1], bwd_states[0]])
    return H, h_final, (fwd_cache, bwd_cache)


def one_row_encode_backward(cache, g_H, g_final):
    """``model.encode_backward`` of ``one_row_encode``: per direction, the
    steps one row at a time in reverse, then one ``accumulate_gates`` over
    every step's d pre and one product for the embeddings' share. Returns
    d embeddings (N x d_emb)."""
    from paragen.layers import accumulate_gates, lstm_cell_backward

    d_h, g_emb = g_H.shape[1] // 2, 0.0
    for (cell, W, Z, order, caches), cols in zip(cache, (slice(0, d_h), slice(d_h, None))):
        D, g_h, g_c = np.empty((len(caches), 4 * d_h)), g_final[None, cols], np.zeros((1, d_h))
        for i in reversed(order):  # the last step's h also feeds h_final
            d_pre, g_c = lstm_cell_backward(caches[i], g_H[i:i + 1, cols] + g_h, g_c)
            D[i], g_h = d_pre[0], d_pre @ W[:, -d_h:]
        accumulate_gates(cell, D, Z)
        g_emb = g_emb + D @ W[:, :-d_h]
    return g_emb


def one_source(tokens, params, vocab):
    """``model.prepare_source`` of one source as it ran before sources were
    batched: ``one_row_encode`` of its embedded extended ids, the states as a
    source axis of one (``model.source_states``), the bridge on one row.
    Returns (ExtendedVocab, EncoderStates, initial state (1 x 2*d_s), cache)."""
    from paragen.model import source_states
    from paragen.vocab import ExtendedVocab

    ev = ExtendedVocab(vocab, tokens)
    emb_ids = params.embedding_rows(ev.source_ids)
    H, h_final, cache = one_row_encode(params.embedding.data[emb_ids],
                                       params.encoder_fwd, params.encoder_bwd)
    state = np.tanh(np.concatenate([params.bridge_hidden.data @ h_final,
                                    params.bridge_cell.data @ h_final]))[None]
    states = source_states(params, H[None], np.ones((1, len(emb_ids)), dtype=bool), h_final[None])
    return ev, states, state, (emb_ids, cache)


def one_source_backward(params, cache, states, state, g_H, g_state):
    """``model.source_backward`` of ``one_source``: the bridge's gradients
    on one row, then ``one_row_encode_backward`` and the embedding scatter."""
    emb_ids, encode_cache = cache
    d_s = params.dims.d_s
    g_pre = g_state[0] * (1.0 - state[0] * state[0])
    g_hidden, g_cell = g_pre[:d_s], g_pre[d_s:]
    h_final = states.h_final[0]
    params.bridge_hidden.grad += np.outer(g_hidden, h_final)
    params.bridge_cell.grad += np.outer(g_cell, h_final)
    g_final = g_hidden @ params.bridge_hidden.data + g_cell @ params.bridge_cell.data
    g_emb = one_row_encode_backward(encode_cache, g_H[0], g_final)
    np.add.at(params.embedding.grad, emb_ids, g_emb)


def recur_sequence(prev_ids, states, state, params):
    """``pointer.recur_forced`` one step at a time over the given previous
    ids (teacher forcing), one row a step from ``state`` (1 x 2*d_s). Returns
    ((emb, hidden, context, attn), caches), a row and a cache per id."""
    from paragen.pointer import recur_forced

    rows, caches = [], []
    for prev in prev_ids:
        steps, state, (cache,) = recur_forced([[prev]], states, state, params)
        rows.append(tuple(column[:, 0] for column in steps))
        caches.append(cache)
    return tuple(np.concatenate(column) for column in zip(*rows)), caches


def per_pair_teacher_forced(pairs, params, vocab):
    """``training._teacher_forced`` as it ran before a batch became one
    padded recurrence: per pair, ``one_source`` and ``recur_sequence``; the
    vocabulary half of the output layer once over every pair's rows, the
    copy half per pair; going back, per pair, ``recur_backward`` one row a
    step, ``recur_grads`` and ``one_source_backward``. The decoder step,
    the output layer and their backwards are the library's, at one source.
    Returns (loss node, each pair's mean NLL, greedy-match count, gold ids,
    their gates)."""
    import paragen.autograd as ag
    from paragen.layers import LOG_FLOOR
    from paragen.pointer import (copy_distribution, mix, output_backward, recur_backward,
                                 recur_grads, vocab_forward)
    from paragen.vocab import BOS, EOS, encode_target

    seqs = []
    for src, tgt in pairs:
        ev, states, state0, encoder_cache = one_source(src, params, vocab)
        gold = np.array(encode_target(tgt, ev) + [EOS])
        seqs.append((ev, states, state0, encoder_cache, gold,
                     *recur_sequence([BOS, *gold[:-1]], states, state0, params)))
    lengths = [len(gold) for *_, gold, _, _ in seqs]
    ends = np.cumsum(lengths)[:-1]  # each pair's rows end here
    (p_vocab, p_gen), vocab_cache = vocab_forward(
        *(np.concatenate(column) for column in zip(*(rows[:3] for *_, rows, _ in seqs))), params)
    p_gold, p_copy_gold, correct = [], [], 0
    for (ev, *_, gold, (*_, attn), _), rows_p_vocab, rows_p_gen in zip(
            seqs, np.split(p_vocab, ends), np.split(p_gen, ends)):
        p_copy = copy_distribution(attn, ev.source_ids, ev.size)
        p = mix(rows_p_vocab, p_copy, rows_p_gen)
        correct += int((np.argmax(p, axis=1) == gold).sum())
        p_gold.append(p[np.arange(len(gold)), gold])
        p_copy_gold.append(p_copy[np.arange(len(gold)), gold])
    golds = np.concatenate([gold for *_, gold, _, _ in seqs])
    p_gold, p_copy_gold = np.concatenate(p_gold), np.concatenate(p_copy_gold)
    nlls = [np.cumsum(terms)[-1] * (1.0 / len(terms))
            for terms in np.split(-np.log(np.maximum(p_gold, LOG_FLOOR)), ends)]

    def back(g):
        g_nll = np.repeat([g * (1.0 / n) for n in lengths], lengths)
        g_gold = np.divide(-g_nll, p_gold, out=np.zeros_like(p_gold), where=p_gold > LOG_FLOOR)
        outputs = output_backward(vocab_cache, golds, g_gold, p_copy_gold)
        for (ev, states, state0, encoder_cache, gold, _, caches), *g_rows, g_copy in zip(
                seqs, *(np.split(g_out, ends) for g_out in outputs)):
            g_rows.append(np.where(np.equal.outer(gold, ev.source_ids), g_copy[:, None], 0.0))
            g_state, pieces = np.zeros((1, 2 * params.dims.d_s)), [None] * len(caches)
            for t in reversed(range(len(caches))):
                g_state, pieces[t] = recur_backward(caches[t], *(g[t:t + 1] for g in g_rows),
                                                    g_state)
            one_source_backward(params, encoder_cache, states, state0,
                                recur_grads(params, states, pieces), g_state)

    total = 0.0
    for nll in nlls:  # in pair order, as the library adds them
        total = total + nll
    return (ag._node(total, back), [float(nll) for nll in nlls], correct, golds.tolist(),
            p_gen.tolist())


def accumulating_recur_backward(cache, g_emb, g_hidden, g_context, g_attn, g_state):
    """``pointer.recur_backward`` as it ran before its parameter gradients
    were deferred: the step adds its own decoder-cell (per gate), embedding
    and attention gradients. Returns (d incoming state, d H)."""
    params, states, emb_ids, emb, z, t, attn, lstm_cache = cache
    d_s, e, width = params.dims.d_s, params.dims.d_emb, states.H.shape[2]
    ap, H, hidden = params.attention, states.H[0], z[:, -d_s:]
    z = np.concatenate([emb, z], axis=1)
    g_z, g_cell = four_product_lstm_backward(params.decoder, z, lstm_cache,
                                             g_hidden + g_state[:, :d_s], g_state[:, d_s:])
    np.add.at(params.embedding.grad, emb_ids, g_emb + g_z[:, :e])
    g_context = g_context + g_z[:, e:e + width]
    g_attn = g_attn + g_context @ H.T
    g_scores = attn * (g_attn - (g_attn * attn).sum(axis=1, keepdims=True))
    ap.score.grad += np.einsum("bn,bna->a", g_scores, t)
    g_pre = g_scores[:, :, None] * ap.score.data * (1.0 - t * t)
    g_features, g_hs = g_pre.sum(axis=0), g_pre.sum(axis=1)
    ap.weight.grad[:, width:] += np.einsum("bi,bj->ij", g_hs, hidden)
    ap.weight.grad[:, :width] += g_features.T @ H
    ap.bias.grad += g_features.sum(axis=0)
    g_H = attn.T @ g_context + g_features @ ap.weight.data[:, :width]
    g_h = g_z[:, e + width:] + g_hs @ ap.weight.data[:, width:]
    return np.concatenate([g_h, g_cell], axis=1), g_H


def dense_output_backward(cache, p_copy, source_ids, g_p):
    """``pointer.output_backward`` as it ran before it read only the gold
    column: gradients of ``output_forward`` (learned gate, its ``cache``,
    ``p_copy`` and ``source_ids``) for a dense d p (B x size). Accumulates
    the projection and gate gradients, the projection's weight as one
    product over all rows; returns (d emb, d hidden, d context, d attn)."""
    params, z_p, z_g, p_vocab, p_gen = cache
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


def per_step_sequence_loss(params, vocab, src_tokens, tgt_tokens):
    """Teacher-forced training on one pair as it ran before the output layer
    ran once per sequence and before the gate gradients were deferred: one
    whole step_forward per gold token, then, per step in reverse, that
    step's ``dense_output_backward`` and ``accumulating_recur_backward``, then the
    bridge and ``per_step_encode_backward``. Unlike the oracles above its
    forward is the library's own decoder step (step_forward, after
    ``one_source``), which the straight-line and finite-difference tests
    check.

    Zeroes params' gradients first and leaves the result in them; returns
    (mean NLL, greedy-match count, per-step p_gen list)."""
    from paragen.pointer import step_forward
    from paragen.vocab import BOS, EOS, encode_target

    ev, states, state0, (emb_ids, encode_cache) = one_source(src_tokens, params, vocab)
    state = state0
    gold = encode_target(tgt_tokens, ev) + [EOS]
    prev, nll, correct, p_gen, steps = BOS, 0.0, 0, [], []
    for gold_id in gold:
        out, (recur_cache, out_cache) = step_forward([prev], ev, states, state, params)
        p_gold = out.p[0, gold_id]
        nll = nll - np.log(np.maximum(p_gold, 1e-12))
        steps.append((recur_cache, (out_cache, out.p_copy, ev.source_ids), gold_id, p_gold))
        correct += int(np.argmax(out.p[0])) == gold_id
        p_gen.append(float(out.p_gen[0]))
        state, prev = out.state, gold_id

    params.zero_grad()
    g_nll = 1.0 / len(gold)
    g_state, g_H = np.zeros_like(state0), np.zeros_like(states.H[0])
    for recur_cache, out_cache, gold_id, p_gold in reversed(steps):
        g_p = np.zeros((1, ev.size))
        g_p[0, gold_id] = -g_nll / p_gold if p_gold > 1e-12 else 0.0
        g_state, g_step_H = accumulating_recur_backward(
            recur_cache, *dense_output_backward(*out_cache, g_p), g_state)
        g_H += g_step_H
    # the bridge state0 = tanh([W_h ; W_c] h_final), then the encoder
    d_s = params.dims.d_s
    g_pre = g_state[0] * (1.0 - state0[0] * state0[0])
    params.bridge_hidden.grad += np.outer(g_pre[:d_s], states.h_final[0])
    params.bridge_cell.grad += np.outer(g_pre[d_s:], states.h_final[0])
    g_final = g_pre[:d_s] @ params.bridge_hidden.data + g_pre[d_s:] @ params.bridge_cell.data
    np.add.at(params.embedding.grad, emb_ids,
              per_step_encode_backward(encode_cache, g_H, g_final))
    return nll / len(gold), correct, p_gen


# ---------------------------------------------------------------------------
# retrieval oracles


def per_tensor_grad_norm(named_params):
    """Global L2 gradient norm summed tensor by tensor, each tensor's squares
    summed through a temporary: the norm training clipped with before the
    flat one-dot norm."""
    total = 0.0
    for _, p in named_params:
        total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


class PerTensorAdam:
    """Adam with bias correction, one m/v slot pair per tensor: the update
    written tensor by tensor with numpy temporaries. ``arrays`` is a dict
    name -> array, updated in place by step(grads)."""

    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.arrays = arrays
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(a) for n, a in arrays.items()}
        self.v = {n: np.zeros_like(a) for n, a in arrays.items()}

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.arrays.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# text rules: the character loops that paragen's tokenizer and segmenter
# patterns replaced


_LOOP_PUNCT = set('.,;:!?"()«»')
_LOOP_SENTENCE_END = ".!?"
_LOOP_OPENERS = '"«(\''


def loop_tokenize(text):
    """Lowercase, split on Unicode whitespace, detach punctuation tokens.

    Apostrophes stay inside tokens ("l'acqua" is one token); the characters
    . , ; : ! ? " ( ) « » become standalone tokens wherever they occur.
    """
    out = []
    for chunk in text.lower().split():
        run = []
        for ch in chunk:
            if ch in _LOOP_PUNCT:
                if run:
                    out.append("".join(run))
                    run = []
                out.append(ch)
            else:
                run.append(ch)
        if run:
            out.append("".join(run))
    return out


def loop_segment(body, min_tokens, max_tokens, abbreviations):
    """Split a document body into sentence texts, one character at a time.

    A sentence ends at . ! or ? followed by whitespace and an uppercase
    letter or opening quote, unless the preceding word is a known
    abbreviation. Sentences outside [min_tokens, max_tokens] are dropped.
    """
    if not body.strip():
        return []
    sentences = []
    start = 0
    i = 0
    n = len(body)
    while i < n:
        ch = body[i]
        if ch in _LOOP_SENTENCE_END:
            j = i + 1
            while j < n and body[j].isspace():
                j += 1
            boundary = j > i + 1 and j < n and (body[j].isupper() or body[j] in _LOOP_OPENERS)
            if boundary and ch == ".":
                word_start = i
                while word_start > start and not body[word_start - 1].isspace():
                    word_start -= 1
                if body[word_start:i + 1].lower() in abbreviations:
                    boundary = False
            if boundary:
                sentences.append(body[start:i + 1])
                start = j
                i = j
                continue
        i += 1
    if start < n:
        sentences.append(body[start:])

    kept = []
    for raw in sentences:
        text = " ".join(raw.split())
        if not text:
            continue
        if min_tokens <= len(loop_tokenize(text)) <= max_tokens:
            kept.append(text)
    return kept


# ---------------------------------------------------------------------------
# vocabulary oracle


def straight_line_oov_minting(tokens, vocab):
    """The per-sentence extended vocabulary written out by hand: a token of
    the fixed vocabulary keeps its position in ``vocab.id_to_token`` (a
    reserved string such as "<eos>" maps to UNK, id 1), and each new OOV
    surface form, scanning left to right, takes the next id past the fixed
    range. Returns (ids, OOVs in id order, extended size)."""
    reserved = {"<pad>", "<unk>", "<bos>", "<eos>"}
    oovs, ids = [], []
    for tok in tokens:
        if tok in reserved:
            ids.append(1)
        elif tok in vocab.id_to_token:
            ids.append(vocab.id_to_token.index(tok))
        else:
            if tok not in oovs:
                oovs.append(tok)
            ids.append(len(vocab.id_to_token) + oovs.index(tok))
    return ids, oovs, len(vocab.id_to_token) + len(oovs)


def dense_tfidf(records):
    """Dense, brute-force version of the index weighting: rows are sentences."""
    terms = sorted({t for r in records for t in r.tokens})
    col = {t: j for j, t in enumerate(terms)}
    df = {}
    for r in records:
        for t in set(r.tokens):
            df[t] = df.get(t, 0) + 1
    n = len(records)
    M = np.zeros((n, len(terms)))
    for i, r in enumerate(records):
        tf = {}
        for t in r.tokens:
            tf[t] = tf.get(t, 0) + 1
        for t, c in tf.items():
            M[i, col[t]] = (1.0 + math.log(c)) * math.log(1.0 + n / df[t])
        M[i] /= np.linalg.norm(M[i])
    return M


def brute_force_neighbours(records, ref_index, k):
    """Exact other-source cosine ranking against a dense matrix."""
    M = dense_tfidf(records)
    sims = M @ M[ref_index]
    ref = records[ref_index]
    ranked = sorted(
        ((records[j].sid, float(sims[j])) for j in range(len(records))
         if records[j].source != ref.source and sims[j] > 0.0),
        key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


def dict_tfidf_weights(tokens, df, n):
    """The miner's weighting before its arrays: L2-normalized (1 + log tf) *
    log(1 + n / df) of ``tokens`` as {term: weight}, terms in first-occurrence
    order; terms missing from ``df`` are dropped, so the vector may be empty.
    The squares are added left to right in an explicit loop, not ``sum()``,
    which compensates its additions from Python 3.12 on."""
    tf = {}
    for tok in tokens:
        tf[tok] = tf.get(tok, 0) + 1
    vec = {t: (1.0 + math.log(c)) * math.log(1.0 + n / df[t]) for t, c in tf.items() if t in df}
    total = 0.0
    for w in vec.values():
        total += w * w
    norm = math.sqrt(total)
    return {t: w / norm for t, w in vec.items()} if norm else {}


def dict_tfidf(records):
    """(df, {sid: dict_tfidf_weights}) over every record, the token-less
    included: each counts in n and gets an empty vector."""
    df = {}
    for rec in records:
        for term in set(rec.tokens):
            df[term] = df.get(term, 0) + 1
    return df, {rec.sid: dict_tfidf_weights(rec.tokens, df, len(records)) for rec in records}


def dict_postings(weights):
    """term -> [(sid, weight)] sorted by sid, over ``weights`` (sid ->
    {term: weight}): the postings lists the miner kept before its CSR arrays."""
    postings = {}
    for sid in sorted(weights):
        for term, w in weights[sid].items():
            postings.setdefault(term, []).append((sid, w))
    return postings


def dict_query_similar(weights, source, records, postings, k):
    """The miner's retrieval before CSR arrays: add each query term's
    postings into a dict in the order of ``weights``, drop ``source``'s
    sentences, sort every candidate by (-cosine, sid) and keep k."""
    acc = {}
    for term, qw in weights.items():
        for sid, w in postings.get(term, ()):
            acc[sid] = acc.get(sid, 0.0) + qw * w
    ranked = sorted(
        ((sid, sim) for sid, sim in acc.items() if records[sid].source != source),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:k]


# ---------------------------------------------------------------------------
# decoding oracle


def enumerate_best_sequence(step_probs, alpha, eos_id):
    """Exhaustive argmax over all decode sequences of length <= 2.

    ``step_probs(prefix)`` returns the next-token distribution after the
    given prefix. Scores are summed clamped log-probs normalized by
    len(ids)^alpha, ties broken by the id tuple.
    """
    candidates = []
    p1 = step_probs(())
    v = p1.shape[0]
    for w1 in range(v):
        lp1 = math.log(max(p1[w1], 1e-12))
        if w1 == eos_id:
            candidates.append(((w1,), lp1))
            continue
        p2 = step_probs((w1,))
        for w2 in range(v):
            lp2 = lp1 + math.log(max(p2[w2], 1e-12))
            candidates.append(((w1, w2), lp2))
    scored = [(ids, lp, lp / (len(ids) ** alpha)) for ids, lp in candidates]
    scored.sort(key=lambda item: (-item[2], item[0]))
    return scored[0]
