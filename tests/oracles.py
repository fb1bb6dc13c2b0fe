"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the most direct style possible
(scalar loops, dense matrices, exhaustive enumeration) and shares no code
with the library beyond numpy itself, except where a docstring says so.
"""

import math

import numpy as np


def matmul_triple_loop(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


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
    from paragen.vocab import UNK, encode_source

    w = model_arrays(params)
    src_ids, ev = encode_source(src_tokens, vocab)
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


def per_step_sequence_loss(params, vocab, src_tokens, tgt_tokens):
    """Teacher-forced training on one pair as it ran before the output layer
    ran once per sequence: one whole step_forward per gold token, then, per
    step in reverse, that step's output_backward and recur_backward, then the
    bridge and the encoder. Unlike the oracles above it is built from the
    library's own step halves, which the finite-difference tests check.

    Zeroes params' gradients first and leaves the result in them; returns
    (mean NLL, greedy-match count, per-step p_gen list)."""
    from paragen.pointer import output_backward, recur_backward, step_forward
    from paragen.vocab import BOS, EOS, encode_source, encode_target

    src_ids, ev = encode_source(src_tokens, vocab)
    states, encoder_cache = params.encode_source_ids(src_ids)
    state0 = state = params.initial_decoder_state(states)
    gold = encode_target(tgt_tokens, ev) + [EOS]
    prev, nll, correct, p_gen, steps = BOS, 0.0, 0, [], []
    for gold_id in gold:
        out, cache = step_forward([prev], ev, states, state, params)
        p_gold = out.p[0, gold_id]
        nll = nll - np.log(np.maximum(p_gold, 1e-12))
        steps.append((cache, gold_id, p_gold))
        correct += int(np.argmax(out.p[0])) == gold_id
        p_gen.append(float(out.p_gen[0]))
        state, prev = out.state, gold_id

    params.zero_grad()
    g_nll = 1.0 / len(gold)
    g_state, g_H = np.zeros_like(state0), np.zeros_like(states.H)
    for (recur_cache, out_cache), gold_id, p_gold in reversed(steps):
        g_p = np.zeros((1, ev.size))
        g_p[0, gold_id] = -g_nll / p_gold if p_gold > 1e-12 else 0.0
        g_state, g_step_H = recur_backward(recur_cache, *output_backward(out_cache, g_p),
                                           g_state)
        g_H += g_step_H
    params.source_backward(encoder_cache, states, state0, g_H, g_state)
    return nll / len(gold), correct, p_gen


# ---------------------------------------------------------------------------
# retrieval oracles


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


def dict_postings(records):
    """term -> [(sid, weight)] sorted by sid, over ``records`` (sid -> weighted
    SentenceRecord): the postings lists the miner kept before its CSR arrays."""
    postings = {}
    for sid in sorted(records):
        for term, w in records[sid].weights.items():
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
