"""Reference computations the checkers compare the program against.

Nothing here imports paragen: tokenization, TF-IDF cosine, the decoder step
and the teacher-forced loss are written out again in plain numpy from the
model's definition, so a fault in the program cannot hide in a shared helper.
The model is read only as a name -> ndarray mapping.
"""

import math

import numpy as np

PAD, UNK, BOS, EOS = 0, 1, 2, 3
LOG_FLOOR = 1e-12
_PUNCT = frozenset('.,;:!?"()«»')


def tokenize(text):
    """Lowercase, split on whitespace, every punctuation mark its own token."""
    out = []
    for chunk in text.lower().split():
        word = ""
        for ch in chunk:
            if ch in _PUNCT:
                if word:
                    out.append(word)
                out.append(ch)
                word = ""
            else:
                word += ch
        if word:
            out.append(word)
    return out


# ---------------------------------------------------------------------------
# retrieval


class DenseTfidf:
    """log-TF-IDF sentence vectors, L2-normalised, as dense rows on demand."""

    def __init__(self, token_lists):
        self.token_lists = token_lists
        self.n = len(token_lists)
        df = {}
        for toks in token_lists:
            for t in set(toks):
                df[t] = df.get(t, 0) + 1
        self.column = {t: j for j, t in enumerate(sorted(df))}
        self.idf = np.zeros(len(self.column))
        for t, j in self.column.items():
            self.idf[j] = math.log(1.0 + self.n / df[t])

    def rows(self, indices):
        """Dense matrix whose i-th row is sentence indices[i]'s unit vector."""
        out = np.zeros((len(indices), len(self.column)))
        for r, i in enumerate(indices):
            for t in self.token_lists[i]:
                out[r, self.column[t]] += 1.0
        nz = out > 0
        out[nz] = (1.0 + np.log(out[nz])) * np.broadcast_to(self.idf, out.shape)[nz]
        norms = np.linalg.norm(out, axis=1)
        return out / norms[:, None]

    def cosine(self, i, j):
        a, b = self.rows([i, j])
        return float(a @ b)

    def brute_force_topk(self, refs, sources, k, block=256):
        """Other-source top-k of each ref by exhaustive dense products.

        Returns one [(index, cosine)] list per ref, ranked by (-cosine, index);
        zero-cosine sentences never rank.
        """
        q = self.rows(refs).T
        sims = np.empty((self.n, len(refs)))
        for lo in range(0, self.n, block):
            idx = list(range(lo, min(lo + block, self.n)))
            sims[lo:lo + len(idx)] = self.rows(idx) @ q
        out = []
        for c, ref in enumerate(refs):
            ranked = sorted(((j, float(sims[j, c])) for j in range(self.n)
                             if sources[j] != sources[ref] and sims[j, c] > 0.0),
                            key=lambda pair: (-pair[1], pair[0]))
            out.append(ranked[:k])
        return out


# ---------------------------------------------------------------------------
# pointer-generator


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def _lstm(w, cell, x, h, c):
    z = np.concatenate([x, h])
    i = _sigmoid(w[f"{cell}.w_i"] @ z + w[f"{cell}.b_i"])
    f = _sigmoid(w[f"{cell}.w_f"] @ z + w[f"{cell}.b_f"])
    g = np.tanh(w[f"{cell}.w_g"] @ z + w[f"{cell}.b_g"])
    o = _sigmoid(w[f"{cell}.w_o"] @ z + w[f"{cell}.b_o"])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


def extend_source(tokens, vocab_index):
    """Extended ids of a source: OOVs numbered past V in first-seen order."""
    v = len(vocab_index)
    oov = {}
    ids = []
    for t in tokens:
        if t in vocab_index:
            ids.append(vocab_index[t])
        else:
            ids.append(oov.setdefault(t, v + len(oov)))
    return ids, v + len(oov), oov


class StraightLineModel:
    """Encoder, decoder step and loss of the pointer-generator, written out."""

    def __init__(self, weights):
        self.w = weights
        self.v = weights["embedding"].shape[0]
        self.d_h = weights["encoder_fwd.b_i"].shape[0]

    def embed(self, idx):
        return self.w["embedding"][idx if idx < self.v else UNK]

    def encode(self, src_ids):
        """Per-token states H (n x 2 d_h) and the bridged initial (h, c)."""
        n = len(src_ids)
        fwd, bwd = [None] * n, [None] * n
        h = c = np.zeros(self.d_h)
        for i in range(n):
            h, c = _lstm(self.w, "encoder_fwd", self.embed(src_ids[i]), h, c)
            fwd[i] = h
        h = c = np.zeros(self.d_h)
        for i in reversed(range(n)):
            h, c = _lstm(self.w, "encoder_bwd", self.embed(src_ids[i]), h, c)
            bwd[i] = h
        H = np.stack([np.concatenate([f, b]) for f, b in zip(fwd, bwd)])
        final = np.concatenate([fwd[-1], bwd[0]])
        return H, (np.tanh(self.w["bridge_hidden"] @ final),
                   np.tanh(self.w["bridge_cell"] @ final))

    def step(self, H, src_ids, ext_size, prev_id, state):
        """Next-token distribution over the extended ids, and the new state."""
        w = self.w
        s_h, s_c = state
        n = H.shape[0]
        pre = np.concatenate([H, np.tile(s_h, (n, 1))], axis=1) @ w["attention.weight"].T
        a = _softmax(np.tanh(pre + w["attention.bias"]) @ w["attention.score"])
        context = a @ H
        emb = self.embed(prev_id)
        h2, c2 = _lstm(w, "decoder", np.concatenate([emb, context]), s_h, s_c)
        p_vocab = _softmax(w["projection.weight"] @ np.concatenate([h2, context])
                           + w["projection.bias"])
        gate = float(_sigmoid(w["copy_gate.weight"] @ np.concatenate([emb, h2, context])
                              + w["copy_gate.bias"]))
        p = np.zeros(ext_size)
        p[:self.v] = gate * p_vocab
        for pos, idx in enumerate(src_ids):
            p[idx] += (1.0 - gate) * a[pos]
        return p, (h2, c2)

    def replay(self, src_ids, ext_size, ids):
        """Cumulative clamped log-probability of an extended id sequence."""
        H, state = self.encode(src_ids)
        total = 0.0
        prev = BOS
        for idx in ids:
            p, state = self.step(H, src_ids, ext_size, prev, state)
            total += math.log(max(float(p[idx]), LOG_FLOOR))
            prev = idx
        return total

    def nll(self, src_tokens, tgt_tokens, vocab_index):
        """Teacher-forced mean NLL of one pair, EOS included."""
        src_ids, ext_size, oov = extend_source(src_tokens, vocab_index)
        gold = [vocab_index.get(t, oov.get(t, UNK)) for t in tgt_tokens] + [EOS]
        return -self.replay(src_ids, ext_size, gold) / len(gold)


def central_differences(loss, weights, elements, h=1e-5):
    """d loss / d w at each (name, flat index), by (f(w+h) - f(w-h)) / 2h."""
    out = []
    for name, j in elements:
        flat = weights[name].reshape(-1)
        saved = flat[j]
        flat[j] = saved + h
        up = loss()
        flat[j] = saved - h
        down = loss()
        flat[j] = saved
        out.append((up - down) / (2.0 * h))
    return out


def relative_error(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)
