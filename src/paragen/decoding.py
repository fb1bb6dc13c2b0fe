"""Beam-search generation over the extended vocabulary.

Greedy decoding is beam search of width 1. Each step advances every live
hypothesis as one row of a B-row decoder step. Copied OOV words are rendered
back to their original source surface forms. All ties break toward the
lowest id so decoding is deterministic.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .layers import LOG_FLOOR
from .model import prepare_source
from .pointer import output_forward, recur_sequence, step_forward as full_step
from .vocab import BOS, EOS, PAD, tokenize

# Clamped probabilities whose logs round to the same double differ by under
# 1e-14 relative (|log| <= 27.7), so this margin below a row's k-th largest
# keeps every id whose log-probability ties the k-th's.
TIE_MARGIN = 1e-13


@dataclass
class BeamConfig:
    beam_width: int = 4
    max_len: int = 50
    length_norm: float = 0.7  # exponent alpha in score / len(ids)^alpha

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValidationError("BeamConfig: beam_width must be >= 1")
        if self.max_len < 0 or not 0.0 <= self.length_norm <= 1.0:
            raise ValidationError("BeamConfig: max_len >= 0 and length_norm in [0, 1] required")


@dataclass
class Hypothesis:
    """A partial or finished decode: ids are in extended-vocabulary space."""

    ids: tuple
    log_prob: float
    finished: bool
    surface: list = field(default_factory=list)

    def normalized_score(self, alpha):
        length = max(len(self.ids), 1)
        return self.log_prob / (length ** alpha)


def render(ids, ev):
    """Surface tokens for extended ids through ``ev.token``, which rejects an
    id out of range; specials stripped, UNK kept literal."""
    return [ev.token(idx) for idx in ids if idx not in (PAD, BOS, EOS)]


def greedy_decode(source, params, vocab, max_len=BeamConfig.max_len, force_p_gen=None):
    """Argmax decoding; stops at EOS or max_len. Returns surface tokens."""
    cfg = BeamConfig(beam_width=1, max_len=max_len)
    return beam_decode(source, params, vocab, cfg, force_p_gen=force_p_gen)[0].surface


def top_candidates(p, k):
    """(rows, ids, log-probs) of each row's k best ids by
    (-log max(p, LOG_FLOOR), id), ordered by row and rank: the first k of a
    stable argsort of the row's log-probabilities, with a log taken only of
    the ids within TIE_MARGIN of the row's k-th largest probability."""
    q = np.maximum(p, LOG_FLOOR)
    k = min(k, q.shape[1])
    kth = np.partition(q, -k, axis=1)[:, -k]
    rows, ids = np.nonzero(q >= kth[:, None] * (1.0 - TIE_MARGIN))
    logp = np.log(q[rows, ids])
    order = np.lexsort((ids, -logp, rows))
    order = order[np.arange(len(order)) - np.searchsorted(rows[order], rows[order]) < k]
    return rows[order], ids[order], logp[order]


def beam_decode(source, params, vocab, cfg, force_p_gen=None):
    """Beam search; returns hypotheses ranked by length-normalized log-prob.

    Each step keeps the beam_width best of the live hypotheses' extensions by
    (-log-prob, ids). Finished hypotheses (ending in EOS) retire to a pool;
    search stops once the pool holds beam_width hypotheses or at max_len,
    where live hypotheses join the pool unfinished. Width 1 is greedy.
    """
    ev, states, state, _ = prepare_source(tokenize(source), params, vocab)
    B, pool = cfg.beam_width, []
    live = [Hypothesis(ids=(), log_prob=0.0, finished=False)]

    for _ in range(cfg.max_len):
        if not live or len(pool) >= B:
            break
        out, _ = full_step([hyp.ids[-1] if hyp.ids else BOS for hyp in live], ev, states,
                           state, params, force_p_gen=force_p_gen)
        extended = [(Hypothesis(ids=live[r].ids + (idx,), log_prob=live[r].log_prob + lp,
                                finished=idx == EOS), r)
                    for r, idx, lp in zip(*(a.tolist() for a in top_candidates(out.p, B)))]
        kept = sorted(extended, key=lambda c: (-c[0].log_prob, c[0].ids))[:B]
        pool.extend(hyp for hyp, _ in kept if hyp.finished)
        live = [hyp for hyp, _ in kept if not hyp.finished]
        state = out.state[[r for hyp, r in kept if not hyp.finished]]
    if len(pool) < B:
        pool.extend(live)

    pool.sort(key=lambda h: (-h.normalized_score(cfg.length_norm), h.ids))
    for hyp in pool:
        hyp.surface = render(hyp.ids, ev)
    return pool


def score_sequence(source, ids, params, vocab, force_p_gen=None):
    """Replay a decoded id sequence and return its cumulative log-probability.

    The decoder consumes the sequence's own tokens as previous words, exactly
    as beam search did when it produced them.
    """
    ev, states, state, _ = prepare_source(tokenize(source), params, vocab)
    for idx in ids:
        if not (isinstance(idx, (int, np.integer)) and 0 <= idx < ev.size):
            raise ValidationError(f"score_sequence: id {idx!r} not an int in [0, {ev.size})")
    if len(ids) == 0:
        return 0.0
    rows, _ = recur_sequence([BOS, *ids[:-1]], states, state, params)
    p = output_forward(*rows, ev.source_ids, ev.size, params, force_p_gen)[0][0]
    return float(np.log(np.maximum(p[np.arange(len(ids)), ids], LOG_FLOOR)).sum())
