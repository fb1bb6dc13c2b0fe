"""Beam-search generation over the extended vocabulary.

Greedy decoding is beam search of width 1. Copied OOV words are rendered
back to their original source surface forms. All ties break toward the
lowest id so decoding is deterministic.
"""

from dataclasses import dataclass, field

import numpy as np

from .autograd import LOG_FLOOR
from .errors import ValidationError
from .pointer import full_step, prepare_source
from .vocab import BOS, EOS, PAD, tokenize


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
    state: object
    finished: bool
    surface: list = field(default_factory=list)

    def normalized_score(self, alpha):
        length = max(len(self.ids), 1)
        return self.log_prob / (length ** alpha)


def render(ids, ev):
    """Surface tokens for extended ids; specials stripped, UNK kept literal."""
    out = []
    for idx in ids:
        if idx >= ev.size or idx < 0:
            raise ValidationError(f"render: id {idx} out of range [0, {ev.size})")
        if idx in (PAD, BOS, EOS):
            continue
        out.append(ev.token(idx))
    return out


def greedy_decode(source, params, vocab, max_len=BeamConfig.max_len, force_p_gen=None):
    """Argmax decoding; stops at EOS or max_len. Returns surface tokens."""
    cfg = BeamConfig(beam_width=1, max_len=max_len)
    return beam_decode(source, params, vocab, cfg, force_p_gen=force_p_gen)[0].surface


def beam_decode(source, params, vocab, cfg, force_p_gen=None):
    """Beam search; returns hypotheses ranked by length-normalized log-prob.

    Finished hypotheses (ending in EOS) retire to a pool; search stops once
    the pool holds beam_width hypotheses or max_len is reached, at which
    point live hypotheses join the pool unfinished. Width 1 is greedy decoding.
    """
    ev, states, state = prepare_source(tokenize(source), params, vocab)
    B = cfg.beam_width
    live = [Hypothesis(ids=(), log_prob=0.0, state=state, finished=False)]
    pool = []

    for _ in range(cfg.max_len):
        if not live or len(pool) >= B:
            break
        candidates = []
        for hyp in live:
            prev = hyp.ids[-1] if hyp.ids else BOS
            dist, new_state = full_step(prev, ev, states, hyp.state, params,
                                        force_p_gen=force_p_gen)
            logp = np.log(np.maximum(dist.p.data, LOG_FLOOR))
            top = np.argsort(-logp, kind="stable")[:B]
            for idx in top:
                candidates.append(Hypothesis(
                    ids=hyp.ids + (int(idx),),
                    log_prob=hyp.log_prob + float(logp[idx]),
                    state=new_state,
                    finished=int(idx) == EOS,
                ))
        candidates.sort(key=lambda h: (-h.log_prob, h.ids))
        kept = candidates[:B]
        live = []
        for hyp in kept:
            (pool if hyp.finished else live).append(hyp)
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
    ev, states, state = prepare_source(tokenize(source), params, vocab)
    total = 0.0
    prev = BOS
    for idx in ids:
        dist, state = full_step(prev, ev, states, state, params, force_p_gen=force_p_gen)
        total += float(np.log(max(float(dist.p.data[idx]), LOG_FLOOR)))
        prev = idx
    return total
