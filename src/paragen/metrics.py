"""Corpus BLEU with clipped n-gram counts, and positional token accuracy."""

import math
from collections import Counter
from dataclasses import dataclass

from .errors import ValidationError


@dataclass
class BleuReport:
    bleu: float
    precisions: list  # modified n-gram precisions p_1..p_4
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    def as_dict(self):
        return {"bleu": self.bleu,
                "precisions": self.precisions,
                "brevity_penalty": self.brevity_penalty,
                "hyp_length": self.hyp_length,
                "ref_length": self.ref_length}


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses, references, max_order=4, smooth=False):
    """Corpus BLEU, single reference per hypothesis, uniform weights.

    With smoothing off any zero precision zeroes the score; ``smooth`` adds
    one to every numerator and denominator (useful for very short corpora).
    """
    if len(hypotheses) != len(references):
        raise ValidationError(
            f"bleu: {len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise ValidationError("bleu: empty corpus")

    matches = [0] * max_order
    totals = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_order + 1):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())

    if smooth:
        precisions = [(m + 1) / (t + 1) for m, t in zip(matches, totals)]
    else:
        precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]

    if hyp_len == 0:
        return BleuReport(0.0, precisions, 0.0, hyp_len, ref_len)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    score = 0.0
    if min(precisions) > 0.0:
        log_sum = 0.0  # left to right: Python 3.12's sum() compensates its additions
        for p in precisions:
            log_sum += math.log(p)
        score = bp * math.exp(log_sum / max_order)
    return BleuReport(score, precisions, bp, hyp_len, ref_len)


def token_hits(hyp_ids, gold_ids):
    """Number of gold positions the hypothesis matches position by position."""
    return sum(1 for i, g in enumerate(gold_ids) if i < len(hyp_ids) and hyp_ids[i] == g)


def token_accuracy(hyp_ids, gold_ids):
    """Fraction of gold positions the hypothesis matches; padding misses.

    The hypothesis is compared position by position against the gold
    sequence; extra hypothesis tokens are ignored, missing ones count wrong.
    """
    return token_hits(hyp_ids, gold_ids) / max(len(gold_ids), 1)
