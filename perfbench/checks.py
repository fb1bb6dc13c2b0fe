"""Output checkers: each compares program output with a computation made
apart from the program (see oracles.py) and returns a list of problems,
empty when the output is correct.

Inputs are plain Python/numpy values, so a test can feed a checker a
deliberately corrupted output and see it rejected.
"""

import json
import math

import numpy as np

from oracles import (BOS, EOS, PAD, StraightLineModel, central_differences, extend_source,
                     relative_error)

SIM_TOL = 1e-9
LOGP_TOL = 1e-9
GRAD_TOL = 1e-4


# ---------------------------------------------------------------------------
# mine


def check_mining(truth, tfidf, band, pairs, tsv_text, sidecar_text, topk, k):
    """pairs: [(x, y, sim, x_sid, y_sid, x_source, y_source)] as align returned
    them; topk: {sid: [(sid, sim)]} from query_similar on sampled sentences."""
    problems = []
    sents, sources = truth["sentences"], truth["sources"]
    lo, hi = band
    keys = [(p[3], p[4]) for p in pairs]
    if keys != sorted(set(keys)) or any(a >= b for a, b in keys):
        problems.append("pairs are not unique, sid-ordered and canonical (x_sid < y_sid)")
    for x, y, sim, xs, ys, xsrc, ysrc in pairs:
        if not (0 <= xs < len(sents) and 0 <= ys < len(sents)):
            problems.append(f"pair ({xs}, {ys}): sid out of range")
            continue
        if (x, y, xsrc, ysrc) != (sents[xs], sents[ys], sources[xs], sources[ys]):
            problems.append(f"pair ({xs}, {ys}): text or source differs from sentence {xs}/{ys}")
        if xsrc == ysrc:
            problems.append(f"pair ({xs}, {ys}): both sentences from {xsrc}")
        if not lo <= sim <= hi:
            problems.append(f"pair ({xs}, {ys}): similarity {sim} outside [{lo}, {hi}]")
        dense = tfidf.cosine(xs, ys)
        if abs(dense - sim) > SIM_TOL:
            problems.append(f"pair ({xs}, {ys}): similarity {sim!r} != dense cosine {dense!r}")

    emitted = set(keys)
    missed = [p for p in truth["planted"] if tuple(sorted(p)) not in emitted]
    if missed:
        problems.append(f"{len(missed)} of {len(truth['planted'])} planted paraphrases "
                        f"not recalled (construction guarantees all), e.g. {missed[0]}")
    copies = [p for p in truth["syndicated"] if tuple(sorted(p)) in emitted]
    if copies:
        problems.append(f"{len(copies)} syndicated copies emitted, e.g. {copies[0]}")

    want_tsv = "".join(f"{p[0]}\t{p[1]}\n" for p in pairs)
    if tsv_text != want_tsv:
        problems.append("pairs TSV does not hold exactly one 'x TAB y' line per pair")
    side = [json.loads(line) for line in sidecar_text.splitlines()]
    if [(r.get("x_sid"), r.get("y_sid"), r.get("similarity")) for r in side] != \
            [(p[3], p[4], p[2]) for p in pairs]:
        problems.append("sidecar provenance does not match the pairs")

    refs = sorted(topk)
    for ref, want in zip(refs, tfidf.brute_force_topk(refs, sources, k)):
        problems += _compare_ranking(tfidf, ref, topk[ref], want)
    return problems


def _compare_ranking(tfidf, ref, got, want):
    """Equal to the brute-force ranking, except that sentences whose cosine
    is within SIM_TOL of the k-th may trade places across the cut."""
    if len(got) != len(want):
        return [f"top-k of {ref}: {len(got)} hits, brute force finds {len(want)}"]
    if list(got) != sorted(got, key=lambda h: (-h[1], h[0])):
        return [f"top-k of {ref}: not ranked by (-similarity, sid): {got}"]
    for sid, sim in got:
        dense = tfidf.cosine(ref, sid)
        if abs(sim - dense) > SIM_TOL:
            return [f"top-k of {ref}: sid {sid} scored {sim!r}, dense cosine {dense!r}"]
    cut = want[-1][1] if want else 0.0
    settled = lambda hits: [s for s, sim in hits if sim > cut + SIM_TOL]
    if settled(got) != settled(want) or any(abs(g[1] - w[1]) > SIM_TOL
                                            for g, w in zip(got, want)):
        return [f"top-k of {ref}: {got} != brute force {want}"]
    return []


# ---------------------------------------------------------------------------
# train


def check_training(data, vocab_index, initial, trained, final_nll,
                   grad_example, analytic, program_loss, elements):
    """initial/trained: name -> ndarray; analytic: the program's gradient of
    its loss on grad_example at the trained weights; elements: (name, flat
    index) pairs probed by central differences."""
    problems = []
    if not math.isfinite(final_nll):
        problems.append(f"final training loss is {final_nll}")
    bad = [n for n, a in trained.items() if not np.all(np.isfinite(a))]
    if bad:
        problems.append(f"non-finite trained weights in {bad[:3]}")
        return problems

    after = StraightLineModel(trained)
    src, tgt = grad_example
    ref_loss = after.nll(src, tgt, vocab_index)
    if abs(ref_loss - program_loss) > 1e-9 * max(1.0, abs(ref_loss)):
        problems.append(f"loss {program_loss!r} != straight-line loss {ref_loss!r}")
    numeric = central_differences(lambda: after.nll(src, tgt, vocab_index), trained, elements)
    for (name, j), num in zip(elements, numeric):
        err = relative_error(float(analytic[name].reshape(-1)[j]), num)
        if err > GRAD_TOL:
            problems.append(f"gradient {name}[{j}]: rel err {err:.2e} against central "
                            f"differences (analytic {analytic[name].reshape(-1)[j]!r}, "
                            f"numeric {num!r})")
            break

    before = StraightLineModel(initial)
    nll0 = np.mean([before.nll(s, t, vocab_index) for s, t in data])
    nll1 = np.mean([after.nll(s, t, vocab_index) for s, t in data])
    if not nll1 < nll0:
        problems.append(f"training did not lower the teacher-forced NLL: {nll0} -> {nll1}")
    return problems


def probe_elements(analytic, rng, per_tensor=2, floor=1e-4):
    """Per tensor, its largest-gradient element and a random one whose
    gradient clears ``floor`` (below it, float64 differences are noise)."""
    out = []
    for name in sorted(analytic):
        g = np.abs(analytic[name].reshape(-1))
        big = np.flatnonzero(g >= floor)
        if big.size == 0:
            continue
        picks = {int(np.argmax(g))}
        picks.update(int(j) for j in rng.choice(big, size=min(per_tensor - 1, big.size),
                                                  replace=False))
        out += [(name, j) for j in sorted(picks)]
    return out


# ---------------------------------------------------------------------------
# generate


def check_beam(model, source_tokens, vocab_tokens, hyps, alpha, greedy=None):
    """hyps: [(ids, log_prob, surface)] in the order beam_decode returned them;
    greedy: optional (greedy_decode surface, width-1 beam surface)."""
    problems = []
    vocab_index = {t: i for i, t in enumerate(vocab_tokens)}
    src_ids, ext_size, oov = extend_source(source_tokens, vocab_index)
    ext_tokens = list(vocab_tokens) + sorted(oov, key=oov.get)
    keys = []
    for rank, (ids, log_prob, surface) in enumerate(hyps):
        if any(not 0 <= i < ext_size for i in ids):
            problems.append(f"hypothesis {rank}: id outside vocabulary and source")
            continue
        replay = model.replay(src_ids, ext_size, ids)
        if abs(replay - log_prob) > LOGP_TOL:
            problems.append(f"hypothesis {rank}: log_prob {log_prob!r} != replay {replay!r}")
        if list(surface) != [ext_tokens[i] for i in ids if i not in (PAD, BOS, EOS)]:
            problems.append(f"hypothesis {rank}: surface tokens are not its ids' "
                            "vocabulary or source words")
        keys.append((-log_prob / max(len(ids), 1) ** alpha, tuple(ids)))
    if keys != sorted(keys):
        problems.append("hypotheses are not ordered by normalised score")
    if greedy is not None and greedy[0] != greedy[1]:
        problems.append(f"width 1 gives {greedy[1][:6]}..., greedy gives {greedy[0][:6]}...")
    return problems
