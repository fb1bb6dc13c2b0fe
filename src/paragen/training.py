"""Teacher-forced NLL training with Adam, gradient clipping, and checkpoints.

Training takes one optimizer update per batch of ``batch_size`` pairs. The
batch's sources are right-padded and encoded together, and its decoder runs
one masked recurrence of a row per pair; the vocabulary half of the output
layer then runs once over the real rows, since it is always V wide, and the
copy half per pair. One backward adds the summed gradient into the flat
gradient vector, which is scaled to the batch mean, clipped and stepped
once. The whole loop is a pure function of (dataset, config, seed).
"""

import json
import logging
import math
import struct
import time
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import autograd as ag
from .autograd import backward
from .errors import NumericalError, ValidationError
from .fileio import atomic_write, read_lines, write_pair_lines
from .layers import LOG_FLOOR
from .model import ModelDims, ModelParams, params_from_payload, prepare_source, source_backward
from .pointer import step_forward as full_step  # noqa: F401 (perfbench traces this name)
from .pointer import (copy_distribution, mix, output_backward, recur_backward, recur_forced,
                      recur_grads, vocab_forward)
from .vocab import BOS, EOS, PAD, build_vocab, encode_target, tokenize

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"CPFG"
CHECKPOINT_VERSION = 1
# The one definition of the checkpoint header, little-endian and unpadded:
# magic, version, the ModelDims widths in field order, the vocabulary
# fingerprint (SHA-256) and the payload's byte count. The payload follows.
CHECKPOINT_HEADER = struct.Struct("<4sH5I32sQ")
VOCAB_SUFFIX = ".vocab"  # a checkpoint's vocabulary file is <checkpoint>.vocab


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class VersionMismatchError(CheckpointError):
    pass


class CorruptCheckpointError(CheckpointError):
    pass


class WidthMismatchError(CheckpointError):
    pass


class VocabMismatchError(CheckpointError):
    pass


@dataclass
class TrainConfig:
    seed: int
    epochs: int = 10
    lr: float = 1e-3
    clip: float = 2.0
    max_source_len: int = 50
    max_target_len: int = 50
    vocab_size: int = 10000
    min_count: int = 1
    d_emb: int = ModelDims.d_emb
    d_h: int = ModelDims.d_h
    d_s: int = ModelDims.d_s
    d_a: int = ModelDims.d_a
    checkpoint_interval: int = 10
    batch_size: int = 8  # pairs per update: B times fewer updates per epoch, so scale lr with it

    def __post_init__(self):
        if self.seed is None:
            raise ValidationError("TrainConfig: seed is mandatory")
        if min(self.epochs, self.checkpoint_interval, self.batch_size) < 1:
            raise ValidationError(
                "TrainConfig: epochs, checkpoint_interval and batch_size must be >= 1")
        if not 0 <= self.lr < math.inf or not self.clip > 0:  # NaN fails both; clip inf: no clip
            raise ValidationError("TrainConfig: lr must be finite and >= 0, and clip > 0")
        if min(self.max_source_len, self.max_target_len) < 1:
            raise ValidationError("TrainConfig: length limits must be >= 1")
        if self.vocab_size <= 4 or min(self.d_emb, self.d_h, self.d_s, self.d_a) < 1:
            raise ValidationError("TrainConfig: vocab_size > 4 and widths >= 1 required")

    def dims(self, vocab_size):
        return ModelDims(vocab_size=vocab_size, d_emb=self.d_emb, d_h=self.d_h,
                         d_s=self.d_s, d_a=self.d_a)


@dataclass
class EpochStats:
    epoch: int
    mean_nll: float
    token_accuracy: float
    wall_time_s: float
    target_tokens_per_s: float  # gold tokens (EOS included) over wall_time_s
    grad_norm_mean: float  # of each update's pre-clip norm of the batch-mean gradient
    grad_norm_max: float
    clipped_fraction: float  # of updates whose norm exceeded cfg.clip
    p_gen_oov_mean: float | None  # of the gate at gold steps with an OOV (extended) target
    p_gen_in_vocab_mean: float | None  # ... with a fixed-vocabulary target; None if no such step
    updates: int  # optimizer steps, one per batch
    optimizer_s: float  # of wall_time_s, spent scaling and clipping gradients and in Adam.step
    backward_s: float  # of wall_time_s, spent in backward(loss), one call per batch

    def as_dict(self):
        return asdict(self)


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)

    @property
    def final_nll(self):
        return self.epochs[-1].mean_nll if self.epochs else float("nan")


def _pair_texts(pair):
    if hasattr(pair, "x") and hasattr(pair, "y"):
        return pair.x, pair.y
    x, y = pair
    return x, y


class EmptyPairError(ValidationError):
    """A pair with no source or no target tokens; ``index`` is its position."""

    def __init__(self, index):
        super().__init__(f"pair {index}: empty source or target after tokenization")
        self.index = index


def _tokenized(pairs):
    """Each text pair as (source, target) token lists."""
    out = [tuple(map(tokenize, _pair_texts(pair))) for pair in pairs]
    for index, (src, tgt) in enumerate(out):
        if not (src and tgt):
            raise EmptyPairError(index)
    return out


def _truncated(token_pairs, max_source_len, max_target_len):
    """Cut each (source, target) token pair to its limits in place, with a warning per cut."""
    limits = (("source", max_source_len), ("target", max_target_len))
    for pair in token_pairs:
        for tokens, (side, limit) in zip(pair, limits):
            if len(tokens) > limit:
                log.warning("%s truncated from %d to %d tokens", side, len(tokens), limit)
                del tokens[limit:]
    return token_pairs


def _teacher_forced(pairs, params, vocab):
    """The NLL of a batch of B token pairs (tokenized and truncated once per
    run) as one loss, the sum of each pair's mean NLL, whose backward adds
    their summed gradient into params.grad. One recurrence runs B rows over
    the padded sources, a row fed PAD and masked once past its pair's EOS.
    Returns (loss, each pair's mean NLL, greedy-match count, gold ids, gates)."""
    evs, states, state0, source_cache = prepare_source([src for src, _ in pairs], params, vocab)
    golds = [np.array(encode_target(tgt, ev) + [EOS]) for (_, tgt), ev in zip(pairs, evs)]
    lengths = [len(gold) for gold in golds]
    real = np.arange(max(lengths)) < np.array(lengths)[:, None]  # B x T
    prev = [[BOS, *gold[:-1]] + [PAD] * (real.shape[1] - len(gold)) for gold in golds]
    steps, _, caches = recur_forced(prev, states, state0, params)
    (p_vocab, p_gen), vocab_cache = vocab_forward(*(rows[real] for rows in steps[:3]), params)
    ends = np.cumsum(lengths)[:-1]  # each pair's rows end here, in pair order
    p_gold, p_copy_gold, correct = [], [], 0
    for ev, gold, attn, rows_p_vocab, rows_p_gen in zip(
            evs, golds, steps[3], np.split(p_vocab, ends), np.split(p_gen, ends)):
        p_copy = copy_distribution(attn[:len(gold), :len(ev.source_ids)], ev.source_ids, ev.size)
        p = mix(rows_p_vocab, p_copy, rows_p_gen)
        correct += int((np.argmax(p, axis=1) == gold).sum())
        p_gold.append(p[np.arange(len(gold)), gold])
        p_copy_gold.append(p_copy[np.arange(len(gold)), gold])
    golds, p_gold, p_copy_gold = map(np.concatenate, (golds, p_gold, p_copy_gold))
    # summed in step order, so each loss equals a step-by-step sum bit for bit
    nlls = [np.cumsum(terms)[-1] * (1.0 / len(terms))
            for terms in np.split(-np.log(np.maximum(p_gold, LOG_FLOOR)), ends)]

    def back(g):
        g_nll = np.repeat([g * (1.0 / n) for n in lengths], lengths)
        g_gold = np.divide(-g_nll, p_gold, out=np.zeros_like(p_gold), where=p_gold > LOG_FLOOR)
        *g_real, g_copy = output_backward(vocab_cache, golds, g_gold, p_copy_gold)
        # d attn: each row's d copy at every position of its source holding its gold id
        sources = np.where(states.valid, source_cache[0], -1)[np.nonzero(real)[0]]
        g_real.append(np.where(np.equal(golds[:, None], sources), g_copy[:, None], 0.0))
        g_rows = [np.zeros(real.shape + g.shape[1:]) for g in g_real]  # zero past EOS
        for g_pad, g_out in zip(g_rows, g_real):
            g_pad[real] = g_out
        g_state, pieces = np.zeros_like(state0), [None] * len(caches)
        for t in reversed(range(len(caches))):  # the recurrence, step by step
            g_state, pieces[t] = recur_backward(caches[t], *(g[:, t] for g in g_rows), g_state)
        source_backward(params, source_cache, states, state0,
                        recur_grads(params, states, pieces), g_state)

    return (ag._node(sum(nlls), back), [float(nll) for nll in nlls], correct, golds.tolist(),
            p_gen.tolist())


def sequence_loss(pair, params, vocab, max_source_len=TrainConfig.max_source_len,
                  max_target_len=TrainConfig.max_target_len):
    """Teacher-forced mean negative log-likelihood of one sentence pair (a batch of one)."""
    pairs = _truncated(_tokenized([pair]), max_source_len, max_target_len)
    return _teacher_forced(pairs, params, vocab)[0]


def _mean(values):
    return float(np.mean(values)) if values else None


def clip_gradients(grad, clip, batch_size=1):
    """Scale the flat gradient vector ``grad``, the sum of ``batch_size``
    pairs' gradients, in place to their mean with an L2 norm of at most
    ``clip``; returns the mean's pre-clip norm.

    The norm is one ``np.dot(grad, grad)``, with no temporaries, over
    ``batch_size``. The mean and the clip are one multiply by
    ``min(1, clip / norm) / batch_size``, skipped when that factor is exactly
    1.0: at one pair, a norm at or below ``clip`` leaves ``grad`` untouched.
    Direction is preserved exactly.
    """
    norm = float(np.sqrt(np.dot(grad, grad))) / batch_size
    factor = (clip / norm if norm > clip and norm > 0.0 else 1.0) / batch_size
    if factor != 1.0:
        grad *= factor
    return norm


class Adam:
    """Adam with bias correction over one parameter vector and its gradient
    vector (ModelParams.flat and .grad), updated in place.

    ``step`` walks the vectors in blocks of ``BLOCK`` elements, so each
    block's operands stay in cache across the update's operations. The
    update is elementwise, so the result is bit-identical to the same
    operations over whole vectors.
    """

    BLOCK = 1 << 15

    def __init__(self, data, grad, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.data, self.grad = data, grad
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        # np.zeros maps its pages on first write; zeros_like would write every one now
        self.m, self.v = np.zeros(data.shape), np.zeros(data.shape)
        width = min(self.BLOCK, data.size)
        self._scratch = np.empty(width), np.empty(width)

    def step(self):
        """data -= (lr * m_hat) / (sqrt(v_hat) + eps), one block at a time,
        written through two block-sized scratch vectors instead of temporaries;
        each operation's operands keep that order."""
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        scratch_a, scratch_b = self._scratch
        for start in range(0, self.data.size, self.BLOCK):
            block = slice(start, start + self.BLOCK)  # the last block may be shorter
            g, m, v = self.grad[block], self.m[block], self.v[block]
            a, b = scratch_a[:g.size], scratch_b[:g.size]
            m *= b1
            m += np.multiply(g, 1 - b1, out=a)
            v *= b2
            np.multiply(g, g, out=a)
            v += np.multiply(a, 1 - b2, out=a)
            np.sqrt(np.divide(v, c2, out=a), out=a)
            a += eps
            np.divide(m, c1, out=b)
            b *= lr
            self.data[block] -= np.divide(b, a, out=b)


def train(dataset, cfg, vocab=None, checkpoint_path=None, log_path=None):
    """Train a fresh model on (source, target) text pairs, one update per
    batch of ``cfg.batch_size`` consecutive pairs of each epoch's shuffle.

    Returns (ModelParams, TrainReport). When ``vocab`` is None one is built
    over both sides' untruncated tokens, under cfg.vocab_size and
    cfg.min_count. Each epoch replaces ``log_path`` whole with one JSON line
    per epoch so far, and the vocabulary goes to <checkpoint_path>.vocab
    just before the first checkpoint, so a run that fails before it leaves
    the previous run's files as they were.
    """
    if not dataset:
        raise ValidationError("train: empty dataset")
    pairs = _tokenized(dataset)
    if vocab is None:
        vocab = build_vocab([src for src, _ in pairs] + [tgt for _, tgt in pairs],
                            max_size=cfg.vocab_size, min_count=cfg.min_count)
    pairs = _truncated(pairs, cfg.max_source_len, cfg.max_target_len)

    params = ModelParams(cfg.dims(vocab.size), seed=cfg.seed)
    opt = Adam(params.flat, params.grad, lr=cfg.lr)
    shuffle_rng = np.random.default_rng(cfg.seed)
    report = TrainReport()

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(pairs))
        nll_sum, correct, total, optimizer_s, backward_s = 0.0, 0, 0, 0.0, 0.0
        norms, gates = [], {True: [], False: []}  # gold id is OOV -> gate values
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]  # the last batch may be shorter
            params.zero_grad()
            loss, nlls, c, gold, p_gen = _teacher_forced([pairs[i] for i in batch], params, vocab)
            for idx, nll in zip(batch, nlls):
                if not np.isfinite(nll):
                    raise NumericalError(f"non-finite loss at epoch {epoch}, example {idx}")
                nll_sum += nll
            t_back = time.perf_counter()
            backward(loss)  # adds the batch's summed gradient to params.grad
            backward_s += time.perf_counter() - t_back
            del loss  # its closure holds the batch's caches; free them before the step
            correct += c
            total += len(gold)
            for gold_id, g in zip(gold, p_gen):
                gates[gold_id >= vocab.size].append(g)
            t_opt = time.perf_counter()
            norm = clip_gradients(params.grad, cfg.clip, len(batch))
            if not np.isfinite(norm):
                raise NumericalError(f"non-finite gradient norm at epoch {epoch}, "
                                     f"batch of examples {batch.tolist()}")
            opt.step()
            optimizer_s += time.perf_counter() - t_opt
            norms.append(norm)
        wall_time_s = time.perf_counter() - t0
        stats = EpochStats(epoch=epoch,
                           mean_nll=nll_sum / len(pairs),
                           token_accuracy=correct / max(total, 1),
                           wall_time_s=wall_time_s,
                           target_tokens_per_s=total / wall_time_s,
                           grad_norm_mean=float(np.mean(norms)), grad_norm_max=max(norms),
                           clipped_fraction=float(np.mean(np.array(norms) > cfg.clip)),
                           p_gen_oov_mean=_mean(gates[True]),
                           p_gen_in_vocab_mean=_mean(gates[False]), updates=len(norms),
                           optimizer_s=optimizer_s, backward_s=backward_s)
        report.epochs.append(stats)
        log.info("epoch %d: %s", epoch, json.dumps(stats.as_dict()))
        if log_path is not None:
            with atomic_write(log_path) as fh:
                fh.writelines(json.dumps(e.as_dict()) + "\n" for e in report.epochs)
        if checkpoint_path is not None and (epoch % cfg.checkpoint_interval == 0
                                            or epoch == cfg.epochs):
            if epoch == min(cfg.checkpoint_interval, cfg.epochs):  # the first checkpoint
                vocab.save(str(checkpoint_path) + VOCAB_SUFFIX)
            save_checkpoint(params, checkpoint_path, vocab)
    return params, report


# ---------------------------------------------------------------------------
# dataset and checkpoint files


def load_pairs_tsv(path):
    """Read a pair-per-line TSV (lines end at LF only); every line must
    contain exactly one TAB."""
    pairs = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if line.count("\t") != 1:
            raise ValidationError(f"{path}: line {lineno}: expected exactly one TAB separator")
        x, y = line.split("\t")
        pairs.append((x, y))
    return pairs


def save_pairs_tsv(pairs, path):
    with atomic_write(path) as fh:
        write_pair_lines(fh, map(_pair_texts, pairs))


def save_checkpoint(params, path, vocab):
    """Binary checkpoint: the ``CHECKPOINT_HEADER`` fields, then params.flat
    (every tensor in parameter_layout order) as little-endian float64."""
    header = CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *astuple(params.dims),
                                    vocab.fingerprint(), 8 * params.dims.parameter_count())
    with atomic_write(path, binary=True) as fh:
        fh.write(header)
        fh.write(params.flat.astype("<f8", copy=False))


def load_checkpoint(path, expected_dims=None, expected_vocab=None):
    """Load a checkpoint; returns (ModelParams, vocab_fingerprint bytes).

    Every failure, a NaN or infinite weight included, raises a CheckpointError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < CHECKPOINT_HEADER.size or not blob.startswith(CHECKPOINT_MAGIC):
        raise CorruptCheckpointError(f"{path}: not a model checkpoint")
    _, version, *widths, fingerprint, payload_len = CHECKPOINT_HEADER.unpack_from(blob)
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
    dims = ModelDims(*widths)
    if min(widths) < 1:
        raise CorruptCheckpointError(f"{path}: widths {dims} include one below 1")
    if expected_dims is not None:
        for f, got, want in zip(fields(ModelDims), widths, astuple(expected_dims)):
            if want != got:
                raise WidthMismatchError(
                    f"{path}: checkpoint {f.name}={got}, run expects {f.name}={want}")
    if expected_vocab is not None and expected_vocab.fingerprint() != fingerprint:
        raise VocabMismatchError(f"{path}: checkpoint was trained with a different vocabulary")
    if expected_vocab is not None and dims.vocab_size != expected_vocab.size:
        raise VocabMismatchError(f"{path}: checkpoint vocab_size={dims.vocab_size}, "
                                 f"the vocabulary holds {expected_vocab.size} ids")
    payload = memoryview(blob)[CHECKPOINT_HEADER.size:]
    if len(payload) != payload_len:
        raise CorruptCheckpointError(
            f"{path}: payload is {len(payload)} bytes, header declares {payload_len}")
    # checked before any tensor is allocated, since a corrupt width may make one enormous
    if 8 * dims.parameter_count() != payload_len:
        raise CorruptCheckpointError(
            f"{path}: widths {dims} need {8 * dims.parameter_count()} payload bytes, "
            f"header declares {payload_len}")
    params = params_from_payload(dims, payload)
    if not np.isfinite(params.flat).all():
        raise CorruptCheckpointError(f"{path}: payload holds a non-finite value")
    return params, fingerprint
