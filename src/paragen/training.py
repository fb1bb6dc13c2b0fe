"""Teacher-forced NLL training with Adam, gradient clipping, and checkpoints.

Training runs one example at a time. Within an example the output layer runs
once over every target step (pointer.teacher_forced); across examples there
is no shared output width to batch over, since each sentence pair carries its
own extended vocabulary. The whole loop is a pure function of
(dataset, config, seed).
"""

import json
import logging
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import LOG_FLOOR, backward
from .errors import NumericalError, ValidationError
from .fileio import atomic_write, read_lines
from .model import ModelDims, ModelParams, params_from_payload
from .pointer import step_forward as full_step  # noqa: F401 (perfbench traces this name)
from .pointer import teacher_forced, teacher_forced_backward
from .vocab import BOS, EOS, build_vocab, encode_source, encode_target, tokenize

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"CPFG"
CHECKPOINT_VERSION = 1


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

    def __post_init__(self):
        if self.seed is None:
            raise ValidationError("TrainConfig: seed is mandatory")
        if self.epochs < 1 or self.checkpoint_interval < 1:
            raise ValidationError("TrainConfig: epochs and checkpoint_interval must be >= 1")
        if self.lr < 0 or self.clip <= 0:
            raise ValidationError("TrainConfig: lr must be >= 0 and clip > 0")
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
    grad_norm_mean: float  # of the pre-clip global gradient norms
    grad_norm_max: float
    clipped_fraction: float  # of examples whose norm exceeded cfg.clip
    p_gen_oov_mean: float | None  # of the gate at gold steps with an OOV (extended) target
    p_gen_in_vocab_mean: float | None  # ... with a fixed-vocabulary target; None if no such step

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


def _teacher_forced(pair, params, vocab, max_source_len, max_target_len):
    """Mean NLL as one graph node over the parameter tensors, greedy-match
    count, gold ids and each gold step's gate value."""
    x_text, y_text = _pair_texts(pair)
    src = tokenize(x_text)
    tgt = tokenize(y_text)
    if not src or not tgt:
        raise ValidationError("sequence_loss: empty source or target after tokenization")
    if len(src) > max_source_len:
        log.warning("source truncated from %d to %d tokens", len(src), max_source_len)
        src = src[:max_source_len]
    if len(tgt) > max_target_len:
        log.warning("target truncated from %d to %d tokens", len(tgt), max_target_len)
        tgt = tgt[:max_target_len]

    src_ids, ev = encode_source(src, vocab)
    states, encoder_cache = params.encode_source_ids(src_ids)
    state0 = params.initial_decoder_state(states)
    gold = encode_target(tgt, ev) + [EOS]
    (p, _, _, p_gen), cache = teacher_forced([BOS] + gold[:-1], ev, states, state0, params)
    steps = np.arange(len(gold))
    p_gold = p[steps, gold]
    # summed in step order, so the loss equals a step-by-step sum bit for bit
    nll = np.cumsum(-np.log(np.maximum(p_gold, LOG_FLOOR)))[-1]
    correct = int((np.argmax(p, axis=1) == gold).sum())

    def back(g):
        g_nll = g * (1.0 / len(gold))
        g_p = np.zeros_like(p)
        g_p[steps, gold] = np.divide(
            -g_nll, p_gold, out=np.zeros_like(p_gold), where=p_gold > LOG_FLOOR)
        g_state, g_H = teacher_forced_backward(cache, g_p)
        params.source_backward(encoder_cache, states, state0, g_H, g_state)

    loss = ag._node(nll * (1.0 / len(gold)), [t for _, t in params.named_parameters()], back)
    return loss, correct, gold, p_gen.tolist()


def sequence_loss(pair, params, vocab, max_source_len=TrainConfig.max_source_len,
                  max_target_len=TrainConfig.max_target_len):
    """Teacher-forced mean negative log-likelihood of one sentence pair."""
    return _teacher_forced(pair, params, vocab, max_source_len, max_target_len)[0]


def _mean(values):
    return float(np.mean(values)) if values else None


def clip_gradients(named_params, clip):
    """Scale all gradients so their global L2 norm is at most ``clip``.

    Returns the pre-clip norm. Direction is preserved exactly.
    """
    total = 0.0
    grads = []
    for _, p in named_params:
        if p.grad is not None:
            grads.append(p.grad)
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > clip and norm > 0.0:
        scale = clip / norm
        for g in grads:
            g *= scale
    return norm


class Adam:
    """Adam with bias correction over one parameter vector and its gradient
    vector (ModelParams.flat and .grad), updated in place."""

    def __init__(self, data, grad, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.data, self.grad = data, grad
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m, self.v = np.zeros_like(data), np.zeros_like(data)
        self._scratch = np.empty_like(data), np.empty_like(data)

    def step(self):
        """data -= (lr * m_hat) / (sqrt(v_hat) + eps), written through scratch
        vectors instead of temporaries; each operation's operands keep that order."""
        self.t += 1
        b1, b2, g, m, v = self.beta1, self.beta2, self.grad, self.m, self.v
        a, b = self._scratch
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)
        v *= b2
        np.multiply(g, g, out=a)
        v += np.multiply(a, 1 - b2, out=a)
        np.sqrt(np.divide(v, 1 - b2 ** self.t, out=a), out=a)
        a += self.eps
        np.divide(m, 1 - b1 ** self.t, out=b)
        b *= self.lr
        self.data -= np.divide(b, a, out=b)


def pairs_vocab(pairs, cfg):
    """Vocabulary over both sides of text pairs, under cfg.vocab_size and cfg.min_count."""
    corpus = [tokenize(x) for x, _ in pairs] + [tokenize(y) for _, y in pairs]
    return build_vocab(corpus, max_size=cfg.vocab_size, min_count=cfg.min_count)


def train(dataset, cfg, vocab=None, checkpoint_path=None, log_path=None):
    """Train a fresh model on (source, target) text pairs.

    Returns (ModelParams, TrainReport). When ``vocab`` is None one is built
    by ``pairs_vocab``. Each epoch replaces ``log_path`` whole with one JSON
    line per epoch so far, so a run that fails in its first epoch leaves the
    previous log as it was.
    """
    if not dataset:
        raise ValidationError("train: empty dataset")
    pairs = [_pair_texts(p) for p in dataset]
    if vocab is None:
        vocab = pairs_vocab(pairs, cfg)

    params = ModelParams(cfg.dims(vocab.size), seed=cfg.seed)
    opt = Adam(params.flat, params.grad, lr=cfg.lr)
    shuffle_rng = np.random.default_rng(cfg.seed)
    report = TrainReport()

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(pairs))
        nll_sum, correct, total = 0.0, 0, 0
        norms, gates = [], {True: [], False: []}  # gold id is OOV -> gate values
        for idx in order:
            params.zero_grad()
            loss, c, gold, p_gen = _teacher_forced(pairs[idx], params, vocab,
                                                   cfg.max_source_len, cfg.max_target_len)
            if not np.isfinite(loss.data):
                raise NumericalError(f"non-finite loss at epoch {epoch}, example {idx}")
            backward(loss)
            norm = clip_gradients(params.named_parameters(), cfg.clip)
            if not np.isfinite(norm):
                raise NumericalError(f"non-finite gradient norm at epoch {epoch}, example {idx}")
            opt.step()
            nll_sum += float(loss.data)
            correct += c
            total += len(gold)
            norms.append(norm)
            for gold_id, g in zip(gold, p_gen):
                gates[gold_id >= vocab.size].append(g)
        wall_time_s = time.perf_counter() - t0
        stats = EpochStats(epoch=epoch,
                           mean_nll=nll_sum / len(pairs),
                           token_accuracy=correct / max(total, 1),
                           wall_time_s=wall_time_s,
                           target_tokens_per_s=total / wall_time_s,
                           grad_norm_mean=float(np.mean(norms)), grad_norm_max=max(norms),
                           clipped_fraction=float(np.mean(np.array(norms) > cfg.clip)),
                           p_gen_oov_mean=_mean(gates[True]),
                           p_gen_in_vocab_mean=_mean(gates[False]))
        report.epochs.append(stats)
        log.info("epoch %d: %s", epoch, json.dumps(stats.as_dict()))
        if log_path is not None:
            with atomic_write(log_path) as fh:
                fh.writelines(json.dumps(e.as_dict()) + "\n" for e in report.epochs)
        if checkpoint_path is not None and epoch % cfg.checkpoint_interval == 0:
            save_checkpoint(params, checkpoint_path, vocab)
    if checkpoint_path is not None:
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
        for pair in pairs:
            x, y = _pair_texts(pair)
            fh.write(f"{x}\t{y}\n")


def save_checkpoint(params, path, vocab):
    """Binary checkpoint: magic, version, widths, vocab fingerprint, then
    params.flat (every tensor in parameter_layout order) as little-endian float64."""
    d = params.dims
    header = CHECKPOINT_MAGIC
    header += struct.pack("<H", CHECKPOINT_VERSION)
    header += struct.pack("<5I", d.vocab_size, d.d_emb, d.d_h, d.d_s, d.d_a)
    header += vocab.fingerprint()
    header += struct.pack("<Q", 8 * d.parameter_count())
    with atomic_write(path, binary=True) as fh:
        fh.write(header)
        fh.write(params.flat.astype("<f8", copy=False))


def load_checkpoint(path, expected_dims=None, expected_vocab=None):
    """Load a checkpoint; returns (ModelParams, vocab_fingerprint bytes).

    Every failure, a NaN or infinite weight included, raises a CheckpointError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    fixed = len(CHECKPOINT_MAGIC) + 2 + 20 + 32 + 8
    if len(blob) < fixed or blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: not a model checkpoint")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
    widths = struct.unpack_from("<5I", blob, 6)
    dims = ModelDims(vocab_size=widths[0], d_emb=widths[1], d_h=widths[2],
                     d_s=widths[3], d_a=widths[4])
    if expected_dims is not None:
        for name in ("vocab_size", "d_emb", "d_h", "d_s", "d_a"):
            want = getattr(expected_dims, name)
            got = getattr(dims, name)
            if want != got:
                raise WidthMismatchError(
                    f"{path}: checkpoint {name}={got}, run expects {name}={want}")
    fingerprint = blob[26:58]
    if expected_vocab is not None and expected_vocab.fingerprint() != fingerprint:
        raise VocabMismatchError(f"{path}: checkpoint was trained with a different vocabulary")
    (payload_len,) = struct.unpack_from("<Q", blob, 58)
    payload = memoryview(blob)[66:]
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
