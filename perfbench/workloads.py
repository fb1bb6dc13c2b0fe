"""The four workloads: inputs, the repeated operation, and its check.

A workload's operations form one round; a run repeats whole rounds until
its time is up. Each operation returns the program's output. ``capture``
turns that into a record, ``fingerprint`` into bytes: a label's first
record is checked in full, and every later output under that label must
fingerprint the same, since the program is deterministic.

Program functions are always reached through their module
(``pg.miner.align``), so the traced run sees every call.
"""

import hashlib
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

import checks
import inputs
import loaders
import oracles


@dataclass
class Op:
    label: str
    run: object       # () -> program output
    items: int        # throughput items the operation handles
    per_latency: int  # latency_ms is the operation's time divided by this


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part) if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.digest()


def _weights(params):
    return {name: p.data.copy() for name, p in params.named_parameters()}


# ---------------------------------------------------------------------------
# mine-zipf: one align + write_pairs job over the whole corpus


class Mine:
    name = "mine-zipf"
    topk_samples = 24

    def generate(self, seed, workdir):
        os.makedirs(os.path.join(workdir, loaders.MINE_DOCS))
        return inputs.mine_corpus(seed, os.path.join(workdir, loaders.MINE_DOCS))

    def operations(self, pg, inp, truth, workdir, seed):
        cfg = pg.miner.MineConfig()
        tsv = os.path.join(workdir, "pairs.tsv")

        def job():
            pairs = pg.miner.align(inp["docs"], cfg)
            pg.miner.write_pairs(pairs, tsv, tsv + ".jsonl")
            return pairs, tsv

        self.cfg = cfg
        return [Op("align", job, len(truth["sentences"]), 1)]

    def capture(self, output):
        pairs, tsv = output
        with open(tsv, encoding="utf-8") as fh:
            tsv_text = fh.read()
        with open(tsv + ".jsonl", encoding="utf-8") as fh:
            sidecar = fh.read()
        rows = [(p.x, p.y, p.similarity, p.x_sid, p.y_sid, p.x_source, p.y_source)
                for p in pairs]
        return rows, tsv_text, sidecar

    def fingerprint(self, record):
        return _digest(record)

    def check(self, pg, inp, truth, seed, label, record):
        rows, tsv_text, sidecar = record
        cfg = self.cfg
        index = pg.miner.build_index(pg.miner.sentence_records(inp["docs"], cfg))
        rng = np.random.default_rng([seed, 5])
        special = [s for pair in truth["planted"] + truth["syndicated"] for s in pair]
        third = self.topk_samples // 3
        sample = set(rng.choice(special, size=2 * third, replace=False).tolist())
        sample |= set(rng.choice(len(truth["sentences"]), size=third, replace=False).tolist())
        topk = {sid: pg.miner.query_similar(index.records[sid], index, cfg.k)
                for sid in sorted(sample)}
        tfidf = oracles.DenseTfidf([oracles.tokenize(s) for s in truth["sentences"]])
        return checks.check_mining(truth, tfidf, (cfg.min_sim, cfg.max_sim), rows,
                                   tsv_text, sidecar, topk, cfg.k)

    def facts(self, pg, inp, workdir, repeats=2):
        """The band, and align time with threads=2 over threads=1, untraced."""
        t = {1: [], 2: []}
        for _ in range(repeats):
            for threads in t:
                start = time.perf_counter()
                pg.miner.align(inp["docs"], self.cfg, threads=threads)
                t[threads].append(time.perf_counter() - start)
        return {"band": (self.cfg.min_sim, self.cfg.max_sim),
                "threads2_ratio": statistics.median(t[2]) / statistics.median(t[1])}


# ---------------------------------------------------------------------------
# train-copy-v54 and train-v10k: one train() call over a fixed slice


class Train:
    def __init__(self, name, n_pairs, per_call, make_pairs):
        self.name = name
        self.vocab_size = loaders.SETUP[name][1]
        self.n_pairs = n_pairs
        self.per_call = per_call
        self.make_pairs = make_pairs

    def generate(self, seed, workdir):
        inputs.write_tsv(self.make_pairs(seed, self.n_pairs),
                         os.path.join(workdir, loaders.PAIRS_TSV))
        return {}

    def operations(self, pg, inp, truth, workdir, seed):
        if inp["vocab"].size != self.vocab_size:
            raise RuntimeError(f"{self.name}: vocabulary has {inp['vocab'].size} ids, "
                               f"the workload needs {self.vocab_size}")
        data = inp["pairs"][:self.per_call]
        cfg = pg.training.TrainConfig(seed=seed, epochs=1, vocab_size=self.vocab_size)
        tokens = sum(len(pg.vocab.tokenize(y)) + 1 for _, y in data)
        self.cfg, self.data = cfg, data
        return [Op("train", lambda: pg.training.train(data, cfg, vocab=inp["vocab"]),
                   tokens, len(data))]

    def capture(self, output):
        return output  # (ModelParams, TrainReport)

    def fingerprint(self, record):
        params, report = record
        return _digest(report.final_nll, *(p.data for _, p in params.named_parameters()))

    def check(self, pg, inp, truth, seed, label, record):
        params, report = record
        vocab = inp["vocab"]
        trained = _weights(params)
        initial = _weights(pg.training.ModelParams(self.cfg.dims(vocab.size), seed=self.cfg.seed))
        example = self.data[0]
        params.zero_grad()
        loss = pg.training.sequence_loss(example, params, vocab)
        pg.autograd.backward(loss)
        analytic = {name: p.grad.copy() for name, p in params.named_parameters()}
        elements = checks.probe_elements(analytic, np.random.default_rng([seed, 6]))
        tok = oracles.tokenize
        return checks.check_training(
            [(tok(x), tok(y)) for x, y in self.data], vocab.token_to_id, initial, trained,
            report.final_nll, (tok(example[0]), tok(example[1])), analytic,
            float(loss.data), elements)

    def facts(self, pg, inp, workdir):
        n = sum(p.data.size for _, p in
                pg.training.ModelParams(self.cfg.dims(self.vocab_size), seed=0).named_parameters())
        return {"param_count": n, "clip": self.cfg.clip}


# ---------------------------------------------------------------------------
# generate-beam4-v10k: one beam_decode call per sentence


class Generate:
    name = "generate-beam4-v10k"
    model_seed = 20240216   # the checkpoint never depends on --seed
    per_round = 4
    greedy_checked = 2

    def generate(self, seed, workdir):
        import paragen as pg  # input making only; set-up is timed apart

        words = inputs.word_list(9996)
        vocab = pg.vocab.Vocabulary(words)
        params = pg.model.ModelParams(pg.model.ModelDims(vocab_size=vocab.size),
                                      seed=self.model_seed)
        pg.training.save_checkpoint(params, os.path.join(workdir, loaders.CHECKPOINT), vocab)
        vocab.save(os.path.join(workdir, loaders.VOCAB))
        return {"sources": inputs.decode_sources(seed, self.per_round, words)}

    def operations(self, pg, inp, truth, workdir, seed):
        cfg = pg.decoding.BeamConfig(beam_width=4)
        self.cfg = cfg
        return [Op(f"sentence{i}",
                   lambda src=src: pg.decoding.beam_decode(src, inp["params"], inp["vocab"], cfg),
                   1, 1)
                for i, src in enumerate(truth["sources"])]

    def capture(self, output):
        return [(h.ids, h.log_prob, tuple(h.surface)) for h in output]

    def fingerprint(self, record):
        return _digest(record)

    def check(self, pg, inp, truth, seed, label, record):
        if not hasattr(self, "model"):
            self.model = oracles.StraightLineModel(_weights(inp["params"]))
        i = int(label[len("sentence"):])
        src = truth["sources"][i]
        greedy = None
        if i < self.greedy_checked:
            params, vocab = inp["params"], inp["vocab"]
            one = pg.decoding.BeamConfig(beam_width=1, max_len=self.cfg.max_len,
                                         length_norm=self.cfg.length_norm)
            greedy = (pg.decoding.greedy_decode(src, params, vocab, max_len=self.cfg.max_len),
                      pg.decoding.beam_decode(src, params, vocab, one)[0].surface)
        return checks.check_beam(self.model, oracles.tokenize(src), inp["vocab"].id_to_token,
                                 record, self.cfg.length_norm, greedy)

    def facts(self, pg, inp, workdir):
        return {"checkpoint_bytes": os.path.getsize(os.path.join(workdir, loaders.CHECKPOINT))}


WORKLOADS = {w.name: w for w in [
    Mine(),
    Train("train-copy-v54", 400, 48, inputs.copy_pairs),
    Train("train-v10k", 3000, 8, inputs.zipf_pairs),
    Generate(),
]}
