"""Spans and counts around the program's layers, for the traced run only.

``Tracer.install`` replaces each target function with a wrapper at the name
its callers look up (``paragen.training.full_step`` is not
``paragen.decoding.full_step``: each module imported its own binding), and
``uninstall`` puts the originals back. A span records name, start, end and
the index of its parent span; spans stay in memory until the run ends.
A target that no longer exists is skipped, and every metric that needs it
is reported absent.
"""

import importlib
import statistics
import time

# (module, attribute, span name, keep): keep(result, args) -> value stored on the span
TARGETS = [
    ("paragen.miner", "load_documents", "miner.ingest", None),
    ("paragen.miner", "align", "miner.align", lambda r, a: len(r)),
    ("paragen.miner", "segment", "miner.segment", None),
    ("paragen.miner", "build_index", "miner.index_build", None),
    ("paragen.miner", "query_similar", "miner.query", lambda r, a: [sim for _, sim in r]),
    ("paragen.miner", "InvertedIndex.scores", "miner.scores", lambda r, a: len(r)),
    ("paragen.miner", "write_pairs", "miner.write", None),
    ("paragen.vocab", "build_vocab", "vocab.build", None),
    ("paragen.training", "load_pairs_tsv", "training.load_pairs", None),
    ("paragen.training", "load_checkpoint", "training.checkpoint_load", None),
    ("paragen.training", "ModelParams", "model.init", None),
    ("paragen.training", "train", "training.train", lambda r, a: len(a[0])),
    ("paragen.training", "_teacher_forced", "training.forward", None),
    ("paragen.training", "full_step", "pointer.step.train", None),
    ("paragen.training", "backward", "autograd.backward", None),
    ("paragen.training", "clip_gradients", "training.clip", lambda r, a: r),
    ("paragen.training", "Adam.step", "training.adam", None),
    ("paragen.model", "encode", "model.encode", None),
    ("paragen.decoding", "beam_decode", "decoding.beam", None),
    ("paragen.decoding", "full_step", "pointer.step.decode", None),
]
# Graph nodes that keep a backward closure, counted per outermost span.
NODE_TARGET = ("paragen.autograd", "_node")


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    return owner, name


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, value]
        self.stack = []
        self.nodes = {}      # outermost span name -> graph nodes built under it
        self.missing = set()
        self._saved = []

    def install(self):
        for module, attr, name, keep in TARGETS:
            owner, leaf = _resolve(module, attr)
            if owner is None or not hasattr(owner, leaf):
                self.missing.add(name)
                continue
            self._patch(owner, leaf, self._span_wrapper(getattr(owner, leaf), name, keep))
        owner, leaf = _resolve(*NODE_TARGET)
        if owner is None or not hasattr(owner, leaf):
            self.missing.add("autograd.node")
        else:
            self._patch(owner, leaf, self._node_wrapper(getattr(owner, leaf)))

    def uninstall(self):
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved = []

    def _patch(self, owner, leaf, wrapper):
        # the class __dict__ entry keeps a classmethod/staticmethod descriptor intact
        original = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        self._saved.append((owner, leaf, original))
        setattr(owner, leaf, wrapper)

    def _span_wrapper(self, fn, name, keep):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    span[4] = keep(result, args)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _node_wrapper(self, fn):
        spans, stack, nodes = self.spans, self.stack, self.nodes

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out._backward is not None:
                root = spans[stack[0]][0] if stack else "none"
                nodes[root] = nodes.get(root, 0) + 1
            return out

        return counted

    def by_name(self):
        """name -> (durations, self times, values)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, value) in enumerate(self.spans):
            durs, selfs, values = out.setdefault(name, ([], [], []))
            durs.append(end - start)
            selfs.append(end - start - child[i])
            values.append(value)
        return out

    def dump(self):
        return [[n, round(s, 7), round(e, 7), p] for n, s, e, p, _ in self.spans]


def _median(xs, scale=1.0):
    return statistics.median(xs) * scale if xs else 0.0


def _p90(xs, scale=1.0):
    if len(xs) < 2:
        return _median(xs, scale)
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] * scale


# per-layer metric -> (unit, span names it needs)
LAYER_METRICS = {
    "miner.query_us": ("us", ["miner.query"]),
    "miner.query_share": ("share", ["miner.query"]),
    "miner.candidates_per_query": ("count", ["miner.scores"]),
    "miner.index_build_ms": ("ms", ["miner.index_build"]),
    "miner.segment_ms": ("ms", ["miner.segment", "miner.align"]),
    "miner.ingest_ms": ("ms", ["miner.ingest"]),
    "miner.hits": ("count", ["miner.query", "miner.align"]),
    "miner.hits_below_band": ("count", ["miner.query", "miner.align"]),
    "miner.hits_above_band": ("count", ["miner.query", "miner.align"]),
    "miner.pairs": ("count", ["miner.align"]),
    "miner.write_ms": ("ms", ["miner.write"]),
    "miner.threads2_ratio": ("ratio", ["miner.align"]),
    "pointer.step_us.train": ("us", ["pointer.step.train"]),
    "pointer.step_us.decode": ("us", ["pointer.step.decode"]),
    "autograd.backward_ms": ("ms", ["autograd.backward"]),
    "autograd.nodes_per_example": ("count", ["autograd.node", "training.train"]),
    "decoding.nodes_per_sentence": ("count", ["autograd.node", "decoding.beam"]),
    "model.encode_ms": ("ms", ["model.encode"]),
    "training.forward_ms": ("ms", ["training.forward"]),
    "training.adam_ms": ("ms", ["training.adam"]),
    "training.adam_mb": ("MB_computed", ["training.adam"]),
    "training.clip_ms": ("ms", ["training.clip"]),
    "training.clipped_fraction": ("share", ["training.clip"]),
    "training.self_ms": ("ms", ["training.train"]),
    "decoding.steps_per_sentence": ("count", ["decoding.beam", "pointer.step.decode"]),
    "decoding.search_self_ms": ("ms", ["decoding.beam"]),
    "decoding.sentence_ms_p90": ("ms", ["decoding.beam"]),
    "training.checkpoint_load_ms": ("ms", ["training.checkpoint_load"]),
    "training.checkpoint_mb": ("MiB", ["training.checkpoint_load"]),
    "training.checkpoint_init_share": ("share", ["training.checkpoint_load", "model.init"]),
    "vocab.build_ms": ("ms", ["vocab.build"]),
}


def layer_metrics(setup, ops, op_seconds, facts):
    """Per-layer values from the set-up tracer, the tracer of the traced
    operations (whose wall times sum to op_seconds) and workload facts.
    Layers this workload never runs read 0; layers that vanished are absent."""
    s, t = setup.by_name(), ops.by_name()
    get = lambda table, name, k: table.get(name, ([], [], []))[k]
    dur = lambda name: get(t, name, 0)
    val = lambda name: get(t, name, 2)
    jobs = len(dur("miner.align"))
    examples = sum(val("training.train"))
    sentences = len(dur("decoding.beam"))
    per = lambda total, n: total / n if n else 0.0
    sims = [x for hits in val("miner.query") for x in hits]
    lo, hi = facts.get("band", (0.0, 1.0))
    clip = facts.get("clip")
    loads = get(s, "training.checkpoint_load", 0)
    load_idx = {i for i, sp in enumerate(setup.spans) if sp[0] == "training.checkpoint_load"}
    init_in_load = sum(sp[2] - sp[1] for sp in setup.spans
                       if sp[0] == "model.init" and sp[3] in load_idx)
    values = {
        "miner.query_us": _median(dur("miner.query"), 1e6),
        "miner.query_share": per(sum(dur("miner.query")), op_seconds),
        "miner.candidates_per_query": per(sum(val("miner.scores")), len(val("miner.scores"))),
        "miner.index_build_ms": _median(dur("miner.index_build"), 1e3),
        "miner.segment_ms": per(sum(dur("miner.segment")), jobs) * 1e3,
        "miner.ingest_ms": _median(get(s, "miner.ingest", 0), 1e3),
        "miner.hits": per(len(sims), jobs),
        "miner.hits_below_band": per(sum(x < lo for x in sims), jobs),
        "miner.hits_above_band": per(sum(x > hi for x in sims), jobs),
        "miner.pairs": _median(val("miner.align")),
        "miner.write_ms": _median(dur("miner.write"), 1e3),
        "miner.threads2_ratio": facts.get("threads2_ratio", 0.0),
        "pointer.step_us.train": _median(dur("pointer.step.train"), 1e6),
        "pointer.step_us.decode": _median(dur("pointer.step.decode"), 1e6),
        "autograd.backward_ms": _median(dur("autograd.backward"), 1e3),
        "autograd.nodes_per_example": per(ops.nodes.get("training.train", 0), examples),
        "decoding.nodes_per_sentence": per(ops.nodes.get("decoding.beam", 0), sentences),
        "model.encode_ms": _median(dur("model.encode"), 1e3),
        "training.forward_ms": _median(dur("training.forward"), 1e3),
        "training.adam_ms": _median(dur("training.adam"), 1e3),
        # per element Adam reads p, g, m, v and writes p, m, v: 7 float64 values
        "training.adam_mb": facts.get("param_count", 0) * 7 * 8 / 1e6 if examples else 0.0,
        "training.clip_ms": _median(dur("training.clip"), 1e3),
        "training.clipped_fraction": per(sum(n > clip for n in val("training.clip")),
                                         len(val("training.clip"))),
        "training.self_ms": per(sum(get(t, "training.train", 1)), examples) * 1e3,
        "decoding.steps_per_sentence": per(len(dur("pointer.step.decode")), sentences),
        "decoding.search_self_ms": _median(get(t, "decoding.beam", 1), 1e3),
        "decoding.sentence_ms_p90": _p90(dur("decoding.beam"), 1e3),
        "training.checkpoint_load_ms": _median(loads, 1e3),
        "training.checkpoint_mb": facts.get("checkpoint_bytes", 0) / 2 ** 20,
        "training.checkpoint_init_share": per(init_in_load, sum(loads)),
        "vocab.build_ms": _median(get(s, "vocab.build", 0), 1e3),
    }
    missing = setup.missing | ops.missing
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, needs) in LAYER_METRICS.items()
            if not missing.intersection(needs)}
