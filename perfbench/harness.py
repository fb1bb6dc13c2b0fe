"""Run one workload in this process and print its result as the last line.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S --trace 0|1

run.py starts this in a fresh interpreter with a fixed hash seed and one
BLAS thread. Order of a run: reference loop; inputs from the seed, made in a
child process; operations repeated in whole rounds until S seconds have
passed, with set-up timed in fresh interpreters (probe.py) between rounds;
peak RSS; checks of every output, outside the timed region; reference loop
again; result file under perfbench/results/.

With --trace 0 the result holds the end-to-end metrics. With --trace 1,
rounds alternate untraced and traced, the per-layer metrics come from the
traced rounds, and the difference between the two is the tracing overhead.
"""

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import loaders
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 7


def ref_loop_ms():
    """A fixed pure-Python loop: how fast the machine is running right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def machine_facts(np):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "hash_seed": os.environ.get("PYTHONHASHSEED")}


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "paragen", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def setup_probe(name, workdir):
    """Set-up time of the workload in a fresh interpreter (probe.py)."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), name, workdir],
                         stdout=subprocess.PIPE, check=True, timeout=120, text=True)
    return float(out.stdout.strip().splitlines()[-1])


def run(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import paragen as pg

    if os.path.dirname(os.path.dirname(os.path.abspath(pg.__file__))) != os.path.join(ROOT, "src"):
        raise SystemExit(f"paragen imported from {pg.__file__}, not from this checkout")
    wl = workloads.WORKLOADS[args.workload]
    ref_start = ref_loop_ms()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        return _run(args, pg, np, wl, workdir, ref_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def make_inputs(name, seed, workdir):
    """Write a workload's inputs and its truth.json; run in a child process so
    that input making stays out of the run's peak RSS."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    truth = workloads.WORKLOADS[name].generate(seed, workdir)
    with open(os.path.join(workdir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)


def _run(args, pg, np, wl, workdir, ref_start):
    clock = [time.perf_counter()]
    phase_s = {}

    def lap(name):
        clock.append(time.perf_counter())
        phase_s[name] = clock[-1] - clock[-2]

    subprocess.run([sys.executable, __file__, "--workload", wl.name, "--seed", str(args.seed),
                    "--make-inputs", workdir], check=True, timeout=300)
    with open(os.path.join(workdir, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    lap("inputs")

    probes = [setup_probe(wl.name, workdir)]
    setup_tracer, op_tracer = tracing.Tracer(), tracing.Tracer()
    load, vocab_size = loaders.SETUP[wl.name]
    if args.trace:
        setup_tracer.install()
    try:
        inp = load(pg, workdir, vocab_size)
    finally:
        setup_tracer.uninstall()
    ops = wl.operations(pg, inp, truth, workdir, args.seed)
    times, first, mismatched = repeat_rounds(args, wl, ops, op_tracer,
                                             lambda: probes.append(setup_probe(wl.name, workdir)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(wl.name, workdir))
    lap("operations")

    bad_labels = set()
    for label, record in first.items():
        problems = wl.check(pg, inp, truth, args.seed, label, record)
        for p in problems[:5]:
            print(f"check failed: {label}: {p}", file=sys.stderr)
        if problems:
            bad_labels.add(label)
    all_ops = times[False] + times[True]
    failed = mismatched + sum(1 for op, _ in all_ops if op.label in bad_labels)
    lap("checks")

    latencies = [s / op.per_latency for op, s in times[False]]
    if args.trace:
        traced = [s / op.per_latency for op, s in times[True]]
        metrics = tracing.layer_metrics(setup_tracer, op_tracer,
                                        sum(s for _, s in times[True]),
                                        wl.facts(pg, inp, workdir))
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (statistics.median(traced) / statistics.median(latencies) - 1),
            "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "throughput_per_s": {"value": sum(op.items for op, _ in times[False])
                                 / sum(s for _, s in times[False]), "unit": "1/s"},
            "latency_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    ref_end = ref_loop_ms()
    lines = src_lines()
    if args.trace:
        metrics["host.ref_loop_ms"] = {"value": (ref_start + ref_end) / 2, "unit": "ms"}
        metrics["host.src_lines"] = {"value": lines, "unit": "lines"}
    lap("end")
    print("phase seconds: " + ", ".join(f"{k} {v:.1f}" for k, v in phase_s.items()),
          file=sys.stderr)

    result = {"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
              "metrics": metrics}
    summary = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine_facts(np), "src_lines": lines,
               "host.ref_loop_ms": [ref_start, ref_end], "setup_s_probes": probes,
               "phase_seconds": phase_s, "op_seconds": [s for _, s in all_ops],
               "result": result}
    if args.trace:
        summary["missing_targets"] = sorted(setup_tracer.missing | op_tracer.missing)
        summary["spans"] = {"setup": setup_tracer.dump(), "ops": op_tracer.dump()}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return result


def repeat_rounds(args, wl, ops, tracer, probe):
    """Run whole rounds of ``ops`` until args.seconds have passed.

    With tracing, odd rounds run traced. ``probe`` is called between rounds
    every args.seconds / (SETUP_PROBES - 1), so that the set-up probes sample
    the same machine phases as the operations. Returns
    ({traced: [(op, seconds)]}, {label: first record}, outputs that differed
    from their label's first).
    """
    first, verdict = {}, {}
    mismatched = 0
    times = {False: [], True: []}
    rounds, probes = 0, 1
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            done = []
            for op in ops:
                start = time.perf_counter()
                out = op.run()
                done.append((op, time.perf_counter() - start, out))
        finally:
            tracer.uninstall()
        for op, seconds, out in done:
            times[traced].append((op, seconds))
            record = wl.capture(out)
            fp = wl.fingerprint(record)
            if op.label not in first:
                first[op.label], verdict[op.label] = record, fp
            elif fp != verdict[op.label]:
                mismatched += 1
                print(f"{op.label}: output differs from its first run", file=sys.stderr)
        del done, out
        rounds += 1
        elapsed = time.perf_counter() - begin
        if elapsed >= probes * args.seconds / (SETUP_PROBES - 1):
            probe()
            probes += 1
        if elapsed >= args.seconds and (rounds >= 2 or not args.trace):
            return times, first, mismatched


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-inputs", metavar="WORKDIR",
                        help="only write the workload's inputs into WORKDIR")
    args = parser.parse_args()
    if args.make_inputs:
        make_inputs(args.workload, args.seed, args.make_inputs)
        return
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
