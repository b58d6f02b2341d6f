"""Layered benchmark for transfarm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads (see README.md): desk-sweep, paper-cell, infer-cli.  Each is a
closed loop in this one process: a warm-up operation at toy size runs
first, then the next operation starts when the last has returned, passes
repeat until --seconds have gone by, and every output is checked (against
reference.json on seed 0).

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1
alternates an untraced and a traced pass over the same inputs and prints
the per-layer metrics from the traced ones; the spans are written to
.bench_out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  BLAS runs on one thread and the
process (with its children) is pinned to one CPU.

End-to-end times are host-adjusted: each timed step is bracketed by a
probe, a fixed pure-Python loop, and its seconds are scaled by
PROBE_REF_S / (mean of the two probe times).  On a shared host whose speed
drifts by tens of percent over minutes this cancels most of the drift; a
change to the library moves the step and not the probe.  Raw seconds are
kept in the result file.
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
IMPORT_REPEATS = 5
# The probe: PROBE_REPEATS runs of a PROBE_LOOP-step loop, median taken.
# A host-adjusted second is the time in which the probe takes PROBE_REF_S.
PROBE_LOOP = 100_000
PROBE_REPEATS = 3
PROBE_REF_S = 0.008

END_TO_END = {"wall_s": "s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its suffix."""
    last = name.rsplit(".", 1)[1]
    if last == "s":
        return "s"
    if last == "bytes":
        return "bytes"
    if last.endswith(("_ratio", "_frac")):
        return "ratio"
    if last == "kkt_max":
        return "1"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every workload for the smoke test")
    parser.add_argument("--record-reference", action="store_true",
                        help="run the reference seed's whole input pool and store its outputs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "transfarm").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _median_time(fn, repeats: int):
    times, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return value, statistics.median(times)


def _spin():
    acc = 0.0
    for i in range(PROBE_LOOP):
        acc += i * 0.5
    return acc


def probe_s() -> float:
    """How fast the host runs now: the median time of a fixed loop."""
    return _median_time(_spin, PROBE_REPEATS)[1]


class HostClock:
    """Converts measured seconds to host-adjusted seconds.

    Call ``adjust`` right after each timed step: it probes again and scales
    the step by that probe and the one before it, taken by ``mark`` or by
    the previous ``adjust``.  The probes next to a step are used, not a
    median over the run, because the host's speed changes within a run."""

    def __init__(self):
        self.probes = []
        self.mark()

    def mark(self):
        self.last = probe_s()
        self.probes.append(self.last)

    def adjust(self, seconds: float) -> float:
        before = self.last
        self.mark()
        return seconds * 2.0 * PROBE_REF_S / (before + self.last)

    def timed(self, fn):
        """Run fn; returns (value, raw seconds, adjusted seconds)."""
        self.mark()
        start = time.perf_counter()
        value = fn()
        seconds = time.perf_counter() - start
        return value, seconds, self.adjust(seconds)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so the probe and the
    timed steps run on the same core; returns it, or None if unsupported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(clock: HostClock, cpu) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": _cpu_model(),
        "blas": {
            "name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
            "threads": BLAS_THREADS,
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "source_digest": _source_digest(),
        "probe_s": {
            "ref": PROBE_REF_S,
            "median": statistics.median(clock.probes),
            "min": min(clock.probes),
            "max": max(clock.probes),
            "count": len(clock.probes),
        },
    }


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


def build_pool(workload, seed: int, workdir: str, clock: HostClock | None = None):
    """Build every input of the pool; returns the inputs and, with a clock,
    each build's host-adjusted time."""
    pool, times = [], []
    for i in range(workload.pool):
        if clock is None:
            pool.append(workload.build(seed, i, workdir))
            continue
        item, _, adjusted = clock.timed(lambda: workload.build(seed, i, workdir))
        pool.append(item)
        times.append(adjusted)
    return pool, times


def timed_setup(workload, seed: int, workdir: str, clock: HostClock):
    """Set-up time: the median time to import the package in a fresh
    interpreter plus the pool's size times the median time to build one
    input (for infer-cli, generating a dataset and writing its CSVs)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    imports = [
        clock.timed(lambda: subprocess.run(
            [sys.executable, "-c", "import transfarm.cli"],
            env=env, cwd=ROOT, check=True, timeout=120,
        ))[2]
        for _ in range(IMPORT_REPEATS)
    ]
    pool, builds = build_pool(workload, seed, workdir, clock)
    return pool, statistics.median(imports) + len(pool) * statistics.median(builds)


def warm_up(name: str, seed: int, workdir: str):
    """One untimed operation at toy size, so lazy imports and first-call
    costs are paid before the timed region."""
    from workloads import WORKLOADS

    toy = WORKLOADS[name]("toy")
    warm_dir = os.path.join(workdir, "warm-up")
    os.makedirs(warm_dir)
    toy.run(toy.build(seed, 0, warm_dir))


def run_pass(workload, pool, index: int, reference, clock: HostClock, tracer=None):
    """One pass: returns its summed host-adjusted operation time and
    per-op records."""
    ops = []
    clock.mark()
    for j in range(workload.pass_len):
        i = index * workload.pass_len + j
        item = pool[i % len(pool)]
        ref = reference[i % len(reference)] if reference else None
        span = tracer.open("bench.op") if tracer else None
        start = time.perf_counter()
        try:
            output = workload.run(item)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(span)
        adjusted = clock.adjust(seconds)
        problems = [error] if error else workload.check(item, output, ref)
        for msg in problems:
            print(f"op {i} failed: {msg}", file=sys.stderr)
        ops.append({"op": i, "seconds": seconds, "adjusted_s": adjusted, "problems": problems})
    return sum(op["adjusted_s"] for op in ops), ops


def measure(workload, pool, seconds: float, trace: bool, reference, clock: HostClock):
    """Run passes until `seconds` have elapsed; returns (ops, metrics, spans)
    with host-adjusted times."""
    from tracer import Tracer, layer_metrics

    start = time.perf_counter()
    ops, untraced, traced, layers, spans = [], [], [], [], []
    index = 0
    while True:
        if trace:
            # the same inputs untraced and traced, so the ratio is overhead only
            t, recs = run_pass(workload, pool, 0, reference, clock)
            untraced.append(t)
            ops += recs
            with Tracer() as tracer:
                t, recs = run_pass(workload, pool, 0, reference, clock, tracer)
            roots = [i for i, s in enumerate(tracer.spans) if s.name == "bench.op"]
            traced.append(t)
            layers.append(layer_metrics(tracer.spans, roots))
            spans.append(tracer.records())
        else:
            t, recs = run_pass(workload, pool, index, reference, clock)
            untraced.append(t)
        ops += recs
        index += 1
        if time.perf_counter() - start >= seconds:
            break

    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
    else:
        metrics = {
            "wall_s": sum(untraced) / len(untraced),
            "op_s_p50": statistics.median(op["adjusted_s"] for op in ops),
        }
    return ops, metrics, spans


def load_reference(key: str, seed: int):
    from workloads import REFERENCE_SEED

    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(key)


def record_reference(workload, key: str, workdir: str) -> int:
    """Store the outputs of the reference seed's whole pool."""
    from workloads import REFERENCE_SEED

    pool, _ = build_pool(workload, REFERENCE_SEED, workdir)
    outputs = []
    for i, item in enumerate(pool):
        output = workload.run(item)
        problems = workload.check(item, output, None)
        if problems:
            print(f"op {i}: {problems}", file=sys.stderr)
            return 1
        outputs.append(workload.summarize(item, output))
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[key] = outputs
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pool)} outputs for {key}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "transfarm" / "__init__.py").is_file():
        print(f"error: no transfarm package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.size)
    key = f"{args.workload}/{args.size}"

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.record_reference:
            return record_reference(workload, key, workdir)
        reference = load_reference(key, args.seed)
        cpu = pin_to_one_cpu()
        clock = HostClock()
        if args.trace:  # set-up time is an end-to-end metric only
            pool, setup_s = build_pool(workload, args.seed, workdir)[0], None
        else:
            pool, setup_s = timed_setup(workload, args.seed, workdir, clock)
        warm_up(args.workload, args.seed, workdir)
        ops, metrics, spans = measure(workload, pool, args.seconds, bool(args.trace),
                                      reference, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    else:
        units = {name: unit_of(name) for name in metrics}
    failed = sum(1 for op in ops if op["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    prov = provenance(clock, cpu)
    record = dict(result, workload=args.workload, seed=args.seed, size=args.size,
                  seconds=args.seconds, provenance=prov, ops=ops,
                  reference_checked=reference is not None)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for n, records in enumerate(spans):
                for rec in records:
                    fh.write(json.dumps(dict(rec, traced_pass=n)) + "\n")

    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"{args.workload} seed={args.seed} ops={len(ops)} failed={failed}"
          f" fail_frac={failed / len(ops):.4g} reference_checked={reference is not None}"
          f" raw_op_s_p50={statistics.median(op['seconds'] for op in ops):.6g}")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
