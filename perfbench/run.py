"""Benchmark of the vnentropy estimators: one closed-loop caller per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tridiag-poly --seed 1 --seconds 20 --trace 0

The run imports the library from the checkout's ``src``, builds the
workload's inputs from ``--seed`` (set-up, repeated and timed), runs one
untimed warm-up operation, then issues operations one after another until
``--seconds`` have passed.  Every operation's output is checked; a failed
check or an exception counts as a failed operation and is never retried.
``setup_s`` is the fastest of the set-up repeats.
Repeated operations on the same inputs must give bitwise equal estimates.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates traced and untraced operations and reports the
per-layer metrics: spans recorded by wrappers around library functions
(see ``probes.py``), exact work counts, which must repeat from one traced
operation to the next, and the tracing overhead.  The spans are written to
``perfbench/out/trace-<workload>-<seed>.json``.

BLAS is pinned to one thread before numpy loads; the sweep's own pool has
two threads.  The last line of standard output is the JSON result; the
line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("tridiag-poly", "lowrank-sketch", "haar-cli-sweep")
# Latencies of single estimator calls, taken from the untraced operations of
# a --trace 1 run; each is reported on the workload that makes the call and
# as 0 elsewhere, because every workload reports every per-layer metric.
PART_NAMES = (
    "taylor_s",
    "chebyshev_s",
    "sketch_gaussian_s",
    "sketch_srht_s",
    "sketch_countsketch_s",
    "sweep_s",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        p.error("--seed must lie in [0, 2**32)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, workload) -> dict:
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "vnentropy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "pool_threads": getattr(workload, "threads", None),
        "git_commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
    }


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Loop:
    """Closed loop over one workload: counts attempts and failures, keeps the
    first operation's estimates as the reference for every later one."""

    def __init__(self, workload, tracer, probes):
        self.workload, self.tracer, self.probes = workload, tracer, probes
        self.attempted = self.failed = 0
        self.reference = None
        self.counts = None
        self.untraced: list[tuple[float, object]] = []
        self.traced: list[tuple[float, object, list]] = []

    @contextmanager
    def tracing(self, on: bool):
        if not on:
            yield
            return
        self.probes.install(self.tracer)
        try:
            yield
        finally:
            self.tracer.restore()

    def operation(self, traced: bool = False, keep: bool = True) -> None:
        self.attempted += 1
        try:
            with self.tracing(traced):
                t0 = perf_counter()
                outcome = self.workload.run()
                elapsed = perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        finally:
            spans = self.tracer.take() if traced else []
        problems = list(outcome.problems)
        bits = {k: float(v).hex() for k, v in outcome.estimates.items()}
        if self.reference is None:
            self.reference = bits
        elif bits != self.reference:
            problems.append("estimates differ bitwise from the first operation")
        if traced:
            counts = self.probes.op_counts(spans)
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                problems.append(f"work counts {counts} differ from {self.counts}")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"{self.workload.name}: {p}", file=sys.stderr)
        if keep and traced:
            self.traced.append((elapsed, outcome, spans))
        elif keep:
            self.untraced.append((elapsed, outcome))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vnentropy" / "__init__.py").is_file():
        print(f"run.py: no vnentropy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probes
    import workloads
    from tracer import Tracer, spans_to_json

    specs = metric_specs()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(workload, tracer, probes)
        setup_s, setup_spans = [], []
        for _ in range(workload.setup_repeats):
            with loop.tracing(bool(args.trace)):
                t0 = perf_counter()
                workload.setup()
                setup_s.append(perf_counter() - t0)
            setup_spans += tracer.take()

        loop.operation(keep=False)  # warm-up: first-call and allocator costs
        # Peak RSS of set-up plus one operation, as a user running the
        # workload once would see it.  Later operations are left out: the
        # sweep's pool threads keep freed memory in their own malloc arenas,
        # so the peak of a long run depends on how threads were scheduled.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Traced and untraced operations alternate by attempt, not by
        # success, so the loop ends even when one kind always fails.
        deadline = perf_counter() + args.seconds
        needed = 3 if args.trace else 1  # two traced to compare counts, one untraced
        done = 0
        while done < needed or perf_counter() < deadline:
            loop.operation(traced=bool(args.trace) and done % 2 == 0)
            done += 1
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, workload)
    untraced_s = [t for t, _ in loop.untraced]
    traced_s = [t for t, _, _ in loop.traced]
    # A metric that no operation produced (all of its kind raised) is null;
    # the result then reads correct: false through the failed operations.
    computed = {}
    if args.trace:
        if loop.traced:
            computed = probes.layer_metrics(
                [(spans, {**o.parts, **o.facts}) for _, o, spans in loop.traced], setup_spans
            )
        if loop.untraced:
            for name in PART_NAMES:
                computed[name] = statistics.median(
                    o.parts.get(name, 0.0) for _, o in loop.untraced
                )
        if traced_s and untraced_s:
            computed["trace_overhead_frac"] = (
                statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
            )
        computed["fail_frac"] = loop.failed / loop.attempted
        listed = specs["per_layer"]
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "env": env,
                    "setup_spans": spans_to_json(setup_spans),
                    "operations": [
                        {"seconds": t, "spans": spans_to_json(spans)} for t, _, spans in loop.traced
                    ],
                },
                fh,
            )
    else:
        if untraced_s:
            computed["latency_s"] = statistics.median(untraced_s)
        # The fastest set-up: other load on the machine only ever adds time,
        # so the minimum repeats best from run to run.
        computed["setup_s"] = min(setup_s)
        computed["peak_rss_mb"] = peak_rss_mb
        listed = specs["end_to_end"]
    metrics = {m["name"]: {"value": computed.get(m["name"]), "unit": m["unit"]} for m in listed}
    env.update(
        attempted=loop.attempted,
        operation_s=untraced_s,
        traced_operation_s=traced_s,
        setup_s=setup_s,
        work_counts=loop.counts,
    )
    print(json.dumps({"environment": env}))
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
