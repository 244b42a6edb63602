"""Run the benchmark once per seed and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload haar-cli-sweep --seeds 1-5
    python3 perfbench/spread.py --workload tridiag-poly --seeds 1-10 --trace 1 \\
        --record perfbench/baseline.json

For every metric it prints the median over the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, and flags an end-to-end metric whose spread is not
below a third of its bound.  Count metrics must read the same in every
run.  ``--record`` merges the values into a JSON file, under the workload
and the trace mode.  Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path, default=None)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    ok = True
    record = json.loads(args.record.read_text()) if args.record and args.record.exists() else {}
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in specs}
        envs = []
        for seed in args.seeds:
            env, result = run_once(bench, workload, seed, seconds, args.trace)
            envs.append(env)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
            for name in specs:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        print(f"{workload}: {len(args.seeds)} runs of {seconds} s, trace {args.trace}")
        for name, spec in specs.items():
            s = summary[name] = summarise(values[name])
            flag = ""
            if spec["unit"] == "count" and len(set(values[name])) > 1:
                flag, ok = "  COUNT DIFFERS", False
            elif "bound" in spec and s["spread"] >= spec["bound"] / 3:
                flag, ok = f"  SPREAD >= bound/3 ({spec['bound'] / 3:.3f})", False
            print(f"  {name:32s} median {s['median']:.6g} {spec['unit']:8s} "
                  f"spread {s['spread']:.4f}{flag}")
        if args.record:
            entry = record.setdefault(workload, {})
            entry["trace" if args.trace else "end_to_end"] = {
                "seeds": args.seeds, "seconds": seconds, "runs": envs, "metrics": summary,
            }
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
