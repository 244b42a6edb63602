"""Command-line surface: generate test matrices, run estimators, sweep grids.

``estimate`` emits one JSON record per line; ``bench`` emits a CSV with a
trailing per-cell summary block.  All commands are deterministic for a
fixed seed; pass ``--no-timings`` to drop wall-clock fields so repeated
runs (and runs with different ``--threads``) are byte-identical.

Exit codes: 0 success (possibly with warnings), 1 usage error,
2 numerical or I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import linalg
from .chebyshev import chebyshev_entropy
from .densmat import (
    SparseSymMatrix,
    SpectralModel,
    generate_haar_like_density,
    generate_linear_plus_uniform,
    generate_low_rank_density,
    generate_tridiagonal_poisson,
    read_matrix_market,
    write_matrix_market,
)
from .report import EstimatorConfig, check_assumptions, relative_error
from .rng import RngStream
from .sketch import ProjectionSpec, default_s_sketch, sketch_entropy
from .taylor import taylor_entropy

EXIT_USAGE = 1
EXIT_NUMERICAL = 2
FAMILIES = ("haar", "tridiagonal", "lowrank", "linuniform")
METHODS = ("exact", "taylor", "chebyshev", "sketch")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_seed(text: str) -> int:
    t = text.strip().lower()
    try:
        value = int(t, 16) if t.startswith("0x") else int(t, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not decimal or 0x-hex")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def parse_u_mode(text: str) -> tuple[str, float | None]:
    if text in ("six", "raw"):
        return text, None
    if text.startswith("manual:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad manual u value in {text!r}")
        if not 0.0 < value <= 1.0:
            raise argparse.ArgumentTypeError(f"manual u must lie in (0, 1], got {value}")
        return "manual", value
    raise argparse.ArgumentTypeError(
        f"u-mode {text!r} must be six, raw, or manual:<value>"
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def sidecar_path(matrix_path) -> Path:
    return Path(str(matrix_path) + ".spectrum")


def write_spectrum(probs: np.ndarray, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for p in probs:
            fh.write(f"{p:.17g}\n")


def read_spectrum(path) -> np.ndarray:
    probs = np.loadtxt(path, dtype=np.float64, ndmin=1)
    return np.sort(probs)[::-1].copy()


def load_matrix(path) -> tuple[SparseSymMatrix, SpectralModel | None]:
    matrix = read_matrix_market(path)
    side = sidecar_path(path)
    model = SpectralModel(probs=read_spectrum(side)) if side.exists() else None
    return matrix, model


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    stream = RngStream(args.seed)
    if args.family == "haar":
        matrix, model = generate_haar_like_density(args.n, stream)
    elif args.family == "tridiagonal":
        matrix, model = generate_tridiagonal_poisson(args.n)
    elif args.family == "lowrank":
        if args.k is None:
            raise UsageError("--k is required for the lowrank family")
        matrix, model = generate_low_rank_density(args.n, args.k, args.decay, stream)
    else:
        if args.k is None:
            raise UsageError("--k is required for the linuniform family")
        matrix, model = generate_linear_plus_uniform(args.n, args.k, stream)

    write_matrix_market(matrix, args.out)
    if model.probs is not None:
        write_spectrum(model.probs, sidecar_path(args.out))
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


class UsageError(Exception):
    pass


def _estimator_config(args, need_s: bool = True) -> EstimatorConfig:
    if args.m is None and args.ell is None:
        raise UsageError("provide --ell (with --eps/--delta) or an explicit --m")
    if args.m is not None and need_s and args.s is None and not args.nte:
        raise UsageError("provide --s alongside --m (or use --nte)")
    mode, value = args.u_mode
    return EstimatorConfig(
        epsilon=args.eps,
        delta=args.delta,
        ell=args.ell,
        u_mode=mode,
        u_value=value,
        m_override=args.m,
        s_override=args.s,
        nte=args.nte,
        seed=args.seed,
    )


def cmd_estimate(args) -> int:
    matrix, model = load_matrix(args.matrix)
    record: dict = {"method": args.method, "n": matrix.n, "nnz": matrix.nnz}
    warnings: list[str] = []
    wall_ms: float | None = None
    exact = None

    if args.compute_exact or args.method == "exact":
        t0 = time.perf_counter()
        exact, oracle_model = linalg.exact_entropy(matrix)
        oracle_ms = (time.perf_counter() - t0) * 1e3
        if model is None:
            model = oracle_model

    if args.method == "exact":
        record["seed"] = args.seed
        record["estimate"] = exact
        wall_ms = oracle_ms
        record_exact, rel = exact, 0.0
    elif args.method in ("taylor", "chebyshev"):
        cfg = _estimator_config(args)
        run = taylor_entropy if args.method == "taylor" else chebyshev_entropy
        rep = run(matrix, cfg, model)
        record.update(m=rep.m_used, s=rep.s_used, u=rep.u_used, seed=args.seed)
        record["estimate"] = rep.estimate
        wall_ms = rep.wall_ms
        record_exact, rel = rep.exact, rep.rel_err
        warnings.extend(rep.warnings)
        if exact is not None and record_exact is None:
            record_exact = exact
            rel = relative_error(rep.estimate, exact) if exact > 0 else None
    else:  # sketch
        if args.rank is None or args.proj is None:
            raise UsageError("sketch needs --rank and --proj")
        kind = "exact_debug" if args.proj == "exact" else args.proj
        if args.s:
            s = args.s
        elif kind == "exact_debug":
            s = matrix.n
        else:
            s = default_s_sketch(kind, matrix.n, args.rank, args.eps)
        t0 = time.perf_counter()
        out = sketch_entropy(
            matrix, args.rank, ProjectionSpec(kind, max(1, s), RngStream(args.seed))
        )
        wall_ms = (time.perf_counter() - t0) * 1e3
        record.update(s=out.s, proj=out.kind, rank=args.rank, seed=args.seed)
        record["probs"] = [float(p) for p in out.probs_tilde]
        record["estimate"] = out.entropy_tilde
        checks = check_assumptions(model, k=args.rank)
        warnings.extend(checks.warnings())
        record_exact = rel = None
        if model is not None and model.probs is not None:
            record_exact = linalg.entropy_from_probs(model.probs, linalg.ENTROPY_CLAMP)
            rel = None if record_exact <= 0 else relative_error(out.entropy_tilde, record_exact)

    if not math.isfinite(record["estimate"]):
        raise ValueError(f"estimate is not finite: {record['estimate']!r}")
    if not args.no_timings and wall_ms is not None:
        record["wall_ms"] = wall_ms
    if record_exact is not None:
        record["exact"] = record_exact
        if rel is not None:
            record["rel_err"] = rel
        else:
            record["abs_err"] = abs(record["estimate"] - record_exact)
            warnings.append("exact entropy is zero (pure state); reporting abs_err")
    record["warnings"] = warnings
    line = json.dumps(record)
    if args.out:
        with open(args.out, "a", encoding="ascii") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _parse_grid_entry(parse, value, what: str):
    # str() first, so non-string JSON values (floats, booleans) are rejected too
    try:
        return parse(str(value))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"grid {what} {value!r}: {exc}")


def _load_grid(path) -> dict:
    """Read a bench grid and validate it before any cell runs.

    Seeds become ints in parse_seed's range and each ``u_modes`` entry
    becomes a ``(text, (mode, value))`` pair.  Repetition r of a cell runs
    seed + r * 2**32, so repeated grids need seeds below 2**32.
    """
    with open(path, "r", encoding="utf-8") as fh:
        grid = json.load(fh)
    for key in ("matrix", "methods", "seeds"):
        if key not in grid:
            raise UsageError(f"grid is missing the {key!r} field")
    for key in ("methods", "seeds"):
        if not isinstance(grid[key], list) or not grid[key]:
            raise UsageError(f"grid field {key!r} must be a nonempty list")
    reps = grid.get("repetitions", 1)
    if isinstance(reps, bool) or not isinstance(reps, int) or reps < 1:
        raise UsageError(f"grid field 'repetitions' must be an integer >= 1, got {reps!r}")
    grid["seeds"] = [_parse_grid_entry(parse_seed, seed, "seed") for seed in grid["seeds"]]
    if reps > 1 and max(grid["seeds"]) >= 2**32:
        raise UsageError("with repetitions > 1, grid seeds must be below 2**32")
    grid["u_modes"] = [
        (text, _parse_grid_entry(parse_u_mode, text, "u-mode"))
        for text in grid.get("u_modes", ["six"])
    ]
    return grid


def _grid_matrix(spec) -> tuple[SparseSymMatrix, SpectralModel | None]:
    if "path" in spec:
        if not Path(spec["path"]).exists():
            raise UsageError(f"matrix file {spec['path']!r} does not exist")
        return load_matrix(spec["path"])
    family = spec.get("family")
    stream = RngStream(int(spec.get("seed", 0)))
    n = int(spec["n"])
    if family == "tridiagonal":
        return generate_tridiagonal_poisson(n)
    if family == "haar":
        return generate_haar_like_density(n, stream)
    if family == "lowrank":
        return generate_low_rank_density(n, int(spec["k"]), spec.get("decay", "linear"), stream)
    if family == "linuniform":
        return generate_linear_plus_uniform(n, int(spec["k"]), stream)
    raise UsageError(f"unknown matrix family {family!r}")


def _bench_cells(grid, model) -> list[dict]:
    m_values = grid.get("m_values", [])
    s_values = grid.get("s_values", [])
    seeds = grid["seeds"]
    reps = grid.get("repetitions", 1)
    cells = []
    for method in grid["methods"]:
        base = method.split(":", 1)[0].removesuffix("_nte")
        nte = method.endswith("_nte")
        if base in ("taylor", "chebyshev") and not m_values:
            raise UsageError(f"method {method!r} needs nonempty m_values")
        if base == "sketch" and not s_values:
            raise UsageError("sketch methods need nonempty s_values")
        if base not in ("exact", "taylor", "chebyshev", "sketch"):
            raise UsageError(f"unknown bench method {method!r}")
        ms = m_values if base in ("taylor", "chebyshev") else [None]
        ss = [None] if base == "exact" or nte else (s_values or [None])
        us = grid["u_modes"] if base in ("taylor", "chebyshev") else [(None, None)]
        for m in ms:
            for s in ss:
                for u_mode, u in us:
                    for seed in seeds:
                        for rep in range(reps):
                            cells.append(
                                dict(method=method, m=m, s=s, u_mode=u_mode, u=u, seed=seed, rep=rep)
                            )
    return cells


def _run_cell(cell, matrix, model, grid):
    row = {k: cell[k] for k in ("method", "m", "s", "u_mode", "seed", "rep")}
    row.update(estimate=None, exact=None, rel_err=None, wall_ms=None, error="")
    try:
        method = cell["method"]
        base = method.split(":", 1)[0].removesuffix("_nte")
        seed = cell["seed"] + (cell["rep"] << 32)
        if base == "exact":
            t0 = time.perf_counter()
            estimate, _ = linalg.exact_entropy(matrix)
            row["wall_ms"] = (time.perf_counter() - t0) * 1e3
            row["estimate"], row["exact"], row["rel_err"] = estimate, estimate, 0.0
            return row
        if base == "sketch":
            kind = method.split(":", 1)[1] if ":" in method else "gaussian"
            rank = int(grid["rank"])
            t0 = time.perf_counter()
            out = sketch_entropy(
                matrix, rank, ProjectionSpec(kind, int(cell["s"]), RngStream(seed))
            )
            row["wall_ms"] = (time.perf_counter() - t0) * 1e3
            row["estimate"] = out.entropy_tilde
        else:
            ell = None
            if model is not None and model.probs is not None and model.p_min > 0:
                ell = model.p_min
            mode, value = cell["u"]
            cfg = EstimatorConfig(
                epsilon=float(grid.get("epsilon", 0.1)),
                delta=float(grid.get("delta", 0.1)),
                ell=ell,
                u_mode=mode,
                u_value=value,
                m_override=int(cell["m"]),
                s_override=0 if method.endswith("_nte") else int(cell["s"]),
                nte=method.endswith("_nte"),
                seed=seed,
            )
            run = taylor_entropy if base == "taylor" else chebyshev_entropy
            rep = run(matrix, cfg, model)
            row["estimate"], row["wall_ms"] = rep.estimate, rep.wall_ms
            row["exact"], row["rel_err"] = rep.exact, rep.rel_err
            return row
        if model is not None and model.probs is not None:
            exact = linalg.entropy_from_probs(model.probs, linalg.ENTROPY_CLAMP)
            row["exact"] = exact
            if exact > 0:
                row["rel_err"] = relative_error(row["estimate"], exact)
    except Exception as exc:  # cell failures are recorded, the sweep continues
        row["error"] = type(exc).__name__
    return row


def cmd_bench(args) -> int:
    grid = _load_grid(args.grid)
    matrix, model = _grid_matrix(grid["matrix"])
    cells = _bench_cells(grid, model)

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(lambda c: _run_cell(c, matrix, model, grid), cells))
    else:
        rows = [_run_cell(c, matrix, model, grid) for c in cells]

    out = open(args.out, "w", newline="", encoding="ascii") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(
            ["method", "m", "s", "u_mode", "seed", "rep", "estimate", "exact", "rel_err", "wall_ms", "error"]
        )
        for row in rows:
            wall = "" if args.no_timings else (
                "" if row["wall_ms"] is None else f"{row['wall_ms']:.3f}"
            )
            writer.writerow(
                [
                    row["method"],
                    _fmt(row["m"]),
                    _fmt(row["s"]),
                    _fmt(row["u_mode"]),
                    _fmt(row["seed"]),
                    _fmt(row["rep"]),
                    _fmt(row["estimate"]),
                    _fmt(row["exact"]),
                    _fmt(row["rel_err"]),
                    wall,
                    row["error"],
                ]
            )
        out.write("# summary,method,m,s,u_mode,mean_rel_err,max_rel_err\n")
        seen: dict[tuple, list[float]] = {}
        order: list[tuple] = []
        for row in rows:
            key = (row["method"], row["m"], row["s"], row["u_mode"])
            if key not in seen:
                seen[key] = []
                order.append(key)
            if row["rel_err"] is not None:
                seen[key].append(row["rel_err"])
        for key in order:
            errs = seen[key]
            mean_err = _fmt(sum(errs) / len(errs)) if errs else ""
            max_err = _fmt(max(errs)) if errs else ""
            out.write(
                f"# summary,{key[0]},{_fmt(key[1])},{_fmt(key[2])},{_fmt(key[3])},{mean_err},{max_err}\n"
            )
    finally:
        if args.out:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="vnentropy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    default_threads = int(os.environ.get("VNENTROPY_THREADS", "1"))

    gen = sub.add_parser("generate", help="write a matrix (+ spectrum sidecar) to disk")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--decay", choices=("exponential", "linear"), default="linear")
    gen.add_argument("--seed", type=parse_seed, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    est = sub.add_parser("estimate", help="estimate the entropy of a stored matrix")
    est.add_argument("matrix")
    est.add_argument("--method", required=True, choices=METHODS)
    est.add_argument("--eps", type=float, default=0.1)
    est.add_argument("--delta", type=float, default=0.1)
    est.add_argument("--ell", type=float, default=None)
    est.add_argument("--m", type=int, default=None)
    est.add_argument("--s", type=int, default=None)
    est.add_argument("--u-mode", type=parse_u_mode, default=("six", None))
    est.add_argument("--nte", action="store_true")
    est.add_argument(
        "--proj", choices=("gaussian", "srht", "countsketch", "exact"), default=None
    )
    est.add_argument("--rank", type=int, default=None)
    est.add_argument("--seed", type=parse_seed, default=0)
    est.add_argument("--threads", type=int, default=default_threads)
    est.add_argument("--no-timings", action="store_true")
    est.add_argument("--compute-exact", action="store_true")
    est.add_argument("--out", default=None)
    est.set_defaults(func=cmd_estimate)

    ben = sub.add_parser("bench", help="run a grid of estimator cells, emit CSV")
    ben.add_argument("grid")
    ben.add_argument("--out", default=None)
    ben.add_argument("--threads", type=int, default=default_threads)
    ben.add_argument("--no-timings", action="store_true")
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.exit(EXIT_USAGE, f"vnentropy: usage error: {exc}\n")
    except (ValueError, OSError) as exc:
        print(f"vnentropy: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
