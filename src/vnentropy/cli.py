"""Command-line surface: generate test matrices, run estimators, sweep grids.

``estimate`` emits one JSON record per line; ``bench`` emits a CSV with a
trailing per-cell summary block.  All commands are deterministic for a
fixed seed; pass ``--no-timings`` to drop wall-clock fields so repeated
runs (and runs with different ``--threads``) are byte-identical.

Every command runs with numpy's bundled OpenBLAS held at one thread, so
its output does not depend on ``OPENBLAS_NUM_THREADS``; the previous count
is restored on exit.  Of the BLAS work, only ``estimate``'s products
with a filled matrix of n >= 2048 still use every CPU, through their
row-band pool; the rest (smaller products, eigensolves, generation, and
every product in a ``bench`` run) runs on one core.

Exit codes: 0 success (possibly with warnings), 1 usage error,
2 numerical or I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .chebyshev import chebyshev_entropy
from .densmat import (
    DENSE_PEAK,
    SparseSymMatrix,
    generate_haar_like_matrix,
    generate_linear_plus_uniform,
    generate_low_rank_density,
    generate_tridiagonal_poisson,
    read_matrix_market,
    remove_matrix_market,
    validate_spectrum,
    write_matrix_market,
)
from .report import (
    EstimatorConfig,
    RunRecord,
    check_assumptions,
    power_estimate,
    relative_error,
    run_record,
)
from .rng import RngStream
from .sketch import PROJECTION_KINDS, ProjectionSpec, default_s_sketch, sketch_entropy
from .taylor import taylor_entropy
from .threads import alongside, one_blas_thread

EXIT_USAGE = 1
EXIT_NUMERICAL = 2
# the generate flags and grid matrix fields each family reads besides n;
# tridiagonal draws nothing, so it reads no seed
FAMILY_FIELDS = {
    "haar": ("seed",), "tridiagonal": (), "lowrank": ("k", "decay", "seed"), "linuniform": ("k", "seed")
}
FAMILIES = tuple(FAMILY_FIELDS)
DECAYS = ("exponential", "linear")
METHODS = ("exact", "taylor", "chebyshev", "sketch")
SERIES = ("taylor", "chebyshev")
# the estimate flags each method reads, by argparse dest (exact computes the
# spectrum anyway); every method reads --seed, --out and --no-timings
SERIES_FLAGS = ("eps", "delta", "ell", "m", "s", "u_mode", "nte")
METHOD_FLAGS = {
    "exact": (),
    **{name: (*SERIES_FLAGS, "compute_exact") for name in SERIES},
    "sketch": ("proj", "rank", "s", "eps", "compute_exact"),
    # the exact projection keeps every column, so it has no width to set
    "sketch --proj exact": ("proj", "rank", "compute_exact"),
}
# bench grid method name -> (method, projection kind, nte, the grid fields
# it reads); every method reads matrix, methods, seeds and repetitions
GRID_METHODS = {
    "exact": ("exact", None, False, ()),
    **{name: (name, None, False, ("m_values", "s_values", "u_modes", "delta")) for name in SERIES},
    **{f"{name}_nte": (name, None, True, ("m_values", "u_modes", "delta")) for name in SERIES},
    **{f"sketch:{kind}": ("sketch", kind, False, ("s_values", "rank")) for kind in PROJECTION_KINDS},
    # replaces the entry above: the exact projection keeps every column, so it reads no s_values
    "sketch:exact_debug": ("sketch", "exact_debug", False, ("rank",)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_seed(text: str) -> int:
    """ASCII decimal or 0x-hex digits, as the Matrix Market reader takes
    integers: no underscore, no other script's digits, no sign."""
    t = text.strip().lower()
    digits = t.removeprefix("-")  # a negative seed is refused by its range
    if not re.fullmatch(r"[0-9]+|0x[0-9a-f]+", digits):
        raise argparse.ArgumentTypeError(f"seed {text!r} is not decimal or 0x-hex")
    value = int(digits, 16) if digits.startswith("0x") else int(digits, 10)
    if digits != t or value >= 2**64:
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
        fh.write("".join(map("{:.17g}\n".format, probs.tolist())))


def read_spectrum(path) -> np.ndarray:
    """One probability per line; ``#`` starts a comment."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    counts = [len(line.split("#", 1)[0].split()) for line in lines]
    for number, count in enumerate(counts, 1):
        if count > 1:
            raise ValueError(f"line {number} holds {count} values, not one probability")
    # loadtxt would warn, then return an empty array
    if not any(counts):
        raise ValueError("the file holds no probabilities")
    probs = np.loadtxt(lines, dtype=np.float64, ndmin=1)
    return np.sort(probs)[::-1].copy()


def load_matrix(path) -> tuple[SparseSymMatrix, np.ndarray | None]:
    """Read a stored density matrix and its spectrum sidecar, if any; a
    trace off 1, or a sidecar that is not a list of at most n
    probabilities summing to 1, raises ValueError."""
    matrix = read_matrix_market(path)
    try:
        matrix.validate_density()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    side = sidecar_path(path)
    if not side.exists():
        return matrix, None
    try:
        probs = read_spectrum(side)
        validate_spectrum(probs)
        if probs.size > matrix.n:
            raise ValueError(f"{probs.size} probabilities for n={matrix.n}")
    except ValueError as exc:
        raise ValueError(f"{side}: {exc}") from None
    return matrix, probs


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def physical_memory() -> int | None:
    """Bytes of physical memory on this machine; None where unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None


def generate_family(
    family: str, n: int, k: int | None, decay: str, seed: int
) -> tuple[SparseSymMatrix, Callable[[], np.ndarray | None]]:
    """The matrix ``generate`` writes and a bench grid's family spec names,
    and a call that returns its spectrum where known; for the haar family
    that call runs the oracle.

    A family, size or decay the generators would refuse is a UsageError;
    so is a dense family whose build (by its ``DENSE_PEAK`` figure) would
    need more than the machine's physical memory.
    """
    if family not in FAMILIES:
        raise UsageError(f"unknown matrix family {family!r}")
    min_n = 2 if family == "tridiagonal" else 1
    if n < min_n:
        raise UsageError(f"the {family} family needs n >= {min_n}, got {n}")
    memory = physical_memory() if family in DENSE_PEAK else None
    if memory is not None and DENSE_PEAK[family] * n * n > memory:
        raise UsageError(
            f"the {family} family at n={n} needs about {DENSE_PEAK[family] * n * n / 2**30:.1f} GiB, "
            f"more than this machine's {memory / 2**30:.1f} GiB of memory"
        )
    stream = RngStream(seed)
    if family == "haar":
        matrix = generate_haar_like_matrix(n, stream)
        known = n <= linalg.DEFAULT_ORACLE_LIMIT  # through the module, which a tracer may wrap
        return matrix, lambda: linalg.exact_entropy(matrix)[1] if known else None
    if family == "tridiagonal":
        matrix, probs = generate_tridiagonal_poisson(n)
    elif k is None:
        raise UsageError(f"k is required for the {family} family")
    elif not 1 <= k <= n:
        raise UsageError(f"the {family} family needs 1 <= k <= n, got k={k}, n={n}")
    elif family == "lowrank":
        if decay not in DECAYS:
            raise UsageError(f"decay must be one of {DECAYS}, got {decay!r}")
        matrix, probs = generate_low_rank_density(n, k, decay, stream)
    else:
        matrix, probs = generate_linear_plus_uniform(n, k, stream)
    return matrix, lambda: probs


def cmd_generate(args) -> int:
    given = [f for f in ("k", "decay", "seed") if getattr(args, f) is not None]
    unread = ["--" + f for f in given if f not in FAMILY_FIELDS[args.family]]
    if unread:
        raise UsageError(f"the {args.family} family does not read {' '.join(unread)}")
    decay, seed = args.decay or "linear", args.seed or 0
    matrix, spectrum = generate_family(args.family, args.n, args.k, decay, seed)
    written = []

    def write() -> None:
        # an older file's sidecar would pass for the spectrum of a matrix that has none
        sidecar_path(args.out).unlink(missing_ok=True)
        write_matrix_market(matrix, args.out)
        written.append(True)

    # the writer formats text under the GIL while the haar oracle's LAPACK
    # call releases it, so with two CPUs they overlap; the oracle keeps the
    # calling thread, since with both on a pool (threads.fan_out) the
    # haar-cli-sweep benchmark's peak_rss_mb rose from 93.2-93.8 to 105.1 MB
    try:
        probs = alongside(spectrum, write)
    except BaseException:
        if written:  # the spectrum failed: leave no matrix without its sidecar
            remove_matrix_market(args.out)
        raise
    if probs is not None:
        write_spectrum(probs, sidecar_path(args.out))
    return 0


# ---------------------------------------------------------------------------
# estimate, and the one run path it shares with bench
# ---------------------------------------------------------------------------


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunSpec:
    """One estimator run: ``cfg`` for taylor and chebyshev, ``proj`` and
    ``rank`` for sketch, nothing more for exact."""

    method: str
    seed: int
    cfg: EstimatorConfig | None = None
    proj: ProjectionSpec | None = None
    rank: int | None = None


def run_method(
    matrix: SparseSymMatrix, probs: np.ndarray | None, spec: RunSpec, power=None, oracle=None
) -> RunRecord:
    """Run one estimator and return its one record, compared with the exact
    entropy of the known spectrum ``probs`` (``exact`` with the spectrum it
    computes); a series run's record holds every degree in ``estimates``.
    The one place that dispatches on the method, for ``estimate`` and
    ``bench`` alike.  ``power`` (``power_estimate`` of the run's seed and
    delta) and ``oracle`` (``linalg.exact_entropy(matrix)``) hand it a
    sweep's shared results; a run computes what it reads and is not handed.
    Floating-point faults raise no numpy warning: a non-finite estimate is
    refused where a record is read (:func:`_read`), and that is its only
    report."""
    with np.errstate(all="ignore"):
        if spec.method in SERIES:
            run = taylor_entropy if spec.method == "taylor" else chebyshev_entropy
            cfg = replace(spec.cfg, power=power, spectrum=None if oracle is None else oracle[1])
            return run(matrix, cfg, probs)
        if spec.method == "exact":
            estimate, probs = oracle or linalg.exact_entropy(matrix)
            warnings, fields = [], {"method": "exact", "seed": spec.seed}
        else:  # sketch
            out = sketch_entropy(matrix, spec.rank, spec.proj)
            estimate = out.entropy_tilde
            warnings = check_assumptions(probs, matrix.n, k=spec.rank)
            fields = {
                "method": "sketch",
                "s": out.s,
                "proj": out.kind,
                "rank": spec.rank,
                "seed": spec.seed,
                "probs": [float(p) for p in out.probs_tilde],
            }
        return run_record(estimate, probs, warnings, fields)


def _read(rec: RunRecord, m: int | None = None) -> tuple[float, float | None, float | None]:
    """A record's estimate, exact value and relative error at degree m of a
    series run (its own at m None); a non-finite estimate raises ValueError."""
    estimate = rec.estimate if m is None else rec.estimates[m]
    if not math.isfinite(estimate):
        raise ValueError(f"estimate is not finite: {estimate!r}")
    return estimate, rec.exact, None if rec.rel_err is None else relative_error(estimate, rec.exact)


def _run_spec(n: int, method: str, seed: int, **settings) -> RunSpec:
    """The run of ``method`` on an n x n matrix, for ``estimate`` and every
    bench run.  ``settings`` are estimate flag values by argparse dest; an
    absent one takes the flag's default, and a method ignores those it
    does not read.  Out-of-range values raise ValueError."""
    get = settings.get
    if method == "exact":
        return RunSpec("exact", seed)
    s, eps = get("s"), get("eps", 0.1)
    if method == "sketch":
        rank, proj = get("rank"), get("proj")
        if rank is None or proj is None:
            raise UsageError("sketch needs --rank and --proj")
        if not 1 <= rank <= n:
            raise ValueError(f"sketch rank must lie in [1, {n}], got {rank}")
        kind = "exact_debug" if proj == "exact" else proj
        if s is None:
            s = n if kind == "exact_debug" else default_s_sketch(kind, n, rank, eps)
        return RunSpec("sketch", seed, proj=ProjectionSpec(kind, s, RngStream(seed)), rank=rank)
    m, ell, nte = get("m"), get("ell"), get("nte", False)
    if m is None and ell is None:
        raise UsageError("provide --ell (with --eps/--delta) or an explicit --m")
    if m is not None and s is None and not nte:
        raise UsageError("provide --s alongside --m (or use --nte)")
    mode, value = get("u_mode", ("six", None))
    cfg = EstimatorConfig(
        epsilon=eps, delta=get("delta", 0.1), ell=ell, u_mode=mode, u_value=value,
        m_override=m, s_override=s, nte=nte, seed=seed,
    )
    return RunSpec(method, seed, cfg=cfg)


def cmd_estimate(args) -> int:
    flags = (*SERIES_FLAGS, "proj", "rank", "compute_exact")
    settings = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    method = "sketch --proj exact" if (args.method, args.proj) == ("sketch", "exact") else args.method
    # --eps sizes m and s (a sketch's s), --delta s and the power method
    # behind u; neither is read once other flags fix all it sizes
    fixed_s = "s" in settings or "nte" in settings
    idle = {
        "eps": fixed_s and (method == "sketch" or "m" in settings),
        "delta": fixed_s and settings.get("u_mode", ("six",))[0] == "manual",
    }
    unread = ["--" + f.replace("_", "-") for f in settings if f not in METHOD_FLAGS[method] or idle.get(f)]
    if unread:
        raise UsageError(f"the {method} method does not read {' '.join(unread)}")
    matrix, probs = load_matrix(args.matrix)
    try:
        spec = _run_spec(matrix.n, args.method, args.seed, **settings)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # opened before the run, so an unwritable path costs no estimate
    sink = open(args.out, "a", encoding="ascii") if args.out else nullcontext(sys.stdout)
    with sink as out:
        if args.compute_exact and probs is None:
            _, probs = linalg.exact_entropy(matrix)
        t0 = time.perf_counter()
        rec = run_method(matrix, probs, spec)
        wall_ms = (time.perf_counter() - t0) * 1e3

        estimate, exact, rel_err = _read(rec)
        fields = dict(rec.fields)
        record = {"method": fields.pop("method"), "n": matrix.n, "nnz": matrix.nnz, **fields}
        record["estimate"] = estimate
        if not args.no_timings:
            record["wall_ms"] = wall_ms
        if exact is not None:
            record["exact"] = exact
            if rel_err is not None:
                record["rel_err"] = rel_err
            else:
                record["abs_err"] = abs(estimate - exact)
        record["warnings"] = [*rec.warnings, *args.warnings]
        out.write(json.dumps(record) + "\n")
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


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _load_grid(path) -> dict:
    """Read a bench grid and validate it before any run starts: a JSON
    object in which every field besides ``matrix``, ``methods``, ``seeds``
    and ``repetitions`` is read by a method of the grid (``GRID_METHODS``),
    each list field a method reads is nonempty and ``delta`` is a JSON
    number.

    Seeds become ints in parse_seed's range, each ``u_modes`` entry becomes
    a ``(text, (mode, value))`` pair and each ``methods`` entry a
    ``(name, (method, projection kind, nte, fields read))`` pair.
    Repetition r of a row runs seed + r * 2**32, so repeated grids need
    seeds below 2**32.
    """
    with open(path, "r", encoding="utf-8") as fh:
        grid = json.load(fh)
    if not isinstance(grid, dict):
        raise UsageError(f"a bench grid must be a JSON object, got {grid!r}")
    for key in ("matrix", "methods", "seeds"):
        if key not in grid:
            raise UsageError(f"grid is missing the {key!r} field")
    for key in ("methods", "seeds"):
        if not isinstance(grid[key], list) or not grid[key]:
            raise UsageError(f"grid field {key!r} must be a nonempty list")
    methods, readers = [], {}  # readers: grid field -> the first method that reads it
    for name in grid["methods"]:
        parsed = GRID_METHODS.get(name) if isinstance(name, str) else None
        if parsed is None:
            raise UsageError(f"unknown bench method {name!r}")
        methods.append((name, parsed))
        for key in parsed[3]:
            readers.setdefault(key, name)
    unread = [key for key in grid if key not in ("matrix", "methods", "seeds", "repetitions", *readers)]
    if unread:
        raise UsageError(f"no bench cell reads the grid field {unread[0]!r}")
    grid["methods"] = methods
    reps = grid.get("repetitions", 1)
    if not _is_count(reps):
        raise UsageError(f"grid field 'repetitions' must be an integer >= 1, got {reps!r}")
    grid["seeds"] = [_parse_grid_entry(parse_seed, seed, "seed") for seed in grid["seeds"]]
    if reps > 1 and max(grid["seeds"]) >= 2**32:
        raise UsageError("with repetitions > 1, grid seeds must be below 2**32")
    for key in ("m_values", "s_values"):
        values = grid.get(key)
        if key in readers and not (isinstance(values, list) and values and all(map(_is_count, values))):
            raise UsageError(f"method {readers[key]!r} needs {key}, a nonempty list of integers >= 1, got {values!r}")
    delta = grid.get("delta", 0.1)
    if isinstance(delta, bool) or not isinstance(delta, (int, float)):
        raise UsageError(f"method {readers['delta']!r} needs delta, a JSON number, got {delta!r}")
    grid.setdefault("u_modes", ["six"])
    if not isinstance(grid["u_modes"], list) or not grid["u_modes"]:
        raise UsageError(f"grid field 'u_modes' must be a nonempty list, got {grid['u_modes']!r}")
    grid["u_modes"] = [
        (text, _parse_grid_entry(parse_u_mode, text, "u-mode")) for text in grid["u_modes"]
    ]
    if "rank" in readers and not _is_count(grid.get("rank")):
        raise UsageError(f"method {readers['rank']!r} needs an integer rank >= 1, got {grid.get('rank')!r}")
    return grid


def _grid_matrix(spec) -> tuple[SparseSymMatrix, np.ndarray | None]:
    if not isinstance(spec, dict):
        raise UsageError(f"grid field 'matrix' must be an object, got {spec!r}")
    if "path" in spec:
        if len(spec) > 1:
            raise UsageError(f"a grid matrix 'path' takes no other field, got {sorted(spec)}")
        if not isinstance(spec["path"], str):
            raise UsageError(f"grid matrix 'path' must be a string, got {spec['path']!r}")
        if not Path(spec["path"]).exists():
            raise UsageError(f"matrix file {spec['path']!r} does not exist")
        return load_matrix(spec["path"])
    if "n" not in spec:
        raise UsageError("grid matrix needs a 'path' or an 'n'")
    family = spec.get("family")
    if family in FAMILIES:  # generate_family refuses any other
        unread = [key for key in spec if key not in ("family", "n", *FAMILY_FIELDS[family])]
        if unread:
            raise UsageError(f"the {family} family does not read the grid matrix field {unread[0]!r}")
    for key in ("n", "k"):
        value = spec.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise UsageError(f"grid matrix {key!r} must be an integer, got {value!r}")
    matrix, spectrum = generate_family(
        family,
        spec["n"],
        spec.get("k"),
        spec.get("decay", "linear"),
        _parse_grid_entry(parse_seed, spec.get("seed", 0), "matrix seed"),
    )
    return matrix, spectrum()


_ORACLE = ("oracle",)


class _Unit(NamedTuple):
    """One run of a sweep, and the shared results it reads, in the order
    it reads them."""

    spec: RunSpec
    needs: list[tuple]


def _bench_units(grid, n: int, probs: np.ndarray | None) -> tuple[list[tuple], list[_Unit]]:
    """The rows of a loaded grid, in CSV order, and the runs that fill them.

    A row is (labels, run index), its labels (method, m, s, u_mode, seed,
    rep) as the CSV prints them; m varies slowest within a method.  Each
    method makes one run per (s, u-mode, seed, repetition), and a series
    run computes every distinct m at once, into the ``estimates`` of its
    one record.  A run needs the power method of its seed and delta unless u
    is manual, then the oracle if it is exact or an nte run without a known
    spectrum.  Out-of-range grid values raise ValueError or TypeError here,
    before any run starts.
    """
    delta = float(grid.get("delta", 0.1))
    rows, units = [], []
    for name, (method, kind, nte, reads) in grid["methods"]:
        ms, ss, us = (
            grid[key] if key in reads else [default]
            for key, default in (("m_values", None), ("s_values", None), ("u_modes", (None, None)))
        )
        cases = list(itertools.product(ss, us, grid["seeds"], range(grid.get("repetitions", 1))))
        rows += [
            ((name, m, s, u_text, seed, rep), len(units) + c)
            for m in ms
            for c, (s, (u_text, _), seed, rep) in enumerate(cases)
        ]
        for s, (_, u_mode), seed, rep in cases:
            spec = _run_spec(
                n, method, seed + (rep << 32), delta=delta, u_mode=u_mode,
                m=tuple(ms), s=0 if nte else s, nte=nte, proj=kind, rank=grid.get("rank"),
            )
            needs = [("power", spec.seed, delta)] if method in SERIES and u_mode[0] != "manual" else []
            if method == "exact" or nte and probs is None:
                needs.append(_ORACLE)
            units.append(_Unit(spec, needs))
    return rows, units


def _attempt(fn, *args) -> tuple[object, float, str]:
    """One task of a sweep: fn(*args), its wall time in ms, and the type name
    of the exception it raised ('' if none).  A failure lands on the rows
    the task serves; the sweep continues."""
    t0 = time.perf_counter()
    try:
        value, error = fn(*args), ""
    except Exception as exc:
        value, error = None, type(exc).__name__
    return value, (time.perf_counter() - t0) * 1e3, error


def _compute_shared(key: tuple, matrix: SparseSymMatrix):
    if key == _ORACLE:
        return linalg.exact_entropy(matrix)
    _, seed, delta = key
    return power_estimate(matrix, seed, delta)


def _run_unit(unit: _Unit, matrix, probs, shared: dict) -> tuple[object, float, str]:
    """The unit's record, handed the shared results it reads; a failed
    shared result fails the unit with its error."""
    for key in unit.needs:
        if shared[key][2]:
            return None, 0.0, shared[key][2]
    values = {key[0]: shared[key][0] for key in unit.needs}
    return _attempt(run_method, matrix, probs, unit.spec, values.get("power"), values.get("oracle"))


def cmd_bench(args) -> int:
    """Run a grid's runs, sharing work between them, and write its rows as CSV.

    Each shared result and each run runs once, on the pool, shared results
    first.  A row reads its m from its run's one record (:func:`_read`), as
    ``estimate`` prints it; a non-finite estimate fails the row.  A row's
    ``wall_ms`` is the time of the work it adds beyond the rows above it:
    the first row a run fills carries the run's time plus that of every
    shared result no earlier row read, later rows carry only what is new
    to them (often 0), failed rows nothing.  The column therefore sums to
    the busy time of the tasks behind the filled rows.
    """
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    grid = _load_grid(args.grid)
    matrix, probs = _grid_matrix(grid["matrix"])
    try:
        rows, units = _bench_units(grid, matrix.n, probs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"grid cell: {exc}") from exc

    keys = list(dict.fromkeys(key for unit in units for key in unit.needs))
    # opened before any run starts, so an unwritable path costs no sweep
    sink = open(args.out, "w", newline="", encoding="ascii") if args.out else nullcontext(sys.stdout)
    with sink as out:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            done = pool.map(lambda key: _attempt(_compute_shared, key, matrix), keys)
            shared = dict(zip(keys, done))
            results = list(pool.map(lambda unit: _run_unit(unit, matrix, probs, shared), units))
        cost = {key: ms for key, (_, ms, _) in shared.items()}
        cost.update({u: ms for u, (_, ms, _) in enumerate(results)})

        writer = csv.writer(out)
        writer.writerow(
            ["method", "m", "s", "u_mode", "seed", "rep", "estimate", "exact", "rel_err", "wall_ms", "error"]
        )
        summary: dict[tuple, list[float]] = {}
        for labels, u in rows:
            rec, _, error = results[u]
            try:
                values = _read(rec, labels[1]) if rec else (None, None, None)
            except ValueError:
                values, rec, error = (None, None, None), None, "ValueError"
            wall = ""
            if rec and not args.no_timings:
                wall = f"{sum(cost.pop(key, 0.0) for key in (u, *units[u].needs)):.3f}"
            writer.writerow([_fmt(v) for v in labels + values] + [wall, error])
            errs = summary.setdefault(labels[:4], [])
            if values[2] is not None:
                errs.append(values[2])
        out.write("# summary,method,m,s,u_mode,mean_rel_err,max_rel_err\n")
        for key, errs in summary.items():
            mean_err = _fmt(sum(errs) / len(errs)) if errs else ""
            max_err = _fmt(max(errs)) if errs else ""
            out.write(f"# summary,{','.join(_fmt(k) for k in key)},{mean_err},{max_err}\n")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="vnentropy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a matrix (+ spectrum sidecar) to disk")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int)
    gen.add_argument("--decay", choices=DECAYS)
    gen.add_argument("--seed", type=parse_seed)  # 0 where not given, for families that draw
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    est = sub.add_parser("estimate", help="estimate the entropy of a stored matrix")
    est.add_argument("matrix")
    est.add_argument("--method", required=True, choices=METHODS)
    # None where not given, so a flag the method does not read is refused
    est.add_argument("--eps", type=float)
    est.add_argument("--delta", type=float)
    est.add_argument("--ell", type=float)
    est.add_argument("--m", type=int)
    est.add_argument("--s", type=int)
    est.add_argument("--u-mode", type=parse_u_mode)
    est.add_argument("--nte", action="store_true", default=None)
    est.add_argument("--proj", choices=("gaussian", "srht", "countsketch", "exact"))
    est.add_argument("--rank", type=int)
    est.add_argument("--seed", type=parse_seed, default=0)
    est.add_argument("--no-timings", action="store_true")
    est.add_argument("--compute-exact", action="store_true", default=None)
    est.add_argument("--out", default=None)
    est.set_defaults(func=cmd_estimate)

    ben = sub.add_parser("bench", help="run a grid of estimator cells, emit CSV")
    ben.add_argument("grid")
    ben.add_argument("--out", default=None)
    ben.add_argument("--threads", type=int, default=1)
    ben.add_argument("--no-timings", action="store_true")
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with one_blas_thread() as unpinned:
        args.warnings = [unpinned] if unpinned else []
        if unpinned and args.command != "estimate":
            print(f"vnentropy: warning: {unpinned}", file=sys.stderr)
        try:
            return args.func(args)
        except UsageError as exc:
            parser.exit(EXIT_USAGE, f"vnentropy: usage error: {exc}\n")
        except (ValueError, OSError) as exc:
            print(f"vnentropy: error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
