"""The benchmark's three workloads and the correctness gate on their output.

Each workload builds its inputs from the benchmark seed in :meth:`setup`
and performs one operation per :meth:`run`.  An operation reaches the
library only through names it looks up at call time
(``vnentropy.taylor.taylor_entropy``, ``vnentropy.cli.main``, ...), so the
traced run's wrappers see every call.  Repeated operations reuse the same
inputs, which makes their estimates bitwise comparable.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import vnentropy
import vnentropy.chebyshev
import vnentropy.cli
import vnentropy.sketch
import vnentropy.taylor
from vnentropy.linalg import ENTROPY_CLAMP, entropy_from_probs

REL_TOL = 0.1
# The exact oracle rows of the sweep recompute the sidecar's entropy from the
# matrix written with 17 significant digits; they agree to roundoff.
EXACT_TOL = 1e-9


@dataclass
class Outcome:
    """What one operation produced and what the gate found wrong with it."""

    estimates: dict[str, float] = field(default_factory=dict)
    parts: dict[str, float] = field(default_factory=dict)  # seconds per timed call
    facts: dict[str, float] = field(default_factory=dict)  # figures read from outputs
    problems: list[str] = field(default_factory=list)


def check_estimate(
    label: str, estimate: float, exact: float, tol: float = REL_TOL, warned=()
) -> list[str]:
    """Problems with one estimate: not finite, warned, or off by more than tol."""
    if not math.isfinite(estimate):
        return [f"{label}: estimate {estimate!r} is not finite"]
    problems = [f"{label}: warning {w!r}" for w in warned]
    rel = abs(estimate - exact) / exact
    if not rel <= tol:
        problems.append(f"{label}: rel_err {rel:.3g} exceeds {tol}")
    return problems


def linear_rank_entropy(k: int) -> float:
    """Entropy of the spectrum k, k-1, ..., 1 normalised to unit trace."""
    total = k * (k + 1) / 2
    return -sum((w / total) * math.log(w / total) for w in range(1, k + 1))


class TridiagPoly:
    """Both polynomial estimators on the n=65536 tridiagonal Poisson matrix.

    nnz/n = 3, so the element-wise recurrence and the probe reductions cost
    as much as the sparse product, and each n x s block (33.5 MB) is far
    larger than the cache.
    """

    name = "tridiag-poly"
    setup_repeats = 101  # a few ms each

    def __init__(self, seed: int, workdir: Path, n: int = 65536, m: int = 50, s: int = 64):
        self.seed, self.n, self.m, self.s = seed, n, m, s
        self.R = self.model = None
        self.exact = entropy_from_probs(vnentropy.poisson_spectrum(n), ENTROPY_CLAMP)

    def setup(self) -> None:
        self.R = self.model = None
        self.R, self.model = vnentropy.generate_tridiagonal_poisson(self.n)
        self.R.scipy_csr  # the lazy CSR build belongs to set-up

    def run(self) -> Outcome:
        cfg = vnentropy.EstimatorConfig(
            m_override=self.m, s_override=self.s, u_mode="six", seed=self.seed
        )
        out = Outcome()
        for label, module, fn in (
            ("taylor", vnentropy.taylor, "taylor_entropy"),
            ("chebyshev", vnentropy.chebyshev, "chebyshev_entropy"),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = perf_counter()
                rep = getattr(module, fn)(self.R, cfg, self.model)
                out.parts[f"{label}_s"] = perf_counter() - t0
            warned = list(rep.warnings) + [str(w.message) for w in caught]
            out.estimates[label] = rep.estimate
            out.problems += check_estimate(label, rep.estimate, self.exact, warned=warned)
        return out


class LowrankSketch:
    """The three random projections of a rank-10 matrix with n=4096.

    Only the sketch and the small Gram eigensolve run; no polynomial layer.
    """

    name = "lowrank-sketch"
    setup_repeats = 5
    kinds = ("gaussian", "srht", "countsketch")

    def __init__(self, seed: int, workdir: Path, n: int = 4096, k: int = 10, s: int = 256):
        self.seed, self.n, self.k, self.s = seed, n, k, s
        self.R = None
        self.exact = linear_rank_entropy(k)

    def setup(self) -> None:
        self.R = None
        self.R, _ = vnentropy.generate_low_rank_density(
            self.n, self.k, "linear", vnentropy.RngStream(self.seed)
        )
        self.R.scipy_csr

    def run(self) -> Outcome:
        out = Outcome()
        root = vnentropy.RngStream(self.seed)
        for i, kind in enumerate(self.kinds, start=1):
            spec = vnentropy.ProjectionSpec(kind, self.s, root.child(i))
            t0 = perf_counter()
            sk = vnentropy.sketch.sketch_entropy(self.R, self.k, spec)
            out.parts[f"sketch_{kind}_s"] = perf_counter() - t0
            out.estimates[kind] = sk.entropy_tilde
            out.problems += check_estimate(kind, sk.entropy_tilde, self.exact)
        return out


class HaarCliSweep:
    """``vnentropy bench`` with a pool of 2 threads over a stored dense haar
    matrix (n=1024, so nnz/n = 1024 and the product dominates).

    Set-up is ``vnentropy generate``: generation, the oracle for the
    spectrum sidecar, and the Matrix Market writer.
    """

    name = "haar-cli-sweep"
    setup_repeats = 5
    threads = 2
    methods = ("exact", "taylor", "chebyshev", "taylor_nte", "chebyshev_nte")

    def __init__(
        self,
        seed: int,
        workdir: Path,
        n: int = 1024,
        m_values: tuple[int, ...] = (10, 20, 40),
        s: int = 32,
        cell_seeds: int = 4,
    ):
        self.seed, self.n = seed, n
        self.matrix = workdir / "haar.mtx"
        self.grid = workdir / "grid.json"
        self.out_csv = workdir / "sweep.csv"
        self.spec = {
            "matrix": {"path": str(self.matrix)},
            "methods": list(self.methods),
            "m_values": list(m_values),
            "s_values": [s],
            "seeds": [cell_seeds * seed + i for i in range(cell_seeds)],
        }
        poly = len(self.methods) - 1
        self.expected_cells = cell_seeds * (1 + poly * len(m_values))
        self.exact = None

    def setup(self) -> None:
        code = vnentropy.cli.main(
            ["generate", "--family", "haar", "--n", str(self.n),
             "--seed", str(self.seed), "--out", str(self.matrix)]
        )
        if code != 0:
            raise RuntimeError(f"vnentropy generate exited with {code}")
        self.grid.write_text(json.dumps(self.spec), encoding="utf-8")
        probs = np.loadtxt(vnentropy.cli.sidecar_path(self.matrix), ndmin=1)
        self.exact = entropy_from_probs(probs, ENTROPY_CLAMP)

    def run(self) -> Outcome:
        out = Outcome()
        t0 = perf_counter()
        code = vnentropy.cli.main(
            ["bench", str(self.grid), "--threads", str(self.threads), "--out", str(self.out_csv)]
        )
        out.parts["sweep_s"] = perf_counter() - t0
        if code != 0:
            out.problems.append(f"vnentropy bench exited with {code}")
            return out
        rows = read_sweep_rows(self.out_csv)
        out.problems += self.check_rows(rows)
        for r in rows:
            key = f"{r['method']}/m={r['m']}/seed={r['seed']}"
            out.estimates[key] = float(r["estimate"]) if r["estimate"] else math.nan
        out.facts = {
            "cli.cells": len(rows),
            "cli.cells_failed": sum(1 for r in rows if r["error"]),
            "cli.cell_busy_s": sum(float(r["wall_ms"] or 0.0) for r in rows) / 1e3,
            "cli.threads": self.threads,
        }
        return out

    def check_rows(self, rows: list[dict[str, str]]) -> list[str]:
        problems = []
        if len(rows) != self.expected_cells:
            problems.append(f"sweep wrote {len(rows)} rows, expected {self.expected_cells}")
        for r in rows:
            label = f"{r['method']} m={r['m']} seed={r['seed']}"
            if r["error"]:
                problems.append(f"{label}: error {r['error']}")
                continue
            tol = EXACT_TOL if r["method"] == "exact" else REL_TOL
            problems += check_estimate(label, float(r["estimate"]), self.exact, tol)
        return problems


def read_sweep_rows(path: Path) -> list[dict[str, str]]:
    """Data rows of a ``vnentropy bench`` CSV (the summary block is skipped)."""
    with open(path, newline="", encoding="ascii") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


WORKLOADS = {w.name: w for w in (TridiagPoly, LowrankSketch, HaarCliSweep)}
