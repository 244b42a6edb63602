"""Where the traced run hooks into the library, and the per-layer metrics
computed from the spans it records.

Every wrapper sits on a name that the estimators look up at call time, so
no library file changes.  Work counts are exact: matvecs, flops and bytes
come from array shapes (bytes are *computed* from the arrays a product
touches, not measured traffic), draws from the requested lengths.
"""

from __future__ import annotations

import statistics

import numpy as np

import vnentropy.chebyshev
import vnentropy.cli
import vnentropy.densmat
import vnentropy.linalg
import vnentropy.report
import vnentropy.sketch
import vnentropy.taylor

from tracer import Span, Tracer, self_times

NS = 1e-9


def _csr_bytes(R) -> int:
    csr = R.scipy_csr
    return int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)


def _product(result, R, x):
    cols = 1 if np.ndim(x) == 1 else np.shape(x)[1]
    return {
        "matvecs": cols,
        "flops": 2 * R.nnz * cols,
        "bytes": _csr_bytes(R) + np.asarray(x).nbytes + result.nbytes,
    }


def _draws(result, *args, **kwargs):
    return {"draws": int(np.size(result))}


def _estimator(method):
    def attrs(result, R, cfg, model=None):
        return {
            "method": method,
            "matrix": id(R),
            "seed": cfg.seed,
            "m": cfg.m_override,
            "nte": cfg.nte,
        }

    return attrs


def _power(result, R, t, q, stream):
    return {"key": [id(R), stream.seed, stream.stream_id, t, q]}


def _oracle(result, R, *args, **kwargs):
    return {"key": [id(R)]}


def _read_mm(result, path):
    return {"entries": result.nnz}


def install(tracer: Tracer) -> None:
    """Wrap every library layer the workloads reach."""
    m = vnentropy
    tracer.wrap(m.taylor, "taylor_entropy", "taylor", _estimator("taylor"))
    tracer.wrap(m.cli, "taylor_entropy", "taylor", _estimator("taylor"))
    tracer.wrap(m.chebyshev, "chebyshev_entropy", "chebyshev", _estimator("chebyshev"))
    tracer.wrap(m.cli, "chebyshev_entropy", "chebyshev", _estimator("chebyshev"))
    for mod in (m.taylor, m.chebyshev, m.sketch):
        tracer.wrap(mod, "gaussian_vector", "rng.gaussian", _draws)
    tracer.wrap(m.sketch, "rademacher_vector", "rng.rademacher", _draws)
    tracer.wrap(m.sketch, "uniform_indices", "rng.uniform_indices", _draws)
    for kind in ("gaussian", "srht", "countsketch"):
        tracer.wrap(m.sketch, f"apply_{kind}", f"sketch.{kind}")
    tracer.wrap(m.report, "power_method", "power", _power)
    tracer.wrap(m.densmat.SparseSymMatrix, "matmat", "densmat.matmat", _product)
    tracer.wrap(m.densmat.SparseSymMatrix, "matvec", "densmat.matvec", _product)
    tracer.wrap(m.sketch, "thin_singular_values", "linalg.gram")
    tracer.wrap(m.linalg, "exact_entropy", "linalg.oracle", _oracle)
    tracer.wrap(m.cli, "read_matrix_market", "densmat.read_mm", _read_mm)
    tracer.wrap(m.cli, "write_matrix_market", "densmat.write_mm")
    tracer.wrap(m.cli, "load_matrix", "cli.load")


def _ratio(useful: float, attempts: float) -> float:
    """useful / attempts, taken as 1 when the layer did no work."""
    return useful / attempts if attempts else 1.0


def op_counts(spans: list[Span]) -> dict[str, int]:
    """Exact work counts of one operation; equal for repeated operations."""
    by_id = {s.id: s for s in spans}

    def in_estimator(s: Span) -> bool:
        return s.parent in by_id and by_id[s.parent].name in ("taylor", "chebyshev")

    products = [s for s in spans if s.name in ("densmat.matmat", "densmat.matvec")]
    power = [s for s in spans if s.name == "power"]
    power_ids = {s.id for s in power}
    oracle = [s for s in spans if s.name == "linalg.oracle"]

    # Matvecs each estimator call spent on probes (its direct products) and
    # on the power method (the products under its power child).
    probe_mv: dict[int, int] = {}
    power_mv: dict[int, int] = {}
    for s in products:
        if s.parent in power_ids:
            power_mv[s.parent] = power_mv.get(s.parent, 0) + s.attrs["matvecs"]
        elif in_estimator(s):
            probe_mv[s.parent] = probe_mv.get(s.parent, 0) + s.attrs["matvecs"]

    # Work a sweep needs: for each (method, matrix, seed) the probe matvecs
    # of its largest m, plus each distinct power-method call once.
    needed_probe: dict[tuple, int] = {}
    for s in spans:
        if s.name in ("taylor", "chebyshev"):
            key = (s.attrs["method"], s.attrs["nte"], s.attrs["matrix"], s.attrs["seed"])
            needed_probe[key] = max(needed_probe.get(key, 0), probe_mv.get(s.id, 0))
    distinct_power: dict[tuple, int] = {}
    for s in power:
        distinct_power.setdefault(tuple(s.attrs["key"]), power_mv.get(s.id, 0))

    matvecs = sum(s.attrs["matvecs"] for s in products)
    estimator_mv = sum(probe_mv.values()) + sum(
        power_mv.get(s.id, 0) for s in power if in_estimator(s)
    )
    return {
        "rng.gaussian_draws": sum(s.attrs["draws"] for s in spans if s.name == "rng.gaussian"),
        "power.calls": len(power),
        "power.distinct": len(distinct_power),
        "power.matvecs": sum(power_mv.values()),
        "densmat.matmat_calls": sum(1 for s in products if s.name == "densmat.matmat"),
        "densmat.matvecs": matvecs,
        "densmat.flops": sum(s.attrs["flops"] for s in products),
        "densmat.bytes_computed": sum(s.attrs["bytes"] for s in products),
        "densmat.read_mm_entries": sum(
            s.attrs["entries"] for s in spans if s.name == "densmat.read_mm"
        ),
        "linalg.oracle_calls": len(oracle),
        "linalg.oracle_distinct": len({tuple(s.attrs["key"]) for s in oracle}),
        "sweep.needed_matvecs": sum(needed_probe.values()) + sum(distinct_power.values()),
        "sweep.estimator_matvecs": estimator_mv,
    }


def op_times(spans: list[Span]) -> dict[str, float]:
    """Busy seconds per layer in one operation."""
    own = self_times(spans)

    def total(name):
        return sum(s.duration_ns for s in spans if s.name == name) * NS

    def self_s(name):
        return sum(own[s.id] for s in spans if s.name == name) * NS

    return {
        "rng.gaussian_s": total("rng.gaussian"),
        "power.s": total("power"),
        "densmat.matmat_s": total("densmat.matmat"),
        "densmat.read_mm_s": total("densmat.read_mm"),
        "taylor.self_s": self_s("taylor"),
        "chebyshev.self_s": self_s("chebyshev"),
        "sketch.gaussian_s": total("sketch.gaussian"),
        "sketch.srht_s": total("sketch.srht"),
        "sketch.countsketch_s": total("sketch.countsketch"),
        "linalg.gram_s": total("linalg.gram"),
        "linalg.oracle_s": total("linalg.oracle"),
        "cli.load_s": total("cli.load"),
    }


def layer_metrics(
    traced_ops: list[tuple[list[Span], dict[str, float]]],
    setup_spans: list[Span],
) -> dict[str, float]:
    """Per-layer metrics: counts of one operation, median busy seconds over
    the traced operations, and ratios of the counts.

    ``traced_ops`` pairs each operation's spans with the figures the
    workload read from its outputs (CLI cells and pool busy time).
    """
    counts = op_counts(traced_ops[0][0])
    per_op = [op_times(spans) for spans, _ in traced_ops]
    out = {k: statistics.median(t[k] for t in per_op) for k in per_op[0]}
    for key in (
        "rng.gaussian_draws",
        "power.calls",
        "power.matvecs",
        "densmat.matmat_calls",
        "densmat.matvecs",
        "densmat.read_mm_entries",
        "linalg.oracle_calls",
    ):
        out[key] = counts[key]
    out["power.useful_ratio"] = _ratio(counts["power.distinct"], counts["power.calls"])
    out["densmat.flop_per_byte_computed"] = _ratio(
        counts["densmat.flops"], counts["densmat.bytes_computed"]
    )
    out["linalg.oracle_useful_ratio"] = _ratio(
        counts["linalg.oracle_distinct"], counts["linalg.oracle_calls"]
    )
    out["cli.sweep_useful_ratio"] = _ratio(
        counts["sweep.needed_matvecs"], counts["sweep.estimator_matvecs"]
    )
    writes = [s.duration_ns * NS for s in setup_spans if s.name == "densmat.write_mm"]
    out["densmat.write_mm_s"] = statistics.median(writes) if writes else 0.0

    facts = traced_ops[0][1]
    for key in ("cli.cells", "cli.cells_failed"):
        out[key] = facts.get(key, 0)
    out["cli.cell_busy_s"] = statistics.median(
        f.get("cli.cell_busy_s", 0.0) for _, f in traced_ops
    )
    pool = [
        f["cli.cell_busy_s"] / (f["cli.threads"] * f["sweep_s"])
        for _, f in traced_ops
        if f.get("cli.threads")
    ]
    out["cli.pool_util"] = statistics.median(pool) if pool else 0.0
    return out
