"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical criteria use fixed seed ranges; tolerances are pinned in the
assertions, not tuned at runtime.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from conftest import diagonal_matrix, rotated_density
from vnentropy import (
    EstimatorConfig,
    ProjectionSpec,
    RngStream,
    SparseSymMatrix,
    apply_countsketch,
    cheb_coefficients,
    chebyshev_entropy,
    default_m_taylor,
    default_power_params,
    default_s_sketch,
    entropy_from_probs,
    generate_low_rank_density,
    generate_tridiagonal_poisson,
    householder_qr,
    power_method,
    probe_average,
    sketch_entropy,
    taylor_entropy,
    write_matrix_market,
)
from vnentropy import chebyshev, taylor
from vnentropy.cli import main as cli_main
from vnentropy.rng import gaussian_vector, uniform_doubles


def report(num, name, ok, detail):
    print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def xlnx(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)


def test_01_chebyshev_scalar_truncation_bound():
    worst = -1.0
    for u in (0.06, 0.5, 1.0):
        grid = np.linspace(0.0, u, 10**4)
        for m in (2, 5, 10, 30):
            coeffs = cheb_coefficients(u, m)
            err = np.max(np.abs(xlnx(grid) - chebval((2.0 / u) * grid - 1.0, coeffs)))
            bound = u / (2.0 * m * (m + 1)) + 1e-12
            worst = max(worst, err - bound)
            if err > bound:
                report(1, "chebyshev scalar truncation bound", False,
                       f"u={u} m={m}: err {err:.3e} > bound {bound:.3e}")
    report(1, "chebyshev scalar truncation bound", True, f"worst margin {worst:.2e}")


def test_02_clenshaw_identities():
    stream = RngStream(2024)
    worst_rel = 0.0
    for _ in range(1000):
        u = 0.02 + 0.98 * uniform_doubles(stream, 1)[0]
        m = 1 + int(uniform_doubles(stream, 1)[0] * 50)
        x = u * uniform_doubles(stream, 1)[0]
        coeffs = cheb_coefficients(u, m)
        # the library recurrence through the nte route on the 1x1 diagonal [x]
        cfg = EstimatorConfig(u_mode="manual", u_value=u, m_override=m, nte=True, s_override=0)
        model = np.array([x])
        series = -chebyshev_entropy(diagonal_matrix([x]), cfg, model).estimate
        y = np.clip((2.0 / u) * x - 1.0, -1.0, 1.0)
        direct = float(sum(a * math.cos(w * math.acos(y)) for w, a in enumerate(coeffs)))
        diff = abs(series - direct)
        tol = 1e-10 * max(abs(series), abs(direct)) + 1e-12
        worst_rel = max(worst_rel, diff / max(tol, 1e-300))
        if diff > tol:
            report(2, "Clenshaw identities", False, f"scalar mismatch {diff:.2e} at u={u} m={m} x={x}")

    probs = np.array([0.35, 0.3, 0.25, 0.1])
    x2 = diagonal_matrix(probs).shifted(4.0 / 0.8, -2.0)
    y = np.clip((2.0 / 0.8) * probs - 1.0, -1.0, 1.0)
    for seed in range(25):
        m = 1 + (seed % 12)
        coeffs = cheb_coefficients(0.8, m)
        g = gaussian_vector(RngStream(seed, 555), 4)
        forms = chebyshev.moments(x2.matmat, g[:, None], m)[0]
        matrix_form = float(sum(a * f for a, f in zip(coeffs, forms)))
        cosine = sum(a * np.cos(w * np.arccos(y)) for w, a in enumerate(coeffs))
        scalar_form = float(np.sum(g**2 * cosine))
        if not np.isclose(matrix_form, scalar_form, rtol=1e-10, atol=1e-12):
            report(2, "Clenshaw identities", False,
                   f"diagonal form mismatch at seed {seed}: {matrix_form} vs {scalar_form}")
    report(2, "Clenshaw identities", True, f"1000 scalar + 25 diagonal checks, worst {worst_rel:.2f} of tol")


def test_03_taylor_series_oracle():
    t0 = time.perf_counter()
    r2 = diagonal_matrix([0.5, 0.5])
    cfg = EstimatorConfig(u_mode="manual", u_value=1.0, m_override=10, nte=True, s_override=0)
    est = taylor_entropy(r2, cfg).estimate
    if abs(est - 0.693065) > 1e-6:
        report(3, "taylor series oracle", False, f"(1/2)I2 gave {est!r}")

    for n in (4, 16):
        exact = math.log(n)
        probs = np.full(n, 1.0 / n)
        for epsilon in (0.5, 0.1):
            m = default_m_taylor(1.0, 1.0 / n, epsilon)
            y = 1.0 - probs
            forms = taylor.moments(lambda x: y[:, None] * x, np.ones((n, 1)), 1.0, m)[0]
            partials = np.cumsum(forms / np.arange(1, m + 1))
            if np.any(np.diff(partials) < -1e-15):
                report(3, "taylor series oracle", False, f"series not monotone at n={n}")
            gap = exact - partials[-1]
            if not -1e-10 <= gap <= epsilon * exact:
                report(3, "taylor series oracle", False,
                       f"n={n} eps={epsilon}: gap {gap:.4f} vs allowance {epsilon * exact:.4f}")
    report(3, "taylor series oracle", True,
           f"(1/2)I2 -> {est:.6f}; identity gaps within eps*H; {time.perf_counter()-t0:.2f}s")


def test_04_full_pipeline_relative_error():
    # Formula-default m and s at ell = p_min are computationally infeasible
    # here (m lands in the millions for this spectrum), so the error claim
    # is checked at the operating point m=30, s=300 while the m formula
    # itself is verified analytically below.
    t0 = time.perf_counter()
    r, model = generate_tridiagonal_poisson(1024)
    ell = model[-1]
    epsilon = delta = 0.1

    taylor_ok = cheb_ok = 0
    max_u = 0.0
    for seed in range(20):
        cfg = EstimatorConfig(
            epsilon=epsilon, delta=delta, ell=ell, u_mode="six",
            m_override=30, s_override=300, seed=seed,
        )
        rt = taylor_entropy(r, cfg, model)
        rc = chebyshev_entropy(r, cfg, model)
        taylor_ok += rt.rel_err <= 2 * epsilon
        cheb_ok += rc.rel_err <= 3 * epsilon
        max_u = max(max_u, rt.fields["u"])

    # the default-m formula guarantees the truncation factor (1-ell/u)^m <= eps
    m_default = default_m_taylor(max_u, ell, epsilon)
    analytic = m_default * math.log1p(-ell / max_u)
    formula_ok = analytic <= math.log(epsilon) + 1e-9

    ok = taylor_ok >= 18 and cheb_ok >= 18 and formula_ok
    report(4, "full-pipeline relative error", ok,
           f"taylor {taylor_ok}/20 within 2eps, chebyshev {cheb_ok}/20 within 3eps, "
           f"default m={m_default} gives ln truncation {analytic:.3f} <= ln eps; "
           f"{time.perf_counter()-t0:.1f}s")


def test_05_power_method_bounds():
    t0 = time.perf_counter()
    r, model = rotated_density([0.5, 0.3, 0.2], RngStream(99))
    t_iters, q_reps = default_power_params(3, 0.1)
    upper = lower = 0
    for seed in range(200):
        p1t = power_method(r, t_iters, q_reps, RngStream(seed)).p1_tilde
        upper += p1t <= model[0] + 1e-12
        lower += p1t >= model[0] / 6.0
    ok = upper == 200 and lower >= 170
    report(5, "power method bounds", ok,
           f"upper {upper}/200, lower {lower}/200 (need 200 and >=170); {time.perf_counter()-t0:.1f}s")


def test_06_trace_estimator_guarantee():
    t0 = time.perf_counter()
    diag = np.arange(1, 101, dtype=np.float64)
    diag /= diag.sum()
    forms = lambda block: np.einsum("ij,ij->j", block, diag[:, None] * block)
    failures = sum(
        abs(probe_average(100, 1498, RngStream(trial), forms) - 1.0) > 0.2
        for trial in range(200)
    )
    ok = failures / 200 <= 0.15
    report(6, "trace estimator guarantee", ok,
           f"failure rate {failures}/200 (allowed 30); {time.perf_counter()-t0:.1f}s")


def test_07_sketch_eigenvalue_guarantee():
    t0 = time.perf_counter()
    r, model = generate_low_rank_density(512, 5, "linear", RngStream(42))
    p_squared = model**2
    rates = {}
    for kind in ("gaussian", "srht", "countsketch"):
        s = default_s_sketch(kind, 512, 5, 0.5)
        hits = 0
        for seed in range(200):
            out = sketch_entropy(r, 5, ProjectionSpec(kind, s, RngStream(seed)))
            hits += bool(np.all(np.abs(out.probs_tilde**2 - p_squared) <= 0.5 * p_squared))
        rates[kind] = hits
    ok = all(hits >= 170 for hits in rates.values())
    report(7, "sketch eigenvalue guarantee", ok,
           f"hits per kind {rates} of 200 (need >=170 each); {time.perf_counter()-t0:.1f}s")


def test_08_sketch_entropy_guarantee():
    t0 = time.perf_counter()
    n, eps = 256, 0.2
    q = householder_qr(gaussian_vector(RngStream(77), n * 2).reshape(n, 2))
    dense = 0.5 * np.outer(q[:, 0], q[:, 0]) + 0.5 * np.outer(q[:, 1], q[:, 1])
    r = SparseSymMatrix(block=(dense + dense.T) / 2.0)
    bound = math.sqrt(eps) * math.log(2) + math.sqrt(1.5) * eps
    hits = sum(
        abs(
            sketch_entropy(r, 2, ProjectionSpec("countsketch", 100, RngStream(seed))).entropy_tilde
            - math.log(2)
        )
        <= bound
        for seed in range(100)
    )
    ok = hits >= 85
    report(8, "sketch entropy guarantee", ok,
           f"hits {hits}/100 within {bound:.4f}; {time.perf_counter()-t0:.1f}s")


def test_09_exact_debug_identity():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [
        (48, 5, "linear"),
        (48, 5, "exponential"),
        (64, 3, "linear"),
        (64, 3, "exponential"),
        (128, 8, "linear"),
        (128, 8, "exponential"),
    ]
    for n, k, decay in cases:
        r, model = generate_low_rank_density(n, k, decay, RngStream(n + k))
        out = sketch_entropy(r, k, ProjectionSpec("exact_debug", 1, RngStream(0)))
        exact_h = entropy_from_probs(model, 1e-14)
        worst = max(
            worst,
            float(np.max(np.abs(out.probs_tilde - model))),
            abs(out.entropy_tilde - exact_h),
        )
    ok = worst < 1e-8
    report(9, "exact-debug identity", ok,
           f"worst deviation {worst:.2e} over {len(cases)} low-rank cases; {time.perf_counter()-t0:.1f}s")


def _median_seconds(run, matrices, reps):
    """Median time of run(r, rep) for each matrix r, after one warm-up
    run(r, None) each.  The matrices take turns within every repetition,
    so load from other processes falls on all of them alike."""
    for r in matrices:
        run(r, None)
    times = [[] for _ in matrices]
    for rep in range(reps):
        for r, t in zip(matrices, times):
            t0 = time.perf_counter()
            run(r, rep)
            t.append(time.perf_counter() - t0)
    return [statistics.median(t) for t in times]


def test_10_performance_scaling():
    t0 = time.perf_counter()
    r2, _ = generate_tridiagonal_poisson(2048)
    r4, _ = generate_tridiagonal_poisson(4096)

    cfg = EstimatorConfig(u_mode="manual", u_value=1.0, m_override=100, s_override=64, seed=1)
    taylor2, taylor4 = _median_seconds(lambda r, rep: taylor_entropy(r, cfg), (r2, r4), reps=5)
    sketch2, sketch4 = _median_seconds(
        lambda r, rep: apply_countsketch(r, 256, RngStream(999 if rep is None else rep)),
        (r2, r4), reps=11,
    )
    taylor_ratio = taylor4 / taylor2
    sketch_ratio = sketch4 / sketch2
    nnz_ratio = r4.nnz / r2.nnz

    taylor_ok = 1.5 <= taylor_ratio <= 3.0
    sketch_ok = sketch_ratio <= 3.0 * nnz_ratio
    report(10, "performance scaling", taylor_ok and sketch_ok,
           f"taylor x{taylor_ratio:.2f} (need 1.5..3.0), countsketch x{sketch_ratio:.2f} "
           f"vs 3*nnz_ratio={3*nnz_ratio:.2f}; {time.perf_counter()-t0:.1f}s")


def test_11_determinism_across_thread_counts(tmp_path, capsys):
    t0 = time.perf_counter()

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        return out.encode()

    matrices = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.mtx"
        run(["generate", "--family", "lowrank", "--n", "48", "--k", "4",
             "--decay", "linear", "--seed", "7", "--out", str(out)])
        matrices.append((out.read_bytes(), (tmp_path / f"{tag}.mtx.spectrum").read_bytes()))
    gen_ok = matrices[0] == matrices[1]

    matrix = tmp_path / "a.mtx"
    est_outputs = {
        run(["estimate", str(matrix), "--method", method, "--m", "6", "--s", "12",
             "--seed", "3", "--no-timings"])
        for method in ("taylor", "chebyshev")
        for _ in range(2)
    }
    sk_outputs = {
        run(["estimate", str(matrix), "--method", "sketch", "--proj", proj, "--rank", "4",
             "--s", "24", "--seed", "3", "--no-timings"])
        for proj in ("gaussian", "srht", "countsketch")
        for _ in range(2)
    }
    est_ok = len(est_outputs) == 2 and len(sk_outputs) == 3  # one output per method

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "matrix": {"family": "tridiagonal", "n": 128},
        "methods": ["taylor", "chebyshev_nte", "exact"],
        "m_values": [5, 10],
        "s_values": [16],
        "u_modes": ["six"],
        "seeds": [0, 1],
    }))
    bench_outputs = set()
    for threads in ("1", "2", "4"):
        out_csv = tmp_path / f"bench{threads}.csv"
        run(["bench", str(grid), "--out", str(out_csv), "--threads", threads, "--no-timings"])
        bench_outputs.add(out_csv.read_bytes())
    bench_ok = len(bench_outputs) == 1

    ok = gen_ok and est_ok and bench_ok
    report(11, "determinism across thread counts", ok,
           f"generate identical: {gen_ok}, estimate outputs unique per method: {est_ok}, "
           f"bench identical over threads 1/2/4: {bench_ok}; {time.perf_counter()-t0:.1f}s")
