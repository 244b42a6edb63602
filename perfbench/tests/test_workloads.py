import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import vnentropy.taylor

import probes
import run
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent


def small(name, tmp_path, seed=3):
    sizes = {
        "tridiag-poly": dict(n=2048, m=12, s=8),
        "lowrank-sketch": dict(n=512, k=10, s=64),
        "haar-cli-sweep": dict(n=256, m_values=(20, 40), s=32, cell_seeds=2),
    }
    wl = workloads.WORKLOADS[name](seed, tmp_path, **sizes[name])
    wl.setup()
    return wl


def traced_run(wl):
    with Tracer() as tracer:
        probes.install(tracer)
        outcome = wl.run()
    return outcome, tracer.take()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_estimates_are_bitwise_equal_and_counts_repeat(name, tmp_path):
    wl = small(name, tmp_path)
    plain = wl.run()
    traced, spans = traced_run(wl)
    again, spans_again = traced_run(wl)
    assert plain.problems == traced.problems == []
    hexed = [{k: v.hex() for k, v in o.estimates.items()} for o in (plain, traced, again)]
    assert hexed[0] == hexed[1] == hexed[2]
    assert probes.op_counts(spans) == probes.op_counts(spans_again)


def test_tridiag_counts_match_the_estimator_cost(tmp_path):
    wl = small("tridiag-poly", tmp_path)
    _, spans = traced_run(wl)
    counts = probes.op_counts(spans)
    t, q = vnentropy.default_power_params(wl.n, 0.1)
    power = 2 * q * (t + 1)
    assert counts["power.matvecs"] == power
    assert counts["densmat.matvecs"] == wl.s * (wl.m + 1) + wl.s * wl.m + power
    assert counts["densmat.flops"] == 2 * wl.R.nnz * counts["densmat.matvecs"]
    assert counts["rng.gaussian_draws"] == 2 * wl.s * wl.n


def test_every_per_layer_metric_is_computed(tmp_path):
    wl = small("haar-cli-sweep", tmp_path)
    outcome, spans = traced_run(wl)
    computed = probes.layer_metrics([(spans, {**outcome.parts, **outcome.facts})], [])
    computed = set(computed) | set(run.PART_NAMES) | {"trace_overhead_frac", "fail_frac"}
    listed = {m["name"] for m in run.metric_specs()["per_layer"]}
    assert computed == listed


def test_perturbed_estimate_trips_the_gate(tmp_path, monkeypatch):
    wl = small("tridiag-poly", tmp_path)
    original = vnentropy.taylor.taylor_entropy

    def perturbed(*args, **kwargs):
        rep = original(*args, **kwargs)
        return dataclasses.replace(rep, estimate=rep.estimate * 1.2)

    monkeypatch.setattr(vnentropy.taylor, "taylor_entropy", perturbed)
    problems = wl.run().problems
    assert len(problems) == 1 and problems[0].startswith("taylor: rel_err")


def test_gate_rejects_non_finite_warned_and_far_estimates():
    assert workloads.check_estimate("x", 1.05, 1.0) == []
    assert workloads.check_estimate("x", math.nan, 1.0)
    assert workloads.check_estimate("x", 1.2, 1.0)
    assert workloads.check_estimate("x", 1.0, 1.0, warned=["u below p1"])


def test_sweep_gate_rejects_error_and_perturbed_rows(tmp_path):
    wl = small("haar-cli-sweep", tmp_path)
    wl.run()
    rows = workloads.read_sweep_rows(wl.out_csv)
    assert wl.check_rows(rows) == []
    exact_row = next(r for r in rows if r["method"] == "exact")
    exact_row["estimate"] = repr(float(exact_row["estimate"]) * (1 + 1e-6))
    rows[-1]["error"] = "ValueError"
    assert len(wl.check_rows(rows)) == 2
    assert len(wl.check_rows(rows[:-1])) == 2  # also one row short


class FlakyWorkload:
    name = "flaky"

    def __init__(self):
        self.calls = 0

    def run(self):
        self.calls += 1
        return workloads.Outcome(estimates={"e": 1.0 + (self.calls == 3) * math.ulp(1.0)})


def test_loop_fails_an_operation_whose_estimate_changes():
    loop = run.Loop(FlakyWorkload(), Tracer(), probes)
    for _ in range(4):
        loop.operation()
    assert (loop.attempted, loop.failed) == (4, 1)


class RaisingWorkload:
    name = "raising"
    setup_repeats = 1

    def __init__(self, seed, workdir):
        pass

    def setup(self):
        pass

    def run(self):
        raise RuntimeError("every operation fails")


class TraceSensitiveWorkload(RaisingWorkload):
    """Succeeds untraced; traced, its probe's count callable raises."""

    lib = types.ModuleType("lib")
    lib.value = lambda: 1.0

    def run(self):
        return workloads.Outcome(estimates={"e": self.lib.value()})


def run_main(trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(
        ["--workload", "tridiag-poly", "--seed", "1", "--seconds", "1e-9", "--trace", str(trace)]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_ends_and_reports_when_every_operation_raises(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "tridiag-poly", RaisingWorkload)
    result = run_main(trace, monkeypatch, capsys, tmp_path)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == (4 if trace else 2)


def test_run_ends_and_reports_when_every_traced_operation_raises(tmp_path, monkeypatch, capsys):
    def broken_probes(tracer):
        tracer.wrap(TraceSensitiveWorkload.lib, "value", "value", lambda result: 1 / 0)

    monkeypatch.setitem(workloads.WORKLOADS, "tridiag-poly", TraceSensitiveWorkload)
    monkeypatch.setattr(probes, "install", broken_probes)
    result = run_main(1, monkeypatch, capsys, tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 2)
    assert result["metrics"]["fail_frac"]["value"] == 0.5
    assert result["metrics"]["trace_overhead_frac"]["value"] is None


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "tridiag-poly",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
