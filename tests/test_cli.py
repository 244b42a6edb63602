import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import vnentropy.linalg
import vnentropy.report
from vnentropy import SparseSymMatrix, cli, write_matrix_market
from vnentropy.cli import main, parse_seed, parse_u_mode


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_identity_density(tmp_path, n, name="id.mtx"):
    path = tmp_path / name
    write_matrix_market(SparseSymMatrix.from_dense(np.eye(n) / n), path)
    return path


def test_parse_seed_accepts_decimal_and_hex():
    assert parse_seed("10") == 10
    assert parse_seed("0x10") == 16
    assert parse_seed("0X1f") == 31
    with pytest.raises(Exception):
        parse_seed("ten")


def test_parse_u_mode():
    assert parse_u_mode("six") == ("six", None)
    assert parse_u_mode("raw") == ("raw", None)
    assert parse_u_mode("manual:0.25") == ("manual", 0.25)
    assert parse_u_mode("manual:1") == ("manual", 1.0)
    for bad in ("auto", "manual:x", "manual:0", "manual:1.5", "manual:nan"):
        with pytest.raises(Exception):
            parse_u_mode(bad)


def test_generate_tridiagonal_writes_matrix_and_spectrum(tmp_path, capsys):
    out = tmp_path / "tri.mtx"
    code, _, _ = run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "8", "--out", str(out))
    assert code == 0
    assert out.exists()
    probs = np.loadtxt(out.parent / "tri.mtx.spectrum")
    assert probs.size == 8
    assert abs(probs.sum() - 1.0) < 1e-10


def test_generate_lowrank_spectrum_values(tmp_path, capsys):
    out = tmp_path / "lr.mtx"
    code, _, _ = run_cli(
        capsys, "generate", "--family", "lowrank", "--n", "64", "--k", "4",
        "--decay", "linear", "--out", str(out),
    )
    assert code == 0
    probs = np.loadtxt(out.parent / "lr.mtx.spectrum")
    assert np.allclose(probs, [0.4, 0.3, 0.2, 0.1], atol=1e-15)


def test_generate_same_seed_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    for out in (a, b):
        run_cli(capsys, "generate", "--family", "haar", "--n", "12", "--seed", "0x2a", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.mtx.spectrum").read_bytes() == (tmp_path / "b.mtx.spectrum").read_bytes()


def test_estimate_exact_on_quarter_identity(tmp_path, capsys):
    path = write_identity_density(tmp_path, 4)
    code, out, _ = run_cli(capsys, "estimate", str(path), "--method", "exact", "--no-timings")
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "exact"
    assert record["estimate"] == pytest.approx(math.log(4), abs=1e-12)
    assert record["rel_err"] == 0.0
    assert record["n"] == 4


def test_estimate_chebyshev_nte_record(tmp_path, capsys):
    path = write_identity_density(tmp_path, 2)
    code, out, _ = run_cli(
        capsys, "estimate", str(path), "--method", "chebyshev",
        "--m", "30", "--s", "0", "--nte", "--no-timings",
    )
    assert code == 0
    record = json.loads(out)
    assert abs(record["estimate"] - 0.693147) <= 1.1e-3
    assert record["m"] == 30 and record["s"] == 0


def test_estimate_sketch_record(tmp_path, capsys):
    out_path = tmp_path / "lr.mtx"
    run_cli(capsys, "generate", "--family", "lowrank", "--n", "64", "--k", "4",
            "--decay", "linear", "--out", str(out_path))
    code, out, _ = run_cli(
        capsys, "estimate", str(out_path), "--method", "sketch",
        "--proj", "countsketch", "--rank", "4", "--s", "64", "--no-timings",
    )
    assert code == 0
    record = json.loads(out)
    assert len(record["probs"]) == 4
    assert record["proj"] == "countsketch"
    assert abs(record["estimate"] - 1.27985) < 0.2
    assert "rel_err" in record


def test_estimate_hex_and_decimal_seed_agree(tmp_path, capsys):
    path = write_identity_density(tmp_path, 8)
    _, out_hex, _ = run_cli(
        capsys, "estimate", str(path), "--method", "taylor",
        "--m", "5", "--s", "4", "--seed", "0x10", "--no-timings",
    )
    _, out_dec, _ = run_cli(
        capsys, "estimate", str(path), "--method", "taylor",
        "--m", "5", "--s", "4", "--seed", "16", "--no-timings",
    )
    assert out_hex == out_dec


def test_estimate_warns_on_violated_ell(tmp_path, capsys):
    out_path = tmp_path / "tri.mtx"
    run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "16", "--out", str(out_path))
    code, out, _ = run_cli(
        capsys, "estimate", str(out_path), "--method", "taylor",
        "--ell", "0.5", "--m", "5", "--s", "4", "--no-timings",
    )
    assert code == 0  # warnings do not fail the run
    record = json.loads(out)
    assert any("ell" in w for w in record["warnings"])


def test_usage_errors_exit_one(tmp_path, capsys):
    path = write_identity_density(tmp_path, 4)
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", str(path), "--method", "sketch"])
    assert excinfo.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--family", "wavelet", "--n", "4", "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", str(path), "--method", "taylor"])  # no ell and no m
    assert excinfo.value.code == 1
    capsys.readouterr()


BAD_ESTIMATE_FLAGS = {
    "taylor-zero-m": ("--method", "taylor", "--m", "0", "--s", "4"),
    "taylor-negative-s": ("--method", "taylor", "--m", "3", "--s", "-2"),
    "taylor-eps-above-one": ("--method", "taylor", "--m", "3", "--s", "4", "--eps", "2"),
    "taylor-nte-with-s": ("--method", "taylor", "--m", "3", "--nte", "--s", "5"),
    "chebyshev-zero-ell": ("--method", "chebyshev", "--ell", "0"),
    "sketch-zero-rank": ("--method", "sketch", "--proj", "gaussian", "--rank", "0", "--s", "4"),
    "sketch-rank-above-n": ("--method", "sketch", "--proj", "countsketch", "--rank", "5", "--s", "4"),
    "sketch-negative-s": ("--method", "sketch", "--proj", "srht", "--rank", "2", "--s", "-5"),
    "sketch-zero-s": ("--method", "sketch", "--proj", "gaussian", "--rank", "2", "--s", "0"),
    "sketch-eps-above-one": ("--method", "sketch", "--proj", "gaussian", "--rank", "2", "--eps", "2"),
}


@pytest.mark.parametrize("name", sorted(BAD_ESTIMATE_FLAGS))
def test_estimate_out_of_range_flags_are_usage_errors(tmp_path, capsys, name):
    path = write_identity_density(tmp_path, 4)
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", str(path), *BAD_ESTIMATE_FLAGS[name]])
    assert excinfo.value.code == 1
    assert "usage error" in capsys.readouterr().err


def test_estimate_unwritable_out_exits_two_before_the_run(tmp_path, capsys, monkeypatch):
    path = write_identity_density(tmp_path, 4)
    ran = []
    monkeypatch.setattr(cli, "run_method", lambda *args: ran.append(args))
    out = tmp_path / "missing" / "x.jsonl"
    code, stdout, err = run_cli(capsys, "estimate", str(path), "--method", "exact", "--out", str(out))
    assert code == 2 and str(out) in err and stdout == ""
    assert ran == []


BAD_GENERATE_FLAGS = {
    "lowrank-k-above-n": ("--family", "lowrank", "--n", "8", "--k", "20"),
    "lowrank-zero-k": ("--family", "lowrank", "--n", "8", "--k", "0"),
    "linuniform-k-above-n": ("--family", "linuniform", "--n", "4", "--k", "5"),
    "tridiagonal-n-one": ("--family", "tridiagonal", "--n", "1"),
    "haar-zero-n": ("--family", "haar", "--n", "0"),
    "lowrank-negative-n": ("--family", "lowrank", "--n", "-3", "--k", "1"),
}


@pytest.mark.parametrize("name", sorted(BAD_GENERATE_FLAGS))
def test_generate_out_of_range_sizes_are_usage_errors(tmp_path, capsys, name):
    out = tmp_path / "m.mtx"
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", *BAD_GENERATE_FLAGS[name], "--out", str(out)])
    assert excinfo.value.code == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_pure_state_record_carries_one_warning(tmp_path, capsys):
    path = tmp_path / "pure.mtx"
    write_matrix_market(SparseSymMatrix.from_dense(np.diag([1.0, 0.0, 0.0, 0.0])), path)
    for flags in (
        ("--method", "exact"),
        ("--method", "taylor", "--m", "3", "--s", "4"),
        ("--method", "chebyshev", "--m", "3", "--nte"),
        ("--method", "sketch", "--proj", "countsketch", "--rank", "1", "--s", "4"),
    ):
        code, out, _ = run_cli(
            capsys, "estimate", str(path), *flags, "--compute-exact", "--no-timings"
        )
        record = json.loads(out)
        assert code == 0
        assert sum("pure state" in w for w in record["warnings"]) == 1, flags
        assert "rel_err" not in record and record["exact"] == 0.0 and "abs_err" in record


LAYOUT_FLAGS = {
    "exact": ("--method", "exact"),
    "taylor": ("--method", "taylor", "--m", "3", "--s", "4"),
    "chebyshev_nte": ("--method", "chebyshev", "--m", "3", "--nte"),
    "sketch": ("--method", "sketch", "--proj", "countsketch", "--rank", "1", "--s", "4"),
}
LAYOUT_FIELDS = {
    "exact": ["seed"],
    "taylor": ["m", "s", "u", "seed"],
    "chebyshev_nte": ["m", "s", "u", "seed"],
    "sketch": ["s", "proj", "rank", "seed", "probs"],
}


@pytest.mark.parametrize("case", ["sidecar", "no-sidecar", "pure-sidecar"])
@pytest.mark.parametrize("method", sorted(LAYOUT_FLAGS))
def test_estimate_record_keys_in_order(tmp_path, capsys, method, case):
    path = tmp_path / "r.mtx"
    if case == "pure-sidecar":
        write_matrix_market(SparseSymMatrix.from_dense(np.diag([1.0, 0.0, 0.0, 0.0])), path)
        cli.write_spectrum(np.array([1.0, 0.0, 0.0, 0.0]), cli.sidecar_path(path))
    else:
        run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "8", "--out", str(path))
        if case == "no-sidecar":
            cli.sidecar_path(path).unlink()
    code, out, _ = run_cli(capsys, "estimate", str(path), *LAYOUT_FLAGS[method], "--no-timings")
    assert code == 0
    if case == "pure-sidecar":
        errors = ["exact", "abs_err"]
    elif case == "sidecar" or method == "exact":
        errors = ["exact", "rel_err"]
    else:
        errors = []
    expected = ["method", "n", "nnz", *LAYOUT_FIELDS[method], "estimate", *errors, "warnings"]
    assert list(json.loads(out)) == expected


def test_compute_exact_uses_the_sidecar_without_the_oracle(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "tri.mtx"
    run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "16", "--out", str(out_path))
    monkeypatch.setattr(cli.linalg, "exact_entropy", lambda *a, **k: pytest.fail("oracle ran"))
    code, out, _ = run_cli(
        capsys, "estimate", str(out_path), "--method", "taylor",
        "--m", "3", "--s", "4", "--compute-exact", "--no-timings",
    )
    assert code == 0 and "rel_err" in json.loads(out)


def test_numerical_failures_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "estimate", str(tmp_path / "missing.mtx"), "--method", "exact")
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n9 9 1.0\n")
    code, _, err = run_cli(capsys, "estimate", str(bad), "--method", "exact")
    assert code == 2 and ":3:" in err


def test_trace_off_one_exits_two(tmp_path, capsys):
    path = tmp_path / "trace2.mtx"
    write_matrix_market(SparseSymMatrix.from_dense(np.eye(2)), path)
    code, out, err = run_cli(capsys, "estimate", str(path), "--method", "exact")
    assert code == 2 and out == ""
    assert str(path) in err and "trace 2.0" in err
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"matrix": {"path": str(path)}, "methods": ["exact"], "seeds": [0]}))
    code, out, err = run_cli(capsys, "bench", str(grid))
    assert code == 2 and out == ""
    assert str(path) in err and "trace 2.0" in err


@pytest.mark.parametrize(
    "rewrite, message",
    [
        (lambda p: 1.2 * p, "sum to 1.2"),
        (lambda p: np.full(p.size + 1, 1.0 / (p.size + 1)), "17 probabilities for n=16"),
        (lambda p: np.full(p.size, np.nan), "sum to nan"),
        (lambda p: "0.5\nhalf\n", "could not convert"),
    ],
    ids=["sum-1.2", "n-plus-one-entries", "nan", "malformed"],
)
def test_bad_spectrum_sidecar_exits_two_naming_it(tmp_path, capsys, rewrite, message):
    path = tmp_path / "tri.mtx"
    run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "16", "--out", str(path))
    side = cli.sidecar_path(path)
    contents = rewrite(np.loadtxt(side))
    if isinstance(contents, str):
        side.write_text(contents)
    else:
        cli.write_spectrum(contents, side)
    code, out, err = run_cli(
        capsys, "estimate", str(path), "--method", "taylor", "--m", "3", "--s", "4"
    )
    assert code == 2 and out == ""
    assert str(side) in err and message in err


def test_bench_exact_only_grid(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "matrix": {"family": "tridiagonal", "n": 16},
        "methods": ["exact"],
        "seeds": [0, 1],
    }))
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "bench", str(grid), "--out", str(out_csv), "--no-timings")
    assert code == 0
    rows = [line.split(",") for line in out_csv.read_text().splitlines() if not line.startswith("#")]
    header, data = rows[0], rows[1:]
    rel = header.index("rel_err")
    assert len(data) == 2
    assert all(row[rel] == "0" for row in data)


def test_bench_nte_error_decreases_in_m(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "matrix": {"family": "tridiagonal", "n": 256},
        "methods": ["taylor_nte"],
        "m_values": [5, 10, 20, 30],
        "u_modes": ["six"],
        "seeds": [0, 1, 2],
    }))
    out_csv = tmp_path / "out.csv"
    run_cli(capsys, "bench", str(grid), "--out", str(out_csv), "--no-timings")
    means = []
    for line in out_csv.read_text().splitlines():
        if line.startswith("# summary,taylor_nte"):
            means.append(float(line.split(",")[5]))
    assert len(means) == 4
    assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))


def test_bench_repeat_and_threads_byte_identical(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "matrix": {"family": "lowrank", "n": 48, "k": 3, "decay": "exponential"},
        "methods": ["taylor", "sketch:countsketch", "exact"],
        "m_values": [4],
        "s_values": [16],
        "u_modes": ["six"],
        "seeds": [0, 1],
        "rank": 3,
    }))
    outputs = []
    for threads in ("1", "1", "4"):
        out_csv = tmp_path / f"out{len(outputs)}.csv"
        run_cli(capsys, "bench", str(grid), "--out", str(out_csv), "--threads", threads, "--no-timings")
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_bench_threads_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, threads):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"matrix": {"family": "tridiagonal", "n": 8}, "methods": ["exact"], "seeds": [0]}))
    ran = []
    monkeypatch.setattr(cli, "_attempt", lambda *args: ran.append(args))
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", str(grid), "--threads", threads])
    assert excinfo.value.code == 1
    assert "usage error" in capsys.readouterr().err
    assert ran == []


def test_bench_records_cell_failures_and_continues(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "matrix": {"family": "tridiagonal", "n": 5000},
        "methods": ["exact", "taylor"],  # exact fails: n is above the oracle limit
        "m_values": [2],
        "s_values": [2],
        "u_modes": ["manual:0.01"],
        "seeds": [0],
    }))
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "bench", str(grid), "--out", str(out_csv), "--no-timings")
    assert code == 0
    lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
    error_col = lines[0].split(",").index("error")
    cells = [l.split(",") for l in lines[1:]]
    assert [(row[0], row[error_col]) for row in cells] == [("exact", "ValueError"), ("taylor", "")]


def test_bench_repetitions_add_rows_with_fresh_streams(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "matrix": {"family": "tridiagonal", "n": 32},
        "methods": ["taylor"],
        "m_values": [4],
        "s_values": [8],
        "seeds": [0],
        "repetitions": 2,
    }))
    out_csv = tmp_path / "out.csv"
    run_cli(capsys, "bench", str(grid), "--out", str(out_csv), "--no-timings")
    lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
    header, cells = lines[0].split(","), [l.split(",") for l in lines[1:]]
    rep_col, est_col = header.index("rep"), header.index("estimate")
    assert [row[rep_col] for row in cells] == ["0", "1"]
    assert cells[0][est_col] != cells[1][est_col]  # repetitions use fresh streams


def test_bench_rejects_malformed_grid(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"matrix": {"family": "tridiagonal", "n": 8}, "methods": [], "seeds": [0]}))
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", str(grid)])
    assert excinfo.value.code == 1
    capsys.readouterr()


BAD_GRIDS = {
    "seed-above-64-bits": {"seeds": [2**64]},
    "negative-seed": {"seeds": [-1]},
    "fractional-seed": {"seeds": [1.5]},
    "boolean-seed": {"seeds": [True]},
    "unparsable-seed": {"seeds": ["seven"]},
    "zero-repetitions": {"repetitions": 0},
    "fractional-repetitions": {"repetitions": 2.5},
    "string-repetitions": {"repetitions": "2"},
    "repeated-seed-at-2**32": {"seeds": [0, 2**32], "repetitions": 2},
    "mixed-bad-seeds": {"seeds": [2**64 - 1, -1, 0, 2**32], "repetitions": 2},
    "bad-u-mode": {"u_modes": ["six", "manual:x"]},
    "manual-u-above-one": {"u_modes": ["manual:1.5"]},
    "unknown-u-mode": {"u_modes": ["sixx"]},
    "non-string-u-mode": {"u_modes": [6]},
    "unknown-method-suffix": {"methods": ["taylor:foo"]},
    "exact-nte": {"methods": ["exact_nte"]},
    "sketch-nte": {"methods": ["sketch_nte"], "rank": 2},
    "unknown-projection": {"methods": ["sketch:bogus"], "rank": 2},
    "non-string-method": {"methods": [["taylor"]]},
    "series-without-s-values": {"s_values": []},
    "sketch-without-rank": {"methods": ["sketch:gaussian"]},
    "sketch-zero-rank": {"methods": ["sketch:gaussian"], "rank": 0},
    "sketch-fractional-rank": {"methods": ["sketch:srht"], "rank": 1.5},
    "sketch-boolean-rank": {"methods": ["sketch:countsketch"], "rank": True},
    "sketch-string-rank": {"methods": ["sketch:countsketch"], "rank": "2"},
    "sketch-rank-above-n": {"methods": ["sketch:gaussian"], "rank": 9},
    "zero-m": {"m_values": [0]},
    "fractional-m": {"m_values": [2.7]},
    "boolean-m": {"m_values": [2, True]},
    "string-m": {"m_values": ["2"]},
    "m-values-not-a-list": {"m_values": 2},
    "fractional-s": {"s_values": [8.9]},
    "boolean-s": {"s_values": [True]},
    "string-s": {"s_values": ["8"]},
    "zero-s": {"s_values": [0]},
    "epsilon-above-one": {"epsilon": 2},
    "lowrank-without-k": {"matrix": {"family": "lowrank", "n": 8}},
    "linuniform-without-k": {"matrix": {"family": "linuniform", "n": 8}},
    "family-without-n": {"matrix": {"family": "tridiagonal"}},
    "unknown-family": {"matrix": {"family": "wavelet", "n": 8}},
    "lowrank-k-above-n": {"matrix": {"family": "lowrank", "n": 8, "k": 20}},
    "linuniform-zero-k": {"matrix": {"family": "linuniform", "n": 8, "k": 0}},
    "tridiagonal-n-one": {"matrix": {"family": "tridiagonal", "n": 1}},
    "haar-zero-n": {"matrix": {"family": "haar", "n": 0}},
    "lowrank-unknown-decay": {"matrix": {"family": "lowrank", "n": 8, "k": 2, "decay": "cubic"}},
    "fractional-n": {"matrix": {"family": "tridiagonal", "n": 8.7}},
    "string-n": {"matrix": {"family": "tridiagonal", "n": "abc"}},
    "fractional-k": {"matrix": {"family": "lowrank", "n": 8, "k": 2.5}},
    "negative-matrix-seed": {"matrix": {"family": "haar", "n": 6, "seed": -1}},
    "non-string-matrix-path": {"matrix": {"path": 5}},
    "matrix-list": {"matrix": ["path"]},
    "matrix-string": {"matrix": "x.mtx"},
}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_bench_rejects_bad_grid_before_any_cell_runs(tmp_path, capsys, monkeypatch, name):
    grid = tmp_path / "grid.json"
    spec = {
        "matrix": {"family": "tridiagonal", "n": 8},
        "methods": ["taylor"],
        "m_values": [2],
        "s_values": [2],
        "seeds": [0],
    }
    grid.write_text(json.dumps({**spec, **BAD_GRIDS[name]}))
    ran = []
    monkeypatch.setattr(cli, "_attempt", lambda *args: ran.append(args))
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", str(grid)])
    assert excinfo.value.code == 1
    assert "usage error" in capsys.readouterr().err
    assert ran == []


def test_bench_unwritable_out_exits_two_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "matrix": {"family": "tridiagonal", "n": 8},
        "methods": ["exact", "taylor"],
        "m_values": [2],
        "s_values": [2],
        "seeds": [0],
    }))
    ran = []
    monkeypatch.setattr(cli, "run_method", lambda *args: ran.append(args))
    out_csv = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, "bench", str(grid), "--out", str(out_csv))
    assert code == 2 and str(out_csv) in err and out == ""
    assert ran == []


def bench_rows(tmp_path, capsys, spec):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(spec))
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "bench", str(grid), "--out", str(out_csv), "--no-timings")
    assert code == 0
    lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_bench_accepts_seeds_at_the_range_limits(tmp_path, capsys):
    spec = {
        "matrix": {"family": "tridiagonal", "n": 16},
        "methods": ["taylor"],
        "m_values": [3],
        "s_values": [4],
        "seeds": [2**64 - 1],
    }
    rows = bench_rows(tmp_path, capsys, spec)
    assert [(r["seed"], r["rep"], r["error"]) for r in rows] == [(str(2**64 - 1), "0", "")]

    rows = bench_rows(tmp_path, capsys, {**spec, "seeds": [0, 2**32 - 1], "repetitions": 2})
    assert [(r["seed"], r["rep"]) for r in rows] == [
        ("0", "0"), ("0", "1"), (str(2**32 - 1), "0"), (str(2**32 - 1), "1")
    ]
    assert all(r["error"] == "" for r in rows)
    assert len({r["estimate"] for r in rows}) == 4  # no two cells share a stream


def test_bench_string_seeds_parse_like_the_seed_flag(tmp_path, capsys):
    spec = {
        "matrix": {"family": "tridiagonal", "n": 16},
        "methods": ["chebyshev"],
        "m_values": [3],
        "s_values": [4],
        "u_modes": ["manual:0.5"],
    }
    by_text = bench_rows(tmp_path, capsys, {**spec, "seeds": ["0x2A", "42"]})
    by_int = bench_rows(tmp_path, capsys, {**spec, "seeds": [42]})
    assert [r["seed"] for r in by_text] == ["42", "42"]
    assert by_text[0]["estimate"] == by_text[1]["estimate"] == by_int[0]["estimate"]
    assert by_int[0]["u_mode"] == "manual:0.5" and by_int[0]["error"] == ""


def test_estimate_and_bench_agree_on_one_cell(tmp_path, capsys):
    matrix = tmp_path / "lr.mtx"
    run_cli(capsys, "generate", "--family", "lowrank", "--n", "48", "--k", "3",
            "--decay", "exponential", "--out", str(matrix))
    flags = {
        "taylor": ("--method", "taylor", "--m", "4", "--s", "16"),
        "chebyshev_nte": ("--method", "chebyshev", "--m", "4", "--nte"),
        "sketch:countsketch": ("--method", "sketch", "--proj", "countsketch", "--rank", "3", "--s", "16"),
        "exact": ("--method", "exact"),
    }
    rows = bench_rows(tmp_path, capsys, {
        "matrix": {"path": str(matrix)},
        "methods": list(flags),
        "m_values": [4],
        "s_values": [16],
        "seeds": [5],
        "rank": 3,
    })
    assert [r["method"] for r in rows] == list(flags)
    for row in rows:
        _, out, _ = run_cli(capsys, "estimate", str(matrix), *flags[row["method"]],
                            "--seed", "5", "--no-timings")
        record = json.loads(out)
        assert row["error"] == ""
        for key in ("estimate", "exact", "rel_err"):
            assert float(row[key]) == record[key], (row["method"], key)


GRID_DIR = Path(__file__).resolve().parent.parent / "grids"
GRID_CELLS = {
    "error_vs_terms": 360,
    "projection_sweep_exponential_k10": 60,
    "projection_sweep_exponential_k50": 60,
    "projection_sweep_linear_k10": 60,
    "projection_sweep_linear_k50": 60,
}


@pytest.mark.parametrize("path", sorted(GRID_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_checked_in_grids_build_every_cell(path):
    grid = cli._load_grid(path)
    matrix, model = cli._grid_matrix(grid["matrix"])
    assert len(cli._bench_cells(grid, matrix.n, model)) == GRID_CELLS[path.stem]


SHARING_GRID = {
    "methods": ["exact", "taylor", "chebyshev", "taylor_nte", "chebyshev_nte"],
    "m_values": [6, 2, 4],
    "s_values": [8, 16],
    "u_modes": ["six", "raw", "manual:0.7"],
    "seeds": [5],
    "repetitions": 2,
}


def sharing_matrix(tmp_path, capsys, sidecar):
    path = tmp_path / ("lr.mtx" if sidecar else "bare.mtx")
    run_cli(capsys, "generate", "--family", "lowrank", "--n", "40", "--k", "4",
            "--decay", "exponential", "--seed", "3", "--out", str(path))
    if not sidecar:
        cli.sidecar_path(path).unlink()
    return path


def estimate_flags(row):
    method = row["method"]
    if method == "exact":
        return ["--method", "exact"]
    flags = ["--method", method.removesuffix("_nte"), "--m", row["m"], "--u-mode", row["u_mode"]]
    return flags + (["--nte"] if method.endswith("_nte") else ["--s", row["s"]])


@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no-sidecar"])
def test_bench_rows_equal_separate_estimate_runs(tmp_path, capsys, sidecar):
    matrix = sharing_matrix(tmp_path, capsys, sidecar)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"matrix": {"path": str(matrix)}, **SHARING_GRID}))
    outputs = []
    for threads in ("1", "4"):
        out_csv = tmp_path / f"out{threads}.csv"
        code, _, _ = run_cli(capsys, "bench", str(grid), "--out", str(out_csv),
                             "--threads", threads, "--no-timings")
        assert code == 0
        outputs.append(out_csv.read_bytes())
    assert outputs[0] == outputs[1]

    lines = [l for l in outputs[0].decode().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    # 2 repetitions of: exact, 3 m x 3 u x 2 s per series, 3 m x 3 u per nte
    assert len(rows) == 2 * (1 + 2 * 18 + 2 * 9)
    for row in rows:
        seed = int(row["seed"]) + (int(row["rep"]) << 32)
        code, out, _ = run_cli(capsys, "estimate", str(matrix), *estimate_flags(row),
                               "--seed", str(seed), "--no-timings")
        assert code == 0 and row["error"] == ""
        record = json.loads(out)
        for key in ("estimate", "exact", "rel_err"):
            expected = f"{record[key]:.17g}" if key in record else ""
            assert row[key] == expected, (row, key)


def counting(monkeypatch, owner, name, calls, fail_if=lambda *args: False):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        if fail_if(*args):
            raise RuntimeError("forced failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no-sidecar"])
def test_bench_computes_each_shared_result_once(tmp_path, capsys, monkeypatch, sidecar, threads):
    matrix = sharing_matrix(tmp_path, capsys, sidecar)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"matrix": {"path": str(matrix)}, **SHARING_GRID, "seeds": [5, 6]}))
    power, oracle = [], []
    counting(monkeypatch, vnentropy.report, "power_method", power)
    counting(monkeypatch, vnentropy.linalg, "exact_entropy", oracle)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a race would show
    try:
        code, _, _ = run_cli(capsys, "bench", str(grid), "--out", str(tmp_path / "out.csv"),
                             "--threads", threads, "--no-timings")
    finally:
        sys.setswitchinterval(interval)
    assert code == 0
    assert len(power) == 4  # seeds 5 and 6, repetitions 0 and 1
    assert len({(stream.seed, stream.stream_id) for *_, stream in power}) == 4
    assert len(oracle) == 1


@pytest.mark.parametrize("threads", ["1", "4"])
def test_a_failed_shared_power_method_fails_exactly_the_rows_of_separate_cells(
    tmp_path, capsys, monkeypatch, threads
):
    matrix = sharing_matrix(tmp_path, capsys, False)
    spec = {"matrix": {"path": str(matrix)}, **SHARING_GRID}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(spec))
    failed_seed = 5 + (1 << 32)  # repetition 1 only
    power = []
    counting(monkeypatch, vnentropy.report, "power_method", power,
             fail_if=lambda R, t, q, stream: stream.seed == failed_seed)
    out_csv = tmp_path / "out.csv"
    run_cli(capsys, "bench", str(grid), "--out", str(out_csv), "--threads", threads, "--no-timings")
    lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]

    matrix_, model = cli.load_matrix(matrix)
    cells = cli._bench_cells(cli._load_grid(grid), matrix_.n, model)
    expected = []
    for _, cell_spec in cells:
        try:
            cli.run_method(matrix_, model, cell_spec)
            expected.append("")
        except Exception as exc:
            expected.append(type(exc).__name__)
    assert [r["error"] for r in rows] == expected
    # the six and raw cells of repetition 1: 2 u x 3 m x (2 s + 2 s + 1 + 1)
    assert expected.count("RuntimeError") == 36
    assert all(r["estimate"] == "" for r in rows if r["error"])
