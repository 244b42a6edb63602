import argparse
import json
import math
import os
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vnentropy
import vnentropy.hutchinson
import vnentropy.linalg
import vnentropy.report
import vnentropy.threads
from vnentropy import SparseSymMatrix, cli, densmat, write_matrix_market
from vnentropy.cli import main, parse_seed, parse_u_mode


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_identity_density(tmp_path, n, name="id.mtx"):
    path = tmp_path / name
    write_matrix_market(SparseSymMatrix(block=np.eye(n) / n), path)
    return path


def test_parse_seed_accepts_decimal_and_hex():
    assert parse_seed("10") == 10
    assert parse_seed("0x10") == 16
    assert parse_seed("0X1f") == 31
    assert parse_seed(" 7\n") == 7
    # only ASCII digits, as the Matrix Market reader reads integers
    for bad in ("ten", "1_000", "0x_ff", "\u0661\u0662", "+5", "0x", "1.5"):
        with pytest.raises(argparse.ArgumentTypeError, match="not decimal or 0x-hex"):
            parse_seed(bad)
    for bad in ("-1", "-0", str(2**64)):
        with pytest.raises(argparse.ArgumentTypeError, match="64 unsigned bits"):
            parse_seed(bad)


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


def test_generate_writes_on_a_worker_while_the_oracle_keeps_the_calling_thread(
    tmp_path, capsys, monkeypatch
):
    # the oracle's n x n temporaries belong on the thread whose memory the
    # build just freed; with one CPU the two run one after the other
    seen = {}

    def recording(name, real):
        def call(*args):
            seen[name] = threading.current_thread()
            return real(*args)

        return call

    oracle, writer = vnentropy.linalg.exact_entropy, cli.write_matrix_market
    monkeypatch.setattr(vnentropy.linalg, "exact_entropy", recording("oracle", oracle))
    monkeypatch.setattr(cli, "write_matrix_market", recording("writer", writer))
    files = {}
    for cpus in (1, 2):
        monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: cpus)
        seen.clear()
        out = tmp_path / f"haar{cpus}.mtx"
        assert run_cli(capsys, "generate", "--family", "haar", "--n", "40", "--out", str(out))[0] == 0
        assert seen["oracle"] is threading.main_thread()
        assert (seen["writer"] is threading.main_thread()) == (cpus == 1)
        files[cpus] = out.read_bytes(), cli.sidecar_path(out).read_bytes()
    assert files[1] == files[2]


@pytest.mark.parametrize("cpus", [1, 2])
def test_generate_oracle_failure_leaves_no_files(tmp_path, capsys, monkeypatch, cpus):
    # with two CPUs the writer has finished the file by the time the oracle's
    # failure is raised, so the file is removed; with one it never started
    monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: cpus)

    def fail(*args):
        raise ValueError("eigensolver failed")

    monkeypatch.setattr(vnentropy.linalg, "exact_entropy", fail)
    out = tmp_path / "m.mtx"
    code, _, err = run_cli(capsys, "generate", "--family", "haar", "--n", "40", "--out", str(out))
    assert (code, err) == (2, "vnentropy: error: eigensolver failed\n")
    assert list(tmp_path.iterdir()) == []


def test_generate_removes_the_sidecar_of_the_file_it_replaces(tmp_path, capsys, monkeypatch):
    # above the oracle limit a haar matrix has no known spectrum, so the
    # lowrank file's sidecar would be reported as its exact entropy
    out = tmp_path / "m.mtx"
    run_cli(capsys, "generate", "--family", "lowrank", "--n", "20", "--k", "3", "--out", str(out))
    assert cli.sidecar_path(out).exists()
    monkeypatch.setattr(vnentropy.linalg, "DEFAULT_ORACLE_LIMIT", 10)
    code, _, _ = run_cli(capsys, "generate", "--family", "haar", "--n", "20", "--out", str(out))
    assert code == 0 and not cli.sidecar_path(out).exists()
    code, record, _ = run_cli(
        capsys, "estimate", str(out), "--method", "taylor", "--m", "20", "--s", "50", "--no-timings"
    )
    assert code == 0
    assert "exact" not in json.loads(record) and "rel_err" not in json.loads(record)


def test_output_does_not_depend_on_the_companion(tmp_path, capsys):
    out = tmp_path / "m.mtx"
    run_cli(capsys, "generate", "--family", "haar", "--n", "40", "--out", str(out))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "matrix": {"path": str(out)},
        "methods": ["exact", "taylor", "chebyshev_nte", "sketch:gaussian"],
        "m_values": [5, 10], "s_values": [8], "rank": 4, "seeds": [0, 1],
    }))
    series = ("--m", "10", "--s", "16")
    assert densmat._companion(out).is_file()
    runs = []
    for _ in range(2):
        outputs = [
            run_cli(capsys, "estimate", str(out), "--method", method, *extra, "--no-timings")
            for method, *extra in (("exact",), ("taylor", *series), ("chebyshev", *series))
        ]
        outputs.append(run_cli(capsys, "bench", str(grid), "--no-timings"))
        runs.append(outputs)
        densmat._companion(out).unlink(missing_ok=True)
    assert runs[0] == runs[1] and all(code == 0 for code, _, _ in runs[0])


@pytest.mark.parametrize("cpus", [1, 2])
def test_generate_unwritable_out_exits_two(tmp_path, capsys, monkeypatch, cpus):
    monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: cpus)
    (tmp_path / "dir.mtx").mkdir()
    for out in (tmp_path / "missing" / "m.mtx", tmp_path / "dir.mtx"):
        code, _, err = run_cli(capsys, "generate", "--family", "haar", "--n", "40", "--out", str(out))
        assert code == 2 and err.startswith("vnentropy: error:") and str(out) in err
    assert [p.name for p in tmp_path.iterdir()] == ["dir.mtx"]
    assert list((tmp_path / "dir.mtx").iterdir()) == []


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


@pytest.mark.parametrize("method", ["taylor", "chebyshev"])
@pytest.mark.parametrize(
    "family, full",
    [
        (("tridiagonal", "--n", "16"), True),
        # the sidecar lists the 10 nonzero probabilities; the other 246 eigenvalues are 0
        (("lowrank", "--n", "256", "--k", "10", "--decay", "linear", "--seed", "1"), False),
    ],
    ids=["tridiagonal", "lowrank"],
)
def test_estimate_warns_on_violated_ell(tmp_path, capsys, method, family, full):
    out_path = tmp_path / "m.mtx"
    run_cli(capsys, "generate", "--family", *family, "--out", str(out_path))
    smallest = float(np.loadtxt(cli.sidecar_path(out_path))[-1])
    violated = "assumption violated: ell exceeds the smallest probability"
    # ell at the smallest listed probability holds only when the list is the whole spectrum
    for ell, warns in ((0.5, True), (smallest, not full)):
        code, out, _ = run_cli(
            capsys, "estimate", str(out_path), "--method", method,
            "--ell", repr(ell), "--m", "5", "--s", "4", "--no-timings",
        )
        assert code == 0  # warnings do not fail the run
        record = json.loads(out)
        assert (violated in record["warnings"]) == warns, (ell, record["warnings"])


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
    "taylor-eps-above-one": ("--method", "taylor", "--ell", "0.1", "--eps", "2"),
    "taylor-nte-with-s": ("--method", "taylor", "--m", "3", "--nte", "--s", "5"),
    "taylor-m-without-s": ("--method", "taylor", "--m", "5"),
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


UNREAD_ESTIMATE_FLAGS = {
    "exact-series-and-sketch-flags": (
        ("--method", "exact", "--nte", "--m", "5", "--u-mode", "raw", "--rank", "3", "--proj", "gaussian"),
        "the exact method does not read --m --u-mode --nte --proj --rank",
    ),
    "exact-eps": (("--method", "exact", "--eps", "0.5"), "does not read --eps"),
    "sketch-m": (("--method", "sketch", "--proj", "srht", "--rank", "2", "--m", "3"), "--m"),
    "sketch-nte": (("--method", "sketch", "--proj", "srht", "--rank", "2", "--nte"), "--nte"),
    "sketch-delta": (("--method", "sketch", "--proj", "srht", "--rank", "2", "--delta", "0.2"), "--delta"),
    "taylor-proj": (("--method", "taylor", "--m", "3", "--s", "4", "--proj", "srht"), "--proj"),
    "chebyshev-rank": (("--method", "chebyshev", "--m", "3", "--s", "4", "--rank", "2"), "--rank"),
    "sketch-exact-s": (
        ("--method", "sketch", "--proj", "exact", "--rank", "3", "--s", "7"),
        "the sketch --proj exact method does not read --s",
    ),
    "sketch-exact-eps": (
        ("--method", "sketch", "--proj", "exact", "--rank", "3", "--eps", "0.5"),
        "the sketch --proj exact method does not read --eps",
    ),
    "sketch-exact-s-and-eps": (
        ("--method", "sketch", "--proj", "exact", "--rank", "3", "--s", "7", "--eps", "0.5"),
        "the sketch --proj exact method does not read --eps --s",
    ),
    # the test adds --compute-exact, which exact refuses: it computes the spectrum anyway
    "exact-compute-exact": (("--method", "exact"), "the exact method does not read --compute-exact"),
    # --eps sizes m and s, --delta s and the power method behind u; nothing is
    # left to size once flags fix each of those
    "taylor-eps-with-m-and-s": (
        ("--method", "taylor", "--m", "3", "--s", "4", "--eps", "0.5"),
        "the taylor method does not read --eps\n",
    ),
    "chebyshev-eps-with-m-and-nte": (
        ("--method", "chebyshev", "--m", "3", "--nte", "--eps", "0.5"),
        "the chebyshev method does not read --eps\n",
    ),
    "sketch-eps-with-s": (
        ("--method", "sketch", "--proj", "gaussian", "--rank", "2", "--s", "4", "--eps", "0.5"),
        "the sketch method does not read --eps\n",
    ),
    "taylor-delta-with-manual-u-and-s": (
        ("--method", "taylor", "--ell", "0.1", "--s", "4", "--u-mode", "manual:0.5",
         "--eps", "0.5", "--delta", "0.2"),
        "the taylor method does not read --delta\n",  # --eps still sizes m
    ),
    "chebyshev-delta-with-manual-u-and-nte": (
        ("--method", "chebyshev", "--m", "3", "--nte", "--u-mode", "manual:0.5", "--delta", "0.2"),
        "the chebyshev method does not read --delta\n",
    ),
    "taylor-eps-and-delta-with-m-manual-u-and-s": (
        ("--method", "taylor", "--m", "3", "--s", "4", "--u-mode", "manual:0.5",
         "--eps", "0.5", "--delta", "0.2"),
        "the taylor method does not read --eps --delta\n",
    ),
}


@pytest.mark.parametrize("name", sorted(UNREAD_ESTIMATE_FLAGS))
def test_estimate_refuses_flags_its_method_does_not_read_before_reading(tmp_path, capsys, name):
    flags, message = UNREAD_ESTIMATE_FLAGS[name]
    # the file does not exist: reading it would exit 2
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", str(tmp_path / "missing.mtx"), *flags, "--compute-exact"])
    assert excinfo.value.code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ("--method", "exact", "--seed", "3"),
        # --eps sizes the sketch's s; --eps m and s, and --delta s, of the series
        ("--method", "sketch", "--proj", "gaussian", "--rank", "2", "--eps", "0.5"),
        ("--method", "chebyshev", "--eps", "0.5", "--delta", "0.2", "--ell", "0.1",
         "--u-mode", "manual:0.5"),
        ("--method", "taylor", "--m", "3", "--s", "0", "--nte", "--compute-exact"),
    ],
    ids=lambda flags: flags[1],
)
def test_estimate_accepts_every_flag_its_method_reads(tmp_path, capsys, flags):
    path = write_identity_density(tmp_path, 4)
    code, out, err = run_cli(capsys, "estimate", str(path), *flags, "--no-timings")
    assert code == 0, err
    assert json.loads(out)["method"] == flags[1]


def test_exact_projection_keeps_every_column(tmp_path, capsys):
    path = write_identity_density(tmp_path, 6)
    code, out, err = run_cli(
        capsys, "estimate", str(path), "--method", "sketch", "--proj", "exact", "--rank", "2",
        "--no-timings",
    )
    assert code == 0, err
    record = json.loads(out)
    assert (record["proj"], record["s"]) == ("exact_debug", 6)


UNREAD_GENERATE_FLAGS = {
    "haar-k": ("--family", "haar", "--n", "4", "--k", "2"),
    "tridiagonal-k": ("--family", "tridiagonal", "--n", "4", "--k", "2"),
    "haar-decay": ("--family", "haar", "--n", "4", "--decay", "linear"),
    "tridiagonal-decay": ("--family", "tridiagonal", "--n", "4", "--decay", "exponential"),
    "linuniform-decay": ("--family", "linuniform", "--n", "4", "--k", "2", "--decay", "linear"),
    "tridiagonal-seed": ("--family", "tridiagonal", "--n", "4", "--seed", "3"),
}


@pytest.mark.parametrize("name", sorted(UNREAD_GENERATE_FLAGS))
def test_generate_refuses_flags_its_family_does_not_read(tmp_path, capsys, name):
    out = tmp_path / "m.mtx"
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", *UNREAD_GENERATE_FLAGS[name], "--out", str(out)])
    assert excinfo.value.code == 1
    assert "family does not read --" + name.split("-")[1] in capsys.readouterr().err
    assert not out.exists()


def test_readme_generate_and_estimate_examples_run(tmp_path, capsys, monkeypatch):
    # the vnentropy generate and estimate lines of README's Command line block
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines()]
    wanted = (["vnentropy", "generate"], ["vnentropy", "estimate"])
    commands = [argv[1:] for argv in lines if argv[:2] in wanted]
    monkeypatch.chdir(tmp_path)
    assert {argv[0] for argv in commands} == {"generate", "estimate"}
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()


def test_pure_state_record_carries_one_warning(tmp_path, capsys):
    path = tmp_path / "pure.mtx"
    write_matrix_market(SparseSymMatrix(block=np.diag([1.0, 0.0, 0.0, 0.0])), path)
    # exact computes the spectrum anyway, so it refuses --compute-exact
    for flags in (
        ("--method", "exact"),
        ("--method", "taylor", "--m", "3", "--s", "4", "--compute-exact"),
        ("--method", "chebyshev", "--m", "3", "--nte", "--compute-exact"),
        ("--method", "sketch", "--proj", "countsketch", "--rank", "1", "--s", "4", "--compute-exact"),
    ):
        code, out, _ = run_cli(capsys, "estimate", str(path), *flags, "--no-timings")
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
        write_matrix_market(SparseSymMatrix(block=np.diag([1.0, 0.0, 0.0, 0.0])), path)
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


def test_estimate_times_its_whole_run(tmp_path, capsys, monkeypatch):
    # wall_ms is estimate's own clock around run_method, placed after estimate
    path = tmp_path / "r.mtx"
    run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "8", "--out", str(path))
    run_method = cli.run_method

    def slow(*args):
        time.sleep(0.05)
        return run_method(*args)

    monkeypatch.setattr(cli, "run_method", slow)
    code, out, _ = run_cli(capsys, "estimate", str(path), *LAYOUT_FLAGS["taylor"])
    record = json.loads(out)
    assert code == 0 and list(record)[list(record).index("estimate") + 1] == "wall_ms"
    assert record["wall_ms"] >= 50.0


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
    write_matrix_market(SparseSymMatrix(block=np.eye(2)), path)
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
        (lambda p: "0.25 0.25\n0.25 0.25\n", "line 1 holds 2 values"),
        (lambda p: "0.5 0.5\n", "line 1 holds 2 values"),
        (lambda p: "1.2\n-0.2\n", "probabilities must be nonnegative"),
    ],
    ids=["sum-1.2", "n-plus-one-entries", "nan", "malformed", "two-per-line", "one-line-of-two", "negative"],
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


@pytest.mark.parametrize("contents", ["", "\n  \n", "# no data\n"], ids=["empty", "blank", "comment"])
def test_empty_spectrum_sidecar_exits_two_naming_it(tmp_path, capsys, contents):
    path = tmp_path / "tri.mtx"
    run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "16", "--out", str(path))
    side = cli.sidecar_path(path)
    side.write_text(contents)
    code, out, err = run_cli(
        capsys, "estimate", str(path), "--method", "taylor", "--m", "3", "--s", "4"
    )
    assert code == 2 and out == ""
    assert err == f"vnentropy: error: {side}: the file holds no probabilities\n"


@given(st.lists(st.floats(allow_nan=False, width=64), max_size=50))
@settings(max_examples=100, deadline=None)
def test_write_spectrum_writes_one_line_per_probability(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("spectrum") / "m.mtx.spectrum"
    cli.write_spectrum(np.array(values, dtype=np.float64), path)
    assert path.read_text(encoding="ascii") == "".join(f"{v:.17g}\n" for v in values)


def test_stored_matrix_at_scale_makes_no_dense_array(tmp_path, capsys, monkeypatch):
    def densify(*args, **kwargs):
        pytest.fail("a dense array was made")

    monkeypatch.setattr(SparseSymMatrix, "to_dense", densify)
    monkeypatch.setattr(vnentropy.linalg, "exact_entropy", densify)
    n = 65536
    path = tmp_path / "tri.mtx"
    code, _, err = run_cli(
        capsys, "generate", "--family", "tridiagonal", "--n", str(n), "--out", str(path)
    )
    assert code == 0, err
    code, out, err = run_cli(
        capsys, "estimate", str(path), "--method", "taylor", "--m", "10", "--s", "4",
        "--no-timings",
    )
    assert code == 0, err
    record = json.loads(out)
    assert (record["n"], record["nnz"]) == (n, 3 * n - 2)
    assert math.isfinite(record["estimate"]) and math.isfinite(record["rel_err"])


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



def read_bench_csv(path):
    """The data rows of a bench CSV as dicts, and its summary lines split on commas."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:] if not l.startswith("#")]
    return rows, [l.split(",") for l in lines if l.startswith("# summary,")][1:]


def test_a_non_finite_estimate_fails_its_bench_row_as_estimate_refuses_it(tmp_path, capsys):
    # numpy's overflow and invalid warnings of the m=2000 pass, errors under
    # this suite's filterwarnings, must not be raised at all: the refusal is
    # the only report
    path = tmp_path / "tri.mtx"
    run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "64", "--out", str(path))
    settings = ("--method", "chebyshev", "--s", "4", "--u-mode", "manual:0.0001", "--no-timings")
    code, out, err = run_cli(capsys, "estimate", str(path), *settings, "--m", "2000")
    assert (code, out, err) == (2, "", "vnentropy: error: estimate is not finite: nan\n")
    code, out, err = run_cli(capsys, "estimate", str(path), *settings, "--m", "10")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert math.isfinite(record["estimate"]) and record["estimate"] < -1e24

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "matrix": {"path": str(path)}, "methods": ["chebyshev"], "m_values": [10, 2000],
        "s_values": [4], "u_modes": ["manual:0.0001"], "seeds": [0],
    }))
    out_csv = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "bench", str(grid), "--out", str(out_csv))  # with timings
    assert code == 0 and "RuntimeWarning" not in err
    (finite, nan), summary = read_bench_csv(out_csv)
    assert [float(finite[k]) for k in ("estimate", "exact", "rel_err")] == [
        record["estimate"], record["exact"], record["rel_err"]
    ]
    assert finite["error"] == "" and float(finite["wall_ms"]) >= 0.0
    assert (nan["m"], nan["error"]) == ("2000", "ValueError")
    assert [nan[k] for k in ("estimate", "exact", "rel_err", "wall_ms")] == ["", "", "", ""]
    assert [line[2] for line in summary] == ["10", "2000"]
    assert [float(v) for v in summary[0][5:]] == [record["rel_err"]] * 2
    assert summary[1][5:] == ["", ""]


def test_a_non_finite_estimate_on_a_probe_pool_reports_only_its_refusal(
    tmp_path, capsys, monkeypatch
):
    # the two probe blocks of two columns run on pool workers, where numpy's
    # warnings must be silenced as on the calling thread
    monkeypatch.setattr(vnentropy.hutchinson, "BLOCK_ENTRIES", 128)
    monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: 2)
    task_counts = []
    original = vnentropy.hutchinson.fan_out

    def recording(fn, tasks):
        task_counts.append(len(tasks))
        return original(fn, tasks)

    monkeypatch.setattr(vnentropy.hutchinson, "fan_out", recording)
    path = tmp_path / "tri.mtx"
    run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "64", "--out", str(path))
    code, out, err = run_cli(
        capsys, "estimate", str(path), "--method", "chebyshev", "--m", "2000", "--s", "4",
        "--u-mode", "manual:0.0001", "--no-timings",
    )
    assert (code, out, err) == (2, "", "vnentropy: error: estimate is not finite: nan\n")
    assert task_counts == [2]


def test_bench_wall_ms_charges_each_task_to_the_first_row_that_reads_it(tmp_path, capsys, monkeypatch):
    attempt, charged = cli._attempt, []

    def fixed_cost(fn, *args):  # every task costs 1 ms
        value, _, error = attempt(fn, *args)
        charged.append(error)
        return value, 1.0, error

    monkeypatch.setattr(cli, "_attempt", fixed_cost)
    # no spectrum is known at n=12 once the oracle limit is 8, so the shared
    # oracle fails: every exact and nte run fails without a task of its own
    monkeypatch.setattr(vnentropy.linalg, "DEFAULT_ORACLE_LIMIT", 8)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "matrix": {"family": "haar", "n": 12}, "methods": ["exact", "taylor", "taylor_nte"],
        "m_values": [2, 4], "s_values": [3], "u_modes": ["six", "manual:0.5"], "seeds": [0, 1],
    }))
    out_csv = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "bench", str(grid), "--out", str(out_csv), "--threads", "2")
    assert code == 0
    rows, _ = read_bench_csv(out_csv)
    # 3 shared results (the power method of seeds 0 and 1, the failed
    # oracle) and the 4 taylor runs
    assert sorted(charged) == [""] * 6 + ["ValueError"]
    assert [(r["method"], r["error"], r["wall_ms"]) for r in rows] == [
        *[("exact", "ValueError", "")] * 2,
        # m=2: a six run's first row carries it and its seed's power method
        *[("taylor", "", "2.000")] * 2, *[("taylor", "", "1.000")] * 2,
        *[("taylor", "", "0.000")] * 4,  # m=4: the same runs, nothing new
        *[("taylor_nte", "ValueError", "")] * 8,
    ]
    # every task that filled a row, once: all but the failed oracle
    assert sum(float(r["wall_ms"] or 0) for r in rows) == charged.count("")

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
    "seed-above-64-bits": (
        {"seeds": [2**64]},
        "grid seed 18446744073709551616: seed must fit in 64 unsigned bits",
    ),
    "negative-seed": ({"seeds": [-1]}, "grid seed -1: seed must fit in 64 unsigned bits"),
    "fractional-seed": ({"seeds": [1.5]}, "grid seed 1.5: seed '1.5' is not decimal or 0x-hex"),
    "boolean-seed": ({"seeds": [True]}, "grid seed True: seed 'True' is not decimal or 0x-hex"),
    "unparsable-seed": (
        {"seeds": ["seven"]},
        "grid seed 'seven': seed 'seven' is not decimal or 0x-hex",
    ),
    "zero-repetitions": (
        {"repetitions": 0},
        "grid field 'repetitions' must be an integer >= 1, got 0",
    ),
    "fractional-repetitions": (
        {"repetitions": 2.5},
        "grid field 'repetitions' must be an integer >= 1, got 2.5",
    ),
    "string-repetitions": (
        {"repetitions": "2"},
        "grid field 'repetitions' must be an integer >= 1, got '2'",
    ),
    "repeated-seed-at-2**32": (
        {"seeds": [0, 2**32], "repetitions": 2},
        "with repetitions > 1, grid seeds must be below 2**32",
    ),
    "mixed-bad-seeds": (
        {"seeds": [2**64 - 1, -1, 0, 2**32], "repetitions": 2},
        "grid seed -1: seed must fit in 64 unsigned bits",
    ),
    "bad-u-mode": (
        {"u_modes": ["six", "manual:x"]},
        "grid u-mode 'manual:x': bad manual u value in 'manual:x'",
    ),
    "manual-u-above-one": (
        {"u_modes": ["manual:1.5"]},
        "grid u-mode 'manual:1.5': manual u must lie in (0, 1], got 1.5",
    ),
    "unknown-u-mode": (
        {"u_modes": ["sixx"]},
        "grid u-mode 'sixx': u-mode 'sixx' must be six, raw, or manual:<value>",
    ),
    "non-string-u-mode": (
        {"u_modes": [6]},
        "grid u-mode 6: u-mode '6' must be six, raw, or manual:<value>",
    ),
    "unknown-method-suffix": ({"methods": ["taylor:foo"]}, "unknown bench method 'taylor:foo'"),
    "exact-nte": ({"methods": ["exact_nte"]}, "unknown bench method 'exact_nte'"),
    "sketch-nte": ({"methods": ["sketch_nte"], "rank": 2}, "unknown bench method 'sketch_nte'"),
    "unknown-projection": (
        {"methods": ["sketch:bogus"], "rank": 2},
        "unknown bench method 'sketch:bogus'",
    ),
    "non-string-method": ({"methods": [["taylor"]]}, "unknown bench method ['taylor']"),
    "series-without-s-values": (
        {"s_values": []},
        "method 'taylor' needs s_values, a nonempty list of integers >= 1, got []",
    ),
    "sketch-without-rank": (
        {"methods": ["sketch:gaussian"], "m_values": None},
        "method 'sketch:gaussian' needs an integer rank >= 1, got None",
    ),
    "sketch-zero-rank": (
        {"methods": ["sketch:gaussian"], "rank": 0, "m_values": None},
        "method 'sketch:gaussian' needs an integer rank >= 1, got 0",
    ),
    "sketch-fractional-rank": (
        {"methods": ["sketch:srht"], "rank": 1.5, "m_values": None},
        "method 'sketch:srht' needs an integer rank >= 1, got 1.5",
    ),
    "sketch-boolean-rank": (
        {"methods": ["sketch:countsketch"], "rank": True, "m_values": None},
        "method 'sketch:countsketch' needs an integer rank >= 1, got True",
    ),
    "sketch-string-rank": (
        {"methods": ["sketch:countsketch"], "rank": "2", "m_values": None},
        "method 'sketch:countsketch' needs an integer rank >= 1, got '2'",
    ),
    "sketch-rank-above-n": (
        {"methods": ["sketch:gaussian"], "rank": 9, "m_values": None},
        "grid cell: sketch rank must lie in [1, 8], got 9",
    ),
    "zero-m": (
        {"m_values": [0]},
        "method 'taylor' needs m_values, a nonempty list of integers >= 1, got [0]",
    ),
    "fractional-m": (
        {"m_values": [2.7]},
        "method 'taylor' needs m_values, a nonempty list of integers >= 1, got [2.7]",
    ),
    "boolean-m": (
        {"m_values": [2, True]},
        "method 'taylor' needs m_values, a nonempty list of integers >= 1, got [2, True]",
    ),
    "string-m": (
        {"m_values": ["2"]},
        "method 'taylor' needs m_values, a nonempty list of integers >= 1, got ['2']",
    ),
    "m-values-not-a-list": (
        {"m_values": 2},
        "method 'taylor' needs m_values, a nonempty list of integers >= 1, got 2",
    ),
    "fractional-s": (
        {"s_values": [8.9]},
        "method 'taylor' needs s_values, a nonempty list of integers >= 1, got [8.9]",
    ),
    "boolean-s": (
        {"s_values": [True]},
        "method 'taylor' needs s_values, a nonempty list of integers >= 1, got [True]",
    ),
    "string-s": (
        {"s_values": ["8"]},
        "method 'taylor' needs s_values, a nonempty list of integers >= 1, got ['8']",
    ),
    "zero-s": (
        {"s_values": [0]},
        "method 'taylor' needs s_values, a nonempty list of integers >= 1, got [0]",
    ),
    "string-delta": ({"delta": "0.5"}, "method 'taylor' needs delta, a JSON number, got '0.5'"),
    "boolean-delta": ({"delta": True}, "method 'taylor' needs delta, a JSON number, got True"),
    "delta-above-one": ({"delta": 1.5}, "grid cell: delta must lie in (0, 1), got 1.5"),
    "epsilon-above-one": ({"epsilon": 2}, "no bench cell reads the grid field 'epsilon'"),
    "epsilon-in-range": ({"epsilon": 0.5}, "no bench cell reads the grid field 'epsilon'"),
    "unknown-field": ({"note": "no cell reads it"}, "no bench cell reads the grid field 'note'"),
    "exact-reads-no-m-values": (
        {"methods": ["exact", "sketch:gaussian"], "rank": 2},
        "no bench cell reads the grid field 'm_values'",
    ),
    "sketch-reads-no-m-values": (
        {"methods": ["sketch:gaussian"], "rank": 2},
        "no bench cell reads the grid field 'm_values'",
    ),
    "sketch-reads-no-u-modes": (
        {"methods": ["sketch:gaussian"], "rank": 2, "m_values": None, "u_modes": ["six"]},
        "no bench cell reads the grid field 'u_modes'",
    ),
    "nte-reads-no-s-values": (
        {"methods": ["taylor_nte"]},
        "no bench cell reads the grid field 's_values'",
    ),
    "nte-reads-no-rank": (
        {"methods": ["taylor", "taylor_nte"], "rank": 2},
        "no bench cell reads the grid field 'rank'",
    ),
    "empty-u-modes": ({"u_modes": []}, "grid field 'u_modes' must be a nonempty list, got []"),
    "string-u-modes": (
        {"u_modes": "six"},
        "grid field 'u_modes' must be a nonempty list, got 'six'",
    ),
    "lowrank-without-k": (
        {"matrix": {"family": "lowrank", "n": 8}},
        "k is required for the lowrank family",
    ),
    "linuniform-without-k": (
        {"matrix": {"family": "linuniform", "n": 8}},
        "k is required for the linuniform family",
    ),
    "family-without-n": (
        {"matrix": {"family": "tridiagonal"}},
        "grid matrix needs a 'path' or an 'n'",
    ),
    "unknown-family": (
        {"matrix": {"family": "wavelet", "n": 8}},
        "unknown matrix family 'wavelet'",
    ),
    "lowrank-k-above-n": (
        {"matrix": {"family": "lowrank", "n": 8, "k": 20}},
        "the lowrank family needs 1 <= k <= n, got k=20, n=8",
    ),
    "linuniform-zero-k": (
        {"matrix": {"family": "linuniform", "n": 8, "k": 0}},
        "the linuniform family needs 1 <= k <= n, got k=0, n=8",
    ),
    "tridiagonal-n-one": (
        {"matrix": {"family": "tridiagonal", "n": 1}},
        "the tridiagonal family needs n >= 2, got 1",
    ),
    "haar-zero-n": ({"matrix": {"family": "haar", "n": 0}}, "the haar family needs n >= 1, got 0"),
    "lowrank-unknown-decay": (
        {"matrix": {"family": "lowrank", "n": 8, "k": 2, "decay": "cubic"}},
        "decay must be one of ('exponential', 'linear'), got 'cubic'",
    ),
    "fractional-n": (
        {"matrix": {"family": "tridiagonal", "n": 8.7}},
        "grid matrix 'n' must be an integer, got 8.7",
    ),
    "string-n": (
        {"matrix": {"family": "tridiagonal", "n": "abc"}},
        "grid matrix 'n' must be an integer, got 'abc'",
    ),
    "fractional-k": (
        {"matrix": {"family": "lowrank", "n": 8, "k": 2.5}},
        "grid matrix 'k' must be an integer, got 2.5",
    ),
    "negative-matrix-seed": (
        {"matrix": {"family": "haar", "n": 6, "seed": -1}},
        "grid matrix seed -1: seed must fit in 64 unsigned bits",
    ),
    "haar-unread-fields": (
        {"matrix": {"family": "haar", "n": 32, "sede": 5, "k": 3, "decay": "exponential"}},
        "the haar family does not read the grid matrix field 'sede'",
    ),
    "haar-k": (
        {"matrix": {"family": "haar", "n": 8, "k": 2}},
        "the haar family does not read the grid matrix field 'k'",
    ),
    "linuniform-decay": (
        {"matrix": {"family": "linuniform", "n": 8, "k": 2, "decay": "linear"}},
        "the linuniform family does not read the grid matrix field 'decay'",
    ),
    "tridiagonal-seed": (
        {"matrix": {"family": "tridiagonal", "n": 8, "seed": 3}},
        "the tridiagonal family does not read the grid matrix field 'seed'",
    ),
    "tridiagonal-k": (
        {"matrix": {"family": "tridiagonal", "n": 8, "k": 2}},
        "the tridiagonal family does not read the grid matrix field 'k'",
    ),
    "non-string-matrix-path": (
        {"matrix": {"path": 5}},
        "grid matrix 'path' must be a string, got 5",
    ),
    "matrix-list": ({"matrix": ["path"]}, "grid field 'matrix' must be an object, got ['path']"),
    "matrix-string": ({"matrix": "x.mtx"}, "grid field 'matrix' must be an object, got 'x.mtx'"),
    "missing-matrix-file": (
        {"matrix": {"path": "no/such/dir/x.mtx"}},
        "matrix file 'no/such/dir/x.mtx' does not exist",
    ),
    "without-seeds": ({"seeds": None}, "grid is missing the 'seeds' field"),
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
    # a None in BAD_GRIDS drops the field from the grid
    fields, message = BAD_GRIDS[name]
    grid.write_text(json.dumps({k: v for k, v in {**spec, **fields}.items() if v is not None}))
    ran = []
    monkeypatch.setattr(cli, "_attempt", lambda *args: ran.append(args))
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", str(grid)])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert f"usage error: {message}\n" in err  # the check meant for the case, not an earlier one
    assert ran == []


@pytest.mark.parametrize("text", ["5", "null", '"matrix"', '["matrix"]'])
def test_bench_refuses_a_grid_that_is_not_a_json_object(tmp_path, capsys, text):
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", str(grid)])
    assert excinfo.value.code == 1
    assert "usage error: a bench grid must be a JSON object" in capsys.readouterr().err


def test_bench_accepts_a_field_that_one_method_of_the_grid_reads(tmp_path, capsys):
    rows = bench_rows(tmp_path, capsys, {
        "matrix": {"family": "tridiagonal", "n": 8},
        "methods": ["exact", "taylor"],
        "m_values": [2],
        "s_values": [2],
        "seeds": [0],
    })
    assert [(r["method"], r["m"], r["s"], r["error"]) for r in rows] == [
        ("exact", "", "", ""), ("taylor", "2", "2", "")
    ]


def test_the_exact_projection_refuses_n_above_the_oracle_limit(tmp_path, capsys, monkeypatch):
    # a stored tridiagonal n = 65536 would otherwise ask for a 32 GiB array
    path = tmp_path / "tri.mtx"
    run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "16", "--out", str(path))
    monkeypatch.setattr(vnentropy.linalg, "DEFAULT_ORACLE_LIMIT", 8)
    monkeypatch.setattr(SparseSymMatrix, "to_dense", lambda self: pytest.fail("made R dense"))
    code, out, err = run_cli(
        capsys, "estimate", str(path), "--method", "sketch", "--proj", "exact", "--rank", "2"
    )
    assert code == 2 and out == ""
    assert "matrix size 16 exceeds the oracle limit 8" in err
    rows = bench_rows(tmp_path, capsys, {
        "matrix": {"path": str(path)}, "methods": ["sketch:exact_debug"], "seeds": [0], "rank": 2
    })
    assert [r["error"] for r in rows] == ["ValueError"]


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"n": 5, "family": "haar"}, "takes no other field, got ['family', 'n', 'path']"),
        ({"seed": 3}, "takes no other field, got ['path', 'seed']"),
    ],
    ids=["family-fields", "seed"],
)
def test_a_path_matrix_spec_reads_only_its_path(tmp_path, capsys, extra, message):
    # the file exists, so only the unread fields can fail the grid
    path = write_identity_density(tmp_path, 4)
    grid = tmp_path / "grid.json"
    spec = {"methods": ["exact"], "seeds": [0]}
    grid.write_text(json.dumps({"matrix": {"path": str(path), **extra}, **spec}))
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", str(grid)])
    assert excinfo.value.code == 1
    assert message in capsys.readouterr().err
    grid.write_text(json.dumps({"matrix": {"path": str(path)}, **spec}))
    assert run_cli(capsys, "bench", str(grid), "--no-timings")[0] == 0


def test_bench_exact_projection_runs_once_per_seed_with_no_s(tmp_path, capsys):
    # the exact projection has no width, so s_values do not multiply its
    # rows, and a grid of it alone needs none
    base = {"matrix": {"family": "lowrank", "n": 8, "k": 2, "seed": 1}, "seeds": [0, 1], "rank": 2}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(
        {**base, "methods": ["sketch:exact_debug", "sketch:gaussian"], "s_values": [4, 6]}
    ))
    code, out, err = run_cli(capsys, "bench", str(grid), "--no-timings")
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
    assert [row[:3] + row[4:5] for row in rows] == [
        ["sketch:exact_debug", "", "", "0"],
        ["sketch:exact_debug", "", "", "1"],
        ["sketch:gaussian", "", "4", "0"],
        ["sketch:gaussian", "", "4", "1"],
        ["sketch:gaussian", "", "6", "0"],
        ["sketch:gaussian", "", "6", "1"],
    ]
    grid.write_text(json.dumps({**base, "methods": ["sketch:exact_debug"]}))
    code, out_alone, err = run_cli(capsys, "bench", str(grid), "--no-timings")
    assert code == 0, err
    assert out_alone.splitlines()[:3] == out.splitlines()[:3]


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
# rows, runs
GRID_CELLS = {
    "error_vs_terms": (360, 60),
    "projection_sweep_exponential_k10": (60, 60),
    "projection_sweep_exponential_k50": (60, 60),
    "projection_sweep_linear_k10": (60, 60),
    "projection_sweep_linear_k50": (60, 60),
}


@pytest.mark.parametrize("path", sorted(GRID_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_checked_in_grids_build_every_cell(path):
    grid = cli._load_grid(path)
    matrix, model = cli._grid_matrix(grid["matrix"])
    rows, units = cli._bench_units(grid, matrix.n, model)
    assert (len(rows), len(units)) == GRID_CELLS[path.stem]


SHARING_GRID = {
    "methods": ["exact", "taylor", "chebyshev", "taylor_nte", "chebyshev_nte"],
    "m_values": [6, 2, 4],
    "s_values": [8, 16],
    "u_modes": ["six", "raw", "manual:0.7"],
    "seeds": [5],
    "repetitions": 2,
}
# repeats an m, an s, a u-mode and a seed, and lists the methods out of their usual order
REPEATING_GRID = {
    "methods": ["chebyshev_nte", "taylor", "exact", "chebyshev", "taylor_nte"],
    "m_values": [4, 2, 4],
    "s_values": [8, 8],
    "u_modes": ["raw", "manual:0.7", "raw"],
    "seeds": [5, 3, 5],
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


@pytest.mark.parametrize(
    "spec, n_rows",
    [
        # 2 repetitions of: exact, 3 m x 3 u x 2 s per series, 3 m x 3 u per nte
        (SHARING_GRID, 2 * (1 + 2 * 18 + 2 * 9)),
        # 3 seeds of: exact, 3 m x 3 u x 2 s per series, 3 m x 3 u per nte
        (REPEATING_GRID, 3 * (1 + 2 * 18 + 2 * 9)),
    ],
    ids=["sharing", "repeating"],
)
@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no-sidecar"])
def test_bench_rows_equal_separate_estimate_runs(tmp_path, capsys, sidecar, spec, n_rows):
    matrix = sharing_matrix(tmp_path, capsys, sidecar)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"matrix": {"path": str(matrix)}, **spec}))
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
    assert len(rows) == n_rows
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
    power, oracle, runs = [], [], []
    counting(monkeypatch, vnentropy.report, "power_method", power)
    counting(monkeypatch, vnentropy.linalg, "exact_entropy", oracle)
    counting(monkeypatch, cli, "_run_spec", runs)
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
    # one per run, 2 seeds x 2 repetitions of: exact, 3 u x 2 s per series, 3 u per nte
    assert len(runs) == 4 * (1 + 2 * 6 + 2 * 3)


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
    expected = []
    for row in rows:
        method, _, nte, _ = cli.GRID_METHODS[row["method"]]
        settings = {"nte": nte}
        if method != "exact":
            u_mode = cli.parse_u_mode(row["u_mode"])
            settings.update(m=int(row["m"]), s=0 if nte else int(row["s"]), u_mode=u_mode)
        seed = int(row["seed"]) + (int(row["rep"]) << 32)
        cell_spec = cli._run_spec(matrix_.n, method, seed, **settings)
        try:
            cli.run_method(matrix_, model, cell_spec)
            expected.append("")
        except Exception as exc:
            expected.append(type(exc).__name__)
    assert [r["error"] for r in rows] == expected
    # the six and raw cells of repetition 1: 2 u x 3 m x (2 s + 2 s + 1 + 1)
    assert expected.count("RuntimeError") == 36
    assert all(r["estimate"] == "" for r in rows if r["error"])


def test_main_holds_blas_at_one_thread_and_restores_the_count(tmp_path, capsys, monkeypatch):
    functions = vnentropy.threads.blas_thread_functions()
    if functions is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    get, set_ = functions
    inside = []

    def generate(args):
        inside.append(get())
        return 0

    monkeypatch.setattr(cli, "cmd_generate", generate)
    before = get()
    set_(2)
    try:
        code, _, err = run_cli(
            capsys, "generate", "--family", "tridiagonal", "--n", "4", "--out", str(tmp_path / "t.mtx")
        )
        assert (code, err, inside) == (0, "", [1])
        assert get() == 2
    finally:
        set_(before)


def test_sketch_output_does_not_depend_on_blas_threads(tmp_path, capsys):
    # at n=500, OpenBLAS rounds the gemm and the Gram route differently on 1 and 2 threads
    if vnentropy.threads.blas_thread_functions() is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    path = tmp_path / "low.mtx"
    run_cli(capsys, "generate", "--family", "lowrank", "--n", "500", "--k", "10", "--out", str(path))
    argv = [sys.executable, "-m", "vnentropy", "estimate", str(path), "--method", "sketch",
            "--proj", "gaussian", "--rank", "10", "--s", "100", "--no-timings"]
    src = str(Path(vnentropy.__file__).parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["warnings"] == []


def test_a_run_without_a_bundled_openblas_goes_ahead_and_warns(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(vnentropy.threads, "blas_thread_functions", lambda: None)
    path = tmp_path / "tri.mtx"
    code, _, err = run_cli(capsys, "generate", "--family", "tridiagonal", "--n", "8", "--out", str(path))
    assert code == 0 and err.count("not pinned") == 1
    code, out, err = run_cli(
        capsys, "estimate", str(path), "--method", "taylor", "--m", "3", "--s", "4", "--no-timings"
    )
    assert (code, err) == (0, "")
    assert sum("not pinned" in w for w in json.loads(out)["warnings"]) == 1


@pytest.mark.parametrize("family", sorted(densmat.DENSE_PEAK))
def test_dense_generation_past_physical_memory_is_refused_up_front(
    tmp_path, capsys, monkeypatch, family
):
    n, out = 64, tmp_path / "m.mtx"
    argv = ["generate", "--family", family, "--n", str(n), "--out", str(out)]
    if family in ("lowrank", "linuniform"):
        argv += ["--k", "2"]
    monkeypatch.setattr(cli, "physical_memory", lambda: densmat.DENSE_PEAK[family] * n * n - 1)
    for name in ("generate_haar_like_matrix", "generate_low_rank_density", "generate_linear_plus_uniform"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("the generator ran"))
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    assert "more than this machine's" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.undo()
    monkeypatch.setattr(cli, "physical_memory", lambda: densmat.DENSE_PEAK[family] * n * n)
    assert run_cli(capsys, *argv)[0] == 0 and out.exists()
