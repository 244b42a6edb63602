import threading
import time

import numpy as np
import pytest

from vnentropy import (
    EstimatorConfig,
    RngStream,
    chebyshev_entropy,
    default_s,
    generate_tridiagonal_poisson,
    hutchinson,
    probe_average,
    taylor_entropy,
)
from vnentropy.hutchinson import PROBE_CHUNK
from vnentropy.rng import gaussian_vector


def dense_forms(a):
    """Block kernel returning g^T a g for each probe column g."""
    a = np.asarray(a, dtype=np.float64)
    return lambda block: np.einsum("ij,ij->j", block, a @ block)


def test_default_s_examples():
    assert default_s(0.99, 0.5) == 29
    assert default_s(0.1, 0.1) == 5992
    assert default_s(0.2, 0.1) == 1498


def test_default_s_rejects_bad_parameters():
    for eps, delta in ((0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0)):
        with pytest.raises(ValueError):
            default_s(eps, delta)


def test_zero_operator_estimates_zero():
    zero = lambda block: np.zeros(block.shape[1])
    assert probe_average(8, 16, RngStream(0), zero) == 0.0


def test_identity_operator_concentration():
    identity = lambda block: np.einsum("ij,ij->j", block, block)
    for seed in (0, 1, 2):
        est = probe_average(100, 1498, RngStream(seed), identity)
        assert abs(est - 100.0) <= 20.0


def test_small_diagonal_concentration():
    kernel = dense_forms(np.diag([1.0, 2.0, 3.0]))
    for seed in (0, 1, 2, 3):
        est = probe_average(3, 1498, RngStream(seed), kernel)
        assert abs(est - 6.0) <= 1.2


def test_single_probe_trials_are_unbiased():
    a = np.diag(np.arange(1.0, 9.0))
    a /= np.trace(a)
    kernel = dense_forms(a)
    base = RngStream(123)
    trials = np.array(
        [probe_average(8, 1, base.child(i), kernel) for i in range(10_000)]
    )
    stderr = trials.std(ddof=1) / np.sqrt(trials.size)
    assert abs(trials.mean() - 1.0) <= 3.0 * stderr


def test_more_probes_usually_tighten_the_estimate():
    kernel = dense_forms(np.diag(np.arange(1.0, 9.0)) / 36.0)
    wins = 0
    for seed in range(20):
        coarse = abs(probe_average(8, 250, RngStream(seed), kernel) - 1.0)
        fine = abs(probe_average(8, 4000, RngStream(seed).child(99), kernel) - 1.0)
        wins += fine <= coarse
    assert wins >= 16  # sanity check only; individual seeds may regress


def test_estimate_is_deterministic_per_stream():
    kernel = dense_forms(np.diag([0.2, 0.8]))
    a = probe_average(2, 64, RngStream(7), kernel)
    b = probe_average(2, 64, RngStream(7), kernel)
    assert a == b


def test_estimate_rejects_zero_probes():
    with pytest.raises(ValueError):
        probe_average(2, 0, RngStream(0), dense_forms(np.eye(2)))


def test_blocks_hold_probes_in_index_order(monkeypatch):
    main = threading.get_ident()
    for n, workers, widths in (
        (3, 2, [PROBE_CHUNK, PROBE_CHUNK, 44]),  # too small for a pool
        (32768, 1, [32, 32, 32, 12]),
        (32768, 2, [32, 32, 32, 12]),  # on a pool, blocks arrive in any order
    ):
        monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: workers)
        stream = RngStream(5)
        s = sum(widths)
        blocks = []

        def first_entries(block):
            blocks.append((threading.get_ident(), block.shape, block[0].copy()))
            return block[0]

        est = probe_average(n, s, stream, first_entries)
        expected = np.array([gaussian_vector(stream.child(i), n)[0] for i in range(s)])
        pooled = n > 3 and workers > 1
        assert all((thread != main) == pooled for thread, _, _ in blocks)
        if pooled:  # put the blocks in the order of their first probes
            index = {value: i for i, value in enumerate(expected)}
            blocks.sort(key=lambda b: index[b[2][0]])
        assert [shape for _, shape, _ in blocks] == [(n, w) for w in widths]
        assert np.array_equal(np.concatenate([row for _, _, row in blocks]), expected)
        assert est == float(expected.sum() / s)


def test_probes_come_from_the_given_draw():
    calls = []

    def draw(stream, n):
        calls.append((stream.stream_id, n))
        return np.ones(n)

    est = probe_average(4, 5, RngStream(1), lambda block: block.sum(axis=0), draw)
    assert est == 4.0
    assert calls == [(RngStream(1).child(i).stream_id, 4) for i in range(5)]


def test_a_lone_last_probe_runs_alone_only_when_it_did_in_full_chunks():
    def widths(n, s):
        return [len(b) for b in hutchinson.probe_blocks(n, s)]

    assert widths(16384, 129) == [64, 64, 1]
    assert widths(16384, 65) == [65]
    assert widths(10000, 129) == [104, 24, 1]
    assert widths(4096, 129) == [PROBE_CHUNK, 1]
    assert widths(2**21, 5) == [2, 3]
    assert widths(8256, 129) == [128, 1]  # 127 wide: probe 127 joins the block before it
    assert widths(12300, 257) == [85, 85, 86, 1]
    for n in (3, 8256, 12300, 65536, 2**21):
        for s in range(1, 3 * PROBE_CHUNK + 2):
            w = widths(n, s)
            assert sum(w) == s and min(w[:-1], default=2) >= 2
            assert (w[-1] == 1) == (s % PROBE_CHUNK == 1)


def run_all(r, s):
    """probe_average, taylor_entropy and chebyshev_entropy on r, with the
    threads each kernel call ran on."""
    threads = set()

    def forms(block):
        threads.add(threading.get_ident())
        return np.einsum("ij,ij->j", block, r.matmat(block))

    cfg = EstimatorConfig(m_override=(6, 10), s_override=s, seed=3)
    taylor, cheb = taylor_entropy(r, cfg), chebyshev_entropy(r, cfg)
    out = (probe_average(r.n, s, RngStream(9), forms), taylor.estimates, cheb.estimates)
    return out, threads


def test_bits_do_not_depend_on_workers_calling_thread_or_width(monkeypatch):
    r, _ = generate_tridiagonal_poisson(16384)
    s = 129  # blocks of 64, 64 and 1
    with monkeypatch.context() as m:
        m.setattr(hutchinson, "BLOCK_ENTRIES", 2**40)  # PROBE_CHUNK wide
        m.setattr("vnentropy.threads.available_cpus", lambda: 1)
        assert len(hutchinson.probe_blocks(r.n, s)[0]) == PROBE_CHUNK
        full_chunks, _ = run_all(r, s)
    main = threading.get_ident()
    for workers in (1, 2, 3):
        monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: workers)
        out, threads = run_all(r, s)
        assert out == full_chunks
        assert (main in threads) == (workers == 1)
    caller = {}

    def on_another_thread():
        caller["out"], caller["threads"] = run_all(r, s)

    worker = threading.Thread(target=on_another_thread)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert caller["out"] == full_chunks
    assert caller["threads"] == {worker.ident}


def test_small_matrices_never_fan_out(monkeypatch):
    monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: 3)
    _, threads = run_all(generate_tridiagonal_poisson(4096)[0], 300)
    assert threads == {threading.get_ident()}


def test_a_failing_block_stops_the_blocks_not_yet_started(monkeypatch):
    monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: 2)
    calls = []

    def failing(block):
        calls.append(block.shape)
        time.sleep(0.05)
        raise RuntimeError("kernel failed")

    with pytest.raises(RuntimeError, match="kernel failed"):
        probe_average(8192, 20 * PROBE_CHUNK, RngStream(1), failing)
    assert len(calls) < 10  # of 20 blocks
