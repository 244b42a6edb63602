import numpy as np
import pytest

from vnentropy import RngStream, default_s, probe_average
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


def test_blocks_hold_probes_in_index_order():
    stream = RngStream(5)
    s = 2 * PROBE_CHUNK + 44
    blocks = []

    def first_entries(block):
        blocks.append(block.copy())
        return block[0]

    est = probe_average(3, s, stream, first_entries)
    assert [b.shape for b in blocks] == [(3, PROBE_CHUNK), (3, PROBE_CHUNK), (3, 44)]
    expected = np.array([gaussian_vector(stream.child(i), 3)[0] for i in range(s)])
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), expected)
    assert est == float(expected.sum() / s)


def test_probes_come_from_the_given_draw():
    calls = []

    def draw(stream, n):
        calls.append((stream.stream_id, n))
        return np.ones(n)

    est = probe_average(4, 5, RngStream(1), lambda block: block.sum(axis=0), draw)
    assert est == 4.0
    assert calls == [(RngStream(1).child(i).stream_id, 4) for i in range(5)]
