import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from vnentropy import rng
from vnentropy.rng import (
    DRAW_CHUNK,
    DRAW_PIECE,
    RngStream,
    gaussian_vector,
    rademacher_vector,
    uniform_doubles,
    uniform_indices,
)

seeds = st.integers(min_value=0, max_value=2**64 - 1)


@given(seeds, seeds)
def test_gaussian_determinism(seed, stream_id):
    a = gaussian_vector(RngStream(seed, stream_id), 16)
    b = gaussian_vector(RngStream(seed, stream_id), 16)
    assert np.array_equal(a, b)


@given(seeds)
def test_neighbouring_streams_differ(seed):
    a = gaussian_vector(RngStream(seed, 0), 4)
    b = gaussian_vector(RngStream(seed, 1), 4)
    assert a[0] != b[0]


def test_child_derivation_is_pure():
    root = RngStream(7)
    assert root.child(3) == root.child(3)
    assert root.child(3).stream_id != root.child(4).stream_id
    # drawing from one stream never disturbs a sibling
    left, right = root.child(0), root.child(1)
    expected_right = gaussian_vector(RngStream(7).child(1), 8)
    gaussian_vector(left, 100)
    assert np.array_equal(gaussian_vector(right, 8), expected_right)


@pytest.mark.parametrize(
    "n", [1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 3 * DRAW_CHUNK + 5]
)
def test_a_draw_into_a_block_column_is_the_one_shot_draw(n):
    one_shot, into = RngStream(8, 3), RngStream(8, 3)
    expected = gaussian_vector(one_shot, n)
    block = np.full((n, 3), np.nan)  # C-ordered, so a column is strided
    column = block[:, 1]
    assert gaussian_vector(into, n, out=column) is column
    assert np.array_equal(block[:, 1].view(np.int64), expected.view(np.int64))
    assert np.isnan(block[:, [0, 2]]).all()
    # the stream stands where the one-shot draw left it
    assert np.array_equal(gaussian_vector(into, 5), gaussian_vector(one_shot, 5))


def _serial(stream, n):
    """The frozen transform of the stream's next n words, drawn in one call."""
    return ndtri(uniform_doubles(stream, n))


@pytest.mark.parametrize(
    "n", [1, 3, 4, 5, DRAW_PIECE - 1, DRAW_PIECE, DRAW_PIECE + 1, 2 * DRAW_PIECE + 3]
)
def test_a_draw_in_pieces_has_the_bits_of_one_serial_draw(monkeypatch, n):
    serial = RngStream(21, 5)
    expected = _serial(serial, n).view(np.int64)
    following = serial.raw(9)
    pieces, fan_out = [], rng.fan_out

    def counted(fn, tasks):
        pieces.append(len(tasks))
        return fan_out(fn, tasks)

    monkeypatch.setattr(rng, "fan_out", counted)
    for cpus in (1, 2, 3):
        monkeypatch.setattr("vnentropy.threads.available_cpus", lambda: cpus)
        for out in (None, np.full((n, 2), np.nan)[:, 1]):
            stream = RngStream(21, 5)
            got = gaussian_vector(stream, n, out=out)
            assert np.array_equal(got.view(np.int64), expected), (cpus, out is None)
            # the stream stands where the serial draw left it
            assert np.array_equal(stream.raw(9), following)
    # a draw of two pieces or more is split, any other is not
    assert pieces == ([-(-n // DRAW_PIECE)] * 6 if n >= 2 * DRAW_PIECE else [])


def test_a_draw_in_pieces_off_the_main_thread_has_the_serial_bits():
    n = 2 * DRAW_PIECE + 3
    expected = _serial(RngStream(4), n)
    drawn = {}
    worker = threading.Thread(
        target=lambda: drawn.setdefault("g", gaussian_vector(RngStream(4), n))
    )
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert np.array_equal(drawn["g"].view(np.int64), expected.view(np.int64))


def test_a_stream_that_has_drawn_draws_serially(monkeypatch):
    n = 2 * DRAW_PIECE + 3
    serial = RngStream(6, 1)
    serial.raw(4)
    expected = _serial(serial, n)
    monkeypatch.setattr(rng, "fan_out", lambda fn, tasks: pytest.fail("drew in pieces"))
    stream = RngStream(6, 1)
    stream.raw(4)  # a whole Philox counter, yet not a fresh stream
    assert np.array_equal(gaussian_vector(stream, n).view(np.int64), expected.view(np.int64))
    assert np.array_equal(stream.raw(5), serial.raw(5))


def test_a_draw_refuses_an_out_of_another_shape():
    with pytest.raises(ValueError, match="out must be a float64 array of shape"):
        gaussian_vector(RngStream(0), 4, out=np.empty(5))
    with pytest.raises(ValueError, match="out must be a float64 array of shape"):
        gaussian_vector(RngStream(0), 4, out=np.empty((4, 1)))


def test_draws_consume_the_stream():
    stream = RngStream(1, 2)
    first = gaussian_vector(stream, 4)
    second = gaussian_vector(stream, 4)
    assert not np.array_equal(first, second)
    # the concatenation equals one longer draw from a fresh stream
    both = gaussian_vector(RngStream(1, 2), 8)
    assert np.array_equal(np.concatenate([first, second]), both)


def test_gaussian_law_of_large_numbers():
    draws = gaussian_vector(RngStream(0), 10**6)
    assert abs(draws.mean()) < 5e-3
    assert abs(draws.var() - 1.0) < 1e-2


def test_gaussian_empty_dimension_rejected():
    with pytest.raises(ValueError):
        gaussian_vector(RngStream(0), 0)


def test_rademacher_codomain_and_mean():
    draws = rademacher_vector(RngStream(0), 10**6)
    assert set(np.unique(draws)) == {-1.0, 1.0}
    assert abs(draws.mean()) < 5e-3


def test_rademacher_determinism_and_empty():
    assert np.array_equal(
        rademacher_vector(RngStream(3, 4), 32), rademacher_vector(RngStream(3, 4), 32)
    )
    with pytest.raises(ValueError):
        rademacher_vector(RngStream(0), 0)


def test_uniform_index_bound_one_always_zero():
    stream = RngStream(5)
    assert all(uniform_indices(stream, 1, 1)[0] == 0 for _ in range(20))


def test_uniform_index_matches_batch_path():
    stream = RngStream(11)
    scalar_draws = [uniform_indices(stream, 7, 1)[0] for _ in range(200)]
    batch = uniform_indices(RngStream(11), 7, 200)
    assert np.array_equal(scalar_draws, batch)


def test_uniform_index_frequencies_within_one_percent():
    draws = uniform_indices(RngStream(0), 8, 10**6)
    freq = np.bincount(draws, minlength=8) / draws.size
    assert np.all(np.abs(freq - 0.125) < 0.01 * 0.125)


def test_uniform_index_zero_bound_rejected():
    with pytest.raises(ValueError):
        uniform_indices(RngStream(0), 0, 1)


@given(st.integers(min_value=2, max_value=1000))
@settings(max_examples=25)
def test_uniform_indices_in_range(bound):
    draws = uniform_indices(RngStream(13), bound, 256)
    assert draws.min() >= 0 and draws.max() < bound


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
