"""Gaussian block probe driver shared by the Taylor and Chebyshev estimators.

Probe i draws its Gaussian vector from ``stream.child(i)``.  The probes are
taken in n x b blocks, each block is handed to a caller-supplied kernel
that returns one value per column (or one row of them per quantity), and
each quantity's per-probe values are reduced from one contiguous array in
fixed index order, so results are bitwise reproducible however the probes
are scheduled and however many quantities one pass yields.

Each block task makes its own block with
:func:`~vnentropy.densmat.work_buffer` and fills it column by column:
``draw(stream, n, out=column)`` writes one probe straight into its column
(``rng.gaussian_vector`` in pieces of ``DRAW_CHUNK`` words, with the bits
of one whole draw).  The kernel then owns the block.  The series kernels'
``moments`` rotate their products through it and one more buffer of its
shape (Taylor) or two (Chebyshev), each product written in place by
``SparseSymMatrix.matmat_into``, and drop them all when they return.  So a
task holds two or three n x b arrays, the per-column values aside; a
one-column block of a filled matrix also holds the n x 2 padded product
that ``matmat_into`` makes for it.  Tasks share no buffer.

A block holds about ``BLOCK_ENTRIES`` entries (8 MiB): ``PROBE_CHUNK``
columns up to n = 8192, fewer beyond.  The widths depend on n and s only,
never on the machine.  When a block is that full (n >= 8192), the blocks
go through :func:`~vnentropy.threads.fan_out`: on a pool of one thread per available CPU
when the caller is the main thread, one after another elsewhere (for
instance in a ``bench`` cell on its own ``--threads`` pool).  The sparse
product, the reductions and the draws release the GIL.  Smaller matrices
keep their blocks serial: on a tiny one each draw is mostly Python
overhead that holds the GIL, and a filled one from n = 2048 up spreads
each product's row bands over the CPUs instead, or leaves them to a
multithreaded BLAS (see ``SparseSymMatrix.matmat_into``); the two pools
never nest.  Each worker runs one task at a time, so it holds two or three
blocks' worth of buffers.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .densmat import work_buffer
from .rng import RngStream, gaussian_vector
from .threads import fan_out

PROBE_CHUNK = 128
BLOCK_ENTRIES = 2**20


def default_s(epsilon: float, delta: float) -> int:
    """Probe count ceil(20 ln(2/delta) / epsilon^2)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(20.0 * math.log(2.0 / delta) / epsilon**2)


def probe_blocks(n: int, s: int) -> list[range]:
    """The probe indices of each block, in order.

    Blocks are ``min(PROBE_CHUNK, BLOCK_ENTRIES // n)`` columns wide, at
    least 2.  ``einsum`` sums the forms of a one-column block in another
    order than those of a wider block, whose columns get the same bits at
    any width.  So the last probe runs alone exactly when s = 1 (mod
    PROBE_CHUNK), as with blocks of ``PROBE_CHUNK`` columns, and no other
    probe ever does: a single probe left over at the end of the others
    joins the block before it.  Every probe keeps the bits it has in such
    blocks.
    """
    width = min(PROBE_CHUNK, max(2, BLOCK_ENTRIES // n))
    body = s - 1 if s % PROBE_CHUNK == 1 else s
    edges = list(range(0, body, width))
    if edges[1:] and edges[-1] == body - 1:
        edges.pop()
    edges.append(body)
    if body < s:
        edges.append(s)
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def probe_average(
    n: int,
    s: int,
    stream: RngStream,
    kernel: Callable[[np.ndarray], np.ndarray],
    draw: Callable[..., np.ndarray] = gaussian_vector,
) -> float | np.ndarray:
    """Mean of kernel(G) over s Gaussian probes: for a kernel returning the
    quadratic forms g^T A g of the columns g of G, an unbiased estimate of
    trace(A).  A kernel may return a d x b array instead of b values, one
    row per matrix A; the result is then the d means.

    ``draw(stream, n, out=column)`` writes one probe vector into a column
    of the block.  The kernel owns the block it is handed and may
    overwrite it; it may be called from several threads at once (see the
    module docstring).
    """
    if s < 1:
        raise ValueError("s must be at least 1")

    def run(block: range) -> np.ndarray:
        G = work_buffer((n, len(block)))
        for j, i in enumerate(block):
            draw(stream.child(i), n, out=G[:, j])
        return kernel(G)

    blocks = probe_blocks(n, s)
    if n * PROBE_CHUNK >= BLOCK_ENTRIES:
        values = fan_out(run, blocks)
    else:
        values = [run(block) for block in blocks]
    per_probe = np.concatenate(values, axis=-1, dtype=np.float64)
    means = np.array([row.sum() for row in per_probe.reshape(-1, s)]) / s
    return float(means[0]) if per_probe.ndim == 1 else means
