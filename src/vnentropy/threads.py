"""CPU and BLAS thread control shared by the matrix products, the
filled-matrix build, the estimators and ``generate``.

:func:`fan_out` is the one rule by which work spreads over threads (probe
blocks, bands of filled products, tile pairs of a filled matrix's build):
a pool of one thread per available CPU from the main thread, one task
after another anywhere else, so pools never nest.  :func:`alongside`
runs one side task on a worker by the same rule (``generate`` writes its
file there while the calling thread runs the oracle).  :func:`one_blas_thread`
holds numpy's bundled OpenBLAS at one thread, which makes BLAS results
independent of ``OPENBLAS_NUM_THREADS`` and leaves the CPUs to the pools.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, TypeVar

T = TypeVar("T")


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fan_out(fn: Callable, tasks: list) -> list:
    """``[fn(task) for task in tasks]``, in task order.

    Called from the main thread, the tasks run on a pool of one thread per
    available CPU, at most one per task; anywhere else, for instance on a
    worker of such a pool, one after another, so pools never nest.  A
    task's exception is re-raised, and tasks not yet started are dropped.
    Each pooled task runs in a copy of the caller's context, so a numpy
    ``errstate`` around the call holds on the workers too.
    """
    on_main = threading.current_thread() is threading.main_thread()
    workers = min(len(tasks), available_cpus()) if on_main else 1
    if workers <= 1:
        return [fn(task) for task in tasks]
    contexts = [contextvars.copy_context() for _ in tasks]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda context, task: context.run(fn, task), contexts, tasks))


def alongside(main: Callable[[], T], side: Callable[[], object]) -> T:
    """``main()``, returned, while ``side()`` runs on one worker thread.

    As with :func:`fan_out`, the worker is used only from the main thread
    with at least two CPUs available; otherwise ``main()`` runs, then
    ``side()``, so a ``main`` that raises leaves ``side`` unstarted.  Either
    way both have ended when this returns or raises, and an exception of
    ``main`` wins over one of ``side``.  ``generate`` runs the haar oracle
    as ``main``: run with the writer on a pool of two (:func:`fan_out`), it
    raised the haar-cli-sweep benchmark's ``peak_rss_mb`` from 93.2-93.8 to
    105.1 MB on a 2-vCPU machine.
    """
    if threading.current_thread() is not threading.main_thread() or available_cpus() < 2:
        result = main()
        side()
        return result
    with ThreadPoolExecutor(1) as pool:
        done = pool.submit(side)
        result = main()
        done.result()
    return result


@functools.cache
def blas_thread_functions():
    """The get and set thread-count functions of numpy's bundled OpenBLAS;
    None when numpy links another BLAS."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        # a handle on numpy's extension also finds the symbols of the BLAS it links
        lib = ctypes.CDLL(core.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def one_blas_thread():
    """Hold the BLAS at one thread for the block, then restore its count.

    Yields None, or the warning to report when the count cannot be set.
    """
    functions = blas_thread_functions()
    if functions is None:
        yield "BLAS thread count not pinned (numpy's bundled OpenBLAS not found): last digits may depend on it"
        return
    get, set_ = functions
    previous = get()
    set_(1)
    try:
        yield None
    finally:
        set_(previous)
