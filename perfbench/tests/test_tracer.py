import threading
import types

import vnentropy.report
import vnentropy.taylor
from vnentropy.densmat import SparseSymMatrix

import probes
from tracer import Span, Tracer, self_times


def span(sid, start, end, parent=None, thread=1):
    return Span(sid, f"s{sid}", start, end, parent, thread)


def test_self_time_of_nested_spans():
    spans = [
        span(0, 0, 100),
        span(1, 10, 40, parent=0),
        span(2, 20, 30, parent=1),
        span(3, 50, 70, parent=0),
    ]
    assert self_times(spans) == {0: 50, 1: 20, 2: 10, 3: 20}


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, 0, 100), span(1, 10, 60, parent=0), span(2, 40, 120, parent=0)]
    assert self_times(spans)[0] == 10


def toy_module():
    mod = types.ModuleType("toy")
    mod.entered = threading.Barrier(2, timeout=10)

    def inner():
        mod.entered.wait()
        return 1

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    return mod


def test_spans_on_two_threads_nest_within_their_own_thread():
    mod = toy_module()
    tracer = Tracer()
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "inner", "inner")
    workers = [threading.Thread(target=mod.outer) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    tracer.restore()

    spans = tracer.take()
    by_id = {s.id: s for s in spans}
    inners = [s for s in spans if s.name == "inner"]
    outers = [s for s in spans if s.name == "outer"]
    assert len(inners) == len(outers) == 2
    assert len({s.thread for s in outers}) == 2
    own = self_times(spans)
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
        assert own[parent.id] == parent.duration_ns - s.duration_ns
    assert all(s.parent is None for s in outers)


def test_failed_call_records_span_and_reraises():
    mod = types.ModuleType("toy")

    def boom():
        raise KeyError("x")

    mod.boom = boom
    with Tracer() as tracer:
        tracer.wrap(mod, "boom", "boom")
        try:
            mod.boom()
        except KeyError:
            pass
        else:
            raise AssertionError("the wrapper swallowed the exception")
        assert tracer._stack() == []
    assert mod.boom is boom
    (s,) = tracer.take()
    assert s.attrs == {"error": "KeyError"}


def test_library_wrappers_are_restored():
    targets = [
        (vnentropy.taylor, "taylor_entropy"),
        (vnentropy.taylor, "gaussian_vector"),
        (vnentropy.report, "power_method"),
        (SparseSymMatrix, "matmat"),
        (SparseSymMatrix, "matvec"),
    ]
    before = [vars(owner)[attr] for owner, attr in targets]
    with Tracer() as tracer:
        probes.install(tracer)
        assert all(vars(o)[a] is not f for (o, a), f in zip(targets, before))
    assert [vars(owner)[attr] for owner, attr in targets] == before
