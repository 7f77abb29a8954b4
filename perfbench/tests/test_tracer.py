"""Self time, scopes and patching of the external span tracer."""

from __future__ import annotations

import sys
import threading
import time
import types

from tracer import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_spans_split_self_time():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def inner():
        clock.now += 5

    def outer():
        clock.now += 1
        inner_w()
        clock.now += 2
        inner_w()

    inner_w = t.cpu_span("inner", inner)
    outer_w = t.cpu_span("outer", outer)
    outer_w()
    totals = t.totals()["self"]
    assert totals == {"outer": 3.0, "inner": 10.0}


def test_recursive_span_of_one_name_counts_each_frame_once():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def rec(n):
        clock.now += 1
        if n:
            rec_w(n - 1)

    rec_w = t.cpu_span("rec", rec)
    rec_w(3)
    assert t.totals()["self"] == {"rec": 4.0}


def test_exception_still_closes_the_span():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def boom():
        clock.now += 2
        raise ValueError("x")

    def outer():
        clock.now += 1
        try:
            boom_w()
        except ValueError:
            pass

    boom_w = t.cpu_span("boom", boom)
    t.cpu_span("outer", outer)()
    assert t.totals()["self"] == {"outer": 1.0, "boom": 2.0}


def test_inclusive_metric_skips_scope_and_nesting():
    clock = FakeClock()
    t = Tracer(clock=clock)

    def sim(n):
        clock.now += 1
        if n:
            sim_w(n - 1)

    def execute():
        clock.now += 10
        sim_w(0)

    sim_w = t.cpu_span("sim", sim, inclusive="uncached", unless_scope="exec")
    exec_w = t.cpu_span("execute", execute, scope="exec")
    sim_w(2)      # outside execute: 3 units, counted once despite nesting
    exec_w()      # inside execute: not counted as uncached
    totals = t.totals()
    assert totals["incl"] == {"uncached": 3.0}
    assert totals["self"] == {"sim": 4.0, "execute": 10.0}


def _spin(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_parked_thread_is_not_charged_for_another_threads_work():
    """A span whose thread waits while another thread computes gets
    (almost) no self time: self time is thread CPU, not wall."""
    t = Tracer()
    release = threading.Event()
    parked = t.cpu_span("parked", lambda: release.wait(10))
    worker = t.cpu_span("worker", lambda: _spin(0.2))
    th = threading.Thread(target=parked)
    th.start()
    worker()
    release.set()
    th.join(10)
    assert not th.is_alive()
    totals = t.totals()["self"]
    assert totals["worker"] >= 0.19
    assert totals["parked"] < 0.05


def test_spans_on_two_threads_are_summed():
    t = Tracer()
    work = t.cpu_span("work", lambda: _spin(0.05))
    threads = [threading.Thread(target=work) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(10)
    assert not any(th.is_alive() for th in threads)
    assert t.totals()["self"]["work"] >= 0.099


def test_wall_span_measures_waiting():
    t = Tracer()
    t.wall_span("wait", lambda: time.sleep(0.05))()
    assert t.totals()["wall"]["wait"] >= 0.045
    assert t.totals()["self"] == {}


def test_patch_reaches_names_bound_by_import_and_unpatch_restores():
    owner = types.ModuleType("fakepkg.owner")
    user = types.ModuleType("fakepkg.user")

    def f():
        return 42

    owner.f = f
    user.f = f  # as ``from fakepkg.owner import f`` would bind it
    sys.modules.update({"fakepkg.owner": owner, "fakepkg.user": user})
    try:
        clock = FakeClock()
        t = Tracer(clock=clock)
        calls = []
        t.patch(owner, "f", lambda fn: t.cpu_span("f", fn, on_call=lambda *a: calls.append(1)),
                everywhere="fakepkg")
        assert owner.f() == 42 and user.f() == 42
        assert len(calls) == 2
        t.unpatch()
        assert owner.f is f and user.f is f
    finally:
        del sys.modules["fakepkg.owner"], sys.modules["fakepkg.user"]


def test_patch_class_method():
    class C:
        def m(self, x):
            return x + 1

    original = C.m
    t = Tracer(clock=FakeClock())
    t.patch(C, "m", lambda fn: t.cpu_span("m", fn))
    assert C().m(1) == 2
    assert set(t.totals()["self"]) == {"m"}
    t.unpatch()
    assert C.m is original
