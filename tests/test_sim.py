"""Discrete-event simulator tests."""

import pytest

from repro.netsim.sim import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(0.5, fired.append, "b")
    sim.run()
    assert fired == ["b", "a"]
    assert sim.now == 1.0


def test_same_time_fifo_order():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0  # advanced to the boundary
    sim.run()
    assert fired == [1, 5]


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_call_soon_runs_at_current_instant():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_soon(order.append, "soon")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "soon"]


def test_max_events():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i * 0.1, lambda: None)
    sim.run(max_events=4)
    assert sim.events_processed == 4


def test_step():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is False


def test_named_rng_streams_are_independent_and_deterministic():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    assert a.rng("x").random() == b.rng("x").random()
    c = Simulator(seed=7)
    # Drawing from another stream must not disturb "x".
    c.rng("y").random()
    assert c.rng("x").random() == Simulator(seed=7).rng("x").random()
    assert Simulator(seed=7).rng("x").random() != Simulator(seed=8).rng("x").random()


def test_pending_counts_queue():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2


def test_pending_excludes_cancelled():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.pending() == 1


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending() == 1


def test_cancel_after_fire_does_not_corrupt_accounting():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    event.cancel()  # late cancel of an already-fired event: harmless
    sim.schedule(1.0, lambda: None)
    assert sim.pending() == 1


def test_heap_compaction_bounds_cancelled_growth():
    # Lazy cancellation must not let dead entries dominate the heap: a
    # timer-heavy workload (every message arms a timeout that is almost
    # always cancelled) would otherwise grow the queue without bound.
    sim = Simulator()
    events = [sim.schedule(10.0 + i, lambda: None) for i in range(200)]
    for event in events[:150]:
        event.cancel()
    assert sim.compactions >= 1
    assert len(sim._heap) < 100  # dead entries reclaimed eagerly
    assert sim.pending() == 50
    sim.run()
    assert sim.events_processed == 50


def test_compaction_preserves_firing_order():
    sim = Simulator()
    fired = []
    events = [sim.schedule(1.0 + i, fired.append, i) for i in range(128)]
    for event in events[::2]:
        event.cancel()
    sim.run()
    assert fired == list(range(1, 128, 2))


def test_same_instant_fifo_across_scheduling_calls():
    # schedule, schedule_at and call_soon share one sequence counter, so
    # same-instant events fire in the order they were scheduled,
    # whichever call scheduled them.
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_soon(order.append, "soon")
        sim.schedule_at(sim.now, order.append, "at-now")
        sim.schedule(0.0, order.append, "zero-delay")

    sim.schedule(1.0, first)
    sim.schedule_at(1.0, order.append, "at")
    sim.schedule(1.0, order.append, "delay")
    sim.run()
    assert order == ["first", "at", "delay", "soon", "at-now", "zero-delay"]


def test_run_until_is_inclusive_of_the_boundary_key():
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, fired.append, "on")
    sim.schedule_at(2.0 + 1e-9, fired.append, "after")
    sim.run(until=2.0)
    assert fired == ["on"]
    assert sim.now == 2.0
    assert sim.pending() == 1
    sim.run(until=2.0)  # nothing left at or before the boundary
    assert fired == ["on"]
    sim.run()
    assert fired == ["on", "after"]


def test_compaction_inside_a_callback_loses_no_live_event():
    # A callback that cancels more than half the heap compacts it in the
    # middle of run(); the loop must then drain the rebuilt heap, including
    # events scheduled after the compaction.
    sim = Simulator()
    fired = []
    events = {}

    def purge():
        fired.append(sim.now)
        before = sim.compactions
        for t in range(2, 202):
            events[t].cancel()
        assert sim.compactions > before
        sim.schedule_at(150.5, fired.append, 150.5)
        sim.schedule_at(250.5, fired.append, 250.5)

    sim.schedule_at(1.0, purge)
    for t in range(2, 301):
        events[t] = sim.schedule_at(float(t), fired.append, float(t))
    sim.run()
    expected = [1.0, 150.5] + [float(t) for t in range(202, 251)] + [250.5]
    expected += [float(t) for t in range(251, 301)]
    assert fired == expected
    assert sim.pending() == 0
