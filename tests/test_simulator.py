"""Unit tests for the simulator driver."""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.event_queue import EventQueue


#: One-element parametrization so the tests keep their ``[heap]`` IDs.
@pytest.fixture(params=["heap"])
def sim():
    return Simulator()


def test_schedule_and_run_advances_time(sim):
    seen = []
    sim.schedule(10, lambda: seen.append(sim.now))
    sim.schedule(5, lambda: seen.append(sim.now))
    end = sim.run_until_idle()
    assert seen == [5, 10]
    assert end == 10
    assert sim.finished


def test_schedule_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1, lambda: None)


def test_run_until_bound(sim):
    fired = []
    sim.schedule(3, lambda: fired.append(3))
    sim.schedule(100, lambda: fired.append(100))
    sim.run(until=10)
    assert fired == [3]
    assert sim.now == 10
    sim.run()
    assert fired == [3, 100]


def test_finished_updates_on_bounded_runs(sim):
    """run(until=...) must refresh `finished` on its early exit path, not
    leave the previous run's answer behind."""
    sim.schedule(5, lambda: None)
    sim.run_until_idle()
    assert sim.finished
    sim.schedule(100, lambda: None)
    sim.run(until=10)
    assert not sim.finished          # the cycle-100 event is still pending
    sim.run(until=50)
    assert not sim.finished          # still pending after another bounded run
    sim.run()
    assert sim.finished


def test_finished_updates_when_a_callback_raises(sim):
    """An exception escaping a callback must not leave `finished` reporting
    the previous run's outcome (regression: it was only set on the normal
    exit path)."""
    sim.schedule(1, lambda: None)
    sim.run_until_idle()
    assert sim.finished

    def boom():
        raise RuntimeError("boom")

    sim.schedule(5, boom)
    sim.schedule(10, lambda: None)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert not sim.finished          # the cycle-10 event is still pending
    assert sim.executed_events == 2  # the raising event still counted
    sim.run()                        # the queue is still consistent
    assert sim.finished


def test_finished_true_when_the_raising_event_was_the_last(sim):
    def boom():
        raise RuntimeError("boom")

    sim.schedule(5, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.finished              # nothing pending after the exception


def test_nested_scheduling(sim):
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(7, lambda: seen.append(("inner", sim.now)))

    sim.schedule(2, outer)
    sim.run_until_idle()
    assert seen == [("outer", 2), ("inner", 9)]


def test_run_until_idle_guards_against_runaway(sim):
    def rearm():
        sim.schedule(1, rearm)

    sim.schedule(1, rearm)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_run_until_idle_diagnoses_the_runaway_callback():
    """A blown budget names the earliest pending time and the most frequent
    pending callbacks."""
    sim = Simulator()

    def rearm():
        sim.schedule(1, rearm)

    def straggler():
        pass

    sim.schedule(1, rearm)
    sim.schedule(1000, straggler)
    sim.schedule(2000, straggler)
    with pytest.raises(SimulationError) as excinfo:
        sim.run_until_idle(max_events=100)
    message = str(excinfo.value)
    assert "earliest pending event at cycle 101.0" in message
    assert f"{straggler.__qualname__} x2, {rearm.__qualname__} x1" in message
    assert "<lambda>" not in message


def test_run_with_an_empty_budget_dispatches_nothing():
    sim = Simulator()
    fired = []
    sim.schedule(1, lambda: fired.append(sim.now))
    assert sim.run(max_events=0) == 0
    assert sim.run(until=10, max_events=0) == 0
    assert fired == [] and sim.executed_events == 0
    assert not sim.finished
    with pytest.raises(ValueError, match="max_events"):
        sim.run(max_events=-5)
    assert fired == []
    sim.run(max_events=1)
    assert fired == [1] and sim.finished


def test_seconds_conversion():
    sim = Simulator(cpu_freq_ghz=2.0)
    assert sim.seconds(2e9) == pytest.approx(1.0)


def test_invalid_frequency():
    with pytest.raises(ValueError):
        Simulator(cpu_freq_ghz=0)


def test_reset_clears_state(sim):
    sim.schedule(5, lambda: None)
    sim.run_until_idle()
    sim.stats.add("x", 3)
    sim.reset()
    assert sim.now == 0
    assert len(sim.events) == 0
    assert sim.stats.counter("x") == 0
    # The simulator is fully reusable after a reset.
    seen = []
    sim.schedule(2, lambda: seen.append(sim.now))
    sim.run_until_idle()
    assert seen == [2]


def test_backends_execute_identically(sim):
    """One seeded mixed workload of plain schedules and argument-carrying
    schedules must land on the same trace and final time when replayed on a
    fresh simulator, with the side events interleaved by ``[time, seq]``."""

    def replay(simulator):
        trace = []

        def mark(tag, depth):
            trace.append((tag, depth))

        def spawner(depth):
            trace.append((simulator.now, depth))
            if depth < 40:
                simulator.schedule((depth * 7) % 13 + 0.25, lambda: spawner(depth + 1))
                if depth % 3 == 0:
                    simulator.schedule((depth * 3) % 5 + 1, mark, "x", depth)

        simulator.schedule(0.5, lambda: spawner(0))
        simulator.run_until_idle()
        return trace

    trace = replay(sim)
    reference_sim = Simulator()
    reference = replay(reference_sim)
    assert trace == reference
    assert ("x", 39) in trace and ("x", 40) not in trace
    assert sim.now == reference_sim.now
    assert sim.executed_events == reference_sim.executed_events == 41 + 14


def test_scheduler_backend_selection():
    """There is no scheduler to select: every simulator runs on the heap
    queue and the constructor takes no scheduler argument."""
    assert type(Simulator().events) is EventQueue
    assert not hasattr(Simulator(), "scheduler")
    with pytest.raises(TypeError):
        Simulator(scheduler="calendar")
