"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.system.simclock import Simulator


class TestSimulator:
    def test_event_ordering(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        assert sim.run() == 3.0
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(1.0, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(0.5, lambda: log.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [1.0, 1.5]

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_runaway_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)
