"""Kernel scheduling: parity, tick advance, order independence."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel


class Recorder(ClockedComponent):
    def __init__(self, kernel, name, parity):
        super().__init__(name, parity)
        self.fired_at = []
        kernel.add_component(self)

    def on_edge(self, tick):
        self.fired_at.append(tick)


class TestScheduling:
    def test_parity_0_fires_even_ticks(self):
        kernel = SimKernel()
        comp = Recorder(kernel, "a", 0)
        kernel.run_ticks(6)
        assert comp.fired_at == [0, 2, 4]

    def test_parity_1_fires_odd_ticks(self):
        kernel = SimKernel()
        comp = Recorder(kernel, "b", 1)
        kernel.run_ticks(6)
        assert comp.fired_at == [1, 3, 5]

    def test_run_cycles(self):
        kernel = SimKernel()
        kernel.run_cycles(3)
        assert kernel.tick == 6
        assert kernel.cycles == 3.0

    def test_half_cycle_run(self):
        kernel = SimKernel()
        kernel.run_cycles(1.5)
        assert kernel.tick == 3

    def test_duplicate_names_rejected(self):
        kernel = SimKernel()
        Recorder(kernel, "x", 0)
        with pytest.raises(ConfigurationError):
            Recorder(kernel, "x", 1)

    def test_bad_parity_rejected(self):
        kernel = SimKernel()
        with pytest.raises(ConfigurationError):
            Recorder(kernel, "y", 2)

    def test_negative_ticks_rejected(self):
        with pytest.raises(ConfigurationError):
            SimKernel().run_ticks(-1)


class TestRunUntil:
    def test_stops_when_predicate_true(self):
        kernel = SimKernel()
        done = kernel.run_until(lambda: kernel.tick >= 5, max_ticks=100)
        assert done
        assert kernel.tick == 5

    def test_gives_up_at_max(self):
        kernel = SimKernel()
        done = kernel.run_until(lambda: False, max_ticks=10)
        assert not done
        assert kernel.tick == 10

    def test_immediate_predicate(self):
        kernel = SimKernel()
        done = kernel.run_until(lambda: True, max_ticks=10)
        assert done
        assert kernel.tick == 0


class TestCommitSemantics:
    def test_same_tick_write_is_invisible_to_later_component(self):
        """Registration order must not matter: component B reads the value
        committed at the *previous* tick even if A wrote this tick."""
        kernel = SimKernel()
        sig = kernel.signal("s", initial=0)

        class Writer(ClockedComponent):
            def on_edge(self, tick):
                sig.set(tick + 100, tick)

        class Reader(ClockedComponent):
            def __init__(self):
                super().__init__("reader", 0)
                self.seen = []

            def on_edge(self, tick):
                self.seen.append(sig.value)

        writer = Writer("writer", 0)
        kernel.add_component(writer)
        reader = Reader()
        kernel.add_component(reader)
        kernel.run_ticks(4)
        # At tick 0 the reader sees the initial 0; at tick 2 it sees the
        # value written at tick 0.
        assert reader.seen == [0, 100]

    def test_tick_callbacks_fire_each_tick(self):
        kernel = SimKernel()
        seen = []
        for tick in range(3):
            kernel.call_at(tick, seen.append)
        kernel.run_ticks(3)
        assert seen == [0, 1, 2]
