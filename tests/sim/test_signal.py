"""Double-buffered signal semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim.component import ClockedComponent
from repro.sim.kernel import SimKernel
from repro.sim.signal import Signal


class TestSignal:
    def test_initial_value(self):
        assert Signal("s", initial=7).value == 7
        assert Signal("s").value is None

    def test_write_invisible_until_commit(self):
        sig = Signal("s", initial=0)
        sig.set(5)
        assert sig.value == 0
        sig.commit()
        assert sig.value == 5

    def test_commit_returns_changed(self):
        sig = Signal("s", initial=1)
        sig.set(1)
        assert sig.commit() is False
        sig.set(2)
        assert sig.commit() is True

    def test_commit_without_write_is_noop(self):
        sig = Signal("s", initial=3)
        assert sig.commit() is False
        assert sig.value == 3

    def test_value_persists_across_ticks(self):
        sig = Signal("s", initial=0)
        sig.set(9)
        sig.commit()
        sig.commit()
        assert sig.value == 9

    def test_double_drive_same_value_allowed(self):
        sig = Signal("s")
        sig.set(4, tick=10)
        sig.set(4, tick=10)
        sig.commit()
        assert sig.value == 4

    def test_conflicting_drive_detected(self):
        sig = Signal("s")
        sig.set(4, tick=10)
        with pytest.raises(SimulationError):
            sig.set(5, tick=10)

    def test_drive_next_tick_after_conflict_window(self):
        sig = Signal("s")
        sig.set(4, tick=10)
        sig.commit()
        sig.set(5, tick=11)  # different tick: fine
        sig.commit()
        assert sig.value == 5

    def test_repr_contains_name(self):
        assert "clk" in repr(Signal("clk"))


class TestMultiDriverTightening:
    """Regression: an untracked write (tick=None) after a tracked write in
    the same tick used to reset the writer bookkeeping and bypass the
    double-drive check entirely."""

    def test_untracked_write_cannot_clobber_tracked_write(self):
        sig = Signal("s")
        sig.set(4, tick=10)
        with pytest.raises(SimulationError):
            sig.set(5)  # anonymous second driver, same commit window

    def test_untracked_write_does_not_reset_detection(self):
        """Even if the untracked write repeats the value, a later tracked
        conflicting write in the same tick must still be caught."""
        sig = Signal("s")
        sig.set(4, tick=10)
        sig.set(4)  # same value: no conflict, must not erase the tracker
        with pytest.raises(SimulationError):
            sig.set(5, tick=10)

    def test_tracked_write_cannot_clobber_untracked_write(self):
        """The symmetric case: a component write conflicting with a
        pending anonymous (host-side) write must raise too."""
        sig = Signal("s")
        sig.set(5)
        with pytest.raises(SimulationError):
            sig.set(6, tick=11)

    def test_tracked_overwrite_across_ticks_allowed(self):
        """Standalone signals may be rewritten by tracked drivers of
        different ticks without an intervening commit."""
        sig = Signal("s")
        sig.set(5, tick=10)
        sig.set(6, tick=11)
        sig.commit()
        assert sig.value == 6

    def test_untracked_same_value_write_allowed(self):
        sig = Signal("s")
        sig.set(4, tick=10)
        sig.set(4)
        sig.commit()
        assert sig.value == 4

    def test_commit_closes_the_conflict_window(self):
        sig = Signal("s")
        sig.set(4, tick=10)
        sig.commit()
        sig.set(5)  # new window: fine
        sig.commit()
        assert sig.value == 5

    def test_force_bypasses_detection(self):
        """Fault injection deliberately overrides the healthy driver."""
        sig = Signal("s")
        sig.set(4, tick=10)
        sig.force(5)
        sig.commit()
        assert sig.value == 5


class Counted:
    """A payload that compares by ``key`` and counts its ``__eq__`` calls
    (``!=`` goes through ``__eq__`` too)."""

    eq_calls = 0

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        Counted.eq_calls += 1
        return isinstance(other, Counted) and self.key == other.key

    __hash__ = object.__hash__


class Writer(ClockedComponent):
    """Drives ``payloads[i]`` onto ``signal`` at its i-th edge."""

    def __init__(self, kernel, signal, payloads):
        super().__init__("writer", 0)
        self.signal = signal
        self.payloads = list(payloads)
        kernel.add_component(self)

    def on_edge(self, tick):
        if self.payloads:
            self.signal.set(self.payloads.pop(0), tick)


class Sleeper(ClockedComponent):
    """Records every edge it fires on, then sleeps watching ``signal``."""

    def __init__(self, kernel, signal):
        super().__init__("sleeper", 1)
        self.signal = signal
        self.fired = []
        kernel.add_component(self)

    def on_edge(self, tick):
        self.fired.append(tick)
        self.sleep_until(self.signal)


class TestCommitComparesOnlyForListeners:
    """A commit compares old and new values only when a watcher or a
    probe listens, identity before equality."""

    @pytest.fixture(autouse=True)
    def _reset_counter(self):
        Counted.eq_calls = 0

    def test_unlistened_kernel_signal_commits_without_comparing(self):
        for activity_driven in (True, False):
            Counted.eq_calls = 0
            kernel = SimKernel(activity_driven=activity_driven)
            sig = kernel.signal("s", initial=Counted(0))
            Writer(kernel, sig, [Counted(key) for key in (0, 1, 1, 2)])
            kernel.run_ticks(10)
            assert sig.value.key == 2
            assert Counted.eq_calls == 0

    def test_watched_signal_wakes_exactly_on_a_change(self):
        kernel = SimKernel()
        sig = kernel.signal("s", initial=Counted(0))
        keys = (0, 1, 1, 2, 2, 2, 3)
        Writer(kernel, sig, [Counted(key) for key in keys])
        sleeper = Sleeper(kernel, sig)
        kernel.run_ticks(2 * len(keys) + 2)
        # A commit at tick 2i that changes the value wakes the sleeper
        # for tick 2i + 1; equal re-drives (new objects) do not.
        changes = [2 * i + 1 for i, key in enumerate(keys)
                   if key != (keys[i - 1] if i else 0)]
        assert sleeper.fired == [1] + changes
        assert Counted.eq_calls > 0

    def test_probe_sees_old_and_new_in_both_kernel_modes(self):
        same = Counted(5)
        payloads = [Counted(1), Counted(1), same, same, Counted(5),
                    Counted(6)]

        def run(activity_driven):
            kernel = SimKernel(activity_driven=activity_driven)
            sig = kernel.signal("s", initial=Counted(0))
            Writer(kernel, sig, payloads)
            seen = []
            sig.attach_probe(lambda tick, signal, old, new: seen.append(
                (tick, old.key, new.key)))
            kernel.run_ticks(16)
            return seen

        expected = [(0, 0, 1), (4, 1, 5), (10, 5, 6)]
        assert run(True) == expected
        assert run(False) == expected

    def test_redriving_the_committed_object_is_unchanged_without_eq(self):
        payload = Counted(3)
        sig = Signal("s", initial=payload)
        sig.set(payload)
        assert sig.commit() is False
        kernel = SimKernel()
        watched = kernel.signal("w", initial=payload)
        Writer(kernel, watched, [payload] * 4)
        sleeper = Sleeper(kernel, watched)
        kernel.run_ticks(10)
        assert sleeper.fired == [1]
        assert Counted.eq_calls == 0

    def test_standalone_commit_keeps_its_answer(self):
        sig = Signal("s", initial=Counted(1))
        sig.set(Counted(1))
        assert sig.commit() is False
        assert Counted.eq_calls == 1
        sig.set(Counted(2))
        assert sig.commit() is True
        sig.set(Counted(3))
        assert sig.commit(False) is False   # moved, not compared
        assert sig.value.key == 3
        assert Counted.eq_calls == 2
