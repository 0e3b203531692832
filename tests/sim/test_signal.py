"""Double-buffered signal semantics."""

import pytest

from repro.errors import SimulationError
from repro.noc.flit import Flit, FlitKind
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


class Script(ClockedComponent):
    """Runs ``actions[tick](signal, tick)`` at the edges that have one."""

    def __init__(self, kernel, signal, actions):
        super().__init__("script", 0)
        self.signal = signal
        self.actions = actions
        kernel.add_component(self)

    def on_edge(self, tick):
        action = self.actions.get(tick)
        if action is not None:
            action(self.signal, tick)


def hold(sig, tick):
    sig.set(sig.value, tick)


BOTH_MODES = pytest.mark.parametrize("activity_driven", (True, False),
                                     ids=("fast", "naive"))


@BOTH_MODES
class TestHeldDrives:
    """A kernel-owned signal written with the object it already holds
    commits nothing, but the drive still counts for the multi-driver
    check for the rest of its tick."""

    def scripted(self, activity_driven, actions):
        kernel = SimKernel(activity_driven=activity_driven)
        sig = kernel.signal("wire", initial=Counted(0))
        Script(kernel, sig, actions)
        return kernel, sig

    @pytest.mark.parametrize("tracked", (True, False),
                             ids=("tracked", "untracked"))
    def test_a_different_drive_after_a_hold_raises(self, activity_driven,
                                                   tracked):
        def edge(sig, tick):
            hold(sig, tick)
            sig.set(Counted(1), tick if tracked else None)

        kernel, sig = self.scripted(activity_driven, {2: edge})
        with pytest.raises(SimulationError, match="signal 'wire' driven "
                                                  "twice.*hold at tick 2"):
            kernel.run_ticks(4)
        assert sig.value.key == 0

    def test_an_untracked_hold_conflicts_with_the_edge_after_it(
            self, activity_driven):
        """A host-side hold between steps belongs to the next tick's
        commit, as a pending host-side write would."""
        kernel, sig = self.scripted(
            activity_driven, {2: lambda sig, tick: sig.set(Counted(1), tick)})
        kernel.run_ticks(2)
        sig.set(sig.value)
        with pytest.raises(SimulationError, match="'wire'"):
            kernel.run_ticks(1)

    def test_an_equal_drive_after_a_hold_is_no_conflict(self,
                                                        activity_driven):
        def edge(sig, tick):
            hold(sig, tick)
            sig.set(Counted(0), tick)

        kernel, sig = self.scripted(activity_driven, {2: edge})
        kernel.run_ticks(4)
        assert sig.value.key == 0

    def test_a_different_drive_next_tick_is_fine(self, activity_driven):
        kernel, sig = self.scripted(activity_driven, {
            2: hold, 4: lambda sig, tick: sig.set(Counted(1), tick)})
        kernel.run_ticks(6)
        assert sig.value.key == 1
        sig.set(Counted(2))   # host side, long after the hold
        kernel.run_ticks(1)
        assert sig.value.key == 2

    def test_force_after_a_hold_commits_the_forced_value(self,
                                                         activity_driven):
        """The CORRUPT_DEST fault's path: the healthy logic re-drives
        the held flit, then the fault overrides it."""
        def edge(sig, tick):
            hold(sig, tick)
            sig.force(Counted(5))

        kernel, sig = self.scripted(activity_driven, {2: edge})
        seen = []
        sig.attach_probe(lambda tick, signal, old, new: seen.append(
            (tick, old.key, new.key)))
        kernel.run_ticks(4)
        assert sig.value.key == 5
        assert seen == [(2, 0, 5)]

    def test_a_hold_wakes_no_watcher_and_fires_no_probe(self,
                                                        activity_driven):
        Counted.eq_calls = 0
        kernel, sig = self.scripted(activity_driven,
                                    {tick: hold for tick in range(0, 20, 2)})
        sleeper = Sleeper(kernel, sig)
        seen = []
        sig.attach_probe(lambda *change: seen.append(change))
        kernel.run_ticks(20)
        assert seen == []
        assert sleeper.fired == ([1] if activity_driven
                                 else list(range(1, 20, 2)))
        assert Counted.eq_calls == 0


class CountingFlit(Flit):
    """A flit whose ``__eq__`` calls are counted."""

    __slots__ = ()
    eq_calls = 0

    def __eq__(self, other):
        CountingFlit.eq_calls += 1
        return Flit.__eq__(self, other)

    __hash__ = Flit.__hash__


def equal_flits(n):
    """``n`` equal flits, no two the same object."""
    return [CountingFlit(kind=FlitKind.SINGLE, src=0, dest=1, packet_id=7,
                         seq=0) for _ in range(n)]


class TaggedWriter(ClockedComponent):
    """Drives ``(payloads[i], tick)`` onto ``signal`` at its i-th edge."""

    def __init__(self, kernel, signal, payloads):
        super().__init__("writer", 0)
        self.signal = signal
        self.payloads = list(payloads)
        kernel.add_component(self)

    def on_edge(self, tick):
        if self.payloads:
            self.signal.set((self.payloads.pop(0), tick), tick)


@BOTH_MODES
class TestTagFirstCommit:
    """Two ``(x, tick)`` payloads whose int tags differ are a change
    decided without comparing ``x``; everything else keeps identity,
    then ``!=``."""

    @pytest.fixture(autouse=True)
    def _reset_counters(self):
        Counted.eq_calls = 0
        CountingFlit.eq_calls = 0

    def probed(self, activity_driven, writer, payloads, initial=None):
        kernel = SimKernel(activity_driven=activity_driven)
        sig = kernel.signal("wire", initial=initial)
        writer(kernel, sig, payloads)
        sleeper = Sleeper(kernel, sig)
        seen = []
        sig.attach_probe(lambda tick, signal, old, new: seen.append(tick))
        kernel.run_ticks(2 * len(payloads) + 4)
        return seen, sleeper

    def test_a_tagged_flit_wire_changes_at_every_drive_without_eq(
            self, activity_driven):
        flits = equal_flits(4)
        flits.insert(2, flits[1])   # the same object, re-driven
        seen, sleeper = self.probed(activity_driven, TaggedWriter, flits)
        assert seen == [0, 2, 4, 6, 8]
        if activity_driven:
            assert sleeper.fired == [1, 3, 5, 7, 9]
        assert CountingFlit.eq_calls == 0

    def test_an_equal_untagged_payload_is_no_change(self, activity_driven):
        initial, *flits = equal_flits(4)
        seen, sleeper = self.probed(activity_driven, Writer, flits,
                                    initial=initial)
        assert seen == []
        if activity_driven:
            assert sleeper.fired == [1]
        assert CountingFlit.eq_calls == 3   # compared, found equal

    def test_equal_tags_compare_the_payloads(self, activity_driven):
        payloads = [(Counted(1), 7), (Counted(2), 7), (Counted(2), 7)]
        seen, sleeper = self.probed(activity_driven, Writer, payloads)
        assert seen == [0, 2]
        if activity_driven:
            assert sleeper.fired == [1, 3]
        assert Counted.eq_calls == 2

    def test_a_non_int_tag_falls_back_to_the_full_compare(
            self, activity_driven):
        payloads = [(Counted(1), 1.0), (Counted(1), 2.0), (Counted(1), True),
                    (Counted(1), False), (Counted(1), "t"), (Counted(1), "t")]
        seen, _sleeper = self.probed(activity_driven, Writer, payloads)
        assert seen == [0, 2, 4, 6, 8]
        assert Counted.eq_calls == 5   # one per compared commit
