"""Arbiters: fairness and priority."""

import inspect
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.noc import arbiter as arbiter_module
from repro.noc.arbiter import (Arbiter, FixedPriorityArbiter,
                               RoundRobinArbiter)


class TestRoundRobin:
    def test_single_requester_granted(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant([False, True, False]) == 1

    def test_no_requests_no_grant(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant([False, False, False]) is None

    def test_rotates_under_contention(self):
        arb = RoundRobinArbiter(3)
        grants = [arb.grant([True, True, True]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_starts_after_last_grant(self):
        arb = RoundRobinArbiter(3)
        arb.grant([False, True, False])
        # Next full-contention grant starts searching at 2.
        assert arb.grant([True, True, True]) == 2

    def test_fairness_bound(self):
        """Under continuous contention every input is served at least once
        in any window of `inputs` grants."""
        arb = RoundRobinArbiter(4)
        grants = [arb.grant([True] * 4) for _ in range(40)]
        for start in range(len(grants) - 4):
            window = set(grants[start:start + 4])
            assert window == {0, 1, 2, 3}

    def test_grant_counts(self):
        arb = RoundRobinArbiter(2)
        for _ in range(10):
            arb.grant([True, True])
        assert arb.grant_counts == [5, 5]
        assert arb.grants == 10

    def test_wrong_width_rejected(self):
        arb = RoundRobinArbiter(3)
        with pytest.raises(ConfigurationError):
            arb.grant([True, False])

    @given(st.lists(st.booleans(), min_size=1, max_size=8))
    def test_grant_is_always_a_requester(self, requests):
        arb = RoundRobinArbiter(len(requests))
        choice = arb.grant(requests)
        if any(requests):
            assert choice is not None
            assert requests[choice]
        else:
            assert choice is None


class TestFixedPriority:
    def test_default_order_prefers_low_index(self):
        arb = FixedPriorityArbiter(3)
        assert arb.grant([True, True, True]) == 0

    def test_custom_order(self):
        # The demonstrator's memory-port order: processor (1) first.
        arb = FixedPriorityArbiter(3, order=[1, 0, 2])
        assert arb.grant([True, True, True]) == 1
        assert arb.grant([True, False, True]) == 0
        assert arb.grant([False, False, True]) == 2

    def test_priority_is_persistent(self):
        """Unlike round-robin, the preferred input always wins."""
        arb = FixedPriorityArbiter(2, order=[1, 0])
        grants = [arb.grant([True, True]) for _ in range(10)]
        assert grants == [1] * 10

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedPriorityArbiter(3, order=[0, 1])
        with pytest.raises(ConfigurationError):
            FixedPriorityArbiter(3, order=[0, 1, 1])

    def test_zero_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedPriorityArbiter(0)


@st.composite
def arbiters_with_history(draw):
    """A fresh arbiter of either class, a prefix of arbitrary grants to
    replay on it, and one input index."""
    inputs = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        def make():
            return RoundRobinArbiter(inputs)
    else:
        order = draw(st.permutations(range(inputs)))

        def make():
            return FixedPriorityArbiter(inputs, order=order)
    prefix = draw(st.lists(
        st.lists(st.booleans(), min_size=inputs, max_size=inputs),
        max_size=12))
    index = draw(st.integers(min_value=0, max_value=inputs - 1))
    return make, prefix, index


class TestGrantOnly:
    @given(arbiters_with_history())
    def test_same_state_as_a_one_hot_grant(self, case):
        """``grant_only(i)`` is ``grant(one_hot(i))``: same winner, same
        pointer and counters, after any history of grants."""
        make, prefix, index = case
        lone, full = make(), make()
        for requests in prefix:
            lone.grant(requests)
            full.grant(requests)
        one_hot = [i == index for i in range(full.inputs)]
        assert lone.grant_only(index) == full.grant(one_hot) == index
        assert vars(lone) == vars(full)
        assert pickle.dumps(lone) == pickle.dumps(full)


#: Every concrete arbiter class the module defines, found by scanning it,
#: so a new policy is covered without being listed here.
ARBITER_CLASSES = sorted(
    (cls for cls in vars(arbiter_module).values()
     if isinstance(cls, type) and issubclass(cls, Arbiter)
     and not inspect.isabstract(cls)),
    key=lambda cls: cls.__name__)


def test_every_policy_is_scanned():
    assert {FixedPriorityArbiter, RoundRobinArbiter} <= set(ARBITER_CLASSES)


@pytest.mark.parametrize("cls", ARBITER_CLASSES,
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("inputs", (1, 3, 5))
def test_lone_grant_parity_for_every_class(cls, inputs):
    """For each input, after a random history and again after repeated
    lone grants, ``grant_only(i)`` leaves ``grants``, ``grant_counts``
    and any rotation state exactly as ``grant`` on the one-hot vector."""
    rng = random.Random(inputs)
    for index in range(inputs):
        lone, full = cls(inputs), cls(inputs)
        for _ in range(10):
            requests = [rng.random() < 0.5 for _ in range(inputs)]
            assert lone.grant(requests) == full.grant(requests)
        one_hot = [i == index for i in range(inputs)]
        for _ in range(3):
            assert lone.grant_only(index) == full.grant(one_hot) == index
            assert vars(lone) == vars(full)
