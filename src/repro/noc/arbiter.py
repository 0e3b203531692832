"""Output-port arbiters for the routers.

Two policies from the paper:

* round-robin — the default fair policy;
* fixed priority — "the prioritization within the routers is balanced such
  that a processor always has priority to accessing its local memory"
  (Section 6): the demonstrator's leaf routers give the processor input
  fixed priority on the local-memory output.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.errors import ConfigurationError


class Arbiter(abc.ABC):
    """Chooses one requester among many, one grant per invocation."""

    def __init__(self, inputs: int):
        if inputs < 1:
            raise ConfigurationError(f"arbiter needs >= 1 input, got {inputs}")
        self.inputs = inputs
        self.grants = 0
        self.grant_counts = [0] * inputs

    @abc.abstractmethod
    def _select(self, requests: Sequence[bool]) -> int | None:
        """Pick the granted input index, or None if no requests."""

    def grant(self, requests: Sequence[bool]) -> int | None:
        if len(requests) != self.inputs:
            raise ConfigurationError(
                f"expected {self.inputs} request lines, got {len(requests)}"
            )
        choice = self._select(requests)
        if choice is not None:
            if not requests[choice]:
                raise ConfigurationError("arbiter granted a non-requester")
            self.grants += 1
            self.grant_counts[choice] += 1
        return choice

    def grant_only(self, index: int) -> int:
        """Grant ``index``, the only requester.

        Leaves the arbiter in exactly the state :meth:`grant` would on the
        one-hot request vector for ``index`` (any policy must pick the
        lone requester), without building or scanning that vector.
        """
        self.grants += 1
        self.grant_counts[index] += 1
        return index


class RoundRobinArbiter(Arbiter):
    """Fair rotating-priority arbiter.

    The search starts after the most recently granted input, so under
    continuous contention each requester is served within ``inputs`` grants
    (the fairness bound the tests check).
    """

    def __init__(self, inputs: int):
        super().__init__(inputs)
        self._last = inputs - 1

    def _select(self, requests: Sequence[bool]) -> int | None:
        for offset in range(1, self.inputs + 1):
            candidate = (self._last + offset) % self.inputs
            if requests[candidate]:
                self._last = candidate
                return candidate
        return None

    def grant_only(self, index: int) -> int:
        # The base bookkeeping, inlined: this runs once per lone grant.
        self._last = index
        self.grants += 1
        self.grant_counts[index] += 1
        return index


class FixedPriorityArbiter(Arbiter):
    """Grants the first requester in a fixed preference order."""

    def __init__(self, inputs: int, order: Sequence[int] | None = None):
        super().__init__(inputs)
        if order is None:
            order = range(inputs)
        order = list(order)
        if sorted(order) != list(range(inputs)):
            raise ConfigurationError(
                f"priority order must be a permutation of 0..{inputs - 1}"
            )
        self.order = order

    def _select(self, requests: Sequence[bool]) -> int | None:
        for candidate in self.order:
            if requests[candidate]:
                return candidate
        return None
