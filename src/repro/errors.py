"""Exception hierarchy for the repro library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or invalid parameters."""


class TopologyError(ConfigurationError):
    """A topology request cannot be satisfied (bad arity, port count, ...)."""


class SimulationError(ReproError):
    """The behavioural simulator detected an internal inconsistency."""


class ProtocolError(SimulationError):
    """The handshake protocol was violated (e.g. data changed before accept)."""


class RoutingError(SimulationError):
    """A flit could not be routed (unknown destination, converging path...)."""
