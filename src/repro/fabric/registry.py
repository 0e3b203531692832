"""The topology registry: one place where fabrics declare themselves.

Each registered topology names its structure, routing strategy, and —
central to the paper — its **clock distribution capability**:

* ``"integrated"`` — the clock rides the data links (paper Section 3).
  Legal only for fabrics whose link structure is a tree: "no converging
  paths are allowed in the network". Tree and concentrated tree qualify.
* ``"mesochronous"`` — conventional distribution with per-hop
  synchronizers (the PALS/GALS-style fallback meshes need). Any
  structure qualifies; it is the only option for ring-closing fabrics
  (mesh, torus, ring).

The capability is *checked at build time*: requesting ``integrated``
clocking for a converging-path fabric raises
:class:`~repro.errors.ConfigurationError` — the registry encodes the
paper's architectural claim as an invariant, not a comment.

Usage::

    from repro.fabric.registry import FabricConfig

    net = FabricConfig(topology="torus", ports=64).build()  # default clocking
    net = FabricConfig(topology="ctree", ports=64,
                       concentration=4).build()             # integrated clock

Every entry names its structure class, which states the shape rules
(``from_config``), whether it is ``tree_legal`` and its routing strategy
(``routing()``). A credit fabric's entry also maps each VC-policy name
to the callable that builds that policy and takes
:class:`~repro.fabric.network.CreditFabricNetwork` as its builder. A new
one is a structure, a routing strategy (plus a VC policy if it has one)
and one :func:`register_topology` call — see docs/fabric.md.

The tree entries' builders and every stock entry's physical descriptor
are functions that import their module on first call, so reading the
registry, or building a credit fabric, loads no tree datapath module and
no physical descriptor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.fabric.allocator import ALLOCATOR_NAMES, make_allocator
from repro.fabric.network import CreditFabricNetwork
from repro.fabric.routing import (
    EscapeVcAdaptive,
    RingDatelineVc,
    TorusDatelineVc,
    VcPolicy,
)
from repro.fabric.topologies import MeshTopology, RingTopology, TorusTopology
from repro.noc.topology import ConcentratedTreeTopology, TreeTopology
from repro.tech.technology import Technology, TECH_90NM

#: Clock distribution capabilities.
CLOCK_INTEGRATED = "integrated"
CLOCK_MESOCHRONOUS = "mesochronous"


#: Link-level flow-control capabilities.
FLOW_WORMHOLE = "wormhole"
FLOW_VC = "vc"

#: Allocation policies that meter a VC stage, so need VC flow control.
_VC_ALLOCATORS = ("weighted", "escape-reentry")

#: Execution backends: per-router events, the vectorized whole-fabric
#: kernel, or the array one whenever the config lowers.
BACKENDS = ("dispatch", "array", "auto")


@dataclass(frozen=True)
class TopologyEntry:
    """One registered fabric.

    Attributes:
        name: registry key (CLI ``--topology`` value).
        description: one-line summary for tables and docs.
        clock_distribution: supported schemes, the first is the default.
            ``integrated`` may appear only when the structure is
            ``tree_legal`` (its links have no converging paths).
        structure: the structure class (:mod:`repro.noc.topology`,
            :mod:`repro.fabric.topologies`): ``from_config`` builds it,
            applying its shape rules; ``tree_legal`` and ``routing()``
            say whether the integrated clock applies and how it routes.
        flow_control: supported link-level flow-control flavours, the
            first is the default. ``"vc"`` (virtual channels: the
            ``n_vcs >= 2`` shape of :class:`~repro.fabric.router
            .FabricRouter`) requires at least one entry in
            ``vc_policies``.
        vc_policies: supported VC-assignment policies
            (:mod:`repro.fabric.routing`), each name mapped to the
            ``(FabricConfig, structure) -> VcPolicy`` callable that
            builds it; the first is the default — e.g. ``dateline``
            deadlock avoidance, ``escape`` adaptive.
        allocators: supported router allocation policies
            (:data:`~repro.fabric.allocator.ALLOCATOR_NAMES`). ``"rr"``
            round-robin is accepted on every fabric, so empty means rr
            only. ``"weighted"``/``"escape-reentry"`` require VC flow
            control, and ``"escape-reentry"`` additionally requires the
            ``escape`` VC policy. ``"local_priority"`` is the binary
            tree's per-output arbitration (no :class:`~repro.fabric
            .allocator.Allocator`: the handshake routers take arbiters).
        builder: ``(FabricConfig, kernel) -> network``, the kernel None
            or a :class:`~repro.sim.kernel.SimKernel` to build on — the
            stock credit fabrics name
            :class:`~repro.fabric.network.CreditFabricNetwork`, the tree
            entries a function that imports their network class on
            first call.
        physical: ``network ->``
            :class:`~repro.physical.descriptor.PhysicalModel` — the
            fabric's physical cost descriptor (area, flit energy, clock
            power), consumed by :mod:`repro.physical`; it reads the
            fabric's name and clocking off ``network.config``. The stock
            entries name a function that imports
            :mod:`repro.physical.descriptor` on first call. None means
            the fabric publishes no physical model and the generic
            reports refuse it loudly.
    """

    name: str
    description: str
    clock_distribution: tuple[str, ...]
    structure: type
    builder: Callable[["FabricConfig", Any], Any]
    flow_control: tuple[str, ...] = (FLOW_WORMHOLE,)
    vc_policies: dict[str, Callable[["FabricConfig", Any], VcPolicy]] = \
        field(default_factory=dict)
    allocators: tuple[str, ...] = ()
    physical: Callable[[Any], Any] | None = None

    def __post_init__(self) -> None:
        if not self.clock_distribution:
            raise ConfigurationError(f"{self.name}: no clocking schemes")
        if CLOCK_INTEGRATED in self.clock_distribution and \
                not self.structure.tree_legal:
            raise ConfigurationError(
                f"{self.name}: integrated clocking requires a tree-legal "
                f"structure (no converging paths)"
            )
        if not self.flow_control:
            raise ConfigurationError(f"{self.name}: no flow control")
        if FLOW_VC in self.flow_control and not self.vc_policies:
            raise ConfigurationError(
                f"{self.name}: VC flow control needs at least one "
                f"VC-assignment policy"
            )
        for allocator in self.allocators:
            if allocator not in ALLOCATOR_NAMES:
                raise ConfigurationError(
                    f"{self.name}: unknown allocator {allocator!r} "
                    f"(known: {', '.join(ALLOCATOR_NAMES)})"
                )
            if allocator in _VC_ALLOCATORS and \
                    FLOW_VC not in self.flow_control:
                raise ConfigurationError(
                    f"{self.name}: allocator {allocator!r} needs VC flow "
                    f"control"
                )
        if ("escape-reentry" in self.allocators
                and "escape" not in self.vc_policies):
            raise ConfigurationError(
                f"{self.name}: escape-reentry allocation needs the "
                f"'escape' VC policy"
            )

    @property
    def default_clocking(self) -> str:
        return self.clock_distribution[0]

    @property
    def supports_pipeline(self) -> bool:
        """The fabric honours the ``pipeline_depth`` / ``segment_links``
        knobs: the credit fabrics do. The tree family's handshake routers
        are a fixed forward pipeline and its links are *always* segmented
        at ``max_segment_mm``, so the knobs would be silently meaningless
        there — requesting them raises instead."""
        return self.builder is CreditFabricNetwork

    def build_vc_policy(self, config: "FabricConfig",
                        structure) -> VcPolicy | None:
        """The VC-assignment policy ``config`` resolves to on the built
        ``structure`` (None under wormhole)."""
        name = config.resolved_vc_policy
        if name is None:
            return None
        return self.vc_policies[name](config, structure)


_REGISTRY: dict[str, TopologyEntry] = {}


def register_topology(entry: TopologyEntry) -> TopologyEntry:
    """Register a fabric (last registration wins, enabling overrides)."""
    _REGISTRY[entry.name] = entry
    return entry


def get_topology(name: str) -> TopologyEntry:
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown topology {name!r}; registered: {known}"
        )
    return entry


def topology_names() -> tuple[str, ...]:
    """Registered names, in registration order."""
    return tuple(_REGISTRY)


def topology_table() -> list[dict[str, str]]:
    """One row per registered fabric (CLI/docs material)."""
    rows = []
    for entry in _REGISTRY.values():
        flow = "+".join(entry.flow_control)
        if entry.vc_policies:
            flow += f" ({'/'.join(entry.vc_policies)})"
        rows.append({
            "name": entry.name,
            "clocking": "+".join(entry.clock_distribution),
            "tree_legal": "yes" if entry.structure.tree_legal else "no",
            "flow_control": flow,
            "allocators": "/".join(entry.allocators) or "rr",
            "description": entry.description,
        })
    return rows


@dataclass(frozen=True)
class FabricConfig:
    """Picklable spec of one fabric instance, built via the registry.

    Only ``topology`` and ``ports`` matter for every fabric; the rest are
    per-family knobs with sensible defaults (tree arity, concentration,
    grid rows, credit buffer depth, floorplan dimensions).

    ``clocking`` selects the clock distribution scheme; None means the
    topology's default. ``flow_control`` selects the link-level flow
    control (``"wormhole"`` everywhere; ``"vc"`` enables virtual
    channels on the fabrics that register the capability, with
    ``n_vcs`` channels per port and the ``vc_policy`` VC-assignment
    policy — None means the topology's default policy). ``allocator``
    selects the routers' allocation policy
    (:mod:`repro.fabric.allocator`): ``"rr"`` round-robin (the
    default, every fabric), ``"weighted"`` per-VC bandwidth
    reservations (``reservations`` as ``((vc, fraction), ...)``),
    ``"escape-reentry"`` (round-robin plus Duato-legal escape-to-
    adaptive re-entry under the escape policy), or ``"local_priority"``
    (binary tree only: the paper's Section 6 demonstrator, where a leaf
    router's processor input always beats the network to the local
    memory). ``priority_flows``
    (``((src, dest), ...)``, escape policy only) reserves the top VC
    as a priority lane for the named flows — the QoS target a weighted
    reservation meters. All capability checks run in ``__post_init__``
    — an illegal pairing (e.g. a torus with the integrated clock, a
    tree with VCs, reservations without the weighted allocator) never
    constructs, which is what the build-time guarantee means.
    """

    topology: str = "tree"
    ports: int = 64
    clocking: str | None = None
    arity: int = 2              # tree family
    concentration: int = 4      # ctree
    rows: int | None = None     # grid fabrics; None = square
    buffer_depth: int = 4       # credit fabrics
    flow_control: str = FLOW_WORMHOLE
    n_vcs: int = 2              # per-port virtual channels (vc only)
    vc_policy: str | None = None
    allocator: str = "rr"       # router allocation policy
    reservations: tuple = ()    # ((vc, fraction), ...) — weighted only
    priority_flows: tuple = ()  # ((src, dest), ...) — escape policy only
    chip_width_mm: float = 10.0
    chip_height_mm: float = 10.0
    max_segment_mm: float = 1.25
    pipeline_depth: int = 1     # credit fabrics: staged routers
    segment_links: bool = False  # credit fabrics: pipeline long links
    tech: Technology = TECH_90NM
    activity_driven: bool = True
    backend: str = "dispatch"   # "dispatch" | "array" | "auto"

    def __post_init__(self) -> None:
        entry = get_topology(self.topology)
        if self.ports < 2:
            raise ConfigurationError("a fabric needs at least 2 ports")
        # Normalize sequence knobs to nested tuples so the (frozen)
        # config stays hashable and picklable whatever the caller built
        # them from (CLI argument lists, JSON, ...).
        object.__setattr__(self, "reservations",
                           tuple((int(vc), float(fraction))
                                 for vc, fraction in self.reservations))
        object.__setattr__(self, "priority_flows",
                           tuple((int(src), int(dest))
                                 for src, dest in self.priority_flows))
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be 'dispatch', 'array' or 'auto', "
                f"got {self.backend!r}"
            )
        refusal = self._array_refusal if self.backend == "array" else None
        if refusal:
            # Never silently fall back; "auto" picks the fastest
            # supported backend instead.
            raise ConfigurationError(
                f"backend='array' {refusal}; use backend='dispatch' "
                f"(or 'auto' to fall back)"
            )
        if self.pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1")
        for name in ("chip_width_mm", "chip_height_mm", "max_segment_mm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be finite and > 0, got {value}")
        if entry.supports_pipeline:
            if self.buffer_depth < 2:
                # The routers' own limit, checked where the spec is
                # written rather than at build() inside a sweep worker.
                raise ConfigurationError(
                    "credit flow control needs buffer_depth >= 2"
                )
        else:
            # Never silently ignore a knob (same contract as vc_policy
            # under wormhole): the tree family's routers are a fixed
            # handshake pipeline and its links are always segmented.
            if self.pipeline_depth != 1:
                raise ConfigurationError(
                    f"pipeline_depth only applies to credit fabrics; "
                    f"topology {self.topology!r} has a fixed router "
                    f"pipeline"
                )
            if self.segment_links:
                raise ConfigurationError(
                    f"segment_links only applies to credit fabrics; "
                    f"topology {self.topology!r} always segments its "
                    f"links at max_segment_mm"
                )
        if self.clocking is not None and \
                self.clocking not in entry.clock_distribution:
            raise ConfigurationError(
                f"topology {self.topology!r} cannot run "
                f"{self.clocking!r} clock distribution (supported: "
                f"{', '.join(entry.clock_distribution)})"
            )
        if self.flow_control not in entry.flow_control:
            raise ConfigurationError(
                f"topology {self.topology!r} cannot run "
                f"{self.flow_control!r} flow control (supported: "
                f"{', '.join(entry.flow_control)})"
            )
        if self.flow_control == FLOW_VC:
            if self.n_vcs < 2:
                raise ConfigurationError(
                    "VC flow control needs n_vcs >= 2"
                )
            if self.vc_policy is not None and \
                    self.vc_policy not in entry.vc_policies:
                raise ConfigurationError(
                    f"topology {self.topology!r} has no VC policy "
                    f"{self.vc_policy!r} (supported: "
                    f"{', '.join(entry.vc_policies)})"
                )
        elif self.vc_policy is not None:
            raise ConfigurationError(
                "vc_policy only applies with flow_control='vc'"
            )
        elif self.n_vcs != 2:
            # Symmetric with vc_policy: a VC knob is never silently
            # ignored on a build that cannot honour it. (An explicit
            # n_vcs=2 under wormhole is indistinguishable from the
            # default and equally without effect.)
            raise ConfigurationError(
                "n_vcs only applies with flow_control='vc'"
            )
        if self.allocator not in ALLOCATOR_NAMES:
            raise ConfigurationError(
                f"unknown allocator {self.allocator!r}; known: "
                f"{', '.join(ALLOCATOR_NAMES)}"
            )
        if self.allocator != "rr":
            if self.allocator in _VC_ALLOCATORS and \
                    self.flow_control != FLOW_VC:
                raise ConfigurationError(
                    f"allocator {self.allocator!r} only applies with "
                    f"flow_control='vc' (single-VC routers have no "
                    f"VC stage to meter)"
                )
            if self.allocator not in entry.allocators:
                raise ConfigurationError(
                    f"topology {self.topology!r} has no allocator "
                    f"{self.allocator!r} (supported: "
                    f"{', '.join(entry.allocators) or 'rr'})"
                )
            if (self.allocator == "escape-reentry"
                    and self.resolved_vc_policy != "escape"):
                raise ConfigurationError(
                    "escape-reentry allocation needs the 'escape' VC "
                    "policy (there is no escape subnetwork to re-enter "
                    "from otherwise)"
                )
        # Single-source reservation checks (duplicates, fraction range,
        # sum <= 1, weighted-only) from the allocator constructor, which
        # only the credit fabrics build; VC indices need the config's
        # n_vcs on top.
        if entry.supports_pipeline:
            make_allocator(self.allocator, self.reservations)
        elif self.reservations:
            raise ConfigurationError(
                "reservations need allocator='weighted'"
            )
        for vc, _fraction in self.reservations:
            if not 0 <= vc < self.n_vcs:
                raise ConfigurationError(
                    f"reservation names vc{vc} but the fabric has "
                    f"{self.n_vcs} VCs"
                )
        if self.priority_flows:
            if self.resolved_vc_policy != "escape":
                raise ConfigurationError(
                    "priority_flows need the 'escape' VC policy (it "
                    "reserves the priority lane)"
                )
            for src, dest in self.priority_flows:
                if not (0 <= src < self.ports and 0 <= dest < self.ports):
                    raise ConfigurationError(
                        f"priority flow ({src}, {dest}) outside the "
                        f"fabric's {self.ports} ports"
                    )
                if src == dest:
                    raise ConfigurationError(
                        f"priority flow ({src}, {dest}): src == dest "
                        f"never enters the fabric"
                    )
        # Build what the network will: the structure applies its shape
        # rules, the VC policy its own checks (even dateline VC counts,
        # the torus escape's three VCs), so validation never drifts.
        entry.build_vc_policy(self, entry.structure.from_config(self))

    @property
    def clock_distribution(self) -> str:
        """The resolved clocking scheme."""
        return self.clocking or get_topology(self.topology).default_clocking

    @property
    def resolved_vc_policy(self) -> str | None:
        """The VC-assignment policy in force (None under wormhole)."""
        if self.flow_control != FLOW_VC:
            return None
        if self.vc_policy is not None:
            return self.vc_policy
        return next(iter(get_topology(self.topology).vc_policies))

    @property
    def _array_refusal(self) -> str | None:
        """Why the array backend cannot lower this config (None: it can).

        The one statement of the lowerability rule: the engine covers
        the credit fabrics at pipeline depth 1 on unsegmented links
        under a round-robin-granting allocator.
        """
        if not get_topology(self.topology).supports_pipeline:
            return (f"cannot lower topology {self.topology!r}: the tree "
                    f"family's handshake pipeline has no array lowering")
        if self.pipeline_depth != 1:
            return (f"does not support pipeline_depth > 1 "
                    f"(got {self.pipeline_depth})")
        if self.segment_links:
            return "does not support segmented links"
        if self.allocator == "weighted":
            return "has no lowering for the weighted allocator"
        return None

    @property
    def resolved_backend(self) -> str:
        """The execution backend in force: ``"auto"`` resolves to
        ``"array"`` whenever the config is lowerable, else ``"dispatch"``."""
        if self.backend == "auto":
            return "dispatch" if self._array_refusal else "array"
        return self.backend

    def build(self, kernel=None):
        """Instantiate the network (any registered fabric, same API).

        ``kernel`` is a :class:`~repro.sim.kernel.SimKernel` to build on
        (None: a fresh one). A system model passes its own, with its
        drivers already registered, so their submissions reach the
        endpoints the same tick; its mode must match ``activity_driven``.
        """
        return get_topology(self.topology).builder(self, kernel)


# -- the stock fabrics ----------------------------------------------------


def _escape(config: FabricConfig, grid, wrap: bool) -> EscapeVcAdaptive:
    return EscapeVcAdaptive(
        grid.cols, grid.rows, config.n_vcs, wrap=wrap,
        reentry=config.allocator == "escape-reentry",
        priority_flows=config.priority_flows,
    )


def _tree_network(config: FabricConfig, kernel):
    from repro.noc.network import ICNoCNetwork
    return ICNoCNetwork(config, kernel)


def _ctree_network(config: FabricConfig, kernel):
    from repro.fabric.ctree import ConcentratedTreeNetwork
    return ConcentratedTreeNetwork(config, kernel)


def _tree_physical(network):
    from repro.physical.descriptor import TreePhysical
    return TreePhysical(network)


def _ctree_physical(network):
    from repro.physical.descriptor import CtreePhysical
    return CtreePhysical(network)


def _credit_physical(network):
    from repro.physical.descriptor import CreditFabricPhysical
    return CreditFabricPhysical(network)


register_topology(TopologyEntry(
    name="tree",
    description="the paper's IC-NoC: 3x3/5x5 routers, handshake links, "
                "clock rides the data tree",
    clock_distribution=(CLOCK_INTEGRATED, CLOCK_MESOCHRONOUS),
    structure=TreeTopology,
    builder=_tree_network,
    physical=_tree_physical,
    allocators=("rr", "local_priority"),
))

register_topology(TopologyEntry(
    name="ctree",
    description="concentrated tree: several endpoints share each leaf NI, "
                "still integrated-clock legal",
    clock_distribution=(CLOCK_INTEGRATED, CLOCK_MESOCHRONOUS),
    structure=ConcentratedTreeTopology,
    builder=_ctree_network,
    physical=_ctree_physical,
))

register_topology(TopologyEntry(
    name="mesh",
    description="2-D mesh, XY wormhole routing, credit flow control "
                "(the paper's comparison baseline)",
    clock_distribution=(CLOCK_MESOCHRONOUS,),
    structure=MeshTopology,
    builder=CreditFabricNetwork,
    physical=_credit_physical,
    flow_control=(FLOW_WORMHOLE, FLOW_VC),
    vc_policies={
        "escape": lambda config, mesh: _escape(config, mesh, wrap=False),
    },
    allocators=("rr", "weighted", "escape-reentry"),
))

register_topology(TopologyEntry(
    name="torus",
    description="2-D torus: shortest-wrap XY routing, bubble flow control "
                "or dateline/escape VCs on the rings",
    clock_distribution=(CLOCK_MESOCHRONOUS,),
    structure=TorusTopology,
    builder=CreditFabricNetwork,
    physical=_credit_physical,
    flow_control=(FLOW_WORMHOLE, FLOW_VC),
    vc_policies={
        "dateline": lambda config, torus: TorusDatelineVc(
            torus.cols, torus.rows, config.n_vcs),
        "escape": lambda config, torus: _escape(config, torus, wrap=True),
    },
    allocators=("rr", "weighted", "escape-reentry"),
))

register_topology(TopologyEntry(
    name="ring",
    description="bidirectional ring of 3-port routers, shortest-direction "
                "routing, bubble flow control or dateline VCs",
    clock_distribution=(CLOCK_MESOCHRONOUS,),
    structure=RingTopology,
    builder=CreditFabricNetwork,
    physical=_credit_physical,
    flow_control=(FLOW_WORMHOLE, FLOW_VC),
    vc_policies={
        "dateline": lambda config, ring: RingDatelineVc(ring.nodes,
                                                        config.n_vcs),
    },
    allocators=("rr", "weighted"),
))
