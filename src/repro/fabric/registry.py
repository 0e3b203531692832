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

A new fabric is ~30 lines of routing strategy plus a structure
description and one :func:`register_topology` call — see docs/fabric.md.

Builders import their network modules lazily so the registry can be
imported from anywhere (CLI, sweep workers, the networks themselves)
without circular imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.fabric.allocator import ALLOCATOR_NAMES, make_allocator
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
            ``integrated`` may appear only when ``tree_legal``.
        tree_legal: the link structure has no converging paths, so the
            integrated clock distribution of the paper applies.
        flow_control: supported link-level flow-control flavours, the
            first is the default. ``"vc"`` (virtual channels: the
            ``n_vcs >= 2`` shape of :class:`~repro.fabric.router
            .FabricRouter`) requires at least one entry in
            ``vc_policies``.
        vc_policies: supported VC-assignment policies
            (:mod:`repro.fabric.routing`), the first is the default —
            e.g. ``dateline`` deadlock avoidance, ``escape`` adaptive.
        allocators: supported router allocation policies
            (:data:`~repro.fabric.allocator.ALLOCATOR_NAMES`). ``"rr"``
            round-robin is accepted on every fabric, so empty means rr
            only. ``"weighted"``/``"escape-reentry"`` require VC flow
            control, and ``"escape-reentry"`` additionally requires the
            ``escape`` VC policy. ``"local_priority"`` is the binary
            tree's per-output arbitration (no :class:`~repro.fabric
            .allocator.Allocator`: the handshake routers take arbiters).
        builder: ``(FabricConfig, kernel) -> network``, the kernel None
            or a :class:`~repro.sim.kernel.SimKernel` to build on
            (lazy-imports its module).
        validate: optional extra config check (port-count shape etc.).
        physical: ``network ->``
            :class:`~repro.physical.descriptor.PhysicalModel` — the
            fabric's physical cost descriptor (area, flit energy, clock
            power), consumed by :mod:`repro.physical`; it reads the
            fabric's name and clocking off ``network.config``.
            Lazy-imports like ``builder``; None means the fabric
            publishes no physical model and the generic reports refuse
            it loudly.
        supports_pipeline: the fabric honours the ``pipeline_depth`` /
            ``segment_links`` / ``credit_sizing`` knobs (the credit
            fabrics). The tree family does not: its handshake routers
            are a fixed forward pipeline and its links are *always*
            segmented at ``max_segment_mm`` by construction, so the
            knobs would be silently meaningless there — requesting them
            raises instead.
    """

    name: str
    description: str
    clock_distribution: tuple[str, ...]
    tree_legal: bool
    builder: Callable[["FabricConfig", Any], Any]
    validate: Callable[["FabricConfig"], None] | None = None
    flow_control: tuple[str, ...] = (FLOW_WORMHOLE,)
    vc_policies: tuple[str, ...] = ()
    allocators: tuple[str, ...] = ()
    physical: Callable[[Any], Any] | None = None
    supports_pipeline: bool = False

    def __post_init__(self) -> None:
        if not self.clock_distribution:
            raise ConfigurationError(f"{self.name}: no clocking schemes")
        if CLOCK_INTEGRATED in self.clock_distribution and not self.tree_legal:
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
    def default_flow_control(self) -> str:
        return self.flow_control[0]


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
            "tree_legal": "yes" if entry.tree_legal else "no",
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
    credit_sizing: str = "auto"  # "auto" grows FIFOs, "strict" raises
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
        if self.max_segment_mm <= 0.0:
            raise ConfigurationError("max_segment_mm must be positive")
        if self.credit_sizing not in ("auto", "strict"):
            raise ConfigurationError(
                f"credit_sizing must be 'auto' or 'strict', "
                f"got {self.credit_sizing!r}"
            )
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
            if self.credit_sizing != "auto":
                raise ConfigurationError(
                    f"credit_sizing only applies to credit fabrics; "
                    f"topology {self.topology!r} uses handshake flow "
                    f"control"
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
        if entry.validate is not None:
            entry.validate(self)

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
        return get_topology(self.topology).vc_policies[0]

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


def _validate_tree(config: FabricConfig) -> None:
    if config.arity < 2:
        raise ConfigurationError("tree arity must be >= 2")
    _require_power(config.ports, config.arity, "tree ports")
    if config.allocator == "local_priority" and config.arity != 2:
        raise ConfigurationError(
            f"local_priority assumes proc/mem sibling pairs (arity 2), "
            f"got arity {config.arity}"
        )


def _validate_ctree(config: FabricConfig) -> None:
    if config.concentration < 1:
        raise ConfigurationError("concentration must be >= 1")
    if config.ports % config.concentration:
        raise ConfigurationError(
            f"ctree ports ({config.ports}) must be a multiple of the "
            f"concentration ({config.concentration})"
        )
    leaves = config.ports // config.concentration
    if leaves < config.arity:
        raise ConfigurationError(
            f"ctree needs >= {config.arity} leaves after concentration, "
            f"got {leaves}"
        )
    _require_power(leaves, config.arity, "ctree leaves")


def _validate_vc(config: FabricConfig) -> None:
    """Config-time VC checks, single-sourced from the policies.

    Constructing the resolved policy (and discarding it) runs exactly
    the shape checks the build would — even dateline VC counts, the
    torus escape's three-VC minimum — so config-time validation can
    never drift from build-time behaviour.
    """
    if config.flow_control != FLOW_VC:
        return
    from repro.fabric.network import _grid_shape, make_vc_policy
    if config.topology == "ring":
        make_vc_policy(config)
    else:
        cols, rows = _grid_shape(config, config.topology)
        make_vc_policy(config, cols, rows)


def _validate_grid(config: FabricConfig) -> None:
    rows = config.rows
    if rows is not None:
        if rows < 2 or config.ports % rows or config.ports // rows < 2:
            raise ConfigurationError(
                f"grid of {config.ports} ports cannot have {rows} rows"
            )
    else:
        side = math.isqrt(config.ports)
        if side * side != config.ports or side < 2:
            raise ConfigurationError(
                f"square grid needs a square port count >= 4, "
                f"got {config.ports}"
            )
    _validate_vc(config)


def _require_power(value: int, base: int, what: str) -> None:
    count = 1
    while count < value:
        count *= base
    if count != value:
        raise ConfigurationError(
            f"{what} must be a power of {base}, got {value}"
        )


def _build_tree(config: FabricConfig, kernel):
    from repro.noc.network import ICNoCNetwork
    return ICNoCNetwork(config, kernel)


def _build_ctree(config: FabricConfig, kernel):
    from repro.fabric.ctree import ConcentratedTreeNetwork
    return ConcentratedTreeNetwork(config, kernel)


def _build_mesh(config: FabricConfig, kernel):
    from repro.fabric.network import MeshNetwork
    return MeshNetwork(config, kernel)


def _build_torus(config: FabricConfig, kernel):
    from repro.fabric.network import TorusNetwork
    return TorusNetwork(config, kernel)


def _build_ring(config: FabricConfig, kernel):
    from repro.fabric.network import RingNetwork
    return RingNetwork(config, kernel)


# Physical descriptors (lazy-import like the builders, so the registry
# stays importable from anywhere without pulling in repro.physical).


def _physical_tree(network):
    from repro.physical.descriptor import TreePhysical
    return TreePhysical(network)


def _physical_ctree(network):
    from repro.physical.descriptor import CtreePhysical
    return CtreePhysical(network)


def _physical_credit(network):
    # One descriptor serves every credit fabric: it walks the network's
    # own routing strategy over its own link table, so mesh, torus and
    # ring (wormhole or VC) need no per-topology physical code.
    from repro.physical.descriptor import CreditFabricPhysical
    return CreditFabricPhysical(network)


register_topology(TopologyEntry(
    name="tree",
    description="the paper's IC-NoC: 3x3/5x5 routers, handshake links, "
                "clock rides the data tree",
    clock_distribution=(CLOCK_INTEGRATED, CLOCK_MESOCHRONOUS),
    tree_legal=True,
    builder=_build_tree,
    validate=_validate_tree,
    physical=_physical_tree,
    allocators=("rr", "local_priority"),
))

register_topology(TopologyEntry(
    name="ctree",
    description="concentrated tree: several endpoints share each leaf NI, "
                "still integrated-clock legal",
    clock_distribution=(CLOCK_INTEGRATED, CLOCK_MESOCHRONOUS),
    tree_legal=True,
    builder=_build_ctree,
    validate=_validate_ctree,
    physical=_physical_ctree,
))

register_topology(TopologyEntry(
    name="mesh",
    description="2-D mesh, XY wormhole routing, credit flow control "
                "(the paper's comparison baseline)",
    clock_distribution=(CLOCK_MESOCHRONOUS,),
    tree_legal=False,
    builder=_build_mesh,
    validate=_validate_grid,
    physical=_physical_credit,
    flow_control=(FLOW_WORMHOLE, FLOW_VC),
    vc_policies=("escape",),
    allocators=("rr", "weighted", "escape-reentry"),
    supports_pipeline=True,
))

register_topology(TopologyEntry(
    name="torus",
    description="2-D torus: shortest-wrap XY routing, bubble flow control "
                "or dateline/escape VCs on the rings",
    clock_distribution=(CLOCK_MESOCHRONOUS,),
    tree_legal=False,
    builder=_build_torus,
    validate=_validate_grid,
    physical=_physical_credit,
    flow_control=(FLOW_WORMHOLE, FLOW_VC),
    vc_policies=("dateline", "escape"),
    allocators=("rr", "weighted", "escape-reentry"),
    supports_pipeline=True,
))

register_topology(TopologyEntry(
    name="ring",
    description="bidirectional ring of 3-port routers, shortest-direction "
                "routing, bubble flow control or dateline VCs",
    clock_distribution=(CLOCK_MESOCHRONOUS,),
    tree_legal=False,
    builder=_build_ring,
    validate=_validate_vc,
    physical=_physical_credit,
    flow_control=(FLOW_WORMHOLE, FLOW_VC),
    vc_policies=("dateline",),
    allocators=("rr", "weighted"),
    supports_pipeline=True,
))
