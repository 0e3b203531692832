"""repro: a reproduction of the IC-NoC (Bjerregaard et al., DATE 2007).

"A Scalable, Timing-Safe, Network-on-Chip Architecture with an Integrated
Clock Distribution Method" — a tree-topology NoC that distributes the
clock along its own links, clocks neighbours on alternating edges so both
setup and hold margins scale with the clock period, and runs a 2-phase
valid/accept handshake that needs no stall buffers and gates clocks for
free.

Quick start — the paper's 64-port demonstrator tree, checked against
eqs. (1)-(7) on every link segment::

    from repro import FabricConfig, Packet
    from repro.timing.validator import validate_channels

    net = FabricConfig().build()
    print(net.describe())
    report = validate_channels(net.channel_specs, net.config.tech.register,
                               frequency=1.0)
    assert report.passed

Any registered fabric (tree, concentrated tree, mesh, torus, ring, ...)
builds through the topology registry::

    from repro import FabricConfig

    net = FabricConfig(topology="torus", ports=64).build()
    net.send(Packet(src=0, dest=42))
    net.drain()

and every registered fabric publishes a physical cost descriptor::

    from repro import RunEnergyReport, physical_comparison_rows

    print(RunEnergyReport.from_run(net).describe())
    rows = physical_comparison_rows(nodes=64)   # the Section 6 table

Sub-packages: ``tech`` (process models), ``timing`` (eqs. 1-7 and
validators), ``clocking`` (clock trees, variation, mesochronous
baselines), ``sim`` (half-cycle kernel), ``fabric`` (the shared router/
link/endpoint stack and the topology registry — the mesh baseline, torus
and ring live here), ``noc`` (the tree IC-NoC), ``traffic``, ``system``
(the 32-tile demonstrator), ``accel`` (accelerator trace replay),
``telemetry`` (metrics and flit traces), ``physical`` (area/energy/peak
current), ``ext`` (the paper's future-work items), ``analysis``
(tables/plots/records).
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "FabricConfig",
    "Packet",
    "ICNoCNetwork",
    "RunEnergyReport",
    "physical_comparison_rows",
    "physical_model",
    "Technology",
    "TECH_90NM",
    "DemonstratorConfig",
    "DemonstratorSystem",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fabric.registry": ("FabricConfig",),
    "repro.noc.packet": ("Packet",),
    "repro.noc.network": ("ICNoCNetwork",),
    "repro.physical.comparison": ("physical_comparison_rows",),
    "repro.physical.descriptor": ("physical_model",),
    "repro.physical.report": ("RunEnergyReport",),
    "repro.tech.technology": ("Technology", "TECH_90NM"),
    "repro.system.demonstrator": ("DemonstratorConfig", "DemonstratorSystem"),
})
