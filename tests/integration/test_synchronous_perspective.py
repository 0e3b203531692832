"""The 'globally synchronous system perspective' (Section 3).

"Once the node-to-node timing is shown to hold, the system can be
conceived as globally synchronous ... a system designer does not need to
take into account its mesochronous nature."

Executable meaning: cycle-level behaviour (latencies, ordering, delivery)
depends only on the logical structure — never on the physical clock
phases. Scaling the chip (which changes every insertion delay and skew)
must leave the cycle-domain results bit-identical, as long as the
segmentation (the logical pipeline structure) is unchanged and timing
still validates at the operating point.
"""

import numpy as np
import pytest

from repro.fabric.registry import FabricConfig
from repro.noc.network import ICNoCNetwork
from repro.tech.flipflop import FF_90NM
from repro.timing.validator import validate_channels
from repro.traffic.base import apply_traffic
from repro.traffic.patterns import UniformRandom


def run_network(chip_mm, max_segment_mm, seed=21):
    net = ICNoCNetwork(FabricConfig(
        ports=16, arity=2, chip_width_mm=chip_mm, chip_height_mm=chip_mm,
        max_segment_mm=max_segment_mm,
    ))
    gen = UniformRandom(ports=16, load=0.1)
    schedule = gen.generate(200, np.random.default_rng(seed))
    apply_traffic(net, schedule, run_cycles=200)
    # Packet ids come from a process-global counter; normalise to the
    # run-relative id so two identical runs compare equal.
    base = min(p.packet_id for p in net.delivered)
    latencies = sorted(
        (p.packet_id - base, p.latency_ticks) for p in net.delivered
    )
    return net, latencies


class TestSynchronousPerspective:
    def test_cycle_behaviour_independent_of_physical_scale(self):
        """Same logical structure on a 10 mm and a 5 mm chip: insertion
        delays differ by 2x, cycle-domain results are identical."""
        # Segment cap chosen so both chips produce the same segmentation
        # (10 mm: root links 2.5 mm -> 2 segments; 5 mm: 1.25 -> 2).
        net_big, lat_big = run_network(chip_mm=10.0, max_segment_mm=1.3)
        net_small, lat_small = run_network(chip_mm=5.0, max_segment_mm=0.65)
        assert net_big.link_stage_count == net_small.link_stage_count
        assert lat_big == lat_small
        # The physical worlds really are different...
        assert net_big.clock_tree.max_skew() == pytest.approx(
            2.0 * net_small.clock_tree.max_skew(), rel=0.35
        )
        # ...and both validate at their own operating points.
        for net in (net_big, net_small):
            f = net.operating_frequency_ghz()
            report = validate_channels(net.channel_specs, FF_90NM, f)
            assert report.passed

    def test_skew_is_real_but_invisible_to_cycles(self):
        """The 64-leaf demonstrator accumulates ~3/4 ns of clock skew
        root-to-leaf — more than half a clock period — yet no cycle-level
        quantity anywhere depends on it."""
        net = ICNoCNetwork(FabricConfig(ports=64, arity=2))
        max_skew = net.clock_tree.max_skew()
        assert max_skew > 500.0  # ps: huge by global-clock standards
        # Per-hop (the only thing that matters locally) stays tiny.
        per_hop = []
        for name in net.clock_tree.names():
            node = net.clock_tree.node(name)
            if node.parent is not None:
                per_hop.append(node.segment_delay_ps)
        assert max(per_hop) < 150.0  # one 1.25 mm segment's flight time
