"""Congestion attribution: name the hottest links and routers.

Two complementary views:

* :func:`render_metrics_report` ranks a finished run's
  :class:`~repro.telemetry.metrics.MetricsSummary` — top-k links by
  utilization, top-k routers by credit-stall burden — the "where does
  this fabric saturate" answer the paper's scalability argument needs.
* :func:`congestion_snapshot` reads a *live* network's router state
  (buffered flits, held wormhole/VC locks, exhausted credits), which is
  what the deadlock watchdog dumps when it fires: the snapshot of who
  is blocked on whom at the moment progress stopped.
"""

from __future__ import annotations

from repro.telemetry.metrics import MetricsSummary

_BAR_WIDTH = 20


def _bar(fraction: float) -> str:
    filled = min(_BAR_WIDTH, int(round(fraction * _BAR_WIDTH)))
    return "#" * filled + "." * (_BAR_WIDTH - filled)


def render_metrics_report(summary: MetricsSummary, top: int = 5) -> str:
    """The `repro metrics` report: overview, latency, top-k heat
    (``top`` >= 1, else :class:`~repro.errors.ConfigurationError`)."""
    lines = [
        f"run: {summary.elapsed_cycles:.0f} cycles, "
        f"{summary.packets_delivered}/{summary.packets_injected} packets, "
        f"{summary.flits_delivered} flits delivered",
    ]
    lat = summary.latency
    if lat.get("count"):
        lines.append(
            f"latency: n={lat['count']} mean={lat['mean']:.2f} "
            f"p50={lat['p50']:.2f} p95={lat['p95']:.2f} "
            f"p99={lat['p99']:.2f} max={lat['maximum']:.2f} cycles"
        )
    else:
        lines.append("latency: no packets delivered")
    hot_links = summary.top_links(top)
    lines.append(f"top {len(hot_links)} links by utilization:")
    if hot_links:
        width = max(len(name) for name, _, _ in hot_links)
        for name, flits, util in hot_links:
            lines.append(f"  {name:<{width}}  {flits:>6} flits  "
                         f"{util:6.1%}  {_bar(util)}")
    else:
        lines.append("  (no link carried a flit)")
    hot_routers = summary.top_routers(top)
    lines.append(f"top {len(hot_routers)} routers by congestion:")
    if hot_routers:
        width = max(len(name) for name, _, _, _ in hot_routers)
        for name, stall, occupancy, grants in hot_routers:
            lines.append(
                f"  {name:<{width}}  stall {stall:8.1f} cyc  "
                f"mean occupancy {occupancy:6.2f}  grants {grants}"
            )
    else:
        lines.append("  (no router activity)")
    return "\n".join(lines)


def _port_label(router, port: int) -> str:
    name = getattr(router, "port_name", None)
    return name(port) if name is not None else f"p{port}"


def _router_snapshot(router) -> tuple[int, list[str]]:
    """``(buffered_flits, detail lines)`` for one router, duck-typed
    across wormhole, VC and tree switch cores."""
    details: list[str] = []
    core = getattr(router, "switch", None) or router
    buffered = getattr(core, "buffered_flits", None)
    if buffered is None:  # tree switch: occupied output slots
        buffered = sum(1 for valid in core.slot_valid if valid)
    vc_owner = getattr(core, "vc_owner", None)
    if vc_owner is not None:  # VC router
        held = [f"{_port_label(core, port)}.vc{vc}"
                f"<-{_port_label(core, owner[0])}.vc{owner[1]}"
                for port, owners in enumerate(vc_owner)
                for vc, owner in enumerate(owners) if owner is not None]
        if held:
            details.append("held VCs: " + ", ".join(held))
        dry = [f"{_port_label(core, port)}.vc{vc}"
               for port, per_vc in enumerate(core.credits)
               for vc, left in enumerate(per_vc)
               if left == 0 and core.out_links[port] is not None]
        if dry:
            details.append("exhausted credits: " + ", ".join(dry))
    else:
        locks = getattr(core, "locks", ())
        held = [f"{_port_label(core, port)}<-{_port_label(core, owner)}"
                for port, owner in enumerate(locks) if owner is not None]
        if held:
            details.append("held locks: " + ", ".join(held))
        credits = getattr(core, "credits", None)
        if credits is not None:  # wormhole credit router
            dry = [_port_label(core, port)
                   for port, left in enumerate(credits)
                   if left == 0 and core.out_links[port] is not None]
            if dry:
                details.append("exhausted credits: " + ", ".join(dry))
    return buffered, details


def congestion_snapshot(network, top: int = 5) -> str:
    """Live blocked-state dump: top blocked routers with held locks and
    exhausted credits. Works on every registered fabric."""
    rows = []
    for router in network.routers:
        buffered, details = _router_snapshot(router)
        if buffered or details:
            rows.append((buffered, router.name, details))
    if not rows:
        return "congestion snapshot: no flits buffered, no locks held"
    rows.sort(key=lambda row: (-row[0], row[1]))
    lines = ["congestion snapshot (top blocked routers):"]
    for buffered, name, details in rows[:top]:
        lines.append(f"  {name}: {buffered} flits buffered")
        lines.extend(f"    {detail}" for detail in details)
    if len(rows) > top:
        lines.append(f"  ... and {len(rows) - top} more")
    return "\n".join(lines)
