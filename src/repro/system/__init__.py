"""The demonstrator system of the paper's Section 6 (Fig. 5).

"A homogeneous multiprocessor system ... 32 processing tiles, each with a
microprocessor and a local memory", connected by a 64-port binary-tree
IC-NoC on a 10 mm x 10 mm chip. Processors issue read requests to local or
remote memories; memories reply after a service delay; the leaf routers
give each processor fixed priority over network traffic when accessing its
own local memory.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ProcessorModel",
    "ProcessorConfig",
    "MemoryModel",
    "Tile",
    "proc_leaf",
    "mem_leaf",
    "tile_of",
    "DemonstratorSystem",
    "DemonstratorConfig",
    "DemonstratorResults",
    "StreamingConfig",
    "StreamingWorkload",
    "StreamingResults",
    "mapping_comparison",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.system.processor": ("ProcessorModel", "ProcessorConfig"),
    "repro.system.memory": ("MemoryModel",),
    "repro.system.tile": ("Tile", "proc_leaf", "mem_leaf", "tile_of"),
    "repro.system.demonstrator": (
        "DemonstratorSystem", "DemonstratorConfig", "DemonstratorResults",
    ),
    "repro.system.workloads": (
        "StreamingConfig", "StreamingWorkload", "StreamingResults",
        "mapping_comparison",
    ),
})
