"""Extensions: the paper's Section 7 future-work items, modelled.

* latch-based pipeline stages (area/power reduction),
* non-tree topologies: ring shortcut links bridged with conventional
  mesochronous synchronizers,
* weighted skew for temporal spreading of the supply current surge
  (the model itself lives in :mod:`repro.physical.peak_current`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "LatchStageModel",
    "latch_savings_table",
    "RingAugmentedTree",
    "ShortcutLink",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ext.latch_stage": ("LatchStageModel", "latch_savings_table"),
    "repro.ext.ring_links": ("RingAugmentedTree", "ShortcutLink"),
})
