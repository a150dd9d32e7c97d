"""Desk-scale asynchronous BFT consensus with a deterministic simulation harness.

The protocol stack, bottom up: a threshold-signature mock and common coin
(`crypto`), graded broadcast (`gbc`), binary agreement (`aba`) wrapped by the
asymmetrical agreement layer (`aaba`), one-shot set agreement instances
(`acsq`) with partial sorting (`sorter`), and the per-node driver (`node`).
The harness side: a seeded discrete-event network with fault plugins
(`simnet`), cross-node invariant checks (`observer`), latency metrics
(`metrics`), and a scenario-file CLI (`scenario`, `cli`).
"""

from .core_types import SystemParams
from .observer import check_liveness, observe_invariants
from .simnet import DelayRule, FaultSpec, SimConfig, run_simulation

__all__ = [
    "DelayRule",
    "FaultSpec",
    "SimConfig",
    "SystemParams",
    "check_liveness",
    "observe_invariants",
    "run_simulation",
]
