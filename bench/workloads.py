"""The benchmark's workloads: each maps a seed to the list of SimConfigs of one pass.

Configs use only the surface the simulator is expected to keep: the
`lockstep`/`random` modes, the crash/equivocate/silent/wrong_aaba_bit fault
kinds and top-level delay rules.  falcon_bft is imported inside the config functions
so that importing this module leaves the package unloaded (set-up time is
measured from a cold import).
"""

from __future__ import annotations

from typing import Callable, Dict, List

# one pass of fuzz-mix: a multiple of 12, so every pass holds the same number of
# n=4 and n=7 runs and each rotation of fault kinds and delayed body types
FUZZ_BATCH = 24
FUZZ_KINDS = ("equivocate", "silent", "wrong_aaba_bit")
FUZZ_BODIES = ("Echo1", "Echo2", "Amp", "Sho1")


def favorable_n16(seed: int) -> List[object]:
    from falcon_bft.core_types import SystemParams
    from falcon_bft.simnet import SimConfig

    return [
        SimConfig(
            params=SystemParams(16, 5),
            seed=seed,
            mode="lockstep",
            num_instances=5,
            tx_load=8,
        )
    ]


def byzantine_n16(seed: int) -> List[object]:
    from falcon_bft.core_types import SystemParams
    from falcon_bft.simnet import DelayRule, FaultSpec, SimConfig

    faults = (
        FaultSpec(16, "crash", at_time=0),
        FaultSpec(15, "equivocate"),
        FaultSpec(14, "silent"),
        FaultSpec(13, "wrong_aaba_bit"),
        FaultSpec(12, "crash", at_time=40),
    )
    rules = (
        DelayRule(body="Echo2", index=2, delay=8),
        DelayRule(recipient=3, delay=3),
    )
    return [
        SimConfig(
            params=SystemParams(16, 5),
            seed=seed,
            mode="random",
            delay_min=1,
            delay_max=5,
            faults=faults,
            rules=rules,
            num_instances=5,
            tx_load=8,
        )
    ]


def fuzz_config(i: int):
    """Run i of the fuzz shape: n alternates 4/7, faults rotate over the top f ids."""
    from falcon_bft.core_types import SystemParams
    from falcon_bft.simnet import DelayRule, FaultSpec, SimConfig

    n, f = (4, 1) if i % 2 == 0 else (7, 2)
    faults = tuple(FaultSpec(n - d, FUZZ_KINDS[(i + d) % 3]) for d in range(f))
    rules = (
        DelayRule(recipient=1 + i % n, delay=2 + i % 4),
        DelayRule(body=FUZZ_BODIES[i % 4], delay=1 + i % 3),
    )
    return SimConfig(
        params=SystemParams(n, f),
        seed=i,
        mode="random",
        delay_min=1,
        delay_max=5,
        num_instances=5,
        tx_load=4,
        faults=faults,
        rules=rules,
    )


def fuzz_mix(seed: int) -> List[object]:
    return [fuzz_config(seed * FUZZ_BATCH + r) for r in range(FUZZ_BATCH)]


WORKLOADS: Dict[str, Callable[[int], List[object]]] = {
    "favorable-n16": favorable_n16,
    "byzantine-n16": byzantine_n16,
    "fuzz-mix": fuzz_mix,
}
