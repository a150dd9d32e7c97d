"""Throw every fault plugin at the protocol across many seeded schedules and
let the invariant observer hunt for safety or liveness holes.

    python3 demos/demo_adversary_hunt.py

To see the observer catch a deliberately broken gate, run the acceptance
suite's mutation check:

    pytest tests/test_acceptance.py -k criterion_9 -s
"""

from falcon_bft import (
    DelayRule,
    FaultSpec,
    SimConfig,
    SystemParams,
    check_liveness,
    observe_invariants,
    run_simulation,
)

KINDS = ("equivocate", "silent", "wrong_aaba_bit")

print("fuzzing 60 randomly delayed schedules (n=4 and n=7)...")
total = 0
for i in range(60):
    n, f = (4, 1) if i % 2 == 0 else (7, 2)
    cfg = SimConfig(
        params=SystemParams(n, f),
        seed=i,
        mode="random",
        delay_min=1,
        delay_max=5,
        num_instances=5,
        tx_load=4,
        faults=tuple(FaultSpec(n - d, KINDS[(i + d) % 3]) for d in range(f)),
        rules=(DelayRule(recipient=1 + i % n, delay=2 + i % 4),),
    )
    result = run_simulation(cfg)
    total += len(observe_invariants(result)) + len(check_liveness(result))
print(f"violations found: {total}")
