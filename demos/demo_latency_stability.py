"""Compare continuous partial sorting against the commit-at-the-end foil on
the same delayed-index scenario: the foil holds every block hostage to the
slowest decision, stretching and bunching commit latency.

    python3 demos/demo_latency_stability.py
"""

from falcon_bft import DelayRule, SimConfig, SystemParams, run_simulation
from falcon_bft.metrics import stability_report, tx_records


def run(variant):
    cfg = SimConfig(
        params=SystemParams(4, 1),
        seed=5,
        num_instances=3,
        tx_load=40,
        rules=(DelayRule(body="Echo2", index=4, delay=40),),
        variant=variant,
    )
    return stability_report(tx_records(run_simulation(cfg)))


partial = run("falcon")
integral = run("integral_sort")

print(f"{'':>22}{'partial sorting':>18}{'integral foil':>16}")
for key in ("count", "min", "p50", "p90", "max", "spread", "distinct_commit_times"):
    print(f"{key:>22}{partial[key]:>18}{integral[key]:>16}")
print()
print("partial sorting commits as soon as every smaller index is decided;")
print("the foil waits for the whole instance, so latency climbs and bunches.")
