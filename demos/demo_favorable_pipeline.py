"""Walk through a fault-free run and watch blocks commit three hops after
each instance starts, with the agreement machinery never waking up.

    python3 demos/demo_favorable_pipeline.py
"""

from falcon_bft import SimConfig, SystemParams, observe_invariants, run_simulation
from falcon_bft.sorter import chain_digest

cfg = SimConfig(params=SystemParams(4, 1), seed=1, num_instances=4, tx_load=6)
result = run_simulation(cfg)

activate = {(r["node"], r["k"]): r["t"] for r in result.log.of_kind("activate")}

print("hop-synchronous run, 4 nodes, 4 instances")
print()
print("instance  activated  grade-2 deliveries  committed")
for k in range(1, cfg.num_instances + 1):
    t0 = activate[(1, k)]
    g2 = sorted(
        r["t"] for r in result.log.of_kind("gbc_deliver")
        if r["node"] == 1 and r["k"] == k and r["grade"] == 2
    )
    commits = sorted(
        r["t"] for r in result.log.of_kind("commit") if r["node"] == 1 and r["k"] == k
    )
    print(f"{k:>8}  {t0:>9}  hops {g2[0]}..{g2[-1]:<12}  hops {commits[0]}..{commits[-1]}")

print()
print("agreement activations:", len(result.log.of_kind("aaba_input")))
print("trigger firings:      ", len(result.log.of_kind("trigger")))
print("violations:           ", len(observe_invariants(result)))
for i, node in sorted(result.nodes.items()):
    print(f"node {i}: chain length {len(node.chain)}, "
          f"digest {chain_digest(node.chain).hex()[:16]}...")
