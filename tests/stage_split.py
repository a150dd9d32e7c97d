"""Print how one `falcon-sim run` pipeline splits into simulate, observe and
serialise seconds, each stage the best of K runs.

    PYTHONPATH=src python tests/stage_split.py [--repeats K]

simulate is `schedule(config).run()`; observe is `observe_invariants`,
`check_liveness`, `metrics.decompose_latency` and `metrics.tx_records`;
serialise is `EventLog.to_lines()`: the benchmark pipeline's stages, in its
order.  The configs are both n=16 benchmark workloads at seed 1 and
favorable lockstep n=31 (f=10) with the favorable-n16 workload's other
settings: 5 instances, 8 txs per batch.  The last column is serialise as a
share of simulate.  The file has no `test_` prefix, so pytest does not
collect it.
"""

import argparse
import dataclasses
import sys
import time

from falcon_bft import metrics
from falcon_bft.core_types import SystemParams
from falcon_bft.observer import check_liveness, observe_invariants
from falcon_bft.simnet import schedule
from support import load_bench_module


def configs():
    """(name, config) for each split the script prints."""
    workloads = load_bench_module("workloads")
    favorable = workloads.favorable_n16(1)[0]
    yield "favorable-n16", favorable
    yield "byzantine-n16", workloads.byzantine_n16(1)[0]
    yield "favorable-n31", dataclasses.replace(favorable, params=SystemParams(31, 10))


def split(config):
    """(simulate, observe, serialise) seconds of one pipeline run."""
    t0 = time.perf_counter()
    result = schedule(config).run()
    t1 = time.perf_counter()
    observe_invariants(result)
    check_liveness(result)
    metrics.decompose_latency(result)
    metrics.tx_records(result)
    t2 = time.perf_counter()
    result.log.to_lines()
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, metavar="K")
    args = parser.parse_args()
    print("config          simulate_s  observe_s  serialise_s  serialise/simulate")
    for name, config in configs():
        runs = [split(config) for _ in range(args.repeats)]
        sim, obs, ser = (min(stage) for stage in zip(*runs))
        print(f"{name:15s} {sim:10.3f} {obs:10.3f} {ser:12.3f} {ser / sim:19.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
