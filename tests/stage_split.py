"""Print how one `falcon-sim run` pipeline splits into simulate, observe and
serialise seconds, each stage the best of K runs, with the cycle collector's
seconds inside each.

    PYTHONPATH=src python tests/stage_split.py [--repeats K]

simulate is `schedule(config).run()`; observe is `observe_invariants`,
`check_liveness`, `metrics.decompose_latency` and `metrics.tx_records`;
serialise is `EventLog.to_lines()`: the benchmark pipeline's stages, in its
order.  The configs are both n=16 benchmark workloads at seed 1 and
favorable lockstep n=31 (f=10) with the favorable-n16 workload's other
settings: 5 instances, 8 txs per batch.  Each run starts after a full
collection, as each benchmark pass does.  A stage's `gc` column is the
collector time, timed from `gc.callbacks`, of the run that gave that
stage's best time.  The last column is serialise as a share of simulate.
The file has no `test_` prefix, so pytest does not collect it.
"""

import argparse
import dataclasses
import gc
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


class CollectorClock:
    """A `gc.callbacks` entry that sums the seconds collections take."""

    def __init__(self):
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start


def split(config, clock):
    """((seconds, collector seconds) of simulate, observe, serialise) of one pipeline run."""
    gc.collect()
    marks = [(time.perf_counter(), clock.seconds)]
    result = schedule(config).run()
    marks.append((time.perf_counter(), clock.seconds))
    observe_invariants(result)
    check_liveness(result)
    metrics.decompose_latency(result)
    metrics.tx_records(result)
    marks.append((time.perf_counter(), clock.seconds))
    result.log.to_lines()
    marks.append((time.perf_counter(), clock.seconds))
    return tuple((t1 - t0, c1 - c0) for (t0, c0), (t1, c1) in zip(marks, marks[1:]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, metavar="K")
    args = parser.parse_args()
    clock = CollectorClock()
    gc.callbacks.append(clock)
    print("config          simulate_s      gc  observe_s      gc  serialise_s      gc  serialise/simulate")
    for name, config in configs():
        runs = [split(config, clock) for _ in range(args.repeats)]
        (sim, sim_gc), (obs, obs_gc), (ser, ser_gc) = (min(stage) for stage in zip(*runs))
        print(f"{name:15s} {sim:10.3f} {sim_gc:7.3f} {obs:10.3f} {obs_gc:7.3f} "
              f"{ser:12.3f} {ser_gc:7.3f} {ser / sim:19.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
