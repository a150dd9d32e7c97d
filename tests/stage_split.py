"""Print how one `falcon-sim run` pipeline splits into simulate, observe and
serialise seconds, each stage the median of K runs with their min-max
range, with the cycle collector's seconds inside each, then the observe
stage split into its parts.

Every time printed is rescaled for host drift the way the benchmark does
it: the benchmark's `reference_seconds()` kernel is timed before each run
and once after the last, so each run lies between two timings, and that
run's seconds are scaled by `REFERENCE_S` over their mean; they read as
seconds on a host where the kernel takes `REFERENCE_S`.  The `ref_s`
column is the raw kernel time, the median over a config's timings.
The `peak_mb` column is the process's peak resident memory (`ru_maxrss`,
as the benchmark reads it) after a row's runs; the rows run in ascending
peak, so that high-water mark is each row's own.  The `lines` column is
the number of lines the run's log writes, and `us/line` the serialise
median over it, in microseconds.

    PYTHONPATH=src python tests/stage_split.py [--repeats K]

simulate is `schedule(config).run()`; observe is `observe_invariants`,
`check_liveness`, `metrics.decompose_latency` and `metrics.tx_records`;
serialise is `EventLog.to_lines()`: the benchmark pipeline's stages, in its
order.  The rows are one pass of the fuzz-mix workload at seed 1 (its 24
runs, one after another, each stage and part summed over them), both n=16
benchmark workloads at seed 1, the favorable-n16 one again with random 1-5
tick delays (`favorable-n16-random`: the gap between the two rows'
simulate columns is what random delays cost), and favorable
lockstep n=31 (f=10) and n=64 (f=21) with the favorable-n16 workload's
other settings: 5 instances, 8 txs per batch.  Each row's run starts
after a full collection, as each benchmark pass does.  A stage's
`gc` column is the collector time, timed from `gc.callbacks`, of the run
that gave that stage's median (the lower one for even K).  The
serialise/simulate column is serialise as a share of simulate, from the
two medians.

The second table splits observe into the same calls made one at a time,
in the same order: `index` is the first `EventLog.of_kind` call, which
builds the log's by-kind index, then each of `observer.ALL_CHECKS`, then
`check_liveness`, `decompose_latency` and `tx_records`.  Each part is the
median of K runs, with the collector time and the number of young (gen0)
collections of the run that gave it.  The file has no `test_` prefix, so
pytest does not collect it.
"""

import argparse
import dataclasses
import gc
import resource
import statistics
import sys
import time

from falcon_bft import metrics
from falcon_bft.core_types import SystemParams
from falcon_bft.observer import ALL_CHECKS, check_liveness
from falcon_bft.simnet import schedule
from support import BENCH_DIR, load_bench_module


def configs():
    """(name, the configs one run of it runs) for each row the script prints."""
    workloads = load_bench_module("workloads")
    favorable = workloads.favorable_n16(1)[0]
    yield "fuzz-mix", workloads.fuzz_mix(1)
    yield "favorable-n16", [favorable]
    yield "favorable-n16-random", [dataclasses.replace(
        favorable, mode="random", delay_min=1, delay_max=5
    )]
    yield "byzantine-n16", workloads.byzantine_n16(1)
    yield "favorable-n31", [dataclasses.replace(favorable, params=SystemParams(31, 10))]
    yield "favorable-n64", [dataclasses.replace(favorable, params=SystemParams(64, 21))]


class CollectorClock:
    """A `gc.callbacks` entry that sums the seconds collections take and
    counts the young ones."""

    def __init__(self):
        self.seconds = 0.0
        self.young = 0
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
            self.young += info["generation"] == 0
        else:
            self.seconds += time.perf_counter() - self._start


def observe_parts(result):
    """(name, call) of each part of the observe stage, in pipeline order."""
    yield "index", lambda: result.log.of_kind("commit")
    for check in ALL_CHECKS:
        yield check.__name__, lambda check=check: check(result)
    yield "check_liveness", lambda: check_liveness(result)
    yield "decompose_latency", lambda: metrics.decompose_latency(result)
    yield "tx_records", lambda: metrics.tx_records(result)


def split(configs, clock):
    """The number of written lines, then ((seconds, collector seconds, young
    collections) of simulate, observe, serialise, then of each observe
    part) of one pipeline run per config, one after another, summed."""
    gc.collect()
    lines, runs = 0, []
    for config in configs:
        marks = [(time.perf_counter(), clock.seconds, clock.young)]
        result = schedule(config).run()
        marks.append((time.perf_counter(), clock.seconds, clock.young))
        for _, call in observe_parts(result):
            call()
            marks.append((time.perf_counter(), clock.seconds, clock.young))
        result.log.to_lines()
        marks.append((time.perf_counter(), clock.seconds, clock.young))
        lines += len(result.log.written)
        runs.append([tuple(b - a for a, b in zip(m0, m1)) for m0, m1 in zip(marks, marks[1:])])
    steps = [tuple(map(sum, zip(*step))) for step in zip(*runs)]
    observe = tuple(map(sum, zip(*steps[1:-1])))
    return lines, (steps[0], observe, steps[-1], *steps[1:-1])


def rescaled(parts, scale):
    """`split`'s parts with their seconds multiplied by `scale`."""
    return [(seconds * scale, gc_seconds * scale, young) for seconds, gc_seconds, young in parts]


def median_run(stage):
    """Of one stage's K (seconds, gc, young) parts: the one with the median
    seconds (the lower one for even K), and the (min, max) seconds."""
    ranked = sorted(stage)
    return ranked[(len(ranked) - 1) // 2], (ranked[0][0], ranked[-1][0])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, metavar="K")
    args = parser.parse_args()
    sys.path.append(str(BENCH_DIR))  # the benchmark's modules import each other by name
    bench_run = load_bench_module("run")
    clock = CollectorClock()
    gc.callbacks.append(clock)
    splits = {}
    print(f"seconds rescaled to a reference of {bench_run.REFERENCE_S} s")
    print(f"{'config':21s}" + "".join(f"{stage + '_s':>12s} {'min-max':>11s}      gc"
                                      for stage in ("simulate", "observe", "serialise"))
          + "  serialise/simulate   ref_s  peak_mb    lines  us/line")
    for name, row in configs():
        refs, raw = [bench_run.reference_seconds()], []
        for _ in range(args.repeats):
            lines, parts = split(row, clock)
            raw.append(parts)
            refs.append(bench_run.reference_seconds())
        runs = [rescaled(parts, 2 * bench_run.REFERENCE_S / (before + after))
                for parts, before, after in zip(raw, refs, refs[1:])]
        medians = [median_run(stage) for stage in zip(*runs)]
        splits[name] = [part for part, _ in medians]
        cells = "".join(f"{seconds:12.3f} {low:5.3f}-{high:5.3f} {gc_seconds:7.3f}"
                        for (seconds, gc_seconds, _), (low, high) in medians[:3])
        simulate, serialise = splits[name][0][0], splits[name][2][0]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name:21s}{cells} {serialise / simulate:19.1%} {statistics.median(refs):7.3f}"
              f" {peak_mb:8.1f} {lines:8d} {serialise / lines * 1e6:8.2f}")
    print()
    print("observe part                   " + "".join(f"{name:>26s}" for name in splits))
    print(" " * 31 + "        seconds     gc young" * len(splits))
    names = [name for name, _ in observe_parts(None)]
    for row, part in enumerate(names, 3):
        cells = "".join(f"{s:15.4f} {g:6.4f} {y:4d}" for s, g, y in
                        (parts[row] for parts in splits.values()))
        print(f"{part:30s} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
