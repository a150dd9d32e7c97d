"""Print one sha256 per sweep config over its run's outputs, as one JSON object.

Each digest covers the config's event log, its two CSVs, every line of its
`observe_invariants` + `check_liveness` report (with `str`, as `report.txt`
writes it) and each node's `chain_digest`, in node id order.  A pure
refactor must leave all of them byte-identical.
`tests/test_golden_logs.py::test_sweep_digests_match_pin` checks that in
every test run: it hashes the `name digest` lines of every config, in
config order, into one pin.  When the pin moves, this script names the
configs that moved.  Run it at the parent commit and at the change, each in
its own process, and compare:

    PYTHONPATH=src python tests/digest_sweep.py > parent.json     # at the parent
    PYTHONPATH=src python tests/digest_sweep.py --compare parent.json

The runs go through `support.in_workers`, min(4, CPUs) spawned worker
processes, and the output keeps config order.

With `--compare FILE` it prints the name of every config whose digest
differs from FILE's, or that only one side has, instead of the digests,
and exits 1 if there is any.

The sweep covers the shipped scenarios, both n=16 benchmark workloads at
seeds 1-3, favorable n=31 (f=10) at seed 1 in lockstep and random mode
(the favorable-n16 workload's other settings; the widest fan-out per
broadcast), `fuzz_config(0..499)`, `crash_fuzz_config(0..299)`, two
generators that reach the agreement paths, `echo2_hold_config(0..299)` and
`late_proof_config(0..199)`, and criterion 6's two runs under Falcon and
under the integral-sorting foil (`delayed_index_configs`).  The file has no
`test_` prefix, so pytest does not collect it.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from falcon_bft.core_types import SystemParams
from falcon_bft.metrics import decompose_latency, stages_csv, tx_records, txs_csv
from falcon_bft.observer import check_liveness, observe_invariants
from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import run_simulation
from falcon_bft.sorter import chain_digest
from support import (
    crash_fuzz_config,
    delayed_index_configs,
    echo2_hold_config,
    in_workers,
    late_proof_config,
    load_bench_module,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def configs():
    """(name, config) for every config of the sweep, in a fixed order."""
    workloads = load_bench_module("workloads")
    for path in sorted(SCENARIOS.glob("*.ini")):
        yield path.name, load_scenario(path)
    for name in ("favorable-n16", "byzantine-n16"):
        for seed in (1, 2, 3):
            yield f"{name}:{seed}", workloads.WORKLOADS[name](seed)[0]
    favorable_n31 = dataclasses.replace(workloads.favorable_n16(1)[0], params=SystemParams(31, 10))
    for mode in ("lockstep", "random"):
        yield f"favorable-n31:1:{mode}", dataclasses.replace(favorable_n31, mode=mode)
    for i in range(500):
        yield f"fuzz_config({i})", workloads.fuzz_config(i)
    for i in range(300):
        yield f"crash_fuzz_config({i})", crash_fuzz_config(i)
    for i in range(300):
        yield f"echo2_hold_config({i})", echo2_hold_config(i)
    for i in range(200):
        yield f"late_proof_config({i})", late_proof_config(i)
    for variant in ("falcon", "integral_sort"):
        for i, config in enumerate(delayed_index_configs(variant)):
            yield f"delayed_index_configs({variant})[{i}]", config


def digest(config) -> str:
    """sha256 over one run's log, CSVs, report lines and chain digests."""
    run = run_simulation(config)
    h = hashlib.sha256(run.log.to_lines())
    stage_rows = decompose_latency(run)
    h.update(stages_csv(stage_rows).encode())
    h.update(txs_csv(tx_records(run), stage_rows).encode())
    for v in observe_invariants(run) + check_liveness(run):
        h.update(b"%s\n" % str(v).encode())
    for i in sorted(run.nodes):
        h.update(b"%s\n" % chain_digest(run.nodes[i].chain).hex().encode())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="FILE", help="a saved output to diff against")
    args = parser.parse_args()
    if args.compare is not None:  # read before the sweep, so a bad FILE fails at once
        with open(args.compare) as fh:
            saved = json.load(fh)
    names, sweep = zip(*configs())
    digests = dict(zip(names, in_workers(digest, sweep)))
    if args.compare is None:
        json.dump(digests, sys.stdout, indent=1)
        print()
        return 0
    differ = [name for name in {**digests, **saved} if saved.get(name) != digests.get(name)]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(saved.keys() | digests.keys())} configs differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
