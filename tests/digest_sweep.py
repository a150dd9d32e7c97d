"""Print one sha256 per sweep config over its run's outputs, as one JSON object.

Each digest covers every byte of the five files `falcon-sim run` writes for
the config's run (`cli.run_outputs`, in writing order: `events.log`,
`metrics.csv`, `txs.csv`, `chains.txt` and `report.txt`); `judged` gives it
with the count of each check the run's report lists.  A pure refactor must
leave all of them byte-identical.
`tests/test_golden_logs.py::test_sweep_digests_match_pin` checks that in
every test run: it hashes the `name digest` lines of every config, in
config order, into one pin, and asserts that only the one known config
breaks a check.  When the pin moves, this script names the configs that
moved.  Run it at the parent commit and at the change, each in its own
process, and compare:

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
from collections import Counter
from pathlib import Path
from typing import Tuple

from falcon_bft.cli import run_outputs
from falcon_bft.core_types import SystemParams
from falcon_bft.observer import check_liveness, observe_invariants
from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import run_simulation
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


def judged(config) -> Tuple[str, Counter]:
    """One run's digest, and how many violations of each check its report lists.

    The digest is sha256 over each file `falcon-sim run` writes
    (`cli.run_outputs`), in writing order: its name and length on one line,
    then its bytes.
    """
    run = run_simulation(config)
    violations = observe_invariants(run) + check_liveness(run)
    h = hashlib.sha256()
    for name, data in run_outputs(run, violations).items():
        h.update(b"%s %d\n" % (name.encode(), len(data)))
        h.update(data)
    return h.hexdigest(), Counter(v["check"] for v in violations)


def digest(config) -> str:
    return judged(config)[0]


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
