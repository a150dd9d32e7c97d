"""Command-line harness: run scenario files, emit metrics and invariant reports.

    falcon-sim run <scenario> [--seed N] [--out DIR]
    falcon-sim check <scenario-dir>

Exit code 0 means the run (or every run in the directory) finished with an
empty violation report; violations exit 1.  Scenario errors, runs that do
not quiesce and outputs that cannot be written exit 2 with one line on
stderr; the first two write no outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import metrics
from .observer import check_liveness, observe_invariants
from .scenario import ScenarioError, load_scenario
from .simnet import InvalidConfig, QuiesceError, schedule
from .sorter import chain_digest


def _write_outputs(out_dir: Path, run, violations) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "events.log").write_bytes(run.log.to_lines())
    stage_rows = metrics.decompose_latency(run)
    (out_dir / "metrics.csv").write_text(metrics.stages_csv(stage_rows))
    txs = metrics.tx_records(run)
    (out_dir / "txs.csv").write_text(metrics.txs_csv(txs, stage_rows))
    chain_lines = [
        f"node={i} chain_len={len(node.chain)} digest={chain_digest(node.chain).hex()}"
        for i, node in sorted(run.nodes.items())
    ]
    (out_dir / "chains.txt").write_text("\n".join(chain_lines) + "\n")
    report = [f"violations={len(violations)}"]
    for v in violations:
        report.append(str(v))
    try:
        stability = metrics.stability_report(txs)
        report.append(f"stability={stability}")
    except metrics.InsufficientData as exc:
        report.append(f"stability=insufficient data ({exc})")
    (out_dir / "report.txt").write_text("\n".join(report) + "\n")


def run_one(path: Path, args, nested: bool = False) -> int:
    try:
        config = load_scenario(path)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        simulation = schedule(config)
    except (ScenarioError, InvalidConfig, OSError) as exc:
        print(f"{path}: scenario error: {exc}", file=sys.stderr)
        return 2
    try:
        simulation.run()
    except QuiesceError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 2
    violations = observe_invariants(simulation) + check_liveness(simulation)
    if args.out:
        out_dir = Path(args.out) / path.stem if nested else Path(args.out)
    else:
        out_dir = path.with_suffix(".out")
    try:
        _write_outputs(out_dir, simulation, violations)
    except OSError as exc:
        print(f"{path}: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    commits = len(simulation.log.of_kind("commit"))
    status = "PASS" if not violations else "FAIL"
    print(
        f"{status} {path.name}: seed={config.seed} mode={config.mode} "
        f"instances={config.num_instances} commits={commits} "
        f"violations={len(violations)} -> {out_dir}"
    )
    return 0 if not violations else 1


def cmd_run(args) -> int:
    return run_one(Path(args.scenario), args)


def cmd_check(args) -> int:
    directory = Path(args.scenario_dir)
    paths = sorted(directory.glob("*.ini"))
    if not paths:
        print(f"no scenario files in {directory}", file=sys.stderr)
        return 2
    worst = 0
    for path in paths:
        worst = max(worst, run_one(path, args, nested=True))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="falcon-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)  # options of both commands
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default=None)

    run_p = sub.add_parser("run", parents=[common], help="run one scenario file")
    run_p.add_argument("scenario")
    run_p.set_defaults(func=cmd_run)

    check_p = sub.add_parser(
        "check", parents=[common], help="run every *.ini scenario in a directory"
    )
    check_p.add_argument("scenario_dir")
    check_p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
