"""falcon-bft benchmark: runs the `falcon-sim run` pipeline in memory and reports it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One pipeline run is `schedule(config).run()`, then `observe_invariants` +
`check_liveness`, then `metrics.decompose_latency` / `tx_records`, then
`EventLog.to_lines()`; nothing is written to disk.  A pass runs each of the
workload's configs once, one after another (a closed loop).  Passes repeat
until S seconds have gone by, and every timing is a median over them.  The
end-to-end host times are rescaled by a reference kernel timed next to each
pass and each set-up repeat (see REFERENCE_S).

--trace 0 prints the end-to-end metrics.  After the timed passes it makes one
traced pass, which sizes every delivered envelope for `bytes_per_commit` and
must reproduce the untraced logs byte for byte.  --trace 1 prints the
per-layer metrics: one untraced pass, then traced passes until S seconds
have gone by; the last traced pass's spans go to .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A run that raises or reports a violation counts as failed; any
failed run, or any disagreement between passes or between the traced and
untraced runs, makes `correct` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import LAYERS, ROOT_SPAN, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15
# Host times are rescaled to a machine on which reference_seconds() takes this
# long (close to its time on the 2-vCPU x86-64 VM the benchmark was tuned on).
# A shared host's speed can drift by up to 2x over seconds to minutes; a
# reference timed next to every pass cancels most of that drift, and no change
# to src/ can move the reference.
REFERENCE_S = 0.1


class SetupError(Exception):
    pass


# -- host speed ------------------------------------------------------------------------


def reference_seconds() -> float:
    """Time a fixed kernel shaped like the simulator: heap, dict records, JSON, sha256."""
    gc.collect()
    rng = random.Random(7)
    t0 = time.perf_counter()
    queue, records = [], []
    for i in range(8000):
        heapq.heappush(queue, (rng.randint(1, 5), i, {"k": i % 7, "to": i % 16}))
    while queue:
        t, i, body = heapq.heappop(queue)
        records.append({"kind": "send", "t": t, "i": i, "body": body})
    blob = b"".join(json.dumps(r, sort_keys=True).encode() for r in records)
    for i in range(0, len(blob), 64):
        hashlib.sha256(blob[i:i + 64]).digest()
    return time.perf_counter() - t0


# -- import and set-up ---------------------------------------------------------------


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "falcon_bft" or m.startswith("falcon_bft.")]:
        del sys.modules[name]


def import_package():
    """Import falcon_bft from this checkout's src/, never from anywhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import falcon_bft
        import falcon_bft.metrics
    except ImportError as exc:
        raise SetupError(f"cannot import falcon_bft from {SRC}: {exc}") from exc
    origin = Path(falcon_bft.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"falcon_bft was imported from {origin}, not from {SRC}")
    return falcon_bft


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh imports of: import falcon_bft (with the metrics module the
    pipeline uses) + the first schedule(config) of the workload, each rescaled by
    a reference timed just before it."""
    times = []
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_S / reference_seconds()
        _purge_package()
        t0 = time.perf_counter()
        import_package()
        t1 = time.perf_counter()
        config = WORKLOADS[workload](seed)[0]  # input generation, not timed
        from falcon_bft import simnet

        t2 = time.perf_counter()
        simnet.schedule(config)
        t3 = time.perf_counter()
        times.append(((t1 - t0) + (t3 - t2)) * scale)
    return statistics.median(times)


# -- one pipeline run ----------------------------------------------------------------


@dataclass
class Run:
    index: int  # position of the config in the pass
    seconds: float = 0.0  # the whole pipeline
    sim_seconds: float = 0.0  # inside Simulation.run
    failed: bool = False
    digest: str = ""
    sends: int = 0
    deliveries: int = 0
    blocks: int = 0  # distinct blocks committed by correct nodes
    log_bytes: int = 0
    latencies: List[int] = field(default_factory=list)  # tx submit -> commit, ticks


def run_pipeline(index: int, config) -> Run:
    from falcon_bft import metrics, observer, simnet

    run = Run(index)
    try:
        t0 = time.perf_counter()
        sim = simnet.schedule(config)
        t1 = time.perf_counter()
        result = sim.run()
        t2 = time.perf_counter()
        violations = observer.observe_invariants(result)
        violations += observer.check_liveness(result, min_checked=1)
        metrics.decompose_latency(result)
        txs = metrics.tx_records(result)
        lines = result.log.to_lines()
        t3 = time.perf_counter()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        run.failed = True
        return run
    run.seconds = t3 - t0
    run.sim_seconds = t2 - t1
    correct = set(config.correct_nodes())
    records = result.log.records
    run.sends = sum(1 for r in records if r["kind"] == "send")
    crashed_drops = sum(
        1 for r in records if r["kind"] == "drop" and r["reason"] == "crashed"
    )
    run.deliveries = run.sends - crashed_drops
    run.blocks = len(
        {r["digest"] for r in records if r["kind"] == "commit" and r["node"] in correct}
    )
    run.log_bytes = len(lines)
    run.latencies = [tx.latency for tx in txs]
    run.digest = hashlib.sha256(lines).hexdigest()
    if violations or run.blocks == 0:
        for v in violations[:5]:
            print(f"config {index}: violation {v}", file=sys.stderr)
        run.failed = True
    return run


def run_pass(configs, tracer: Optional[Tracer] = None) -> List[Run]:
    if tracer is None:
        return [run_pipeline(i, c) for i, c in enumerate(configs)]
    return [tracer.span(ROOT_SPAN, run_pipeline, i, c) for i, c in enumerate(configs)]


def timed_passes(configs, seconds: float, tracer: Optional[Tracer] = None,
                 references: Optional[List[float]] = None):
    """Whole passes, back to back, until `seconds` have gone by; yields each pass.

    With `references`, reference_seconds() is appended before every pass and
    once after the last, so pass i lies between references[i] and [i + 1].
    """
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        if references is not None:
            references.append(reference_seconds())
        yield run_pass(configs, tracer)
        if time.perf_counter() - start >= seconds:
            if references is not None:
                references.append(reference_seconds())
            return


# -- statistics ------------------------------------------------------------------------


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_wall(runs: List[Run]) -> float:
    return sum(r.seconds for r in runs)


def workload_digest(runs: List[Run]) -> str:
    """sha256 over the pass's per-run log sha256s, in config order."""
    return hashlib.sha256(b"".join(bytes.fromhex(r.digest) for r in runs)).hexdigest()


def envelope_bytes(envelopes) -> Dict[str, int]:
    """encode_envelope size of every delivered envelope, by protocol (GBC / AABA)."""
    from falcon_bft.core_types import encode_envelope

    out = {"GBC": 0, "AABA": 0}
    for env in envelopes:
        out[env.addr.proto.name] += len(encode_envelope(env))
    return out


class Checker:
    """Collects every disagreement between passes; any entry makes the result incorrect."""

    def __init__(self):
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def count(self, runs: List[Run]) -> None:
        self.attempted += len(runs)
        self.failed += sum(r.failed for r in runs)

    def same_logs(self, label: str, ref: List[Run], runs: List[Run]) -> None:
        for a, b in zip(ref, runs):
            if not (a.failed or b.failed) and a.digest != b.digest:
                self.problems.append(f"{label}: config {a.index} log digest differs")

    def equal(self, label: str, expected, got) -> None:
        if expected != got:
            self.problems.append(f"{label}: expected {expected}, got {got}")


def check_traced(checker: Checker, ref: List[Run], traced: List[Run], tracer: Tracer, summary):
    """The traced pass must match the untraced one in logs and every simulated count."""
    checker.same_logs("traced vs untraced", ref, traced)
    checker.equal("traced deliveries", sum(r.deliveries for r in ref),
                  summary["under"][("node.handle", "simnet")])
    checker.equal("traced sends", sum(r.sends for r in ref), tracer.counts["eventlog.sends"])
    checker.equal("traced blocks", [r.blocks for r in ref], [r.blocks for r in traced])
    checker.equal("traced latencies", [r.latencies for r in ref], [r.latencies for r in traced])


def layer_metrics(tracer: Tracer, summary, nbytes: Dict[str, int]) -> Dict[str, float]:
    calls, under, incl, counts = summary["calls"], summary["under"], summary["incl_s"], tracer.counts
    self_s = summary["self_s"]
    echo_calls = calls["gbc.on_echo1"] + calls["gbc.on_echo2"]
    handle_calls = calls["node.handle"]
    sort_calls = calls["sorter.partial_sort"]
    records = counts["eventlog.records"]
    out = {
        "crypto.verify_partial_calls": calls["crypto.verify_partial"],
        "crypto.partial_sign_calls": calls["crypto.partial_sign"],
        "crypto.verify_threshold_calls": calls["crypto.verify_threshold"],
        "crypto.tagged_digest_calls": calls["crypto.tagged_digest"],
        "gbc.echo_calls": echo_calls,
        "gbc.late_echo_share": counts["gbc.late_echoes"] / echo_calls if echo_calls else 0.0,
        "gbc.grade2_deliveries": counts["gbc.grade2_deliveries"],
        "gbc.bytes": nbytes["GBC"],
        "node.handle_calls": handle_calls,
        "node.fanout": counts["node.envelopes_out"] / handle_calls if handle_calls else 0.0,
        "node.held": counts["node.held"],
        "sorter.calls": sort_calls,
        "sorter.useful_share": counts["sorter.useful_calls"] / sort_calls if sort_calls else 0.0,
        "acsq.handle_calls": calls["acsq.handle"],
        "acsq.assist_adopts": counts["acsq.assist_adopts"],
        "acsq.queries": counts["acsq.queries"],
        "aaba.handle_calls": calls["aaba.handle"],
        "aaba.out_shortcut": counts["aaba.out_shortcut"],
        "aaba.out_stop": counts["aaba.out_stop"],
        "aaba.out_aba": counts["aaba.out_aba"],
        "aaba.bytes": nbytes["AABA"],
        "aba.calls": sum(calls[n] for n in ("aba.input", "aba.on_bval", "aba.on_aux", "aba.on_decided")),
        "aba.max_round": counts["aba.max_round"],
        "simnet.deliveries": under[("node.handle", "simnet")],
        "simnet.queue_peak": counts["simnet.queue_peak"],
        "simnet.rule_match_calls": calls["simnet.rule_matches"],
        "simnet.schedule_s": incl.get("simnet.schedule", 0.0),
        "eventlog.records": records,
        "eventlog.send_share": counts["eventlog.sends"] / records if records else 0.0,
        "eventlog.to_lines_s": incl.get("eventlog.to_lines", 0.0),
        "observer.of_kind_calls": under[("eventlog.of_kind", "observer")],
    }
    for layer in LAYERS:
        if layer != "bench":
            out[f"{layer}.self_s"] = self_s[layer]
    return out


UNITS = {"_s": "s", "_share": "ratio", ".bytes": "B", ".fanout": "env/call", ".max_round": "round"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# -- the two modes ------------------------------------------------------------------------


Metrics = Dict[str, Tuple[float, str]]


def end_to_end(workload: str, seed: int, seconds: float, checker: Checker) -> Tuple[str, Metrics]:
    reference_seconds()  # warm-up: first use of json, heapq and hashlib
    setup_s = measure_setup(workload, seed)
    configs = WORKLOADS[workload](seed)
    passes, references = [], []
    for runs in timed_passes(configs, seconds, references=references):
        checker.count(runs)
        if passes:
            checker.same_logs("repeat pass", passes[0], runs)
        passes.append(runs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # pass i runs at the host speed measured on either side of it
    scales = [REFERENCE_S / ((references[i] + references[i + 1]) / 2) for i in range(len(passes))]

    with Tracer() as tracer:
        traced = run_pass(configs, tracer)
    checker.count(traced)
    check_traced(checker, passes[0], traced, tracer, tracer.summary())
    nbytes = envelope_bytes(tracer.delivered)

    first = passes[0]
    blocks = sum(r.blocks for r in first) or 1
    latencies = [lat for r in first for lat in r.latencies] or [0]
    per_run_ms = [
        r.seconds * 1e3 * scale for runs, scale in zip(passes, scales) for r in runs if not r.failed
    ] or [0]
    attempted = checker.attempted
    print(f"{workload} reference_s = {statistics.median(references)} s (host median; "
          f"timings below are rescaled to {REFERENCE_S} s)")
    return workload_digest(first), {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_wall(p) * k for p, k in zip(passes, scales)), "s"),
        "events_per_s": (
            statistics.median(
                sum(r.deliveries for r in p) / (k * sum(r.sim_seconds for r in p) or 1e-9)
                for p, k in zip(passes, scales)
            ),
            "1/s",
        ),
        "run_ms_p50": (percentile(per_run_ms, 50), "ms"),
        "run_ms_p90": (percentile(per_run_ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "msgs_per_commit": (sum(r.deliveries for r in first) / blocks, "msg"),
        "bytes_per_commit": ((nbytes["GBC"] + nbytes["AABA"]) / blocks, "B"),
        "commit_ticks_p50": (percentile(latencies, 50), "ticks"),
        "commit_ticks_p90": (percentile(latencies, 90), "ticks"),
        "log_mb": (sum(r.log_bytes for r in first) / 1e6, "MB"),
        "ok_run_share": ((attempted - checker.failed) / attempted, "ratio"),
    }


def per_layer(workload: str, seed: int, seconds: float, checker: Checker) -> Tuple[str, Metrics]:
    import_package()
    configs = WORKLOADS[workload](seed)
    ref = run_pass(configs)
    checker.count(ref)
    untraced_wall = pass_wall(ref)

    layer_values: List[Dict[str, float]] = []
    walls = []
    with Tracer() as tracer:
        for traced in timed_passes(configs, seconds, tracer):
            checker.count(traced)
            summary = tracer.summary()
            check_traced(checker, ref, traced, tracer, summary)
            layer_values.append(layer_metrics(tracer, summary, envelope_bytes(tracer.delivered)))
            walls.append(pass_wall(traced))
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPAN_DIR / f"spans-{workload}.tsv")

    out = {}
    for name in layer_values[0]:
        values = [v[name] for v in layer_values]
        if name.endswith("_s"):
            value = statistics.median(values)
        else:
            value = values[0]
            checker.equal(f"{name} across traced passes", [value] * len(values), values)
        out[name] = (value, unit_of(name))
    out["trace.overhead_s"] = (statistics.median(walls) - untraced_wall, "s")
    return workload_digest(ref), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checker = Checker()
    mode = per_layer if args.trace else end_to_end
    try:
        digest, values = mode(args.workload, args.seed, args.seconds, checker)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for problem in checker.problems:
        print(f"bench: {problem}", file=sys.stderr)
    correct = checker.failed == 0 and not checker.problems
    print(f"{args.workload} log_sha256 = {digest}")
    for name, (value, unit) in values.items():
        print(f"{args.workload} {name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
