"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The 500-run fuzz gate of criteria 4 and 5 runs in worker processes
(`support.in_workers`) and takes a few seconds.
"""

import time

import pytest

from falcon_bft.core_types import (
    Amp,
    Send,
    Sho1,
    Sho2,
    Stop,
    SystemParams,
)
from falcon_bft.metrics import (
    decompose_latency,
    stability_report,
    stages_csv,
    tx_records,
    txs_csv,
)
from falcon_bft.observer import check_liveness, observe_invariants
from falcon_bft.simnet import DelayRule, FaultSpec, SimConfig, run_simulation

from support import (
    AabaCluster,
    LockstepBus,
    ShuffleBus,
    break_echo2_gate,
    break_q_check,
    break_sort_gate,
    grade1_cert,
    in_workers,
    load_bench_module,
    unsorted_prefixes,
)

fuzz_config = load_bench_module("workloads").fuzz_config


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}", flush=True)


def returns_by(result):
    out = {}
    for rec in result.log.of_kind("instance_return"):
        out[(rec["node"], rec["k"])] = rec
    return out


def effective_starts(result):
    """Instance start per node: activation, or the predecessor's return if
    the driver was still busy with it (pipelined activation)."""
    activate = {
        (r["node"], r["k"]): r["t"] for r in result.log.of_kind("activate")
    }
    rets = {(r["node"], r["k"]): r["t"] for r in result.log.of_kind("instance_return")}
    starts = {}
    for (node, k), t in activate.items():
        prev = rets.get((node, k - 1), 0)
        starts[(node, k)] = max(t, prev)
    return starts


# -- criterion 1 -----------------------------------------------------------------


@pytest.mark.parametrize("n,f", [(4, 1), (7, 2)])
def test_criterion_1_favorable_round_count(n, f):
    cfg = SimConfig(
        params=SystemParams(n, f), seed=1, num_instances=3, tx_load=4
    )
    started = time.monotonic()
    res = run_simulation(cfg)
    assert time.monotonic() - started < 1.0
    assert observe_invariants(res) == []
    activate = {(r["node"], r["k"]): r["t"] for r in res.log.of_kind("activate")}
    seen = set()
    for rec in res.log.of_kind("gbc_deliver"):
        if rec["grade"] == 2 and rec["k"] <= cfg.num_instances:
            rel = rec["t"] - activate[(rec["node"], rec["k"])]
            assert rel == 3, f"grade-2 at relative round {rel}, expected exactly 3"
            seen.add((rec["node"], rec["k"], rec["j"]))
    assert len(seen) == n * cfg.num_instances * n  # every block at every node
    assert res.log.of_kind("aaba_input") == []  # zero AABA activations
    for rec in res.log.of_kind("instance_return"):
        if rec["k"] <= cfg.num_instances:
            assert rec["acs_size"] == n
    report(1, f"n={n}: all blocks grade-2 at round 3, no AABA, |ACS|={n}")


# -- criterion 2 ------------------------------------------------------------------


@pytest.mark.parametrize("n,f,crashed", [(4, 1, (4,)), (7, 2, (6, 7))])
def test_criterion_2_pre_crash_shortcut_and_nine_rounds(n, f, crashed):
    cfg = SimConfig(
        params=SystemParams(n, f),
        seed=2,
        num_instances=3,
        tx_load=4,
        faults=tuple(FaultSpec(c, "crash", at_time=0) for c in crashed),
    )
    started = time.monotonic()
    res = run_simulation(cfg)
    assert time.monotonic() - started < 1.0
    assert observe_invariants(res) == []
    outs = [r for r in res.log.of_kind("aaba_output") if r["k"] <= cfg.num_instances]
    assert outs
    for rec in outs:
        assert rec["j"] in crashed
        assert rec["bit"] == 0 and rec["source"] == "shortcut"
    starts = effective_starts(res)
    for (node, k), rec in returns_by(res).items():
        if k <= cfg.num_instances:
            took = rec["t"] - starts[(node, k)]
            assert took <= 9, f"instance {k} at node {node} took {took} rounds"
    report(2, f"n={n} crashed={crashed}: shortcut zeros, ACS within 9 rounds")


# -- criterion 3 ------------------------------------------------------------------


@pytest.mark.parametrize("n,f", [(4, 1), (7, 2)])
def test_criterion_3a_all_zero_shortcut_three_rounds(n, f):
    cluster = AabaCluster(n, f)
    bus = LockstepBus(n, cluster.handlers)
    for i in cluster.nodes:
        bus.post(i, cluster.give_input(i, Amp(0)))
    hop_of_output = {}
    while bus.queue:
        bus.step()
        for i in cluster.outputs:
            hop_of_output.setdefault(i, bus.hop)
    assert set(hop_of_output) == set(cluster.nodes)
    assert all(h == 3 for h in hop_of_output.values())
    assert all(o.bit == 0 and o.source == "shortcut" for o in cluster.outputs.values())
    report("3a", f"n={n}: all-zero inputs output 0 exactly 3 rounds after start")


def test_criterion_3b_biased_validity_200_schedules():
    failures = 0
    for seed in range(200):
        cluster = AabaCluster()
        outputs = cluster.outputs
        digest = bytes([seed % 256]) * 32
        cert = grade1_cert(cluster.registry, cluster.params, 1, 1, digest)
        value = Amp(1, digest, cert)
        # f+1 = 2 correct one-inputs; node 4 is the adversary pushing zeros
        del cluster.handlers[4]
        bus = ShuffleBus(4, cluster.handlers, seed=seed)
        for i, inp in ((1, value), (2, value), (3, Amp(0))):
            bus.post(i, cluster.give_input(i, inp))
        addr = cluster.nodes[1].addr
        bus.post(4, [Send(addr, Amp(0)), Send(addr, Sho1(0)), Send(addr, Sho2(0)), Send(addr, Stop())])
        bus.run()
        got = {outputs[i].bit for i in (1, 2, 3) if i in outputs}
        if got != {1} or len([i for i in (1, 2, 3) if i in outputs]) != 3:
            failures += 1
    assert failures == 0
    report("3b", "f+1 certified one-inputs force output 1 in all 200 schedules")


def test_criterion_3c_early_stop_halts_inner_aba():
    cluster = AabaCluster()
    nodes, outputs = cluster.nodes, cluster.outputs

    def delay_sho2_to_4(sender, recipient, body):
        return 5 if recipient == 4 and isinstance(body, Sho2) else 0

    bus = LockstepBus(4, cluster.handlers, delay_fn=delay_sho2_to_4)
    for i in nodes:
        bus.post(i, cluster.give_input(i, Amp(0)))
    bus.run()
    # nodes 1..3 shortcut (f+1 correct outputs at line-20 style), node 4 is
    # rescued by the stop exchange without ever reaching its own shortcut
    assert {outputs[i].source for i in (1, 2, 3)} == {"shortcut"}
    assert outputs[4].source == "stop" and outputs[4].bit == 0
    for i, node in nodes.items():
        assert node.inner.halted, f"node {i} did not exit"
        assert node.inner.decided is None  # inner ABA never finished
    report("3c", "f+1 shortcut outputs stop every node with the inner ABA halted")


# -- criteria 4 and 5 ---------------------------------------------------------------


def fuzz_verdicts(i):
    """Fuzz run i's safety violations and its liveness violations."""
    res = run_simulation(fuzz_config(i))
    return observe_invariants(res), check_liveness(res, min_checked=1)


def test_criterion_4_and_5_safety_and_liveness_fuzz():
    runs = 500
    verdicts = in_workers(fuzz_verdicts, range(runs))
    safety_violations = [(i, v) for i, (safety, _) in enumerate(verdicts) for v in safety]
    liveness_violations = [(i, v) for i, (_, liveness) in enumerate(verdicts) for v in liveness]
    assert safety_violations == [], safety_violations[:5]
    assert liveness_violations == [], liveness_violations[:5]
    report(4, f"{runs} adversarial runs: zero safety violations")
    report(5, f"{runs} adversarial runs: every in-window tx committed by k+2")


# -- criterion 6 ---------------------------------------------------------------------


def test_criterion_6_partial_sort_progressiveness():
    def run_mode(variant):
        cfg = SimConfig(
            params=SystemParams(4, 1),
            seed=5,
            num_instances=1,
            tx_load=4,
            rules=(DelayRule(body="Echo2", index=4, acsq_id=1, delay=40),),
            variant=variant,
        )
        return run_simulation(cfg)

    partial = run_mode("falcon")
    assert observe_invariants(partial) == []
    commit_order = [
        (r["t"], r["i"]) for r in partial.log.of_kind("commit") if r["k"] == 1 and r["j"] < 4
    ]
    decide_order = [
        (r["t"], r["i"]) for r in partial.log.of_kind("aaba_output") if r["k"] == 1
    ]
    assert commit_order and decide_order
    assert max(commit_order) < min(decide_order)  # low indices commit first

    integral = run_mode("integral_sort")
    commit_order_i = [
        (r["t"], r["i"]) for r in integral.log.of_kind("commit") if r["k"] == 1 and r["j"] < 4
    ]
    decide_order_i = [
        (r["t"], r["i"]) for r in integral.log.of_kind("aaba_output") if r["k"] == 1
    ]
    assert min(commit_order_i) > min(decide_order_i)  # foil waits for the gap

    # the stability report separates the two modes on a longer run
    def stability(variant):
        cfg = SimConfig(
            params=SystemParams(4, 1),
            seed=5,
            num_instances=3,
            tx_load=40,
            rules=(DelayRule(body="Echo2", index=4, delay=40),),
            variant=variant,
        )
        return stability_report(tx_records(run_simulation(cfg)))

    rep_partial = stability("falcon")
    rep_integral = stability("integral_sort")
    assert rep_partial["distinct_commit_times"] > rep_integral["distinct_commit_times"]
    assert rep_partial["spread"] < rep_integral["spread"]
    assert rep_partial["p50"] < rep_integral["p50"]
    report(
        6,
        "low indices commit before the delayed agreement decides; "
        f"stability separates modes ({rep_partial['distinct_commit_times']} vs "
        f"{rep_integral['distinct_commit_times']} commit times)",
    )


# -- criterion 7 -------------------------------------------------------------------------


def test_criterion_7_trigger_behavior():
    for n, f in ((4, 1), (7, 2)):
        cfg = SimConfig(params=SystemParams(n, f), seed=7, num_instances=4, tx_load=4)
        res = run_simulation(cfg)
        assert res.log.of_kind("trigger") == []
        assert observe_invariants(res) == []
        assert check_liveness(res, min_checked=1) == []
    skew = SimConfig(
        params=SystemParams(4, 1),
        seed=7,
        num_instances=4,
        tx_load=4,
        rules=(DelayRule(sender=1, body="Propose", acsq_id=1, delay=20),),
    )
    res = run_simulation(skew)
    assert res.log.of_kind("trigger"), "skewed broadcast must fire the trigger"
    assert observe_invariants(res) == []
    assert check_liveness(res, min_checked=1) == []
    report(7, "favorable runs never trigger; the skewed run triggers and stays safe")


# -- criterion 8 ----------------------------------------------------------------------------


def test_criterion_8_determinism():
    cfg = SimConfig(
        params=SystemParams(7, 2),
        seed=8,
        mode="random",
        num_instances=3,
        tx_load=4,
        faults=(FaultSpec(7, "equivocate"), FaultSpec(6, "wrong_aaba_bit")),
        rules=(DelayRule(recipient=2, delay=3),),
    )
    first = run_simulation(cfg)
    second = run_simulation(cfg)
    assert first.log.to_lines() == second.log.to_lines()
    assert stages_csv(decompose_latency(first)) == stages_csv(decompose_latency(second))
    assert txs_csv(tx_records(first), decompose_latency(first)) == txs_csv(
        tx_records(second), decompose_latency(second)
    )
    report(8, "re-runs reproduce the event log and metrics CSVs byte for byte")


# -- criterion 9 -----------------------------------------------------------------------------


def run_mutated(monkeypatch, break_gate, config):
    """Run `config` with one gate removed, then put the library back."""
    with monkeypatch.context() as patch:
        break_gate(patch)
        return run_simulation(config)


def test_criterion_9_mutation_sanity(monkeypatch):
    # removing the grade-1 gate on second-round echoes breaks delivery correlation
    gate_cfg = SimConfig(
        params=SystemParams(4, 1), seed=9, num_instances=1, tx_load=2,
        rules=(DelayRule(body="Echo1", delay=8),),
    )
    mutated = run_mutated(monkeypatch, break_echo2_gate, gate_cfg)
    found = {v["check"] for v in observe_invariants(mutated)}
    assert "delivery_correlation" in found
    assert observe_invariants(run_simulation(gate_cfg)) == []

    # removing the one-input validity check lets a forged certificate through
    q_cfg = SimConfig(
        params=SystemParams(4, 1), seed=2, num_instances=2, tx_load=2,
        faults=(FaultSpec(4, "wrong_aaba_bit"),),
        rules=(
            DelayRule(sender=4, body="Propose", delay=25),
            DelayRule(sender=1, body="Amp", delay=3),
            DelayRule(sender=2, body="Amp", delay=3),
        ),
    )
    mutated = run_mutated(monkeypatch, break_q_check, q_cfg)
    found = {v["check"] for v in observe_invariants(mutated)}
    assert found & {"aaba_1_validity", "totality"}
    assert observe_invariants(run_simulation(q_cfg)) == []

    # removing the sorter's instance gate interleaves instances differently
    # at differently-paced nodes and breaks chain safety
    sort_cfg = SimConfig(
        params=SystemParams(4, 1), seed=3, num_instances=2, tx_load=2,
        rules=(
            DelayRule(body="Echo2", acsq_id=1, index=4, delay=40),
            DelayRule(recipient=2, body="Echo2", acsq_id=2, delay=10),
        ),
    )
    mutated = run_mutated(monkeypatch, break_sort_gate, sort_cfg)
    assert unsorted_prefixes(mutated.log) == []
    found = {v["check"] for v in observe_invariants(mutated)}
    assert "chain_safety" in found
    assert observe_invariants(run_simulation(sort_cfg)) == []
    report(9, "each removed gate is caught by the invariant checks it protects")
