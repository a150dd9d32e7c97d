"""Detector sanity: each invariant check fires on targeted corruption."""

import ast
import hashlib
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from falcon_bft import observer
from falcon_bft.core_types import SystemParams
from falcon_bft.observer import (
    check_acs_blocks_match,
    check_chain_safety,
    check_delivery_correlation,
    check_liveness,
    check_receipt_correlation,
    check_totality,
    observe_invariants,
)
from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import DelayRule, FaultSpec, SimConfig, run_simulation

from support import (
    break_echo2_gate,
    break_q_check,
    break_sort_gate,
    drop_buffer_on_exclusion,
    load_bench_module,
    unsorted_prefixes,
)


def favorable(seed=1, **kwargs):
    kwargs.setdefault("tx_load", 4)
    kwargs.setdefault("num_instances", 2)
    return SimConfig(params=SystemParams(4, 1), seed=seed, **kwargs)


def test_clean_run_empty_report():
    res = run_simulation(favorable())
    assert observe_invariants(res) == []
    assert check_liveness(res) == []


def test_corrupted_chain_detected():
    res = run_simulation(favorable())
    res.nodes[2].chain[1] = res.nodes[2].chain[0]
    found = check_chain_safety(res)
    assert found and all(v["check"] == "chain_safety" for v in found)


def test_forged_decide_record_detected():
    res = run_simulation(favorable())
    res.log.append({"kind": "decide", "t": 99, "node": 1, "k": 1, "j": 2,
                    "outcome": "exclude", "source": "aaba"})
    report = observe_invariants(res)
    assert any(v["check"] == "decide_once" for v in report)
    assert any(v["check"] == "acs_agreement" for v in report)


def test_node_contradicting_itself_breaks_gbc_consistency():
    res = run_simulation(favorable())
    grade1 = next(
        r for r in res.log.of_kind("gbc_deliver") if (r["node"], r["j"], r["grade"]) == (1, 2, 1)
    )
    grade1["digest"] = "b" * 64  # node 1's grade-2 record and every other node keep theirs
    found = check_acs_blocks_match(res)
    assert [(v["check"], v["k"], v["j"]) for v in found] == [("gbc_consistency", grade1["k"], 2)]


def test_missing_return_detected():
    res = run_simulation(favorable())
    res.log.written = [
        r
        for r in res.log.written
        if not (r["kind"] == "instance_return" and r["node"] == 3 and r["k"] == 2)
    ]
    assert any(v["check"] == "totality" for v in check_totality(res))


def test_dropped_commit_breaks_liveness():
    res = run_simulation(favorable(num_instances=4))
    assert check_liveness(res, min_checked=1) == []
    res.log.written = [
        r for r in res.log.written if not (r["kind"] == "commit" and r["node"] == 2)
    ]
    found = check_liveness(res)
    assert found and all(v["check"] == "liveness" for v in found)


def test_buffer_dropped_on_exclusion_breaks_tx_conservation(monkeypatch):
    cfg = favorable(num_instances=4, faults=(FaultSpec(4, "crash", at_time=0),))
    assert observe_invariants(run_simulation(cfg)) == []
    drop_buffer_on_exclusion(monkeypatch)
    res = run_simulation(cfg)
    # the liveness bound covers some of this run's txs and misses the loss
    assert check_liveness(res, min_checked=1) == []
    found = observe_invariants(res)
    assert found and all(v["check"] == "tx_conservation" for v in found)


def test_echo2_gate_mutation_breaks_delivery_correlation(monkeypatch):
    cfg = favorable(
        num_instances=1,
        rules=(DelayRule(body="Echo1", delay=8),),
    )
    break_echo2_gate(monkeypatch)
    res = run_simulation(cfg)
    report = observe_invariants(res)
    assert any(v["check"] == "delivery_correlation" for v in report)


def test_q_check_mutation_breaks_one_validity(monkeypatch):
    cfg = favorable(
        seed=2,
        faults=(FaultSpec(4, "wrong_aaba_bit"),),
        rules=(
            DelayRule(sender=4, body="Propose", delay=25),
            DelayRule(sender=1, body="Amp", delay=3),
            DelayRule(sender=2, body="Amp", delay=3),
        ),
    )
    break_q_check(monkeypatch)
    res = run_simulation(cfg)
    checks = {v["check"] for v in observe_invariants(res)}
    assert "aaba_1_validity" in checks or "totality" in checks


def test_sort_gate_mutation_breaks_chain_safety(monkeypatch):
    rules = (
        DelayRule(body="Echo2", acsq_id=1, index=4, proto="gbc", delay=40),
        DelayRule(recipient=2, body="Echo2", acsq_id=2, delay=10),
    )
    cfg = favorable(seed=3, rules=rules)
    with monkeypatch.context() as patch:
        break_sort_gate(patch)
        res = run_simulation(cfg)
    # the mutant still sorts each instance's own decided prefix, in order
    assert unsorted_prefixes(res.log) == []
    assert any(v["check"] == "chain_safety" for v in observe_invariants(res))
    # identical scenario with the gate intact is clean
    clean = run_simulation(cfg)
    assert observe_invariants(clean) == []


# -- pinned output on a corrupted corpus ------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
WORKLOADS = load_bench_module("workloads")

CHECK_NAMES = {
    "chain_safety", "acs_agreement", "gbc_consistency", "validity", "totality",
    "optimistic_validity", "trigger_inert", "delivery_correlation",
    "receipt_correlation", "aaba_agreement", "aaba_1_validity", "aaba_biased_validity",
    "decide_once", "commit_order", "exclusion_conflict", "tx_conservation", "liveness",
    "liveness_coverage",
}

# sha256 of the corpus report below, recorded in a separate process
CORPUS_PIN = "a74a7b8948795e87fa28d26270e53c48e20f3ab39f52d6d5182a0daf9575fbb4"


def _corpus_configs():
    for path in sorted(SCENARIOS.glob("*.ini")):
        yield load_scenario(path)
    for i in range(24):
        yield WORKLOADS.fuzz_config(i)


def _corrupt(res, seed):
    """A fixed, seeded corruption of a finished run's log and chains.

    A forged digest replaces every record one node holds for its (k, j),
    so each node stays consistent with itself while disagreeing with others.
    """
    rng = random.Random(seed)
    correct = res.config.correct_nodes()
    last_k = res.config.num_instances
    held = sorted(
        {(r["node"], r["k"], r["j"]) for r in res.log.written
         if r["kind"] in ("gbc_deliver", "da_adopt")}
    )
    forged = {key: "%064x" % rng.getrandbits(256) for key in held if rng.random() < 0.04}
    aaba_keys = sorted({(r["k"], r["j"]) for r in res.log.of_kind("aaba_input")})
    uncertified = {key for key in aaba_keys if rng.random() < 0.2}
    uncommitted = None
    if rng.random() < 0.3:
        uncommitted = (rng.choice(correct), rng.randrange(1, last_k + 1))
    outputs = res.log.of_kind("aaba_output")
    zeroed = rng.choice(outputs) if outputs and rng.random() < 0.5 else None
    out = []
    for rec in res.log.written:
        kind = rec["kind"]
        if kind in ("gbc_deliver", "da_adopt"):
            rec["digest"] = forged.get((rec["node"], rec["k"], rec["j"]), rec["digest"])
        elif kind == "decide":
            if rng.random() < 0.04:
                rec["outcome"] = "exclude" if rec["outcome"] == "include" else "include"
            if rng.random() < 0.03:
                out.append(dict(rec))
        elif kind == "aaba_output":
            rec["bit"] = 0 if rec is zeroed else rec["bit"] ^ (rng.random() < 0.1)
        elif kind == "aaba_input":
            if (rec["k"], rec["j"]) in uncertified:
                rec["q_valid"] = False
            elif rng.random() < 0.1:
                rec["bit"] ^= 1
        elif kind == "instance_return":
            if rng.random() < 0.05:
                continue
            if rng.random() < 0.1:
                rec["acs_size"] -= 1 + rng.randrange(2)
        elif kind == "commit" and (rec["node"], rec["k"]) == uncommitted:
            continue
        out.append(rec)
    commits = [idx for idx, rec in enumerate(out) if rec["kind"] == "commit"]
    if len(commits) > 1 and rng.random() < 0.5:
        a, b = sorted(rng.sample(commits, 2))
        out[a], out[b] = out[b], out[a]
    res.log.written = out
    for kind in ("late_grade2_after_exclusion", "trigger", "agreement_enter"):
        if rng.random() < 0.5:
            res.log.append({"kind": kind, "t": rng.randrange(1, 50), "node": rng.choice(correct),
                            "k": rng.randrange(1, last_k + 1), "j": rng.choice(correct)})
    if rng.random() < 0.3:
        slots = res.nodes[rng.choice(correct)].chain
        if len(slots) > 1:
            slots[rng.randrange(1, len(slots))] = slots[0]
    return res


def _corpus_report():
    lines = []
    for seed, config in enumerate(_corpus_configs()):
        res = _corrupt(run_simulation(config), seed)
        report = observe_invariants(res) + check_liveness(res, min_checked=5)
        lines.extend(str(v) for v in report)
    return lines


def test_corrupted_corpus_report_pinned():
    lines = _corpus_report()
    assert {ast.literal_eval(line)["check"] for line in lines} == CHECK_NAMES
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CORPUS_PIN


# -- the correlation checks against a brute-force reference -----------------------------


def _correlation_reference(result, check, prior, records, key, what):
    """`observer._check_correlation` by definition: for each record, count the
    distinct nodes with a prior record on its key at a strictly earlier (t, i)."""
    need = result.config.params.small_quorum
    out = []
    for rec in records:
        order = (rec["t"], rec["i"])
        nodes = {p["node"] for p in prior if key(p) == key(rec) and (p["t"], p["i"]) < order}
        if len(nodes) < need:
            out.append({"check": check, "k": rec["k"], "j": rec["j"], "node": rec["node"],
                        "detail": f"only {len(nodes)} {what}"})
    return out


def _key(rec):
    return (rec["k"], rec["digest"])


@pytest.mark.parametrize("seed", range(200))
def test_check_correlation_matches_a_brute_force_reference_on_random_records(seed):
    """Priors out of time order, several per node and key, and ties in `t`."""
    rng = random.Random(seed)
    f = rng.randrange(1, 4)
    result = SimpleNamespace(config=SimpleNamespace(params=SystemParams(3 * f + 1, f)))
    records = [
        {"t": rng.randrange(6), "i": i, "node": rng.randrange(1, 3 * f + 2),
         "k": rng.randrange(1, 3), "j": 1, "digest": rng.choice("ab")}
        for i in rng.sample(range(1000), rng.randrange(1, 40))
    ]
    prior = [rec for rec in records if rng.random() < 0.7]
    checked = [rec for rec in records if rec not in prior or rng.random() < 0.1]
    args = (result, "c", prior, checked, _key, "priors")
    assert observer._check_correlation(*args) == _correlation_reference(*args)


@pytest.mark.parametrize("seed", range(len(list(_corpus_configs()))))
def test_correlation_checks_match_a_brute_force_reference_on_corrupted_runs(monkeypatch, seed):
    """Each corpus run, corrupted as the pinned corpus is, with a fifth of its
    deliveries and body receipts then moved to a random tick, so `t` runs
    backwards in the log."""
    res = _corrupt(run_simulation(list(_corpus_configs())[seed]), seed)
    rng = random.Random(seed)
    last = max(rec["t"] for rec in res.log.written)
    moved = [
        dict(rec, t=rng.randrange(last + 1))
        if rec["kind"] in ("gbc_deliver", "body_received") and rng.random() < 0.2 else rec
        for rec in res.log.written
    ]
    res.log.written = moved
    got = check_delivery_correlation(res) + check_receipt_correlation(res)
    monkeypatch.setattr(observer, "_check_correlation", _correlation_reference)
    assert got == check_delivery_correlation(res) + check_receipt_correlation(res)
