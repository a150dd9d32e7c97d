"""Detector sanity: each invariant check fires on targeted corruption."""

from falcon_bft.core_types import SystemParams
from falcon_bft.observer import (
    check_chain_safety,
    check_liveness,
    check_totality,
    observe_invariants,
)
from falcon_bft.simnet import DelayRule, FaultSpec, SimConfig, run_simulation

from support import break_echo2_gate, break_q_check, break_sort_gate


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
    res.nodes[2].chain.slots[1] = res.nodes[2].chain.slots[0]
    found = check_chain_safety(res)
    assert found and all(v["check"] == "chain_safety" for v in found)


def test_forged_decide_record_detected():
    res = run_simulation(favorable())
    res.log.append({"kind": "decide", "t": 99, "node": 1, "k": 1, "j": 2,
                    "outcome": "exclude", "source": "aaba"})
    report = observe_invariants(res)
    assert any(v["check"] == "decide_once" for v in report)
    assert any(v["check"] == "acs_agreement" for v in report)


def test_missing_return_detected():
    res = run_simulation(favorable())
    res.log.records = [
        r
        for r in res.log.records
        if not (r["kind"] == "instance_return" and r["node"] == 3 and r["k"] == 2)
    ]
    assert any(v["check"] == "totality" for v in check_totality(res))


def test_dropped_commit_breaks_liveness():
    res = run_simulation(favorable(num_instances=4))
    assert check_liveness(res, min_checked=1) == []
    res.log.records = [
        r for r in res.log.records if not (r["kind"] == "commit" and r["node"] == 2)
    ]
    found = check_liveness(res)
    assert found and all(v["check"] == "liveness" for v in found)


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
    assert any(v["check"] == "chain_safety" for v in observe_invariants(res))
    # identical scenario with the gate intact is clean
    clean = run_simulation(cfg)
    assert observe_invariants(clean) == []
