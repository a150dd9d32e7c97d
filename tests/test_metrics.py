import copy

import pytest

from falcon_bft.core_types import SystemParams
from falcon_bft.metrics import (
    InsufficientData,
    decompose_latency,
    stability_report,
    stages_csv,
    tx_records,
    txs_csv,
)
from falcon_bft.simnet import DelayRule, EventLog, SimConfig, run_simulation


def run(seed=1, instances=2, tx_load=4, **kwargs):
    cfg = SimConfig(
        params=SystemParams(4, 1), seed=seed, num_instances=instances,
        tx_load=tx_load, **kwargs
    )
    return run_simulation(cfg)


def test_gbc_decided_blocks_have_zero_agreement_time():
    rows = decompose_latency(run())
    assert rows
    assert all(r.agreement == 0 for r in rows)
    assert all(r.broadcast == 3 for r in rows if r.k <= 2)


def test_stage_partition_sums_to_total():
    res = run(
        seed=3,
        rules=(DelayRule(body="Echo2", acsq_id=1, index=4, proto="gbc", delay=40),),
    )
    activate = {
        (r["node"], r["k"]): r["t"] for r in res.log.of_kind("activate")
    }
    commit = {
        (r["node"], r["k"], r["j"]): r["t"] for r in res.log.of_kind("commit")
    }
    rows = decompose_latency(res)
    agreement_blocks = [r for r in rows if r.agreement > 0]
    assert agreement_blocks, "scenario should force an agreement-decided block"
    for r in rows:
        assert r.total == commit[(r.node, r.k, r.j)] - activate[(r.node, r.k)]
        assert r.broadcast >= 0 and r.agreement >= 0 and r.sorting >= 0


def test_blocks_above_a_gap_accrue_sorting_time():
    res = run(
        seed=3,
        rules=(DelayRule(body="Echo2", acsq_id=1, index=2, proto="gbc", delay=40),),
    )
    rows = {(r.node, r.k, r.j): r for r in decompose_latency(res)}
    # indices above the delayed one wait for its decision before committing
    assert rows[(1, 1, 3)].sorting > 0
    assert rows[(1, 1, 1)].sorting == 0


def test_tx_records_submit_commit_consistency():
    res = run(instances=3)
    txs = tx_records(res)
    assert txs
    for rec in txs:
        assert rec.commit >= rec.submit
        assert rec.latency == rec.commit - rec.submit


def test_stability_report_insufficient_data():
    res = run(instances=1, tx_load=2)
    with pytest.raises(InsufficientData):
        stability_report(tx_records(res))


def test_stability_report_shape():
    res = run(instances=3, tx_load=40)
    report = stability_report(tx_records(res))
    assert report["count"] >= 100
    assert report["min"] <= report["p50"] <= report["p90"] <= report["max"]
    assert report["spread"] == report["max"] - report["min"]
    assert isinstance(report["continuous"], bool)


def test_favorable_runs_commit_continuously():
    res = run(instances=6, tx_load=20)
    report = stability_report(tx_records(res))
    assert report["continuous"]
    assert report["distinct_commit_times"] >= 6
    assert report["spread"] <= 3


def test_csv_outputs_are_schema_stable():
    res = run()
    stage_lines = stages_csv(decompose_latency(res)).splitlines()
    data_lines = [l for l in stage_lines if not l.startswith("#")]
    assert data_lines[0] == "node,instance,index,broadcast,agreement,sorting,total"
    assert stage_lines[0].startswith("#")  # stage definitions ride in the header
    tx_lines = txs_csv(tx_records(res), decompose_latency(res)).splitlines()
    assert tx_lines[0].startswith("node,txid,submit,commit,latency")
    again = stages_csv(decompose_latency(run()))
    assert "\n".join(stage_lines) + "\n" == again


def _on_a_new_log(res):
    """(decompose_latency, tx_records) over a new log of the same written records,
    whose by-kind index is built from nothing."""
    log = EventLog()
    log.written = list(res.log.written)
    fresh = copy.copy(res)
    fresh.log = log
    return decompose_latency(fresh), tx_records(fresh)


def test_post_run_tables_follow_every_change_to_the_log():
    """Both tables equal those of a new log of the same records after each
    change: a new list without a record, a new list of the same length with
    a record changed, and an append.  Each call hands out lists of its own."""
    # index 4 of instance 1 is decided by agreement, so its stages differ
    res = run(seed=3, rules=(DelayRule(body="Echo2", acsq_id=1, index=4, proto="gbc", delay=40),))
    log = res.log
    stages, txs = decompose_latency(res), tx_records(res)
    assert (stages, txs) == _on_a_new_log(res)
    # each call hands out a list of its own
    decompose_latency(res).clear()
    tx_records(res).clear()
    assert (decompose_latency(res), tx_records(res)) == (stages, txs)
    # a new written list without one of node 1's commits
    commit = next(r for r in log.written if r["kind"] == "commit" and r["node"] == 1)
    log.written = [r for r in log.written if r is not commit]
    dropped = (decompose_latency(res), tx_records(res))
    assert dropped != (stages, txs) and dropped == _on_a_new_log(res)
    # a new list of the same length, with node 2 activating instance 1 a tick earlier
    activate = next(
        r for r in log.written if r["kind"] == "activate" and (r["node"], r["k"]) == (2, 1)
    )
    log.written = [dict(r, t=r["t"] - 1) if r is activate else r for r in log.written]
    shifted = (decompose_latency(res), tx_records(res))
    assert shifted != dropped and shifted == _on_a_new_log(res)
    # the commit appended back
    log.append(dict(commit))
    appended = (decompose_latency(res), tx_records(res))
    assert appended != shifted and appended == _on_a_new_log(res)
