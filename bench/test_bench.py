"""Checks on the benchmark's tracer and workloads; run with `python3 -m pytest bench`."""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import pytest

import layers
import run
import workloads

run.import_package()


# these config functions import at call time: set-up timing re-imports the package, and
# configs must come from the modules the tracer wraps
def favorable_4():
    from falcon_bft.core_types import SystemParams
    from falcon_bft.simnet import SimConfig

    return SimConfig(params=SystemParams(4, 1), seed=3, mode="lockstep", num_instances=3, tx_load=4)


def byzantine_7():
    from falcon_bft.core_types import SystemParams
    from falcon_bft.simnet import DelayRule, FaultSpec, SimConfig

    return SimConfig(
        params=SystemParams(7, 2),
        seed=5,
        mode="random",
        delay_min=1,
        delay_max=5,
        faults=(FaultSpec(7, "crash", at_time=0), FaultSpec(6, "wrong_aaba_bit")),
        rules=(DelayRule(body="Echo2", index=2, delay=8), DelayRule(recipient=3, delay=3)),
        num_instances=4,
        tx_load=4,
    )


def traced_pass(configs):
    with layers.Tracer() as tracer:
        t0 = time.perf_counter()
        runs = run.run_pass(configs, tracer)
        elapsed = time.perf_counter() - t0
    return tracer, runs, elapsed


@pytest.fixture(scope="module")
def traced():
    configs = [favorable_4(), byzantine_7()]
    ref = run.run_pass(configs)
    tracer, runs, elapsed = traced_pass(configs)
    return configs, ref, tracer, runs, elapsed


def test_spans_nest(traced):
    _, _, tracer, _, _ = traced
    spans = tracer.span_records()
    assert spans
    last_child_end = {}
    for i, (name, start, end, parent) in enumerate(spans):
        assert start <= end, name
        if parent < 0:
            assert name == layers.ROOT_SPAN
            continue
        assert parent < i
        _, p_start, p_end, _ = spans[parent]
        assert p_start <= start and end <= p_end, (name, spans[parent][0])
        # siblings are recorded in call order and never overlap
        assert start >= last_child_end.get(parent, p_start)
        last_child_end[parent] = end


def test_self_times_sum_to_traced_wall(traced):
    _, _, tracer, _, elapsed = traced
    summary = tracer.summary()
    total_self = sum(summary["self_s"].values())
    roots = sum(e - s for _, s, e, p in tracer.span_records() if p < 0) / 1e9
    assert total_self == pytest.approx(roots, abs=1e-6)
    assert total_self <= elapsed
    assert total_self == pytest.approx(elapsed, rel=0.05, abs=0.002)
    # every recorded span belongs to a reported layer
    assert {layers.layer_of(n) for n in tracer.names} <= set(layers.LAYERS)


def test_wrappers_keep_logs_and_are_restored(traced):
    configs, ref, _, runs, _ = traced
    assert [r.digest for r in runs] == [r.digest for r in ref]
    assert not any(r.failed for r in ref + runs)
    for _, module_name, class_name, attr in layers.TARGETS:
        owner = sys.modules[module_name]
        if class_name:
            owner = getattr(owner, class_name)
        assert not hasattr(owner.__dict__[attr], "__wrapped__"), (module_name, class_name, attr)
    # a second traced pass after restore records the same spans again
    again, _, _ = traced_pass(configs)
    assert Counter(again.names[n] for n in again.sp_name) == Counter(
        traced[2].names[n] for n in traced[2].sp_name
    )


def _log_counts(config):
    from falcon_bft import simnet

    records = simnet.schedule(config).run().log.records
    kinds = Counter(r["kind"] for r in records)
    return records, kinds


@pytest.mark.parametrize("make", [favorable_4, byzantine_7])
def test_layer_counts_match_event_log(make):
    config = make()
    records, kinds = _log_counts(config)
    tracer, runs, _ = traced_pass([config])
    summary = tracer.summary()
    values = run.layer_metrics(tracer, summary, run.envelope_bytes(tracer.delivered))
    crashed_drops = sum(1 for r in records if r["kind"] == "drop" and r["reason"] == "crashed")

    assert values["simnet.deliveries"] == kinds["send"] - crashed_drops == runs[0].deliveries
    assert values["node.handle_calls"] == values["simnet.deliveries"]
    assert values["eventlog.records"] == len(records)
    assert values["eventlog.send_share"] == kinds["send"] / len(records)
    assert values["node.held"] == kinds["held"]
    assert values["acsq.assist_adopts"] == kinds["da_adopt"]
    outputs = Counter(r["source"] for r in records if r["kind"] == "aaba_output")
    for source in ("shortcut", "stop", "aba"):
        assert values[f"aaba.out_{source}"] == outputs[source]
    assert values["observer.of_kind_calls"] > 0
    assert 0 < values["sorter.useful_share"] <= 1
    assert values["gbc.bytes"] > 0

    if config.mode == "lockstep":
        echo_sends = sum(1 for r in records if r["kind"] == "send" and r["body"] in ("Echo1", "Echo2"))
        assert values["crypto.partial_sign_calls"] * config.params.n == echo_sends
        grade2 = sum(1 for r in records if r["kind"] == "gbc_deliver" and r["grade"] == 2)
        assert values["gbc.grade2_deliveries"] == grade2
        assert values["aaba.handle_calls"] == values["aba.calls"] == values["aaba.bytes"] == 0
    else:
        assert values["aaba.handle_calls"] > 0 and values["aaba.bytes"] > 0
        assert values["simnet.rule_match_calls"] > 0


def test_workloads_use_only_the_kept_surface():
    kept_kinds = {"crash", "equivocate", "silent", "wrong_aaba_bit"}
    for name, make in workloads.WORKLOADS.items():
        configs = make(7)
        assert configs == make(7), name  # same seed, same inputs
        for config in configs:
            config.validate()
            assert config.mode in ("lockstep", "random"), name
            assert {fs.kind for fs in config.faults} <= kept_kinds, name
            # getattr: these are the knobs the simplification work may delete
            assert all(getattr(fs, "rules", ()) == () for fs in config.faults), name
            flags = ("disable_echo2_gate", "disable_q_check", "disable_sort_gate")
            assert not any(getattr(config, flag, False) for flag in flags), name
    fuzz = workloads.fuzz_mix(0)
    assert [c.params.n for c in fuzz[:4]] == [4, 7, 4, 7]
    assert [c.seed for c in fuzz] == list(range(workloads.FUZZ_BATCH))
    for config in fuzz:
        top = set(range(config.params.n - config.params.f + 1, config.params.n + 1))
        assert {fs.node for fs in config.faults} == top


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "tiny", lambda seed: [favorable_4(), byzantine_7()])
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "SPAN_DIR", tmp_path)
    saved = {m: sys.modules[m] for m in sys.modules if m.startswith("falcon_bft")}
    yield tmp_path
    # set-up timing re-imports the package; hand the original modules back
    for m in [m for m in sys.modules if m.startswith("falcon_bft")]:
        del sys.modules[m]
    sys.modules.update(saved)


def _main_result(capsys, trace):
    argv = ["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def test_main_prints_every_end_to_end_metric(tiny_workload, capsys):
    code, result = _main_result(capsys, 0)
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 4  # one timed, one traced pass
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_main_prints_every_per_layer_metric(tiny_workload, capsys):
    code, result = _main_result(capsys, 1)
    assert code == 0 and result["correct"] is True
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert (tiny_workload / "spans-tiny.tsv").read_text().startswith("name\tstart_ns")
