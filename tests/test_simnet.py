import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from falcon_bft.core_types import (
    Block,
    Bval,
    Echo1,
    Echo2,
    Envelope,
    InstanceAddr,
    Propose,
    Proto,
    Send,
    Sho2,
    Stop,
    SystemParams,
)
from falcon_bft.crypto import PartialSig
from falcon_bft.metrics import decompose_latency, tx_records
from falcon_bft.node import Node
from falcon_bft.observer import check_liveness, observe_invariants
from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import (
    DelayRule,
    EventLog,
    FaultSpec,
    InvalidConfig,
    QuiesceError,
    SimConfig,
    Simulation,
    _twin,
    run_simulation,
    schedule,
)

from support import crash_fuzz_config, load_bench_module

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def favorable(n=4, f=1, seed=1, instances=2, **kwargs):
    return SimConfig(
        params=SystemParams(n, f), seed=seed, num_instances=instances,
        tx_load=4, **kwargs
    )


def test_same_seed_identical_logs():
    a = run_simulation(favorable(seed=9)).log.to_lines()
    b = run_simulation(favorable(seed=9)).log.to_lines()
    assert a == b


def test_different_seeds_still_clean():
    logs = set()
    for seed in (1, 2, 3):
        res = run_simulation(favorable(seed=seed, mode="random", instances=2))
        assert observe_invariants(res) == []
        logs.add(res.log.to_lines())
    assert len(logs) == 3  # random mode actually varies with the seed


def send_records(log):
    """The log's in-memory `send` records, one per delivery, in log order."""
    return [r for r in log.records if r["kind"] == "send"]


def crashed_drops(log):
    """The log's in-memory `crashed` drop records, one per delivery a crashed
    node refused, in log order, read as the benchmark reads them."""
    return [r for r in log.records if r["kind"] == "drop" and r["reason"] == "crashed"]


def test_lockstep_hop_semantics():
    res = run_simulation(favorable())
    # every proposal sent at hop 0 is received (echoed) at hop 1
    sends = [r for r in send_records(res.log) if r["body"] == "Propose" and r["k"] == 1]
    assert {r["t"] for r in sends} == {0}
    echo_sends = [r for r in send_records(res.log) if r["body"] == "Echo1" and r["k"] == 1]
    assert {r["t"] for r in echo_sends} == {1}


@pytest.mark.parametrize("at_time", [0, 5])
def test_crashed_node_is_silent_and_unreachable(at_time):
    """From its crash tick on, node 4 writes no line and takes no injected
    tx.  Its one in-memory `crashed` drop record is listed once per envelope
    delivered to it, and its `drops` summary record counts them."""
    cfg = favorable(instances=3, faults=(FaultSpec(4, "crash", at_time=at_time),))
    res = run_simulation(cfg)
    log = res.log
    sent_at = [r["t"] for r in send_records(log) if r["node"] == 4]
    assert all(t < at_time for t in sent_at)
    assert bool(sent_at) == (at_time > 0)  # a late crash cuts off a live node
    assert all(r["t"] < at_time for r in log.written if r["node"] == 4)
    after = crashed_drops(log)
    assert after and all(r is res.nodes[4].drop for r in after)
    assert after[0] == {"kind": "drop", "reason": "crashed", "node": 4}
    # lockstep: an envelope sent at tick t is delivered at t + 1; each
    # envelope sent to node 4 or broadcast has one send record and reaches
    # node 4 once
    delivered = {id(r) for r in send_records(log)
                 if r["to"] in (4, None) and r["t"] + 1 >= at_time}
    [summary] = log.of_kind("drops")
    assert summary == {"kind": "drops", "t": log.time, "node": 0, "recipient": 4,
                       "reason": "crashed", "count": len(delivered), "i": len(log.written) - 1}
    assert len(after) == len(delivered)
    late_txids = {r["txid"] for r in log.of_kind("inject") if r["t"] >= at_time}
    assert late_txids and late_txids.isdisjoint(txid.hex() for txid in res.nodes[4].buffer)
    assert observe_invariants(res) == []


def test_delay_rules_applied():
    rule = DelayRule(recipient=2, body="Propose", acsq_id=1, delay=7)
    res = run_simulation(favorable(instances=1, rules=(rule,)))
    got = [
        r
        for r in res.log.of_kind("body_received")
        if r["node"] == 2 and r["k"] == 1 and r["via"] == "gbc"
    ]
    assert got and all(r["t"] == 8 for r in got)  # 1 hop + 7 extra


@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 3), (1, 5), (2, 7), (1, 8), (1, 9)])
def test_random_delay_draws_are_randint(lo, hi):
    """Each random-mode delay is the next `randint(delay_min, delay_max)` of
    the run's seeded stream, drawn in recipient id order; at width 1 a draw
    still consumes one bit.  The delays are read as each recipient's tick
    in `_delivery_groups`, 10 000 per seed."""
    env = Envelope(1, None, InstanceAddr(1, Proto.GBC, 1), Echo1(PartialSig(1, b"t", b"m")))
    for seed in range(10):
        sim = Simulation(favorable(seed=seed, mode="random", delay_min=lo, delay_max=hi))
        reference = random.Random(seed)
        draws = []
        for now in range(10_000 // len(sim._ids)):
            sim.log.time = now
            ticks = {to: t for t, group in sim._delivery_groups(env, sim._ids) for to in group}
            draws.extend(ticks[to] - now for to in sim._ids)
        assert draws == [reference.randint(lo, hi) for _ in range(10_000)]
        assert sim.rng.getstate() == reference.getstate()


def _old_delay_for(config, rng, env):
    """The per-envelope delay of a run that gave each recipient its own
    envelope: a base delay, then the first rule in file order whose every
    field, recipient included, matches."""
    base = rng.randint(config.delay_min, config.delay_max) if config.mode == "random" else 1
    fields = {
        "sender": env.sender,
        "recipient": env.recipient,
        "body": type(env.body).__name__,
        "acsq_id": env.addr.acsq_id,
        "proto": env.addr.proto.name.lower(),
        "index": env.addr.index,
    }
    for rule in config.rules:
        if all(getattr(rule, name) in (None, value) for name, value in fields.items()):
            return base + rule.delay
    return base


def _random_rules(rng, n):
    """Recipient-only rules mixed with rules on the other fields, some of
    those naming a recipient too; delays of 0-4 ticks, so one envelope's
    recipients both share and split delivery ticks."""
    rules = []
    for _ in range(rng.randint(2, 6)):
        fields = {}
        if rng.random() < 0.5:
            fields["recipient"] = rng.randint(1, n)
        for name, domain in (
            ("body", ("Propose", "Echo1", "Echo2", "Sho2", "Stop", "Bval")),
            ("index", range(1, n + 1)),
            ("acsq_id", (1, 2)),
            ("sender", range(1, n + 1)),
            ("proto", ("gbc", "aaba")),
        ):
            if rng.random() < 0.3:
                fields[name] = rng.choice(domain)
        rules.append(DelayRule(**fields, delay=rng.randint(0, 4)))
    recipient_only = DelayRule(recipient=rng.randint(1, n), delay=rng.randint(1, 4))
    rules.insert(rng.randint(0, len(rules)), recipient_only)
    return tuple(rules)


def _random_envelope(rng, n):
    sender, k, j = rng.randint(1, n), rng.randint(1, 2), rng.randint(1, n)
    body = rng.choice(
        (
            Propose(Block(j, k, ())),
            Echo1(PartialSig(sender, b"t", b"m")),
            Echo2(PartialSig(sender, b"t", b"m")),
            Sho2(1),
            Stop(),
            Bval(1, 0),
        )
    )
    proto = Proto.GBC if isinstance(body, (Propose, Echo1, Echo2)) else Proto.AABA
    recipient = None if rng.random() < 0.7 else rng.randint(1, n)
    return Envelope(sender, recipient, InstanceAddr(k, proto, j), body)


def _check_dispatch_ticks(config, envelopes):
    """Dispatch each envelope alone at ticks 0, 1, ... and compare the
    ticks it is queued at with those of one envelope per recipient."""
    sim = Simulation(config)
    reference = random.Random(config.seed)
    n = config.params.n
    for now, env in enumerate(envelopes):
        sim.log.time = now
        sim._queue.clear()
        sim._dispatch([env])
        got = {}
        for t, entries in sim._queue.items():
            assert [e for e, _ in entries] == [env]  # one entry per delivery tick
            [(_, group)] = entries
            assert list(group) == sorted(group)
            got.update((to, t) for to in group)
        recipients = range(1, n + 1) if env.recipient is None else (env.recipient,)
        unicasts = [Envelope(env.sender, to, env.addr, env.body) for to in recipients]
        want = {u.recipient: now + _old_delay_for(config, reference, u) for u in unicasts}
        assert got == want, (now, env)
    assert sim.rng.getstate() == reference.getstate()
    return sim


@pytest.mark.parametrize("mode", ["random", "lockstep"])
@pytest.mark.parametrize("seed", range(10))
def test_dispatch_ticks_match_per_recipient_envelopes(mode, seed):
    """The ticks `_dispatch` queues a broadcast's recipients at, each rule
    matched once per envelope, equal those of one envelope per recipient
    with every rule matched in full: the first matching rule in file order
    still wins for each recipient, and random base delays are drawn in
    recipient id order from the same stream."""
    rng = random.Random(seed)
    n = rng.choice((4, 7))
    config = SimConfig(
        params=SystemParams(n, (n - 1) // 3), seed=seed, mode=mode, delay_min=1,
        delay_max=5, num_instances=1, rules=_random_rules(rng, n),
    )
    _check_dispatch_ticks(config, [_random_envelope(rng, n) for _ in range(300)])


# rules the random ones may miss: matching rules of delay 0, which still
# shadow every later rule; one rule set that every envelope matches, so one
# table of delays serves them all; a rule naming no recipient ahead of
# rules naming one, which then never apply to what it matches
FIXED_RULES = {
    "delay_0": (
        DelayRule(body="Echo1", delay=0), DelayRule(recipient=2, delay=0), DelayRule(delay=3),
    ),
    "one_rule_set": (DelayRule(recipient=3, delay=2),),
    "wildcard_first": (
        DelayRule(body="Propose", delay=4), DelayRule(recipient=2, body="Propose", delay=1),
        DelayRule(recipient=2, delay=2), DelayRule(sender=1, recipient=4, delay=1),
    ),
}


@pytest.mark.parametrize("mode", ["random", "lockstep"])
@pytest.mark.parametrize("case", sorted(FIXED_RULES))
def test_dispatch_ticks_match_per_recipient_envelopes_under_fixed_rules(mode, case):
    rng = random.Random(case)
    config = SimConfig(
        params=SystemParams(4, 1), seed=5, mode=mode, delay_min=1, delay_max=5,
        num_instances=1, rules=FIXED_RULES[case],
    )
    sim = _check_dispatch_ticks(config, [_random_envelope(rng, 4) for _ in range(300)])
    if case == "one_rule_set":
        assert len(sim._delays) == 1


def test_equivocator_wrap_splits_only_its_proposal():
    """The Propose broadcast becomes n unicasts in id order, the block to
    the equivocator's own parity and its twin to the other; every other
    send keeps its one envelope."""
    n = 7
    sim = Simulation(favorable(n=n, f=2, faults=(FaultSpec(2, "equivocate"),)))
    node = sim.nodes[2]
    block = Block(2, 1, ())
    gbc, aaba = InstanceAddr(1, Proto.GBC, 2), InstanceAddr(1, Proto.AABA, 3)
    sends = [Send(aaba, Stop()), Send(gbc, Propose(block)), Send(aaba, Sho2(1), to=5)]
    out = node._wrap(sends)
    twin = Propose(_twin(block))
    assert twin.block.digest != block.digest
    assert out == (
        [Envelope(2, None, aaba, Stop())]
        + [Envelope(2, r, gbc, Propose(block) if r % 2 == 0 else twin) for r in range(1, n + 1)]
        + [Envelope(2, 5, aaba, Sho2(1))]
    )


def test_config_validation():
    for mode in ("warp", "adversarial"):
        with pytest.raises(InvalidConfig):
            SimConfig(params=SystemParams(4, 1), mode=mode).validate()
    for variant in ("Integral_sort", "integral", ""):
        with pytest.raises(InvalidConfig):
            SimConfig(params=SystemParams(4, 1), variant=variant).validate()
    # mistyped delay rules would otherwise match nothing and be ignored
    for rule in (
        DelayRule(proto="GBC", delay=5),
        DelayRule(body="Echo3", delay=5),
        DelayRule(body="echo1", delay=5),
    ):
        with pytest.raises(InvalidConfig):
            SimConfig(params=SystemParams(4, 1), rules=(rule,)).validate()
    # so would a node, index or instance outside the run: ids 1..n, instances
    # 1..num_instances + 1 (the extra instance that fires the last trigger)
    for field, top in (("sender", 4), ("recipient", 4), ("index", 4), ("acsq_id", 3)):
        for value in (0, 1, top, top + 1):
            rule = DelayRule(**{field: value}, delay=5)
            config = SimConfig(params=SystemParams(4, 1), num_instances=2, rules=(rule,))
            if 1 <= value <= top:
                config.validate()
            else:
                with pytest.raises(InvalidConfig):
                    config.validate()
    with pytest.raises(InvalidConfig):
        SimConfig(
            params=SystemParams(4, 1),
            faults=(FaultSpec(1, "crash"), FaultSpec(2, "crash")),
        ).validate()
    with pytest.raises(InvalidConfig):
        SimConfig(params=SystemParams(4, 1), faults=(FaultSpec(9, "silent"),)).validate()
    with pytest.raises(InvalidConfig):
        SimConfig(params=SystemParams(4, 1), faults=(FaultSpec(1, "gremlin"),)).validate()
    # a negative load used to crash mid-run, at_time on a non-crash fault
    # was silently ignored, and a negative crash tick ran as a crash at 0
    for bad in (
        {"tx_load": -1},
        {"faults": (FaultSpec(2, "silent", at_time=5),)},
        {"faults": (FaultSpec(4, "crash", at_time=-5),)},
    ):
        with pytest.raises(InvalidConfig):
            SimConfig(params=SystemParams(4, 1), **bad).validate()


def test_run_past_max_events_names_each_node_and_pending_index(monkeypatch):
    monkeypatch.setattr(Simulation, "MAX_EVENTS", 800)
    monkeypatch.setattr(Simulation, "EVENTS_PER_CUBE", 0)
    config = load_scenario(SCENARIOS / "wrong_bit_one_path.ini")
    with pytest.raises(QuiesceError) as caught:
        run_simulation(config)
    assert isinstance(caught.value, RuntimeError)
    assert str(caught.value) == (
        "simulation failed to quiesce within 800 deliveries at t=27: "
        "correct nodes' k 1:3 2:3 3:3; pending AABA indices k=3:[1]"
    )


def test_delivery_cap_follows_the_config_and_keeps_its_floor():
    """A favorable run makes about 2 * n**3 echo deliveries per instance run,
    which at n=64 with 5 instances, 6 run, is past the 2 000 000 floor; no
    config gets a cap below the floor."""
    assert schedule(favorable(n=64, f=21, instances=5)).max_events() > 2 * 64 ** 3 * 6
    assert schedule(favorable(n=31, f=10, instances=5)).max_events() == 2_000_000
    assert schedule(favorable()).max_events() == Simulation.MAX_EVENTS == 2_000_000


def test_eventual_delivery_queue_drains():
    res = run_simulation(favorable(mode="random", delay_min=1, delay_max=9, instances=3))
    assert observe_invariants(res) == []
    drops = [r for r in res.log.of_kind("drop") if r.get("reason") not in ("crashed",)]
    assert drops == []


def test_silent_fault_reduces_acs_but_stays_safe():
    cfg = favorable(instances=2, faults=(FaultSpec(3, "silent"),))
    res = run_simulation(cfg)
    assert observe_invariants(res) == []
    rets = [r for r in res.log.of_kind("instance_return") if r["k"] == 1]
    assert all(r["acs_size"] == 3 for r in rets)
    assert all(3 in r["excluded"] for r in rets)


def test_equivocator_index_consistent_across_nodes():
    for seed in range(6):
        cfg = favorable(
            seed=seed, mode="random", instances=2,
            faults=(FaultSpec(2, "equivocate"),),
        )
        res = run_simulation(cfg)
        assert observe_invariants(res) == []
        assert check_liveness(res) == []


def test_wrong_bit_fault_never_breaks_agreement():
    for seed in range(6):
        cfg = favorable(
            seed=seed, mode="random", instances=2,
            faults=(FaultSpec(4, "wrong_aaba_bit"),),
        )
        res = run_simulation(cfg)
        assert observe_invariants(res) == []


def test_of_kind_matches_a_scan_after_appends_and_replacement():
    log = run_simulation(favorable()).log

    def scan(kind):
        return [r for r in log.written if r["kind"] == kind]

    kinds = sorted({r["kind"] for r in log.written}) + ["no_such_kind", "late_kind"]
    assert all(log.of_kind(kind) == scan(kind) for kind in kinds)
    # appends between two calls on the same list
    log.append({"kind": "commit", "t": 99, "node": 1})
    log.append({"kind": "late_kind", "t": 99, "node": 1})
    assert all(log.of_kind(kind) == scan(kind) for kind in kinds)
    # each call hands out its own list
    log.of_kind("commit").clear()
    assert log.of_kind("commit") == scan("commit") != []
    # a new list of the same length, with one record's kind changed
    commit = next(r for r in log.written if r["kind"] == "commit")
    log.written = [dict(r, kind="late_kind") if r is commit else r for r in log.written]
    assert all(log.of_kind(kind) == scan(kind) for kind in kinds)
    log.written = [r for r in log.written if r["kind"] != "commit"]
    assert log.of_kind("commit") == []
    assert log.of_kind("send") == [] != send_records(log)


READER_CASES = ("appended", "edited_copy", "shorter_list")


def _log_for(case):
    """A run's log whose written records reach its readers as `case` says:
    through `append` alone, then `written` replaced by an edited copy, or
    by a shorter list."""
    log = run_simulation(favorable()).log
    log.append({"kind": "commit", "t": 99, "node": 1})
    log.append({"kind": "send", "t": 99, "node": 1, "to": 2})
    log.append({"kind": "late_kind", "t": 99, "node": 1})
    commit = next(r for r in log.written if r["kind"] == "commit")
    if case == "edited_copy":
        log.written = [dict(r, kind="late_kind") if r is commit else r for r in log.written]
    elif case == "shorter_list":
        log.written = [r for r in log.written if r["kind"] != "commit"]
    return log


@pytest.mark.parametrize("case", READER_CASES)
def test_to_lines_and_of_kind_read_the_current_records(case):
    """`to_lines` writes the encoder's line of each record of the current
    `written`, which holds no `send` record, and `of_kind` gives a scan's list."""
    log = _log_for(case)
    want = b"".join(json.dumps(r, sort_keys=True, separators=(",", ":")).encode() + b"\n"
                    for r in log.written)
    assert log.to_lines() == want
    kinds = {r["kind"] for r in log.records} | {"commit", "no_such_kind"}
    assert "send" in kinds and all(r["kind"] != "send" for r in log.written)
    assert all(log.of_kind(kind) == [r for r in log.written if r["kind"] == kind] for kind in kinds)


def test_observe_stage_indexes_no_send_records():
    """The by-kind index the observe stage reads holds only the written
    records, so `send` records, most of a log, are not in it: the stage
    leaves each commit record with one more reference, the index's, and
    each send record with none."""
    res = run_simulation(load_bench_module("workloads").favorable_n16(1)[0])
    log = res.log
    commit = next(r for r in log.records if r["kind"] == "commit")
    send = next(r for r in log.records if r["kind"] == "send")
    refs = sys.getrefcount(commit), sys.getrefcount(send)
    observe_invariants(res)
    check_liveness(res)
    decompose_latency(res)
    tx_records(res)
    assert (sys.getrefcount(commit), sys.getrefcount(send)) == (refs[0] + 1, refs[1])
    assert log.of_kind("send") == []


BENCH_CONTRACT_CONFIGS = {
    **{path.name: lambda path=path: load_scenario(path) for path in sorted(SCENARIOS.glob("*.ini"))},
    "favorable-n16": lambda: load_bench_module("workloads").favorable_n16(1)[0],
    "byzantine-n16": lambda: load_bench_module("workloads").byzantine_n16(1)[0],
    # random mode, n=7, crashes mid-run at ticks 7, 21, 35 and 49
    **{f"crash_fuzz_config({i})": lambda i=i: crash_fuzz_config(i) for i in (1, 3, 5, 7)},
    # a crash tick after the last delivery: no drop, a `drops` count of 0
    "crash_after_the_run": lambda: favorable(faults=(FaultSpec(4, "crash", at_time=10**6),)),
}


@pytest.mark.parametrize("name", sorted(BENCH_CONTRACT_CONFIGS))
def test_send_records_count_deliveries_and_match_the_summary(name, monkeypatch):
    """What the benchmark reads off a run: each send entry and each crashed
    node's drop entry goes through `EventLog.append` as looked up on the
    class, the send entries less the drop entries are the `Node.handle`
    calls, and the written summary records count them: `sends` the send
    entries per (sender, proto, body), `drops` each crashed node's drop
    entries.  Each dispatched envelope has one send record, its `to` the
    envelope's recipient, listed once per recipient.  A crashed node writes
    no line from its crash tick on."""
    calls = Counter()
    handle, append = Node.__dict__["handle"], EventLog.__dict__["append"]
    dispatch = Simulation.__dict__["_dispatch"]
    dispatched = []  # (envelope, the send entries its dispatch added)

    def recording_dispatch(sim, envelopes):
        for env in envelopes:
            start = len(sim.log.records)
            dispatch(sim, [env])
            dispatched.append((env, sim.log.records[start:]))

    def counting_handle(node, env):
        calls["handle"] += 1
        return handle(node, env)

    def counting_append(log, record):
        calls["append"] += record["kind"] == "send"
        calls["drop"] += record["kind"] == "drop" and record["reason"] == "crashed"
        return append(log, record)

    monkeypatch.setattr(Node, "handle", counting_handle)
    monkeypatch.setattr(EventLog, "append", counting_append)
    monkeypatch.setattr(Simulation, "_dispatch", recording_dispatch)
    sim = Simulation(BENCH_CONTRACT_CONFIGS[name]())
    n = sim.config.params.n
    log = sim.run().log
    sends = send_records(log)
    assert sum(len(entries) for _, entries in dispatched) == len(sends)
    for env, entries in dispatched:
        assert len(entries) == (n if env.recipient is None else 1)
        assert all(rec is entries[0] for rec in entries)
        assert entries[0]["to"] == env.recipient and entries[0]["node"] == env.sender
    if name == "byzantine-n16":  # the equivocator's Propose goes out as unicasts
        assert any(env.recipient is not None for env, _ in dispatched)
    crashed = crashed_drops(log)
    assert calls["append"] == len(sends) > 0
    assert calls["drop"] == len(crashed)
    assert calls["handle"] == len(sends) - len(crashed)
    summary = log.of_kind("sends")
    assert {(r["node"], r["t"]) for r in summary} == {(0, log.time)}
    assert summary == sorted(summary, key=lambda r: (r["sender"], r["proto"], r["body"]))
    assert Counter({(r["sender"], r["proto"], r["body"]): r["count"] for r in summary}) == Counter(
        (r["node"], r["proto"], r["body"]) for r in sends
    )
    crash_at = {fs.node: fs.at_time for fs in sim.config.faults if fs.kind == "crash"}
    drops = log.of_kind("drops")
    assert [(r["node"], r["t"], r["recipient"], r["reason"]) for r in drops] == [
        (0, log.time, node, "crashed") for node in sorted(crash_at)]
    assert {r["recipient"]: r["count"] for r in drops} == {
        node: sum(r["node"] == node for r in crashed) for node in crash_at}
    assert not [r for r in log.written if r["t"] >= crash_at.get(r["node"], log.time + 1)]


def test_run_returns_the_simulation():
    sim = schedule(favorable())
    assert sim.run() is sim
