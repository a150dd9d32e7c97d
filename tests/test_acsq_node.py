"""Integration behavior of the ACSQ instance and node driver, exercised
through full simulated runs."""

from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from falcon_bft import simnet
from falcon_bft.aaba import Output
from falcon_bft.acsq import AcsqInstance
from falcon_bft.core_types import (
    Assist,
    Block,
    Bval,
    Echo1,
    Echo2,
    Envelope,
    GradedDelivery,
    InstanceAddr,
    Propose,
    Proto,
    Query,
    QueryResp,
    Send,
    Sho2,
    SystemParams,
    Transaction,
)
from falcon_bft.crypto import tagged_digest
from falcon_bft.gbc import cert_tag
from falcon_bft.node import Node
from falcon_bft.observer import check_liveness, observe_invariants
from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import DelayRule, FaultSpec, SimConfig, run_simulation

from support import (
    FORGE_BODIES,
    BodyForgingNode,
    delayed_index_configs,
    echo2_hold_config,
    late_proof_config,
    load_bench_module,
    make_registry,
)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(seed=1, n=4, f=1, instances=2, **kwargs):
    kwargs.setdefault("tx_load", 4)
    cfg = SimConfig(
        params=SystemParams(n, f), seed=seed, num_instances=instances, **kwargs
    )
    return run_simulation(cfg)


def clean(res):
    return observe_invariants(res) + check_liveness(res)


def test_favorable_run_skips_agreement_entirely():
    res = run()
    assert clean(res) == []
    assert res.log.of_kind("agreement_enter") == []
    assert res.log.of_kind("aaba_input") == []
    for rec in res.log.of_kind("instance_return"):
        assert rec["acs_size"] == 4 and rec["excluded"] == []


def test_crash_fills_gap_via_shortcut_zero():
    res = run(faults=(FaultSpec(4, "crash"),))
    assert clean(res) == []
    outs = [r for r in res.log.of_kind("aaba_output") if r["k"] == 1]
    assert outs and all(r["j"] == 4 and r["bit"] == 0 and r["source"] == "shortcut" for r in outs)
    # the missing index never got a certified one-input anywhere
    assert all(not r["q_valid"] for r in res.log.of_kind("aaba_input"))


def test_agreement_inputs_follow_grade1_state():
    # every correct node grade-1 delivered index 4 but could not grade-2 it,
    # so each enters the agreement stage with a certified one-input
    res = run(
        seed=3,
        rules=(DelayRule(body="Echo2", acsq_id=1, index=4, proto="gbc", delay=60),),
    )
    assert clean(res) == []
    inputs = [r for r in res.log.of_kind("aaba_input") if r["k"] == 1 and r["j"] == 4]
    assert inputs and all(r["bit"] == 1 and r["q_valid"] for r in inputs)
    outs = [r for r in res.log.of_kind("aaba_output") if r["k"] == 1 and r["j"] == 4]
    assert outs and all(r["bit"] == 1 for r in outs)


def test_delivery_assistance_rescues_lagging_node():
    res = run(
        seed=6,
        rules=(DelayRule(recipient=3, body="Echo2", acsq_id=1, index=4, proto="gbc", delay=40),),
    )
    assert clean(res) == []
    adopts = res.log.of_kind("da_adopt")
    assert adopts and all(r["node"] == 3 and r["j"] == 4 for r in adopts)
    assists = res.log.of_kind("assist_sent")
    assert {r["node"] for r in assists} <= {1, 2, 4}
    # at most one assist per (index, peer) pair per instance
    keys = [(r["node"], r["k"], r["j"], r["to"]) for r in assists]
    assert len(keys) == len(set(keys))


def test_query_recovers_missing_body():
    res = run(
        seed=7,
        rules=(
            DelayRule(body="Echo2", acsq_id=1, index=4, proto="gbc", delay=60),
            DelayRule(recipient=3, body="Propose", acsq_id=1, index=4, proto="gbc", delay=60),
        ),
    )
    assert clean(res) == []
    queries = [r for r in res.log.of_kind("query_sent") if r["node"] == 3]
    assert queries and queries[0]["j"] == 4
    responses = res.log.of_kind("query_resp_sent")
    assert {r["node"] for r in responses} <= {1, 2, 4}
    includes = [
        r
        for r in res.log.of_kind("decide")
        if r["node"] == 3 and r["k"] == 1 and r["j"] == 4
    ]
    assert len(includes) == 1 and includes[0]["outcome"] == "include"


@pytest.mark.parametrize("amp_delay,include_tick", [(20, 27), (80, 32)])
def test_one_output_includes_once_the_certificate_arrives(amp_delay, include_tick):
    # node 4 outputs 1 for index 1 at t=14, through DECIDED messages, before
    # it holds index 1's grade-1 certificate.  With Amp/Sho1 20 ticks late,
    # they bring it at t=27; with 80, its own grade-1 delivery at t=32 does
    config = load_scenario(SCENARIOS / "late_proof_include.ini")
    late = tuple(DelayRule(recipient=4, body=body, delay=amp_delay) for body in ("Amp", "Sho1"))
    res = run_simulation(replace(config, rules=config.rules[:2] + late))
    assert clean(res) == []
    first = {}
    for r in res.log.records:
        if r.get("node") == 4 and r.get("k") == 1 and r.get("j") == 1:
            first.setdefault((r["kind"], r.get("source")), r["t"])
    assert first[("aaba_output", "aba")] == 14
    assert first[("decide", "aaba")] == include_tick
    assert first.get(("gbc_deliver", None), include_tick) == include_tick


def test_late_proof_runs_are_clean():
    # index j's Echo1 late at all but f+1 nodes, Amp/Sho1 late at one of them:
    # in most of these runs some node outputs 1 for j before it holds j's
    # certificate, and must include j once the certificate arrives
    failing = [i for i in range(60) if clean(run_simulation(late_proof_config(i)))]
    assert failing == []


# the shipped scenarios, the fuzz gate's first runs, and slices of the two
# generators that reach AABA excludes (echo2_hold) and AABA includes
# (late_proof; run 48 excludes too)
RETURN_RUNS = {
    **{p.name: partial(load_scenario, p) for p in SCENARIOS.glob("*.ini")},
    **{
        f"{gen.__name__}({i})": partial(gen, i)
        for gen, indices in (
            (load_bench_module("workloads").fuzz_config, range(24)),
            (echo2_hold_config, range(0, 60, 4)),
            (late_proof_config, range(0, 60, 4)),
        )
        for i in indices
    },
}


@pytest.mark.parametrize("case", sorted(RETURN_RUNS))
def test_instance_return_matches_its_decides(case):
    """Each correct node's `instance_return` agrees with its own `decide`
    records for the instance: `acs_size` counts the includes and `excluded`
    lists the excludes, sorted."""
    res = run_simulation(RETURN_RUNS[case]())
    correct = set(res.config.correct_nodes())
    decides = {}
    for rec in res.log.of_kind("decide"):
        decides.setdefault((rec["node"], rec["k"]), []).append(rec)
    returns = [rec for rec in res.log.of_kind("instance_return") if rec["node"] in correct]
    assert returns
    for rec in returns:
        own = decides[rec["node"], rec["k"]]
        assert rec["acs_size"] == sum(d["outcome"] == "include" for d in own)
        assert rec["excluded"] == sorted(d["j"] for d in own if d["outcome"] == "exclude")


def test_skewed_own_broadcast_gets_excluded_but_run_stays_live():
    res = run(
        seed=4,
        rules=(DelayRule(sender=1, body="Propose", acsq_id=1, delay=20),),
    )
    assert clean(res) == []
    assert res.log.of_kind("trigger")
    decs = [r for r in res.log.of_kind("decide") if r["k"] == 1 and r["j"] == 1]
    assert decs and all(r["outcome"] == "exclude" for r in decs)


def test_trigger_fires_at_lagging_node_via_passive_instance():
    # node 2 receives instance-1 traffic late; instance-2 deliveries reach it
    # passively and still fire its trigger
    res = run(
        seed=5,
        rules=(DelayRule(recipient=2, proto="gbc", acsq_id=1, body="Echo2", delay=9),),
    )
    assert clean(res) == []
    trig = [r for r in res.log.of_kind("trigger") if r["node"] == 2]
    assert trig
    # the passive instance never emitted echoes before its activation
    activate_t = {
        r["k"]: r["t"] for r in res.log.of_kind("activate") if r["node"] == 2
    }
    for rec in res.log.records:
        if rec["kind"] == "send" and rec["node"] == 2 and rec["body"] in ("Echo1", "Echo2"):
            assert rec["t"] >= activate_t[rec["k"]]


def test_committed_txs_leave_buffer_and_later_proposals():
    res = run(instances=3, tx_load=4)
    assert clean(res) == []
    committed_at = {}
    for rec in res.log.of_kind("commit"):
        for txid in rec["txids"]:
            committed_at.setdefault((rec["node"], txid), rec["t"])
    # any proposal made after a tx committed at that node excludes it
    proposals = res.log.of_kind("propose")
    blocks = {}
    for rec in res.log.of_kind("commit"):
        blocks.setdefault(rec["digest"], rec["txids"])
    for prop in proposals:
        txids = blocks.get(prop["digest"])
        if txids is None:
            continue
        for txid in txids:
            when = committed_at.get((prop["node"], txid))
            if when is not None:
                assert prop["t"] <= when
    assert all(not node.buffer for node in res.nodes.values())


def test_late_grade1_never_rewrites_agreement_input():
    res = run(
        seed=8,
        rules=(
            DelayRule(recipient=2, body="Propose", acsq_id=1, index=4, proto="gbc", delay=30),
            DelayRule(body="Echo2", acsq_id=1, index=4, proto="gbc", delay=30),
        ),
    )
    assert clean(res) == []
    inputs = [
        r for r in res.log.of_kind("aaba_input") if r["node"] == 2 and r["k"] == 1
    ]
    assert len(inputs) == 1  # fixed once at agreement entry


def test_far_future_traffic_is_held_until_the_driver_catches_up():
    res = run(
        seed=11, instances=4, tx_load=2,
        rules=(DelayRule(recipient=2, acsq_id=1, delay=12),),
    )
    assert clean(res) == []
    held = res.log.of_kind("held")
    assert held and all(r["node"] == 2 for r in held)
    # the held instances still returned at node 2 once released
    returned = {r["k"] for r in res.log.of_kind("instance_return") if r["node"] == 2}
    assert {r["k"] for r in held if r["k"] <= 4} <= returned


def test_traffic_below_pruning_horizon_dropped():
    res = run(instances=5, tx_load=2)
    assert clean(res) == []
    node = res.nodes[1]
    assert node.pruned_below > 1  # five instances ran, early ones pruned
    stale = next(
        e for e in res.log.records if e["kind"] == "send" and e["k"] == 1 and e["body"] == "Echo1"
    )
    from falcon_bft.core_types import Echo1, Envelope, InstanceAddr, Proto

    ps = res.nodes[2].registry.partial_sign(2, tagged_digest(b"stale", 1))
    env = Envelope(2, 1, InstanceAddr(1, Proto.GBC, stale["j"]), Echo1(ps))
    assert node.handle(env) == []
    drops = [r for r in res.log.of_kind("drop") if r.get("reason") == "pruned_instance"]
    assert drops


def test_block_cap_limits_proposals():
    from falcon_bft.core_types import Transaction
    from falcon_bft.node import BLOCK_CAP

    res = run(instances=1, tx_load=2)
    node = res.nodes[1]
    for i in range(50):
        node.inject_tx(Transaction(b"cap-test-%d" % i))
    block = node._own_block(99)
    assert len(block.txs) == BLOCK_CAP  # the cap takes the buffer prefix
    empty_node_block = res.nodes[2]._own_block(99)
    assert not res.nodes[2].buffer and empty_node_block.txs == ()


def test_assist_served_from_returned_instance():
    res = run(
        seed=6,
        rules=(DelayRule(recipient=3, body="Echo2", acsq_id=1, index=4, proto="gbc", delay=40),),
    )
    returns = {
        (r["node"], r["k"]): r["t"] for r in res.log.of_kind("instance_return")
    }
    assists = res.log.of_kind("assist_sent")
    assert assists
    for rec in assists:
        assert rec["t"] >= returns[(rec["node"], rec["k"])]


def test_no_live_agreement_for_a_grade2_index():
    """Once j is in M2, AABA_j traffic gets only the assistance reply: no
    instance is made for j, and one that existed is halted with its buffer
    dropped.  Runs that hold some Echo2s make indices reach M2 while AABA_j
    traffic is still in flight."""
    seen = 0
    for i in range(50):
        res = run_simulation(echo2_hold_config(i))
        for node_id in res.config.correct_nodes():
            for inst in res.nodes[node_id].instances.values():
                for j in inst.M2.keys() & inst.aaba.keys():
                    seen += 1
                    aaba = inst.aaba[j]
                    assert aaba.inner.halted and aaba.buffered == [], (i, node_id, inst.k, j)
    assert seen  # some index did reach M2 after its AABA began


def test_driver_keeps_at_most_two_live_instances():
    res = run(instances=4)
    assert clean(res) == []
    live_high = {}
    adopted = {}
    for rec in res.log.records:
        if rec["kind"] == "adopt":
            adopted[rec["node"]] = rec["k"]
        elif rec["kind"] == "activate":
            driver = adopted.get(rec["node"], 1)
            assert rec["k"] <= driver + 1


def test_out_of_range_index_dropped_without_new_state():
    """An index outside 1..n is dropped before its body is read, whatever
    the body: recovery traffic (`Assist`, `Query`, `QueryResp`) too, which
    would otherwise reach its handler and be dropped for another reason."""
    res = run(instances=2)
    node = res.nodes[1]
    inst = node.instances[node.k]
    gbcs, aabas = set(inst.gbc), set(inst.aaba)
    gd = inst.M2[1]
    bad = (0, 5, 10**6)
    for j in bad:
        aaba_addr = InstanceAddr(node.k, Proto.AABA, j)
        block = Block(j, node.k, ())
        for body in (Sho2(0), Assist(gd), Query(block.digest), QueryResp(block), Bval(1, 0)):
            assert node.handle(Envelope(2, 1, aaba_addr, body)) == []
        propose = Propose(block)
        assert node.handle(Envelope(j, 1, InstanceAddr(node.k, Proto.GBC, j), propose)) == []
    assert (set(inst.gbc), set(inst.aaba)) == (gbcs, aabas)
    drops = [r for r in res.log.of_kind("drop") if r["k"] == node.k and r.get("j") in bad]
    assert [(r["j"], r["reason"]) for r in drops] == [(j, "bad_index") for j in bad for _ in range(6)]


def test_instance_past_window_dropped_not_held():
    res = run(instances=2)
    node = res.nodes[1]
    assert node.held == {}
    last = res.config.num_instances + 1  # the extra instance that fires the last trigger
    for k in (last + 1, 10**6, 10**6 + 1):
        assert node.handle(Envelope(2, 1, InstanceAddr(k, Proto.AABA, 1), Sho2(0))) == []
    assert node.held == {}
    assert max(node.instances) == last
    drops = [r for r in res.log.of_kind("drop") if r["reason"] == "beyond_window"]
    assert [r["k"] for r in drops] == [last + 1, 10**6, 10**6 + 1]


def test_window_held_and_pruned_tests_fire_beside_live_instances(monkeypatch):
    """Mid-run, while node 1 holds live instances and has pruned some, an
    envelope past the window is dropped, one beyond k+1 is held and one
    below the pruning horizon is dropped, each with its one record, and one
    for a live instance reaches it with neither.  The probe envelopes are
    proposals from a node that is not the broadcaster, which a broadcast
    ignores, so the run goes on unchanged."""
    sim = simnet.schedule(SimConfig(params=SystemParams(4, 1), seed=1, num_instances=8, tx_load=2))
    records = sim.log.records
    handle = Node.handle
    probed = []

    def probe(node, k):
        """The held and drop records that node's handling of a probe for instance k writes."""
        before = len(records)
        env = Envelope(2, 1, InstanceAddr(k, Proto.GBC, 3), Propose(Block(3, k, ())))
        assert handle(node, env) == []
        return [(r["kind"], r.get("reason")) for r in records[before:] if r["kind"] in ("held", "drop")]

    def handle_then_probe(self, env):
        out = handle(self, env)
        if self.node_id == 1 and not probed and self.pruned_below > 1 and self.k + 2 <= self.last_instance:
            live = set(self.instances)
            probed.append({
                "beyond_window": probe(self, self.last_instance + 1),
                "held": probe(self, self.k + 2),
                "pruned_instance": probe(self, self.pruned_below - 1),
                "live": probe(self, self.k),
            })
            assert set(self.instances) == live and self.k in live
            assert self.held[self.k + 2]
        return out

    monkeypatch.setattr(Node, "handle", handle_then_probe)
    res = sim.run()
    assert probed == [{
        "beyond_window": [("drop", "beyond_window")],
        "held": [("held", None)],
        "pruned_instance": [("drop", "pruned_instance")],
        "live": [],
    }]
    assert clean(res) == []


def test_sub_machines_emit_only_the_four_known_kinds(monkeypatch):
    """`_absorb` ignores an emission of any other type, so a new kind that
    nothing interprets would vanish without notice; each kind also occurs."""
    workloads = load_bench_module("workloads")
    absorb = AcsqInstance._absorb
    seen = set()

    def absorb_and_record(self, j, sub):
        seen.update(type(item) for item in sub)
        return absorb(self, j, sub)

    monkeypatch.setattr(AcsqInstance, "_absorb", absorb_and_record)
    configs = [workloads.favorable_n16(1)[0], workloads.byzantine_n16(1)[0]]
    configs += [echo2_hold_config(i) for i in range(10)]
    for config in configs:
        run_simulation(config)
    assert seen == {Send, GradedDelivery, Block, Output}


def test_no_node_holds_an_instance_past_the_window_or_k_plus_one(monkeypatch):
    """Over `fuzz_config(0..49)`, after every envelope a node handles, its
    instances all lie at or below both its last instance and its k+1."""
    workloads = load_bench_module("workloads")
    handle = Node.handle
    checked = []

    def handle_then_check(self, env):
        out = handle(self, env)
        assert max(self.instances) <= min(self.last_instance, self.k + 1)
        checked.append(env.addr.acsq_id > self.k + 1)
        return out

    monkeypatch.setattr(Node, "handle", handle_then_check)
    for i in range(50):
        run_simulation(workloads.fuzz_config(i))
    assert any(checked)  # some envelope came for an instance beyond k+1


def test_lone_instance_with_a_live_broadcast_still_drops_bad_signer_and_bad_index():
    """Once index 2's broadcast holds its body, a share its sender did not
    sign is still dropped as `bad_signer`, and an index out of range, on a
    GBC or an AABA address, as `bad_index` ahead of any signer test, adding
    no broadcast or agreement."""
    inst, registry, records = _lone_instance()
    addr = InstanceAddr(1, Proto.GBC, 2)
    block = Block(2, 1, (Transaction(b"tx"),))
    inst.handle(Envelope(2, 1, addr, Propose(block)))
    assert inst.gbc[2].received_block == block
    share = registry.partial_sign(3, cert_tag(addr, block.digest, 1))
    assert inst.handle(Envelope(4, 1, addr, Echo1(share))) == []
    assert inst.gbc[2].pool1 == {}
    for j in (0, 5, 10**6):
        assert inst.handle(Envelope(4, 1, InstanceAddr(1, Proto.GBC, j), Echo1(share))) == []
        assert inst.handle(Envelope(4, 1, InstanceAddr(1, Proto.AABA, j), Sho2(0))) == []
    assert _drops(records) == ["bad_signer"] + ["bad_index"] * 6
    assert set(inst.gbc) == {1, 2, 3, 4} and inst.aaba == {}


@pytest.mark.parametrize("to", [None, 3])
@pytest.mark.parametrize(
    "addr, body",
    [(InstanceAddr(1, Proto.GBC, 1), Sho2(0)), (InstanceAddr(1, Proto.AABA, 1), Propose(Block(1, 1, ())))],
)
def test_wrap_rejects_a_body_its_address_does_not_carry(to, addr, body):
    # a broadcast (to=None) is one envelope for all n recipients; its body
    # is checked all the same
    node = run(instances=1).nodes[1]
    with pytest.raises(ValueError):
        node._wrap([Send(addr, body, to=to)])


@pytest.mark.parametrize("relayed, tag", [(Echo1, 1), (Echo2, 2)])
def test_relayed_share_does_not_shut_out_its_signer(relayed, tag):
    # node 4 relays signer 2's valid share from index 3's broadcast onto
    # index 2's, ahead of node 2's own share; node 1 must still deliver
    registry = make_registry(4)
    records = []
    inst = AcsqInstance(
        1, 1, SystemParams(4, 1), registry,
        log=lambda kind, **fields: records.append(dict(fields, kind=kind)),
        input_policy=lambda inst, j: [],
    )
    addr = InstanceAddr(1, Proto.GBC, 2)
    block = Block(2, 1, (Transaction(b"tx"),))
    elsewhere = cert_tag(InstanceAddr(1, Proto.GBC, 3), Block(3, 1, ()).digest, tag)
    inst.handle(Envelope(2, 1, addr, Propose(block)))
    assert inst.handle(Envelope(4, 1, addr, relayed(registry.partial_sign(2, elsewhere)))) == []
    for echo, t in ((Echo1, 1), (Echo2, 2)):
        for signer in (1, 2, 3):
            tagged = cert_tag(addr, block.digest, t)
            inst.handle(Envelope(signer, 1, addr, echo(registry.partial_sign(signer, tagged))))
    assert 2 in inst.M2
    assert [r["reason"] for r in records if r["kind"] == "drop"] == ["bad_signer"]


def _lone_instance():
    """Instance 1 at node 1 of four, outside any run, with its log records."""
    registry = make_registry(4)
    records = []
    inst = AcsqInstance(
        1, 1, SystemParams(4, 1), registry,
        log=lambda kind, **fields: records.append(dict(fields, kind=kind)),
        input_policy=lambda inst, j: [],
    )
    return inst, registry, records


def _drops(records):
    return [r["reason"] for r in records if r["kind"] == "drop"]


def test_assist_without_a_grade2_certificate_dropped():
    inst, registry, records = _lone_instance()
    addr = InstanceAddr(1, Proto.AABA, 2)
    block = Block(2, 1, (Transaction(b"tx"),))

    def cert(digest, grade):
        tagged = cert_tag(InstanceAddr(1, Proto.GBC, 2), digest, grade)
        return registry.combine([registry.partial_sign(i, tagged) for i in (1, 2, 3)], 3)

    other = Block(2, 1, (Transaction(b"other"),)).digest
    for gd in (
        GradedDelivery(block, 1, cert(block.digest, 1)),  # a grade-1 delivery
        GradedDelivery(block, 2, cert(other, 2)),  # a certificate over another digest
    ):
        assert inst.handle(Envelope(3, 1, addr, Assist(gd))) == []
    assert inst.M2 == {}
    assert _drops(records) == ["bad_assist", "bad_assist"]
    good = GradedDelivery(block, 2, cert(block.digest, 2))
    inst.handle(Envelope(3, 1, addr, Assist(good)))
    assert inst.M2 == {2: good}


def test_query_resp_for_another_slot_dropped():
    inst, _, records = _lone_instance()
    addr = InstanceAddr(1, Proto.AABA, 2)
    for block in (Block(3, 1, ()), Block(2, 2, ())):  # wrong creator, wrong instance
        assert inst.handle(Envelope(3, 1, addr, QueryResp(block))) == []
    assert inst.known_blocks == {}
    assert _drops(records) == ["bad_query_resp", "bad_query_resp"]


def test_deferred_query_answered_once_the_body_arrives():
    inst, _, records = _lone_instance()
    block = Block(2, 1, (Transaction(b"tx"),))
    aaba = InstanceAddr(1, Proto.AABA, 2)
    assert inst.handle(Envelope(3, 1, aaba, Query(block.digest))) == []
    assert inst.pending_queries == {block.digest: [3]}
    out = inst.handle(Envelope(2, 1, InstanceAddr(1, Proto.GBC, 2), Propose(block)))
    assert Send(aaba, QueryResp(block), to=3) in out
    assert inst.pending_queries == {}
    sent = [r for r in records if r["kind"] == "query_resp_sent"]
    assert sent == [{"kind": "query_resp_sent", "k": 1, "to": 3, "digest": block.digest.hex()}]


def test_a_repeated_query_is_answered_once():
    """32 bytes in buy one block out per peer, not one per query: answered
    at once for a known digest, or once when a queued digest's body arrives."""
    inst, _, records = _lone_instance()
    block = Block(2, 1, (Transaction(b"tx"),))
    aaba = InstanceAddr(1, Proto.AABA, 2)
    for j in (2, 2, 3):
        assert inst.handle(Envelope(4, 1, InstanceAddr(1, Proto.AABA, j), Query(block.digest))) == []
    out = inst.handle(Envelope(2, 1, InstanceAddr(1, Proto.GBC, 2), Propose(block)))
    assert [s for s in out if type(s.body) is QueryResp] == [Send(aaba, QueryResp(block), to=4)]
    out = []
    for _ in range(3):
        out.extend(inst.handle(Envelope(3, 1, aaba, Query(block.digest))))
    assert out == [Send(aaba, QueryResp(block), to=3)]
    assert len([r for r in records if r["kind"] == "query_resp_sent"]) == 2


def test_a_digest_flood_queues_one_query_per_index_and_peer():
    """Made-up digests from one peer hold at most one pending query per index."""
    inst, _, _ = _lone_instance()
    for i in range(1000):
        j = 1 + i % 4
        assert inst.handle(Envelope(3, 1, InstanceAddr(1, Proto.AABA, j), Query(b"%032d" % i))) == []
    assert sum(len(waiting) for waiting in inst.pending_queries.values()) == 4
    assert len(inst.pending_queries) == 4


def _forged(j, k=1):
    return Block(j, k, (Transaction(b"forged"),))


def test_unsolicited_query_resp_dropped():
    inst, _, records = _lone_instance()
    block = _forged(2)
    assert inst.handle(Envelope(3, 1, InstanceAddr(1, Proto.AABA, 2), QueryResp(block))) == []
    assert inst.known_blocks == {}
    assert _drops(records) == ["bad_query_resp"]
    assert not [r for r in records if r["kind"] == "body_received"]


def test_assisted_body_stays_out_of_the_broadcast():
    inst, registry, _ = _lone_instance()
    block = Block(2, 1, (Transaction(b"tx"),))
    tagged = cert_tag(InstanceAddr(1, Proto.GBC, 2), block.digest, 2)
    gd = GradedDelivery(block, 2, registry.combine([registry.partial_sign(i, tagged) for i in (1, 2, 3)], 3))
    inst.handle(Envelope(3, 1, InstanceAddr(1, Proto.AABA, 2), Assist(gd)))
    assert inst.M2 == {2: gd} and inst.known_blocks == {block.digest: block}
    assert inst.gbc[2].received_block is None


def _echo1_tags(out):
    return [(s.addr.index, s.body.partial.tagged) for s in out if type(s.body) is Echo1]


def test_unsolicited_query_resp_leaves_the_broadcast_to_its_propose():
    inst, _, _ = _lone_instance()
    inst.activate(None)
    inst.handle(Envelope(3, 1, InstanceAddr(1, Proto.AABA, 2), QueryResp(_forged(2))))
    assert inst.gbc[2].received_block is None
    block = Block(2, 1, (Transaction(b"tx"),))
    out = inst.handle(Envelope(2, 1, InstanceAddr(1, Proto.GBC, 2), Propose(block)))
    assert inst.gbc[2].received_block == block
    assert _echo1_tags(out) == [(2, cert_tag(InstanceAddr(1, Proto.GBC, 2), block.digest, 1))]


def test_passive_instance_echoes_only_its_broadcasters_block_on_activation():
    inst, _, _ = _lone_instance()
    for j in (2, 3):
        inst.handle(Envelope(4, 1, InstanceAddr(1, Proto.AABA, j), QueryResp(_forged(j))))
    block = Block(2, 1, (Transaction(b"tx"),))
    assert _echo1_tags(inst.handle(Envelope(2, 1, InstanceAddr(1, Proto.GBC, 2), Propose(block)))) == []
    assert _echo1_tags(inst.activate(None)) == [
        (2, cert_tag(InstanceAddr(1, Proto.GBC, 2), block.digest, 1))
    ]


FORGER_RUNS = [
    pytest.param(
        dict(params=SystemParams(n, f), num_instances=3, rules=rules),
        id=f"lockstep-n{n}-" + (f"propose+{rules[0].delay}" if rules else "norule"),
    )
    for n, f in ((4, 1), (7, 2))
    for rules in ((),) + tuple((DelayRule(body="Propose", delay=d),) for d in (2, 3, 5))
] + [
    pytest.param(
        dict(params=SystemParams(4, 1), num_instances=3, seed=seed, mode="random",
             delay_min=1, delay_max=5),
        id=f"random-n4-seed{seed}",
    )
    for seed in range(20)
]


@pytest.mark.parametrize("fields", FORGER_RUNS)
def test_forged_query_responses_break_nothing(monkeypatch, fields):
    """A node that floods unsolicited forged bodies at start costs no
    correct node its Echo1, its deliveries or a returned instance."""
    monkeypatch.setitem(simnet._FAULT_NODE_CLASSES, FORGE_BODIES, BodyForgingNode)
    n = fields["params"].n
    res = run_simulation(SimConfig(faults=(FaultSpec(n, FORGE_BODIES),), **fields))
    assert clean(res) == []
    drops = [r for r in res.log.of_kind("drop") if r.get("reason") == "bad_query_resp"]
    assert drops  # the forgeries arrived and were turned away


def _commits_before_last_decide(res):
    """(node, k, j) of each commit a correct node logs for instance k before
    its last `decide` record for k."""
    correct = set(res.config.correct_nodes())
    last = {(r["node"], r["k"]): r["i"] for r in res.log.of_kind("decide")}
    return [
        (r["node"], r["k"], r["j"])
        for r in res.log.of_kind("commit")
        if r["node"] in correct and r["i"] < last[r["node"], r["k"]]
    ]


def test_integral_sort_commits_only_after_every_decision():
    """Under the integral_sort variant no correct node commits a block of an
    instance before that instance's last decision; under Falcon's partial
    sorting every one of these runs commits some block before it."""
    fuzz_config = load_bench_module("workloads").fuzz_config
    configs = [*delayed_index_configs("falcon")]
    configs += [replace(fuzz_config(i), faults=()) for i in range(10)]
    early = []
    for config in configs:
        foil = run_simulation(replace(config, variant="integral_sort"))
        assert observe_invariants(foil) == []  # the foil's delay may miss liveness
        assert foil.log.of_kind("commit")
        assert _commits_before_last_decide(foil) == []
        early.append(len(_commits_before_last_decide(run_simulation(config))))
    assert all(early)
