"""Properties the delivery path's shortcuts rely on, and the work they save.

An echo share from its own signer to an in-range index, whose broadcast
exists from the instance's start, skips the instance router and gives
what the router gives, the node driver runs only when a handled
instance made progress, a run's objects are freed by reference
counting alone, which is what lets `Simulation.run` pause the cycle
collector, and a favorable lockstep run
verifies exactly the echo shares its deliveries need, computing no MAC
beyond the ones its shares were signed with, comparing each echo
envelope's MAC at most once, hashing each block's grade tags once,
combining each grade's certificate once and building one send record per
envelope.  In random runs, where nodes gather different quorums, the one
delivery shared per tagged digest fits every correct node that takes it,
and is combined once, and delay rules are matched once per rule key, not
once per envelope.  Work is pinned as call and object counts, which repeat exactly
where wall-clock time does not.
"""

import functools
import gc
from collections import Counter
from pathlib import Path

import pytest

from falcon_bft import crypto, gbc, node
from falcon_bft.acsq import AcsqInstance
from falcon_bft.core_types import (
    Block,
    Echo1,
    Echo2,
    Envelope,
    InstanceAddr,
    Propose,
    Proto,
    SystemParams,
    Transaction,
)
from falcon_bft.crypto import KeyRegistry
from falcon_bft.gbc import cert_tag
from falcon_bft.node import Node
from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import (
    DelayRule,
    FaultSpec,
    QuiesceError,
    SimConfig,
    Simulation,
    run_simulation,
    schedule,
)
from support import crash_fuzz_config, echo2_hold_config, late_proof_config, load_bench_module

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted(p.name for p in (ROOT / "scenarios").glob("*.ini"))


WORKLOADS = load_bench_module("workloads")


def _low_index_gaps(**kwargs):
    return SimConfig(params=SystemParams(7, 2), seed=3, mode="random", num_instances=3, **kwargs)


# indices 1 and 5 go through agreement, so deciding index 1 lets indices 2-4
# commit before the instance returns: by an exclusion, or by an inclusion
# without a grade-2 delivery
LOW_INDEX_GAPS = {
    "excluded_low_index": lambda: _low_index_gaps(
        faults=(FaultSpec(1, "crash"), FaultSpec(5, "crash"))
    ),
    "included_low_index": lambda: _low_index_gaps(
        rules=(DelayRule(body="Echo2", index=1, delay=30), DelayRule(body="Echo2", index=5, delay=30))
    ),
}


# every scenario, both low-index gap runs, and one pass of the fuzz-mix workload
RUN_CASES = SCENARIOS + sorted(LOW_INDEX_GAPS) + list(range(24))

# both n=16 workloads, and runs that reach crashes, delivery assistance,
# inner-ABA rounds (with AABA shortcuts and stops in late_proof_33) and a
# query for a missing block body
WIDER_RUNS = {
    "favorable_n16": lambda: WORKLOADS.favorable_n16(1)[0],
    "byzantine_n16": lambda: WORKLOADS.byzantine_n16(1)[0],
    "crash_fuzz_3": lambda: crash_fuzz_config(3),
    "crash_fuzz_11": lambda: crash_fuzz_config(11),
    "echo2_hold_7": lambda: echo2_hold_config(7),
    "echo2_hold_37": lambda: echo2_hold_config(37),
    "late_proof_7": lambda: late_proof_config(7),
    "late_proof_33": lambda: late_proof_config(33),
    "body_query": lambda: SimConfig(
        params=SystemParams(4, 1), seed=7, num_instances=2, tx_load=4,
        rules=(
            DelayRule(body="Echo2", acsq_id=1, index=4, delay=60),
            DelayRule(recipient=3, body="Propose", acsq_id=1, index=4, delay=60),
        ),
    ),
}


def config_for(case):
    """A scenario file name, a `LOW_INDEX_GAPS` or `WIDER_RUNS` key, or the
    index of a benchmark fuzz-mix run."""
    if isinstance(case, int):
        return WORKLOADS.fuzz_config(case)
    if case in LOW_INDEX_GAPS:
        return LOW_INDEX_GAPS[case]()
    if case in WIDER_RUNS:
        return WIDER_RUNS[case]()
    return load_scenario(ROOT / "scenarios" / case)


@pytest.mark.parametrize("case", RUN_CASES)
def test_driver_is_idle_after_every_envelope(monkeypatch, case):
    """After `Node.handle`, whether or not it ran the driver, a second
    `_drive` sends nothing and logs nothing."""
    sim = schedule(config_for(case))
    records = sim.log.records
    handle = Node.handle

    def handle_then_drive(self, env):
        out = handle(self, env)
        logged = len(records)
        assert self._drive() == []
        assert len(records) == logged
        return out

    monkeypatch.setattr(Node, "handle", handle_then_drive)
    sim.run()


@pytest.fixture
def collector():
    """Puts the cycle collector back as the test found it, enabled or disabled."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("case", SCENARIOS + [25] + sorted(WIDER_RUNS))
def test_finished_run_leaves_no_cyclic_garbage(collector, case):
    """With the collector off, so that `run` leaves it alone, a run's
    objects are all freed when its result goes."""
    config = config_for(case)
    gc.disable()
    gc.collect()
    result = run_simulation(config)
    del result
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(monkeypatch, collector, enabled):
    (gc.enable if enabled else gc.disable)()
    schedule(config_for(1)).run()
    assert gc.isenabled() is enabled
    monkeypatch.setattr(Simulation, "MAX_EVENTS", 10)
    monkeypatch.setattr(Simulation, "EVENTS_PER_CUBE", 0)
    with pytest.raises(QuiesceError):
        schedule(config_for(1)).run()
    assert gc.isenabled() is enabled


def test_run_makes_no_collection_and_promotes_its_survivors(collector):
    gc.enable()
    sim = schedule(config_for(1))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        result = sim.run()
    finally:
        gc.callbacks.remove(count)
    assert starts == []
    # the survivors sit in the oldest generation, where no young collection walks them
    assert any(obj is result.nodes for obj in gc.get_objects(generation=2))


def test_run_keeps_the_callers_frozen_objects_frozen(collector):
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        schedule(config_for(1)).run()
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


# favorable lockstep runs of 5 instances: (n, f) -> the most partial_sort
# calls the run may make
WORK_BOUNDS = {(4, 1): 120, (7, 2): 336, (16, 5): 1632}


@pytest.mark.parametrize("n,f", sorted(WORK_BOUNDS))
def test_favorable_run_work_counts(monkeypatch, n, f):
    calls = Counter()

    def count(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(KeyRegistry, "verify_partial", "verify_partial")
    count(KeyRegistry, "partial_sign", "partial_sign")
    count(KeyRegistry, "_mac", "hmac")
    count(KeyRegistry, "combine", "combine")
    count(crypto.hmac, "compare_digest", "compare_digest")
    count(node, "partial_sort", "partial_sort")
    count(crypto, "tagged_digest", "tagged_digest")
    count(gbc, "tagged_digest", "tagged_digest")
    instances = 5
    config = SimConfig(
        params=SystemParams(n, f), seed=1, mode="lockstep", num_instances=instances, tx_load=8
    )
    log = run_simulation(config).log
    # one send record per envelope, listed once per recipient: each instance
    # run (one past the window) makes n proposals and 2 * n * n echoes, all
    # broadcasts
    sends = [r for r in log.records if r["kind"] == "send"]
    assert len({id(r) for r in sends}) == (n + 2 * n * n) * (instances + 1)
    assert len(sends) == n * (n + 2 * n * n) * (instances + 1)
    # every node verifies a quorum of echo shares per grade in each GBC of
    # each activated instance (one past the window), and no late share
    quorum = config.params.quorum
    assert calls["verify_partial"] == n * n * 2 * quorum * (instances + 1)
    assert calls["partial_sort"] <= WORK_BOUNDS[(n, f)]
    # the two grade tags of each GBC are hashed once per run, by the first
    # node the body reaches, and every node signs its echoes with them
    assert calls["tagged_digest"] == 2 * n * (instances + 1)
    # an echo envelope's share is one object for all its recipients, so its
    # MAC is compared at most once: the n echo envelopes per grade of each GBC
    assert calls["compare_digest"] <= 2 * n * n * (instances + 1)
    # each node signs those two tags in each GBC, and every verified share
    # was signed in the run, so the only MACs computed are the signatures
    assert calls["partial_sign"] == 2 * n * n * (instances + 1)
    assert calls["hmac"] == calls["partial_sign"]
    # lockstep hands every node the same quorum, so each grade's certificate
    # of each GBC is combined once per run and its delivery shared
    assert calls["combine"] == 2 * n * (instances + 1)


# -- one delivery per tagged digest in random runs -------------------------------------

# random runs, where nodes gather different quorums: byzantine-n16 and one
# pass of the fuzz-mix workload
SHARED_DELIVERY_CASES = ["byzantine_n16"] + list(range(24))
# byzantine-n16's combines at seed 1, one per tagged digest (one per quorum
# signer set would be 1 736)
BYZANTINE_N16_COMBINES = 142


@pytest.mark.parametrize("case", SHARED_DELIVERY_CASES)
def test_shared_deliveries_fit_every_correct_node(monkeypatch, case):
    """The one delivery per tagged digest that `KeyRegistry.deliveries`
    hands out is, at every correct node that holds it, a valid delivery of
    that node's own broadcast, at the grade of the slot it fills and over
    the node's own grade tag, and each is combined exactly once."""
    instances, combines = [], Counter()
    init, combine = AcsqInstance.__init__, KeyRegistry.combine

    def recorded(self, *args, **kwargs):  # pruned instances stay readable
        init(self, *args, **kwargs)
        instances.append(self)

    def counted(self, *args, **kwargs):
        combines["combine"] += 1
        return combine(self, *args, **kwargs)

    monkeypatch.setattr(AcsqInstance, "__init__", recorded)
    monkeypatch.setattr(KeyRegistry, "combine", counted)
    config = config_for(case)
    sim = run_simulation(config)
    correct = set(config.correct_nodes())
    checked = 0
    for inst in instances:
        if inst.node_id not in correct:
            continue
        slots = [(j, 1, g.delivered1) for j, g in inst.gbc.items()]
        slots += [(j, 2, g.delivered2) for j, g in inst.gbc.items()]
        slots += [(j, 2, gd) for j, gd in inst.M2.items()]
        for j, grade, gd in slots:
            if gd is None:
                continue
            assert gbc.verify_delivery(gd, inst.gbc_addr(j), config.params, sim.registry)
            assert gd.grade == grade
            g = inst.gbc[j]
            if g.tags is not None:
                assert gd.proof.tagged == g.tags[grade - 1]
            checked += 1
    assert checked
    assert combines["combine"] == len(sim.registry.deliveries)
    if case == "byzantine_n16":
        assert combines["combine"] == BYZANTINE_N16_COMBINES


# -- delay rules matched once per rule key ---------------------------------------------

# byzantine-n16's rule matches at seed 1: its two rules once for each of 71
# rule keys (matching both rules on every envelope dispatched made 7 262)
BYZANTINE_N16_RULE_MATCHES = 142


# lockstep runs with rules, whose every envelope looks up its rule key too
LOCKSTEP_RULE_CASES = ["adversarial_skew.ini", "late_proof_include.ini", "wrong_bit_one_path.ini"]


@pytest.mark.parametrize("case", SHARED_DELIVERY_CASES + LOCKSTEP_RULE_CASES)
def test_rules_are_matched_once_per_rule_key(monkeypatch, case):
    """`DelayRule.matches` runs only for a rule key new to the run: once per
    rule for each key `Simulation._delays` holds.  A run has fewer keys than
    it dispatches envelopes, and with the benchmark's two rules fewer
    matches too (`late_proof_include.ini`'s four rules make 228 matches over
    its 57 keys and 181 envelopes)."""
    calls = Counter()
    matches, dispatch = DelayRule.matches, Simulation._dispatch

    def counted_matches(self, env):
        calls["matches"] += 1
        return matches(self, env)

    def counted_dispatch(self, envelopes):
        calls["envelopes"] += len(envelopes)
        return dispatch(self, envelopes)

    monkeypatch.setattr(DelayRule, "matches", counted_matches)
    monkeypatch.setattr(Simulation, "_dispatch", counted_dispatch)
    config = config_for(case)
    sim = run_simulation(config)
    assert 0 < calls["matches"] == len(config.rules) * len(sim._delays)
    assert len(sim._delays) < calls["envelopes"]
    if case in SHARED_DELIVERY_CASES:
        assert calls["matches"] < calls["envelopes"]
    if case == "byzantine_n16":
        assert calls["matches"] == BYZANTINE_N16_RULE_MATCHES


# -- the echo-share shortcut against the instance router -------------------------------


def _handle_reference(self, env):
    """`Node.handle` with no shortcut: every envelope for an instance the
    node takes goes through `AcsqInstance.handle`."""
    k = env.addr.acsq_id
    inst = self.instances.get(k)
    if inst is None:
        if k > self.last_instance:
            self.log("drop", k=k, reason="beyond_window")
            return []
        if k > self.k + 1:
            self.held.setdefault(k, []).append(env)
            self.holds[k, type(env.body).__name__] += 1
            self.events.append(self.hold)
            return []
        if k < self.pruned_below:
            self.log("drop", k=k, reason="pruned_instance")
            return []
        inst = self._instance(k)
    before = len(inst.decided)
    sends = inst.handle(env)
    if len(inst.decided) != before:
        sends.extend(self._drive())
    return self._wrap(sends) if sends else []


# slices of the crash, echo2-hold and late-proof generators, which reach
# crashes, held envelopes, delivery assistance and inner-ABA rounds
ROUTING_SLICES = {
    f"{gen.__name__}({i})": functools.partial(gen, i)
    for gen, indices in (
        (crash_fuzz_config, range(0, 12, 2)),
        (echo2_hold_config, range(0, 40, 4)),
        (late_proof_config, range(0, 40, 4)),
    )
    for i in indices
}


@pytest.mark.parametrize("case", SCENARIOS + ["favorable_n16", "byzantine_n16"] + list(ROUTING_SLICES))
def test_echo_shortcut_logs_what_the_instance_router_logs(monkeypatch, case):
    config = ROUTING_SLICES[case]() if case in ROUTING_SLICES else config_for(case)
    got = run_simulation(config).log
    monkeypatch.setattr(Node, "handle", _handle_reference)
    want = run_simulation(config).log
    assert got.to_lines() == want.to_lines()
    assert got.records == want.records


def _own_echo_rule(env):
    """`Envelope.own_echo` as its definition gives it: an `Echo1` or `Echo2`
    whose share its sender signed has its round, anything else 0."""
    rounds = {Echo1: 1, Echo2: 2}
    body = env.body
    return rounds[type(body)] if type(body) in rounds and body.partial.signer == env.sender else 0


@pytest.mark.parametrize("case", SCENARIOS + ["favorable_n16", "byzantine_n16"] + list(ROUTING_SLICES))
def test_every_handled_envelope_carries_its_own_echo_value(monkeypatch, case):
    config = ROUTING_SLICES[case]() if case in ROUTING_SLICES else config_for(case)
    handle = Node.handle
    seen = Counter()

    def checked(self, env):
        assert env.own_echo == _own_echo_rule(env), env
        seen[env.own_echo] += 1
        return handle(self, env)

    monkeypatch.setattr(Node, "handle", checked)
    run_simulation(config)
    assert seen[0] and seen[1] and seen[2]


@pytest.mark.parametrize("case", [1, "byzantine_n16"])
def test_every_own_echo_in_range_skips_the_instance_router(monkeypatch, case):
    """An ACSQ instance starts with one silent broadcast at every index
    1..n and none outside it; activation unsilences all n and entering
    agreement mutes them all.  So each own-signed echo `Node.handle` takes
    for an in-range index, one that arrives before its `Propose` too, goes
    straight to its broadcast: none reaches `AcsqInstance.handle`."""
    config = config_for(case)
    ids = list(config.params.node_ids())
    init, activate, enter = AcsqInstance.__init__, AcsqInstance.activate, AcsqInstance._enter_agreement
    route, handle = AcsqInstance.handle, Node.handle
    current = [None]
    seen = Counter()

    def checked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        assert list(self.gbc) == ids and all(g.silenced for g in self.gbc.values())

    def checked_activate(self, own_block):
        out = activate(self, own_block)
        assert {g.silenced for g in self.gbc.values()} == {self.agreement_started}
        seen["activations"] += 1
        return out

    def checked_enter(self):
        out = enter(self)
        assert all(g.silenced for g in self.gbc.values())
        seen["agreements"] += 1
        return out

    def counted_route(self, env):
        if env is current[0] and env.own_echo and 1 <= env.addr.index <= self.params.n:
            seen["routed_echoes"] += 1
        return route(self, env)

    def counted_handle(self, env):
        if env.own_echo:
            inst = self.instances.get(env.addr.acsq_id)
            g = None if inst is None else inst.gbc.get(env.addr.index)
            seen["early_echoes"] += g is not None and g.received_block is None
        current[0] = env
        return handle(self, env)

    monkeypatch.setattr(AcsqInstance, "__init__", checked_init)
    monkeypatch.setattr(AcsqInstance, "activate", checked_activate)
    monkeypatch.setattr(AcsqInstance, "_enter_agreement", checked_enter)
    monkeypatch.setattr(AcsqInstance, "handle", counted_route)
    monkeypatch.setattr(Node, "handle", counted_handle)
    run_simulation(config)
    assert seen["activations"] and seen["agreements"] and seen["early_echoes"]
    assert seen["routed_echoes"] == 0


@pytest.mark.parametrize("relayed, tag", [(Echo1, 1), (Echo2, 2)])
def test_relayed_share_to_a_live_broadcast_takes_the_instance_router(monkeypatch, relayed, tag):
    """Node 4 relays signer 2's share from index 3's broadcast onto index
    2's live one: `Node.handle` drops it as `bad_signer`, as the router
    does, and node 1 still delivers index 2 from the real shares."""

    def deliver():
        sim = schedule(SimConfig(params=SystemParams(4, 1), seed=1, num_instances=1))
        receiver, registry = sim.nodes[1], sim.registry
        addr = InstanceAddr(1, Proto.GBC, 2)
        block = Block(2, 1, (Transaction(b"tx"),))
        elsewhere = cert_tag(InstanceAddr(1, Proto.GBC, 3), Block(3, 1, ()).digest, tag)
        out = [receiver.handle(Envelope(2, 1, addr, Propose(block)))]
        out.append(receiver.handle(Envelope(4, 1, addr, relayed(registry.partial_sign(2, elsewhere)))))
        for echo, t in ((Echo1, 1), (Echo2, 2)):
            for signer in (1, 2, 3):
                share = registry.partial_sign(signer, cert_tag(addr, block.digest, t))
                out.append(receiver.handle(Envelope(signer, 1, addr, echo(share))))
        assert 2 in receiver.instances[1].M2
        return out, sim.log.records

    got = deliver()
    assert [r["reason"] for r in got[1] if r["kind"] == "drop"] == ["bad_signer"]
    monkeypatch.setattr(Node, "handle", _handle_reference)
    assert got == deliver()
