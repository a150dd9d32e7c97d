import copy

import pytest

from falcon_bft.aba import AbaInstance, DoubleInput
from falcon_bft.core_types import (
    AbaDecided,
    Aux,
    Bval,
    InstanceAddr,
    Proto,
    SystemParams,
)

from support import LockstepBus, ShuffleBus

ADDR = InstanceAddr(1, Proto.AABA, 1)


def make_cluster(n, f, secret=b"aba-test"):
    params = SystemParams(n, f)
    nodes = {
        i: AbaInstance(ADDR, params, coin_secret=secret)
        for i in range(1, n + 1)
    }

    def handler(node):
        def handle(sender, body):
            if isinstance(body, Bval):
                return node.on_bval(sender, body)
            if isinstance(body, Aux):
                return node.on_aux(sender, body)
            if isinstance(body, AbaDecided):
                return node.on_decided(sender, body)
            return []

        return handle

    handlers = {i: handler(nodes[i]) for i in nodes}
    return params, nodes, handlers


def run_lockstep(nodes, handlers, inputs, n, max_hops=200):
    bus = LockstepBus(n, handlers)
    for i, b in inputs.items():
        bus.post(i, nodes[i].input(b))
    bus.run(max_hops)
    return bus


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("n,f", [(4, 1), (7, 2)])
def test_unanimous_inputs_decide_that_bit(n, f, bit):
    params, nodes, handlers = make_cluster(n, f)
    run_lockstep(nodes, handlers, {i: bit for i in nodes}, n)
    for node in nodes.values():
        assert node.decided == bit
        assert node.round - 1 <= 20


def test_double_input_rejected():
    _, nodes, _ = make_cluster(4, 1)
    nodes[1].input(1)
    with pytest.raises(DoubleInput):
        nodes[1].input(0)


@pytest.mark.parametrize("seed", range(30))
def test_split_inputs_agree_under_reordering(seed):
    params, nodes, handlers = make_cluster(4, 1)
    bus = ShuffleBus(4, handlers, seed=seed)
    inputs = {1: 0, 2: 0, 3: 1, 4: 1}
    for i, b in inputs.items():
        bus.post(i, nodes[i].input(b))
    bus.run()
    decided = {i: nodes[i].decided for i in nodes}
    assert all(b is not None for b in decided.values())
    assert len(set(decided.values())) == 1
    # validity: the decided bit was someone's input
    assert set(decided.values()) <= set(inputs.values())


@pytest.mark.parametrize("n,f", [(4, 1), (7, 2)])
def test_termination_bound_across_seeds(n, f):
    for seed in range(10):
        params, nodes, handlers = make_cluster(n, f, secret=b"seed%d" % seed)
        inputs = {i: (i + seed) % 2 for i in nodes}
        bus = ShuffleBus(n, handlers, seed=seed)
        for i, b in inputs.items():
            bus.post(i, nodes[i].input(b))
        bus.run()
        for node in nodes.values():
            assert node.decided is not None
            assert node.round - 1 <= 20


def test_halt_silences_instance():
    _, nodes, _ = make_cluster(4, 1)
    node = nodes[1]
    node.halt()
    assert node.on_bval(2, Bval(1, 1)) == []
    assert node.input(1) == []
    assert node.decided is None


def test_halt_after_decide_keeps_decision():
    params, nodes, handlers = make_cluster(4, 1)
    run_lockstep(nodes, handlers, {i: 1 for i in nodes}, 4)
    node = nodes[1]
    assert node.decided == 1
    node.halt()
    assert node.decided == 1


def test_decided_state_absorbs_messages():
    params, nodes, handlers = make_cluster(4, 1)
    run_lockstep(nodes, handlers, {i: 1 for i in nodes}, 4)
    node = nodes[1]
    before = node.decided
    node.on_bval(2, Bval(9, 0))
    node.on_aux(2, Aux(9, 0))
    assert node.decided == before


def test_decided_gadget_adoption():
    # f+1 decided messages decide a lagging node outright; n-f retire it
    params, nodes, _ = make_cluster(4, 1)
    node = nodes[1]
    node.input(0)
    node.on_decided(2, AbaDecided(1))
    assert node.decided is None
    out = node.on_decided(3, AbaDecided(1))
    assert node.decided == 1
    assert any(isinstance(s.body, AbaDecided) for s in out)
    node.on_decided(4, AbaDecided(1))
    assert node.retired


def test_all_instances_quiesce_retired_or_halted():
    params, nodes, handlers = make_cluster(4, 1)
    run_lockstep(nodes, handlers, {i: i % 2 for i in nodes}, 4)
    assert all(n.retired for n in nodes.values())


def test_pools_hold_no_finished_round():
    # split inputs under reordering play up to round 6 on these seeds
    rounds = []
    for seed in range(30):
        _, nodes, handlers = make_cluster(4, 1)
        bus = ShuffleBus(4, handlers, seed=seed)
        for i, b in {1: 0, 2: 0, 3: 1, 4: 1}.items():
            bus.post(i, nodes[i].input(b))
        bus.run()
        for node in nodes.values():
            rounds.append(node.round)
            assert all(r >= node.round for r in node.bval_pool), (seed, node.bval_pool)
            assert all(r >= node.round for r in node.aux_pool), (seed, node.aux_pool)
    assert max(rounds) > 2


def test_finished_round_messages_change_nothing():
    _, nodes, _ = make_cluster(4, 1)
    node = nodes[1]
    node.input(0)
    for sender in (1, 2, 3, 4):
        node.on_bval(sender, Bval(1, 0))
    for sender in (1, 2, 3):
        node.on_aux(sender, Aux(1, 0))
    assert node.round == 2 and node.active
    before = copy.deepcopy(vars(node))
    # f+1 BVALs for the other bit would make a live round relay it
    assert node.on_bval(2, Bval(1, 1)) == []
    assert node.on_bval(3, Bval(1, 1)) == []
    assert node.on_aux(4, Aux(1, 1)) == []
    assert vars(node) == before
