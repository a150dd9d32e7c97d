import pytest

from falcon_bft.aaba import DoubleInput, InvalidOneInput
from falcon_bft.core_types import (
    Amp,
    InstanceAddr,
    Proto,
    Send,
    Sho1,
    Sho2,
    Stop,
)
from falcon_bft.crypto import ThresholdSig, sha256

from support import AabaCluster, LockstepBus, ShuffleBus, grade1_cert

K, J = 1, 2
ADDR = InstanceAddr(K, Proto.AABA, J)


def one_input(cluster, digest=None):
    digest = digest or sha256(b"block")
    return Amp(1, digest, grade1_cert(cluster.registry, cluster.params, K, J, digest))


def test_zero_input_broadcasts_amp():
    out = AabaCluster(addr=ADDR).nodes[1].give_input(Amp(0))
    amps = [s for s in out if isinstance(s, Send) and isinstance(s.body, Amp)]
    assert len(amps) == 1 and amps[0].body.bit == 0


def test_one_input_requires_certificate():
    cluster = AabaCluster(addr=ADDR)
    nodes = cluster.nodes
    with pytest.raises(InvalidOneInput):
        nodes[1].give_input(Amp(1, sha256(b"x"), None))
    junk = ThresholdSig(tagged=sha256(b"junk"), parts=((1, b"junk"),))
    with pytest.raises(InvalidOneInput):
        nodes[2].give_input(Amp(1, sha256(b"x"), junk))
    out = nodes[3].give_input(one_input(cluster))
    amps = [s for s in out if isinstance(s, Send) and isinstance(s.body, Amp)]
    assert amps and amps[0].body.bit == 1


def test_double_input_rejected():
    node = AabaCluster(addr=ADDR).nodes[1]
    node.give_input(Amp(0))
    with pytest.raises(DoubleInput):
        node.give_input(Amp(0))


def test_single_valid_amp_one_triggers_sho1_one():
    cluster = AabaCluster(addr=ADDR)
    node = cluster.nodes[1]
    node.give_input(Amp(0))
    value = one_input(cluster)
    out = node.handle(2, Amp(1, value.digest, value.proof))
    sho1s = [s for s in out if isinstance(s, Send) and isinstance(s.body, Sho1)]
    assert len(sho1s) == 1 and sho1s[0].body.bit == 1
    assert sho1s[0].body.proof is not None  # certificate rides along


def test_quorum_of_zero_amps_triggers_sho1_zero():
    node = AabaCluster(addr=ADDR).nodes[1]
    node.give_input(Amp(0))
    out = []
    for sender in (1, 2, 3):
        out += node.handle(sender, Amp(0))
    sho1s = [s for s in out if isinstance(s, Send) and isinstance(s.body, Sho1)]
    assert len(sho1s) == 1 and sho1s[0].body.bit == 0


def test_forged_amp_one_ignored():
    node = AabaCluster(addr=ADDR).nodes[1]
    node.give_input(Amp(0))
    junk = ThresholdSig(tagged=sha256(b"forged"), parts=((4, b"x"),))
    out = node.handle(4, Amp(1, sha256(b"fake"), junk))
    assert out == []
    assert 4 not in node.amp_counted  # a later valid amp from 4 still counts


def test_sho1_relay_even_after_other_bit():
    # a node that voted sho1(0) still relays sho1(1) at f+1 support
    cluster = AabaCluster(addr=ADDR)
    node = cluster.nodes[1]
    node.give_input(Amp(0))
    for sender in (1, 2, 3):
        node.handle(sender, Amp(0))
    assert node.sho1_sent == {0}
    value = one_input(cluster)
    out = node.handle(2, Sho1(1, value.digest, value.proof))
    assert not any(isinstance(s, Send) and isinstance(s.body, Sho1) for s in out)
    out = node.handle(3, Sho1(1, value.digest, value.proof))
    sho1s = [s for s in out if isinstance(s, Send) and isinstance(s.body, Sho1)]
    assert len(sho1s) == 1 and sho1s[0].body.bit == 1
    assert node.sho1_sent == {0, 1}


def test_sho1_quorum_grows_s_and_votes_sho2():
    node = AabaCluster(addr=ADDR).nodes[1]
    node.give_input(Amp(0))
    out = []
    for sender in (1, 2, 3):
        out += node.handle(sender, Sho1(0))
    assert node.S == {0}
    sho2s = [s for s in out if isinstance(s, Send) and isinstance(s.body, Sho2)]
    assert len(sho2s) == 1 and sho2s[0].body.bit == 0


def test_sho2_bits_outside_s_wait_for_s_growth():
    node = AabaCluster(addr=ADDR).nodes[1]
    node.give_input(Amp(0))
    # three sho2(0) votes buffered while S is empty
    for sender in (1, 2, 3):
        assert node.handle(sender, Sho2(0)) == []
    assert node.inner.round == 0
    out = []
    for sender in (1, 2, 3):
        out += node.handle(sender, Sho1(0))
    # S grew, the buffered votes now count, the all-zero shortcut fires
    assert node.inner.round > 0  # shortcut does not skip the inner agreement
    assert node.output == 0 and node.output_source == "shortcut"
    assert any(isinstance(s, Send) and isinstance(s.body, Stop) for s in out)


def test_stop_thresholds():
    node = AabaCluster(addr=ADDR).nodes[1]
    node.give_input(Amp(0))
    assert node.handle(2, Stop()) == []  # f stops: nothing
    out = node.handle(3, Stop())  # f+1: relay + output 0
    assert node.output == 0 and node.output_source == "stop"
    assert any(isinstance(s, Send) and isinstance(s.body, Stop) for s in out)
    node.handle(4, Stop())  # n-f: exit, inner halted
    assert node.inner.halted


def test_all_zero_early_stop_halts_inner_aba():
    cluster = AabaCluster(addr=ADDR)
    bus = LockstepBus(4, cluster.handlers)
    for i in cluster.nodes:
        bus.post(i, cluster.give_input(i, Amp(0)))
    bus.run()
    for node in cluster.nodes.values():
        assert node.inner.halted
        assert node.inner.decided is None  # exited before the inner ABA ran


def test_biased_validity_lockstep():
    cluster = AabaCluster(addr=ADDR)
    value = one_input(cluster)
    inputs = {1: value, 2: value, 3: Amp(0), 4: Amp(0)}
    bus = LockstepBus(4, cluster.handlers)
    for i in cluster.nodes:
        bus.post(i, cluster.give_input(i, inputs[i]))
    bus.run()
    assert {cluster.outputs[i].bit for i in cluster.nodes} == {1}


@pytest.mark.parametrize("seed", range(40))
def test_agreement_under_adversarial_reordering(seed):
    cluster = AabaCluster(addr=ADDR)
    value = one_input(cluster)
    inputs = {1: value, 2: Amp(0), 3: Amp(0), 4: Amp(0)}
    bus = ShuffleBus(4, cluster.handlers, seed=seed)
    for i in cluster.nodes:
        bus.post(i, cluster.give_input(i, inputs[i]))
    bus.run()
    outputs = cluster.outputs
    got = {o.bit for o in outputs.values()}
    assert len(got) == 1, f"disagreement: { {i: o.bit for i, o in outputs.items()} }"
    assert len(outputs) == 4


def test_late_engagement_replays_buffered_traffic():
    cluster = AabaCluster(addr=ADDR)
    handlers, late = cluster.handlers, cluster.nodes[4]
    bus = LockstepBus(4, {i: handlers[i] for i in (1, 2, 3)})
    for i in (1, 2, 3):
        bus.post(i, cluster.give_input(i, Amp(0)))
    # deliver everything among 1..3; what is sent to 4 waits, unhandled
    to_late = []
    while bus.queue:
        bus.hop = min(bus.queue)
        for sender, recipient, body in bus.queue.pop(bus.hop):
            if recipient == 4:
                to_late.append((sender, body))
            else:
                bus.post(recipient, handlers[recipient](sender, body))
    # 4 handles only its own traffic, and buffers all of it before its input
    for sender, body in to_late:
        late.handle(sender, body)
    assert late.output is None and len(late.buffered) == len(to_late) == 15
    cluster.give_input(4, Amp(0))
    assert late.output == 0  # replay catches it up instantly


def test_stop_exit_without_input_possible():
    # delivery-assistance peers may exit an instance they never joined
    node = AabaCluster(addr=ADDR).nodes[1]
    node.halt()
    assert node.inner.halted and node.handle(2, Stop()) == []
