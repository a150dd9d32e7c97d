import pytest

from falcon_bft.core_types import (
    Block,
    Echo1,
    Echo2,
    GradedDelivery,
    InstanceAddr,
    Propose,
    Proto,
    Send,
    SystemParams,
    Transaction,
)
from falcon_bft.crypto import tagged_digest
from falcon_bft.gbc import (
    AlreadyStarted,
    GbcInstance,
    cert_tag,
    verify_delivery,
)

from support import make_registry

PARAMS = SystemParams(4, 1)
ADDR = InstanceAddr(1, Proto.GBC, 1)


def make_instance(node_id=2, registry=None):
    """A broadcast at `node_id` whose ACSQ instance has activated: it echoes."""
    g = GbcInstance(ADDR, node_id, PARAMS, registry or make_registry(4))
    g.unsilence()
    return g


def make_block(creator=1, instance=1, payload=b"tx"):
    return Block(creator, instance, (Transaction(payload),))


def sends(emissions):
    return [e for e in emissions if isinstance(e, Send)]


def deliveries(emissions):
    return [e for e in emissions if isinstance(e, GradedDelivery)]


def echo1_for(registry, signer, block):
    return registry.partial_sign(signer, cert_tag(ADDR, block.digest, 1))


def echo2_for(registry, signer, block):
    return registry.partial_sign(signer, cert_tag(ADDR, block.digest, 2))


def test_start_fans_out_once():
    g = make_instance(node_id=1)
    block = make_block()
    out = sends(g.start(block))
    assert len(out) == 1 and out[0].to is None  # broadcast reaches all 4
    assert isinstance(out[0].body, Propose)
    with pytest.raises(AlreadyStarted):
        g.start(block)


def test_first_propose_echoes():
    g = make_instance()
    block = make_block()
    out = g.on_propose(1, block)
    assert block in out
    echoes = [s for s in sends(out) if isinstance(s.body, Echo1)]
    assert len(echoes) == 1
    assert g.registry.verify_partial(echoes[0].body.partial)


def test_conflicting_propose_ignored():
    g = make_instance()
    g.on_propose(1, make_block(payload=b"a"))
    out = g.on_propose(1, make_block(payload=b"b"))
    assert out == []
    assert g.received_block.txs[0].payload == b"a"


def test_propose_from_non_broadcaster_dropped():
    g = make_instance()
    assert g.on_propose(3, make_block(creator=1)) == []
    assert g.on_propose(1, make_block(creator=3, instance=1)) == []


def test_muted_propose_records_but_stays_silent():
    g = GbcInstance(ADDR, 2, PARAMS, make_registry(4))  # a broadcast starts silent
    out = g.on_propose(1, make_block())
    assert sends(out) == []
    assert g.received_block is not None  # body still counts as received


def test_grade1_delivery_and_echo2():
    registry = make_registry(4)
    g = make_instance(2, registry)
    block = make_block()
    g.on_propose(1, block)
    out = []
    for signer in (1, 2, 3):
        out += g.on_echo1(echo1_for(registry, signer, block))
    got = deliveries(out)
    assert len(got) == 1 and got[0].grade == 1
    assert verify_delivery(got[0], ADDR, PARAMS, registry)
    echo2s = [s for s in sends(out) if isinstance(s.body, Echo2)]
    assert len(echo2s) == 1


def test_equivocation_split_never_delivers():
    # 2+1 echo split across two digests stays below the quorum of 3
    registry = make_registry(4)
    g = make_instance(2, registry)
    block_a = make_block(payload=b"a")
    block_b = make_block(payload=b"b")
    g.on_propose(1, block_a)
    out = []
    out += g.on_echo1(echo1_for(registry, 1, block_a))
    out += g.on_echo1(echo1_for(registry, 2, block_a))
    out += g.on_echo1(echo1_for(registry, 3, block_b))
    assert deliveries(out) == []


def test_duplicate_partial_does_not_advance_pool():
    registry = make_registry(4)
    g = make_instance(2, registry)
    block = make_block()
    g.on_propose(1, block)
    out = []
    for _ in range(3):
        out += g.on_echo1(echo1_for(registry, 1, block))
    assert deliveries(out) == []


def test_invalid_partial_dropped():
    registry = make_registry(4)
    other = make_registry(4, seed=b"other")
    g = make_instance(2, registry)
    block = make_block()
    g.on_propose(1, block)
    out = []
    for signer in (1, 2, 3):
        out += g.on_echo1(other.partial_sign(signer, cert_tag(ADDR, block.digest, 1)))
    assert deliveries(out) == []


def test_grade2_delivery_after_grade1():
    registry = make_registry(4)
    g = make_instance(2, registry)
    block = make_block()
    g.on_propose(1, block)
    for signer in (1, 2, 3):
        g.on_echo1(echo1_for(registry, signer, block))
    out = []
    for signer in (1, 2, 3):
        out += g.on_echo2(echo2_for(registry, signer, block))
    got = deliveries(out)
    assert len(got) == 1 and got[0].grade == 2
    assert g.delivered1 is not None  # grade-2 implies local grade-1
    assert verify_delivery(got[0], ADDR, PARAMS, registry)


def test_echo2_quorum_before_body_buffers():
    registry = make_registry(4)
    g = make_instance(2, registry)
    block = make_block()
    out = []
    for signer in (1, 2, 3):
        out += g.on_echo1(echo1_for(registry, signer, block))
        out += g.on_echo2(echo2_for(registry, signer, block))
    assert deliveries(out) == []  # no body yet
    out = g.on_propose(1, block)
    grades = [d.grade for d in deliveries(out)]
    assert grades == [1, 2]


def test_at_most_one_echo_each():
    registry = make_registry(4)
    g = make_instance(2, registry)
    block = make_block()
    emitted = []
    emitted += g.on_propose(1, block)
    emitted += g.on_propose(1, block)
    for signer in (1, 2, 3):
        emitted += g.on_echo1(echo1_for(registry, signer, block))
    for signer in (1, 2, 3):
        emitted += g.on_echo2(echo2_for(registry, signer, block))
    echo1s = [s for s in sends(emitted) if isinstance(s.body, Echo1)]
    echo2s = [s for s in sends(emitted) if isinstance(s.body, Echo2)]
    assert len(echo1s) == 1 and len(echo2s) == 1


def test_unsilence_catches_up():
    registry = make_registry(4)
    g = GbcInstance(ADDR, 2, PARAMS, registry)
    block = make_block()
    assert sends(g.on_propose(1, block)) == []
    out = sends(g.unsilence())
    assert len(out) == 1 and isinstance(out[0].body, Echo1)


def test_verify_delivery_rejects_wrong_grade_and_subquorum():
    registry = make_registry(4)
    block = make_block()
    tag1 = cert_tag(ADDR, block.digest, 1)
    sig1 = registry.combine(
        [registry.partial_sign(i, tag1) for i in (1, 2, 3)], 3
    )
    assert verify_delivery(GradedDelivery(block, 1, sig1), ADDR, PARAMS, registry)
    # grade-1 certificate presented as grade 2
    assert not verify_delivery(GradedDelivery(block, 2, sig1), ADDR, PARAMS, registry)
    # f+1 partials are not a quorum certificate
    small = registry.combine([registry.partial_sign(i, tag1) for i in (1, 2)], 2)
    assert not verify_delivery(GradedDelivery(block, 1, small), ADDR, PARAMS, registry)
    # certificate bound to a different instance address
    other_addr = InstanceAddr(2, Proto.GBC, 1)
    assert not verify_delivery(GradedDelivery(block, 1, sig1), other_addr, PARAMS, registry)


def test_one_signer_cannot_grow_the_pool():
    # validly signed echoes over 10 000 distinct digests: only the first is kept
    registry = make_registry(4)
    g = make_instance(2, registry)
    for i in range(10_000):
        g.on_echo1(registry.partial_sign(4, tagged_digest(b"junk:%d" % i, 1)))
    assert sum(4 in pool for pool in g.pool1.values()) <= 1
    assert len(g.pool1) <= 1


def test_forged_share_does_not_shut_out_the_real_one():
    registry = make_registry(4)
    other = make_registry(4, seed=b"other")
    g = make_instance(1, registry)
    block = make_block()
    g.on_propose(1, block)
    g.on_echo1(other.partial_sign(2, cert_tag(ADDR, block.digest, 1)))
    real = echo1_for(registry, 2, block)
    g.on_echo1(real)
    assert g.pool1[real.tagged][2] == real


def test_late_echoes_dropped_unverified(monkeypatch):
    registry = make_registry(4)
    g = make_instance(2, registry)
    block = make_block()
    g.on_propose(1, block)
    for signer in (1, 2, 3):
        g.on_echo1(echo1_for(registry, signer, block))
        g.on_echo2(echo2_for(registry, signer, block))
    assert g.delivered2 is not None
    pools = {t: dict(p) for t, p in g.pool1.items()}, {t: dict(p) for t, p in g.pool2.items()}

    def no_verify(ps):
        raise AssertionError("a late share was verified")

    monkeypatch.setattr(registry, "verify_partial", no_verify)
    assert g.on_echo1(echo1_for(registry, 4, block)) == []
    assert g.on_echo2(echo2_for(registry, 4, block)) == []
    assert (g.pool1, g.pool2) == pools


def deliver_both(registry, node_id, block, signers):
    """A fresh instance at `node_id` given `block` and both grades' echoes
    from `signers`, in that order: its grade-1 and grade-2 deliveries."""
    g = make_instance(node_id, registry)
    g.on_propose(1, block)
    for signer in signers:
        g.on_echo1(echo1_for(registry, signer, block))
    for signer in signers:
        g.on_echo2(echo2_for(registry, signer, block))
    assert g.delivered1.block == g.received_block == block
    return g.delivered1, g.delivered2


def test_deliveries_shared_by_tagged_digest_whatever_the_signers():
    """Nodes of one registry share a delivery exactly where its tagged
    digest is the same (broadcast, block digest and grade), whoever signed
    their quorums: the first quorum's certificate, like a threshold
    signature, is the one value for that message."""
    registry = make_registry(4)
    block = make_block()
    first = deliver_both(registry, 1, block, (1, 2, 3))
    same = deliver_both(registry, 2, block, (3, 1, 2))
    other = deliver_both(registry, 3, block, (2, 3, 4))
    again = deliver_both(registry, 4, block, (1, 2, 3))
    twin = deliver_both(registry, 2, make_block(payload=b"twin"), (1, 2, 3))
    for grade in (1, 2):
        gd = first[grade - 1]
        assert gd.grade == grade
        assert [signer for signer, _ in gd.proof.parts] == [1, 2, 3]
        for shared in (same, other, again):
            assert shared[grade - 1] is gd
        assert twin[grade - 1].grade == grade and twin[grade - 1].block != block
    assert len({id(gd) for gd in first + twin}) == 4  # one per grade and block
    assert first[0].proof.tagged != first[1].proof.tagged
    for gd in first + same + other + again + twin:
        assert verify_delivery(gd, ADDR, PARAMS, registry)
