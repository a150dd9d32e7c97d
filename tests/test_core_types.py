import copy
import hashlib
import random
from dataclasses import FrozenInstanceError, replace
from typing import get_args

import pytest

from falcon_bft.core_types import (
    AbaDecided,
    Amp,
    Assist,
    Aux,
    Block,
    Body,
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
    Sho1,
    Sho2,
    Stop,
    SystemParams,
    Transaction,
    encode_block,
    encode_envelope,
    lp,
)
from falcon_bft.crypto import sha256, tagged_digest

from support import grade1_cert, make_registry


def test_system_params_quorums():
    p = SystemParams(4, 1)
    assert p.quorum == 3
    assert p.small_quorum == 2
    with pytest.raises(ValueError):
        SystemParams(3, 1)


def test_quorum_intersection_property():
    # any two quorums of size n-f intersect in at least f+1 nodes
    for f in range(0, 6):
        for n in range(3 * f + 1, 3 * f + 8):
            p = SystemParams(n, f)
            assert p.quorum + p.quorum - n >= p.small_quorum


def test_encoding_distinct_creator():
    txs = (Transaction(b"a"),)
    b1 = Block(1, 1, txs)
    b2 = Block(2, 1, txs)
    assert encode_block(b1) != encode_block(b2)
    assert b1.digest != b2.digest


def test_encoding_deterministic():
    block = Block(3, 7, (Transaction(b"x"), Transaction(b"y")))
    assert encode_block(block) == encode_block(block)
    assert Block(3, 7, (Transaction(b"x"), Transaction(b"y"))).digest == block.digest


def test_encoding_zero_txs_vs_empty_payload_tx():
    # oracle: the manual length-prefix layout of each encoding
    empty = Block(1, 1, ())
    one_empty_tx = Block(1, 1, (Transaction(b""),))
    expected_empty = (1).to_bytes(4, "big") + (1).to_bytes(4, "big") + (0).to_bytes(4, "big")
    expected_one = (
        (1).to_bytes(4, "big")
        + (1).to_bytes(4, "big")
        + (1).to_bytes(4, "big")
        + (0).to_bytes(4, "big")
    )
    assert encode_block(empty) == expected_empty
    assert encode_block(one_empty_tx) == expected_one
    assert encode_block(empty) != encode_block(one_empty_tx)


def test_sha256_self_test():
    assert (
        hashlib.sha256(b"").hexdigest()
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert sha256(b"") == hashlib.sha256(b"").digest()


def test_block_digest_stable_across_nodes():
    a = Block(2, 5, (Transaction(b"pay"),))
    b = Block(2, 5, (Transaction(b"pay"),))
    assert a.digest == b.digest
    assert len(a.digest) == 32


def test_envelope_body_addr_consistency():
    gbc = InstanceAddr(1, Proto.GBC, 2)
    aaba = InstanceAddr(1, Proto.AABA, 2)
    Envelope(1, 2, gbc, Propose(Block(2, 1, ())))
    Envelope(1, 2, aaba, Sho2(0))
    with pytest.raises(ValueError):
        Envelope(1, 2, gbc, Sho2(0))
    with pytest.raises(ValueError):
        Envelope(1, 2, aaba, Propose(Block(2, 1, ())))
    with pytest.raises(ValueError):  # a broadcast is checked like a unicast
        Envelope(1, None, gbc, Sho2(0))
    for addr in (gbc, aaba):  # a value that is no message body
        with pytest.raises(ValueError):
            Envelope(1, 2, addr, Block(2, 1, ()))


def test_message_values_are_immutable():
    """An envelope, shared by all its recipients, stays frozen; a send is a
    tuple whose recipient defaults to None, a broadcast."""
    gbc = InstanceAddr(1, Proto.GBC, 2)
    ps = make_registry(4).partial_sign(3, tagged_digest(b"m", 1))
    env = Envelope(3, None, gbc, Echo1(ps))
    for name, value in [("sender", 4), ("recipient", 1), ("addr", gbc), ("body", Echo2(ps)),
                        ("own_echo", 0)]:
        with pytest.raises(FrozenInstanceError):
            setattr(env, name, value)
    assert (env.sender, env.recipient, env.body, env.own_echo) == (3, None, Echo1(ps), 1)
    send = Send(gbc, Echo1(ps))
    for name in ("addr", "body", "to"):
        with pytest.raises(AttributeError):
            setattr(send, name, None)
    assert send == Send(gbc, Echo1(ps), None) and hash(send) == hash(Send(gbc, Echo1(ps), None))
    assert send.to is None and Send(gbc, Echo1(ps), to=2) != send


def test_own_echo_is_derived_and_ignored_by_equality_hash_repr_and_encoding():
    """`own_echo` says whether an echo envelope's sender signed its share;
    an envelope forced to the other value is still the same envelope, and
    `dataclasses.replace` derives it afresh."""
    gbc = InstanceAddr(1, Proto.GBC, 2)
    ps = make_registry(4).partial_sign(3, tagged_digest(b"m", 1))
    own1, own2 = Envelope(3, None, gbc, Echo1(ps)), Envelope(3, 1, gbc, Echo2(ps))
    relayed = Envelope(4, 1, gbc, Echo2(ps))
    propose = Envelope(2, 1, gbc, Propose(Block(2, 1, ())))
    assert [env.own_echo for env in (own1, own2, relayed, propose)] == [1, 2, 0, 0]
    for env in (own1, own2, relayed, propose):
        forced = copy.copy(env)
        object.__setattr__(forced, "own_echo", 2 - env.own_echo)
        assert forced == env and hash(forced) == hash(env)
        assert repr(forced) == repr(env) and "own_echo" not in repr(env)
        assert encode_envelope(forced) == encode_envelope(env)
    assert replace(own1, sender=4).own_echo == 0
    assert replace(relayed, sender=3).own_echo == 2
    assert replace(own2, body=Echo1(ps)).own_echo == 1
    assert replace(own1, body=Propose(Block(2, 1, ()))).own_echo == 0


def test_block_log_strings_are_derived_and_ignored_by_equality_hash_repr_and_encoding():
    """`digest_hex` and `txids_hex` are the hex the event log writes of a
    block; a block forced to other strings is still the same block, and
    `dataclasses.replace` derives them afresh."""
    block = Block(2, 1, (Transaction(b"a"), Transaction(b"b")))
    assert block.digest_hex == block.digest.hex()
    assert block.txids_hex == tuple(tx.txid.hex() for tx in block.txs)
    assert Block(2, 1, ()).txids_hex == ()
    forced = copy.copy(block)
    object.__setattr__(forced, "digest_hex", "0" * 64)
    object.__setattr__(forced, "txids_hex", ())
    assert forced == block and hash(forced) == hash(block)
    assert repr(forced) == repr(block) and "_hex" not in repr(block)
    assert encode_block(forced) == encode_block(block)
    moved = replace(forced, txs=(Transaction(b"c"),))
    assert moved.digest_hex == moved.digest.hex() != block.digest_hex
    assert moved.txids_hex == (sha256(b"c").hex(),)
    again = replace(forced)
    assert (again.digest_hex, again.txids_hex) == (block.digest_hex, block.txids_hex)


def _random_envelope(rng: random.Random, registry, params) -> Envelope:
    k = rng.randint(1, 5)
    j = rng.randint(1, params.n)
    block = Block(j, k, tuple(Transaction(bytes([rng.randrange(256)])) for _ in range(rng.randrange(3))))
    cert = grade1_cert(registry, params, k, j, block.digest)
    signer = rng.randint(1, params.n)
    ps = registry.partial_sign(signer, tagged_digest(b"m", rng.choice((1, 2))))
    gbc = InstanceAddr(k, Proto.GBC, j)
    aaba = InstanceAddr(k, Proto.AABA, j)
    choices = [
        (gbc, Propose(block)),
        (gbc, Echo1(ps)),
        (aaba, Amp(0)),
        (aaba, Amp(1, block.digest, cert)),
        (aaba, Sho1(1, block.digest, cert)),
        (aaba, Sho1(0)),
        (aaba, Sho2(rng.randint(0, 1))),
        (aaba, Stop()),
        (aaba, Bval(rng.randint(1, 9), rng.randint(0, 1))),
        (aaba, Aux(rng.randint(1, 9), rng.randint(0, 1))),
        (aaba, Assist(GradedDelivery(block, 2, cert))),
        (aaba, Query(block.digest)),
        (aaba, QueryResp(block)),
    ]
    addr, body = rng.choice(choices)
    return Envelope(rng.randint(1, params.n), rng.randint(1, params.n), addr, body)


def _one_envelope_per_body(registry, params) -> list:
    """One envelope of each body type, Echo2 and AbaDecided included."""
    block = Block(2, 1, (Transaction(b"tx-a"), Transaction(b"")))
    cert = grade1_cert(registry, params, 1, 2, block.digest)
    ps = registry.partial_sign(3, tagged_digest(b"m", 2))
    gbc = InstanceAddr(1, Proto.GBC, 2)
    aaba = InstanceAddr(1, Proto.AABA, 2)
    bodies = [
        (gbc, Propose(block)),
        (gbc, Echo1(ps)),
        (gbc, Echo2(ps)),
        (aaba, Amp(1, block.digest, cert)),
        (aaba, Sho1(0)),
        (aaba, Sho2(1)),
        (aaba, Stop()),
        (aaba, Bval(3, 1)),
        (aaba, Aux(4, 0)),
        (aaba, AbaDecided(1)),
        (aaba, Assist(GradedDelivery(block, 2, cert))),
        (aaba, Query(block.digest)),
        (aaba, QueryResp(block)),
    ]
    return [Envelope(1 + i % 4, 4 - i % 4, addr, body) for i, (addr, body) in enumerate(bodies)]


def _pinned_envelopes() -> list:
    params = SystemParams(4, 1)
    registry = make_registry(4)
    envs = _one_envelope_per_body(registry, params)
    rng = random.Random(42)
    return envs + [_random_envelope(rng, registry, params) for _ in range(200)]


# sha256 over the length-prefixed encodings of _pinned_envelopes().  Block
# digests, certificate tags, the coin scope and the benchmark's byte counts
# all read this encoding, so these bytes must not change.
ENCODING_SHA256 = "5315faa5cea50050937bdf64dc398bed559c00eafd5d26fe47f6e69396cedd60"


def test_envelope_encoding_pinned():
    envs = _pinned_envelopes()
    assert {type(env.body) for env in envs[:13]} == set(get_args(Body))
    raw = b"".join(lp(encode_envelope(env)) for env in envs)
    assert hashlib.sha256(raw).hexdigest() == ENCODING_SHA256


def test_broadcast_encodes_to_a_unicast_size():
    """Each delivery of a broadcast envelope is sized as the unicast to
    its recipient, so byte counts do not depend on how it was sent."""
    for env in _pinned_envelopes():
        broadcast = Envelope(env.sender, None, env.addr, env.body)
        assert len(encode_envelope(broadcast)) == len(encode_envelope(env))


def test_distinct_envelopes_encode_to_distinct_bytes():
    envs = _pinned_envelopes()
    by_bytes = {}
    for env in envs:
        assert by_bytes.setdefault(encode_envelope(env), env) == env
    assert len(by_bytes) == len(set(envs))
