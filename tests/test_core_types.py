import hashlib
import random
from pathlib import Path

import pytest

from falcon_bft.core_types import (
    Amp,
    Assist,
    Aux,
    Block,
    Bval,
    Echo1,
    Envelope,
    GradedDelivery,
    InstanceAddr,
    Propose,
    Proto,
    Query,
    QueryResp,
    Sho1,
    Sho2,
    Stop,
    SystemParams,
    DecodeError,
    Transaction,
    decode_envelope,
    encode_block,
    encode_envelope,
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


def test_envelope_roundtrip_lossless():
    params = SystemParams(4, 1)
    registry = make_registry(4)
    rng = random.Random(42)
    for _ in range(200):
        env = _random_envelope(rng, registry, params)
        assert decode_envelope(encode_envelope(env)) == env


def test_envelope_decode_rejects_trailing_bytes():
    env = Envelope(1, 2, InstanceAddr(1, Proto.AABA, 1), Stop())
    with pytest.raises(ValueError):
        decode_envelope(encode_envelope(env) + b"\x00")


FIXTURES = [
    bytes.fromhex(line)
    for line in (Path(__file__).parent / "fixtures" / "envelopes.hex").read_text().splitlines()
]


def test_wire_format_frozen_against_fixtures():
    # hex-dumped envelopes pin the canonical encoding across refactors
    for raw in FIXTURES:
        env = decode_envelope(raw)
        assert encode_envelope(env) == raw


def test_every_fixture_truncation_raises_decode_error():
    cuts = 0
    for raw in FIXTURES:
        for end in range(len(raw)):
            with pytest.raises(DecodeError):
                decode_envelope(raw[:end])
            cuts += 1
    assert cuts == sum(len(raw) for raw in FIXTURES)


def _one_tx_propose(count: int) -> bytes:
    """A Propose for a one-tx block with the block's tx count overwritten."""
    block = Block(2, 1, (Transaction(b"only"),))
    raw = bytearray(encode_envelope(Envelope(2, 3, InstanceAddr(1, Proto.GBC, 2), Propose(block))))
    at = 4 + 4 + 9 + 1 + 4 + 8  # sender, recipient, addr, tag, length prefix, creator+instance
    assert raw[at : at + 4] == (1).to_bytes(4, "big")
    raw[at : at + 4] = count.to_bytes(4, "big")
    return bytes(raw)


def test_inflated_tx_count_raises_decode_error():
    # the nested block must fill its length prefix with exactly `count` txs;
    # no empty transactions are invented to make up the difference
    for count in (1000, 0x7FFFFFFF, 0):
        with pytest.raises(DecodeError):
            decode_envelope(_one_tx_propose(count))


def test_bad_tag_and_proto_raise_decode_error():
    raw = encode_envelope(Envelope(1, 2, InstanceAddr(1, Proto.AABA, 1), Stop()))
    proto_at, tag_at = 12, 17
    assert raw[proto_at] == Proto.AABA.value
    for at, value in ((tag_at, 99), (proto_at, 7), (proto_at, Proto.GBC.value)):
        bad = bytearray(raw)
        bad[at] = value
        with pytest.raises(DecodeError):
            decode_envelope(bytes(bad))
