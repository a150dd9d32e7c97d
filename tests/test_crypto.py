import hmac

import pytest

from falcon_bft.core_types import InstanceAddr, Proto, SystemParams, u32
from falcon_bft.crypto import (
    KeyRegistry,
    MixedMessages,
    PartialSig,
    TooFewPartials,
    coin,
    sha256,
    tagged_digest,
)


@pytest.fixture
def registry():
    return KeyRegistry(4, system_seed=b"unit")


def test_sign_verify_roundtrip(registry):
    ps = registry.partial_sign(1, tagged_digest(b"hello", 1))
    assert registry.verify_partial_for(ps, b"hello", 1)


def test_tag_binding(registry):
    ps = registry.partial_sign(1, tagged_digest(b"hello", 1))
    assert not registry.verify_partial_for(ps, b"hello", 2)


def test_signer_binding(registry):
    ps = registry.partial_sign(1, tagged_digest(b"hello", 1))
    forged = PartialSig(signer=2, tagged=ps.tagged, mac=ps.mac)
    assert not registry.verify_partial(forged)


def test_tampered_mac_fails(registry):
    ps = registry.partial_sign(3, tagged_digest(b"hello", 1))
    bad = PartialSig(ps.signer, ps.tagged, bytes(32))
    assert not registry.verify_partial(bad)


def test_signed_pair_with_altered_mac_fails(registry):
    # the registry remembers this (signer, tagged) pair's MAC; a share that
    # names the pair but carries another MAC is still rejected
    ps = registry.partial_sign(2, tagged_digest(b"hello", 1))
    flipped = bytes([ps.mac[0] ^ 1]) + ps.mac[1:]
    assert not registry.verify_partial(PartialSig(ps.signer, ps.tagged, flipped))
    assert registry.verify_partial(ps)


def test_share_signed_elsewhere_verifies():
    # a pair this registry never signed takes the computed path
    signer_side = KeyRegistry(4, system_seed=b"unit")
    verifier = KeyRegistry(4, system_seed=b"unit")
    ps = signer_side.partial_sign(3, tagged_digest(b"hello", 2))
    assert verifier.verify_partial(ps)
    assert not verifier.verify_partial(PartialSig(ps.signer, ps.tagged, bytes(32)))
    assert not verifier._signed


def test_bytearray_digest_gets_the_same_verdict(registry):
    # a bytearray digest matches no memo key; it is checked by computing
    # its MAC
    ps = registry.partial_sign(1, tagged_digest(b"hello", 1))
    assert registry.verify_partial(PartialSig(1, bytearray(ps.tagged), ps.mac))
    assert not registry.verify_partial(PartialSig(1, bytearray(ps.tagged), bytes(32)))


@pytest.mark.parametrize("signed_here", [True, False])
def test_wrong_mac_right_after_an_accepted_share_is_rejected(registry, signed_here):
    # the registry keeps the share it last accepted; another share object
    # with that share's signer and digest but another MAC is still checked
    tagged = tagged_digest(b"hello", 1)
    signer_side = registry if signed_here else KeyRegistry(4, system_seed=b"unit")
    ps = signer_side.partial_sign(2, tagged)
    assert registry.verify_partial(ps)
    for mac in (bytes(32), bytes([ps.mac[0] ^ 1]) + ps.mac[1:], ps.mac[:-1]):
        assert not registry.verify_partial(PartialSig(ps.signer, ps.tagged, mac))
    assert registry.verify_partial(ps)
    assert not registry.verify_partial(PartialSig(ps.signer, ps.tagged, bytes(32)))


@pytest.mark.parametrize("field", ["tagged", "mac"])
def test_bytearray_share_is_checked_afresh_on_every_call(registry, field):
    # a share with a bytearray field is never taken as already accepted, so
    # changing that field after it was accepted gets it rejected
    ps = registry.partial_sign(1, tagged_digest(b"hello", 1))
    mutable = bytearray(getattr(ps, field))
    share = PartialSig(1, mutable, ps.mac) if field == "tagged" else PartialSig(1, ps.tagged, mutable)
    assert registry.verify_partial(share)
    mutable[0] ^= 1
    assert not registry.verify_partial(share)
    mutable[0] ^= 1
    assert registry.verify_partial(share)


def test_forged_shares_do_not_grow_the_memo(registry):
    def memo_size():
        return sum(len(by_signer) for by_signer in registry._signed.values())

    registry.partial_sign(1, tagged_digest(b"m", 1))
    size = memo_size()
    for i in range(10_000):
        forged = PartialSig(1 + i % 4, tagged_digest(b"forged:%d" % i, 1), bytes(32))
        assert not registry.verify_partial(forged)
    assert memo_size() == size == 1


@pytest.mark.parametrize("n, seed", [(1, b""), (4, b"unit"), (7, b"\xff" * 70), (16, b"falcon")])
def test_mac_is_hmac_sha256_under_the_signers_key(n, seed):
    """`_mac` gives `hmac.digest`'s bytes under each signer's derived key,
    for messages of 0-100 bytes, shorter and longer than the hash block."""
    registry = KeyRegistry(n, seed)
    for signer in range(1, n + 1):
        key = sha256(b"falcon-share" + seed + u32(signer))
        for size in range(101):
            message = bytes((signer * 31 + size + i) % 256 for i in range(size))
            assert registry._mac(signer, message) == hmac.digest(key, message, "sha256")


def test_combine_takes_a_generator(registry):
    """`combine` reads its partials once, so a generator gives the list's
    certificate and errors."""
    tagged = tagged_digest(b"m", 1)
    partials = [registry.partial_sign(i, tagged) for i in (3, 1, 4, 2)]
    assert registry.combine((ps for ps in partials), 3) == registry.combine(partials, 3)
    mixed = partials[:2] + [registry.partial_sign(4, tagged_digest(b"other", 1))]
    with pytest.raises(MixedMessages):
        registry.combine(iter(mixed), 3)
    with pytest.raises(TooFewPartials):
        registry.combine(iter(partials[:2]), 3)
    with pytest.raises(TooFewPartials):
        registry.combine(iter([]), 1)


def test_combine_quorum(registry):
    params = SystemParams(4, 1)
    partials = [registry.partial_sign(i, tagged_digest(b"m", 1)) for i in (1, 2, 3)]
    ts = registry.combine(partials, params.quorum)
    assert len(ts.parts) == 3
    assert registry.verify_threshold(ts, tagged_digest(b"m", 1), params.quorum)


def test_combine_too_few(registry):
    with pytest.raises(TooFewPartials):
        registry.combine(
            [registry.partial_sign(i, tagged_digest(b"m", 1)) for i in (1, 2)], 3
        )


def test_combine_duplicate_signers_do_not_count(registry):
    partials = [registry.partial_sign(1, tagged_digest(b"m", 1))] * 3
    with pytest.raises(TooFewPartials):
        registry.combine(partials, 3)


def test_combine_mixed_messages(registry):
    partials = [
        registry.partial_sign(1, tagged_digest(b"m", 1)),
        registry.partial_sign(2, tagged_digest(b"m", 1)),
        registry.partial_sign(3, tagged_digest(b"other", 1)),
    ]
    with pytest.raises(MixedMessages):
        registry.combine(partials, 3)


def test_combine_order_insensitive(registry):
    partials = [registry.partial_sign(i, tagged_digest(b"m", 1)) for i in (1, 2, 3)]
    assert registry.combine(partials, 3) == registry.combine(partials[::-1], 3)


def test_threshold_verify_rejects_subquorum(registry):
    partials = [registry.partial_sign(i, tagged_digest(b"m", 1)) for i in (1, 2)]
    ts = registry.combine(partials, 2)  # combined at a smaller threshold
    assert not registry.verify_threshold(ts, tagged_digest(b"m", 1), 3)


def test_certificate_cannot_name_a_node_that_never_signed(registry):
    # unforgeability under the simulation: fabricating a part for node 4
    # without its key breaks verification
    from falcon_bft.crypto import ThresholdSig

    good = [registry.partial_sign(i, tagged_digest(b"m", 1)) for i in (1, 2)]
    fake_part = (4, registry.partial_sign(1, tagged_digest(b"m", 1)).mac)
    ts = ThresholdSig(
        tagged=good[0].tagged,
        parts=tuple(sorted([(p.signer, p.mac) for p in good] + [fake_part])),
    )
    assert not registry.verify_threshold(ts, tagged_digest(b"m", 1), 3)


def test_coin_deterministic():
    a = KeyRegistry(4, b"s")
    b = KeyRegistry(4, b"s")
    scope = InstanceAddr(1, Proto.AABA, 2).encode() + u32(3)
    assert coin(a.coin_secret, scope) == coin(b.coin_secret, scope)


def test_coin_fraction_balanced():
    # derived by empirical count: 1000 successive rounds land near one half
    registry = KeyRegistry(4, b"coin-balance")
    scope_base = InstanceAddr(1, Proto.AABA, 1).encode()
    ones = sum(
        coin(registry.coin_secret, scope_base + u32(r)) for r in range(1000)
    )
    assert 400 <= ones <= 600


def test_distinct_scopes_unconstrained():
    registry = KeyRegistry(4, b"s2")
    bits = {
        coin(registry.coin_secret, InstanceAddr(1, Proto.AABA, j).encode() + u32(r))
        for j in range(1, 5)
        for r in range(1, 20)
    }
    assert bits == {0, 1}
