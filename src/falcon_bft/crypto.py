"""Threshold-signature mock and deterministic common coin.

The scheme is a transparent stand-in for threshold BLS: each node holds a
per-node MAC key derived from a system seed, a partial signature is the MAC
over a tagged digest, and a "combined" signature is simply the canonical
multiset of at least quorum-many verified partials.  The verifier registry
knows every MAC key, so verification is exact and the only way to produce a
partial attributed to a node is to hold that node's key.  This preserves the
unforgeability assumption the protocol proofs rely on while staying
dependency-free and bit-for-bit deterministic.

The registry remembers the MAC of every share it signs, keyed by tagged
digest and signer.  Every echo share is signed once and verified by
each of its n receivers, so verification compares against the remembered
MAC and computes one only for a pair the registry never signed.  The MAC
is a pure function of the key and the digest, so the remembered value is
the one verification would compute, and every share gets the same verdict
as without the memo.  Only `partial_sign` fills the memo, never a
presented share, so forged shares cannot grow it.  The last share accepted,
if its fields are `bytes`, is accepted again at once: a broadcast hands all
its receivers that one object.

The registry also holds gbc's two per-run tables, since every node of a
run shares it: `cert_tags`, each block's grade tags, and `deliveries`,
the first graded delivery built over each tagged digest.  Like a threshold
signature, one value per message whoever combines it, any quorum over a
tagged digest certifies the same thing, so every later node whose quorum
reaches that digest takes the stored delivery, whatever its signers.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

DIGEST_LEN = 32
# SHA-256's block size and HMAC's key pads, as byte translation tables
_BLOCK = 64
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class CryptoError(Exception):
    pass


class TooFewPartials(CryptoError):
    pass


class MixedMessages(CryptoError):
    pass


def _u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def tagged_digest(message: bytes, tag: int) -> bytes:
    """Digest binding a message to a tag number (grade 1 or 2 in practice)."""
    return sha256(message + _u32(tag))


@dataclass(frozen=True)
class PartialSig:
    """One node's share: MAC over a tagged digest under the signer's key."""

    signer: int
    tagged: bytes
    mac: bytes


@dataclass(frozen=True)
class ThresholdSig:
    """Quorum certificate: canonical tuple of (signer, mac) partials.

    Parts are sorted by signer so equal certificates encode identically.
    """

    tagged: bytes
    parts: Tuple[Tuple[int, bytes], ...]


class KeyRegistry:
    """Holds every node's MAC key plus the shared coin secret.

    Desk-scale stand-in for PKI + threshold-key setup: everything is derived
    from (n, system_seed), so two registries built from the same inputs agree
    at every node.
    """

    def __init__(self, n: int, system_seed: bytes = b""):
        self.n = n
        # each signer's HMAC inner and outer hash states after its padded key
        # (RFC 2104); a key is a digest, shorter than the block, so it pads
        # with zeros
        self._pads = {}
        for i in range(1, n + 1):
            key = sha256(b"falcon-share" + system_seed + _u32(i)).ljust(_BLOCK, b"\0")
            self._pads[i] = (
                hashlib.sha256(key.translate(_IPAD)),
                hashlib.sha256(key.translate(_OPAD)),
            )
        self.coin_secret = sha256(b"falcon-coin" + system_seed)
        # tagged -> signer -> MAC, for every share partial_sign produced
        self._signed: Dict[bytes, Dict[int, bytes]] = {}
        self._accepted: Optional[PartialSig] = None
        self.cert_tags: Dict[bytes, Tuple[bytes, bytes]] = {}
        # tagged -> the first gbc GradedDelivery built over it
        self.deliveries: Dict[bytes, object] = {}

    def _mac(self, signer: int, tagged: bytes) -> bytes:
        """HMAC-SHA256 of `tagged` under the signer's key: `hmac.digest`'s bytes."""
        inner, outer = self._pads[signer]
        h = inner.copy()
        h.update(tagged)
        o = outer.copy()
        o.update(h.digest())
        return o.digest()

    def partial_sign(self, signer: int, tagged: bytes) -> PartialSig:
        mac = self._mac(signer, tagged)
        self._signed.setdefault(tagged, {})[signer] = mac
        return PartialSig(signer=signer, tagged=tagged, mac=mac)

    def verify_partial(self, ps: PartialSig) -> bool:
        """Check the MAC only; binding to a concrete message needs verify_partial_for."""
        if ps is self._accepted:
            return True
        if not 1 <= ps.signer <= self.n or len(ps.tagged) != DIGEST_LEN:
            return False
        try:
            by_signer = self._signed.get(ps.tagged)
        except TypeError:  # an unhashable digest, such as a bytearray
            by_signer = None
        expected = by_signer.get(ps.signer) if by_signer else None
        if expected is None:
            expected = self._mac(ps.signer, ps.tagged)
        ok = hmac.compare_digest(ps.mac, expected)
        if ok and type(ps.tagged) is type(ps.mac) is bytes:
            self._accepted = ps
        return ok

    def verify_partial_for(self, ps: PartialSig, message: bytes, tag: int) -> bool:
        return ps.tagged == tagged_digest(message, tag) and self.verify_partial(ps)

    def combine(self, partials: Iterable[PartialSig], quorum: int) -> ThresholdSig:
        """Combine verified partials over one tagged digest into a certificate.

        Raises MixedMessages if the partials disagree on the tagged digest and
        TooFewPartials if fewer than `quorum` distinct signers contributed.
        """
        partials = iter(partials)
        first = next(partials, None)
        if first is None:
            raise TooFewPartials(f"need {quorum} distinct signers, got 0")
        tagged = first.tagged
        by_signer = {first.signer: first.mac}
        for ps in partials:
            if ps.tagged != tagged:
                raise MixedMessages("partials cover different tagged digests")
            by_signer[ps.signer] = ps.mac
        if len(by_signer) < quorum:
            raise TooFewPartials(
                f"need {quorum} distinct signers, got {len(by_signer)}"
            )
        parts = tuple(sorted(by_signer.items()))
        return ThresholdSig(tagged=tagged, parts=parts)

    def verify_threshold(self, ts: ThresholdSig, tagged: bytes, quorum: int) -> bool:
        if ts.tagged != tagged:
            return False
        signers = {s for s, _ in ts.parts}
        if len(signers) != len(ts.parts) or len(signers) < quorum:
            return False
        return all(
            self.verify_partial(PartialSig(s, ts.tagged, m)) for s, m in ts.parts
        )


def coin(shared_secret: bytes, scope: bytes) -> int:
    """Deterministic common coin: low bit of a digest over secret and scope."""
    return sha256(shared_secret + scope)[-1] & 1
