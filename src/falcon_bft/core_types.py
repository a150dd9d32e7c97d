"""Shared domain vocabulary: identities, blocks, message envelopes, addressing.

All types here are immutable values, safe to copy between nodes.  Their
canonical encoding is length-prefixed, so distinct values never encode alike.
It is hashed and measured, never read back: `Block.digest` hashes
`encode_block`, `InstanceAddr.encode` scopes GBC certificate tags and the
coin, and `encode_envelope` sizes a message.  Nodes pass values, not bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple, Union

from .crypto import PartialSig, ThresholdSig, sha256


def u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def lp(data: bytes) -> bytes:
    """Length-prefix a byte string."""
    return u32(len(data)) + data


@dataclass(frozen=True)
class SystemParams:
    """Node count and fault tolerance; the quorums derive from these.

    The quorums are computed once, when the value is built, and take no
    part in equality, hashing or repr; `replace` recomputes them.
    """

    n: int
    f: int
    quorum: int = field(init=False, repr=False, compare=False)  # n - f
    small_quorum: int = field(init=False, repr=False, compare=False)  # f + 1

    def __post_init__(self):
        if self.f < 0 or self.n < 3 * self.f + 1:
            raise ValueError(f"need n >= 3f+1, got n={self.n} f={self.f}")
        object.__setattr__(self, "quorum", self.n - self.f)
        object.__setattr__(self, "small_quorum", self.f + 1)

    def node_ids(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class Transaction:
    payload: bytes
    txid: bytes = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "txid", sha256(self.payload))


@dataclass(frozen=True)
class Block:
    """Unit proposed by a node in one ACSQ instance.

    `digest_hex` and `txids_hex`, the hex of the digest and of each
    transaction's txid, are what the event log writes of a block; they are
    derived once per block, not once per node that logs it.  Equality,
    hashing, `repr` and `encode_block` ignore them, and
    `dataclasses.replace` derives them afresh.
    """

    creator: int
    instance: int
    txs: Tuple[Transaction, ...]
    digest: bytes = field(init=False)
    digest_hex: str = field(init=False, repr=False, compare=False)
    txids_hex: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        digest = sha256(encode_block(self))
        object.__setattr__(self, "digest", digest)
        object.__setattr__(self, "digest_hex", digest.hex())
        object.__setattr__(self, "txids_hex", tuple(tx.txid.hex() for tx in self.txs))


def encode_block(block: Block) -> bytes:
    """Injective canonical encoding: fixed-width header, length-prefixed txs."""
    out = [u32(block.creator), u32(block.instance), u32(len(block.txs))]
    for tx in block.txs:
        out.append(lp(tx.payload))
    return b"".join(out)


class Proto(enum.Enum):
    GBC = 1
    AABA = 2


@dataclass(frozen=True)
class InstanceAddr:
    """Routing address: ACSQ instance id plus sub-protocol slot.

    Assist/query traffic for slot j rides the AABA(j) address.
    """

    acsq_id: int
    proto: Proto
    index: int

    def encode(self) -> bytes:
        return u32(self.acsq_id) + bytes([self.proto.value]) + u32(self.index)


@dataclass(frozen=True)
class GradedDelivery:
    """A delivered block with its grade and quorum certificate."""

    block: Block
    grade: int
    proof: ThresholdSig


# --- message bodies ---------------------------------------------------------


@dataclass(frozen=True)
class Propose:
    block: Block


@dataclass(frozen=True)
class Echo1:
    partial: PartialSig


@dataclass(frozen=True)
class Echo2:
    partial: PartialSig


@dataclass(frozen=True)
class Amp:
    bit: int
    digest: Optional[bytes] = None
    proof: Optional[ThresholdSig] = None


@dataclass(frozen=True)
class Sho1:
    bit: int
    # bit=1 carries the grade-1 certificate along so every node that helps
    # amplify a 1 also learns which digest it is amplifying.
    digest: Optional[bytes] = None
    proof: Optional[ThresholdSig] = None


@dataclass(frozen=True)
class Sho2:
    bit: int


@dataclass(frozen=True)
class Stop:
    pass


@dataclass(frozen=True)
class Bval:
    round: int
    bit: int


@dataclass(frozen=True)
class Aux:
    round: int
    bit: int


@dataclass(frozen=True)
class AbaDecided:
    bit: int


@dataclass(frozen=True)
class Assist:
    delivery: GradedDelivery


@dataclass(frozen=True)
class Query:
    digest: bytes


@dataclass(frozen=True)
class QueryResp:
    block: Block


Body = Union[
    Propose, Echo1, Echo2, Amp, Sho1, Sho2, Stop, Bval, Aux, AbaDecided,
    Assist, Query, QueryResp,
]

GBC_BODIES = (Propose, Echo1, Echo2)
AABA_BODIES = (Amp, Sho1, Sho2, Stop, Bval, Aux, AbaDecided, Assist, Query, QueryResp)
# each body class -> (the protocol that carries it, its echo round or 0)
_BODY_KINDS = {cls: (Proto.AABA, 0) for cls in AABA_BODIES}
_BODY_KINDS.update({Propose: (Proto.GBC, 0), Echo1: (Proto.GBC, 1), Echo2: (Proto.GBC, 2)})


@dataclass(frozen=True)
class Envelope:
    """One message on the wire; recipient None is a broadcast to every node
    in id order, as for `Send.to`, kept as one envelope until delivered.

    `own_echo` is derived, once per envelope rather than once per recipient:
    1 or 2 for an `Echo1` or `Echo2` whose share its sender signed, 0 for
    any other body.  `Node.handle` reads it to route the share.  Equality,
    hashing, `repr` and `encode_envelope` ignore it, and
    `dataclasses.replace` derives it afresh.  `__init__` sets all five
    fields in one `__dict__` update; the value stays frozen.
    """

    sender: int
    recipient: Optional[int]
    addr: InstanceAddr
    body: Body
    own_echo: int = field(init=False, repr=False, compare=False)

    def __init__(self, sender: int, recipient: Optional[int], addr: InstanceAddr, body: Body):
        """Raise ValueError unless `addr`'s protocol carries `body`'s exact
        class; then set the fields, `own_echo` derived."""
        proto, echo = _BODY_KINDS.get(type(body), (None, 0))
        if proto is not addr.proto:
            raise ValueError(f"body {type(body).__name__} inconsistent with {addr.proto}")
        self.__dict__.update(sender=sender, recipient=recipient, addr=addr, body=body,
                             own_echo=echo if echo and body.partial.signer == sender else 0)


# --- canonical envelope encoding -------------------------------------------

_BODY_TAGS = {cls: tag for tag, cls in enumerate(GBC_BODIES + AABA_BODIES, 1)}


def _enc_partial(ps: PartialSig) -> bytes:
    return u32(ps.signer) + lp(ps.tagged) + lp(ps.mac)


def _enc_threshold(ts: ThresholdSig) -> bytes:
    out = [lp(ts.tagged), u32(len(ts.parts))]
    for signer, mac in ts.parts:
        out.append(u32(signer) + lp(mac))
    return b"".join(out)


def _enc_delivery(gd: GradedDelivery) -> bytes:
    return lp(encode_block(gd.block)) + u32(gd.grade) + _enc_threshold(gd.proof)


def _enc_opt(data: Optional[bytes]) -> bytes:
    return b"\x00" if data is None else b"\x01" + lp(data)


def encode_body(body: Body) -> bytes:
    tag = bytes([_BODY_TAGS[type(body)]])
    if isinstance(body, Propose):
        return tag + lp(encode_block(body.block))
    if isinstance(body, (Echo1, Echo2)):
        return tag + _enc_partial(body.partial)
    if isinstance(body, (Amp, Sho1)):
        proof = None if body.proof is None else _enc_threshold(body.proof)
        return tag + u32(body.bit) + _enc_opt(body.digest) + _enc_opt(proof)
    if isinstance(body, Sho2):
        return tag + u32(body.bit)
    if isinstance(body, Stop):
        return tag
    if isinstance(body, (Bval, Aux)):
        return tag + u32(body.round) + u32(body.bit)
    if isinstance(body, AbaDecided):
        return tag + u32(body.bit)
    if isinstance(body, Assist):
        return tag + _enc_delivery(body.delivery)
    if isinstance(body, Query):
        return tag + lp(body.digest)
    if isinstance(body, QueryResp):
        return tag + lp(encode_block(body.block))
    raise TypeError(f"unknown body {body!r}")


def encode_envelope(env: Envelope) -> bytes:
    return (
        u32(env.sender)
        + u32(env.recipient or 0)  # a broadcast's reads 0: each delivery keeps a unicast's size
        + env.addr.encode()
        + encode_body(env.body)
    )


# --- emissions from state machines ------------------------------------------
# A state machine returns a list of `Send`s and of the values it produced:
# a graded broadcast its `GradedDelivery`s and its broadcaster's `Block`,
# an AABA instance its `aaba.Output`.


class Send(NamedTuple):
    """Outbound message request; recipient None means broadcast to all n.
    A tuple: it lives only until `Node._wrap` makes it an `Envelope`."""

    addr: InstanceAddr
    body: Body
    to: Optional[int] = None
