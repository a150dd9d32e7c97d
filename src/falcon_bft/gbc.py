"""Graded broadcast: one broadcaster, deliveries at grade 1 then grade 2.

Receivers echo a partial signature over the block digest tagged with the
grade; n-f matching tag-1 partials yield a grade-1 delivery plus the node's
tag-2 echo, and n-f tag-2 partials yield a grade-2 delivery.  A correct node
takes a body only from the broadcaster's own `Propose` and echoes its first
proposal only, which with quorum intersection gives consistency under an
equivocating broadcaster; a body recovered by assistance or query never
reaches the broadcast.  The tag-2 echo is gated on the node's own grade-1
delivery; that ordering is what makes grade-2 delivery imply that f+1
correct nodes already delivered at grade 1.  A block's grade tags are
hashed once per run and shared through `KeyRegistry.cert_tags`, and the
first delivery over a tagged digest goes through `KeyRegistry.deliveries`
to every node whose quorum reaches it: one certificate per message.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .core_types import (
    Block,
    Echo1,
    Echo2,
    GradedDelivery,
    InstanceAddr,
    Propose,
    Send,
    SystemParams,
)
from .crypto import KeyRegistry, PartialSig, tagged_digest


class AlreadyStarted(Exception):
    pass


def cert_tag(addr: InstanceAddr, digest: bytes, grade: int) -> bytes:
    """What a grade-`grade` echo or certificate for `digest` in GBC `addr` signs:
    the instance address bound to the block digest, tagged with the grade."""
    return tagged_digest(addr.encode() + digest, grade)


def verify_delivery(
    gd: GradedDelivery, addr: InstanceAddr, params: SystemParams, registry: KeyRegistry
) -> bool:
    """Check a ⟨B, g, σ⟩ triple: well-formed grade, block binding, quorum cert."""
    if gd.grade not in (1, 2):
        return False
    if gd.block.creator != addr.index or gd.block.instance != addr.acsq_id:
        return False
    tagged = cert_tag(addr, gd.block.digest, gd.grade)
    return registry.verify_threshold(gd.proof, tagged, params.quorum)


class GbcInstance:
    """Per-node state machine for one graded-broadcast instance.

    A broadcast starts silent: `unsilence`, when its ACSQ instance
    activates, is the one way it starts echoing, and the instance mutes it
    again on entering agreement (its trigger has fired and it holds a
    grade-2 quorum; `AcsqInstance._enter_agreement`).  While `silenced`, no
    new partial signatures are emitted, but pools still accumulate and
    deliveries still complete.
    """

    def __init__(
        self,
        addr: InstanceAddr,
        node_id: int,
        params: SystemParams,
        registry: KeyRegistry,
    ):
        self.addr = addr
        self.node_id = node_id
        self.params = params
        self.registry = registry
        self.silenced = True

        self.started = False
        self.received_block: Optional[Block] = None
        # the received block's grade-1 and grade-2 tagged digests
        self.tags: Optional[Tuple[bytes, bytes]] = None
        self.echoed1 = False
        self.echoed2 = False
        # pools keyed by the partial's tagged digest; signer -> partial.  A
        # signer's first verified share per grade is its only one, so a pool
        # holds at most n shares whatever a faulty signer sends.
        self.pool1: Dict[bytes, Dict[int, PartialSig]] = {}
        self.pool2: Dict[bytes, Dict[int, PartialSig]] = {}
        self.delivered1: Optional[GradedDelivery] = None
        self.delivered2: Optional[GradedDelivery] = None

    # -- broadcaster ---------------------------------------------------------

    def start(self, block: Block) -> List[object]:
        if self.started:
            raise AlreadyStarted(f"GBC {self.addr} already started")
        self.started = True
        return [Send(self.addr, Propose(block))]

    # -- receiver ------------------------------------------------------------

    def on_propose(self, sender: int, block: Block) -> List[object]:
        if sender != self.addr.index:
            return []  # only the broadcaster may propose in its own instance
        out = self.learn_body(block)
        if out:
            out.extend(self._maybe_echo1())
            out.extend(self._try_deliveries())
        return out

    def learn_body(self, block: Block) -> List[object]:
        """Take the broadcaster's block as this broadcast's body, once; the
        block itself is the emission that tells the caller it is known."""
        if block.creator != self.addr.index or block.instance != self.addr.acsq_id:
            return []
        if self.received_block is not None:
            return []
        self.received_block = block
        digest, table = block.digest, self.registry.cert_tags
        if digest not in table:  # past the checks above, the tags depend on it alone
            table[digest] = (cert_tag(self.addr, digest, 1), cert_tag(self.addr, digest, 2))
        self.tags = table[digest]
        return [block]

    def _maybe_echo1(self) -> List[object]:
        if self.echoed1 or self.silenced or self.received_block is None:
            return []
        self.echoed1 = True
        ps = self.registry.partial_sign(self.node_id, self.tags[0])
        return [Send(self.addr, Echo1(ps))]

    def _maybe_echo2(self) -> List[object]:
        if self.echoed2 or self.silenced or self.delivered1 is None:
            return []
        # delivered1 holds the received block, whose tags these are
        self.echoed2 = True
        ps = self.registry.partial_sign(self.node_id, self.tags[1])
        return [Send(self.addr, Echo2(ps))]

    def unsilence(self) -> List[object]:
        """Activation catch-up: emit the echoes withheld while passive."""
        if not self.silenced:
            return []
        self.silenced = False
        out = self._maybe_echo1()
        out.extend(self._maybe_echo2())
        return out

    # A pool is read only until its grade delivers, so a later share is
    # dropped before it is verified.  Only a verified share enters a pool,
    # so a forged share under a signer's id cannot shut out the real one;
    # the caller has bound the share to its sender, so a relayed one cannot
    # either.  A delivery needs a quorum in one pool, and every call that
    # could complete one with the shares already pooled has tried it.  The
    # two grades' bodies differ only in the pool and delivery they read.

    def on_echo1(self, ps: PartialSig) -> List[object]:
        if self.delivered1 is not None:
            return []
        pool, signer = self.pool1, ps.signer
        for shares in pool.values():
            if signer in shares:
                return []
        if not self.registry.verify_partial(ps):
            return []
        shares = pool.get(ps.tagged)
        if shares is None:
            shares = pool[ps.tagged] = {}
        shares[signer] = ps
        return self._try_deliveries() if len(shares) >= self.params.quorum else []

    def on_echo2(self, ps: PartialSig) -> List[object]:
        if self.delivered2 is not None:
            return []
        pool, signer = self.pool2, ps.signer
        for shares in pool.values():
            if signer in shares:
                return []
        if not self.registry.verify_partial(ps):
            return []
        shares = pool.get(ps.tagged)
        if shares is None:
            shares = pool[ps.tagged] = {}
        shares[signer] = ps
        return self._try_deliveries() if len(shares) >= self.params.quorum else []

    # -- delivery ------------------------------------------------------------

    def _try_deliveries(self) -> List[object]:
        out: List[object] = []
        if self.received_block is None:
            return out
        t1, t2 = self.tags
        quorum = self.params.quorum
        if self.delivered1 is None:
            pool = self.pool1.get(t1)
            if pool is not None and len(pool) >= quorum:
                self.delivered1 = self._delivery(1, t1, pool)
                out.append(self.delivered1)
                out.extend(self._maybe_echo2())
        if self.delivered2 is None and self.delivered1 is not None:
            pool = self.pool2.get(t2)
            if pool is not None and len(pool) >= quorum:
                self.delivered2 = self._delivery(2, t2, pool)
                out.append(self.delivered2)
        return out

    def _delivery(self, grade: int, tagged: bytes, pool: Dict[int, PartialSig]) -> GradedDelivery:
        """The grade-`grade` delivery of a quorum pool over `tagged`.

        Like a threshold signature, a certificate is one value per message:
        `tagged` fixes this broadcast, the block digest and the grade, and
        any quorum of verified shares over it certifies the same thing.  So
        the first pool over `tagged` to reach a quorum builds the delivery,
        naming its own signers, and the registry's table hands that object
        to every later pool over `tagged`, whatever its signers.
        """
        table = self.registry.deliveries
        gd = table.get(tagged)
        if gd is None:
            sig = self.registry.combine(pool.values(), self.params.quorum)
            gd = table[tagged] = GradedDelivery(self.received_block, grade, sig)
        return gd
