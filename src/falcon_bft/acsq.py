"""One ACSQ instance at one node: n graded broadcasts, agreement fill-in,
delivery assistance, and block-query recovery.

The broadcast stage runs until either all n blocks are grade-2 delivered
(agreement skipped entirely) or the driver fires this instance's trigger,
after which the node waits for a grade-2 quorum, mutes its broadcast-stage
partial signatures, and opens one AABA instance per missing index.  The
node's `input_policy` gives each its input through `give_input`; the
honest rule is `Node._agreement_input`.

Any grade-2 certificate adopted later, from a peer's assistance message or
from pools completing after the mute, immediately decides that index and
halts its AABA instance; from then on, AABA traffic for the index only
draws the assistance reply.  A 1-output is included once the node knows the
index's digest, from its own grade-1 delivery or from a certificate its AABA
saw, and holds the body.  The include step runs on the output, on every new
body, on the index's grade-1 delivery and after each AABA message for the
index, which may carry the certificate.  A node that knows the digest but
not the body recovers it by digest query; peers answer one query per index
and peer from whatever body they hold, deferring the answer until they hold
one, and a response counts only for a digest this node asked for.  A body
recovered by assistance or query stays in this layer (`known_blocks`): the
index's broadcast takes its body from the broadcaster alone.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from .aaba import AabaInstance, Output
from .core_types import (
    Amp,
    Assist,
    Block,
    Envelope,
    GradedDelivery,
    InstanceAddr,
    Propose,
    Proto,
    Query,
    QueryResp,
    Send,
    SystemParams,
)
from .crypto import KeyRegistry
from .gbc import GbcInstance, verify_delivery

# bound once: reading a member off its Enum class costs a lookup in the class
_GBC = Proto.GBC


class AcsqInstance:
    def __init__(
        self,
        k: int,
        node_id: int,
        params: SystemParams,
        registry: KeyRegistry,
        log: Callable,
        input_policy: Callable,
    ):
        self.k = k
        self.node_id = node_id
        self.params = params
        self.registry = registry
        self.log = log
        # (instance, j) -> sends: gives index j its agreement input
        self.input_policy = input_policy

        self.active = False
        self.trigger_active = False
        self.agreement_started = False
        self.returned = False

        # one broadcast per index, silent until `activate`
        self.gbc = {j: GbcInstance(self.gbc_addr(j), node_id, params, registry)
                    for j in params.node_ids()}
        self.aaba: Dict[int, AabaInstance] = {}
        self.M2: Dict[int, GradedDelivery] = {}
        # each decided index -> its block if included, None if excluded
        self.decided: Dict[int, Optional[Block]] = {}
        self.known_blocks: Dict[bytes, Block] = {}
        self.assist_sent: Set[Tuple[int, int]] = set()  # (index, peer)
        self.queries_taken: Set[Tuple[int, int]] = set()  # (index, peer)
        self.pending_queries: Dict[bytes, List[int]] = {}  # digest -> requesters
        self.pending_includes: Set[int] = set()  # 1-outputs not yet in `decided`
        self.queried: Set[bytes] = set()

    # -- sub-instance access ------------------------------------------------------

    def gbc_addr(self, j: int) -> InstanceAddr:
        return InstanceAddr(self.k, Proto.GBC, j)

    def aaba_addr(self, j: int) -> InstanceAddr:
        return InstanceAddr(self.k, Proto.AABA, j)

    def aaba_for(self, j: int) -> AabaInstance:
        if j not in self.aaba:
            self.aaba[j] = AabaInstance(self.aaba_addr(j), self.params, self.registry)
        return self.aaba[j]

    # -- activation ----------------------------------------------------------------

    def activate(self, own_block: Optional[Block]) -> List[Send]:
        """Go active: catch up withheld echoes and broadcast our own block."""
        if self.active:
            return []
        self.active = True
        self.log("activate", k=self.k)
        out: List[Send] = []
        for j, g in self.gbc.items():
            out.extend(self._absorb(j, g.unsilence()))
        if own_block is not None:
            out.extend(self._absorb(self.node_id, self.gbc[self.node_id].start(own_block)))
        out.extend(self._check_stage())
        return out

    def set_trigger(self) -> List[Send]:
        if self.trigger_active or self.returned:
            return []
        self.trigger_active = True
        self.log("trigger", k=self.k)
        return self._check_stage()

    # -- envelope routing --------------------------------------------------------------

    def handle(self, env: Envelope) -> List[Send]:
        addr = env.addr
        j = addr.index
        g = self.gbc.get(j)  # every index in range has its broadcast
        if g is None:
            self.log("drop", k=self.k, j=j, reason="bad_index")
            return []
        body = env.body
        if addr.proto is not _GBC:  # AABA_j's bodies, routed in this one call
            cls = type(body)
            if cls is Assist:
                return self._on_assist(j, body.delivery)
            if cls is Query:
                return self._on_query(j, env.sender, body.digest)
            if cls is QueryResp:
                return self._on_query_resp(j, body.block)
            if j in self.M2:
                # delivery assistance is all a decided index's agreement gets: answer
                # AABA_j traffic from anyone still running it (once per peer per index)
                if env.sender == self.node_id or (j, env.sender) in self.assist_sent:
                    return []
                self.assist_sent.add((j, env.sender))
                self.log("assist_sent", k=self.k, j=j, to=env.sender)
                return [Send(self.aaba_addr(j), Assist(self.M2[j]), to=env.sender)]
            a = self.aaba.get(j)
            if a is None:
                a = self.aaba_for(j)
            sub = a.handle(env.sender, body)
            out = self._absorb(j, sub) if sub else []
            if j in self.pending_includes:  # the body may have carried j's certificate
                out.extend(self._advance_includes())
            return out
        echo = env.own_echo
        # a share counts only from its own signer (`own_echo` is 0 for any
        # other): relayed from another broadcast, it would take the signer's
        # one place in the pool
        if not echo and type(body) is not Propose:
            self.log("drop", k=self.k, j=j, reason="bad_signer")
            return []
        if echo == 1:
            sub = g.on_echo1(body.partial)
        elif echo:
            sub = g.on_echo2(body.partial)
        else:
            sub = g.on_propose(env.sender, body.block)
        return self._absorb(j, sub) if sub else []

    def _absorb(self, j: int, sub: List[object]) -> List[Send]:
        """Interpret index j's sub-machine emissions, in order: a `Send` goes
        out, a `GradedDelivery` or the broadcaster's `Block` comes from the
        broadcast, an `Output` from AABA.  `Output` is the one item that is no
        protocol value: it pairs the bit with its path, and its place in the
        list puts the decision ahead of the `Stop` and inner-ABA sends that
        `_eval_sho2` emits after it.  Any other type is ignored."""
        out: List[Send] = []
        for item in sub:
            cls = type(item)
            if cls is Send:
                out.append(item)
            elif cls is GradedDelivery:
                out.extend(self._on_deliver(j, item))
            elif cls is Block:
                out.extend(self._note_body(item, via="gbc"))
            elif cls is Output:
                out.extend(self._on_aaba_output(j, item.bit, item.source))
        return out

    # -- broadcast-stage results -----------------------------------------------------

    def _on_deliver(self, j: int, gd: GradedDelivery) -> List[Send]:
        if gd.grade == 1:  # a broadcast delivers grade 1 once
            self.log("gbc_deliver", k=self.k, j=j, grade=1, digest=gd.block.digest_hex)
            return self._advance_includes() if j in self.pending_includes else []
        return self._adopt_grade2(j, gd, via="gbc")

    def _adopt_grade2(self, j: int, gd: GradedDelivery, via: str) -> List[Send]:
        if j in self.M2:
            return []
        self.M2[j] = gd
        kind = "gbc_deliver" if via == "gbc" else "da_adopt"
        self.log(kind, k=self.k, j=j, grade=2, digest=gd.block.digest_hex)
        out = self._note_body(gd.block, via=via)
        if j not in self.decided:
            self.decided[j] = gd.block
            self.log("decide", k=self.k, j=j, outcome="include", source=via)
        elif self.decided[j] is None:
            # excluded by an earlier 0-output; the decision stands (the observer
            # surfaces this, it cannot arise from correct-node schedules)
            self.log("late_grade2_after_exclusion", k=self.k, j=j)
        self.pending_includes.discard(j)
        if j in self.aaba:
            self.aaba[j].halt()
        out.extend(self._check_stage())
        return out

    def _note_body(self, block: Block, via: str) -> List[Send]:
        out: List[Send] = []
        if block.digest not in self.known_blocks:
            self.known_blocks[block.digest] = block
            self.log(
                "body_received",
                k=self.k,
                j=block.creator,
                digest=block.digest_hex,
                via=via,
            )
            # serve held-back queries now that we can
            for requester in self.pending_queries.pop(block.digest, []):
                self.log("query_resp_sent", k=self.k, to=requester, digest=block.digest_hex)
                out.append(
                    Send(self.aaba_addr(block.creator), QueryResp(block), to=requester)
                )
        out.extend(self._advance_includes())
        return out

    # -- stage transitions -------------------------------------------------------------

    def _check_stage(self) -> List[Send]:
        """Return once every index is decided, else enter agreement on the
        trigger plus a grade-2 quorum.  Activation, the trigger and every
        growth of M2 or `decided` call this."""
        if self.returned or not self.active:
            return []
        n = self.params.n
        if len(self.decided) == n:
            # no decision of its own: the one that completed the map moved
            # the driver gate, or the driver itself is activating the instance
            self.returned = True
            excluded = sorted(j for j, block in self.decided.items() if block is None)
            self.log(
                "instance_return",
                k=self.k,
                acs_size=n - len(excluded),
                excluded=excluded,
            )
            return []
        if self.trigger_active and not self.agreement_started and len(self.M2) >= self.params.quorum:
            return self._enter_agreement()
        return []

    def _enter_agreement(self) -> List[Send]:
        self.agreement_started = True
        for g in self.gbc.values():
            g.silenced = True
        self.log("agreement_enter", k=self.k, m2=len(self.M2))
        out: List[Send] = []
        for j in range(1, self.params.n + 1):
            if j in self.M2:
                continue
            out.extend(self.input_policy(self, j))
        return out

    def give_input(self, j: int, value: Amp) -> List[Send]:
        """Give index j's agreement its input `value`, and log it."""
        self.log("aaba_input", k=self.k, j=j, bit=value.bit, q_valid=value.bit == 1)
        return self._absorb(j, self.aaba_for(j).give_input(value))

    # -- agreement results ----------------------------------------------------------------

    def _on_aaba_output(self, j: int, bit: int, source: str) -> List[Send]:
        self.log("aaba_output", k=self.k, j=j, bit=bit, source=source)
        if j in self.decided:
            return []
        out: List[Send] = []
        if bit == 0:
            self.decided[j] = None
            self.log("decide", k=self.k, j=j, outcome="exclude", source="aaba")
        else:
            self.pending_includes.add(j)
            out.extend(self._advance_includes())
        out.extend(self._check_stage())
        return out

    def _advance_includes(self) -> List[Send]:
        """Push every pending 1-output toward inclusion: learn digest, fetch body.

        The digest comes from j's grade-1 delivery here, else from the grade-1
        certificate its AABA saw; both certify the one digest j can have."""
        out: List[Send] = []
        for j in sorted(self.pending_includes):
            m1 = self.gbc[j].delivered1
            if m1 is not None:
                digest = m1.block.digest
            elif self.aaba[j].known_proof is not None:
                digest = self.aaba[j].known_proof[0]
            else:
                continue  # certificate not seen yet
            block = self.known_blocks.get(digest)
            if block is not None:
                self.pending_includes.discard(j)
                self.decided[j] = block
                self.log("decide", k=self.k, j=j, outcome="include", source="aaba")
                out.extend(self._check_stage())
            elif digest not in self.queried:
                self.queried.add(digest)
                self.log("query_sent", k=self.k, j=j, digest=digest.hex())
                out.append(Send(self.aaba_addr(j), Query(digest)))
        return out

    # -- recovery traffic ---------------------------------------------------------------------

    def _on_assist(self, j: int, gd: GradedDelivery) -> List[Send]:
        if gd.grade != 2 or not verify_delivery(gd, self.gbc_addr(j), self.params, self.registry):
            self.log("drop", k=self.k, j=j, reason="bad_assist")
            return []
        return self._adopt_grade2(j, gd, via="assist")

    def _on_query(self, j: int, sender: int, digest: bytes) -> List[Send]:
        # a correct peer queries index j's one certified digest once, so
        # one query per (index, peer) is answered or queued, and no more
        if sender == self.node_id or (j, sender) in self.queries_taken:
            return []
        self.queries_taken.add((j, sender))
        block = self.known_blocks.get(digest)
        if block is not None:
            self.log("query_resp_sent", k=self.k, to=sender, digest=block.digest_hex)
            return [Send(self.aaba_addr(block.creator), QueryResp(block), to=sender)]
        # a peer may name one digest under several indices: one answer is enough
        waiting = self.pending_queries.setdefault(digest, [])
        if sender not in waiting:
            waiting.append(sender)
        return []

    def _on_query_resp(self, j: int, block: Block) -> List[Send]:
        # the queried digest came from a grade-1 certificate, so a body that
        # answers no query of ours is unsolicited and may be forged
        if block.instance != self.k or block.creator != j or block.digest not in self.queried:
            self.log("drop", k=self.k, j=j, reason="bad_query_resp")
            return []
        return self._note_body(block, via="query_resp")
