"""Per-node driver: runs consecutive ACSQ instances and owns the chain.

The driver keeps instance k and at most its successor alive: once k has a
grade-2 quorum the node activates k+1 (proposing its next block), and the
first grade-2 delivery inside k+1 fires k's agreement trigger.  Messages
for k+1 arriving before local activation are processed passively: pools
fill and deliveries can complete, but no partial signatures leave the node.
Messages beyond k+1 wait in a holding area; messages past the last instance
the run can activate are dropped.  A live instance has passed those tests
and the pruning test (`k` only grows), so only a new instance is tested.

The driver (`_drive`, with sorting and pruning) runs only on progress:
after an envelope decided an index of the handled instance, so `handle`
compares the size of that instance's `decided` map, which only grows,
before and after the envelope.  A return follows a decision.  A grade-2
delivery that decides nothing comes after the instance entered agreement,
so it is past its quorum and its predecessor's trigger has fired.
Nothing else the driver reads changes outside the driver, so a run
without a decision would do nothing.

One instance past the configured window is still activated so the last
measured instance has a successor to fire its trigger from; that extra
instance is never waited on.

How a node drives an instance lives here and nowhere else: which block it
proposes (`_own_block`), what its agreement input for a missing index is
(`_agreement_input`), how its outgoing messages are addressed (`_wrap`),
and whether an instance may sort yet (`_sortable`).  The first three are
the seam for fault plugins, which override them in `Node` subclasses; the
crash plugin overrides the harness surface (`start`, `inject_tx`,
`handle`) instead.  `_sortable` is the seam for foils, the `Node`
subclasses that swap one of Falcon's mechanisms for the one it replaces.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Optional

from .acsq import AcsqInstance
from .core_types import Block, Envelope, Send, Transaction
from .crypto import KeyRegistry
from .sorter import SortCursor, partial_sort

if TYPE_CHECKING:
    from .simnet import EventLog, SimConfig

# an instance is pruned once it is sorted and more than this many below k
RETENTION = 2
# the most buffered transactions one proposed block carries
BLOCK_CAP = 32


class Node:
    def __init__(
        self,
        node_id: int,
        config: "SimConfig",
        registry: KeyRegistry,
        events: "EventLog",
    ):
        self.node_id = node_id
        self.config = config
        self.params = config.params
        self.registry = registry
        self.log = events.logger(node_id)
        # the last instance this run activates, one past the measured window
        self.last_instance = config.num_instances + 1

        self.buffer: Dict[bytes, Transaction] = {}  # txid -> tx, in arrival order
        self.chain: List[Block] = []
        self.cursor = SortCursor()
        self.k = 1
        self.instances: Dict[int, AcsqInstance] = {}
        self.held: Dict[int, List[Envelope]] = {}
        self.pruned_below = 1

    # -- harness surface ---------------------------------------------------------

    def inject_tx(self, tx: Transaction) -> None:
        self.buffer[tx.txid] = tx

    def start(self) -> List[Envelope]:
        return self._wrap(self._drive())

    def handle(self, env: Envelope) -> List[Envelope]:
        """Take one delivery of `env`; return the envelopes the node sends.

        An echo share from its own signer, which `env.own_echo` says once
        per envelope, to an in-range index, whose broadcast exists from the
        instance's start, goes straight to that broadcast's `on_echo1` or
        `on_echo2`.  Every other envelope, relayed shares included, goes
        through `AcsqInstance.handle`, which routes and tests it.
        """
        k = env.addr.acsq_id
        inst = self.instances.get(k)
        if inst is None:  # a live instance has passed these tests
            if k > self.last_instance:
                self.log("drop", k=k, reason="beyond_window")
                return []
            if k > self.k + 1:
                self.held.setdefault(k, []).append(env)
                self.log("held", k=k, body=type(env.body).__name__)
                return []
            if k < self.pruned_below:
                self.log("drop", k=k, reason="pruned_instance")
                return []
            inst = self._instance(k)
        before = len(inst.decided)
        echo = env.own_echo
        g = inst.gbc.get(env.addr.index) if echo else None
        if g is not None:
            partial = env.body.partial
            sub = g.on_echo1(partial) if echo == 1 else g.on_echo2(partial)
            if not sub:  # a broadcast decides no index
                return []
            sends = inst._absorb(env.addr.index, sub)
        else:
            sends = inst.handle(env)
        if len(inst.decided) != before:
            sends.extend(self._drive())
        return self._wrap(sends) if sends else []

    # -- driver ---------------------------------------------------------------------

    def _instance(self, k: int) -> AcsqInstance:
        if k not in self.instances:
            self.instances[k] = AcsqInstance(
                k,
                self.node_id,
                self.params,
                self.registry,
                log=self.log,
                input_policy=self._agreement_input,
            )
        return self.instances[k]

    def _drive(self) -> List[Send]:
        out: List[Send] = []
        while self.k <= self.config.num_instances:
            inst = self._instance(self.k)
            if not inst.active:
                out.extend(self._activate(self.k))
            nxt = self.instances.get(self.k + 1)
            if len(inst.M2) >= self.params.quorum and (nxt is None or not nxt.active):
                out.extend(self._activate(self.k + 1))
                nxt = self.instances[self.k + 1]
            if nxt is not None and nxt.M2:
                out.extend(inst.set_trigger())
            if not inst.returned:
                break
            self.k += 1
            self.log("adopt", k=self.k)
            out.extend(self._release_held())
        self._run_sorts()
        self._prune()
        return out

    def _activate(self, k: int) -> List[Send]:
        return self._instance(k).activate(self._own_block(k))

    def _own_block(self, k: int) -> Optional[Block]:
        """The block this node proposes in instance k; None proposes nothing."""
        txs = tuple(islice(self.buffer.values(), BLOCK_CAP))
        block = Block(self.node_id, k, txs)
        self.log("propose", k=k, digest=block.digest_hex, txs=len(txs))
        return block

    @staticmethod
    def _agreement_input(inst: AcsqInstance, j: int) -> List[Send]:
        """Give index j's agreement its input once instance `inst` enters agreement.

        A static method, so the instance holding it holds no reference back
        to its node.
        """
        return inst.honest_input(j)

    def _release_held(self) -> List[Send]:
        out: List[Send] = []
        k = self.k + 1
        for env in self.held.pop(k, []):
            out.extend(self._instance(k).handle(env))
        return out

    # -- sorting -------------------------------------------------------------------------

    def _commit(self, k: int, blocks: List[Block]) -> None:
        base = len(self.chain) - len(blocks)
        for i, block in enumerate(blocks):
            for tx in block.txs:
                self.buffer.pop(tx.txid, None)
            self.log(
                "commit",
                k=k,
                j=block.creator,
                slot=base + i + 1,
                digest=block.digest_hex,
                txids=list(block.txids_hex),
            )

    def _sortable(self, inst: AcsqInstance) -> bool:
        """Whether instance `inst` may write to the chain now.  Partial
        sorting always lets it: `partial_sort` commits the decided prefix."""
        return True

    def _run_sorts(self) -> None:
        while True:
            k = self.cursor.done_id + 1
            inst = self.instances.get(k)
            if inst is None or not self._sortable(inst):
                break
            done = partial_sort(self.cursor, k, self.params.n, inst.decided, self.chain)
            if done:
                self._commit(k, done)
            if self.cursor.done_id < k:
                break

    def _prune(self) -> None:
        horizon = min(self.k - RETENTION, self.cursor.done_id)
        if horizon <= self.pruned_below:  # every live instance is at or above that
            return
        for k in sorted(self.instances):
            if k >= horizon:
                break
            del self.instances[k]
            self.pruned_below = max(self.pruned_below, k + 1)

    # -- emission plumbing ------------------------------------------------------------------

    def _wrap(self, sends: List[Send]) -> List[Envelope]:
        """One envelope per send; a broadcast stays one, recipient None.

        Raises ValueError for a send whose body its address does not carry.
        """
        return [Envelope(self.node_id, to, addr, body) for addr, body, to in sends]
