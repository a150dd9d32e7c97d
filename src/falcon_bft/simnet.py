"""Deterministic discrete-event network with programmable adversaries.

Time is an integer tick count, kept by the run's `EventLog` so that one
clock stamps every record.  At send time a message gets one in-memory
`send` record, whose `to` is its recipient or None for a broadcast, listed
once per delivery, and, for each tick it is due at, one entry in that
tick's FIFO queue: the envelope and its recipients due then, in id order,
so a broadcast stays one envelope.  The run delivers the smallest
pending tick's queue front to back.  Every delay is at least one tick, so
a tick's queue is complete before it is delivered: equal-time deliveries
replay in send order, and a (config, seed) pair maps to exactly one event
log, byte for byte.  Lockstep mode delivers every message one tick after
it was sent, which makes a tick equal to one communication round; random
mode draws each recipient's delay from the seeded generator; delay rules
add extra ticks to matching messages, matched once per run for each
message shape the rules tell apart.  The written log holds no `send`
record: once the queue drains, the run appends one `sends` record per
sender, protocol and body, written as node 0's, with the number of
deliveries sent.

Misbehaviour enters one way: a fault plugin is a `Node` subclass that acts
only through its own node's keys.  Silence, equivocation and wrong-bit
override the seam of `node.py`: `_own_block`, `_wrap` or `_agreement_input`;
silence proposes no block, equivocation sends the nodes of the other parity
a twin block, and wrong-bit inverts the node's agreement inputs (its forged
one-inputs carry junk certificates that verifiers reject).  Crash overrides
the harness surface: from a given tick on, the node starts nothing, takes
no txs and drops every envelope delivered to it.  A drop writes no line:
like a send, it lists an in-memory record, and the run appends one `drops`
record per crashed node, after the `sends` records and written the same
way, with the number of deliveries it dropped.  So does a node's hold of
an envelope for an instance past its next: after the `drops` come one
`holds` record per recipient, instance and body, with the number held.

A foil, the mechanism one of Falcon's replaces, enters the same way:
`SimConfig.variant` names a `Node` subclass that runs at every correct
node, while a faulty node keeps its fault plugin.
"""

from __future__ import annotations

import gc
import io
import json
import random
from collections import defaultdict, deque
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from .acsq import AcsqInstance
from .core_types import (
    AABA_BODIES,
    GBC_BODIES,
    Amp,
    Block,
    Envelope,
    Propose,
    Send,
    SystemParams,
    Transaction,
)
from .crypto import KeyRegistry, ThresholdSig, sha256
from .node import Node


class InvalidConfig(Exception):
    pass


class QuiesceError(RuntimeError):
    """A run went past `Simulation.max_events()` deliveries; the message is
    one line: each correct node's instance and the undecided AABA indices."""


MODES = ("lockstep", "random")
# zero bytes that pad each injected transaction's payload
TX_SIZE = 8
_RULE_BODIES = tuple(cls.__name__ for cls in GBC_BODIES + AABA_BODIES)
# a `DelayRule` field other than recipient -> where an envelope holds its value
_RULE_KEY_PATHS = {"sender": "sender", "body": "body.__class__.__name__",
                   "acsq_id": "addr.acsq_id", "index": "addr.index"}


@dataclass(frozen=True)
class DelayRule:
    """Extra delay for matching messages; None fields are wildcards."""

    sender: Optional[int] = None
    recipient: Optional[int] = None
    body: Optional[str] = None  # body class name, e.g. "Echo1"
    acsq_id: Optional[int] = None
    index: Optional[int] = None
    delay: int = 0

    def matches(self, env: Envelope) -> bool:
        """Every field but `recipient`, which is compared per recipient."""
        return all(getattr(self, name) in (None, attrgetter(path)(env))
                   for name, path in _RULE_KEY_PATHS.items())


@dataclass(frozen=True)
class FaultSpec:
    node: int
    kind: str
    at_time: int = 0


@dataclass
class SimConfig:
    params: SystemParams
    seed: int = 0
    mode: str = "lockstep"  # one of MODES
    delay_min: int = 1
    delay_max: int = 3
    rules: Tuple[DelayRule, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()
    num_instances: int = 1
    tx_load: int = 4
    variant: str = "falcon"  # a key of _VARIANT_NODE_CLASSES

    def validate(self) -> None:
        if self.mode not in MODES:
            raise InvalidConfig(f"unknown mode {self.mode!r}")
        if self.variant not in _VARIANT_NODE_CLASSES:
            raise InvalidConfig(f"unknown variant {self.variant!r}")
        if not 1 <= self.delay_min <= self.delay_max:
            raise InvalidConfig("need 1 <= delay_min <= delay_max")
        if self.num_instances < 1:
            raise InvalidConfig("need at least one instance")
        if self.tx_load < 0:
            raise InvalidConfig("tx_load must be non-negative")
        seen = set()
        for fs in self.faults:
            if fs.kind not in _FAULT_NODE_CLASSES:
                raise InvalidConfig(f"unknown fault kind {fs.kind!r}")
            if not 1 <= fs.node <= self.params.n:
                raise InvalidConfig(f"fault node {fs.node} out of range")
            if fs.node in seen:
                raise InvalidConfig(f"duplicate fault for node {fs.node}")
            if fs.at_time != 0 and fs.kind != "crash":
                raise InvalidConfig(f"at_time applies to crash faults only, not {fs.kind!r}")
            if fs.at_time < 0:
                raise InvalidConfig(f"crash tick {fs.at_time} is negative")
            seen.add(fs.node)
        if len(seen) > self.params.f:
            raise InvalidConfig("more faulty nodes than the tolerance f")
        # a rule field set outside these values would match no message
        ids = self.params.node_ids()
        domains = (
            ("sender", ids), ("recipient", ids), ("index", ids),
            ("acsq_id", range(1, self.num_instances + 2)), ("body", _RULE_BODIES),
        )
        for rule in self.rules:
            if rule.delay < 0:
                raise InvalidConfig("rule delays must be finite and non-negative")
            for name, domain in domains:
                value = getattr(rule, name)
                if value is not None and value not in domain:
                    raise InvalidConfig(f"rule {name} {value!r} matches no message")

    def correct_nodes(self) -> Tuple[int, ...]:
        bad = {fs.node for fs in self.faults}
        return tuple(i for i in self.params.node_ids() if i not in bad)


# -- fault plugins ----------------------------------------------------------------


class CrashNode(Node):
    """Dead from its fault's `at_time` tick on; `Node.handle` never sees what it
    drops.  Each drop writes no line: it lists this node's one in-memory
    `drop` entry, which has no `t` or `i`, and counts in `dropped`, which the
    run's `drops` summary record writes; `Node.events` is the run's clock."""

    def __init__(self, node_id: int, config: SimConfig, registry: KeyRegistry, events: "EventLog"):
        super().__init__(node_id, config, registry, events)
        self.at_time = next(fs.at_time for fs in config.faults if fs.node == node_id)
        self.drop = {"kind": "drop", "reason": "crashed", "node": node_id}
        self.dropped = 0

    def start(self) -> List[Envelope]:
        return super().start() if self.events.time < self.at_time else []

    def inject_tx(self, tx: Transaction) -> None:
        if self.events.time < self.at_time:
            super().inject_tx(tx)

    def handle(self, env: Envelope) -> List[Envelope]:
        if self.events.time < self.at_time:
            return super().handle(env)
        self.dropped += 1
        self.events.append(self.drop)
        return []


class SilentNode(Node):
    """Never broadcasts its own block; participates normally otherwise."""

    def _own_block(self, k: int) -> Optional[Block]:
        return None


class EquivocatingNode(Node):
    """Sends contradictory proposals: its block to the nodes of its own
    parity, a twin block to the others."""

    def _own_block(self, k: int) -> Block:
        block = super()._own_block(k)
        self.log("equivocate", k=k, a=block.digest_hex, b=_twin(block).digest_hex)
        return block

    def _wrap(self, sends: List[Send]) -> List[Envelope]:
        """Its Propose broadcast becomes one unicast per node, in id order."""
        out: List[Envelope] = []
        for env in super()._wrap(sends):
            if type(env.body) is Propose:  # only ever broadcast
                twin, own = Propose(_twin(env.body.block)), self.node_id % 2
                out.extend(Envelope(self.node_id, r, env.addr, env.body if r % 2 == own else twin)
                           for r in self.params.node_ids())
            else:
                out.append(env)
        return out


def _twin(block: Block) -> Block:
    """The equivocator's second block: the same txs plus a marker tx."""
    marker = Transaction(b"equiv:%d:%d" % (block.creator, block.instance))
    return Block(block.creator, block.instance, block.txs + (marker,))


class WrongBitNode(Node):
    """Inverts its agreement inputs: certified deliveries become zero votes,
    unseen blocks become forged one votes (rejected by the validity check)."""

    @staticmethod
    def _agreement_input(inst: AcsqInstance, j: int) -> List[Send]:
        if inst.gbc[j].delivered1 is not None:
            return inst.give_input(j, Amp(0))
        junk = sha256(b"forged:%d:%d:%d" % (inst.node_id, inst.k, j))
        proof = ThresholdSig(tagged=junk, parts=((inst.node_id, junk),))
        inst.log("aaba_input", k=inst.k, j=j, bit=1, q_valid=False)
        return [Send(inst.aaba_addr(j), Amp(1, junk, proof))]


_FAULT_NODE_CLASSES = {
    "crash": CrashNode,
    "silent": SilentNode,
    "equivocate": EquivocatingNode,
    "wrong_aaba_bit": WrongBitNode,
}


# -- foils --------------------------------------------------------------------------


class IntegralSortNode(Node):
    """Integral sorting: an instance writes to the chain only once every
    index is decided, so each block waits for the slowest agreement."""

    def _sortable(self, inst: AcsqInstance) -> bool:
        return len(inst.decided) == self.params.n


_VARIANT_NODE_CLASSES = {"falcon": Node, "integral_sort": IntegralSortNode}


# -- the simulation ------------------------------------------------------------------

class EventLog:
    """Append-only, totally ordered run record, written as `json.dumps` lines.

    The log owns the run's clock: `time` is the current tick, and every
    record a node writes through its `logger` is stamped with it.

    `records` holds every record, and three in-memory-only kinds are most of
    it.  A `send` record is one per envelope, its `to` the recipient or None
    for a broadcast, listed once per delivery, so a broadcast's entries are
    one dict.  A crashed node's `drop` record, `reason` `crashed`, is one
    per crashed node, listed once per delivery it drops; a node's `held`
    entry is one per node, listed once per envelope it holds.  Nothing
    writes to any of them once it is built.  `written` holds every other
    record: the records `to_lines` writes and `of_kind` finds, so a test
    that plants edited records assigns them to `written`.  The run's
    `sends`, `drops` and `holds` summary records count the in-memory
    entries: the send entries per sender, protocol and body, the drops per
    crashed node, and the holds per recipient, instance and body.

    `of_kind` reads a by-kind index of `written`, built in one pass and
    again whenever `written` is another list or another length, so
    `append` does no indexing work.
    """

    def __init__(self):
        self.records: List[dict] = []
        self.written: List[dict] = []
        self.time = 0
        # (written, its length, kind -> records) as of the last index build
        self._index: Tuple[List[dict], int, Dict[str, List[dict]]] = (self.written, 0, {})

    def append(self, record: dict) -> None:
        """Add `record` to `records`; unless it is a `send` record, a `held`
        entry or a crashed node's `drop`, also number it `i`, its line in
        `to_lines`, and add it to `written`."""
        kind = record["kind"]
        if kind != "send" and kind != "held" and (kind != "drop" or record["reason"] != "crashed"):
            record["i"] = len(self.written)
            self.written.append(record)
        self.records.append(record)

    def logger(self, node_id: int) -> Callable:
        """Node `node_id`'s record function; it holds the log and nothing else.
        A record is the call's keyword dict, given `kind`, `t` and `node`."""

        def log(kind: str, **fields):
            fields["kind"], fields["t"], fields["node"] = kind, self.time, node_id
            self.append(fields)

        return log

    def to_lines(self) -> bytes:
        """Each record of `written` as the line `json.dumps(rec, sort_keys=True,
        separators=(",", ":"))` gives, from one C encoder like that call's, but
        without its circular-reference check, as no record holds itself.  The
        lines stream into one buffer: a list of them would set a run's peak memory.
        """
        encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                                indent=None, key_separator=":", item_separator=",",
                                sort_keys=True, skipkeys=False, allow_nan=True)
        out = io.BytesIO()
        write = out.write
        for r in self.written:
            write(("".join(encode(r, 0)) + "\n").encode())
        return out.getvalue()

    def of_kind(self, kind: str) -> List[dict]:
        """A new list of the written records of `kind`, in log order."""
        written = self.written
        indexed, count, by_kind = self._index
        if indexed is not written or count != len(written):
            by_kind = {}
            for rec in written:
                same = by_kind.get(rec["kind"])
                if same is not None:
                    same.append(rec)
                else:
                    by_kind[rec["kind"]] = [rec]
            self._index = (written, len(written), by_kind)
        return list(by_kind.get(kind, ()))


class Simulation:
    # the delivery cap's floor and its deliveries per n**3 per instance run;
    # a healthy instance's two echo rounds make about 2 * n**3 deliveries
    MAX_EVENTS = 2_000_000
    EVENTS_PER_CUBE = 4

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.registry = KeyRegistry(config.params.n, system_seed=b"%d" % config.seed)
        self.rng = random.Random(config.seed)
        self.log = EventLog()
        # delivery tick -> (envelope, recipients due then) entries, in send order
        self._queue: Dict[int, Deque[Tuple[Envelope, Sequence[int]]]] = {}
        self._ids = tuple(config.params.node_ids())  # a broadcast's recipients
        # random mode's base delay is delay_min plus a draw below this width
        self._width = config.delay_max - config.delay_min + 1 if config.mode == "random" else 0
        # an envelope's rule key: its fields that some rule names, else `type`
        ruled = [path for name, path in _RULE_KEY_PATHS.items()
                 if any(getattr(rule, name) is not None for rule in config.rules)]
        self._rule_key = attrgetter(*ruled) if ruled else type
        self._delays: Dict[object, List[int]] = {}  # rule key -> delay by recipient
        # (sender, proto, body) -> deliveries sent, for the `sends` summary records
        self._sends: Dict[Tuple[int, str, str], int] = defaultdict(int)
        plugins = {fs.node: _FAULT_NODE_CLASSES[fs.kind] for fs in config.faults}
        base = _VARIANT_NODE_CLASSES[config.variant]
        self.nodes: Dict[int, Node] = {}
        for i in config.params.node_ids():
            self.nodes[i] = plugins.get(i, base)(i, config, self.registry, self.log)
        self._correct = config.correct_nodes()
        self._batches_injected = 0

    # -- scheduling ----------------------------------------------------------------

    def _delivery_groups(
        self, env: Envelope, recipients: Sequence[int]
    ) -> Iterable[Tuple[int, Sequence[int]]]:
        """(tick, recipients due then) for each delivery tick of `env`.

        A recipient's delay is its base delay, 1 in lockstep and in random
        mode drawn in id order as `randint(delay_min, delay_max)` draws it,
        plus the extra ticks of the first rule in file order that matches the
        envelope and names that recipient or none.  The rules are matched
        once per rule key, the first time the run meets that key, which
        tables the delay of each recipient, less its random draw.
        """
        now, rules, width = self.log.time, self.config.rules, self._width
        if not (rules or width):  # lockstep and no rule: all due one tick on
            return ((now + 1, recipients),)
        key = self._rule_key(env)
        delays = self._delays.get(key)
        if delays is None:  # a key new to this run
            matched = [rule for rule in rules if rule.matches(env)]
            delays = self._delays[key] = [(self.config.delay_min if width else 1) + next(
                (rule.delay for rule in matched if rule.recipient in (None, to)), 0
            ) for to in range(len(self._ids) + 1)]
        groups: Dict[int, List[int]] = defaultdict(list)
        if width:
            getrandbits, bits = self.rng.getrandbits, width.bit_length()
            for to in recipients:
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                groups[now + r + delays[to]].append(to)
        else:
            for to in recipients:
                groups[now + delays[to]].append(to)
        return groups.items()

    def _dispatch(self, envelopes: List[Envelope]) -> None:
        # every sender is live: it just started or handled an envelope
        now = self.log.time
        append = self.log.append
        queue, sends = self._queue, self._sends
        for env in envelopes:
            addr = env.addr
            recipients = self._ids if env.recipient is None else (env.recipient,)
            proto, body = addr.proto._name_, type(env.body).__name__
            sends[env.sender, proto, body] += len(recipients)
            send = {"kind": "send", "t": now, "node": env.sender, "to": env.recipient,
                    "k": addr.acsq_id, "proto": proto, "j": addr.index, "body": body}
            for _ in recipients:
                append(send)
            for t, group in self._delivery_groups(env, recipients):
                if t in queue:
                    queue[t].append((env, group))
                else:
                    queue[t] = deque(((env, group),))

    # -- tx load --------------------------------------------------------------------

    def _inject_batch(self, batch: int) -> None:
        log = self.log.logger(0)
        for t in range(self.config.tx_load):
            tx = Transaction(b"tx:%d:%d:" % (batch, t) + bytes(TX_SIZE))
            log("inject", batch=batch, txid=tx.txid.hex())
            for node in self.nodes.values():
                node.inject_tx(tx)
        self._batches_injected = batch

    def _maybe_inject(self) -> bool:
        """Inject the next batch once every correct node has reached its
        instance; at most one batch per call.  Returns whether it injected."""
        if self._batches_injected >= self.config.num_instances:
            return False
        nxt = self._batches_injected + 1
        if all(self.nodes[i].k >= nxt for i in self._correct):
            self._inject_batch(nxt)
            return True
        return False

    # -- run -----------------------------------------------------------------------------

    def run(self) -> "Simulation":
        """Deliver until no message is pending, then log the `sends` summary
        records in (sender, proto, body) order, one `drops` record per
        crashed node in id order and the `holds` records in (recipient, k,
        body) order; return this simulation, the
        finished run, whose `config`, `log` and `nodes` the observer and
        metrics read.  An enabled cycle collector is paused meanwhile:
        reference counting alone frees a finished run (pinned in
        tests/test_hot_path.py), so a collection in it frees nothing.  Then
        freeze() and unfreeze() move the survivors, in O(1), to the oldest
        generation, which no young collection walks; not while the caller
        holds frozen objects, since unfreeze() would thaw those too."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._inject_batch(1)
            for node in self.nodes.values():
                self._dispatch(node.start())
            queue, nodes, log = self._queue, self.nodes, self.log
            # each node and its `handle`, by id, bound when the run starts
            bound = [None, *((node, node.handle) for node in nodes.values())]
            # The injection test can only turn true when some node's k grows,
            # which happens inside that node's `handle`, or right after an
            # injection (one batch per test; the next may already be due).
            recheck = True
            processed, max_events = 0, self.max_events()
            while queue:
                t = min(queue)
                log.time = t
                due = queue.pop(t)
                while due:
                    env, recipients = due.popleft()  # freed once these recipients have it
                    for to in recipients:
                        node, handle = bound[to]
                        k = node.k
                        out = handle(env)
                        if out:
                            self._dispatch(out)
                        if recheck or node.k != k:
                            recheck = self._maybe_inject()
                    processed += len(recipients)
                    if processed > max_events:
                        raise self._quiesce_error()
            summary = log.logger(0)
            for (sender, proto, body), count in sorted(self._sends.items()):
                summary("sends", sender=sender, proto=proto, body=body, count=count)
            for node in nodes.values():
                if isinstance(node, CrashNode):
                    summary("drops", recipient=node.node_id, reason="crashed", count=node.dropped)
            for node in nodes.values():
                for (k, body), count in sorted(node.holds.items()):
                    summary("holds", recipient=node.node_id, k=k, body=body, count=count)
            return self
        finally:
            if enabled:
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()

    def max_events(self) -> int:
        """The most deliveries a run makes before it raises `QuiesceError`:
        `EVENTS_PER_CUBE` * n**3 per instance run, the measured ones and
        their successor, and never below `MAX_EVENTS`."""
        n, instances = self.config.params.n, self.config.num_instances + 1
        return max(self.MAX_EVENTS, self.EVENTS_PER_CUBE * n ** 3 * instances)

    def _quiesce_error(self) -> QuiesceError:
        ks, pending = [], {}  # pending: instance -> indices whose AABA has no output
        for i in self._correct:
            node = self.nodes[i]
            ks.append("%d:%d" % (i, node.k))
            for k, inst in node.instances.items():
                for j, aaba in inst.aaba.items():
                    if aaba.output is None and j not in inst.M2:
                        pending.setdefault(k, set()).add(j)
        stuck = " ".join("k=%d:%s" % (k, sorted(js)) for k, js in sorted(pending.items()))
        return QuiesceError(
            "simulation failed to quiesce within %d deliveries at t=%d: correct nodes' k %s; "
            "pending AABA indices %s" % (self.max_events(), self.log.time, " ".join(ks), stuck or "none")
        )


def schedule(config: SimConfig) -> Simulation:
    """Build a ready-to-run simulation; raises InvalidConfig on bad input."""
    return Simulation(config)


def run_simulation(config: SimConfig) -> Simulation:
    """Build and run a simulation; return the finished run."""
    return schedule(config).run()
