"""Shared test harnesses: a worker pool for runs that take a while, an AABA
cluster and tiny message buses for driving it outside the full node stack,
certificate builders, and gate mutants that the detector-sanity tests
install with pytest's monkeypatch."""

from __future__ import annotations

import importlib.util
import io
import multiprocessing
import os
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple
from unittest import mock

from falcon_bft import node as node_module
from falcon_bft import scenario as scenario_module
from falcon_bft.aaba import AabaInstance, Output
from falcon_bft.core_types import (
    Block,
    Echo2,
    Envelope,
    GradedDelivery,
    InstanceAddr,
    Proto,
    QueryResp,
    Send,
    SystemParams,
    Transaction,
)
from falcon_bft.crypto import KeyRegistry, ThresholdSig
from falcon_bft.gbc import GbcInstance, cert_tag
from falcon_bft.node import Node
from falcon_bft.simnet import DelayRule, FaultSpec, SilentNode, SimConfig


BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    """The benchmark's module `name`, loaded from its file: `bench/` is no
    package.  It is registered in `sys.modules` while it runs, as an import
    would, so that its dataclasses can resolve their annotations."""
    path = BENCH_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def in_workers(fn: Callable, items: Iterable) -> List:
    """`[fn(item) for item in items]`, worked out by min(4, CPUs) spawned
    worker processes.  `fn` and each item must pickle.  The workers run
    under a PYTHONHASHSEED other than this process's, so a result that
    depends on `str` hash order differs from the same call made here."""
    own_seed = os.environ.get("PYTHONHASHSEED", "random")
    worker_seed = str((int(own_seed) + 1) % 2**32) if own_seed.isdigit() else "1"
    spawn = multiprocessing.get_context("spawn")
    with mock.patch.dict(os.environ, PYTHONHASHSEED=worker_seed), \
            spawn.Pool(min(4, os.cpu_count() or 1)) as pool:
        return pool.map(fn, items)


def crash_fuzz_config(i: int) -> SimConfig:
    """The benchmark's `fuzz_config(i)` with its first fault replaced by a
    crash at tick (7 * i) % 70: at tick 0 every tenth run, mid-run otherwise."""
    config = load_bench_module("workloads").fuzz_config(i)
    first, *rest = config.faults
    crash = FaultSpec(first.node, "crash", at_time=(7 * i) % 70)
    return replace(config, faults=(crash, *rest))


def delayed_index_configs(variant: str) -> Tuple[SimConfig, SimConfig]:
    """Criterion 6's two runs under `variant`: n=4 at seed 5 with index 4's
    Echo2 40 ticks late, in one instance with 4 txs a batch and in three
    instances with 40."""
    return (
        SimConfig(params=SystemParams(4, 1), seed=5, num_instances=1, tx_load=4,
                  rules=(DelayRule(body="Echo2", proto="gbc", index=4, acsq_id=1, delay=40),),
                  variant=variant),
        SimConfig(params=SystemParams(4, 1), seed=5, num_instances=3, tx_load=40,
                  rules=(DelayRule(body="Echo2", proto="gbc", index=4, delay=40),),
                  variant=variant),
    )


def echo2_hold_config(i: int) -> SimConfig:
    """The benchmark's `fuzz_config(i)` with one or two indices' Echo2s held
    8-40 ticks: correct blocks miss grade 2 before the trigger, so agreement
    runs on certified one-inputs, and delivery assistance answers it."""
    rng = random.Random(i)
    config = load_bench_module("workloads").fuzz_config(i)
    n = config.params.n
    holds = tuple(
        DelayRule(body="Echo2", index=rng.randint(1, n), delay=rng.randint(8, 40))
        for _ in range(rng.randint(1, 2))
    )
    return replace(config, rules=holds + config.rules)


def late_proof_config(i: int) -> SimConfig:
    """A fault-free run where index j's Echo1 reaches all but f+1 nodes
    10-60 ticks late, and one of those late nodes also hears Amp and Sho1
    late: it can output 1 for j, through the inner ABA's DECIDED messages,
    before it holds j's grade-1 certificate.  n alternates 4/7; every third
    run is lockstep, the others random with 1-3 tick delays."""
    rng = random.Random(i)
    n, f = (4, 1) if i % 2 == 0 else (7, 2)
    j = rng.randint(1, n)
    victims = rng.sample(range(1, n + 1), n - f - 1)
    rules = [
        DelayRule(recipient=v, body="Echo1", index=j, delay=rng.randint(10, 60))
        for v in victims
    ]
    x = rng.choice(victims)
    d = rng.randint(5, 40)
    rules += [DelayRule(recipient=x, body=body, delay=d) for body in ("Amp", "Sho1")]
    return SimConfig(
        params=SystemParams(n, f),
        seed=i,
        mode="lockstep" if i % 3 == 0 else "random",
        delay_min=1,
        delay_max=3,
        num_instances=3,
        tx_load=2,
        rules=tuple(rules),
    )


class BodyForgingNode(SilentNode):
    """A silent node that, at start, sends every other node one made-up
    `QueryResp` per (instance, index), none of them asked for: each holds a
    block in the right slot that its creator never proposed.  Tests install
    it with `monkeypatch.setitem(simnet._FAULT_NODE_CLASSES, FORGE_BODIES,
    BodyForgingNode)`."""

    def start(self) -> List[Envelope]:
        out = super().start()
        ids = self.params.node_ids()
        for k in range(1, self.last_instance + 1):
            for j in ids:
                forged = QueryResp(Block(j, k, (Transaction(b"forged:%d:%d" % (k, j)),)))
                addr = InstanceAddr(k, Proto.AABA, j)
                out.extend(Envelope(self.node_id, r, addr, forged) for r in ids if r != self.node_id)
        return out


FORGE_BODIES = "forge_bodies"


def scenario_mutants(path: Path, count: int = 300):
    """`count` copies of a scenario file's bytes, each with 1-3 bytes
    overwritten by random values, drawn from a generator seeded by the
    file's name, so every caller sees the same mutants in the same order."""
    original = path.read_bytes()
    rng = random.Random(path.name)
    for _ in range(count):
        data = bytearray(original)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        yield bytes(data)


class _ScenarioBytes:
    """Stands in for `pathlib.Path` in `falcon_bft.scenario`: `read_text`
    reads `data` as a text file holding it reads, decoding strictly, so
    invalid UTF-8 raises, and translating newlines."""

    def __init__(self, data: bytes):
        self.data = data

    def read_text(self, encoding: str) -> str:
        return io.TextIOWrapper(io.BytesIO(self.data), encoding=encoding).read()


def load_scenario_bytes(data: bytes, name: str) -> SimConfig:
    """`load_scenario` of a file called `name` that holds `data`, read from
    memory: nothing is written to disk."""
    with mock.patch.object(scenario_module, "Path", lambda path: _ScenarioBytes(data)):
        return scenario_module.load_scenario(name)


def make_registry(n: int, seed: bytes = b"test") -> KeyRegistry:
    return KeyRegistry(n, system_seed=seed)


def grade1_cert(
    registry: KeyRegistry, params: SystemParams, k: int, j: int, digest: bytes
) -> ThresholdSig:
    """A valid grade-1 quorum certificate for a digest in GBC (k, j)."""
    tagged = cert_tag(InstanceAddr(k, Proto.GBC, j), digest, 1)
    partials = [
        registry.partial_sign(i, tagged) for i in range(1, params.quorum + 1)
    ]
    return registry.combine(partials, params.quorum)


class AabaCluster:
    """n AABA instances at `addr`, one per node, and the first `Output` each
    emits, from `handle` or from `give_input`, in `outputs`.  `handlers`
    hand a bus each node's `handle`."""

    def __init__(self, n: int = 4, f: int = 1, addr: InstanceAddr = InstanceAddr(1, Proto.AABA, 1)):
        self.params = SystemParams(n, f)
        self.registry = make_registry(n)
        self.nodes = {i: AabaInstance(addr, self.params, self.registry) for i in range(1, n + 1)}
        self.outputs: Dict[int, Output] = {}
        self.handlers = {i: lambda sender, body, i=i: self.handle(i, sender, body) for i in self.nodes}

    def handle(self, i: int, sender: int, body: object) -> List[object]:
        return self._record(i, self.nodes[i].handle(sender, body))

    def give_input(self, i: int, value: object) -> List[object]:
        return self._record(i, self.nodes[i].give_input(value))

    def _record(self, i: int, emissions: List[object]) -> List[object]:
        for item in emissions:
            if isinstance(item, Output):
                self.outputs.setdefault(i, item)
        return emissions


class _Bus:
    """What both buses share: a send fans out to its recipients, and a
    delivered message's emissions go back on the bus."""

    def __init__(self, n: int, handlers: Dict[int, Callable]):
        self.n = n
        self.handlers = handlers

    def post(self, sender: int, emissions: List[object]) -> None:
        for item in emissions:
            if isinstance(item, Send):
                for r in range(1, self.n + 1) if item.to is None else (item.to,):
                    self._put(sender, r, item.body)

    def _deliver(self, sender: int, recipient: int, body: object) -> None:
        if recipient in self.handlers:
            self.post(recipient, self.handlers[recipient](sender, body))


class LockstepBus(_Bus):
    """Hop-synchronous delivery: sent during hop h, delivered at hop h+1.

    handlers: node -> handle(sender, body) -> emissions.  delay_fn can push
    individual messages extra hops into the future.
    """

    def __init__(
        self,
        n: int,
        handlers: Dict[int, Callable],
        delay_fn: Optional[Callable] = None,
    ):
        super().__init__(n, handlers)
        self.delay_fn = delay_fn or (lambda sender, recipient, body: 0)
        self.hop = 0
        self.queue: Dict[int, List[Tuple[int, int, object]]] = {}

    def _put(self, sender: int, recipient: int, body: object) -> None:
        when = self.hop + 1 + self.delay_fn(sender, recipient, body)
        self.queue.setdefault(when, []).append((sender, recipient, body))

    def step(self) -> bool:
        if not self.queue:
            return False
        self.hop = min(self.queue)
        for message in self.queue.pop(self.hop):
            self._deliver(*message)
        return True

    def run(self, max_hops: int = 200) -> int:
        while self.queue and self.hop < max_hops:
            self.step()
        assert not self.queue, f"bus still busy after {max_hops} hops"
        return self.hop


class ShuffleBus(_Bus):
    """Adversarial reordering: every step delivers one randomly chosen
    in-flight message (seeded, hence reproducible)."""

    def __init__(self, n: int, handlers: Dict[int, Callable], seed: int):
        super().__init__(n, handlers)
        self.rng = random.Random(seed)
        self.pool: List[Tuple[int, int, object]] = []

    def _put(self, sender: int, recipient: int, body: object) -> None:
        self.pool.append((sender, recipient, body))

    def run(self, max_steps: int = 100_000) -> int:
        steps = 0
        while self.pool and steps < max_steps:
            self._deliver(*self.pool.pop(self.rng.randrange(len(self.pool))))
            steps += 1
        assert not self.pool, f"bus still busy after {max_steps} deliveries"
        return steps


# -- gate mutants -------------------------------------------------------------
# Each one removes a single safety gate from the unmodified library by
# replacing a name the library already looks up; the observer must catch it.


class EagerEcho2Gbc(GbcInstance):
    """Graded broadcast without the grade-1 gate: the Echo2 goes out with the
    Echo1, and grade 2 delivers whether or not grade 1 has."""

    def _maybe_echo1(self) -> List[object]:
        return super()._maybe_echo1() + self._maybe_echo2()

    def _maybe_echo2(self) -> List[object]:
        if self.echoed2 or self.silenced or self.received_block is None:
            return []
        self.echoed2 = True
        return [Send(self.addr, Echo2(self.registry.partial_sign(self.node_id, self.tags[1])))]

    def _try_deliveries(self) -> List[object]:
        out = super()._try_deliveries()
        block = self.received_block
        if block is None or self.delivered2 is not None:
            return out
        pool = self.pool2.get(self.tags[1], {})
        if len(pool) >= self.params.quorum:
            sig = self.registry.combine(pool.values(), self.params.quorum)
            self.delivered2 = GradedDelivery(block, 2, sig)
            out.append(self.delivered2)
        return out


def _q_check_any(self, digest, proof) -> bool:
    """One-input validity without the certificate check."""
    return digest is not None and proof is not None


def _sort_every_instance(self: Node) -> None:
    """Partial sorting without the cross-instance gate: every live instance
    writes to the chain as soon as its own low indices are decided.  The
    cursor holds the sorted position of the gated instance only, so each
    instance's own position is kept here, per node, and swapped in around
    its `partial_sort` call: every instance resumes where it stopped."""
    cursor = self.cursor
    positions = vars(self).setdefault("_ungated_pos", {})
    for k in sorted(self.instances):
        inst = self.instances[k]
        if not self._sortable(inst):
            continue
        saved = cursor.done_id, cursor.pos
        cursor.done_id, cursor.pos = k - 1, positions.get(k, 0)
        done = node_module.partial_sort(cursor, k, self.params.n, inst.decided, self.chain)
        finished = cursor.done_id == k
        positions[k] = self.params.n if finished else cursor.pos
        cursor.done_id, cursor.pos = (max(saved[0], k) if finished else saved[0]), saved[1]
        if done:
            self._commit(k, done)


_drive = Node._drive


def _drop_buffer_after_exclusion(self: Node) -> List[Send]:
    """The driver, then an emptied buffer while any live instance has
    excluded an index: the txs no committed block carries yet are lost."""
    out = _drive(self)
    if any(None in inst.decided.values() for inst in self.instances.values()):
        self.buffer.clear()
    return out


def unsorted_prefixes(log) -> List[Tuple[int, int]]:
    """The (node, instance) pairs whose commits in `log` are not, in order,
    the included indices of that instance's decided prefix at the end of
    the run (the indices up to its first undecided one).  Empty for a run
    in which every instance sorted what it decided, gated or not."""
    decided: Dict[Tuple[int, int], Dict[int, str]] = {}
    for rec in log.of_kind("decide"):
        decided.setdefault((rec["node"], rec["k"]), {})[rec["j"]] = rec["outcome"]
    committed: Dict[Tuple[int, int], List[int]] = {}
    for rec in log.of_kind("commit"):
        committed.setdefault((rec["node"], rec["k"]), []).append(rec["j"])
    bad = []
    for key in sorted(set(decided) | set(committed)):
        outcomes = decided.get(key, {})
        prefix = []
        j = 1
        while j in outcomes:
            if outcomes[j] == "include":
                prefix.append(j)
            j += 1
        if committed.get(key, []) != prefix:
            bad.append(key)
    return bad


def break_echo2_gate(monkeypatch) -> None:
    monkeypatch.setattr("falcon_bft.acsq.GbcInstance", EagerEcho2Gbc)


def break_q_check(monkeypatch) -> None:
    monkeypatch.setattr(AabaInstance, "q_check", _q_check_any)


def break_sort_gate(monkeypatch) -> None:
    monkeypatch.setattr(Node, "_run_sorts", _sort_every_instance)


def drop_buffer_on_exclusion(monkeypatch) -> None:
    monkeypatch.setattr(Node, "_drive", _drop_buffer_after_exclusion)
