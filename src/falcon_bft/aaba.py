"""Asymmetrical binary agreement wrapping the plain ABA.

Zero inputs are accepted as-is; a one input must carry an externally
verifiable value and certificate (here: a block digest plus its grade-1
quorum certificate).  The pre-processing runs in two phases before the
inner ABA:

amplification   broadcast the input; one valid one-input seen, or n-f
                zero-inputs counted, yields the node's first sho1 vote.
shortcut        sho1 votes are filtered (f+1 to relay a bit, n-f to admit
                it into the local set S); the first admitted bit is echoed
                as the node's single sho2 vote.  n-f sho2 votes with bits
                inside S settle the path: all zero gives an immediate
                0-output (the inner ABA still gets a 0 input), any zero
                feeds 0 to the inner ABA, otherwise 1.

A node that outputs through the shortcut starts the early-stopping exchange:
f+1 stop votes let a node relay and output 0, n-f let it exit the instance
and halt the inner ABA outright.

Two artifact-level details:

* An instance only participates once it has been given an input; messages
  arriving earlier are buffered and replayed at that point, and a node that
  never joins (because it grade-2 delivered the block) stays silent and
  helps through delivery assistance instead.
* Messages voting for 1 (amp and sho1 alike) carry the digest/certificate
  pair along, so any node that ends up on the 1 path also learns which
  block digest it is agreeing on; the inclusion step needs that digest to
  query the block body if it never received it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .aba import AbaInstance, DoubleInput
from .core_types import (
    Amp,
    Aux,
    Bval,
    InstanceAddr,
    Proto,
    Send,
    Sho1,
    Sho2,
    Stop,
    SystemParams,
)
from .crypto import KeyRegistry, ThresholdSig
from .gbc import cert_tag


class InvalidOneInput(Exception):
    pass


class Output:
    """Local emission: this AABA instance produced its output bit."""

    __slots__ = ("bit", "source")

    def __init__(self, bit: int, source: str):
        self.bit = bit
        self.source = source  # shortcut | aba | stop


class AabaInstance:
    def __init__(
        self,
        addr: InstanceAddr,
        params: SystemParams,
        registry: KeyRegistry,
    ):
        self.addr = addr
        self.params = params
        self.registry = registry

        self.input: Optional[Amp] = None
        self.cnt0 = 0
        self.amp_counted: Set[int] = set()
        self.sho1_sent: Set[int] = set()
        self.sho1_pool: Dict[int, Set[int]] = {0: set(), 1: set()}
        self.sho2_votes: Dict[int, int] = {}  # sender -> bit, first per sender
        self.S: Set[int] = set()
        self.stop_pool: Set[int] = set()
        self.stop_sent = False
        self.output: Optional[int] = None
        self.output_source: Optional[str] = None
        self.known_proof: Optional[Tuple[bytes, ThresholdSig]] = None
        self.buffered: List[Tuple[int, object]] = []

        self.inner = AbaInstance(addr, params, coin_secret=registry.coin_secret)

    # -- validity predicate ----------------------------------------------------

    def q_check(self, digest: Optional[bytes], proof: Optional[ThresholdSig]) -> bool:
        """External validity: proof must be a grade-1 certificate for digest."""
        if digest is None or proof is None:
            return False
        gbc_addr = InstanceAddr(self.addr.acsq_id, Proto.GBC, self.addr.index)
        tagged = cert_tag(gbc_addr, digest, 1)
        return self.registry.verify_threshold(proof, tagged, self.params.quorum)

    def _note_proof(self, digest: Optional[bytes], proof: Optional[ThresholdSig]):
        if self.known_proof is None and self.q_check(digest, proof):
            self.known_proof = (digest, proof)

    # -- input -------------------------------------------------------------------

    def give_input(self, value: Amp) -> List[object]:
        """Take `value`, Amp(0) or Amp(1, digest, grade-1 certificate), as
        this node's input and broadcast it as the amplification vote."""
        if self.input is not None:
            raise DoubleInput(f"AABA {self.addr} already has an input")
        if value.bit == 1 and not self.q_check(value.digest, value.proof):
            raise InvalidOneInput("one-input lacks a valid certificate")
        self.input = value
        if self.inner.halted:
            return []
        self._note_proof(value.digest, value.proof)
        out: List[object] = [Send(self.addr, value)]
        backlog, self.buffered = self.buffered, []
        for sender, body in backlog:
            out.extend(self.handle(sender, body))
        return out

    # -- message entry point --------------------------------------------------------

    def handle(self, sender: int, body) -> List[object]:
        if self.inner.halted:
            return []
        if self.input is None:
            self.buffered.append((sender, body))
            return []
        cls = type(body)
        if cls is Amp:
            return self._on_amp(sender, body)
        if cls is Sho1:
            return self._on_sho1(sender, body)
        if cls is Sho2:
            return self._on_sho2(sender, body)
        if cls is Stop:
            return self._on_stop(sender)
        # the inner ABA's traffic: Bval, Aux or AbaDecided
        if cls is Bval:
            out = self.inner.on_bval(sender, body)
        elif cls is Aux:
            out = self.inner.on_aux(sender, body)
        else:
            out = self.inner.on_decided(sender, body)
        if self.inner.decided is not None:
            out.extend(self._produce_output(self.inner.decided, "aba"))
        return out

    # -- amplification phase -----------------------------------------------------

    def _on_amp(self, sender: int, msg: Amp) -> List[object]:
        if sender in self.amp_counted:
            return []
        out: List[object] = []
        if msg.bit == 1:
            if not self.q_check(msg.digest, msg.proof):
                return []  # forged one-input: ignored, sender slot not consumed
            self.amp_counted.add(sender)
            self._note_proof(msg.digest, msg.proof)
            if not self.sho1_sent:
                out.extend(self._send_sho1(1))
        elif msg.bit == 0:
            self.amp_counted.add(sender)
            self.cnt0 += 1
            if self.cnt0 >= self.params.quorum and not self.sho1_sent:
                out.extend(self._send_sho1(0))
        return out

    # -- shortcut phase -------------------------------------------------------------

    def _send_sho1(self, bit: int) -> List[object]:
        if bit in self.sho1_sent:
            return []
        self.sho1_sent.add(bit)
        if bit == 1:
            digest, proof = self.known_proof if self.known_proof else (None, None)
            return [Send(self.addr, Sho1(1, digest, proof))]
        return [Send(self.addr, Sho1(0))]

    def _on_sho1(self, sender: int, msg: Sho1) -> List[object]:
        if msg.bit not in (0, 1):
            return []
        if msg.bit == 1:
            self._note_proof(msg.digest, msg.proof)
        pool = self.sho1_pool[msg.bit]
        pool.add(sender)
        out: List[object] = []
        if len(pool) >= self.params.small_quorum and msg.bit not in self.sho1_sent:
            out.extend(self._send_sho1(msg.bit))
        if len(pool) >= self.params.quorum and msg.bit not in self.S:
            if not self.S:  # the first bit to enter S is the one Sho2 vote
                out.append(Send(self.addr, Sho2(msg.bit)))
            self.S.add(msg.bit)
            out.extend(self._eval_sho2())
        return out

    def _on_sho2(self, sender: int, msg: Sho2) -> List[object]:
        if msg.bit not in (0, 1):
            return []
        self.sho2_votes.setdefault(sender, msg.bit)
        return self._eval_sho2()

    def _eval_sho2(self) -> List[object]:
        """Accepted sho2 votes are re-counted whenever S grows, until a quorum
        of them gives the inner ABA its input (its round leaves 0)."""
        if self.inner.round:
            return []
        accepted = [b for b in self.sho2_votes.values() if b in self.S]
        if len(accepted) < self.params.quorum:
            return []
        out: List[object] = []
        if all(b == 0 for b in accepted):
            out.extend(self._produce_output(0, "shortcut"))
            out.extend(self._start_stop())
        if any(b == 0 for b in accepted):
            out.extend(self.inner.input(0))
        else:
            out.extend(self.inner.input(1))
        return out

    # -- early stopping ----------------------------------------------------------------

    def _start_stop(self) -> List[object]:
        if self.stop_sent:
            return []
        self.stop_sent = True
        return [Send(self.addr, Stop())]

    def _on_stop(self, sender: int) -> List[object]:
        self.stop_pool.add(sender)
        out: List[object] = []
        if len(self.stop_pool) >= self.params.small_quorum:
            out.extend(self._start_stop())
            if self.output is None:
                out.extend(self._produce_output(0, "stop"))
        if len(self.stop_pool) >= self.params.quorum:
            self.inner.halt()
        return out

    # -- output / halt --------------------------------------------------------------------

    def _produce_output(self, bit: int, source: str) -> List[object]:
        if self.output is not None:
            return []
        self.output = bit
        self.output_source = source
        return [Output(bit, source)]

    def halt(self) -> None:
        """External stop (delivery assistance): drop out, and drop the buffer."""
        self.inner.halt()
        self.buffered = []
