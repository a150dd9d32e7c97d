"""Round-based binary agreement used as a black box by the asymmetrical layer.

Structure per round r: broadcast BVAL(r, est); re-broadcast a bit supported
by f+1 senders; a bit backed by n-f senders enters bin_values[r]; once
bin_values is non-empty broadcast one AUX(r, w) with w from bin_values; on
n-f AUX values all inside bin_values, compare against the common coin for r
to decide or to pick the next round's estimate.

Two practical additions on top of the round machinery:

* A node that decided keeps playing subsequent rounds (its messages may be
  needed by slower nodes) instead of going silent.
* A decided node broadcasts a DECIDED message once.  f+1 matching DECIDED
  messages let a node adopt the decision directly, n-f let it retire the
  instance entirely.  This termination gadget is what makes every instance
  quiesce instead of exchanging round messages forever.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .core_types import AbaDecided, Aux, Bval, InstanceAddr, Send, SystemParams, u32
from .crypto import coin


class DoubleInput(Exception):
    pass


class AbaInstance:
    def __init__(self, addr: InstanceAddr, params: SystemParams, coin_secret: bytes):
        self.addr = addr
        self.params = params
        self.coin_secret = coin_secret

        self.round = 0  # 0 until input is given
        self.est: Optional[int] = None
        self.decided: Optional[int] = None
        self.halted = False  # external halt: absorb everything
        self.retired = False  # gadget-complete: stop emitting

        self.bval_sent: Dict[int, Set[int]] = {}
        self.aux_sent: Set[int] = set()
        self.bin_values: Dict[int, Set[int]] = {}
        self.bval_pool: Dict[int, Dict[int, Set[int]]] = {}  # round -> bit -> senders
        self.aux_pool: Dict[int, Dict[int, int]] = {}  # round -> sender -> bit
        self.decided_pool: Dict[int, Set[int]] = {0: set(), 1: set()}
        self.decided_sent = False

    @property
    def active(self) -> bool:
        return not (self.halted or self.retired)

    def coin_for(self, rnd: int) -> int:
        return coin(self.coin_secret, self.addr.encode() + u32(rnd))

    # -- input / halt ----------------------------------------------------------

    def input(self, b: int) -> List[object]:
        if self.round > 0:
            raise DoubleInput(f"ABA {self.addr} already has an input")
        if self.halted:
            return []
        self.est = b
        self.round = 1
        out = self._broadcast_bval(1, b)
        out.extend(self._evaluate())
        return out

    def halt(self) -> None:
        self.halted = True

    # -- message handlers -------------------------------------------------------

    def on_bval(self, sender: int, msg: Bval) -> List[object]:
        if self.halted or msg.bit not in (0, 1):
            return []
        self.bval_pool.setdefault(msg.round, {}).setdefault(msg.bit, set()).add(sender)
        return self._evaluate()

    def on_aux(self, sender: int, msg: Aux) -> List[object]:
        if self.halted or msg.bit not in (0, 1):
            return []
        self.aux_pool.setdefault(msg.round, {}).setdefault(sender, msg.bit)
        return self._evaluate()

    def on_decided(self, sender: int, msg: AbaDecided) -> List[object]:
        if self.halted or msg.bit not in (0, 1):
            return []
        self.decided_pool[msg.bit].add(sender)
        out: List[object] = []
        if len(self.decided_pool[msg.bit]) >= self.params.small_quorum:
            out.extend(self._decide(msg.bit))
        if len(self.decided_pool[msg.bit]) >= self.params.quorum:
            self.retired = True
        return out

    # -- round machinery ----------------------------------------------------------

    def _broadcast_bval(self, rnd: int, bit: int) -> List[object]:
        sent = self.bval_sent.setdefault(rnd, set())
        if bit in sent or self.retired:
            return []
        sent.add(bit)
        # own broadcast also counts toward our pool via the network loopback
        return [Send(self.addr, Bval(rnd, bit))]

    def _decide(self, bit: int) -> List[object]:
        out: List[object] = []
        if self.decided is None:
            self.decided = bit
            self.est = bit
        if not self.decided_sent and not self.retired:
            self.decided_sent = True
            out.append(Send(self.addr, AbaDecided(bit)))
        return out

    def _evaluate(self) -> List[object]:
        """Run every threshold rule that currently fires; loop until stable."""
        out: List[object] = []
        if self.round == 0 or not self.active:
            return out
        progress = True
        while progress and self.active:
            progress = False
            rnd = self.round
            pools = self.bval_pool.get(rnd, {})
            binv = self.bin_values.setdefault(rnd, set())
            for bit in (0, 1):
                senders = pools.get(bit, set())
                if len(senders) >= self.params.small_quorum:
                    emitted = self._broadcast_bval(rnd, bit)
                    if emitted:
                        out.extend(emitted)
                        progress = True
                if len(senders) >= self.params.quorum and bit not in binv:
                    binv.add(bit)
                    progress = True
            if binv and rnd not in self.aux_sent and not self.retired:
                self.aux_sent.add(rnd)
                w = min(binv)
                out.append(Send(self.addr, Aux(rnd, w)))
                progress = True
            accepted = {
                s: b
                for s, b in self.aux_pool.get(rnd, {}).items()
                if b in binv
            }
            if len(accepted) >= self.params.quorum:
                values = set(accepted.values())
                c = self.coin_for(rnd)
                if values == {c}:
                    out.extend(self._decide(c))
                    self.est = c
                elif len(values) == 1:
                    self.est = values.pop()
                else:
                    self.est = c
                self.round = rnd + 1
                out.extend(self._broadcast_bval(self.round, self.est))
                progress = True
        return out
