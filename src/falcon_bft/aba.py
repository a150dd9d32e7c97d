"""Round-based binary agreement used as a black box by the asymmetrical layer.

Structure per round r: broadcast BVAL(r, est); re-broadcast a bit supported
by f+1 senders; a bit backed by n-f senders enters bin_values; once
bin_values is non-empty broadcast one AUX(r, w) with w from bin_values; on
n-f AUX values all inside bin_values, compare against the common coin for r
to decide or to pick the next round's estimate.

Only the current round's state is kept: the bits this node sent BVAL for,
bin_values and whether it sent its AUX are reset when the round advances,
and the finished round's BVAL and AUX pools are dropped then.  A BVAL or
AUX for an earlier round is ignored, since no rule reads it.

Two practical additions on top of the round machinery:

* A node that decided keeps playing subsequent rounds (its messages may be
  needed by slower nodes) instead of going silent.
* The step that decides broadcasts a DECIDED message, once.  f+1 matching
  DECIDED messages let a node adopt the decision directly, n-f let it retire
  the instance entirely.  This termination gadget is what makes every instance
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
        self.decided: Optional[int] = None
        self.halted = False  # external halt: absorb everything
        self.retired = False  # gadget-complete: stop emitting

        # the current round's own votes and bin_values
        self.bval_sent: Set[int] = set()
        self.bin_values: Set[int] = set()
        self.aux_sent = False
        self.bval_pool: Dict[int, Dict[int, Set[int]]] = {}  # round -> bit -> senders
        self.aux_pool: Dict[int, Dict[int, int]] = {}  # round -> sender -> bit
        self.decided_pool: Dict[int, Set[int]] = {0: set(), 1: set()}

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
        self.round = 1
        out = self._broadcast_bval(b)
        out.extend(self._evaluate())
        return out

    def halt(self) -> None:
        self.halted = True

    # -- message handlers -------------------------------------------------------

    def on_bval(self, sender: int, msg: Bval) -> List[object]:
        if self.halted or msg.bit not in (0, 1) or msg.round < self.round:
            return []
        self.bval_pool.setdefault(msg.round, {}).setdefault(msg.bit, set()).add(sender)
        return self._evaluate()

    def on_aux(self, sender: int, msg: Aux) -> List[object]:
        if self.halted or msg.bit not in (0, 1) or msg.round < self.round:
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

    def _broadcast_bval(self, bit: int) -> List[object]:
        if bit in self.bval_sent or self.retired:
            return []
        self.bval_sent.add(bit)
        # own broadcast also counts toward our pool via the network loopback
        return [Send(self.addr, Bval(self.round, bit))]

    def _decide(self, bit: int) -> List[object]:
        if self.decided is not None:
            return []
        self.decided = bit
        return [] if self.retired else [Send(self.addr, AbaDecided(bit))]

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
            binv = self.bin_values
            for bit in (0, 1):
                senders = pools.get(bit, set())
                if len(senders) >= self.params.small_quorum:
                    emitted = self._broadcast_bval(bit)
                    if emitted:
                        out.extend(emitted)
                        progress = True
                if len(senders) >= self.params.quorum and bit not in binv:
                    binv.add(bit)
                    progress = True
            if binv and not self.aux_sent and not self.retired:
                self.aux_sent = True
                out.append(Send(self.addr, Aux(rnd, min(binv))))
                progress = True
            accepted = [b for b in self.aux_pool.get(rnd, {}).values() if b in binv]
            if len(accepted) >= self.params.quorum:
                values = set(accepted)
                c = self.coin_for(rnd)
                if values == {c}:
                    out.extend(self._decide(c))
                est = values.pop() if len(values) == 1 else c
                # the round is over: nothing reads its state again
                del self.bval_pool[rnd], self.aux_pool[rnd]
                self.round = rnd + 1
                self.bval_sent, self.bin_values, self.aux_sent = set(), set(), False
                out.extend(self._broadcast_bval(est))
                progress = True
        return out
