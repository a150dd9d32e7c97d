"""Latency decomposition and stability statistics over a run's event log.

Stage definitions (logged into every CSV header):
    broadcast  activation of the instance at this node until the block is
               decide-eligible there (its grade-2 delivery, or the end of
               the broadcast stage when the agreement stage had to decide)
    agreement  end of the broadcast stage until the include/exclude decision
               (zero for blocks decided by the broadcast stage itself)
    sorting    decision until the block's chain slot is written
The three stages partition activation-to-commit exactly, in simulation ticks.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .simnet import Simulation


class InsufficientData(Exception):
    pass


STAGE_DEFINITIONS = (
    "# broadcast: instance activation at the node until the block is decide-eligible\n"
    "# agreement: broadcast-stage end until the include/exclude decision (0 if the\n"
    "#            broadcast stage itself decided the block)\n"
    "# sorting: decision until the block's chain slot is written\n"
    "# times are simulation ticks; the three stages partition activation-to-commit\n"
)

STAGE_HEADER = [
    "node", "instance", "index",
    "broadcast", "agreement", "sorting", "total",
]

TX_HEADER = [
    "node", "txid", "submit", "commit", "latency", "instance", "index",
    "broadcast", "agreement", "sorting",
]


@dataclass(frozen=True)
class BlockStages:
    node: int
    k: int
    j: int
    broadcast: int
    agreement: int
    sorting: int

    @property
    def total(self) -> int:
        return self.broadcast + self.agreement + self.sorting


def decompose_latency(result: Simulation) -> List[BlockStages]:
    """Per-node, per-committed-block stage durations, in (node, k, j) order,
    computed afresh from the log's by-kind index on each call."""
    correct = set(result.config.correct_nodes())
    activate: Dict[Tuple[int, int], int] = {}
    agreement_enter: Dict[Tuple[int, int], int] = {}
    decide: Dict[Tuple[int, int, int], Tuple[int, str]] = {}
    commit: Dict[Tuple[int, int, int], int] = {}
    log = result.log
    for rec in log.of_kind("activate"):
        activate.setdefault((rec["node"], rec["k"]), rec["t"])
    for rec in log.of_kind("agreement_enter"):
        agreement_enter.setdefault((rec["node"], rec["k"]), rec["t"])
    for rec in log.of_kind("decide"):
        if rec["outcome"] == "include":
            decide.setdefault((rec["node"], rec["k"], rec["j"]), (rec["t"], rec["source"]))
    for rec in log.of_kind("commit"):
        commit.setdefault((rec["node"], rec["k"], rec["j"]), rec["t"])
    rows = []
    for key in sorted(commit):
        node, k, j = key
        if node not in correct or key not in decide:
            continue
        t_decide, source = decide[key]
        t0 = activate.get((node, k))
        if t0 is None:
            continue
        if source == "gbc":
            stage_end = t_decide
        else:
            stage_end = agreement_enter.get((node, k), t_decide)
        rows.append(BlockStages(
            node=node, k=k, j=j, broadcast=stage_end - t0,
            agreement=t_decide - stage_end, sorting=commit[key] - t_decide,
        ))
    return rows


@dataclass(frozen=True)
class TxRecord:
    node: int
    txid: str
    submit: int
    commit: int
    k: int
    j: int

    @property
    def latency(self) -> int:
        return self.commit - self.submit


def tx_records(result: Simulation) -> List[TxRecord]:
    """First commit of each injected tx at each correct node; `txs_csv`
    joins each to its block's `decompose_latency` row by (node, k, j)."""
    correct = set(result.config.correct_nodes())
    submit = {rec["txid"]: rec["t"] for rec in result.log.of_kind("inject")}
    seen = set()
    rows = []
    for rec in result.log.of_kind("commit"):
        node = rec["node"]
        if node not in correct:
            continue
        for txid in rec["txids"]:
            if (node, txid) in seen or txid not in submit:
                continue
            seen.add((node, txid))
            rows.append(
                TxRecord(
                    node=node,
                    txid=txid,
                    submit=submit[txid],
                    commit=rec["t"],
                    k=rec["k"],
                    j=rec["j"],
                )
            )
    rows.sort(key=lambda r: (r.node, r.commit, r.txid))
    return rows


STABILITY_MIN_TXS = 100  # fewer committed txs raise InsufficientData
CONTINUITY_THRESHOLD = 5  # distinct commit ticks that make commits "continuous"


def stability_report(txs: List[TxRecord]) -> dict:
    """Spread statistics of commit latency plus a burstiness flag."""
    if len(txs) < STABILITY_MIN_TXS:
        raise InsufficientData(f"{len(txs)} committed txs < {STABILITY_MIN_TXS}")
    latencies = sorted(r.latency for r in txs)

    def pct(q: float) -> int:
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    distinct_times = len({r.commit for r in txs})
    return {
        "count": len(latencies),
        "min": latencies[0],
        "p50": pct(0.50),
        "p90": pct(0.90),
        "max": latencies[-1],
        "spread": latencies[-1] - latencies[0],
        "distinct_commit_times": distinct_times,
        "continuous": distinct_times >= CONTINUITY_THRESHOLD,
    }


def stages_csv(rows: List[BlockStages]) -> str:
    buf = io.StringIO()
    buf.write(STAGE_DEFINITIONS)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(STAGE_HEADER)
    for r in sorted(rows, key=lambda s: (s.node, s.k, s.j)):
        writer.writerow([r.node, r.k, r.j, r.broadcast, r.agreement, r.sorting, r.total])
    return buf.getvalue()


def txs_csv(rows: List[TxRecord], stage_rows: List[BlockStages]) -> str:
    """One line per tx, with the stages of the `stage_rows` row of its
    block's (node, k, j), or empty stage cells if there is none."""
    stages = {(s.node, s.k, s.j): s for s in stage_rows}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TX_HEADER)
    for r in rows:
        s = stages.get((r.node, r.k, r.j))
        writer.writerow(
            [
                r.node, r.txid, r.submit, r.commit, r.latency, r.k, r.j,
                s.broadcast if s else "", s.agreement if s else "",
                s.sorting if s else "",
            ]
        )
    return buf.getvalue()
