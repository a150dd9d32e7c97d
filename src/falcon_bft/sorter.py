"""Partial sorting and the commit path into the append-only chain.

Within an instance, index j commits as soon as every smaller index is
decided (included or excluded); across instances, instance k may only
write to the chain once instance k-1 is fully sorted.  Whether an instance
may sort at all is the node's call (`Node._sortable`).  A chain is a plain
list of committed blocks, one per slot; it keeps whole blocks so
cross-node safety is byte-equality of slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from .core_types import Block
from .crypto import sha256


def chain_digest(chain: List[Block]) -> bytes:
    """One hash over a chain's block digests, in slot order."""
    return sha256(b"".join(b.digest for b in chain))


@dataclass
class SortCursor:
    """Cross-instance gate: instance k sorts only while done_id == k - 1."""

    done_id: int = 0
    pos: int = 0  # how many of instance done_id + 1's indices are sorted


def partial_sort(
    cursor: SortCursor,
    k: int,
    n: int,
    included: Dict[int, Block],
    excluded: Set[int],
    chain: List[Block],
) -> List[Block]:
    """Advance the sort cursor for instance k; returns blocks committed now.

    `included` and `excluded` are the instance's decisions over indices 1..n,
    disjoint, read and never written.
    """
    if cursor.done_id != k - 1:
        return []
    pos = cursor.pos
    committed = []
    while pos < n and (pos + 1 in included or pos + 1 in excluded):
        pos += 1
        if pos in included:
            chain.append(included[pos])
            committed.append(included[pos])
    if pos == n:
        cursor.done_id, cursor.pos = k, 0
    else:
        cursor.pos = pos
    return committed
