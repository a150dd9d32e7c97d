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
from typing import Dict, List, Optional

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
    decided: Dict[int, Optional[Block]],
    chain: List[Block],
) -> List[Block]:
    """Advance the sort cursor for instance k; returns blocks committed now.

    `decided` maps each of the instance's decided indices in 1..n to its
    block if included, or to None if excluded; it is read and never written.
    """
    if cursor.done_id != k - 1:
        return []
    pos = cursor.pos
    committed = []
    while pos < n and pos + 1 in decided:
        pos += 1
        block = decided[pos]
        if block is not None:
            chain.append(block)
            committed.append(block)
    if pos == n:
        cursor.done_id, cursor.pos = k, 0
    else:
        cursor.pos = pos
    return committed
