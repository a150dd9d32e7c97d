from falcon_bft.core_types import Block, Transaction
from falcon_bft.sorter import SortCursor, chain_digest, partial_sort


def blk(creator, instance=1, payload=None):
    payload = payload if payload is not None else b"%d:%d" % (instance, creator)
    return Block(creator, instance, (Transaction(payload),))


def test_commits_across_excluded_index():
    # an instance's decisions over indices 1..3 (None: excluded) -> the
    # creators of the blocks it commits: a middle, the last, every index out
    for decided, creators in (
        ({1: blk(1), 2: None, 3: blk(3)}, [1, 3]),
        ({1: blk(1), 2: blk(2), 3: None}, [1, 2]),
        ({1: None, 2: None, 3: None}, []),
    ):
        chain = []
        cursor = SortCursor()
        committed = partial_sort(cursor, 1, 3, decided, chain)
        assert [b.creator for b in committed] == creators
        assert cursor.done_id == 1
        assert cursor.pos == 0  # instance 2 has sorted nothing yet
        assert chain == [decided[j] for j in creators]


def test_prefix_gate_blocks_later_indices():
    chain = []
    cursor = SortCursor()
    assert partial_sort(cursor, 1, 3, {2: blk(2), 3: blk(3)}, chain) == []
    assert cursor.pos == 0
    assert len(chain) == 0


def test_progressive_commit_resumes():
    chain = []
    cursor = SortCursor()
    decided = {1: blk(1)}
    assert [b.creator for b in partial_sort(cursor, 1, 3, decided, chain)] == [1]
    decided[3] = blk(3)
    assert partial_sort(cursor, 1, 3, decided, chain) == []  # index 2 undecided
    assert cursor.pos == 1
    decided[2] = None  # excluded
    assert [b.creator for b in partial_sort(cursor, 1, 3, decided, chain)] == [3]
    assert cursor.done_id == 1


def test_instance_gate_defers_successor():
    chain = []
    cursor = SortCursor()
    second = {1: blk(1, 2), 2: blk(2, 2)}
    assert partial_sort(cursor, 2, 2, second, chain) == []  # instance 1 not done
    assert len(partial_sort(cursor, 1, 2, {1: blk(1, 1), 2: blk(2, 1)}, chain)) == 2
    assert len(partial_sort(cursor, 2, 2, second, chain)) == 2
    assert [b.instance for b in chain] == [1, 1, 2, 2]


def test_duplicate_txs_kept_in_slots():
    chain = []
    cursor = SortCursor()
    shared = Transaction(b"shared")
    b1 = Block(1, 1, (shared,))
    b2 = Block(2, 1, (shared, Transaction(b"own")))
    partial_sort(cursor, 1, 2, {1: b1, 2: b2}, chain)
    assert chain == [b1, b2]  # both blocks occupy slots


def test_chain_digest_tracks_slots():
    a, b = [], []
    for c in (a, b):
        c.append(blk(1))
    assert chain_digest(a) == chain_digest(b)
    b.append(blk(2))
    assert chain_digest(a) != chain_digest(b)
