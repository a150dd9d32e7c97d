"""Cross-node invariant checks over a finished run: the `Simulation` that
`run()` returned, its event log and its nodes' chains and buffers.

Every check returns violations as data (list of dicts); an empty report is
a pass.  Each violation has one shape, built by `_violation`: `check` (the
check's name), then the fields that say where it fired (`k`, `j`, `node`,
`nodes`, `slot` or `txid`, in the order its check gives them), then
`detail`.  `falcon-sim` writes each one with `str` into `report.txt`, so
the key order is part of the output, and a machine-readable report can
carry the same records unchanged.

The checks quantify over correct nodes only (fault plugins are expected to
misbehave) and they are deliberately strict: the acceptance suite's
mutation tests rely on these detectors firing when a protocol gate is
removed.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Callable, Dict, List, Set, Tuple

from .simnet import Simulation


def _violation(check: str, detail: str, **where) -> dict:
    """One violation: `check`, then where it fired, then `detail`."""
    return {"check": check, **where, "detail": detail}


def _at_correct(result: Simulation, kind: str) -> List[dict]:
    """The records of `kind` that correct nodes wrote, in log order."""
    correct = set(result.config.correct_nodes())
    return [rec for rec in result.log.of_kind(kind) if rec["node"] in correct]


def _order(rec: dict) -> Tuple[int, int]:
    return (rec["t"], rec["i"])


def check_chain_safety(result: Simulation) -> List[dict]:
    """No two correct nodes disagree on any filled slot."""
    out = []
    nodes = result.nodes
    for a, b in combinations(result.config.correct_nodes(), 2):
        for slot, (ba, bb) in enumerate(zip(nodes[a].chain, nodes[b].chain), 1):
            if ba.digest != bb.digest:
                detail = f"{ba.digest_hex[:12]} != {bb.digest_hex[:12]}"
                out.append(_violation("chain_safety", detail, nodes=[a, b], slot=slot))
                break
    return out


def check_acs_agreement(result: Simulation) -> List[dict]:
    """Returned correct nodes agree on each instance's included blocks and exclusions."""
    out = []
    returned: Dict[int, Set[int]] = {}
    for rec in _at_correct(result, "instance_return"):
        returned.setdefault(rec["k"], set()).add(rec["node"])
    outcomes: Dict[Tuple[int, int], Dict[int, str]] = {}
    for rec in _at_correct(result, "decide"):
        outcomes.setdefault((rec["k"], rec["node"]), {})[rec["j"]] = rec["outcome"]
    for k, nodes in sorted(returned.items()):
        views = {
            node: dict(sorted(outcomes.get((k, node), {}).items())) for node in sorted(nodes)
        }
        base = min(views)
        for node, view in views.items():
            if view != views[base]:
                detail = f"{views[base]} vs {view}"
                out.append(_violation("acs_agreement", detail, k=k, nodes=[base, node]))
    return out


def check_acs_blocks_match(result: Simulation) -> List[dict]:
    """Every digest a correct node delivered or adopted for an (instance, index)
    is the same, across nodes and within each node."""
    seen: Dict[Tuple[int, int], Set[str]] = {}
    for rec in _at_correct(result, "gbc_deliver") + _at_correct(result, "da_adopt"):
        seen.setdefault((rec["k"], rec["j"]), set()).add(rec["digest"])
    return [
        _violation(
            "gbc_consistency",
            f"conflicting digests {', '.join(d[:12] for d in sorted(digests))}",
            k=k,
            j=j,
        )
        for (k, j), digests in sorted(seen.items())
        if len(digests) > 1
    ]


def check_validity(result: Simulation) -> List[dict]:
    """Every returned instance carries at least a quorum of included blocks."""
    quorum = result.config.params.quorum
    return [
        _violation(
            "validity", f"acs size {rec['acs_size']} < {quorum}", k=rec["k"], node=rec["node"]
        )
        for rec in _at_correct(result, "instance_return")
        if rec["acs_size"] < quorum
    ]


def check_totality(result: Simulation) -> List[dict]:
    """All correct nodes return every instance in the measured window."""
    returned = {(rec["node"], rec["k"]) for rec in result.log.of_kind("instance_return")}
    correct = result.config.correct_nodes()
    return [
        _violation("totality", "no return", k=k, node=node)
        for k in range(1, result.config.num_instances + 1)
        for node in correct
        if (node, k) not in returned
    ]


def check_optimistic_validity(result: Simulation) -> List[dict]:
    """Fault-free lockstep runs decide all n blocks without any agreement stage."""
    config = result.config
    if config.faults or config.mode != "lockstep" or config.rules:
        return []
    n, last = config.params.n, config.num_instances
    out = [
        _violation(
            "optimistic_validity",
            f"acs size {rec['acs_size']} != {n}",
            k=rec["k"],
            node=rec["node"],
        )
        for rec in result.log.of_kind("instance_return")
        if rec["k"] <= last and rec["acs_size"] != n
    ]
    for check, kind, detail in (
        ("optimistic_validity", "agreement_enter", "agreement stage entered"),
        ("trigger_inert", "trigger", "trigger fired in a favorable run"),
    ):
        out += [
            _violation(check, detail, k=rec["k"], node=rec["node"])
            for rec in result.log.of_kind(kind)
            if rec["k"] <= last
        ]
    return out


def _check_correlation(
    result: Simulation,
    check: str,
    prior: List[dict],
    records: List[dict],
    key: Callable[[dict], tuple],
    what: str,
) -> List[dict]:
    """Each of the correct nodes' `records` needs f+1 correct nodes with a
    strictly earlier `prior` record on the same key: it must come after the
    (f+1)-th smallest of the nodes' first prior orders on that key, one
    comparison.  Only a violation counts the nodes."""
    out = []
    need = result.config.params.small_quorum
    firsts: Dict[tuple, Dict[int, Tuple[int, int]]] = {}
    for rec in prior:
        order, by_node = _order(rec), firsts.setdefault(key(rec), {})
        if by_node.setdefault(rec["node"], order) > order:
            by_node[rec["node"]] = order
    quorum_at = {
        k: sorted(by_node.values())[need - 1]
        for k, by_node in firsts.items()
        if len(by_node) >= need
    }
    for rec in records:
        order, at = _order(rec), quorum_at.get(key(rec))
        if at is None or not at < order:
            earlier = sum(first < order for first in firsts.get(key(rec), {}).values())
            detail = f"only {earlier} {what}"
            out.append(_violation(check, detail, k=rec["k"], j=rec["j"], node=rec["node"]))
    return out


def check_delivery_correlation(result: Simulation) -> List[dict]:
    """A grade-2 delivery needs f+1 strictly earlier correct grade-1 deliveries."""
    delivered = _at_correct(result, "gbc_deliver")
    return _check_correlation(
        result,
        "delivery_correlation",
        [rec for rec in delivered if rec["grade"] == 1],
        [rec for rec in delivered if rec["grade"] == 2],
        lambda rec: (rec["k"], rec["j"], rec["digest"]),
        "prior grade-1 deliveries",
    )


def check_receipt_correlation(result: Simulation) -> List[dict]:
    """A grade-1 delivery needs f+1 correct nodes already holding the body."""
    return _check_correlation(
        result,
        "receipt_correlation",
        _at_correct(result, "body_received"),
        [rec for rec in _at_correct(result, "gbc_deliver") if rec["grade"] == 1],
        lambda rec: (rec["k"], rec["digest"]),
        "prior bodies held",
    )


def check_aaba(result: Simulation) -> List[dict]:
    """Agreement, 1-validity and biased-validity of every agreement instance."""
    out = []
    outputs: Dict[Tuple[int, int], Dict[int, int]] = {}
    for rec in _at_correct(result, "aaba_output"):
        outputs.setdefault((rec["k"], rec["j"]), {})[rec["node"]] = rec["bit"]
    # nodes, faulty ones too, that gave each instance a certified one-input
    certified: Dict[Tuple[int, int], Set[int]] = {}
    for rec in result.log.of_kind("aaba_input"):
        if rec["bit"] == 1 and rec["q_valid"]:
            certified.setdefault((rec["k"], rec["j"]), set()).add(rec["node"])
    for (k, j), by_node in sorted(outputs.items()):
        bits = sorted(set(by_node.values()))
        if len(bits) > 1:
            out.append(_violation("aaba_agreement", f"outputs {by_node}", k=k, j=j))
        if bits == [1] and (k, j) not in certified:
            detail = "output 1 without any certified one-input"
            out.append(_violation("aaba_1_validity", detail, k=k, j=j))
    correct = set(result.config.correct_nodes())
    for (k, j), nodes in sorted(certified.items()):
        if len(nodes & correct) >= result.config.params.small_quorum:
            for node, bit in sorted(outputs.get((k, j), {}).items()):
                if bit != 1:
                    detail = "output 0 despite f+1 certified one-inputs"
                    out.append(_violation("aaba_biased_validity", detail, k=k, j=j, node=node))
    return out


def check_decide_once(result: Simulation) -> List[dict]:
    counts = Counter((rec["node"], rec["k"], rec["j"]) for rec in result.log.of_kind("decide"))
    return [
        _violation("decide_once", f"{count} decisions", node=node, k=k, j=j)
        for (node, k, j), count in sorted(counts.items())
        if count > 1
    ]


def check_commit_order(result: Simulation) -> List[dict]:
    """Commits at a correct node walk instances in order, creators ascending."""
    out = []
    per_node: Dict[int, List[Tuple[int, int]]] = {}
    for rec in _at_correct(result, "commit"):
        per_node.setdefault(rec["node"], []).append((rec["k"], rec["j"]))
    for node, commits in sorted(per_node.items()):
        for last, cur in zip([(0, 0)] + commits, commits):
            if cur <= last:
                out.append(_violation("commit_order", f"commit {cur} after {last}", node=node))
    return out


def check_conflict_markers(result: Simulation) -> List[dict]:
    """Surface events the state machines flagged as impossible-for-correct-nodes."""
    return [
        _violation(
            "exclusion_conflict",
            "grade-2 certificate for an excluded index",
            node=rec["node"],
            k=rec["k"],
            j=rec["j"],
        )
        for rec in _at_correct(result, "late_grade2_after_exclusion")
    ]


def check_tx_conservation(result: Simulation) -> List[dict]:
    """No correct node loses a tx: every injected tx is in the node's commit
    records or still in its buffer.  This covers every tx but sets no
    deadline; `check_liveness` bounds only the txs whose deadline falls
    inside the run."""
    committed: Dict[int, Set[str]] = {node: set() for node in result.config.correct_nodes()}
    for rec in _at_correct(result, "commit"):
        committed[rec["node"]].update(rec["txids"])
    out = []
    for rec in result.log.of_kind("inject"):
        txid = rec["txid"]
        key = bytes.fromhex(txid)
        for node, txids in committed.items():
            if txid not in txids and key not in result.nodes[node].buffer:
                detail = f"batch {rec['batch']} neither committed nor buffered"
                out.append(_violation("tx_conservation", detail, node=node, txid=txid[:12]))
    return out


ALL_CHECKS = (
    check_chain_safety,
    check_acs_agreement,
    check_acs_blocks_match,
    check_validity,
    check_totality,
    check_optimistic_validity,
    check_delivery_correlation,
    check_receipt_correlation,
    check_aaba,
    check_decide_once,
    check_commit_order,
    check_conflict_markers,
    check_tx_conservation,
)


def observe_invariants(result: Simulation) -> List[dict]:
    """Run every invariant check; an empty list means the run is clean."""
    out: List[dict] = []
    for check in ALL_CHECKS:
        out.extend(check(result))
    return out


def check_liveness(result: Simulation, min_checked: int = 0) -> List[dict]:
    """Every tx in all correct buffers before instance k commits by k + 2.

    The deadline instance for a tx is derived from the proposal log: the
    first instance whose proposals at every correct node happened at or
    after the injection, plus two.  Transactions whose deadline lies past
    the measured window are skipped (the run ends before the bound
    applies); `min_checked` guards against a run so short that the check
    never bites.
    """
    out = []
    config = result.config
    correct = config.correct_nodes()
    proposals: Dict[int, List[Tuple[int, int]]] = {i: [] for i in correct}
    for rec in result.log.of_kind("propose"):
        if rec["node"] in proposals:
            proposals[rec["node"]].append((rec["t"], rec["k"]))
    commits: Dict[Tuple[int, str], int] = {}
    for rec in result.log.of_kind("commit"):
        for txid in rec["txids"]:
            commits.setdefault((rec["node"], txid), rec["k"])
    checked = 0
    for inject in result.log.of_kind("inject"):
        txid, batch, when = inject["txid"], inject["batch"], inject["t"]
        k_star = 0
        feasible = True
        for node in correct:
            later = [k for t, k in proposals[node] if t >= when]
            if not later:
                feasible = False
                break
            k_star = max(k_star, min(later))
        deadline = k_star + 2
        if not feasible or deadline > config.num_instances:
            continue
        checked += 1
        for node in correct:
            got = commits.get((node, txid))
            if got is None or got > deadline:
                detail = (
                    f"injected t={when} batch={batch}, deadline k={deadline}, committed k={got}"
                )
                out.append(_violation("liveness", detail, node=node, txid=txid[:12]))
    if checked < min_checked:
        detail = f"only {checked} txs fell inside the measured window"
        out.append(_violation("liveness_coverage", detail))
    return out
