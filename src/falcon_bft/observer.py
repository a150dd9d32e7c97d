"""Cross-node invariant checks over a completed run's event log.

Every check returns violations as data (list of dicts); an empty report is
a pass.  The checks quantify over correct nodes only (fault plugins are
expected to misbehave) and they are deliberately strict: the acceptance
suite's mutation tests rely on these detectors firing when a protocol gate
is removed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .simnet import RunResult


def _order(rec: dict) -> Tuple[int, int]:
    return (rec["t"], rec["i"])


def check_chain_safety(result: RunResult) -> List[dict]:
    """No two correct nodes disagree on any filled slot."""
    out = []
    chains = result.chains()
    correct = result.config.correct_nodes()
    for a_idx in range(len(correct)):
        for b_idx in range(a_idx + 1, len(correct)):
            a, b = correct[a_idx], correct[b_idx]
            for r, (da, db) in enumerate(zip(chains[a], chains[b])):
                if da != db:
                    out.append(
                        {
                            "check": "chain_safety",
                            "nodes": [a, b],
                            "slot": r + 1,
                            "detail": f"{da[:12]} != {db[:12]}",
                        }
                    )
                    break
    return out


def check_acs_agreement(result: RunResult) -> List[dict]:
    """Returned correct nodes agree on each instance's included blocks and exclusions."""
    out = []
    correct = set(result.config.correct_nodes())
    returned: Dict[int, Dict[int, dict]] = {}
    for rec in result.log.of_kind("instance_return"):
        if rec["node"] in correct:
            returned.setdefault(rec["k"], {})[rec["node"]] = rec
    decides: Dict[Tuple[int, int], Dict[int, Tuple[str, Optional[str]]]] = {}
    for rec in result.log.of_kind("decide"):
        if rec["node"] in correct:
            key = (rec["k"], rec["node"])
            decides.setdefault(key, {})[rec["j"]] = (rec["outcome"], rec.get("source"))
    for k, by_node in sorted(returned.items()):
        views = {}
        for node in sorted(by_node):
            node_decides = decides.get((k, node), {})
            views[node] = {
                j: outcome for j, (outcome, _) in sorted(node_decides.items())
            }
        baseline_node = min(views)
        baseline = views[baseline_node]
        for node, view in views.items():
            if view != baseline:
                out.append(
                    {
                        "check": "acs_agreement",
                        "k": k,
                        "nodes": [baseline_node, node],
                        "detail": f"{baseline} vs {view}",
                    }
                )
    return out


def check_acs_blocks_match(result: RunResult) -> List[dict]:
    """Included digests per (instance, index) agree across correct nodes."""
    out = []
    correct = set(result.config.correct_nodes())
    seen: Dict[Tuple[int, int], Dict[int, str]] = {}
    delivered = result.log.of_kind("gbc_deliver") + result.log.of_kind("da_adopt")
    # in log order: a node's last record of an index is the one that counts
    for rec in sorted(delivered, key=lambda r: r["i"]):
        if rec["node"] in correct:
            seen.setdefault((rec["k"], rec["j"]), {})[rec["node"]] = rec["digest"]
    for (k, j), by_node in sorted(seen.items()):
        digests = sorted(set(by_node.values()))
        if len(digests) > 1:
            out.append(
                {
                    "check": "gbc_consistency",
                    "k": k,
                    "j": j,
                    "detail": f"conflicting digests {', '.join(d[:12] for d in digests)}",
                }
            )
    return out


def check_validity(result: RunResult) -> List[dict]:
    """Every returned instance carries at least a quorum of included blocks."""
    out = []
    correct = set(result.config.correct_nodes())
    quorum = result.config.params.quorum
    for rec in result.log.of_kind("instance_return"):
        if rec["node"] in correct and rec["acs_size"] < quorum:
            out.append(
                {
                    "check": "validity",
                    "k": rec["k"],
                    "node": rec["node"],
                    "detail": f"acs size {rec['acs_size']} < {quorum}",
                }
            )
    return out


def check_totality(result: RunResult) -> List[dict]:
    """All correct nodes return every instance in the measured window."""
    out = []
    correct = result.config.correct_nodes()
    returned = {
        (rec["node"], rec["k"]) for rec in result.log.of_kind("instance_return")
    }
    for k in range(1, result.config.num_instances + 1):
        for node in correct:
            if (node, k) not in returned:
                out.append({"check": "totality", "k": k, "node": node, "detail": "no return"})
    return out


def check_optimistic_validity(result: RunResult) -> List[dict]:
    """Fault-free lockstep runs decide all n blocks without any agreement stage."""
    config = result.config
    if config.faults or config.mode != "lockstep" or config.rules:
        return []
    out = []
    n = config.params.n
    for rec in result.log.of_kind("instance_return"):
        if rec["k"] <= config.num_instances and rec["acs_size"] != n:
            out.append(
                {
                    "check": "optimistic_validity",
                    "k": rec["k"],
                    "node": rec["node"],
                    "detail": f"acs size {rec['acs_size']} != {n}",
                }
            )
    for rec in result.log.of_kind("agreement_enter"):
        if rec["k"] <= config.num_instances:
            out.append(
                {
                    "check": "optimistic_validity",
                    "k": rec["k"],
                    "node": rec["node"],
                    "detail": "agreement stage entered",
                }
            )
    for rec in result.log.of_kind("trigger"):
        if rec["k"] <= config.num_instances:
            out.append(
                {
                    "check": "trigger_inert",
                    "k": rec["k"],
                    "node": rec["node"],
                    "detail": "trigger fired in a favorable run",
                }
            )
    return out


def _check_correlation(
    result: RunResult,
    check: str,
    prior: List[dict],
    records: List[dict],
    key: Callable[[dict], tuple],
    what: str,
) -> List[dict]:
    """Each record at a correct node needs f+1 correct nodes with a strictly
    earlier `prior` record on the same key."""
    out = []
    correct = set(result.config.correct_nodes())
    need = result.config.params.small_quorum
    seen: Dict[tuple, List[Tuple[Tuple[int, int], int]]] = {}
    for rec in prior:
        if rec["node"] in correct:
            seen.setdefault(key(rec), []).append((_order(rec), rec["node"]))
    for rec in records:
        if rec["node"] not in correct:
            continue
        earlier = {
            node for order, node in seen.get(key(rec), []) if order < _order(rec)
        }
        if len(earlier) < need:
            out.append(
                {
                    "check": check,
                    "k": rec["k"],
                    "j": rec["j"],
                    "node": rec["node"],
                    "detail": f"only {len(earlier)} {what}",
                }
            )
    return out


def check_delivery_correlation(result: RunResult) -> List[dict]:
    """A grade-2 delivery needs f+1 strictly earlier correct grade-1 deliveries."""
    delivered = result.log.of_kind("gbc_deliver")
    return _check_correlation(
        result,
        "delivery_correlation",
        [rec for rec in delivered if rec["grade"] == 1],
        [rec for rec in delivered if rec["grade"] == 2],
        lambda rec: (rec["k"], rec["j"], rec["digest"]),
        "prior grade-1 deliveries",
    )


def check_receipt_correlation(result: RunResult) -> List[dict]:
    """A grade-1 delivery needs f+1 correct nodes already holding the body."""
    return _check_correlation(
        result,
        "receipt_correlation",
        result.log.of_kind("body_received"),
        [rec for rec in result.log.of_kind("gbc_deliver") if rec["grade"] == 1],
        lambda rec: (rec["k"], rec["digest"]),
        "prior bodies held",
    )


def check_aaba(result: RunResult) -> List[dict]:
    """Agreement, 1-validity and biased-validity of every agreement instance."""
    out = []
    config = result.config
    correct = set(config.correct_nodes())
    outputs: Dict[Tuple[int, int], Dict[int, int]] = {}
    for rec in result.log.of_kind("aaba_output"):
        if rec["node"] in correct:
            outputs.setdefault((rec["k"], rec["j"]), {})[rec["node"]] = rec["bit"]
    inputs: Dict[Tuple[int, int], List[dict]] = {}
    for rec in result.log.of_kind("aaba_input"):
        inputs.setdefault((rec["k"], rec["j"]), []).append(rec)
    for key, by_node in sorted(outputs.items()):
        bits = sorted(set(by_node.values()))
        if len(bits) > 1:
            out.append(
                {
                    "check": "aaba_agreement",
                    "k": key[0],
                    "j": key[1],
                    "detail": f"outputs {by_node}",
                }
            )
        if bits == [1]:
            valid_one = any(
                rec["bit"] == 1 and rec["q_valid"] for rec in inputs.get(key, [])
            )
            if not valid_one:
                out.append(
                    {
                        "check": "aaba_1_validity",
                        "k": key[0],
                        "j": key[1],
                        "detail": "output 1 without any certified one-input",
                    }
                )
    for key, recs in sorted(inputs.items()):
        one_correct = {
            rec["node"]
            for rec in recs
            if rec["bit"] == 1 and rec["q_valid"] and rec["node"] in correct
        }
        if len(one_correct) >= config.params.small_quorum:
            for node, bit in sorted(outputs.get(key, {}).items()):
                if bit != 1:
                    out.append(
                        {
                            "check": "aaba_biased_validity",
                            "k": key[0],
                            "j": key[1],
                            "node": node,
                            "detail": "output 0 despite f+1 certified one-inputs",
                        }
                    )
    return out


def check_decide_once(result: RunResult) -> List[dict]:
    out = []
    seen: Dict[Tuple[int, int, int], int] = {}
    for rec in result.log.of_kind("decide"):
        key = (rec["node"], rec["k"], rec["j"])
        seen[key] = seen.get(key, 0) + 1
    for key, count in sorted(seen.items()):
        if count > 1:
            out.append(
                {
                    "check": "decide_once",
                    "node": key[0],
                    "k": key[1],
                    "j": key[2],
                    "detail": f"{count} decisions",
                }
            )
    return out


def check_commit_order(result: RunResult) -> List[dict]:
    """Commits at a correct node walk instances in order, creators ascending."""
    out = []
    correct = set(result.config.correct_nodes())
    per_node: Dict[int, List[dict]] = {}
    for rec in result.log.of_kind("commit"):
        if rec["node"] in correct:
            per_node.setdefault(rec["node"], []).append(rec)
    for node, recs in sorted(per_node.items()):
        last = (0, 0)
        for rec in recs:
            cur = (rec["k"], rec["j"])
            if cur <= last:
                out.append(
                    {
                        "check": "commit_order",
                        "node": node,
                        "detail": f"commit {cur} after {last}",
                    }
                )
            last = cur
    return out


def check_conflict_markers(result: RunResult) -> List[dict]:
    """Surface events the state machines flagged as impossible-for-correct-nodes."""
    out = []
    correct = set(result.config.correct_nodes())
    for rec in result.log.of_kind("late_grade2_after_exclusion"):
        if rec["node"] in correct:
            out.append(
                {
                    "check": "exclusion_conflict",
                    "node": rec["node"],
                    "k": rec["k"],
                    "j": rec["j"],
                    "detail": "grade-2 certificate for an excluded index",
                }
            )
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
)


def observe_invariants(result: RunResult) -> List[dict]:
    """Run every invariant check; an empty list means the run is clean."""
    out: List[dict] = []
    for check in ALL_CHECKS:
        out.extend(check(result))
    return out


def check_liveness(result: RunResult, min_checked: int = 0) -> List[dict]:
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
            key = (rec["node"], txid)
            if key not in commits:
                commits[key] = rec["k"]
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
                out.append(
                    {
                        "check": "liveness",
                        "node": node,
                        "txid": txid[:12],
                        "detail": f"injected t={when} batch={batch}, "
                        f"deadline k={deadline}, committed k={got}",
                    }
                )
    if checked < min_checked:
        out.append(
            {
                "check": "liveness_coverage",
                "detail": f"only {checked} txs fell inside the measured window",
            }
        )
    return out
