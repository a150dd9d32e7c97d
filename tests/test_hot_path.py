"""Properties the delivery path's shortcuts rely on, and the work they save.

The node driver runs only when a handled instance made progress, a run's
objects are freed by reference counting alone, and a favorable lockstep
run verifies exactly the echo shares its deliveries need, computing no
MAC beyond the ones its shares were signed with.  Work is pinned as call
counts, which repeat exactly where wall-clock time does not.
"""

import gc
from collections import Counter
from pathlib import Path

import pytest

from falcon_bft import crypto, gbc, node
from falcon_bft.core_types import SystemParams
from falcon_bft.crypto import KeyRegistry
from falcon_bft.node import Node
from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import DelayRule, FaultSpec, SimConfig, run_simulation, schedule
from support import load_bench_module

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted(p.name for p in (ROOT / "scenarios").glob("*.ini"))


WORKLOADS = load_bench_module("workloads")


def _low_index_gaps(**kwargs):
    return SimConfig(params=SystemParams(7, 2), seed=3, mode="random", num_instances=3, **kwargs)


# indices 1 and 5 go through agreement, so deciding index 1 lets indices 2-4
# commit before the instance returns: by an exclusion, or by an inclusion
# without a grade-2 delivery
LOW_INDEX_GAPS = {
    "excluded_low_index": lambda: _low_index_gaps(
        faults=(FaultSpec(1, "crash"), FaultSpec(5, "crash"))
    ),
    "included_low_index": lambda: _low_index_gaps(
        rules=(DelayRule(body="Echo2", index=1, delay=30), DelayRule(body="Echo2", index=5, delay=30))
    ),
}


# every scenario, both low-index gap runs, and one pass of the fuzz-mix workload
RUN_CASES = SCENARIOS + sorted(LOW_INDEX_GAPS) + list(range(24))


def config_for(case):
    """A scenario file name, a `LOW_INDEX_GAPS` key, or the index of a benchmark fuzz-mix run."""
    if isinstance(case, int):
        return WORKLOADS.fuzz_config(case)
    if case in LOW_INDEX_GAPS:
        return LOW_INDEX_GAPS[case]()
    return load_scenario(ROOT / "scenarios" / case)


@pytest.mark.parametrize("case", RUN_CASES)
def test_driver_is_idle_after_every_envelope(monkeypatch, case):
    """After `Node.handle`, whether or not it ran the driver, a second
    `_drive` sends nothing and logs nothing."""
    sim = schedule(config_for(case))
    records = sim.log.records
    handle = Node.handle

    def handle_then_drive(self, env):
        out = handle(self, env)
        logged = len(records)
        assert self._drive() == []
        assert len(records) == logged
        return out

    monkeypatch.setattr(Node, "handle", handle_then_drive)
    sim.run()


@pytest.mark.parametrize("case", RUN_CASES)
def test_progress_counts_every_growth(monkeypatch, case):
    """After `Node.handle`, each live instance's `progress` is the number of
    entries in its `M2`, `M_acs` and `S_ex` plus one if it returned.

    The driver gate needs only that the counter moves whenever one of them
    does, and one growth often comes with another (a grade-2 delivery fills
    `M2` and `M_acs` at once; a return follows a decision), so a counter
    missing one site can still gate correctly; this pins every site.
    """
    handle = Node.handle

    def handle_then_count(self, env):
        out = handle(self, env)
        for inst in self.instances.values():
            grown = len(inst.M2) + len(inst.M_acs) + len(inst.S_ex) + inst.returned
            assert inst.progress == grown
        return out

    monkeypatch.setattr(Node, "handle", handle_then_count)
    run_simulation(config_for(case))


@pytest.mark.parametrize("case", SCENARIOS + [25])
def test_finished_run_leaves_no_cyclic_garbage(case):
    config = config_for(case)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = run_simulation(config)
        del result
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# favorable lockstep runs of 5 instances: (n, f) -> the most partial_sort
# calls the run may make
WORK_BOUNDS = {(4, 1): 120, (7, 2): 336, (16, 5): 1632}


@pytest.mark.parametrize("n,f", sorted(WORK_BOUNDS))
def test_favorable_run_work_counts(monkeypatch, n, f):
    calls = Counter()

    def count(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(KeyRegistry, "verify_partial", "verify_partial")
    count(KeyRegistry, "partial_sign", "partial_sign")
    count(crypto.hmac, "digest", "hmac")
    count(node, "partial_sort", "partial_sort")
    count(crypto, "tagged_digest", "tagged_digest")
    count(gbc, "tagged_digest", "tagged_digest")
    instances = 5
    config = SimConfig(
        params=SystemParams(n, f), seed=1, mode="lockstep", num_instances=instances, tx_load=8
    )
    run_simulation(config)
    # every node verifies a quorum of echo shares per grade in each GBC of
    # each activated instance (one past the window), and no late share
    quorum = config.params.quorum
    assert calls["verify_partial"] == n * n * 2 * quorum * (instances + 1)
    assert calls["partial_sort"] <= WORK_BOUNDS[(n, f)]
    # each node hashes the two grade tags of each GBC once, when the body
    # arrives, and signs its echoes with them
    assert calls["tagged_digest"] == 2 * n * n * (instances + 1)
    # each node signs those two tags in each GBC, and every verified share
    # was signed in the run, so the only MACs computed are the signatures
    assert calls["partial_sign"] == 2 * n * n * (instances + 1)
    assert calls["hmac"] == calls["partial_sign"]
