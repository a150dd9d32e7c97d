"""The committed perf record: every root `BENCH_*.json` file in one schema.

Each file records one change's alternating parent/change benchmark pairs.
Its claim must be read off its own per-workload medians, and every pair
must have run correctly and printed equal event-log digests on both sides.
A record of a change that alters the event-log format on purpose says so in
a `log_format_change` field, what changed and where the proof is that the
new logs carry the old ones' content; its sides' digests differ by design,
so each side must instead have printed one event-log digest for each seed.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"change", "parent_commit", "command", "method", "claim", "workloads"}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_schema(path):
    record = json.loads(path.read_text())
    assert KEYS <= record.keys()
    format_change = record.get("log_format_change")
    if format_change is not None:
        assert {"what", "proof"} <= format_change.keys()
        assert all(format_change[key].strip() for key in ("what", "proof"))
    for name, workload in record["workloads"].items():
        assert workload["all_correct"] is True, name
        if format_change is None:
            assert workload["log_sha256_equal_every_pair"] is True, name
            continue
        digests = workload["log_sha256"]
        assert sorted(digests) == sorted(f"seed {seed}" for seed in workload["seeds"]), name
        for seed, sides in digests.items():
            assert sides.keys() == {"parent", "change"}, (name, seed)
            assert all(re.fullmatch("[0-9a-f]{64}", d) for d in sides.values()), (name, seed)
    claim = record["claim"]
    medians = record["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    assert claim["parent_median"] == medians["parent"]["median"]
    assert claim["change_median"] == medians["change"]["median"]
