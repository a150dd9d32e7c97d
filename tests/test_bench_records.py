"""The committed perf record: every root `BENCH_*.json` file in one schema.

Each file records one change's alternating parent/change benchmark pairs.
Its claim must be read off its own per-workload medians, and every pair
must have run correctly and printed equal event-log digests on both sides.
"""

import json
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
    for name, workload in record["workloads"].items():
        assert workload["all_correct"] is True, name
        assert workload["log_sha256_equal_every_pair"] is True, name
    claim = record["claim"]
    medians = record["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    assert claim["parent_median"] == medians["parent"]["median"]
    assert claim["change_median"] == medians["change"]["median"]
