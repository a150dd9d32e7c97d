"""Golden outputs: one pin over the digest sweep, the files `falcon-sim run`
writes for each shipped scenario, and the event log's line encoding.

`SWEEP_PIN` is sha256 over the `name digest` lines of every config of
`digest_sweep.configs()`, in config order.  Each digest covers a run's
event log (`EventLog.to_lines()`), its two CSVs, its report lines and each
node's chain digest, so a change to scheduling, message order or log format
anywhere in the stack moves the pin even when every invariant still holds.
The sweep covers the shipped scenarios, both n=16 benchmark workloads,
random delays, delay rules, every fault plugin, crashes from tick 0 to 69,
and both foils.  Its runs go through worker processes under another
PYTHONHASHSEED, and the scenario runs are done again here, so a result that
depends on `str` hash order fails too.  The other files `falcon-sim run`
writes for each scenario (`metrics.csv`, `txs.csv`, `chains.txt` and
`report.txt`) are pinned by their own digests.

`to_lines` writes no `send` record and no crashed node's `drop` record,
and every other record through one JSON encoder.  Every line of every run
here must equal `json.dumps` of its record, in log order with those two
kinds left out, and carry its line number as `i`; so must the lines of a
hand-built log of escaped strings, bool, float, None, list and dict values,
and lists of escaped strs, bools, nested or mixed items; its `send` and
crashed `drop` records, odd ones included, write no line.  A record
`json.dumps` cannot write (a `bytes` or `set` value, str and int keys side
by side, or a tuple key) makes `to_lines` raise what `json.dumps` raises.
"""

import hashlib
import json
from pathlib import Path

import pytest

import digest_sweep
from falcon_bft.cli import main
from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import EventLog, run_simulation
from support import in_workers, load_bench_module

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
WORKLOADS = load_bench_module("workloads")

# sha256 over "name digest\n" for every config of the sweep, in config order
SWEEP_PIN = "8e22ed023ef9286a32c128ea14efcf709ab34251b2b16f7350a6f84d5fcc66a0"


def test_sweep_digests_match_pin():
    names, configs = zip(*digest_sweep.configs())
    digests = in_workers(digest_sweep.digest, configs)
    scenarios = len(list(SCENARIOS.glob("*.ini")))
    assert digests[:scenarios] == [digest_sweep.digest(c) for c in configs[:scenarios]], (
        "a scenario's digest differs between this process and a worker with "
        "another PYTHONHASHSEED: some output depends on str hash order")
    lines = "".join(f"{name} {d}\n" for name, d in zip(names, digests))
    assert hashlib.sha256(lines.encode()).hexdigest() == SWEEP_PIN, (
        "the sweep's outputs moved; to name the configs that did, run "
        "`PYTHONPATH=src python tests/digest_sweep.py > parent.json` at the parent "
        "commit, then `PYTHONPATH=src python tests/digest_sweep.py --compare parent.json` here")


def test_every_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.ini")) == sorted(CSV_GOLDEN)


# sha256 of every file but the event log that `falcon-sim run` writes for
# each shipped scenario
RUN_OUTPUTS = ("metrics.csv", "txs.csv", "chains.txt", "report.txt")
CSV_GOLDEN = {
    "adversarial_skew.ini": (
        "01529f46c62b6bfade3ea2778b6417d1723146ae7ed610cd05fad393e4cb8fef",
        "923f245eea47bb7120e0ce88579e9cf7a77031b92f10fbd323d01ea061128f36",
        "8b7a2ae06491e635fedcfbb59f2ffd27ae5acb657756f66a384fba9c319093e1",
        "bc025ebfbc70776bc461c381bcdff3955120a8e80e8d63266cd317feb6bddf42",
    ),
    "crash_4.ini": (
        "c771f1188445658d9c6303e04a007d3404d8e63859d8832402329f6aa7230123",
        "04ef1dabc8e8c1f557c9f3df1d8a11221ca45a4f84677ce9447f5d0001927a92",
        "4e1ea52af62a93f62051bc4907a244b242e0eff319dae3389859163da7855e64",
        "1186e660f3571dcef215d6f56c154b33f0d966ec59459998a7d71ad8b56e851a",
    ),
    "equivocator_random.ini": (
        "e0f81a17f1a9d27a71787ca175f07869e0b6e1b8087b7a306a3f4e3b1b935a45",
        "8815f86adefd0c4f6b3bae6ca49d14c6de082415dcbfc128cfe8debb723570db",
        "995bb3e37f486675051b4037d7b830d29e249167f1457c76ab97a5865184d2a3",
        "2b07f6a86cc320e1c2d29b970402c94b734f4b03e568b7d2c8827b18834499c7",
    ),
    "favorable_4.ini": (
        "b83ffadd0211ed4adaf9f71e40aad4172ddecc109325c713024f04573af55049",
        "57c892680221e21c6752a7d2f4edbbc33dc068411ee183c2571b71e95bc07b4d",
        "875e34f56a1d00cc2479e217d3acf8536139e89a78912e2eb3eeeced6158680d",
        "85d8ed16048cad8503687d0d90e5b17b8f55e53e2618faf71dc31498ece70076",
    ),
    "favorable_7.ini": (
        "653b7016205d20da70ef4495d8697078541ff7f7f594c664f452202920a248f0",
        "cef07c94ae9e4498f5d731c93aaa300194f48e68f48541da8109a76b55568318",
        "425e310b128ec908af6147dcdc23d27ef33a7c6b4e552985f6518002d0793237",
        "cb4e19cb679ecaeb717a0cf01f0508bb20153cd3d7fe7b63256e2fe8e7f3ddfa",
    ),
    "late_proof_include.ini": (
        "9756d1221524a8c2827c2552ed24bc6626a50574b1dc24557b1a1c3799c2f3a9",
        "bc4732bb1e1d02a143ab5f7a3809145a22219ca9d86a52eeeb2c3b2218f6b85c",
        "e3c9119e43357a2dd71725e2113a26ddabded5d25287d3795e7fc50700e70ca7",
        "fac0fc9bb98793a495d33d3744aacc06a7fe0c61b0f01b4ca507b61107d796bd",
    ),
    "wrong_bit_one_path.ini": (
        "c6950182f2cb8450afcc0c9305d24ca2a7ce98de8edba8d628a8d5eda3e4597c",
        "ba852bf9f44ca039659e7b150e49ae21a63bd5cbe221b34cd25ebe06b87bca2d",
        "fa5ccb58e0c1883b16968507b9c94e31c3799b6592d1bae631416218e61cf723",
        "b4e489b2d6460af987724460e77b0687de1a9fa8770ece89b77d73a93e135317",
    ),
    "wrong_bits_adversarial.ini": (
        "95efc769a3afded90c13161bb92ed37cd83525d0af41d9d33f3dc434d7c163cb",
        "8e04669b2099b6e1b170afa511f77350d9849dc07f66efaf64f651cdc7ba0c52",
        "a7eb9021f7dabf9875784b7ea87d48a35aff82b0cce940f6e345a473a452deae",
        "45b53615b61da5da8bafbeb55d370f0b13c5eb98775e3e0077e019a224ff9a23",
    ),
}


@pytest.mark.parametrize("name", sorted(CSV_GOLDEN))
def test_scenario_csv_digests(name, tmp_path):
    assert main(["run", str(SCENARIOS / name), "--out", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / table).read_bytes()).hexdigest()
        for table in RUN_OUTPUTS
    )
    assert digests == CSV_GOLDEN[name]


# the scenarios, the benchmark's fuzz-mix pass at seed 0 and both n=16 workloads
LINE_CONFIGS = {
    **{path.name: lambda path=path: load_scenario(path) for path in SCENARIOS.glob("*.ini")},
    **{f"fuzz_config({i})": lambda i=i: WORKLOADS.fuzz_config(i) for i in range(24)},
    "favorable-n16": lambda: WORKLOADS.favorable_n16(1)[0],
    "byzantine-n16": lambda: WORKLOADS.byzantine_n16(1)[0],
}


def _written(records):
    """The encoder's line of each record `to_lines` writes, in log order:
    neither a send record nor a crashed node's drop record."""
    return [json.dumps(r, sort_keys=True, separators=(",", ":")).encode()
            for r in records
            if r["kind"] != "send" and not (r["kind"] == "drop" and r["reason"] == "crashed")]


@pytest.mark.parametrize("name", sorted(LINE_CONFIGS))
def test_written_lines_match_json_encoder(name):
    """The run writes no send line, each line is the encoder's line of its
    record, and the `i` values run 0..L-1 in line order."""
    log = run_simulation(LINE_CONFIGS[name]()).log
    assert any(r["kind"] == "send" for r in log.records) and log.of_kind("sends")
    got = log.to_lines().split(b"\n")
    assert got.pop() == b""
    want = _written(log.records)
    assert len(got) == len(want)
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"record {bad}: to_lines wrote {got[bad]!r}, the encoder {want[bad]!r}"
    assert [json.loads(line)["i"] for line in got] == list(range(len(got)))


def _send(**fields):
    rec = {"kind": "send", "t": 3, "node": 2, "to": 1, "k": 1, "proto": "GBC", "j": 2, "body": "Echo1"}
    rec.update(fields)
    return rec


def test_to_lines_matches_json_encoder_on_any_record():
    log = EventLog()
    texts = ('say "hi"', "back\\slash", "new\nline", "caf\u00e9", "line\u2028sep", "\x7f", "100%", "f(x)")
    for text in texts:
        log.append({"kind": "note", "t": 1, "node": 1, "text": text})
        log.append({"kind": text, "t": 1, "node": 1})
        log.append({"kind": "note", "t": 1, "node": 1, text: 1})
        log.append(_send(body=text))
    for value in (True, False, 1.5, None, 2**70, -3, [1, [2, "x"]], {"b": {"c": [None]}, "a": 1}):
        log.append({"kind": "note", "t": 1, "node": 1, "value": value})
    # lists of plain strs, strs JSON escapes, exact ints, bools, nothing,
    # nested and mixed items
    lists = (
        ["ab", "c d", "100%", "f(x)"], ["ok", 'say "hi"'], list(texts), [1, -2, 2**70], [True],
        [1, True], [False, 0], [], [[]], [[1], [2]], [1, "a"], ["a", 1], [1.5], [None], ["ab"],
    )
    for items in lists:
        log.append({"kind": "commit", "t": 1, "node": 1, "txids": items})
        log.append({"kind": "commit", "t": 2, "node": 1, "txids": items, "flag": True, "none": None})
    log.append({"kind": "vote", "t": 1, "bit": False, "seen": [], "ids": ["a", "b"], "q_valid": True})
    log.append({"kind": "note"})
    log.append({"kind": ["not", "a", "str"], "t": 1})
    # send records and crashed nodes' drop records write no line, whatever
    # their values and keys; other drops do
    no_body = _send(extra=7)
    del no_body["body"]
    crashed = {"kind": "drop", "reason": "crashed", "node": 4}
    for rec in (
        _send(), _send(k=True), _send(), _send(t=3.0), _send(), _send(to=True),
        _send(extra=7), _send(k="1"), no_body, _send(to=3), crashed, crashed,
        {"kind": "drop", "t": 2, "node": 3, "reason": "bad_index"}, crashed,
    ):
        log.append(rec)
    got = log.to_lines().split(b"\n")
    assert got.pop() == b""
    assert got == _written(log.records)
    assert [json.loads(line)["i"] for line in got] == list(range(len(got)))


@pytest.mark.parametrize(
    "fields", [{"value": b"raw"}, {"value": {1, 2}}, {"a": 1, 2: "b"}, {(1, 2): 3}],
    ids=["bytes", "set", "str-and-int-keys", "tuple-key"])
def test_to_lines_raises_what_json_dumps_raises(fields):
    record = {"kind": "note", "t": 1, "node": 1, **fields}
    log = EventLog()
    log.append(record)
    with pytest.raises(Exception) as want:
        json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert want.type is TypeError
    with pytest.raises(want.type) as got:
        log.to_lines()
    assert str(got.value) == str(want.value)


def test_send_records_write_no_line():
    """A send record stays in `records` without an `i`; the next written
    record takes the next line number."""
    log = EventLog()
    log.append({"kind": "note", "t": 0, "node": 1})
    log.append(_send())
    log.append({"kind": "note", "t": 1, "node": 1})
    assert [r["kind"] for r in log.records] == ["note", "send", "note"]
    assert "i" not in log.records[1]
    assert log.to_lines() == (b'{"i":0,"kind":"note","node":1,"t":0}\n'
                              b'{"i":1,"kind":"note","node":1,"t":1}\n')
