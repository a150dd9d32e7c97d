"""Golden event logs: each shipped scenario, the byzantine-n16 workload at
seed 1, each pinned run of the benchmark's fuzz shape, with and without a
crash, and the integral-sorting foil's two pinned runs replay to a pinned
log digest.

The digests are sha256 over `EventLog.to_lines()`, recorded in a separate
process, so a change to scheduling, message order or log format anywhere
in the stack shows up here even when every invariant still holds.  The fuzz
runs add random delays, delay rules and every fault plugin to what the
scenarios cover, and the crash runs stop a node at ticks from 0 to 63,
mid-run as well as from the start.  The other files `falcon-sim run`
writes for each scenario (`metrics.csv`, `txs.csv`, `chains.txt` and
`report.txt`) are pinned the same way.

`to_lines` writes no line through the JSON encoder that a template can
write: send records from one `_SEND_RUN` template per broadcast, every other
record from a template cached per record shape, which also writes bool and
None values and lists of only exact ints or only plain strs.  Every line of
every run here must equal the encoder's line of its record, and so must the
lines of a hand-built log of records that templates write only in part or
not at all: escaped strings, bool, float, None, list and dict values, lists
of escaped strs, bools, nested or mixed items, and send records with an
extra key or a non-int field.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from falcon_bft import simnet
from falcon_bft.cli import main
from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import EventLog, run_simulation
from support import crash_fuzz_config, delayed_index_configs, load_bench_module

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
WORKLOADS = load_bench_module("workloads")

GOLDEN = {
    "adversarial_skew.ini": "84001a788dc5273dbfc5e6b95168e4851b464d127ced005d7587564de23dcb51",
    "crash_4.ini": "f3f04b680a610456d4106b5b2b6f10cefc9e5b61ef730f024774ffb224f6eee5",
    "equivocator_random.ini": "293a1e2117763c3c997edd4fcc0b5e965220253bc7b7a0f2ee3f9099ff28f6b7",
    "favorable_4.ini": "01ed2e37592794bfb7f46511315e7a900735ed5f6953783c697688945dd41252",
    "favorable_7.ini": "28950c5e7966fc949b28f203f96cdb07b3a087dc00ae16e6d6234d59d80c9b19",
    "late_proof_include.ini": "f8ea16f6c8456f6044c5f834f85e3fe8faa6a19915936dff58266e5bc9d0cf96",
    "wrong_bit_one_path.ini": "d7e4fa8de593958cc72bc7a9347804352e3a904a67b595feb9f3f6fa7bf338cb",
    "wrong_bits_adversarial.ini": "5109c5587a0792d548fb0b58e86d59cac50b14c2ab8060c6e094ab877da13f0e",
}


def test_every_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.ini")) == sorted(GOLDEN) == sorted(CSV_GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_log_digest(name):
    result = run_simulation(load_scenario(SCENARIOS / name))
    assert hashlib.sha256(result.log.to_lines()).hexdigest() == GOLDEN[name]


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


# fuzz_config(i) for i in 0..23, the benchmark's fuzz-mix pass at seed 0
FUZZ_GOLDEN = [
    "d719e04d74482a88409cf6523e41973c6c0a43d285e6177d9c2fb5467735fdf9",
    "ffa63ce02130b4800f837ce5dee6d2167c6994889dcb4a3114c69b1ebe8c32db",
    "52412eb6f17cdb7de3980872d285473673c564f93be1ca0f649f6318fc704492",
    "f410a3a9355696c0ec364f7111339de4501e58458ff6f4e60be9c4ab8cb04252",
    "83c5111b0f98efc59f2eb6119caa6f81ecb56af3ea4640c8f6ea6cb1d48e77cf",
    "7d0a74908128e4574f1e62c4e7ff62e4b60bc42608234a1043bb91daad9dca0f",
    "0faf8cd7474ce061f274707c76eaa2ddc3fc9bf8a4a307936cae58a4838dfd81",
    "eafd4ff62acdae3cc272f0ea970da3c9f2f0cf5ee8b3024528425e32fee5b114",
    "34bd647dffced2f572fa9f5a33cea73a5589da3f20ccc06000231a74364104b0",
    "f851cdfa86901006231ecab43f67cbe27696818ef87cfd23f543d63891e56d74",
    "376ce1bb4d90e0562dab291da077dbeb171d550d6004a7878c9ee76c23f9811c",
    "8a392e2dcbabd320e09a919036a06ce20d6ca8a8950f502dee803594f0a1a85e",
    "3fb852ef0364acdb928f88378a18090f36b85a54f7b61a1c90e2c838c2d4b3ce",
    "1ff197aa15764a8972c73c27035128b031f13e09b23914c7f64e191b0186750c",
    "9111c848618f8c71d136a6dcd7a194f89c2e18bc29e63cff5cd0474fcce727a9",
    "c85134bc8d96977ff6213a8c1eb386ba26645f8d83a28e150640eb5da9e6cdc6",
    "47e52ed9255a4b69bf47338e823da1f81108464e4557d65f8b12be5857dacfd2",
    "f08676576e350d7fb15fd8265552d94fe7727a11713b2fd415c81301f4fd32a4",
    "d802e41362d60eb00941a1e9f1b7dcd0715bde02aa1e0bb483cbebc5c6fb9a55",
    "fcdef6943cde6aa45ba5aaadca9a8114b320d58153dede3b3f5bb01cd85af3cf",
    "b882823e10329cd4b2ee2865d42c11c17a3ecb18904aeaca3513ff0262b9f039",
    "164f8b7ff785119e0ccbb818cc912ee6c10669bb369568bc7abb11f8eb6bc772",
    "b4c3b1f701897669fe58633925f338f1c12bbb538d5b874f35d443e056ab41eb",
    "2430b1ac0dde4e2f6855a90ae0d17712963f1d9311eddcf0450934c81cc6c7e5",
]


@pytest.mark.parametrize("i", range(len(FUZZ_GOLDEN)))
def test_fuzz_log_digest(i):
    result = run_simulation(WORKLOADS.fuzz_config(i))
    assert hashlib.sha256(result.log.to_lines()).hexdigest() == FUZZ_GOLDEN[i]


# node 12 crashes at t=40: the one crash at a tick other than 0 among the
# scenarios and workloads
BYZANTINE_N16_GOLDEN = "ec82050b8626a830e98c7db33c5d2ef4169d96a476e3e7359e1bcb7a7fd618f9"


def test_byzantine_n16_log_digest():
    result = run_simulation(WORKLOADS.byzantine_n16(1)[0])
    assert hashlib.sha256(result.log.to_lines()).hexdigest() == BYZANTINE_N16_GOLDEN


# crash_fuzz_config(i) for i in 0..11: the crash falls at tick (7 * i) % 70
CRASH_GOLDEN = [
    "0fbfc4db79c9b4c8f78aa7c4080e9267ae376e0e1169d96a4bf586b509fff0bb",
    "86376ea52c3a3dbec5aba66d5964ecca94710699f3b9c1af39ff25b1677928f9",
    "2ea183ff3dfa779314ddc675f2370a133bf3870bd445b43e5c101a7935f8ff30",
    "c225a2c02099eb44b8d324d2362d21612b5819c77faff4206b59f7f6a977f151",
    "414bbc86ecf4f7ae44861e7d61b464e7db24912146035593b3ee834ce1cf53d0",
    "15a027651bc2b44fc5ecfcb2bb8bfc7a8f439349319f3e3ebf66f7caf8621dc9",
    "bc209131b19bed6652f166772df45d79aea6a577d0eece2b9e0de1464fb65ded",
    "975b5e2d5c23c11aa50e4d519ad97ebd1f9801577a988a4e5d6da11e12e4c938",
    "aee81c58b016f30066f9de59b9ea9fb74755a414ef03d88d90ce2459b723855a",
    "a41e8c3ab2ba833333c767552cff8e5c9aa53bf89c57f1b8ba3cd2302887f7ad",
    "a14d181505b9e135d9bc315bc46b302b8525c33e27548b6d8f7bd7aa5e887d2a",
    "a0abce77b0ae4c42ee8927ae4927fff8f67f88fc5a2aca95223cc0645c3ba4ba",
]


@pytest.mark.parametrize("i", range(len(CRASH_GOLDEN)))
def test_crash_fuzz_log_digest(i):
    result = run_simulation(crash_fuzz_config(i))
    assert hashlib.sha256(result.log.to_lines()).hexdigest() == CRASH_GOLDEN[i]


# delayed_index_configs("integral_sort"): the integral-sorting foil on
# criterion 6's two runs, one instance and three
FOIL_GOLDEN = [
    "61825a6964d63d8e30c9d0f8e96de84bdc2120a7b1fe81a460be44caef98fcf8",
    "cfd77acafbc22e0b8faf2f11cdfc2dbf2ab37acd613b0be1364f9131c5e0af90",
]


@pytest.mark.parametrize("i", range(len(FOIL_GOLDEN)))
def test_integral_sort_log_digest(i):
    result = run_simulation(delayed_index_configs("integral_sort")[i])
    assert hashlib.sha256(result.log.to_lines()).hexdigest() == FOIL_GOLDEN[i]


# every config the golden digests cover, plus both n=16 benchmark workloads
LINE_CONFIGS = {
    **{name: lambda name=name: load_scenario(SCENARIOS / name) for name in GOLDEN},
    **{f"fuzz_config({i})": lambda i=i: WORKLOADS.fuzz_config(i) for i in range(len(FUZZ_GOLDEN))},
    "favorable-n16": lambda: WORKLOADS.favorable_n16(1)[0],
    "byzantine-n16": lambda: WORKLOADS.byzantine_n16(1)[0],
}


@pytest.mark.parametrize("name", sorted(LINE_CONFIGS))
def test_send_line_template_matches_json_encoder(name):
    log = run_simulation(LINE_CONFIGS[name]()).log
    template_keys = set(re.findall(r'"(\w+)":', simnet._SEND_RUN.decode()))
    sends = log.of_kind("send")
    assert sends
    for rec in sends:
        assert set(rec) == template_keys, (
            f"send record keys {sorted(rec)} differ from the line template's "
            f"{sorted(template_keys)}: update _SEND_RUN"
        )
    got = log.to_lines().split(b"\n")
    assert got.pop() == b""
    want = [json.dumps(r, sort_keys=True, separators=(",", ":")).encode() for r in log.records]
    assert len(got) == len(want)
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"record {bad}: to_lines wrote {got[bad]!r}, the encoder {want[bad]!r}"


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
    # one list shape, written from the template or not by what its items are:
    # plain strs, strs JSON escapes, exact ints, bools, nothing, nested and
    # mixed items
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
    # runs of send records, each broken by a record that shares the run's
    # values but not their types, or that has a key too many or another key
    no_body = _send(extra=7)
    del no_body["body"]
    for rec in (
        _send(), _send(k=True), _send(), _send(t=3.0), _send(), _send(to=True),
        _send(extra=7), _send(k="1"), no_body, _send(to=3),
    ):
        log.append(rec)
    got = log.to_lines().split(b"\n")
    assert got.pop() == b""
    want = [json.dumps(r, sort_keys=True, separators=(",", ":")).encode() for r in log.records]
    assert got == want
