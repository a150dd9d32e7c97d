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

`to_lines` writes no `send` record, and every other record through one
JSON encoder.  Every line of every run here must equal `json.dumps` of its
record, in log order with the `send` records left out, and carry its line
number as `i`; so must the lines of a hand-built log of escaped strings,
bool, float, None, list and dict values, and lists of escaped strs, bools,
nested or mixed items; its `send` records, odd ones included, write no
line.  A record `json.dumps` cannot write (a `bytes` or `set` value, str
and int keys side by side, or a tuple key) makes `to_lines` raise what
`json.dumps` raises.
"""

import hashlib
import json
from pathlib import Path

import pytest

from falcon_bft.cli import main
from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import EventLog, run_simulation
from support import crash_fuzz_config, delayed_index_configs, load_bench_module

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
WORKLOADS = load_bench_module("workloads")

GOLDEN = {
    "adversarial_skew.ini": "38912ba5f69fb60e8f8f285430f4a7637fdac639731cdf90d9f6bdcd7ba8ed38",
    "crash_4.ini": "ef9617d8f9d819b60bed5b16eceedfc11966c638112e5741e31d3a4712d579e1",
    "equivocator_random.ini": "f6a6f1ec4d908fac4c9c7334273162c9bbf02becbd8839ee4b0b3e2500b59704",
    "favorable_4.ini": "0bc7a3f018288f2efc24aa30ce6d67ddd40581adc92f8d9a03b8563f7ec4adbb",
    "favorable_7.ini": "e79d2bf9c808c9d20ca14ac6552a195ba2bc8722ddbdb054f8ef5a8e3cc1b3fa",
    "late_proof_include.ini": "3a95f6609b430939473f838a0814c9f38fd7c5971a4cae8d4a865e89950e8503",
    "wrong_bit_one_path.ini": "d35dda1c981702ca7e0b3180494eb2d0872a03f596efcf8ea2513eebce3b8bcf",
    "wrong_bits_adversarial.ini": "ab946e5289ce15730662617e4255ed0f38da9cf04b35a9028c9573854e98a1b4",
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
    "c77ac2a23c421a27b5290e03bdab785ae33e602e30fd83c4e1553ff72e5823fc",
    "887bc503f6cd7184843c91cdbcc2ae84dbbec1895afe914f6eb4dc36112029bc",
    "f051e01442ac491271db7cbde85ea8d6a91e725982696047e3c4ec528ac88a9a",
    "bba7b8aecf477255b4ade673df3e29d3c6dcf459f6ac17aaaa9f760ed753e2a1",
    "caa5c3f10480172736f73836f0027b3a0a581ac7190e28b6aa3354bbaa9084d5",
    "6f5fc5ca1cc05d698df315f9fc49949355319bd9b5d18ac93aa1b53fc2c561e6",
    "e344f8a71e6ed2eb3fa85a68291b445d98f4e5dedc1542832c98106496e2d823",
    "85e07d59e75369ade9412e43069f3a28e3a91af96b23a928ba90ef1335a717ee",
    "283af640724f4427f33178afac176548a4858e3fdf186e4989f2e553cb177c39",
    "3e5d33e918179d8037e1a044c4f26ff2edbf98ce34c8cb34719193f9999564d4",
    "825aecb2479820e6f6bae40a2db8666036b7bd2cd90f538c3dfdd8bda01a45be",
    "4e5478dc612afb800ab4b2637c662bd1589cc89f61b0f6fbb7104a7cc15da63f",
    "a2cb58ee27a604aaa188ed107f7453ac423c486a3e3fc12052de7880a89758dd",
    "d30e4084ec175443199ac4231475e2d65be279fd7728cc23f856e3411dc48c4e",
    "18db44ba5017301ffe011052c0d3e262118968dead174e903c0939547a1675ff",
    "f741389ce4a25e7118ed80935ddb85cc6269ca0a69785bff2759c1688c07754e",
    "a2139ff8640bf904d44a744ec506ce14e4ccd82f61a89af9b9b6b46cec15d5c5",
    "49f188184b8416aa143f5d29ec9c4efbef52be08d9b5b469b13a493fdde4d1f1",
    "f0a94e6d26dadcfb95ec4b78091fc1779a7f665d9114f9cc4a0dd370de42d7d0",
    "c015b30e5e60149a0709083e7beac9f2bebfc5fd38c4183f781d672da2608aed",
    "1ab43613a226318a710a9d123bbb766ff2d0733b080e96462226597fc757beec",
    "e05a3fa4fa7723e4a091dcf4021c4b34b6ea2755ce8110ae25095a4df7623541",
    "90aaf093824733fe039f0fa4e0545d99237bd2e290a941875fa20c3bab48c5ba",
    "3ecf9db60925506eab17b6b0724a5069034a3b1172a656dda05614eae9aef190",
]


@pytest.mark.parametrize("i", range(len(FUZZ_GOLDEN)))
def test_fuzz_log_digest(i):
    result = run_simulation(WORKLOADS.fuzz_config(i))
    assert hashlib.sha256(result.log.to_lines()).hexdigest() == FUZZ_GOLDEN[i]


# node 12 crashes at t=40: the one crash at a tick other than 0 among the
# scenarios and workloads
BYZANTINE_N16_GOLDEN = "00a8f4481cb5f563a4f0476a7442812d283bcadf2b06d5033c56307bc4b509dc"


def test_byzantine_n16_log_digest():
    result = run_simulation(WORKLOADS.byzantine_n16(1)[0])
    assert hashlib.sha256(result.log.to_lines()).hexdigest() == BYZANTINE_N16_GOLDEN


# crash_fuzz_config(i) for i in 0..11: the crash falls at tick (7 * i) % 70
CRASH_GOLDEN = [
    "7b1bc8d8397d9ac9941a13adb7f85dffe19ef4752663febc1ff9de5d8ae61e55",
    "845ef448037a4f2fa4b1d325c55b63fee132da2c1de512ec5cfa59374fa7b07f",
    "5c541c1bdecf3ba4915b8e1ec30313cc77df391bbf7a37c147822d1ebbd722b7",
    "1241e33af814c4dc293874e2bde901eb93becb52b3866ae21b15f469fd31488a",
    "38ab5cac7db43abf5a36082c93d9ecc256f29c760df35cdff9cbf0010f3192cf",
    "27b214c7aef72e582ece56ad459ff52b1bb17ffdf4715b853f569b59a46f3118",
    "467905dd12bedc205efddef69310d82f20000daa3f36fdc97ea512df59a125a8",
    "719d79a077e7d0bb2aae808095628265aa7c004a5ec7123681be153441cce816",
    "f8f3435387dda9760ec62313873fe0af000290608428ce9ffe8adee020f7cb20",
    "69c0f634052f74ccece4c62a20cb066c10d51478c8e303464fc75b64cab8caf3",
    "a750bb0bed522cb30906b2adac9f1423a16f6cc0efa99f6b51d562f7cb42ca9f",
    "2e1c3b9757bace943216ac82ea5eca292ccde3f55d06feb474199a664fc05287",
]


@pytest.mark.parametrize("i", range(len(CRASH_GOLDEN)))
def test_crash_fuzz_log_digest(i):
    result = run_simulation(crash_fuzz_config(i))
    assert hashlib.sha256(result.log.to_lines()).hexdigest() == CRASH_GOLDEN[i]


# delayed_index_configs("integral_sort"): the integral-sorting foil on
# criterion 6's two runs, one instance and three
FOIL_GOLDEN = [
    "23dfd5947b838cf15d89139ecb870a69c736529305cef8628a9fadfdb6e72a08",
    "6f762c9a0d13b09f4a4f551593f965c67763e33b77ca2bc925606b4bc9c4f73c",
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


def _written(records):
    """The encoder's line of each record `to_lines` writes, in log order."""
    return [json.dumps(r, sort_keys=True, separators=(",", ":")).encode()
            for r in records if r["kind"] != "send"]


@pytest.mark.parametrize("name", sorted(LINE_CONFIGS))
def test_send_line_template_matches_json_encoder(name):
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
    # send records write no line, whatever their values and keys
    no_body = _send(extra=7)
    del no_body["body"]
    for rec in (
        _send(), _send(k=True), _send(), _send(t=3.0), _send(), _send(to=True),
        _send(extra=7), _send(k="1"), no_body, _send(to=3),
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
