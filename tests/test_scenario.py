from collections import Counter
from pathlib import Path

import pytest

from falcon_bft.scenario import ScenarioError, load_scenario
from falcon_bft.simnet import InvalidConfig
from support import load_scenario_bytes, scenario_mutants

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOOD = """
[system]
n = 4
f = 1
seed = 7
instances = 3
tx_load = 8

[network]
mode = lockstep

[faults]
4 = crash:0

[adversary]
rule1 = body=Echo1 delay=10
rule2 = to=2 acsq=1 proto=gbc index=1 delay=5
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_full_scenario(tmp_path):
    config = load_scenario(write(tmp_path, GOOD))
    assert config.params.n == 4 and config.params.f == 1
    assert config.seed == 7
    assert config.num_instances == 3
    assert {f.node: f.kind for f in config.faults} == {4: "crash"}
    assert config.rules[0].body == "Echo1" and config.rules[0].delay == 10
    assert config.rules[1].recipient == 2 and config.rules[1].proto == "gbc"
    config.validate()


def test_readme_example_loads(tmp_path):
    """The README's scenario example loads as written, comments and all."""
    readme = (SCENARIOS.parent / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = load_scenario(write(tmp_path, example))
    assert (config.params.n, config.params.f, config.seed) == (4, 1, 7)
    assert (config.num_instances, config.tx_load, config.variant) == (3, 8, "falcon")
    assert (config.mode, config.delay_min, config.delay_max) == ("lockstep", 1, 3)
    assert [(f.node, f.kind, f.at_time) for f in config.faults] == [(4, "crash", 0)]
    assert [rule.delay for rule in config.rules] == [10, 5]
    config.validate()


def test_fault_budget_enforced_at_validate(tmp_path):
    text = GOOD.replace("4 = crash:0", "4 = crash:0\n2 = equivocate")
    config = load_scenario(write(tmp_path, text))
    with pytest.raises(Exception):
        config.validate()


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, "[system]\nn = 4\nbogus = 1\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, "[system]\nn = 4\n\n[extra]\nx = 1\n"))


def test_bad_fault_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, "[faults]\n2 = equivocate:5\n"))


def test_bad_rule_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, "[adversary]\nrule1 = wat=1\n"))


def test_malformed_params_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, "[system]\nn = 3\nf = 1\n"))


def test_defaults(tmp_path):
    config = load_scenario(write(tmp_path, "[system]\nn = 7\nf = 2\n"))
    assert config.mode == "lockstep"
    assert config.num_instances == 1
    assert config.faults == () and config.rules == ()
    assert config.variant == "falcon"


def test_variant_key_loads(tmp_path):
    config = load_scenario(write(tmp_path, "[system]\nvariant = integral_sort\n"))
    assert config.variant == "integral_sort"
    config.validate()


def test_rules_keep_file_order(tmp_path):
    """First match wins in the order the file lists its rules: `rule10`
    and `rule11` come after `rule2`, and key names do not reorder them."""
    lines = [f"rule{i} = body=Echo1 delay={i}" for i in range(1, 12)]
    config = load_scenario(write(tmp_path, "[adversary]\n" + "\n".join(lines) + "\n"))
    assert [rule.delay for rule in config.rules] == list(range(1, 12))
    text = "[adversary]\nzeta = body=Echo1 delay=1\nalpha = body=Echo2 delay=2\n"
    config = load_scenario(write(tmp_path, text))
    assert [rule.body for rule in config.rules] == ["Echo1", "Echo2"]


@pytest.mark.parametrize("text", [
    "n = 4\n", "[system]\nn\n", "[system]\nn = 4\nn = 5\n",
    # these loaded silently: the last of a repeated rule token won (a 0-delay
    # rule shields every later rule), and `crash:` crashed at tick 0
    "[adversary]\nrule1 = to=2 to=3 delay=5\n",
    "[adversary]\nrule1 = body=Echo1 delay=5 delay=0\n",
    "[faults]\n4 = crash:\n",
    # these loaded silently too: [DEFAULT]'s keys joined every section, and
    # an empty rule matched every message, shielding every later rule
    "[DEFAULT]\nseed = 9\n[system]\nn = 4\n",
    "[DEFAULT]\nrule9 = body=Echo1 delay=4\n[adversary]\nrule1 = to=2 delay=1\n",
    "[DEFAULT]\n",
    "[adversary]\nrule1 =\n",
    "[adversary]\nrule1 = to=2 delay=1\nrule2 =\n",
    # these loaded silently as well: `int` reads `_` separators and
    # non-ASCII digits, so 1_0 was 10 and a fullwidth 4 was 4
    "[system]\nseed = 1_0\n",
    "[adversary]\nrule1 = body=Echo1 delay=1_0\n",
    "[faults]\n4 = crash:1_0\n",
    "[system]\nn = \uff14\n",
])
def test_unparseable_scenario_message_is_one_line(tmp_path, text):
    with pytest.raises(ScenarioError) as info:
        load_scenario(write(tmp_path, text))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.ini")))
def test_mutated_scenario_bytes_load_or_raise_a_defined_error(name):
    """Overwrite 1-3 bytes of a shipped scenario with random values: loading
    and validating it either succeeds or raises `ScenarioError` or
    `InvalidConfig` with a one-line message.  Nothing is run, and the
    mutants are read from memory."""
    outcomes = Counter()
    for data in scenario_mutants(SCENARIOS / name):
        try:
            load_scenario_bytes(data, name).validate()
        except (ScenarioError, InvalidConfig) as exc:
            assert "\n" not in str(exc)
            outcomes[type(exc).__name__] += 1
        else:
            outcomes["ok"] += 1
    assert outcomes["ScenarioError"] > 0 and outcomes["ok"] > 0
