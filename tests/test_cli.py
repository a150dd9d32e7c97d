import argparse
import subprocess
import sys
from pathlib import Path

import pytest

from falcon_bft.cli import main, run_one
from falcon_bft.scenario import ScenarioError
from falcon_bft.simnet import InvalidConfig, Simulation
from support import load_scenario_bytes, scenario_mutants

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the loadable mutants run per scenario; see the test that runs them
LOADABLE_MUTANTS = 6

FAVORABLE = """
[system]
n = 4
f = 1
seed = 11
instances = 2
tx_load = 4
"""

CRASHED = """
[system]
n = 4
f = 1
seed = 12
instances = 2
tx_load = 4

[faults]
4 = crash:0
"""


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_favorable_exits_zero(tmp_path, capsys):
    scenario = write(tmp_path, FAVORABLE, "fav.ini")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    assert (out_dir / "events.log").exists()
    assert (out_dir / "report.txt").read_text().startswith("violations=0")
    metrics = [
        line
        for line in (out_dir / "metrics.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    # favorable: the agreement column is zero on every row
    agreement_col = metrics[0].split(",").index("agreement")
    assert all(row.split(",")[agreement_col] == "0" for row in metrics[1:])
    chains = (out_dir / "chains.txt").read_text().splitlines()
    digests = {line.split("digest=")[1] for line in chains}
    assert len(digests) == 1
    assert "PASS" in capsys.readouterr().out


def test_run_crashed_scenario_uses_shortcut(tmp_path, capsys):
    scenario = write(tmp_path, CRASHED, "crash.ini")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    events = (out_dir / "events.log").read_text()
    assert '"kind":"aaba_output"' in events
    assert '"source":"shortcut"' in events


def test_malformed_scenario_nonzero_exit_no_outputs(tmp_path, capsys):
    scenario = write(tmp_path, "[system]\nn = 4\nwat = 5\n", "bad.ini")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_mistyped_rule_nonzero_exit_no_outputs(tmp_path):
    # upper-case proto would match no message; it must not run as a no-op rule
    text = FAVORABLE + "\n[adversary]\nrule1 = proto=GBC delay=5\n"
    scenario = write(tmp_path, text, "typo.ini")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "section",
    [
        "[adversary]\nrule1 = to=2 to=3 delay=5\n",
        "[faults]\n4 = crash:\n",
        "[DEFAULT]\nvariant = integral_sort\n",
        "[adversary]\nrule1 =\n",
        "[faults]\n4 = crash:1_0\n",
    ],
    ids=["repeated_rule_token", "empty_crash_tick", "default_section", "empty_rule",
         "underscore_digits"],
)
def test_silent_input_nonzero_exit_no_outputs(tmp_path, section):
    # a repeated token would keep only its last value; `crash:` would crash
    # at 0; [DEFAULT]'s variant would join [system]; an empty rule would
    # delay nothing and shield every later rule; `1_0` would crash at 10
    scenario = write(tmp_path, FAVORABLE + "\n" + section, "silent.ini")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_out_of_range_rule_nonzero_exit_no_outputs(tmp_path):
    # index 5 names no broadcast of a 4-node run; the rule could never match
    text = FAVORABLE + "\n[adversary]\nrule1 = index=5 delay=5\n"
    scenario = write(tmp_path, text, "range.ini")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_negative_crash_tick_exits_two_with_one_line(tmp_path, capsys):
    scenario = write(tmp_path, CRASHED.replace("crash:0", "crash:-5"), "neg.ini")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "line", ["variant = integral", "integral_sort = true"], ids=["unknown_variant", "old_key"]
)
def test_bad_variant_exits_two_with_one_line(tmp_path, capsys, line):
    scenario = write(tmp_path, FAVORABLE + line + "\n", "variant.ini")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not out_dir.exists()


def test_integral_sort_run_with_a_crash_is_clean(tmp_path, capsys):
    """The crashed node keeps its crash plugin; the foil runs at the others."""
    text = CRASHED.replace("[faults]", "variant = integral_sort\n\n[faults]")
    scenario = write(tmp_path, text, "foil.ini")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    assert '"reason":"crashed"' in (out_dir / "events.log").read_text()
    assert (out_dir / "report.txt").read_text().startswith("violations=0")


def test_unwritable_outputs_exit_two_with_one_line(tmp_path, capsys):
    scenario = write(tmp_path, FAVORABLE, "fav.ini")
    taken = write(tmp_path, "not a directory", "taken")
    assert main(["run", str(scenario), "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"{scenario}: cannot write outputs: ")
    assert taken.read_text() == "not a directory"


def test_missing_scenario_nonzero(tmp_path):
    assert main(["run", str(tmp_path / "absent.ini")]) == 2


def test_mode_is_not_an_option(tmp_path, capsys):
    """A scenario's `[network] mode` sets the mode; the CLI has no override."""
    scenario = write(tmp_path, FAVORABLE, "fav.ini")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(scenario), "--mode", "random"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode random" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fav.ini"]


def test_seed_override_changes_nothing_in_lockstep(tmp_path):
    scenario = write(tmp_path, FAVORABLE, "fav.ini")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scenario), "--out", str(a), "--seed", "99"]) == 0
    assert main(["run", str(scenario), "--out", str(b), "--seed", "99"]) == 0
    assert (a / "events.log").read_bytes() == (b / "events.log").read_bytes()


def test_check_directory_batch(tmp_path, capsys):
    write(tmp_path, FAVORABLE, "a.ini")
    write(tmp_path, CRASHED, "b.ini")
    assert main(["check", str(tmp_path), "--out", str(tmp_path / "outs")]) == 0
    captured = capsys.readouterr().out
    assert captured.count("PASS") == 2


def test_check_empty_directory(tmp_path):
    assert main(["check", str(tmp_path)]) == 2


def test_console_entry_point_runs(tmp_path):
    scenario = write(tmp_path, FAVORABLE, "fav.ini")
    proc = subprocess.run(
        [sys.executable, "-m", "falcon_bft.cli", "run", str(scenario),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


@pytest.mark.parametrize(
    "data",
    [FAVORABLE.encode().replace(b"seed = 11", b"seed = \xff1"), b"n = 4\nf = 1\n"],
    ids=["non_utf8", "no_section_header"],
)
def test_unreadable_scenario_exits_two_with_one_line(tmp_path, capsys, data):
    scenario = tmp_path / "bad.ini"
    scenario.write_bytes(data)
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ini"]


def test_run_that_does_not_quiesce_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Simulation, "MAX_EVENTS", 100)
    monkeypatch.setattr(Simulation, "EVENTS_PER_CUBE", 0)
    scenario = write(tmp_path, FAVORABLE, "fav.ini")
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{scenario}: simulation failed to quiesce within 100 deliveries at t=3: "
        "correct nodes' k 1:1 2:1 3:1 4:1; pending AABA indices none"
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fav.ini"]


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.ini")))
def test_mutated_scenarios_that_load_run_to_an_exit_code(tmp_path, capsys, name):
    """Of the byte-mutated scenarios that `test_scenario` loads, those that
    load and validate go through `run_one`: each returns 0 or 1 after a
    run, or 2 with one line on stderr, and none raises.  Only the first
    `LOADABLE_MUTANTS` per scenario run, which keeps the whole test under
    4 s: 16 to 50 of each shipped scenario's 300 mutants load, 309 in all,
    and running every one takes about 11 s (each returned 0)."""
    path = tmp_path / name
    args = argparse.Namespace(seed=None, out=str(tmp_path / "out"))
    ran = 0
    for data in scenario_mutants(SCENARIOS / name):
        try:  # from memory: only the mutants that load are written
            load_scenario_bytes(data, name).validate()
        except (ScenarioError, InvalidConfig):
            continue
        path.write_bytes(data)
        capsys.readouterr()
        code = run_one(path, args)
        err = capsys.readouterr().err
        assert code in (0, 1) and err == "" or code == 2 and len(err.splitlines()) == 1
        ran += 1
        if ran == LOADABLE_MUTANTS:
            break
    assert ran == LOADABLE_MUTANTS
