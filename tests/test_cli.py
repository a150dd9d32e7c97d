import subprocess
import sys

import pytest

from falcon_bft.cli import main
from falcon_bft.simnet import Simulation

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


def test_missing_scenario_nonzero(tmp_path):
    assert main(["run", str(tmp_path / "absent.ini")]) == 2


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
