"""Golden event logs: each shipped scenario replays to a pinned log digest.

The digests are sha256 over `EventLog.to_lines()`, recorded in a separate
process, so a change to scheduling, message order or log format anywhere
in the stack shows up here even when every invariant still holds.
"""

import hashlib
from pathlib import Path

import pytest

from falcon_bft.scenario import load_scenario
from falcon_bft.simnet import run_simulation

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "adversarial_skew.ini": "84001a788dc5273dbfc5e6b95168e4851b464d127ced005d7587564de23dcb51",
    "crash_4.ini": "f3f04b680a610456d4106b5b2b6f10cefc9e5b61ef730f024774ffb224f6eee5",
    "equivocator_random.ini": "293a1e2117763c3c997edd4fcc0b5e965220253bc7b7a0f2ee3f9099ff28f6b7",
    "favorable_4.ini": "01ed2e37592794bfb7f46511315e7a900735ed5f6953783c697688945dd41252",
    "favorable_7.ini": "28950c5e7966fc949b28f203f96cdb07b3a087dc00ae16e6d6234d59d80c9b19",
    "wrong_bit_one_path.ini": "d7e4fa8de593958cc72bc7a9347804352e3a904a67b595feb9f3f6fa7bf338cb",
    "wrong_bits_adversarial.ini": "5109c5587a0792d548fb0b58e86d59cac50b14c2ab8060c6e094ab877da13f0e",
}


def test_every_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.ini")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_log_digest(name):
    result = run_simulation(load_scenario(SCENARIOS / name))
    assert hashlib.sha256(result.log.to_lines()).hexdigest() == GOLDEN[name]
