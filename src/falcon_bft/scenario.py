"""Scenario files: INI-style key = value sections describing one run.

Example::

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
    2 = equivocate

    [adversary]
    rule1 = body=Echo1 delay=10
    rule2 = to=2 acsq=1 proto=gbc index=1 delay=5

Unknown sections or keys are rejected before anything runs.
"""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import List, Tuple

from .core_types import SystemParams
from .simnet import DelayRule, FaultSpec, SimConfig

_SYSTEM_KEYS = {
    "n", "f", "seed", "instances", "tx_load", "tx_size", "block_cap",
    "integral_sort",
}
_NETWORK_KEYS = {"mode", "delay_min", "delay_max"}
_RULE_KEYS = {"from", "to", "body", "acsq", "proto", "index", "delay"}
_SECTIONS = {"system", "network", "faults", "adversary"}


class ScenarioError(Exception):
    pass


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ScenarioError(f"not a boolean: {raw!r}")


def parse_rule(raw: str) -> DelayRule:
    fields = {}
    for token in raw.split():
        if "=" not in token:
            raise ScenarioError(f"bad rule token {token!r}")
        key, value = token.split("=", 1)
        if key not in _RULE_KEYS:
            raise ScenarioError(f"unknown rule key {key!r}")
        fields[key] = value
    try:
        return DelayRule(
            sender=int(fields["from"]) if "from" in fields else None,
            recipient=int(fields["to"]) if "to" in fields else None,
            body=fields.get("body"),
            acsq_id=int(fields["acsq"]) if "acsq" in fields else None,
            proto=fields.get("proto"),
            index=int(fields["index"]) if "index" in fields else None,
            delay=int(fields.get("delay", "0")),
        )
    except ValueError as exc:
        raise ScenarioError(f"bad rule {raw!r}: {exc}") from exc


def parse_fault(node: str, raw: str) -> FaultSpec:
    kind, _, arg = raw.partition(":")
    try:
        node_id = int(node)
    except ValueError as exc:
        raise ScenarioError(f"bad fault node {node!r}") from exc
    at_time = 0
    if arg:
        if kind != "crash":
            raise ScenarioError(f"fault {kind!r} takes no argument")
        try:
            at_time = int(arg)
        except ValueError as exc:
            raise ScenarioError(f"bad crash time {arg!r}") from exc
    return FaultSpec(node=node_id, kind=kind, at_time=at_time)


def load_scenario(path: str | Path) -> SimConfig:
    parser = configparser.ConfigParser(interpolation=None)
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"unparseable scenario: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown section [{section}]")
    sys_sec = parser["system"] if parser.has_section("system") else {}
    for key in sys_sec:
        if key not in _SYSTEM_KEYS:
            raise ScenarioError(f"unknown key {key!r} in [system]")
    net_sec = parser["network"] if parser.has_section("network") else {}
    for key in net_sec:
        if key not in _NETWORK_KEYS:
            raise ScenarioError(f"unknown key {key!r} in [network]")

    try:
        params = SystemParams(
            n=int(sys_sec.get("n", "4")), f=int(sys_sec.get("f", "1"))
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    faults: List[FaultSpec] = []
    if parser.has_section("faults"):
        for node, raw in parser["faults"].items():
            faults.append(parse_fault(node, raw))
    rules: List[Tuple[str, DelayRule]] = []
    if parser.has_section("adversary"):
        for name, raw in parser["adversary"].items():
            rules.append((name, parse_rule(raw)))
    rules.sort(key=lambda item: item[0])

    try:
        config = SimConfig(
            params=params,
            seed=int(sys_sec.get("seed", "0")),
            mode=net_sec.get("mode", "lockstep"),
            delay_min=int(net_sec.get("delay_min", "1")),
            delay_max=int(net_sec.get("delay_max", "3")),
            rules=tuple(rule for _, rule in rules),
            faults=tuple(faults),
            num_instances=int(sys_sec.get("instances", "1")),
            tx_load=int(sys_sec.get("tx_load", "4")),
            tx_size=int(sys_sec.get("tx_size", "8")),
            block_cap=int(sys_sec.get("block_cap", "32")),
            integral_sort=_parse_bool(sys_sec.get("integral_sort", "false")),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return config
