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
    rule2 = to=2 acsq=1 body=Propose index=1 delay=5

[adversary] rules are tried in the order the file lists them, whatever
their keys are named; the first rule that matches a message sets its extra
delay.  Unknown sections or keys, `[DEFAULT]` among them, empty rules and
integers that are not plain decimal digits, `[+-]?[0-9]+`, are rejected
before anything runs.
"""

from __future__ import annotations

import configparser
import re
from pathlib import Path
from typing import Dict, Iterable, Tuple

from .core_types import SystemParams
from .simnet import DelayRule, FaultSpec, SimConfig

_SECTIONS = {"system", "network", "faults", "adversary"}


class ScenarioError(Exception):
    pass


def _int(raw: str) -> int:
    """`raw` as an int if it is a plain decimal, `[+-]?[0-9]+`, else ValueError:
    `int` alone also takes `_` separators and non-ASCII digits."""
    if re.fullmatch(r"[+-]?[0-9]+", raw) is None:
        raise ValueError(f"not a decimal integer: {raw!r}")
    return int(raw)


# Every settable key, by where it appears: key -> (field, parser).  [system]
# and [network] keys set `SimConfig` fields, except n and f, which set
# `SystemParams`; the tokens of an [adversary] rule set `DelayRule` fields.
# A key a file leaves unset takes its field's default.
_KEYS = {
    "system": {
        "n": ("n", _int),
        "f": ("f", _int),
        "seed": ("seed", _int),
        "instances": ("num_instances", _int),
        "tx_load": ("tx_load", _int),
        "variant": ("variant", str),
    },
    "network": {
        "mode": ("mode", str),
        "delay_min": ("delay_min", _int),
        "delay_max": ("delay_max", _int),
    },
    "rule": {
        "from": ("sender", _int),
        "to": ("recipient", _int),
        "body": ("body", str),
        "acsq": ("acsq_id", _int),
        "index": ("index", _int),
        "delay": ("delay", _int),
    },
}


def _fields(where: str, items: Iterable[Tuple[str, str]]) -> Dict[str, object]:
    """The field values of the keys a file sets; a bad value raises ValueError."""
    table = _KEYS[where]
    out: Dict[str, object] = {}
    for key, raw in items:
        if key not in table:
            raise ScenarioError(f"unknown {where} key {key!r}")
        field, parse = table[key]
        if field in out:  # configparser catches this within a section only
            raise ScenarioError(f"repeated {where} key {key!r}")
        out[field] = parse(raw)
    return out


def parse_rule(raw: str) -> DelayRule:
    tokens = []
    for token in raw.split():
        if "=" not in token:
            raise ScenarioError(f"bad rule token {token!r}")
        tokens.append(token.split("=", 1))
    if not tokens:  # it would match every message and shield every later rule
        raise ScenarioError("empty rule")
    try:
        return DelayRule(**_fields("rule", tokens))
    except ValueError as exc:
        raise ScenarioError(f"bad rule {raw!r}: {exc}") from exc


def parse_fault(node: str, raw: str) -> FaultSpec:
    kind, colon, arg = raw.partition(":")
    try:
        node_id = _int(node)
    except ValueError as exc:
        raise ScenarioError(f"bad fault node {node!r}") from exc
    at_time = 0
    if colon:  # `crash:` with no tick is an error, not tick 0
        if kind != "crash":
            raise ScenarioError(f"fault {kind!r} takes no argument")
        try:
            at_time = _int(arg)
        except ValueError as exc:
            raise ScenarioError(f"bad crash time {arg!r}") from exc
    return FaultSpec(node=node_id, kind=kind, at_time=at_time)


def load_scenario(path: str | Path) -> SimConfig:
    # no header parses to "", so [DEFAULT] is a section like any other and
    # is rejected, rather than its keys merged into every section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"unreadable scenario: {exc}") from exc
    except configparser.Error as exc:
        # configparser's messages span lines; an error message is one line
        raise ScenarioError("unparseable scenario: " + " ".join(str(exc).split())) from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown section [{section}]")

    def items(section: str) -> Iterable[Tuple[str, str]]:
        return parser[section].items() if parser.has_section(section) else ()

    faults = tuple(parse_fault(node, raw) for node, raw in items("faults"))
    # rules keep file order, which configparser preserves: the first match wins
    rules = tuple(parse_rule(raw) for _, raw in items("adversary"))
    try:
        settings = _fields("system", items("system"))
        settings.update(_fields("network", items("network")))
        # SystemParams has no defaults; a scenario's are n = 4, f = 1
        params = SystemParams(n=settings.pop("n", 4), f=settings.pop("f", 1))
        return SimConfig(params=params, rules=rules, faults=faults, **settings)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
