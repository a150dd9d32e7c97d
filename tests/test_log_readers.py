"""The event log's readers in `src/` read only its written records, and
the tests plant edited records into that list.

`EventLog.records` keeps every record, the two in-memory-only kinds
included, for the benchmark's counts: the `send` records and crashed
nodes' `drop` records.  `EventLog.written` holds the records the log
writes and `of_kind` finds.  Only `EventLog` itself may touch `records`
(a crashed node lists its drops through `append`), and only `append` may
test a record's kind against `send`: a reader that filtered `send`
records would mean one that could see them.  A test that planted records
by changing `records` would reach no reader and so test nothing; plants go
to `written`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "falcon_bft"
TESTS = Path(__file__).resolve().parent

MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def _classes(tree: ast.AST) -> dict:
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def _methods(cls: ast.ClassDef) -> dict:
    return {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}


def _records_reads(tree: ast.AST) -> list:
    """Line of each `.records` attribute outside a class named EventLog."""
    inside = {id(node) for cls in _classes(tree).values() if cls.name == "EventLog"
              for node in ast.walk(cls)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "records" and id(node) not in inside]


def _records_edits(tree: ast.AST) -> list:
    """Line of each statement that assigns to `x.records` or an item of it,
    or calls a list method on it that changes it."""

    def is_records(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "records"

    def edits(target) -> bool:
        return is_records(target) or (isinstance(target, ast.Subscript) and is_records(target.value))

    found = []
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else node.targets if isinstance(node, ast.Delete) else [])
        called = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS and is_records(node.func.value))
        if called or any(edits(t) for t in targets):
            found.append(node.lineno)
    return sorted(found)


def _send_tests(tree: ast.AST) -> list:
    """Line of each comparison that has the str "send" as an operand."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(op, ast.Constant) and op.value == "send"
                    for op in (node.left, *node.comparators))]


def _event_log() -> ast.ClassDef:
    return _classes(ast.parse((SRC / "simnet.py").read_text()))["EventLog"]


def test_no_module_but_the_event_log_reads_records():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _records_reads(ast.parse(path.read_text()))]
    assert found == []


def test_no_test_plants_into_records():
    found = [f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py"))
             for line in _records_edits(ast.parse(path.read_text()))]
    assert found == []


def test_append_alone_tests_a_kind_against_send():
    found = {f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _send_tests(ast.parse(path.read_text()))}
    append = {f"simnet.py:{line}" for line in _send_tests(_methods(_event_log())["append"])}
    assert len(append) == 1 and found == append


def test_to_lines_and_of_kind_name_no_send():
    methods = _methods(_event_log())
    for name in ("to_lines", "of_kind"):
        assert not [node for node in ast.walk(methods[name])
                    if isinstance(node, ast.Constant) and node.value == "send"], name


def test_the_scans_flag_a_reader_that_filters_records():
    reader = ast.parse(
        "def reader(log):\n"
        "    return [r for r in log.records if r['kind'] != 'send']\n"
    )
    assert _records_reads(reader) == [2]
    assert _send_tests(reader) == [2]
    assert _records_reads(_event_log()) == []


def test_the_scan_flags_a_plant_into_records():
    plants = ast.parse(
        "def plant(log, rec):\n"
        "    log.records = [rec]\n"
        "    log.records[0] = rec\n"
        "    log.records += [rec]\n"
        "    log.records.append(rec)\n"
        "    del log.records[0]\n"
        "    log.written = [rec]\n"
        "    records = log.records\n"
    )
    assert _records_edits(plants) == [2, 3, 4, 5, 6]
