"""Span tracer that wraps falcon_bft's layer entry points from outside `src/`.

Each wrapper is installed at the name its caller looks up: methods on their
class, module-level functions in the namespace of the module that calls
them (a `from .x import f` binds a second name, so both are wrapped).  A
span is (name, start, end, parent) and lives in four parallel arrays until
the pass ends; a layer's self time is its spans' durations minus the
durations of their direct children.  `Tracer.restore` puts every original
back; `with tracer:` does both.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "bench.pipeline"

# (span name, module, class or None, attribute); the span's layer is the
# part of its name before the first dot
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("crypto.partial_sign", "falcon_bft.crypto", "KeyRegistry", "partial_sign"),
    ("crypto.verify_partial", "falcon_bft.crypto", "KeyRegistry", "verify_partial"),
    ("crypto.verify_partial_for", "falcon_bft.crypto", "KeyRegistry", "verify_partial_for"),
    ("crypto.combine", "falcon_bft.crypto", "KeyRegistry", "combine"),
    ("crypto.verify_threshold", "falcon_bft.crypto", "KeyRegistry", "verify_threshold"),
    ("crypto.tagged_digest", "falcon_bft.crypto", None, "tagged_digest"),
    ("crypto.tagged_digest", "falcon_bft.gbc", None, "tagged_digest"),
    ("crypto.coin", "falcon_bft.aba", None, "coin"),
    ("gbc.on_propose", "falcon_bft.gbc", "GbcInstance", "on_propose"),
    ("gbc.on_echo1", "falcon_bft.gbc", "GbcInstance", "on_echo1"),
    ("gbc.on_echo2", "falcon_bft.gbc", "GbcInstance", "on_echo2"),
    ("gbc.learn_body", "falcon_bft.gbc", "GbcInstance", "learn_body"),
    ("acsq.handle", "falcon_bft.acsq", "AcsqInstance", "handle"),
    ("aaba.handle", "falcon_bft.aaba", "AabaInstance", "handle"),
    ("aba.input", "falcon_bft.aba", "AbaInstance", "input"),
    ("aba.on_bval", "falcon_bft.aba", "AbaInstance", "on_bval"),
    ("aba.on_aux", "falcon_bft.aba", "AbaInstance", "on_aux"),
    ("aba.on_decided", "falcon_bft.aba", "AbaInstance", "on_decided"),
    ("sorter.partial_sort", "falcon_bft.node", None, "partial_sort"),
    ("node.handle", "falcon_bft.node", "Node", "handle"),
    ("node.start", "falcon_bft.node", "Node", "start"),
    ("node.inject_tx", "falcon_bft.node", "Node", "inject_tx"),
    ("simnet.schedule", "falcon_bft.simnet", None, "schedule"),
    ("simnet.run", "falcon_bft.simnet", "Simulation", "run"),
    ("simnet.rule_matches", "falcon_bft.simnet", "DelayRule", "matches"),
    ("eventlog.append", "falcon_bft.simnet", "EventLog", "append"),
    ("eventlog.of_kind", "falcon_bft.simnet", "EventLog", "of_kind"),
    ("eventlog.to_lines", "falcon_bft.simnet", "EventLog", "to_lines"),
    ("observer.observe_invariants", "falcon_bft.observer", None, "observe_invariants"),
    ("observer.check_liveness", "falcon_bft.observer", None, "check_liveness"),
    ("metrics.decompose_latency", "falcon_bft.metrics", None, "decompose_latency"),
    ("metrics.tx_records", "falcon_bft.metrics", None, "tx_records"),
)

LAYERS = (
    "bench", "crypto", "gbc", "acsq", "aaba", "aba", "sorter", "node",
    "simnet", "eventlog", "observer", "metrics",
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Records spans and boundary counts for one traced pass at a time."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._installed: List[Tuple[object, str, object]] = []
        self.counts: Counter = Counter()  # the hooks hold this object; reset clears it
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts; wrappers stay installed."""
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self._stack: List[int] = []
        self.counts.clear()
        self.delivered: List[object] = []  # envelopes handed to Node.handle
        self._queue_depth = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, pre=None, post=None) -> Callable:
        nid = self.name_id(name)
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            state = pre(args) if pre is not None else None
            names, stack = tracer.sp_name, tracer._stack
            idx = len(names)
            names.append(nid)
            tracer.sp_parent.append(stack[-1] if stack else -1)
            tracer.sp_end.append(0)
            stack.append(idx)
            tracer.sp_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.sp_end[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, state, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def span(self, name: str, fn: Callable, *args):
        """Call fn(*args) inside a span that the benchmark itself opens."""
        return self._wrap(name, fn)(*args)

    # -- boundary counts --------------------------------------------------------

    def _hooks(self) -> Dict[str, Tuple[Optional[Callable], Optional[Callable]]]:
        from falcon_bft.core_types import Assist, Query

        counts = self.counts

        def echo_pre(grade):
            def pre(args):
                gbc = args[0]
                late = (gbc.delivered1 if grade == 1 else gbc.delivered2) is not None
                counts["gbc.late_echoes"] += late
                return gbc.delivered2 is None

            return pre

        def grade2_pre(args):
            return args[0].delivered2 is None

        def grade2_post(args, was_open, result):
            if was_open and args[0].delivered2 is not None:
                counts["gbc.grade2_deliveries"] += 1

        def handle_pre(args):
            node, env = args
            self._queue_depth -= 1
            self.delivered.append(env)
            counts["node.held"] += env.addr.acsq_id > node.k + 1

        def handle_post(args, state, result):
            counts["node.envelopes_out"] += len(result)

        def append_pre(args):
            kind = args[1]["kind"]
            counts["eventlog.records"] += 1
            if kind == "send":
                counts["eventlog.sends"] += 1
                self._queue_depth += 1
                if self._queue_depth > counts["simnet.queue_peak"]:
                    counts["simnet.queue_peak"] = self._queue_depth
            elif kind == "drop" and args[1].get("reason") == "crashed":
                self._queue_depth -= 1

        def sort_post(args, state, result):
            counts["sorter.useful_calls"] += bool(result)

        def acsq_pre(args):
            inst, env = args
            body = env.body
            counts["acsq.queries"] += isinstance(body, Query)
            return isinstance(body, Assist) and env.addr.index not in inst.M2

        def acsq_post(args, assist_new, result):
            inst, env = args
            if assist_new and env.addr.index in inst.M2:
                counts["acsq.assist_adopts"] += 1

        def aaba_pre(args):
            return args[0].output is None

        def aaba_post(args, was_open, result):
            inst = args[0]
            if was_open and inst.output is not None:
                counts["aaba.out_" + inst.output_source] += 1

        def aba_post(args, state, result):
            rnd = args[0].round
            if rnd > counts["aba.max_round"]:
                counts["aba.max_round"] = rnd

        return {
            "gbc.on_echo1": (echo_pre(1), grade2_post),
            "gbc.on_echo2": (echo_pre(2), grade2_post),
            "gbc.on_propose": (grade2_pre, grade2_post),
            "gbc.learn_body": (grade2_pre, grade2_post),
            "node.handle": (handle_pre, handle_post),
            "eventlog.append": (append_pre, None),
            "sorter.partial_sort": (None, sort_post),
            "acsq.handle": (acsq_pre, acsq_post),
            "aaba.handle": (aaba_pre, aaba_post),
            "aba.input": (None, aba_post),
            "aba.on_bval": (None, aba_post),
            "aba.on_aux": (None, aba_post),
            "aba.on_decided": (None, aba_post),
        }

    # -- install / restore ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for name, module_name, class_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr]
            pre, post = hooks.get(name, (None, None))
            setattr(owner, attr, self._wrap(name, original, pre, post))
            self._installed.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- aggregation ------------------------------------------------------------

    def span_records(self) -> List[Tuple[str, int, int, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.sp_name, self.sp_start, self.sp_end, self.sp_parent)
        ]

    def summary(self) -> dict:
        """Per-layer self time, per-name calls and inclusive time, child-parent counts."""
        names = self.sp_name
        starts, ends, parents = self.sp_start, self.sp_end, self.sp_parent
        child_ns = [0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        layer_by_id = [layer_of(n) for n in self.names]
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        calls: Counter = Counter()
        under: Counter = Counter()  # (span name, parent layer) -> calls
        for i, n in enumerate(names):
            dur = ends[i] - starts[i]
            self_ns[layer_by_id[n]] += dur - child_ns[i]
            incl_ns[self.names[n]] += dur
            calls[self.names[n]] += 1
            p = parents[i]
            under[(self.names[n], layer_by_id[names[p]] if p >= 0 else "")] += 1
        return {
            "self_s": {layer: self_ns[layer] / 1e9 for layer in LAYERS},
            "incl_s": {name: v / 1e9 for name, v in incl_ns.items()},
            "calls": calls,
            "under": under,
        }

    def write_spans(self, path) -> None:
        """One line per span; times in ns from the pass's first span, parent as a line index."""
        t0 = self.sp_start[0] if self.sp_start else 0
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for n, s, e, p in zip(self.sp_name, self.sp_start, self.sp_end, self.sp_parent):
                fh.write(f"{self.names[n]}\t{s - t0}\t{e - t0}\t{p}\n")
