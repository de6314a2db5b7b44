"""Span tracing from outside the program.

:class:`Tracer` replaces public functions and methods of each layer with
wrappers that record a span per call: name, start, end, parent span and the
participant being replayed.  Self time (a span's duration minus the part
its child spans cover) is summed per span name as the spans close, so the
per-layer numbers need no second pass.  Some functions are called too
often to hold a span each (a builtin per join step, a snapshot lookup per
atom); those are only counted.

Spans stay in memory as flat integer arrays until :meth:`Tracer.reset` and
are written out by :meth:`Tracer.write_spans`.  :meth:`Tracer.installed` patches the program
for the duration of a ``with`` block and restores every original on exit.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator, Optional

from fluentnet import context, dsl, ingest, metrics, network, procedures, rules

# (span name, owner, attribute).  The owner is a class for methods, or every
# module whose globals the callers look the function up in.
SPANS = (
    ("ingest.load_trace", (ingest,), "load_trace"),
    ("context.classify", context.ContextStore, "classify"),
    ("context.assert_statement", context.ContextStore, "assert_statement"),
    ("context.infer_person_context", context.ContextStore, "infer_person_context"),
    ("context.snapshot", context.ContextStore, "snapshot"),
    ("context.query_instances", context.ContextStore, "query_instances"),
    ("context.clear_statements", context.ContextStore, "clear_statements"),
    ("rules.evaluate", rules.RuleEngine, "evaluate"),
    ("network.pending_until", network.RuntimeNetwork, "pending_until"),
    ("network.note_mutation", network.RuntimeNetwork, "note_mutation"),
    ("network.evaluate_condition", network.RuntimeNetwork, "evaluate_condition"),
    ("network.notify_sync", network.RuntimeNetwork, "notify_sync"),
    ("network.run_procedure", network.RuntimeNetwork, "run_procedure"),
    ("network.bootstrap", (network, procedures), "bootstrap"),
    ("procedures.replay_step", procedures.Replayer, "replay_step"),
    ("procedures.importer", procedures.Importer, "__call__"),
    ("procedures.evaluator", procedures.Evaluator, "__call__"),
    ("procedures.prepass", procedures.Evaluator, "run_prepasses"),
    ("metrics.telemetry_record", metrics.Telemetry, "record"),
    ("metrics.score", (metrics,), "score"),
    ("dsl.parse_model", (dsl,), "parse_model"),
    ("dsl.compile_model", (dsl,), "compile_model"),
)

# (counter name, owner, attribute): counted, never timed.
COUNTS = (
    ("rules.builtin_calls", (rules,), "eval_builtin"),
    ("rules.snapshot_lookups", context.Snapshot, "get"),
    ("rules.snapshot_lookups", context.Snapshot, "of_concept"),
)

_FIELDS = 5  # name id, start ns, end ns, parent span index (-1 at top), participant id


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [name for name, _, _ in SPANS]
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self._stack: list[list[int]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and aggregate."""
        self.participants: list[str] = []
        self._participant = -1
        self.spans = array("q")
        self.self_ns: Counter[str] = Counter()
        self.max_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.peak_instances: dict[str, int] = {}
        self._classify_seen: dict[context.ContextStore, int] = {}

    def begin_participant(self, label: str) -> None:
        self.participants.append(label)
        self._participant = len(self.participants) - 1

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, probe: Optional[Callable]) -> Callable:
        name_id = self._name_ids[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans) // _FIELDS
            spans.extend((name_id, 0, 0, stack[-1][0] if stack else -1, self._participant))
            frame = [index, 0]  # span index, ns covered by child spans
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                spans[index * _FIELDS + 1] = start
                spans[index * _FIELDS + 2] = end
                self.self_ns[name] += duration - frame[1]
                if duration > self.max_ns[name]:
                    self.max_ns[name] = duration
                if stack:
                    stack[-1][1] += duration
            self.calls[name] += 1
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- probes: counters read off arguments and results -------------------------

    def _after_classify(self, args, result) -> None:
        store = args[0]
        if self._classify_seen.get(store) != store.mutation_seq:
            self._classify_seen[store] = store.mutation_seq
            self.counts["context.classify_recomputes"] += 1

    def _after_assert(self, args, result) -> None:
        store = args[0]
        size = len(store.instances)
        if size > self.peak_instances.get(store.name, 0):
            self.peak_instances[store.name] = size

    def _after_snapshot(self, args, result) -> None:
        self.counts["context.snapshot_instances"] += len(result.instances)

    def _after_evaluate(self, args, result) -> None:
        self.counts["rules.derived"] += len(result)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        probes = {
            "context.classify": self._after_classify,
            "context.assert_statement": self._after_assert,
            "context.snapshot": self._after_snapshot,
            "rules.evaluate": self._after_evaluate,
        }
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
            for target in owner if isinstance(owner, tuple) else (owner,):
                original = getattr(target, attribute)
                saved.append((target, attribute, original))
                setattr(target, attribute, make(original))

        try:
            for name, owner, attribute in SPANS:
                patch(owner, attribute, lambda fn, n=name: self._span(n, fn, probes.get(n)))
            for name, owner, attribute in COUNTS:
                patch(owner, attribute, lambda fn, n=name: self._count(n, fn))
            yield self
        finally:
            for target, attribute, original in reversed(saved):
                setattr(target, attribute, original)
            self._classify_seen.clear()

    # -- output ------------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as TSV, start times relative to the first
        span; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        count = len(spans) // _FIELDS
        origin = spans[1] if count else 0
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("span\tparent\tname\tparticipant\tstart_ns\tduration_ns\n")
            for i in range(count):
                name_id, start, end, parent, participant = spans[i * _FIELDS : (i + 1) * _FIELDS]
                handle.write(
                    f"{i}\t{parent}\t{self.names[name_id]}\t{self.participants[participant]}"
                    f"\t{start - origin}\t{end - start}\n"
                )
        return count
