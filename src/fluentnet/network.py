"""Network description, bootstrap and the mutation-driven scheduler.

The network is declared in one plain-text document: nodes (each backed by a
store model file), procedures (with the key of the algorithm they run and
the events that trigger them), events (conjunctions of conditions) and
conditions (rate-sampled checks in one node).  The implicit upper node
``U`` is always part of the runtime network.  A node's declared mode
(``overwrite`` or ``append``) is how its store keeps sensor readings; an
unknown section, an option a section does not define, a duplicate
activity index and a name holding a tab (the dispatch log's field
separator) are rejected.

A condition checks either one statement's state (``checks=N``) or the
person's inferred context (``checks=PERSON:prop:TARGET``, on a node whose
model declares a ``[person]``).  Both are answered by the node's store: a
statement check reads the statement's state, and a pattern check reads the
answer of the store's watch of its pattern (:meth:`ContextStore.watch`)
once :meth:`ContextStore.classify` has brought the watch counts up to
date.  The scheduler never reads store internals or classifies anything
itself.

Scheduling is edge-triggered: a condition sampled from false to true
re-arms and re-evaluates the events observing it; an event whose conditions
all hold fires once and stays consumed until one of its conditions rises
again.  A procedure fires when any of its required events fires.  A
condition's outcome can only change when its node's store changes, so a
store mutation schedules one sample of that node's conditions at their
next rate tick, and :meth:`RuntimeNetwork.pending_until` runs those samples
in time order.

The conditions on one node at one rate are always scheduled together and
take the same ticks (a mutation schedules all of a node's conditions, and
:meth:`RuntimeNetwork.notify_sync` takes no tick), so they share one
:class:`TickGroup`: one tick state and one pending entry, keyed by the
node and the rate's integer numerator and denominator.  A group's sample
takes its tick once, evaluates its statement checks, and evaluates a
pattern check only when its watch's answer, read after the store has
classified, would flip the check's outcome; a check skipped that way would
have read the outcome it already holds.  The wiring is resolved once, when
the network is built: a group holds its node's store and its conditions,
a :class:`ConditionState` its store and the :class:`EventState` objects
observing it, and an event its conditions' positions and the procedures
requiring it.  No object refers back to one that refers to it, so a
dropped network is freed by reference counting alone.  Only
``note_mutation``, ``run_procedure`` and ``notify_sync`` (in name-ordered
tuples) look up the names they are given.  Writes are noted once per
outermost dispatch (a ``pending_until`` batch, or a ``notify_sync`` or
``sample_and_dispatch`` outside any procedure): its first procedure reads
every store's ``mutation_seq``, and the end of its cascade notes each store
that moved.  That is exact: the clock stays and no tick is taken within a
dispatch, so one note per store leaves the pending samples a note per
procedure leaves, in an order a batch sorts away.
Tick times are exact integer ceil/floor divisions: tick ``k`` of a ``p/q``
Hz group falls at ``ceil(k * 1000 * q / p)`` ms.  Everything runs on one
logical thread of control against a virtual clock, so a fixed
configuration and trace always produce the same dispatch log.

The dispatch log is held once, as text (:class:`DispatchLog`): an entry
is emitted as its rendered line, and :meth:`RuntimeNetwork.render_log`
appends the lines emitted since the last render to the log's text and
returns that text, which a replay's result then shares.  A read renders
first and reads its entries back from the text, so a log costs its
text and one machine integer per entry, none of it tracked by the cyclic
collector.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

from .context import (
    ConceptGraph,
    ConsistencyError,
    ContextStore,
    PatternWatch,
    StoreError,
    UnknownConceptError,
)
from .modelio import (
    ConfigError,
    ConfigLine,
    StoreModel,
    build_store,
    load_store_model,
    read_sections,
    split_options,
)

logger = logging.getLogger(__name__)

UPPER_NODE = "U"
BOOT_STATEMENT = "BOOT"
PERSON_CONCEPT = "PERSON"

DEFAULT_RATE_HZ = Fraction(50)
_BY_NAME = attrgetter("decl.name")


class NetworkError(ConfigError):
    """Network description failed validation."""


class BootstrapError(RuntimeError):
    """A node's model file could not be loaded."""


@dataclass(frozen=True)
class StatementCheck:
    statement_id: str


@dataclass(frozen=True)
class PatternCheck:
    """``PERSON:prop:TARGET``: the person's inferred context holds a
    ``prop`` target classified under ``target_concept``."""

    prop: str
    target_concept: str


@dataclass(frozen=True)
class ConditionDecl:
    name: str
    check: Union[StatementCheck, PatternCheck]
    node: str
    target: bool
    rate_hz: Fraction = DEFAULT_RATE_HZ


@dataclass(frozen=True)
class EventDecl:
    name: str
    observes: tuple[str, ...]


@dataclass(frozen=True)
class ProcDecl:
    name: str
    implements: str
    requires: tuple[str, ...]


@dataclass(frozen=True)
class NodeDecl:
    name: str
    represents: str
    mode: str


@dataclass(frozen=True)
class ActivityDecl:
    """Scenario binding for one activity: its node, the installed-sensor
    concept selecting imports, and the model file."""

    index: int
    label: str
    node: str
    installed: str
    model_path: str


@dataclass(frozen=True)
class NetworkModel:
    nodes: tuple[NodeDecl, ...]
    procedures: tuple[ProcDecl, ...]
    events: tuple[EventDecl, ...]
    conditions: tuple[ConditionDecl, ...]
    activities: tuple[ActivityDecl, ...] = ()


def _parse_bool(value: str, lineno: int) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise NetworkError(f"line {lineno}: expected a boolean, found {value!r}")


def _split(line: ConfigLine, kind: str, known: tuple[str, ...]) -> tuple[list[str], dict[str, str]]:
    """Split one declaration; an option its section does not define is an error."""
    positional, options = split_options(line.tokens)
    unknown = sorted(set(options) - set(known))
    if unknown:
        raise NetworkError(f"line {line.lineno}: unknown {kind} option {unknown[0]!r}")
    return positional, options


def load_network(text: str) -> NetworkModel:
    """Parse and cross-check a network description."""
    sections = read_sections(text, ("nodes", "conditions", "events", "procedures", "activities"))

    nodes: list[NodeDecl] = []
    for line in sections.get("nodes", []):
        positional, options = _split(line, "node", ("represents", "mode"))
        if len(positional) != 1 or "represents" not in options:
            raise NetworkError(f"line {line.lineno}: node line must read 'NAME represents=FILE'")
        name = positional[0]
        if name in (UPPER_NODE,):
            raise NetworkError(f"line {line.lineno}: node name {name!r} is reserved")
        mode = options.get("mode", "overwrite")
        if mode not in ("overwrite", "append"):
            raise NetworkError(f"line {line.lineno}: unknown reasoner mode {mode!r}")
        nodes.append(NodeDecl(name=name, represents=options["represents"], mode=mode))

    conditions: list[ConditionDecl] = []
    node_names = {n.name for n in nodes} | {UPPER_NODE}
    for line in sections.get("conditions", []):
        positional, options = _split(line, "condition", ("checks", "in", "hasTarget", "rate"))
        if len(positional) != 1:
            raise NetworkError(f"line {line.lineno}: condition line must start with its name")
        for required in ("checks", "in", "hasTarget"):
            if required not in options:
                raise NetworkError(f"line {line.lineno}: condition missing {required!r}")
        node = options["in"]
        if node not in node_names:
            raise NetworkError(f"line {line.lineno}: condition references unknown node {node!r}")
        checks = options["checks"]
        check: Union[StatementCheck, PatternCheck]
        if ":" in checks:
            parts = checks.split(":")
            if len(parts) != 3 or parts[0] != PERSON_CONCEPT:
                raise NetworkError(
                    f"line {line.lineno}: pattern check must read "
                    f"{PERSON_CONCEPT}:prop:TARGET, found {checks!r}"
                )
            check = PatternCheck(prop=parts[1], target_concept=parts[2])
        else:
            check = StatementCheck(statement_id=checks)
        try:
            rate = Fraction(options.get("rate", str(DEFAULT_RATE_HZ)))
        except (ValueError, ZeroDivisionError):
            raise NetworkError(
                f"line {line.lineno}: rate must be a number, found {options['rate']!r}"
            ) from None
        if rate <= 0:
            raise NetworkError(f"line {line.lineno}: rate must be positive")
        conditions.append(
            ConditionDecl(
                name=positional[0],
                check=check,
                node=node,
                target=_parse_bool(options["hasTarget"], line.lineno),
                rate_hz=rate,
            )
        )

    condition_names = {c.name for c in conditions}
    events: list[EventDecl] = []
    for line in sections.get("events", []):
        positional, options = _split(line, "event", ("observes",))
        if len(positional) != 1 or "observes" not in options:
            raise NetworkError(f"line {line.lineno}: event line must read 'NAME observes=C1[,C2]'")
        observed = tuple(options["observes"].split(","))
        if not observed or not all(observed):
            raise NetworkError(f"line {line.lineno}: event must observe at least one condition")
        for cond in observed:
            if cond not in condition_names:
                raise NetworkError(f"line {line.lineno}: unknown condition {cond!r}")
        events.append(EventDecl(name=positional[0], observes=observed))

    event_names = {e.name for e in events}
    procedures: list[ProcDecl] = []
    for line in sections.get("procedures", []):
        positional, options = _split(line, "procedure", ("implements", "requires"))
        if len(positional) != 1 or "implements" not in options:
            raise NetworkError(f"line {line.lineno}: procedure line must read 'NAME implements=KEY'")
        name = positional[0]
        required = tuple(options.get("requires", "").split(",")) if options.get("requires") else ()
        if not required:
            raise NetworkError(f"line {line.lineno}: procedure {name!r} requires no event")
        for event in required:
            if event not in event_names:
                raise NetworkError(f"line {line.lineno}: unknown event {event!r}")
        procedures.append(ProcDecl(name=name, implements=options["implements"], requires=required))

    activities: list[ActivityDecl] = []
    activity_options = ("label", "node", "installed", "model")
    for line in sections.get("activities", []):
        positional, options = _split(line, "activity", activity_options)
        if len(positional) != 1:
            raise NetworkError(f"line {line.lineno}: activity line must start with its index")
        if not positional[0].isdecimal():
            raise NetworkError(
                f"line {line.lineno}: activity index must be a number, found {positional[0]!r}"
            )
        for required in activity_options:
            if required not in options:
                raise NetworkError(f"line {line.lineno}: activity missing {required!r}")
        if options["node"] not in node_names:
            raise NetworkError(f"line {line.lineno}: unknown node {options['node']!r}")
        index = int(positional[0])
        if any(a.index == index for a in activities):
            raise NetworkError(f"line {line.lineno}: duplicate activity index {index}")
        activities.append(
            ActivityDecl(
                index=index,
                label=options["label"],
                node=options["node"],
                installed=options["installed"],
                model_path=options["model"],
            )
        )

    for kind, declared in (
        ("node", [n.name for n in nodes]),
        ("procedure", [p.name for p in procedures]),
        ("event", [e.name for e in events]),
        ("condition", [c.name for c in conditions]),
    ):
        seen = set()
        for name in declared:
            if name in seen:
                raise NetworkError(f"duplicate {kind} name {name!r}")
            if "\t" in name:  # the dispatch log separates its fields with tabs
                raise NetworkError(f"{kind} name {name!r} holds a tab")
            seen.add(name)

    return NetworkModel(
        nodes=tuple(nodes),
        procedures=tuple(procedures),
        events=tuple(events),
        conditions=tuple(conditions),
        activities=tuple(activities),
    )


# --------------------------------------------------------------------------
# Runtime

@dataclass
class VirtualClock:
    """Monotone virtual time in ms."""

    now: int = 0

    def advance_to(self, time_ms: int) -> None:
        if time_ms > self.now:
            self.now = time_ms


@dataclass(eq=False)
class TickGroup:
    """The conditions on one node at one rate, the node's store and the
    last rate tick they were sampled at.  A rate of ``p/q`` Hz is ``p``
    ticks per ``1000 * q`` ms, kept as two integers."""

    store: ContextStore
    ticks: int
    per_ms: int
    members: list["ConditionState"] = field(default_factory=list)
    watched: bool = False  # some member is a pattern check
    last_tick: int = 0

    def due_at_or_after(self, time_ms: int) -> int:
        """Next scheduled sample time: the first unused k/rate tick >= now."""
        k = max(self.last_tick + 1, -(-max(time_ms, 0) * self.ticks // self.per_ms), 1)
        return -(-k * self.per_ms // self.ticks)

    def take_tick(self, time_ms: int) -> None:
        self.last_tick = time_ms * self.ticks // self.per_ms


@dataclass(eq=False)
class ConditionState:
    """A condition's outcome, its node's store and the events observing it
    (in declaration order).  A pattern check also holds its store's watch
    of the pattern."""

    decl: ConditionDecl
    store: ContextStore
    outcome: bool = False
    watch: Optional[PatternWatch] = None
    observers: list["EventState"] = field(default_factory=list)


@dataclass(eq=False)
class EventState:
    """An event's wiring: its conditions' positions in the network's
    declaration order and the procedures requiring it.  It stays consumed
    from firing until a condition rises."""

    name: str
    conditions: tuple[int, ...]
    procedures: tuple[str, ...]
    consumed: bool = False


@dataclass(frozen=True)
class LogEntry:
    time_ms: int
    kind: str
    name: str
    detail: str = ""

    def render(self) -> str:
        return f"{self.time_ms}\t{self.kind}\t{self.name}\t{self.detail}"


def _entry(line: str) -> LogEntry:
    """The entry one rendered line holds; the detail keeps any tab or
    newline of its own."""
    time_ms, kind, name, detail = line.split("\t", 3)
    return LogEntry(int(time_ms), kind, name, detail)


class DispatchLog(Sequence[LogEntry]):
    """A network's dispatch log, held once as text.

    The network appends each entry to ``_lines`` as its rendered line
    ended by a newline.  :meth:`render` appends those lines to the log's
    text, records where each one ends and clears ``_lines`` in place: the
    network appends to that list directly, so it is never replaced.  The
    text is the one ``str`` a render returns, so a replay's result and its
    network share it.  Every read renders first, then reads entries back
    as :class:`LogEntry` values from their spans of the text (a detail may
    hold a newline, so the spans come from the recorded ends, not from the
    text).  Nothing is cached per entry, and the log refers to no network.
    A slice is a list of entries.
    """

    __slots__ = ("_text", "_ends", "_lines")

    def __init__(self) -> None:
        self._text = ""
        # where each rendered line ends, past its newline, after where the
        # first one starts: entry i is text[ends[i] : ends[i + 1] - 1]
        self._ends = array("Q", (0,))
        self._lines: list[str] = []

    def render(self) -> str:
        """The log's text with the pending lines appended."""
        lines = self._lines
        if lines:
            ends = self._ends
            # the last end is where the new lines start: accumulate yields it back first
            ends.fromlist(list(accumulate(map(len, lines), initial=ends.pop())))
            self._text += "".join(lines)
            lines.clear()
        return self._text

    def __len__(self) -> int:
        self.render()
        return len(self._ends) - 1

    def __getitem__(self, key):
        text, ends = self.render(), self._ends
        at = range(len(ends) - 1)[key]  # an index or a range; raises as a list would
        if isinstance(at, range):
            return [_entry(text[ends[i] : ends[i + 1] - 1]) for i in at]
        return _entry(text[ends[at] : ends[at + 1] - 1])

    def __iter__(self):
        text, ends = self.render(), self._ends
        return (_entry(text[ends[i] : ends[i + 1] - 1]) for i in range(len(ends) - 1))


ProcedureImpl = Callable[["RuntimeNetwork", int], None]


def _noop(net: "RuntimeNetwork", now_ms: int) -> None:
    return None


class RuntimeNetwork:
    """Bootstrapped network: stores, procedures and scheduler state.

    ``log`` is the dispatch log as a :class:`DispatchLog`: :meth:`emit`
    appends each entry to its pending lines as one rendered line, and
    :meth:`render_log` appends them to its text and returns the text.
    """

    def __init__(
        self,
        model: NetworkModel,
        stores: dict[str, ContextStore],
        procedures: dict[str, ProcedureImpl],
    ) -> None:
        self.model = model
        self.stores = stores
        self.procedures = procedures
        self._by_node: dict[str, list[TickGroup]] = {}
        by_statement: dict[tuple[str, str], list[ConditionState]] = {}
        groups: dict[tuple[str, int, int], TickGroup] = {}
        self.conditions: dict[str, ConditionState] = {}
        for c in model.conditions:
            key = (c.node, c.rate_hz.numerator, c.rate_hz.denominator)
            group = groups.get(key)
            if group is None:
                group = groups[key] = TickGroup(stores[c.node], key[1], 1000 * key[2])
                self._by_node.setdefault(c.node, []).append(group)
            watch = None
            if isinstance(c.check, PatternCheck):
                watch = stores[c.node].watch(c.check.prop, c.check.target_concept)
                group.watched = True
            state = self.conditions[c.name] = ConditionState(decl=c, store=stores[c.node], watch=watch)
            group.members.append(state)
            if watch is None:
                by_statement.setdefault((c.node, c.check.statement_id), []).append(state)
        self._by_statement = {key: tuple(sorted(v, key=_BY_NAME)) for key, v in by_statement.items()}
        self._states = tuple(self.conditions.values())
        position = {name: i for i, name in enumerate(self.conditions)}
        for e in model.events:
            procs = tuple(p.name for p in model.procedures for r in p.requires if r == e.name)
            event = EventState(e.name, tuple(position[c] for c in e.observes), procs)
            for i in event.conditions:
                self._states[i].observers.append(event)
        self._evaluated = 0
        self.clock = VirtualClock()
        self.log = DispatchLog()
        self._lines = self.log._lines  # emit appends here; a render clears it in place
        self._store_order = tuple(stores.items())
        self._seqs: Optional[list[int]] = None  # see run_procedure
        self._pending: dict[TickGroup, int] = {}

    @property
    def evaluated(self) -> int:
        """Condition evaluations since construction."""
        return self._evaluated

    # -- logging -----------------------------------------------------------

    def emit(self, kind: str, name: str, detail: str = "") -> None:
        """Append one entry, rendered as :meth:`LogEntry.render` renders it
        and ended by a newline."""
        self._lines.append(f"{self.clock.now}\t{kind}\t{name}\t{detail}\n")

    def render_log(self) -> str:
        """The dispatch log's text: every entry's line, each ended by a
        newline.  A render with nothing new emitted returns the same
        ``str``."""
        return self.log.render()

    # -- condition evaluation ------------------------------------------------

    def evaluate_condition(self, state: ConditionState) -> bool:
        self._evaluated += 1
        decl, watch = state.decl, state.watch
        if watch is None:
            value = state.store.statement_state(decl.check.statement_id)
            return value is not None and value is decl.target
        state.store.classify()  # brings the watch up to date
        return watch.answer is decl.target

    # -- sampling + dispatch cascade ------------------------------------------

    def sample_and_dispatch(self, states: Sequence[ConditionState]) -> None:
        """Sample conditions in name order; cascade the ones that rose."""
        self._dispatch(sorted(states, key=_BY_NAME) if len(states) > 1 else states)

    def _dispatch(self, states: Sequence[ConditionState]) -> None:
        risen: list[ConditionState] = []
        for state in states:
            outcome = self.evaluate_condition(state)
            if outcome == state.outcome:
                continue
            state.outcome = outcome
            self.emit("condition", state.decl.name, f"outcome={'true' if outcome else 'false'}")
            if outcome:
                risen.append(state)
        if risen:
            self._cascade(risen)

    def _cascade(self, risen: list[ConditionState]) -> None:
        """Re-arm and fire events observing conditions that rose.  An event met
        twice is consumed or unsatisfied the second time: no outcome changes."""
        for state in risen:
            for event in state.observers:
                event.consumed = False
        fired: list[EventState] = []
        states = self._states
        for state in risen:
            for event in state.observers:
                if not event.consumed and all(states[i].outcome for i in event.conditions):
                    event.consumed = True
                    self.emit("event", event.name)
                    fired.append(event)
        outermost = self._seqs is None
        for event in fired:
            for proc_name in event.procedures:
                self.run_procedure(proc_name)
        if outermost and self._seqs is not None:  # note what the procedures wrote
            for (store_name, store), seq in zip(self._store_order, self._seqs):
                if store.mutation_seq != seq:
                    self.note_mutation(store_name)
            self._seqs = None

    def run_procedure(self, name: str) -> None:
        impl = self.procedures[name]
        if self._seqs is None:  # the outermost dispatch's first procedure
            self._seqs = [store.mutation_seq for _, store in self._store_order]
        self.emit("procedure", name)
        try:
            impl(self, self.clock.now)
        except Exception as exc:  # procedure failure must not halt the loop
            logger.exception("procedure %s failed", name)
            self.emit("error", name, f"{type(exc).__name__}: {exc}")

    # -- the scheduler loop ---------------------------------------------------

    def note_mutation(self, store_name: str) -> None:
        """Record that a store changed; its tick groups get a pending sample."""
        now = self.clock.now
        pending = self._pending
        for group in self._by_node.get(store_name, ()):
            due = group.due_at_or_after(now)
            current = pending.get(group)
            if current is None or due < current:
                pending[group] = due

    def pending_until(self, limit: int) -> None:
        """Run pending (mutation-scheduled) samples due at or before ``limit``.

        Between mutations a condition's outcome cannot change, so the ticks
        in between are never sampled.  ``tests/oracles.py`` keeps a loop that
        samples every condition at every tick; the differential tests in
        ``tests/test_network.py`` and ``tests/test_procedures.py`` require
        both loops to write byte-identical dispatch logs.
        """
        pending = self._pending
        while pending:
            due_time = min(pending.values())
            if due_time > limit:
                break
            batch = [group for group, time in pending.items() if time == due_time]
            for group in batch:
                del pending[group]
            self.clock.advance_to(due_time)
            self.sample_and_dispatch(self._take_ticks(batch))

    def _take_ticks(self, batch: list[TickGroup]) -> list[ConditionState]:
        """Take each group's tick; returns the members whose outcome may have
        changed: every statement check, and each pattern check whose watch's
        answer would flip its outcome (sampling any other would re-read the
        outcome it holds, so no log entry can change by skipping it)."""
        now = self.clock.now
        states: list[ConditionState] = []
        for group in batch:
            group.take_tick(now)
            if group.watched:
                group.store.classify()  # brings the watches up to date
            for state in group.members:
                watch = state.watch
                if watch is not None and (watch.answer is state.decl.target) is state.outcome:
                    continue
                states.append(state)
        return states

    # -- targeted synchronisation ---------------------------------------------

    def notify_sync(self, node: str, statement_id: str) -> None:
        """Immediately sample the conditions checking one statement on one
        node, bypassing the rate clock; the events fired go to the log."""
        states = self._by_statement.get((node, statement_id), ())
        if not states and node not in self.stores:
            raise NetworkError(f"unknown node {node!r}")
        self._dispatch(states)


def _upper_store() -> ContextStore:
    graph = ConceptGraph()
    graph.add_concept("STATEMENT")
    store = ContextStore(name=UPPER_NODE, graph=graph)
    store.assert_statement(BOOT_STATEMENT, True, 0, concepts=("STATEMENT",))
    return store


_NODE_ERRORS = (ConfigError, StoreError, UnknownConceptError, ConsistencyError)


def load_node_model(node: NodeDecl, base_dir=None) -> StoreModel:
    """Read and parse one declared node's model file.  A file that cannot be
    read or parsed is a :class:`BootstrapError` naming the node."""
    path = Path(base_dir) / node.represents if base_dir is not None else Path(node.represents)
    try:
        return load_store_model(path)
    except OSError as exc:
        raise BootstrapError(f"node {node.name}: cannot read model file {path}: {exc}") from exc
    except _NODE_ERRORS as exc:
        raise BootstrapError(f"node {node.name}: {exc}") from exc


def build_node_store(node: NodeDecl, store_model: StoreModel) -> ContextStore:
    """A fresh store for one declared node, built from its parsed model in
    the node's declared mode.  A model that cannot be instantiated is a
    :class:`BootstrapError` naming the node."""
    try:
        return build_store(node.name, store_model, mode=node.mode)
    except _NODE_ERRORS as exc:
        raise BootstrapError(f"node {node.name}: {exc}") from exc


def bootstrap(
    model: NetworkModel,
    base_dir=None,
    implementations: Optional[Mapping[str, ProcedureImpl]] = None,
    store_models: Optional[Mapping[str, StoreModel]] = None,
) -> RuntimeNetwork:
    """Build the three runtime maps from the network description.

    Stores are initialised in their declared mode from ``store_models``
    (node name -> parsed model, as a scenario holds them) or else from their
    model files (the upper node is always present and carries the boot
    statement), procedures are bound to their implementations, and every
    condition starts with a false outcome.  A model that cannot be read or
    instantiated, and a pattern check on a node whose model declares no
    person, are rejected.
    """
    stores: dict[str, ContextStore] = {UPPER_NODE: _upper_store()}
    for node in model.nodes:
        store_model = store_models[node.name] if store_models is not None else load_node_model(node, base_dir)
        stores[node.name] = build_node_store(node, store_model)
    for cond in model.conditions:
        if isinstance(cond.check, PatternCheck) and stores[cond.node].person_id is None:
            raise BootstrapError(
                f"condition {cond.name}: node {cond.node} declares no [person] for a "
                f"{PERSON_CONCEPT} pattern check"
            )

    implementations = implementations or {}
    procedures = {decl.name: implementations.get(decl.implements, _noop) for decl in model.procedures}
    net = RuntimeNetwork(model=model, stores=stores, procedures=procedures)
    for store_name in stores:
        net.note_mutation(store_name)
    return net
