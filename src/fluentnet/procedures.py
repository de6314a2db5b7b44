"""The three procedure families: replayer, importers and model evaluators.

The replayer turns dataset readings into assertions in the spatial node,
classifying the node after each one, which brings the person's context
(its presence counts) and the watched patterns' answers up to date.  Each
importer reacts to a spatial trigger and copies into the activity node
its activity's sensors written since its last import: it keeps the
spatial store it read and that store's ``mutation_seq``, and visits only
the records whose ``seq`` is newer (every record of a store it has not
read).  A reading it copied last time is not copied again.  It then
raises the sync statement ``N`` so the paired evaluator runs in the same
step.  Readings and imports are stored in their node's declared
mode; ``N``, pre-pass results and the recognition are single-valued and
always overwrite.  The evaluator resets ``N``, runs any windowed
pre-passes, evaluates the compiled model rules on a snapshot, and on
success asserts the activity statement, records the recognition and clears
the node down to the result and the sync statement.

Each activity's rules are planned once, when the scenario is loaded
(:attr:`ActivityBinding.plans`); every replay's evaluator matches with an
engine of its own on those plans.  On its first evaluation of a node the
evaluator registers there exactly what it reads: per class atom the list
its plan names (``(concept, state)`` for a boolean ``hasState`` test, the
concept's plain list for none), per pre-pass a tally of its source and a
list of its derived concept.  A pre-pass reads a count and two times, and
a snapshot reads the lists in place.

An evaluation that recognised nothing notes the versions of those lists
(:attr:`KeptList.version`).  A later evaluation of the same store that
finds the same versions, after the ``N`` reset and :meth:`classify`, skips
the pre-passes, the snapshot and the match: they would write nothing and
derive nothing.  The ``N`` reset, its ``notify_sync`` and both telemetry
records still run, so every report keeps its bytes.  The skip is exact
because the evaluation reads nothing outside the noted lists:

- compiled rules are positive conjunctions: each class atom's candidates
  are the registered list its plan names, and every property atom,
  literal tests included, reads only records bound by class atoms, which
  sit in those lists; equal versions mean the same records, so the match
  finds nothing again;
- a pre-pass reads its source's tally and its stored result, which sits in
  its derived concept's list; with both unchanged it finds the result it
  would write already stored, and a pre-pass does not rewrite an equal
  result;
- the ``N`` reset writes ``N`` alone, under ``SYNC``, which no shipped
  rule or pre-pass reads; a model that read it would only end every skip.

A recognition, a new store or a new kept list (which makes the next read a
full recompute, moving every version) ends the skip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Mapping, Optional, Sequence

from . import dsl
from .context import OVERWRITE, ContextStore, KeptList
from .ingest import TraceEvent, drive
from .metrics import Telemetry
from .modelio import ConfigError, StoreModel, read_config, read_sections
from .network import (
    NetworkModel,
    ProcedureImpl,
    RuntimeNetwork,
    bootstrap,
    load_network,
    load_node_model,
)
from .rules import Plan, RuleEngine, plan_rules
from .statements import AGGREGATED

SPATIAL_NODE = "L"
SYNC_STATEMENT = "N"
SYNC_CONCEPT = "SYNC"
RESULT_KEEP = ("ACTIVITY", SYNC_CONCEPT)
_VERSION = attrgetter("version")

SCENARIO_DIR = Path(__file__).parent / "scenario"
NETWORK_FILE = "network.cfg"

REBASE_START_MS = 1000
TRAILING_FLUSH_MS = 2000


class ScenarioError(ConfigError):
    """The scenario configuration is inconsistent with itself."""


@dataclass(frozen=True)
class ActivityBinding:
    """Everything one activity needs: its node, sensors, the compiled
    fluent model and its rules' plans."""

    index: int
    label: str
    node: str
    sensor_ids: tuple[str, ...]
    ast: dsl.ModelAst
    compiled: dsl.CompiledModel
    plans: tuple[Plan, ...]


@dataclass(frozen=True)
class RecognitionRecord:
    activity: int
    time_ms: int
    contributing: tuple[str, ...]


@dataclass
class Scenario:
    """A loaded scenario: the network, each node's parsed store model (node
    name -> model; every replay builds its stores from these) and the
    compiled activities."""

    base_dir: Path
    model: NetworkModel
    store_models: dict[str, StoreModel]
    bindings: dict[int, ActivityBinding]
    sensor_rename: dict[str, str] = field(default_factory=dict)
    value_map: dict[str, bool] = field(default_factory=dict)

    def params(self) -> dict[str, int]:
        table: dict[str, int] = {}
        for binding in self.bindings.values():
            table.update(binding.ast.param_table())
        return table

    def load_trace_kwargs(self) -> dict:
        return {"rename": self.sensor_rename, "value_map": self.value_map}


SENSOR_MAP_FILE = "sensors.map"


def _parse_sensor_map(text: str) -> tuple[dict[str, str], dict[str, bool]]:
    """Per-scenario raw-token mapping (renames, extra state words)."""
    sections = read_sections(text, ("rename", "values"))
    rename: dict[str, str] = {}
    for line in sections.get("rename", []):
        if len(line.tokens) != 2:
            raise ConfigError(f"line {line.lineno}: rename line must read 'RAW CANONICAL'")
        rename[line.tokens[0]] = line.tokens[1]
    values: dict[str, bool] = {}
    for line in sections.get("values", []):
        if len(line.tokens) != 2 or line.tokens[1].lower() not in ("true", "false"):
            raise ConfigError(f"line {line.lineno}: value line must read 'WORD true|false'")
        values[line.tokens[0]] = line.tokens[1].lower() == "true"
    return rename, values


def load_scenario(
    config_dir: Optional[Path] = None, params: Optional[Mapping[str, int]] = None
) -> Scenario:
    """Load the network description, parse every node's store model once,
    and compile every activity model and plan its rules.

    A ``params`` name that no model declares is a :class:`ConfigError`.
    """
    base_dir = Path(config_dir) if config_dir is not None else SCENARIO_DIR
    model = read_config(base_dir / NETWORK_FILE, load_network)
    if SPATIAL_NODE not in {n.name for n in model.nodes}:
        raise ScenarioError(f"scenario declares no spatial node {SPATIAL_NODE!r}")
    store_models = {node.name: load_node_model(node, base_dir) for node in model.nodes}
    spatial_model = store_models[SPATIAL_NODE]

    bindings: dict[int, ActivityBinding] = {}
    for decl in model.activities:
        node_model = store_models[decl.node]
        with open(base_dir / decl.model_path, "r", encoding="utf-8") as handle:
            ast = dsl.parse_model(handle.read(), known_classes=node_model.graph.concepts)
        if params:
            ast = dsl.with_params(ast, dict(params))
        compiled = dsl.compile_model(ast)
        sensor_ids = tuple(
            sorted(
                sensor_id
                for sensor_id, sensor in spatial_model.installations.items()
                if decl.installed in sensor.concepts
            )
        )
        if not sensor_ids:
            raise ScenarioError(f"activity {decl.index}: no sensor installed as {decl.installed}")
        missing = [s for s in sensor_ids if s not in node_model.installations]
        if missing:
            raise ScenarioError(
                f"activity {decl.index}: node {decl.node} lacks labels for {missing}"
            )
        bindings[decl.index] = ActivityBinding(
            index=decl.index,
            label=decl.label,
            node=decl.node,
            sensor_ids=sensor_ids,
            ast=ast,
            compiled=compiled,
            plans=plan_rules(compiled.rules),
        )
    implemented = {"replayer"} | {f"{role}:{i}" for i in bindings for role in ("importer", "evaluator")}
    for proc in model.procedures:
        if proc.implements not in implemented:
            raise ScenarioError(f"procedure {proc.name}: unknown implementation {proc.implements!r}")
    sensor_map = base_dir / SENSOR_MAP_FILE
    rename, value_map = read_config(sensor_map, _parse_sensor_map) if sensor_map.exists() else ({}, {})
    scenario = Scenario(
        base_dir=base_dir,
        model=model,
        store_models=store_models,
        bindings=bindings,
        sensor_rename=rename,
        value_map=value_map,
    )
    unknown = sorted(set(params or ()) - set(scenario.params()))
    if unknown:
        raise ConfigError(f"unknown model parameter {unknown[0]!r}")
    return scenario


# --------------------------------------------------------------------------
# Session state shared by the procedures of one replay run

@dataclass
class ReplaySession:
    recognitions: list[RecognitionRecord] = field(default_factory=list)
    telemetry: Telemetry = field(default_factory=Telemetry)
    warnings: list[str] = field(default_factory=list)
    events_replayed: int = 0
    last_bindings: dict[int, tuple] = field(default_factory=dict)


class Replayer:
    """Procedure D: feeds dataset readings into the spatial node."""

    def __init__(self, session: ReplaySession) -> None:
        self.session = session

    def __call__(self, net: RuntimeNetwork, now_ms: int) -> None:
        """Dispatched once at boot; readings arrive through :meth:`replay_step`."""

    def replay_step(self, net: RuntimeNetwork, event: TraceEvent) -> bool:
        """Assert one reading in the spatial node's mode, then classify the
        node (which also recounts the person context), so the reasoning is
        timed with the reading.

        Readings for sensors the spatial model does not declare are skipped
        with a warning record; datasets contain stray ids.
        """
        spatial = net.stores[SPATIAL_NODE]
        if event.sensor not in spatial.installations:
            net.emit("warning", event.sensor, "unknown sensor; reading skipped")
            self.session.warnings.append(f"unknown sensor {event.sensor}")
            return False
        started = perf_counter_ns()
        spatial.assert_statement(event.sensor, event.value, event.time_ms)
        spatial.classify()
        elapsed = perf_counter_ns() - started
        self.session.events_replayed += 1
        self.session.telemetry.record(SPATIAL_NODE, net.clock.now, spatial.axiom_count(), elapsed)
        net.note_mutation(SPATIAL_NODE)
        return True


class Importer:
    """Procedure I_a: copy the activity's spatial statements written since
    its last import (see the module docstring)."""

    def __init__(self, binding: ActivityBinding, session: ReplaySession) -> None:
        self.binding = binding
        self.session = session
        self._last: dict[str, tuple[bool, int]] = {}
        # the spatial store the last import read, and its mutation_seq then
        self._spatial: Optional[ContextStore] = None
        self._seen = 0

    def __call__(self, net: RuntimeNetwork, now_ms: int) -> None:
        spatial = net.stores[SPATIAL_NODE]
        target = net.stores[self.binding.node]
        seen = self._seen if spatial is self._spatial else 0
        current = spatial.mutation_seq
        records = spatial.instances
        imported = 0
        for sensor_id in self.binding.sensor_ids:
            record = records.get(sensor_id)
            if record is None or record.seq <= seen or record.time is None:
                continue  # read by the last import, or a plain instance
            state, time_ms = record.state, record.time
            if self._last.get(sensor_id) == (state, time_ms):
                continue  # the reading the previous import copied
            target.assert_statement(sensor_id, state, time_ms)
            self._last[sensor_id] = (state, time_ms)
            imported += 1
        # advanced after the walk, so an import that raised leaves the rest to the next
        self._spatial, self._seen = spatial, current
        net.emit("import", f"I{self.binding.index}", f"count={imported}")
        target.assert_statement(SYNC_STATEMENT, True, now_ms, concepts=(SYNC_CONCEPT,), mode=OVERWRITE)
        net.notify_sync(self.binding.node, SYNC_STATEMENT)


class Evaluator:
    """Procedure M_a: pre-passes, rule evaluation, recognition bookkeeping."""

    def __init__(self, binding: ActivityBinding, session: ReplaySession) -> None:
        self.binding = binding
        self.session = session
        self.engine = RuleEngine(binding.plans)
        keys: dict[tuple[str, Optional[bool]], None] = {}
        for plan in binding.plans:
            for _, concept, state in plan.classes:
                keys[(concept, state)] = None
        for prepass in binding.compiled.prepasses:
            keys[(prepass.source_concept, prepass.target_state)] = keys[(prepass.derived_concept, None)] = None
        self._keys = tuple(keys)
        self._registered: Optional[ContextStore] = None
        self._lists: tuple[KeptList, ...] = ()
        # the lists' versions after the last evaluation, if it recognised nothing
        self._silent: Optional[tuple[int, ...]] = None
        self._skipped = 0

    @property
    def skipped(self) -> int:
        """Evaluations that skipped the pre-passes and the match since
        construction."""
        return self._skipped

    def __call__(self, net: RuntimeNetwork, now_ms: int) -> None:
        self.evaluate_store(net.stores[self.binding.node], now_ms, net=net)

    def register(self, store: ContextStore) -> None:
        """Have ``store`` keep what evaluations read (see the module
        docstring) and end the skip; an evaluation calls it when its store
        is not the one registered."""
        self._lists = tuple(store.keep(concept, state) for concept, state in self._keys)
        self._registered = store
        self._silent = None

    def _versions(self) -> tuple[int, ...]:
        return tuple(map(_VERSION, self._lists))

    def run_prepasses(self, store: ContextStore, now_ms: int) -> int:
        """Windowed counts: assert one derived statement per satisfied
        pre-pass (state true, stamped with the latest contributing time),
        read off the store's tally of the pre-pass source.  A result the
        store already holds with that state and time is not written again.
        Returns the number of results written."""
        asserted = 0
        for index, prepass in enumerate(self.binding.compiled.prepasses):
            count, earliest, latest = store.tally(prepass.source_concept, prepass.target_state)
            if not count:
                continue
            if count >= prepass.min_count and earliest + prepass.window_ms <= latest:
                derived_id = f"{prepass.derived_concept}_{index + 1}"
                stored = store.instances.get(derived_id)
                if stored is not None and stored.time == latest and stored.state is True:
                    continue
                store.assert_statement(
                    derived_id, True, latest, AGGREGATED, concepts=(prepass.derived_concept,), mode=OVERWRITE
                )
                asserted += 1
        return asserted

    def evaluate_store(
        self,
        store: ContextStore,
        now_ms: int,
        net: Optional[RuntimeNetwork] = None,
    ) -> Optional[RecognitionRecord]:
        started = perf_counter_ns()
        if store is not self._registered:
            self.register(store)
        # complexity as imported, before any clearing this evaluation does
        self.session.telemetry.record(self.binding.node, now_ms, store.axiom_count(), 0)
        if SYNC_STATEMENT in store.instances:
            store.assert_statement(SYNC_STATEMENT, False, now_ms, concepts=(SYNC_CONCEPT,), mode=OVERWRITE)
            if net is not None:
                # surface the falling edge at once, so the next raise of the
                # sync statement is a visible transition even within one step
                net.notify_sync(self.binding.node, SYNC_STATEMENT)
        store.classify()
        if self._silent == self._versions():
            self._skipped += 1
            best = None
        else:
            self.run_prepasses(store, now_ms)
            # the node is cleared on recognition, so a reported completion
            # time never recurs: later imports carry only later readings
            best = self.engine.earliest(store.snapshot())
            # snapshot() classified what the pre-passes wrote
            self._silent = None if best is not None else self._versions()
        record: Optional[RecognitionRecord] = None
        if best is not None:
            store.assert_statement(
                best.instance_id, True, best.time, AGGREGATED, concepts=best.concepts, mode=OVERWRITE
            )
            contributing = tuple(
                str(value)
                for _, value in best.binding
                if isinstance(value, str) and not value.startswith("?")
            )
            record = RecognitionRecord(
                activity=self.binding.index, time_ms=best.time, contributing=contributing
            )
            self.session.recognitions.append(record)
            self.session.last_bindings[self.binding.index] = best.binding
            if net is not None:
                net.emit(
                    "recognition",
                    best.instance_id,
                    f"at={best.time} activity={self.binding.index}",
                )
            store.clear_statements(keep_concepts=RESULT_KEEP)
        elapsed = perf_counter_ns() - started
        self.session.telemetry.record(
            self.binding.node,
            now_ms,
            store.axiom_count(),
            elapsed,
        )
        return record


def build_implementations(
    scenario: Scenario, session: ReplaySession
) -> tuple[dict[str, ProcedureImpl], Replayer]:
    replayer = Replayer(session)
    implementations: dict[str, ProcedureImpl] = {"replayer": replayer}
    for index, binding in scenario.bindings.items():
        implementations[f"importer:{index}"] = Importer(binding, session)
        implementations[f"evaluator:{index}"] = Evaluator(binding, session)
    return implementations, replayer


@dataclass
class RunResult:
    participant: str
    recognitions: list[RecognitionRecord]
    log_text: str
    telemetry: Telemetry
    params: dict[str, int]
    warnings: list[str]
    events_replayed: int
    base_ms: int
    net: RuntimeNetwork
    last_bindings: dict[int, tuple] = field(default_factory=dict)

    def recognition_pairs(self) -> list[tuple[int, int]]:
        return [(r.activity, r.time_ms) for r in self.recognitions]


def rebase_offset(events: Sequence[TraceEvent]) -> int:
    """The offset subtracted from every timestamp of a replay (and of its
    ground truth), so that the first reading lands ``REBASE_START_MS``
    after bootstrap."""
    return events[0].time_ms - REBASE_START_MS if events else 0


def run_replay(
    events: Sequence[TraceEvent],
    participant: str = "p01",
    *,
    scenario: Scenario,
    speed: float = 1.0,
    pure_virtual: bool = True,
    sleeper: Callable[[float], None] = time.sleep,
) -> RunResult:
    """Replay one participant's readings through a fresh network.

    Timestamps are rebased by :func:`rebase_offset`, which is returned so
    ground truth can be rebased identically.  Pacing is
    :func:`ingest.drive`'s: in pure-virtual mode the speed factor plays no
    role, the scheduler consumes events as fast as computation allows while
    preserving timestamps, so runs at any factor are identical.
    """
    session = ReplaySession()
    implementations, replayer = build_implementations(scenario, session)
    net = bootstrap(scenario.model, implementations=implementations, store_models=scenario.store_models)

    base_ms = rebase_offset(events)
    rebased = (
        TraceEvent(e.time_ms - base_ms, e.sensor, e.value, e.activity, e.marker) for e in events
    )
    for event in drive(rebased, speed, pure_virtual, sleeper):
        # samples due before the reading see the store as it was
        net.pending_until(event.time_ms - 1)
        net.clock.advance_to(event.time_ms)
        replayer.replay_step(net, event)
    net.pending_until(net.clock.now + TRAILING_FLUSH_MS)

    return RunResult(
        participant=participant,
        recognitions=list(session.recognitions),
        log_text=net.render_log(),
        telemetry=session.telemetry,
        params=scenario.params(),
        warnings=list(session.warnings),
        events_replayed=session.events_replayed,
        base_ms=base_ms,
        net=net,
        last_bindings=dict(session.last_bindings),
    )
