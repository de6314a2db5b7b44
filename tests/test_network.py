"""Scheduler semantics: loading, bootstrap maps, edges, consumption, sync.

Every scheduling scenario runs twice, through ``pending_until`` and through
the tick-loop oracle in ``oracles.py``, and requires identical dispatch logs.
"""

import gc
import io
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import oracles
import synth
from fluentnet import ingest, procedures
from fluentnet.context import OVERWRITE
from fluentnet.network import (
    BOOT_STATEMENT,
    BootstrapError,
    LogEntry,
    NetworkError,
    TickGroup,
    UPPER_NODE,
    VirtualClock,
    bootstrap,
    load_network,
)

SCENARIO = Path("src/fluentnet/scenario")

MINI_MODEL = """\
[concepts]
STATEMENT SENSOR
[subclass]
SENSOR STATEMENT
[sensors]
X1 SENSOR
X2 SENSOR
"""


# a person whose location follows motion sensors; M3 names a location X
# that the model does not declare
PERSON_MODEL = """\
[concepts]
STATEMENT SENSOR MOTION LOCATION KITCHEN HALL PERSON
[properties]
isIn isNearTo
[subclass]
SENSOR STATEMENT
MOTION SENSOR
KITCHEN LOCATION
HALL LOCATION
[disjoint]
SENSOR PERSON
[instances]
K KITCHEN
H HALL
[person]
P presence=MOTION
[sensors]
M1 MOTION isIn=K
M2 MOTION isIn=H
M3 MOTION isIn=X
"""


def mini_config(tmp_path, conditions, events, procedures, store_model=MINI_MODEL):
    (tmp_path / "mini.model").write_text(store_model, encoding="utf-8")
    text = "[nodes]\nA represents=mini.model mode=overwrite\n"
    text += "[conditions]\n" + "\n".join(conditions) + "\n"
    text += "[events]\n" + "\n".join(events) + "\n"
    text += "[procedures]\n" + "\n".join(procedures) + "\n"
    return text


def build_mini(tmp_path, conditions, events, procedures, implementations=None, store_model=MINI_MODEL):
    model = load_network(mini_config(tmp_path, conditions, events, procedures, store_model))
    return bootstrap(model, base_dir=tmp_path, implementations=implementations)


class TestLoad:
    def test_shipped_scenario_counts(self):
        model = load_network((SCENARIO / "network.cfg").read_text(encoding="utf-8"))
        assert [n.name for n in model.nodes] == ["L"] + [f"T{i}" for i in range(1, 9)]
        assert [p.name for p in model.procedures] == (
            ["D"] + [f"I{i}" for i in range(1, 9)] + [f"M{i}" for i in range(1, 9)]
        )
        assert len(model.procedures) == 17

    @pytest.mark.parametrize("section, line", [
        ("procedures", '"P\t1" implements=noop requires=E1'),
        ("events", '"E\t1" observes=C1'),
        ("conditions", '"C\t1" checks=X1 in=U hasTarget=true'),
    ])
    def test_a_name_holding_a_tab_is_rejected(self, section, line):
        sections = {
            "conditions": "C1 checks=X1 in=U hasTarget=true",
            "events": "E1 observes=C1",
            "procedures": "P1 implements=noop requires=E1",
        }
        sections[section] += "\n" + line
        text = "".join(f"[{name}]\n{body}\n" for name, body in sections.items())
        with pytest.raises(NetworkError, match="holds a tab"):
            load_network(text)

    def test_condition_references_unknown_node(self, tmp_path):
        text = mini_config(
            tmp_path,
            ["C1 checks=X1 in=NOWHERE hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        with pytest.raises(NetworkError, match="unknown node"):
            load_network(text)

    def test_procedure_without_events(self, tmp_path):
        text = mini_config(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop"],
        )
        with pytest.raises(NetworkError, match="requires no event"):
            load_network(text)

    def test_duplicate_names(self, tmp_path):
        text = mini_config(
            tmp_path,
            [
                "C1 checks=X1 in=A hasTarget=true rate=50",
                "C1 checks=X2 in=A hasTarget=true rate=50",
            ],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        with pytest.raises(NetworkError, match="duplicate condition"):
            load_network(text)

    @pytest.mark.parametrize(
        "checks", ["DOOR:isIn:KITCHEN", "SENSOR:isIn:X1", "PERSON:isIn", "PERSON:isIn:K:X"]
    )
    def test_pattern_must_be_person_prop_target(self, tmp_path, checks):
        text = mini_config(
            tmp_path,
            [f"C1 checks={checks} in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        with pytest.raises(NetworkError, match="must read PERSON:prop:TARGET"):
            load_network(text)

    @pytest.mark.parametrize(
        "section, line, option",
        [
            ("nodes", "B represents=mini.model mod=append", "node option 'mod'"),
            ("conditions", "C2 checks=X2 in=A hasTarget=true rte=5", "condition option 'rte'"),
            ("events", "E2 observes=C1 requires=E1", "event option 'requires'"),
            ("procedures", "P2 implements=noop requires=E1 mode=append", "procedure option 'mode'"),
            ("activities", "1 label=x node=A installed=X model=m clear=false", "activity option 'clear'"),
        ],
    )
    def test_unknown_option_is_rejected_with_its_line(self, tmp_path, section, line, option):
        text = mini_config(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        lineno = len(text.splitlines()) + 2  # a repeated section header extends the section
        text += f"[{section}]\n{line}\n"
        with pytest.raises(NetworkError, match=f"line {lineno}: unknown {option}"):
            load_network(text)

    @pytest.mark.parametrize("rate", ["1/0", ""])
    def test_rate_must_be_a_number(self, tmp_path, rate):
        text = mini_config(
            tmp_path,
            [f"C1 checks=X1 in=A hasTarget=true rate={rate}"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        with pytest.raises(NetworkError, match=f"line 4: rate must be a number, found '{rate}'"):
            load_network(text)


class TestBootstrap:
    def test_three_maps_with_implicit_members(self, tmp_path):
        net = build_mini(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        assert set(net.stores) == {UPPER_NODE, "A"}
        assert set(net.procedures) == {"P1"}
        assert set(net.conditions) == {"C1"}
        assert all(not c.outcome for c in net.conditions.values())

    def test_empty_network_has_only_the_upper_node(self):
        model = load_network("")
        net = bootstrap(model)
        assert set(net.stores) == {UPPER_NODE}
        assert net.procedures == {}
        assert net.conditions == {}

    def test_scenario_bootstrap_map_sizes(self):
        model = load_network((SCENARIO / "network.cfg").read_text(encoding="utf-8"))
        net = bootstrap(model, base_dir=SCENARIO)
        assert len(net.stores) == 10  # nine declared plus the upper node
        assert len(net.procedures) == 17  # the declared ones; no implicit procedure
        assert len(net.conditions) == len(model.conditions)

    def test_rebootstrap_is_identical(self):
        model = load_network((SCENARIO / "network.cfg").read_text(encoding="utf-8"))
        a = bootstrap(model, base_dir=SCENARIO)
        b = bootstrap(model, base_dir=SCENARIO)
        assert set(a.stores) == set(b.stores)
        assert set(a.procedures) == set(b.procedures)

    def test_unreadable_model_file_names_node(self, tmp_path):
        text = "[nodes]\nA represents=missing.model\n"
        with pytest.raises(BootstrapError, match="node A"):
            bootstrap(load_network(text), base_dir=tmp_path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("K KITCHN", "unknown concept 'KITCHN'"),
            ("K SENSOR isNearBy=X1", "unknown property 'isNearBy'"),
        ],
    )
    def test_bad_store_model_names_node(self, tmp_path, line, message):
        (tmp_path / "bad.model").write_text(MINI_MODEL + "[instances]\n" + line + "\n", encoding="utf-8")
        # the instance line is line 9 of the model file
        with pytest.raises(BootstrapError, match=f"node A: bad.model: line 9: {message}"):
            bootstrap(load_network("[nodes]\nA represents=bad.model\n"), base_dir=tmp_path)

    def test_a_dropped_network_frees_its_stores_by_reference_counting(self, tmp_path):
        """Groups, conditions and events refer to each other; a store held
        inside those cycles would outlive every replay until a full
        collection."""
        net = build_mini(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        store = weakref.ref(net.stores["A"])
        enabled = gc.isenabled()
        gc.disable()
        try:
            del net
            assert store() is None
        finally:
            if enabled:
                gc.enable()

    def test_a_dropped_replay_leaves_nothing_for_the_collector(self, scenario):
        """No object of a replay, its network's wiring included, sits in a
        reference cycle: with the collector off, the dropped result frees
        its stores, and a collection then finds nothing to free."""
        load = ingest.load_trace(io.StringIO(synth.session_text()))
        procedures.run_replay(load.events, scenario=scenario)  # the scenario's shared caches fill
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            result = procedures.run_replay(load.events, scenario=scenario)
            assert result.recognitions
            stores = [weakref.ref(store) for store in result.net.stores.values()]
            del result
            assert all(store() is None for store in stores)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("node", ["A", UPPER_NODE])
    def test_person_pattern_needs_a_person(self, tmp_path, node):
        model = load_network(
            mini_config(
                tmp_path,
                [f"C1 checks=PERSON:isIn:SENSOR in={node} hasTarget=true rate=50"],
                ["E1 observes=C1"],
                ["P1 implements=noop requires=E1"],
            )
        )
        with pytest.raises(BootstrapError, match=f"C1: node {node} declares no \\[person\\]"):
            bootstrap(model, base_dir=tmp_path)


def write(net, node, statement_id, value, concept="SENSOR"):
    """Write one statement into a node's store, noting nothing."""
    net.stores[node].assert_statement(
        statement_id, value, net.clock.now, concepts=(concept,), mode=OVERWRITE
    )


def flip(net, sensor, value):
    write(net, "A", sensor, value)
    net.note_mutation("A")


class Twin:
    """One scenario on two copies of a network, driven in ``run_replay``'s
    order: the production scheduler (``pending_until``) and the tick-loop
    oracle, which answers pattern checks from scratch.  Their dispatch logs
    must stay byte-identical."""

    def __init__(self, build):
        self.net, self.oracle = build(), oracles.unwatched(build())
        self.log = self.net.log

    def flip(self, sensor, value):
        for net in (self.net, self.oracle):
            flip(net, sensor, value)

    def write(self, action):
        """``action(store, now)`` on node A of both networks, then the
        person-context read and the mutation note of a replayed reading."""
        for net in (self.net, self.oracle):
            store = net.stores["A"]
            action(store, net.clock.now)
            store.infer_person_context()
            net.note_mutation("A")

    def sense(self, sensor, value):
        self.write(lambda store, now: store.assert_statement(sensor, value, now))

    def run_to(self, time_ms):
        """Run every sample due before ``time_ms``, then move the clock there."""
        self.net.pending_until(time_ms - 1)
        oracles.run_until(self.oracle, time_ms - 1)
        for net in (self.net, self.oracle):
            net.clock.advance_to(time_ms)
        assert self.net.render_log() == self.oracle.render_log()


def dispatches(log, name):
    return [e for e in log if e.kind == "procedure" and e.name == name]


class TestStepSemantics:
    def single_condition_twin(self, tmp_path, implementations=None):
        return Twin(
            lambda: build_mini(
                tmp_path,
                ["C1 checks=X1 in=A hasTarget=true rate=50"],
                ["E1 observes=C1"],
                ["P1 implements=noop requires=E1"],
                implementations,
            )
        )

    def two_condition_twin(self, tmp_path, events, requires):
        return Twin(
            lambda: build_mini(
                tmp_path,
                [
                    "C1 checks=X1 in=A hasTarget=true rate=50",
                    "C2 checks=X2 in=A hasTarget=true rate=50",
                ],
                events,
                [f"P1 implements=noop requires={requires}"],
            )
        )

    def test_sampling_times_follow_the_rate(self, tmp_path):
        net = self.single_condition_twin(tmp_path).oracle
        times = []
        for _ in range(5):
            oracles.step(net)
            times.append(net.clock.now)
        assert times == [20, 40, 60, 80, 100]

    def test_no_due_conditions_advances_clock(self):
        net = bootstrap(load_network(""))
        assert oracles.step(net, until=500) == []
        assert net.clock.now == 500

    def test_edge_trigger_and_consumption(self, tmp_path):
        twin = self.single_condition_twin(tmp_path)
        twin.flip("X1", True)
        twin.run_to(40)
        assert len(dispatches(twin.log, "P1")) == 1
        # still satisfied on later samples: no re-dispatch
        twin.run_to(140)
        assert len(dispatches(twin.log, "P1")) == 1
        # falling then rising re-occurrence re-arms the event
        twin.flip("X1", False)
        twin.run_to(160)
        twin.flip("X1", True)
        twin.run_to(180)
        assert len(dispatches(twin.log, "P1")) == 2

    def test_conjunction_within_event(self, tmp_path):
        twin = self.two_condition_twin(tmp_path, ["E1 observes=C1,C2"], "E1")
        twin.flip("X1", True)
        twin.run_to(40)
        assert not [e for e in twin.log if e.kind == "event"]
        twin.flip("X2", True)
        twin.run_to(80)
        assert [e.name for e in twin.log if e.kind == "event"] == ["E1"]

    def test_disjunction_across_events(self, tmp_path):
        twin = self.two_condition_twin(tmp_path, ["E1 observes=C1", "E2 observes=C2"], "E1,E2")
        twin.flip("X2", True)
        twin.run_to(40)
        assert dispatches(twin.log, "P1")

    def test_procedure_failure_is_captured(self, tmp_path):
        def boom(net, now):
            raise RuntimeError("nope")

        twin = self.single_condition_twin(tmp_path, implementations={"noop": boom})
        twin.flip("X1", True)
        twin.run_to(40)
        errors = [e for e in twin.log if e.kind == "error"]
        assert len(errors) == 1 and "nope" in errors[0].detail
        # the loop keeps running afterwards
        twin.run_to(100)

    def test_fall_never_dispatches(self, tmp_path):
        twin = self.single_condition_twin(tmp_path)
        twin.flip("X1", True)
        twin.run_to(40)
        twin.flip("X1", False)
        twin.run_to(80)
        assert len(dispatches(twin.log, "P1")) == 1


class TestCascade:
    """The dispatch cascade of one sample, pinned line by line.  Each test
    names the broken cascade it tells apart from the right one."""

    def twin(self, tmp_path, events, procedures):
        return Twin(
            lambda: build_mini(
                tmp_path,
                [
                    "C1 checks=X1 in=A hasTarget=true rate=50",
                    "C2 checks=X2 in=A hasTarget=true rate=50",
                ],
                events,
                procedures,
            )
        )

    def test_two_conditions_rising_in_one_sample_fire_their_event_once(self, tmp_path):
        """Fails if the firing loop drops its consumed test: E1 is met once
        per risen condition and would fire twice."""
        twin = self.twin(tmp_path, ["E1 observes=C1,C2"], ["P1 implements=noop requires=E1"])
        twin.flip("X1", True)
        twin.flip("X2", True)
        twin.run_to(40)
        assert twin.net.render_log() == (
            "20\tcondition\tC1\toutcome=true\n"
            "20\tcondition\tC2\toutcome=true\n"
            "20\tevent\tE1\t\n"
            "20\tprocedure\tP1\t\n"
        )

    def test_a_condition_observed_twice_fires_once_per_rise(self, tmp_path):
        """Fails if re-arming moves into the firing loop (the second visit
        re-arms E1 and fires it again), and if a rise no longer re-arms
        (the second rise fires nothing)."""
        twin = self.twin(tmp_path, ["E1 observes=C1,C1"], ["P1 implements=noop requires=E1"])
        twin.flip("X1", True)
        twin.run_to(40)
        twin.flip("X1", False)
        twin.run_to(60)
        twin.flip("X1", True)
        twin.run_to(80)
        assert twin.net.render_log() == (
            "20\tcondition\tC1\toutcome=true\n"
            "20\tevent\tE1\t\n"
            "20\tprocedure\tP1\t\n"
            "40\tcondition\tC1\toutcome=false\n"
            "60\tcondition\tC1\toutcome=true\n"
            "60\tevent\tE1\t\n"
            "60\tprocedure\tP1\t\n"
        )

    def test_a_procedure_requiring_two_fired_events_runs_once_per_event(self, tmp_path):
        """Events fire first, in the order their conditions rose; then each
        fired event runs the procedures requiring it in declaration order.
        Fails if a procedure runs once per cascade (P1 runs once), and if
        procedures run as each event fires (P1 and P2 before E2)."""
        twin = self.twin(
            tmp_path,
            ["E1 observes=C1", "E2 observes=C2"],
            ["P1 implements=noop requires=E2,E1", "P2 implements=noop requires=E1"],
        )
        twin.flip("X1", True)
        twin.flip("X2", True)
        twin.run_to(40)
        assert twin.net.render_log() == (
            "20\tcondition\tC1\toutcome=true\n"
            "20\tcondition\tC2\toutcome=true\n"
            "20\tevent\tE1\t\n"
            "20\tevent\tE2\t\n"
            "20\tprocedure\tP1\t\n"
            "20\tprocedure\tP2\t\n"
            "20\tprocedure\tP1\t\n"
        )

    def test_a_procedure_that_writes_and_raises_has_its_write_noted(self, tmp_path):
        """Fails if a failed procedure's writes go unnoted: C2 would never
        be sampled."""
        def write_then_raise(net, now):
            write(net, "A", "X2", True)
            raise RuntimeError("after the write")

        net = build_mini(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50", "C2 checks=X2 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=boom requires=E1"],
            {"boom": write_then_raise},
        )
        flip(net, "X1", True)
        net.pending_until(20)
        assert net.log[-1] == LogEntry(20, "error", "P1", "RuntimeError: after the write")
        assert oracles.pending_samples(net) == {("A", 50, 1000): 40}
        net.pending_until(40)
        assert net.log[-1] == LogEntry(40, "condition", "C2", "outcome=true")

    def test_writes_are_noted_as_the_noting_oracle_notes_them(self, tmp_path):
        """P1 writes A, runs P2 through its own ``notify_sync``, then writes
        U; the noting oracle notes each procedure's writes as it returns.
        Fails if a top-level ``notify_sync`` notes nothing, if the nested
        ``notify_sync`` notes and ends the dispatch's noting (U's write is
        lost), and if the first procedure's writes are left out."""
        def outer(net, now):
            write(net, "A", "X2", True)
            net.notify_sync("A", "X2")
            write(net, UPPER_NODE, "Y", True, concept="STATEMENT")

        def inner(net, now):
            write(net, "A", "X1", False)

        def build():
            return build_mini(
                tmp_path,
                [
                    "C1 checks=X1 in=A hasTarget=true rate=50",
                    "C2 checks=X2 in=A hasTarget=true rate=50",
                    "C_u checks=Y in=U hasTarget=true rate=25",
                ],
                ["E1 observes=C1", "E2 observes=C2"],
                ["P1 implements=outer requires=E1", "P2 implements=inner requires=E2"],
                {"outer": outer, "inner": inner},
            )

        net, oracle = build(), oracles.noting_each_procedure(build())
        for each in (net, oracle):
            each.pending_until(100)  # the bootstrap samples, at 20 and 40
            each.clock.advance_to(100)
            write(each, "A", "X1", True)
            each.notify_sync("A", "X1")
        expected = {("A", 50, 1000): 100, (UPPER_NODE, 25, 1000): 120}
        assert oracles.pending_samples(net) == oracles.pending_samples(oracle) == expected
        for each in (net, oracle):
            each.pending_until(200)
        assert net.render_log() == oracle.render_log() == (
            "100\tcondition\tC1\toutcome=true\n"
            "100\tevent\tE1\t\n"
            "100\tprocedure\tP1\t\n"
            "100\tcondition\tC2\toutcome=true\n"
            "100\tevent\tE2\t\n"
            "100\tprocedure\tP2\t\n"
            "100\tcondition\tC1\toutcome=false\n"
            "120\tcondition\tC_u\toutcome=true\n"
        )


def enter_kitchen(net, now):
    store = net.stores["A"]
    store.assert_statement("M1", True, now)
    store.infer_person_context()


def transitions(log):
    return [(e.time_ms, e.name, e.detail) for e in log if e.kind == "condition"]



class TestDispatchLog:
    """``net.log`` reads the network's rendered lines back as entries."""

    def logged(self, tmp_path):
        def boom(net, now):
            raise ValueError("bad\tfield\nsecond line")

        net = build_mini(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
            {"noop": boom},
        )
        flip(net, "X1", True)
        net.pending_until(100)
        return net

    def test_entries_index_and_slice(self, tmp_path):
        net = self.logged(tmp_path)
        log = net.log
        expected = [
            LogEntry(20, "condition", "C1", "outcome=true"),
            LogEntry(20, "event", "E1"),
            LogEntry(20, "procedure", "P1"),
            LogEntry(20, "error", "P1", "ValueError: bad\tfield\nsecond line"),
        ]
        assert len(log) == 4 and list(log) == expected
        assert [log[i] for i in range(4)] == expected
        assert log[-1] == expected[-1] and log[-4] == expected[0]
        assert log[1:3] == expected[1:3] and log[::-1] == expected[::-1] and log[4:] == []
        with pytest.raises(IndexError):
            log[4]
        net.emit("warning", "X9", "late")
        assert len(log) == 5 and log[-1] == LogEntry(net.clock.now, "warning", "X9", "late")

    def test_entries_render_back_to_the_log(self, tmp_path):
        net = self.logged(tmp_path)
        rendered = net.render_log()
        assert rendered == "".join(entry.render() + "\n" for entry in net.log)
        assert rendered.endswith("\tValueError: bad\tfield\nsecond line\n")

    def test_an_empty_log_renders_empty(self):
        net = bootstrap(load_network(""))
        assert len(net.log) == 0 and list(net.log) == [] and net.render_log() == ""

    def test_a_render_appends_what_was_emitted_since_the_last(self, tmp_path):
        net = self.logged(tmp_path)
        first = net.render_log()
        net.emit("warning", "X9", "late\tby\none")
        net.emit("warning", "X9", "")
        second = net.render_log()
        assert second == first + f"{net.clock.now}\twarning\tX9\tlate\tby\none\n{net.clock.now}\twarning\tX9\t\n"
        assert second == "".join(entry.render() + "\n" for entry in net.log)

    def test_a_render_with_nothing_new_returns_the_same_text(self, tmp_path):
        net = self.logged(tmp_path)
        text = net.render_log()
        assert net.render_log() is text
        net.emit("warning", "X9", "late")
        assert net.render_log() is not text

    def test_reads_across_the_rendered_and_pending_entries_match_a_list(self, tmp_path):
        net = self.logged(tmp_path)
        net.render_log()
        net.emit("warning", "X9", "late\tby\none")
        net.emit("warning", "X8")
        log = net.log
        entries = list(log)
        assert len(log) == len(entries) == 6
        assert entries[3] == LogEntry(20, "error", "P1", "ValueError: bad\tfield\nsecond line")
        assert entries[4] == LogEntry(net.clock.now, "warning", "X9", "late\tby\none")
        for i in range(-len(entries), len(entries)):
            assert log[i] == entries[i]
        for step in (1, 2, 3, -1, -2, -4):
            for start in (None, 0, 1, 3, 4, -2, -6, 9):
                for stop in (None, 0, 2, 4, 5, -1, 9):
                    assert log[start:stop:step] == entries[start:stop:step]
        for outside in (len(entries), -len(entries) - 1):
            with pytest.raises(IndexError):
                log[outside]

class TestTickGroups:
    """Pattern and statement checks on one node, sampled in tick groups
    that skip every pattern whose watch's answer cannot flip its outcome,
    against the tick-loop oracle that samples every condition at every
    tick."""

    def person_twin(self, tmp_path):
        return Twin(
            lambda: build_mini(
                tmp_path,
                [
                    "C_kitchen checks=PERSON:isIn:KITCHEN in=A hasTarget=true rate=50",
                    "C_hall checks=PERSON:isIn:HALL in=A hasTarget=true rate=50",
                    "C_located checks=PERSON:isIn:LOCATION in=A hasTarget=true rate=20",
                    "C_m2 checks=M2 in=A hasTarget=true rate=50",
                ],
                ["E_kitchen observes=C_kitchen", "E_located observes=C_located", "E_m2 observes=C_m2"],
                [
                    "P_kitchen implements=noop requires=E_kitchen",
                    "P_located implements=noop requires=E_located",
                    "P_enter implements=enter requires=E_m2",
                ],
                {"enter": enter_kitchen},
                store_model=PERSON_MODEL,
            )
        )

    def test_two_rates_on_one_node_make_two_groups(self, tmp_path):
        twin = self.person_twin(tmp_path)
        tick_groups = oracles.tick_groups(twin.net)
        groups = {id(tick_groups[name]): state.decl.rate_hz for name, state in twin.net.conditions.items()}
        assert sorted(groups.values()) == [20, 50]
        twin.run_to(30)
        twin.sense("M1", True)
        twin.run_to(70)
        twin.sense("M1", False)
        twin.run_to(200)
        assert transitions(twin.log) == [
            (40, "C_kitchen", "outcome=true"),
            (50, "C_located", "outcome=true"),
            (80, "C_kitchen", "outcome=false"),
            (100, "C_located", "outcome=false"),
        ]

    def test_cascade_mutating_its_node_at_the_tick_time(self, tmp_path):
        # P_enter runs at C_m2's tick and writes node A: the new sample of
        # A's 50 Hz group is the tick after (the last tick + 1 floor)
        twin = self.person_twin(tmp_path)
        twin.run_to(30)
        twin.sense("M2", True)
        twin.run_to(200)
        assert transitions(twin.log) == [
            (40, "C_hall", "outcome=true"),
            (40, "C_m2", "outcome=true"),
            (50, "C_located", "outcome=true"),
            (60, "C_kitchen", "outcome=true"),
        ]

    def test_answer_flipping_back_between_two_ticks(self, tmp_path):
        twin = self.person_twin(tmp_path)
        twin.run_to(41)
        before = twin.net.evaluated
        twin.sense("M1", True)
        twin.run_to(45)
        twin.sense("M1", False)
        twin.run_to(100)
        assert transitions(twin.log) == []
        # both answers flipped back before the next tick, so neither
        # C_located (at 50) nor C_kitchen (at 60) can flip: C_m2 alone is
        # evaluated
        assert twin.net.evaluated - before == 1

    def test_dangling_target_appears_then_is_reclassified(self, tmp_path):
        twin = self.person_twin(tmp_path)
        twin.sense("M3", True)  # in X, which is no instance yet
        twin.run_to(100)
        assert transitions(twin.log) == []
        twin.write(lambda store, now: store.add_instance("X", ("KITCHEN",)))
        twin.run_to(200)
        twin.write(lambda store, now: store.add_instance("X", ("HALL",)))
        twin.run_to(300)
        assert transitions(twin.log) == [
            (100, "C_kitchen", "outcome=true"),
            (100, "C_located", "outcome=true"),
            (200, "C_hall", "outcome=true"),
            (200, "C_kitchen", "outcome=false"),
        ]

    def test_quiet_writes_evaluate_no_pattern(self, tmp_path):
        twin = self.person_twin(tmp_path)
        twin.sense("M1", True)
        twin.run_to(100)
        before = twin.net.evaluated
        for time_ms in (100, 200, 300):
            twin.sense("M1", True)  # rewritten, the person stays in the kitchen
            twin.run_to(time_ms + 100)
        assert twin.net.evaluated - before == 3  # C_m2 alone, once a write


def notify_sync_fired(net, node, statement_id):
    """The events one ``notify_sync`` call fired, read off the log."""
    mark = len(net.log)
    net.notify_sync(node, statement_id)
    return [entry.name for entry in net.log[mark:] if entry.kind == "event"]


class TestNotifySync:
    def test_immediate_dispatch(self, tmp_path):
        net = build_mini(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        flip(net, "X1", True)
        fired = notify_sync_fired(net, "A", "X1")
        assert fired == ["E1"]
        assert [e for e in net.log if e.kind == "procedure" and e.name == "P1"]

    def test_unchanged_statement_fires_nothing(self, tmp_path):
        net = build_mini(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        assert notify_sync_fired(net, "A", "X1") == []

    def test_edge_triggered_without_reset(self, tmp_path):
        net = build_mini(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        flip(net, "X1", True)
        assert notify_sync_fired(net, "A", "X1") == ["E1"]
        flip(net, "X1", True)  # rewritten, but never reset to false
        assert notify_sync_fired(net, "A", "X1") == []

    def test_a_top_level_sync_notes_what_its_procedure_wrote(self, tmp_path):
        net = build_mini(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=write requires=E1"],
            {"write": lambda net, now: write(net, "A", "X2", True)},
        )
        net.pending_until(100)  # the bootstrap sample, at 20
        net.clock.advance_to(100)
        assert oracles.pending_samples(net) == {}
        write(net, "A", "X1", True)
        assert notify_sync_fired(net, "A", "X1") == ["E1"]
        # P1 wrote A: A's group is pending at the current time
        assert oracles.pending_samples(net) == {("A", 50, 1000): 100}

    def test_an_unknown_node_raises(self, tmp_path):
        net = build_mini(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        for statement_id in ("X1", "X9"):
            with pytest.raises(NetworkError, match="unknown node 'B'"):
                net.notify_sync("B", statement_id)

    def test_a_known_node_with_no_checking_condition_logs_nothing(self, tmp_path):
        net = build_mini(
            tmp_path,
            ["C1 checks=X1 in=A hasTarget=true rate=50"],
            ["E1 observes=C1"],
            ["P1 implements=noop requires=E1"],
        )
        flip(net, "X2", True)
        for node, statement_id in (("A", "X2"), ("A", "X9"), (UPPER_NODE, BOOT_STATEMENT)):
            net.notify_sync(node, statement_id)
        assert len(net.log) == 0


class TestDeterminism:
    def test_ten_reruns_byte_identical(self, tmp_path):
        def run():
            twin = Twin(
                lambda: build_mini(
                    tmp_path,
                    [
                        "C1 checks=X1 in=A hasTarget=true rate=50",
                        "C2 checks=X2 in=A hasTarget=true rate=25",
                    ],
                    ["E1 observes=C1", "E2 observes=C1,C2"],
                    ["P1 implements=noop requires=E1", "P2 implements=noop requires=E2"],
                )
            )
            script = [(60, "X1", True), (160, "X2", True), (340, "X1", False), (580, "X1", True)]
            for at, sensor, value in script:
                twin.run_to(at)
                twin.flip(sensor, value)
            twin.run_to(780)
            return twin.net.render_log()

        logs = {run() for _ in range(10)}
        assert len(logs) == 1

    def test_boot_statement_present(self):
        net = bootstrap(load_network(""))
        assert net.stores[UPPER_NODE].statement_state(BOOT_STATEMENT) is True


class TestClock:
    def test_monotone(self):
        clock = VirtualClock()
        clock.advance_to(10)
        clock.advance_to(5)
        assert clock.now == 10


class TestTicks:
    @settings(max_examples=500, deadline=None)
    @given(
        p=st_.integers(min_value=1, max_value=1000),
        q=st_.integers(min_value=1, max_value=1000),
        earlier=st_.integers(min_value=0, max_value=10**9),
        time_ms=st_.integers(min_value=0, max_value=10**9),
    )
    def test_integer_ticks_equal_the_fraction_formulas(self, p, q, earlier, time_ms):
        rate = Fraction(p, q)
        group = TickGroup("A", rate.numerator, 1000 * rate.denominator)
        assert group.due_at_or_after(time_ms) == oracles.fraction_due_at_or_after(rate, 0, time_ms)
        group.take_tick(earlier)
        last_tick = oracles.fraction_take_tick(rate, earlier)
        assert group.last_tick == last_tick
        assert group.due_at_or_after(time_ms) == oracles.fraction_due_at_or_after(rate, last_tick, time_ms)
