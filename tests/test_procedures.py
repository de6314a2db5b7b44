"""Replayer, importers, evaluators, bindings and the whole replay loop."""

import dataclasses
import gc
import importlib.util
import io
import shutil
import time
import tracemalloc
from pathlib import Path

import pytest

import oracles
import synth
from conftest import scenario_copy
from fluentnet import dsl, golden, ingest, network, procedures, rules
from fluentnet.context import (
    APPEND, OVERWRITE, STATE_PROP, ConceptGraph, ContextStore, DefinedClass, Restriction, SensorDecl,
)
from fluentnet.modelio import build_store, load_store_model
from fluentnet.rules import Assign, ClassAtom, Compare, Head, PropertyAtom, Rule, plan_rules


WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """``benchmarks/workloads.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def session_run(scenario):
    load = ingest.load_trace(io.StringIO(synth.session_text()))
    result = procedures.run_replay(load.events, participant="p01", scenario=scenario)
    return load, result


class TestRegistry:
    def test_eight_bindings(self, scenario):
        assert [b.index for _, b in sorted(scenario.bindings.items())] == list(range(1, 9))

    def test_watering_sensor_set(self, scenario):
        assert set(scenario.bindings[3].sensor_ids) == {
            "D11", "F2", "F3", "M6", "M7", "M8", "M9", "M10", "M11", "M12", "M13", "M14",
        }

    def test_medicine_sensor_set(self, scenario):
        assert set(scenario.bindings[1].sensor_ids) == {"D7", "I4", "I6", "I7"}

    def test_phone_trigger_is_table2(self, scenario):
        importer = next(p for p in scenario.model.procedures if p.implements == "importer:4")
        events = {e.name: e for e in scenario.model.events}
        observed = [events[name].observes for name in importer.requires]
        assert observed == [("C_near_table2",)]

    def test_cleaning_prepasses(self, scenario):
        prepasses = scenario.bindings[7].compiled.prepasses
        assert {p.derived_concept for p in prepasses} == {"CLEANED"}
        assert {p.source_concept for p in prepasses} == {"CLEAN1", "CLEAN2"}
        t7 = load_store_model(scenario.base_dir / "t7.model")
        clean1 = sorted(s for s, d in t7.installations.items() if "CLEAN1" in d.concepts)
        clean2 = sorted(s for s, d in t7.installations.items() if "CLEAN2" in d.concepts)
        assert clean1 == ["M10", "M6", "M7", "M8", "M9"]
        assert clean2 == ["M16", "M17", "M18"]

    def test_outfit_subareas(self, scenario):
        t8 = load_store_model(scenario.base_dir / "t8.model")
        choose = {s for s, d in t8.installations.items() if "CHOOSE" in d.concepts}
        leave = {s for s, d in t8.installations.items() if "LEAVE" in d.concepts}
        assert choose == {"M21", "M22", "M23"}
        assert leave == {"M3", "M4", "M5", "M6", "M7", "M8", "M9"}

    def test_rules_are_planned_once_per_scenario(self, monkeypatch):
        planned = []
        plan = rules._plan
        monkeypatch.setattr(rules, "_plan", lambda rule: planned.append(rule.name) or plan(rule))
        scenario = procedures.load_scenario()
        assert sorted(planned) == sorted(r.name for b in scenario.bindings.values() for r in b.compiled.rules)
        assert len(planned) == 8
        load = ingest.load_trace(io.StringIO("\n".join(synth.session_lines()[:40]) + "\n"))
        first = procedures.run_replay(load.events, scenario=scenario)
        second = procedures.run_replay(load.events, scenario=scenario)
        assert len(planned) == 8
        assert first.log_text == second.log_text and len(first.recognitions) == 2

    def test_labels(self, scenario):
        assert scenario.bindings[1].label == "filling the medication dispenser"
        assert scenario.bindings[8].label == "selecting an outfit"


class TestGoldenTraces:
    def test_every_case_passes(self, scenario):
        outcomes = golden.run_golden_suite(scenario)
        failures = [o for o in outcomes if not o.passed]
        assert failures == []
        satisfying = [o for o in outcomes if o.case == "satisfying"]
        assert len(satisfying) == 8
        assert len(outcomes) - len(satisfying) >= 24

    def test_recognition_time_is_terminal_statement(self, scenario):
        outcomes = {(o.activity, o.case): o for o in golden.run_golden_suite(scenario)}
        for index in sorted(scenario.bindings):
            case = golden.golden_cases(scenario.bindings[index])[0]
            outcome = outcomes[(index, case.name)]
            assert outcome.passed
            assert outcome.detail == f"recognized at {case.expect_time} (expected {case.expect_time})"
            assert case.expect_time == max(
                t for _, _, t in case.readings if t <= case.expect_time
            )


class TestReplayStep:
    def test_unknown_sensor_skipped_with_warning(self, scenario):
        result = procedures.run_replay(
            [ingest.TraceEvent(time_ms=1_000, sensor="ZZ9", value=True)],
            scenario=scenario,
        )
        assert result.events_replayed == 0
        assert any("ZZ9" in w for w in result.warnings)
        assert "warning" in result.log_text

    def test_overwrite_in_spatial_store(self, scenario):
        events = [
            ingest.TraceEvent(time_ms=1_000, sensor="M16", value=True),
            ingest.TraceEvent(time_ms=2_000, sensor="M16", value=False),
        ]
        result = procedures.run_replay(events, scenario=scenario)
        spatial = result.net.stores["L"]
        assert set(i for i in spatial.instances if i.startswith("M16")) == {"M16"}
        assert spatial.statement_state("M16") is False

    def test_motion_updates_person_context(self, scenario):
        events = [ingest.TraceEvent(time_ms=1_000, sensor="M16", value=True)]
        result = procedures.run_replay(events, scenario=scenario)
        spatial = result.net.stores["L"]
        assert ("isIn", "K") in spatial.infer_person_context()
        assert oracles.person_context_matches(spatial, "isIn", "KITCHEN")

    def test_each_reading_reclassifies_one_spatial_instance(self, scenario, session_run):
        """The spatial node is classified in full once, at the first pattern
        check after bootstrap; from then on a reading reclassifies only the
        sensor it writes."""
        _, result = session_run
        initial = len(build_store("L", scenario.store_models["L"]).instances)
        assert result.events_replayed > 100
        assert result.net.stores["L"].reclassified == initial + result.events_replayed


class TestTriggerFanout:
    def test_kitchen_flip_dispatches_both_kitchen_importers(self, scenario):
        events = [ingest.TraceEvent(time_ms=5_000, sensor="M16", value=True)]
        result = procedures.run_replay(events, scenario=scenario)
        lines = [l.split("\t") for l in result.log_text.splitlines()]
        flips = [l for l in lines if l[1] == "condition" and l[2] == "C_in_kitchen"]
        assert flips and flips[0][3] == "outcome=true"
        fired = [l[2] for l in lines if l[1] == "event"]
        assert "E_I1" in fired and "E_I6" in fired
        dispatched = [l[2] for l in lines if l[1] == "procedure"]
        assert "I1" in dispatched and "I6" in dispatched

    def test_evaluator_runs_in_the_same_step_as_its_import(self, scenario):
        events = [ingest.TraceEvent(time_ms=5_000, sensor="M16", value=True)]
        result = procedures.run_replay(events, scenario=scenario)
        lines = [l.split("\t") for l in result.log_text.splitlines()]
        import_times = [int(l[0]) for l in lines if l[1] == "import" and l[2] == "I1"]
        m1_times = [int(l[0]) for l in lines if l[1] == "procedure" and l[2] == "M1"]
        assert import_times and import_times == m1_times


class TestImportProtocol:
    def test_duplicate_suppression(self, session_run):
        _, result = session_run
        lines = result.log_text.splitlines()
        # kitchen entries at 41s and 56s import nothing new for activity 1
        counts = [
            line.split("count=")[1]
            for line in lines
            if "\timport\tI1\t" in line
        ]
        assert "0" in counts  # later imports with no spatial change are empty

    def test_sync_statement_set_on_every_import(self, session_run):
        _, result = session_run
        t1 = result.net.stores["T1"]
        assert t1.statement_state("N") is False  # evaluator reset it last

    def test_activity_store_appends(self, session_run):
        _, result = session_run
        t3 = result.net.stores["T3"]
        door_instances = [i for i in t3.instances if i.startswith("D11#")]
        assert len(door_instances) >= 2

    def test_sync_protocol_pairs_every_import_with_an_evaluation(self, session_run):
        # the sync statement is true exactly between an import and the
        # evaluation it triggers, so over the whole interleaving each
        # import dispatch is matched by one evaluator dispatch
        _, result = session_run
        lines = result.log_text.splitlines()
        for activity in range(1, 9):
            imports = sum(1 for l in lines if l.split("\t")[1:3] == ["import", f"I{activity}"])
            evaluations = sum(
                1 for l in lines if l.split("\t")[1:3] == ["procedure", f"M{activity}"]
            )
            assert imports == evaluations, f"activity {activity}"
            assert imports > 0


class TestRecognitionLifecycle:
    def test_all_eight_recognized_at_terminal_times(self, session_run):
        _, result = session_run
        expected = {
            1: 71_000, 2: 181_000, 3: 316_000, 4: 386_000,
            5: 466_000, 6: 576_000, 7: 711_000, 8: 791_000,
        }
        times = {(r.activity, r.time_ms) for r in result.recognitions}
        for activity, time_ms in expected.items():
            assert (activity, time_ms) in times

    def test_store_cleared_down_to_result_and_sync(self, session_run):
        _, result = session_run
        t4 = result.net.stores["T4"]  # recognized once, nothing after
        assert set(t4.instances) == {"A4", "N"}

    def test_recognition_records_carry_contributors(self, session_run):
        _, result = session_run
        record = next(r for r in result.recognitions if r.activity == 3)
        assert any(c.startswith("D11") for c in record.contributing)
        assert any(c.startswith("WATERED") for c in record.contributing)

    def test_axiom_count_drops_to_floor_at_recognition(self, session_run):
        _, result = session_run
        strict_drop_seen = False
        for activity in range(1, 9):
            node = f"T{activity}"
            store = result.net.stores[node]
            # post-clear floor: the graph plus the result and sync statements
            floor = store.graph.axiom_terms() + 6
            points = result.telemetry.series[node]
            rec_evals = {r.time_ms for r in result.recognitions if r.activity == activity}
            assert rec_evals, node
            for before, after in zip(points, points[1:]):
                if after.axiom_count < before.axiom_count:
                    assert after.axiom_count == floor, node
                    strict_drop_seen = True
            finals = {}
            for point in points:
                finals[point.time_ms] = point.axiom_count
            for rec_time in rec_evals:
                eval_times = [t for t in finals if t >= rec_time]
                assert finals[min(eval_times)] == floor, node
        assert strict_drop_seen


class TestDeclaredMode:
    def test_node_mode_decides_how_readings_are_kept(self, session_run, tmp_path):
        # A2 needs the item taken out and put back: two I5 readings that an
        # overwrite-mode T2 collapses into one
        config = tmp_path / "scenario"
        shutil.copytree(procedures.SCENARIO_DIR, config)
        network = config / procedures.NETWORK_FILE
        text = network.read_text(encoding="utf-8")
        declared = "T2 represents=t2.model mode=append"
        assert declared in text
        network.write_text(text.replace(declared, "T2 represents=t2.model mode=overwrite"), encoding="utf-8")
        overwriting = procedures.load_scenario(config)

        load, shipped = session_run
        result = procedures.run_replay(load.events, scenario=overwriting)
        assert 2 in [r.activity for r in shipped.recognitions]
        assert [r.activity for r in result.recognitions] == [
            r.activity for r in shipped.recognitions if r.activity != 2
        ]
        assert {i for i in result.net.stores["T2"].instances if i.startswith("I5")} == {"I5"}
        satisfying = golden.golden_cases(overwriting.bindings[2])[0]
        (outcome,) = [o for o in golden.run_golden_suite(overwriting) if (o.activity, o.case) == (2, satisfying.name)]
        assert (outcome.passed, outcome.detail) == (False, "expected a recognition, got none")


class TestInterleaving:
    """A phone call nested inside the DVD session: both recognized, each
    matched to its own (innermost) interval, the late one via the grace
    window."""

    def interleaved_lines(self):
        lines = []
        mark = lambda t, sensor, value, note="": lines.append(synth._line(t, sensor, value, note))
        mark(100, "M003", "ON", "a2 begin")
        mark(102, "M003", "OFF")
        mark(105, "I05", "ABSENT")
        synth.pulse(lines, 110, "M005")
        mark(120, "M013", "ON", "a4 begin")
        mark(122, "M013", "OFF")
        mark(125, "P01", "ON")
        synth.pulse(lines, 140, "M013")
        mark(158, "P01", "OFF")
        mark(160, "M013", "ON", "a4 end")
        mark(162, "M013", "OFF")
        synth.pulse(lines, 175, "M003")
        mark(183, "M003", "ON", "a2 end")
        mark(185, "M003", "OFF")
        lines.append(synth._line(185, "I05", "PRESENT"))
        synth.pulse(lines, 190, "M003")
        return "\n".join(lines) + "\n"

    def test_nested_intervals_scored_to_their_own_activities(self, scenario):
        from fluentnet import metrics

        load = ingest.load_trace(io.StringIO(self.interleaved_lines()))
        result = procedures.run_replay(load.events, participant="p01", scenario=scenario)
        times = set(result.recognition_pairs())
        # terminal statements: phone down at 158 s, item back at 185 s
        # (rebased: the first event at 100 s maps to virtual 1 s)
        assert (4, 59_000) in times
        assert (2, 86_000) in times
        truth = ingest.GroundTruth()
        for interval in load.intervals:
            truth.add(
                "p01",
                ingest.Interval(
                    interval.activity,
                    interval.start_ms - result.base_ms,
                    interval.end_ms - result.base_ms,
                ),
            )
        matrix = metrics.score({"p01": result.recognition_pairs()}, truth)
        assert matrix.rate(4, 4) == 1.0  # innermost interval wins
        assert matrix.rate(2, 2) == 1.0  # grace window catches the late one
        delays = metrics.delay_stats({"p01": result.recognition_pairs()}, truth)
        assert delays[2].delayed == 1
        assert delays[2].max_s == pytest.approx(2.0)
        assert delays[4].delayed == 0


class TestSchedulerOracle:
    def test_run_replay_matches_the_tick_loop(self, scenario):
        # sampling only after a mutation must log what sampling at every
        # rate tick logs; this prefix of the session holds two recognitions
        text = "\n".join(synth.session_lines()[:40]) + "\n"
        load = ingest.load_trace(io.StringIO(text))
        result = procedures.run_replay(load.events, scenario=scenario)
        assert len(result.recognitions) == 2
        assert result.log_text == oracles.tick_replay(load.events, scenario)

    def test_readings_in_one_millisecond_share_a_sample(self, scenario):
        # the tick at a reading's time is sampled only after every reading
        # of that millisecond is asserted, so the importers see both
        events = [
            ingest.TraceEvent(time_ms=5_000, sensor="M16", value=True),
            ingest.TraceEvent(time_ms=5_000, sensor="I1", value=True),
        ]
        result = procedures.run_replay(events, scenario=scenario)
        assert result.log_text == oracles.tick_replay(events, scenario)

    @pytest.mark.parametrize("workload", ["sessions", "spatial_sweep", "append_growth"])
    def test_whole_benchmark_trace_matches_the_tick_loop(self, scenario, workloads, workload):
        """The first seed-1 participant of each benchmark workload, whole:
        the tick loop answers every pattern check from the person context,
        so a watch that drifts from it changes the log."""
        lines = workloads.generate(workload, 1)[0]
        load = ingest.load_trace(io.StringIO("\n".join(lines) + "\n"), **scenario.load_trace_kwargs())
        result = procedures.run_replay(load.events, participant="p01", scenario=scenario)
        assert result.log_text == oracles.tick_replay(load.events, scenario)


class TestWriteNoting:
    """Writes noted once per outermost dispatch against the noting oracle
    (``oracles.noting_each_procedure``), which notes each procedure's
    writes as it returns."""

    def replay(self, monkeypatch, events, scenario, wrap):
        """A replay on a network passed through ``wrap``: its log, and the
        pending samples after every reading, after every batch and at the
        end."""
        pending = []
        replay_step = procedures.Replayer.replay_step

        def stepping(replayer, net, event):
            replayed = replay_step(replayer, net, event)
            pending.append((net.clock.now, oracles.pending_samples(net)))
            return replayed

        def bootstrap(*args, **kwargs):
            net = wrap(network.bootstrap(*args, **kwargs))
            dispatch = net.sample_and_dispatch  # a pending_until batch

            def recording(states):
                dispatch(states)
                pending.append((net.clock.now, oracles.pending_samples(net)))

            net.sample_and_dispatch = recording
            return net

        with monkeypatch.context() as patch:
            patch.setattr(procedures, "bootstrap", bootstrap)
            patch.setattr(procedures.Replayer, "replay_step", stepping)
            result = procedures.run_replay(events, participant="p01", scenario=scenario)
        pending.append((result.net.clock.now, oracles.pending_samples(result.net)))
        return result.log_text, pending

    @pytest.mark.parametrize("trace", ["synthetic", "sessions", "spatial_sweep", "append_growth"])
    def test_replays_leave_the_pending_samples_of_the_noting_oracle(self, scenario, workloads, monkeypatch, trace):
        """The synthetic session and the first seed-1 participant of each
        benchmark workload."""
        if trace == "synthetic":
            text = synth.session_text()
        else:
            text = "\n".join(workloads.generate(trace, 1)[0]) + "\n"
        events = ingest.load_trace(io.StringIO(text), **scenario.load_trace_kwargs()).events
        log, pending = self.replay(monkeypatch, events, scenario, lambda net: net)
        oracle_log, oracle_pending = self.replay(monkeypatch, events, scenario, oracles.noting_each_procedure)
        assert log == oracle_log
        assert len(pending) == len(oracle_pending) > 50
        for (time_ms, samples), expected in zip(pending, oracle_pending):
            assert (time_ms, samples) == expected


class TestImporter:
    """An importer copies a sensor's spatial record unless it is the
    reading it last copied of that sensor."""

    def importer_1(self, scenario):
        """A fresh network and its medicine importer (sensors D7, I4, I6, I7)."""
        implementations, _ = procedures.build_implementations(scenario, procedures.ReplaySession())
        net = network.bootstrap(scenario.model, implementations=implementations, store_models=scenario.store_models)
        return net, implementations["importer:1"]

    @staticmethod
    def counts(net):
        return [entry.detail for entry in net.log if entry.kind == "import"]

    def test_a_duplicate_reading_imports_nothing(self, scenario):
        net, importer = self.importer_1(scenario)
        spatial = net.stores[procedures.SPATIAL_NODE]
        spatial.assert_statement("D7", True, 10)
        importer(net, 10)
        spatial.assert_statement("D7", True, 10)  # a new record, the same reading
        importer(net, 11)
        importer(net, 12)  # nothing written since
        assert self.counts(net) == ["count=1", "count=0", "count=0"]

    def test_a_sensor_written_twice_between_imports_is_imported_once(self, scenario):
        net, importer = self.importer_1(scenario)
        spatial, target = net.stores[procedures.SPATIAL_NODE], net.stores["T1"]
        importer(net, 5)
        spatial.assert_statement("D7", True, 10)
        spatial.assert_statement("I4", True, 12)
        spatial.assert_statement("D7", False, 20)
        importer(net, 20)
        assert self.counts(net) == ["count=0", "count=2"]
        record = target.instances["D7#1"]
        assert (record.state, record.time) == (False, 20)
        assert "D7#2" not in target.instances

    def test_a_new_spatial_store_is_read_whole(self, scenario):
        """The importer read a store far past the new one's first writes:
        on the new network it still copies every reading it has not copied."""
        net, importer = self.importer_1(scenario)
        spatial = net.stores[procedures.SPATIAL_NODE]
        for time in range(1, 41):
            spatial.assert_statement("I6", time % 2 == 0, time)
        importer(net, 40)
        fresh = network.bootstrap(scenario.model, store_models=scenario.store_models)
        for sensor, time in (("D7", 1), ("I4", 2), ("I7", 3)):
            fresh.stores[procedures.SPATIAL_NODE].assert_statement(sensor, True, time)
        assert fresh.stores[procedures.SPATIAL_NODE].mutation_seq < spatial.mutation_seq
        importer(fresh, 50)
        assert self.counts(net) == ["count=1"]
        assert self.counts(fresh) == ["count=3"]


class TestConditionsEvaluated:
    def test_quiet_toggles_after_the_sweep_evaluate_no_condition(self, scenario):
        """Once every sensor has been switched on, toggling bathroom motion
        or a non-motion sensor changes no watched answer: the note finds
        none of the spatial node's eight pattern checks differing, so
        nothing is sampled, and no other node changes."""
        implementations, replayer = procedures.build_implementations(scenario, procedures.ReplaySession())
        net = network.bootstrap(scenario.model, implementations=implementations, store_models=scenario.store_models)

        def evaluations(time_ms, sensor, value):
            net.pending_until(time_ms - 1)
            net.clock.advance_to(time_ms)
            before = net.evaluated
            replayer.replay_step(net, ingest.TraceEvent(time_ms=time_ms, sensor=sensor, value=value))
            net.pending_until(time_ms + 999)
            return net.evaluated - before

        sweep = sorted(net.stores[procedures.SPATIAL_NODE].installations)
        assert sum(evaluations(1000 * (i + 1), s, True) for i, s in enumerate(sweep)) > 0
        quiet = ("M1", "M2", "I1", "D9", "F3", "P1")
        start = 1000 * (len(sweep) + 1)
        assert [evaluations(start + 500 * i, quiet[i % 6], i % 2 == 1) for i in range(24)] == [0] * 24


class TestMembershipMemo:
    def test_quiet_toggles_after_a_warm_up_run_no_fixpoint(self, scenario):
        """The spatial node's templates and memo live on the scenario's
        graph.  Quiet readings are not classified as they are written: the
        next read of the store reclassifies each toggled id once.  Once one
        participant has switched every sensor on, toggled six quiet sensors
        and read the store, the next participant's read serves those six ids
        from the memo, with no fixpoint run."""

        def participant():
            implementations, replayer = procedures.build_implementations(scenario, procedures.ReplaySession())
            net = network.bootstrap(scenario.model, implementations=implementations, store_models=scenario.store_models)
            spatial = net.stores[procedures.SPATIAL_NODE]

            def reading(time_ms, sensor, value):
                net.pending_until(time_ms - 1)
                net.clock.advance_to(time_ms)
                replayer.replay_step(net, ingest.TraceEvent(time_ms=time_ms, sensor=sensor, value=value))
                net.pending_until(time_ms + 999)

            sweep = sorted(spatial.installations)
            for i, sensor in enumerate(sweep):
                reading(1000 * (i + 1), sensor, True)
            fixpointed, reclassified = spatial.fixpointed, spatial.reclassified
            quiet = ("M1", "M2", "I1", "D9", "F3", "P1")
            start = 1000 * (len(sweep) + 1)
            for i in range(24):
                reading(start + 500 * i, quiet[i % 6], i % 2 == 1)
            assert spatial.reclassified == reclassified  # nothing read between the toggles
            spatial.classify()
            return spatial.fixpointed - fixpointed, spatial.reclassified - reclassified

        participant()  # the warm-up
        assert participant() == (0, 6)


QUIET_SENSORS = ("M1", "M2", *(f"I{i}" for i in range(1, 10)), *(f"D{i}" for i in range(7, 13)), "F2", "F3", "P1")


class TestQuietWrites:
    """The spatial node's quiet writes (``Scenario.quiet_writes``): readings
    that can move no answer a condition reads, so the replayer neither
    classifies nor notes them."""

    def test_the_shipped_quiet_writes(self, scenario):
        """The bathroom motion (``isIn BA``, which no check watches), the
        items, doors, flows and the phone, each under both states: 20 of
        L's 41 sensors."""
        assert scenario.quiet_writes == {(sensor, state) for sensor in QUIET_SENSORS for state in (False, True)}
        assert len(scenario.store_models["L"].installations) == 41

    @pytest.mark.parametrize(
        "file_name, old, new, live",
        [
            pytest.param(
                procedures.NETWORK_FILE,
                "[events]\n",
                "C_d9 checks=D9 in=L hasTarget=true rate=50\n[events]\n",
                {"D9"},
                id="a-statement-check-on-L",
            ),
            pytest.param(
                "spatial.model",
                "SK SINK\n",
                "SK SINK\nSHELF FURNITURE isNearTo=I1\n",
                {"I1"},
                id="a-model-instance-naming-a-sensor",
            ),
            pytest.param(
                procedures.NETWORK_FILE,
                "[events]\n",
                "C_in_bathroom checks=PERSON:isIn:BATHROOM in=L hasTarget=true rate=50\n[events]\n",
                {"M1", "M2"},
                id="a-pattern-check-on-the-bathroom",
            ),
            pytest.param(
                procedures.NETWORK_FILE,
                "node=T4 installed=PHONE",
                "node=L installed=PHONE",
                set(QUIET_SENSORS),
                id="an-activity-bound-to-L",
            ),
        ],
    )
    def test_what_a_check_or_a_record_can_see_is_live(self, tmp_path, file_name, old, new, live):
        """Each edit makes the sensors it exposes live under both states and
        leaves the others quiet; an activity bound to L (its importer and
        evaluator write there, and the evaluator keeps lists there) makes
        every reading live."""
        edited = procedures.load_scenario(scenario_copy(tmp_path, old, new, file_name))
        assert edited.quiet_writes == {
            (sensor, state) for sensor in QUIET_SENSORS if sensor not in live for state in (False, True)
        }

    def test_a_quiet_reading_is_recorded_but_neither_classified_nor_noted(self, scenario):
        """A quiet ``M1`` reading is asserted and counted, and leaves the
        store's reclassified count and the pending samples as they were;
        the live ``M16`` reading after it classifies both ids at once."""
        session = procedures.ReplaySession()
        implementations, replayer = procedures.build_implementations(scenario, session)
        net = network.bootstrap(scenario.model, implementations=implementations, store_models=scenario.store_models)
        spatial = net.stores[procedures.SPATIAL_NODE]
        net.pending_until(999)  # the boot

        def reading(time_ms, sensor, value):
            net.clock.advance_to(time_ms)
            assert replayer.replay_step(net, ingest.TraceEvent(time_ms=time_ms, sensor=sensor, value=value))

        reading(1_000, "M16", True)
        pending, reclassified = oracles.pending_samples(net), spatial.reclassified
        assert pending == {("L", 50, 1000): 1_000}
        reading(1_005, "M1", True)
        assert spatial.statement_state("M1") is True
        assert (session.events_replayed, len(session.telemetry.series["L"])) == (2, 2)
        assert (spatial.reclassified, oracles.pending_samples(net)) == (reclassified, pending)
        reading(1_010, "M16", False)
        assert spatial.reclassified == reclassified + 2
        assert oracles.pending_samples(net) == {}  # C_in_kitchen agrees again
        assert spatial.infer_person_context() == (("isIn", "BA"),)

    @staticmethod
    def assert_replays_alike(scenario, text):
        """``text`` replayed with the quiet writes and with every reading
        classified and noted: same dispatch log, recognitions and telemetry
        axiom series."""
        events = ingest.load_trace(io.StringIO(text), **scenario.load_trace_kwargs()).events
        live = dataclasses.replace(scenario, quiet_writes=frozenset())
        runs = [procedures.run_replay(events, scenario=s) for s in (scenario, live)]
        axioms = [
            [(node, [(p.time_ms, p.axiom_count) for p in r.telemetry.series[node]]) for node in r.telemetry.nodes()]
            for r in runs
        ]
        assert runs[0].log_text == runs[1].log_text
        assert runs[0].recognitions == runs[1].recognitions
        assert axioms[0] == axioms[1]

    @pytest.mark.parametrize("trace", ["synthetic", "sessions", "spatial_sweep", "append_growth"])
    def test_a_replay_without_the_table_writes_the_same_bytes(self, scenario, workloads, trace):
        """The synthetic session and the first seed-1 participant of each
        workload."""
        if trace == "synthetic":
            text = synth.session_text()
        else:
            text = "\n".join(workloads.generate(trace, 1)[0]) + "\n"
        self.assert_replays_alike(scenario, text)

    def test_an_append_node_keeps_false_motion_readings_quiet(self, tmp_path):
        """An append write adds a record and replaces none, so a false
        reading of a motion sensor lends nothing and moves no watch; a true
        one still lends its pairs and stays live."""
        declared = "L represents=spatial.model mode="
        edited = procedures.load_scenario(scenario_copy(tmp_path, declared + "overwrite", declared + "append"))
        motion = {f"M{i}" for i in range(3, 24)}
        shipped = {(sensor, state) for sensor in QUIET_SENSORS for state in (False, True)}
        assert edited.quiet_writes == shipped | {(sensor, False) for sensor in motion}
        self.assert_replays_alike(edited, synth.session_text())


class TestWallClockPacing:
    def test_gaps_divided_by_speed(self, scenario):
        naps = []
        events = [
            ingest.TraceEvent(time_ms=1_000, sensor="M16", value=True),
            ingest.TraceEvent(time_ms=3_000, sensor="M16", value=False),
            ingest.TraceEvent(time_ms=3_500, sensor="M17", value=True),
        ]
        result = procedures.run_replay(
            events, scenario=scenario, pure_virtual=False, speed=4, sleeper=naps.append
        )
        assert naps == [pytest.approx(0.5), pytest.approx(0.125)]
        assert result.events_replayed == 3

    @pytest.mark.parametrize("pure_virtual", [True, False])
    @pytest.mark.parametrize("speed", [0, -2])
    def test_a_speed_that_is_not_positive_is_refused(self, scenario, speed, pure_virtual):
        events = [ingest.TraceEvent(time_ms=1_000, sensor="M16", value=True)]
        with pytest.raises(ValueError):
            procedures.run_replay(events, scenario=scenario, speed=speed, pure_virtual=pure_virtual)

    def test_pure_virtual_mode_never_sleeps(self, scenario):
        def sleeper(seconds):
            raise AssertionError(f"slept {seconds} s in pure-virtual mode")

        events = [
            ingest.TraceEvent(time_ms=time_ms, sensor="M16", value=value)
            for time_ms, value in ((1_000, True), (3_000, False), (99_000, True))
        ]
        result = procedures.run_replay(events, scenario=scenario, speed=4, sleeper=sleeper)
        assert result.events_replayed == 3

    def test_readings_at_the_same_ms_take_no_nap(self, scenario):
        naps = []
        events = [
            ingest.TraceEvent(time_ms=time_ms, sensor=sensor, value=time_ms == 1_000)
            for time_ms in (1_000, 3_000)
            for sensor in ("M16", "M17")
        ]
        procedures.run_replay(events, scenario=scenario, pure_virtual=False, speed=4, sleeper=naps.append)
        assert naps == [pytest.approx(0.5)]

    def test_a_reading_is_asserted_at_its_rebased_time(self, scenario):
        """The replayer writes at the clock's time, which the loop moved to
        the reading's rebased time, not at the reading's own epoch time."""
        stamp = ingest.timestamp_ms("2009-05-11", "14:00:00")
        result = procedures.run_replay([ingest.TraceEvent(time_ms=stamp, sensor="M16", value=True)], scenario=scenario)
        assert result.base_ms == stamp - procedures.REBASE_START_MS
        assert result.net.stores[procedures.SPATIAL_NODE].instances["M16"].time == procedures.REBASE_START_MS


class TestEvaluatorDirect:
    def test_prepass_asserts_derived_statement(self, scenario):
        binding = scenario.bindings[3]
        node = next(n for n in scenario.model.nodes if n.name == "T3")
        store = build_store("T3", load_store_model(scenario.base_dir / node.represents), mode=APPEND)
        for sensor, t in (("M6", 1_000), ("M7", 40_000)):
            store.assert_statement(sensor, True, t, mode=APPEND)
        evaluator = procedures.Evaluator(binding, procedures.ReplaySession())
        assert evaluator.run_prepasses(store, 50_000) == 1
        derived = store.query_instances("WATERED")
        assert derived.ids() == ("WATERED_1",)
        assert derived.members[0].time == 40_000

    def test_prepass_below_threshold_asserts_nothing(self, scenario):
        binding = scenario.bindings[3]
        node = next(n for n in scenario.model.nodes if n.name == "T3")
        store = build_store("T3", load_store_model(scenario.base_dir / node.represents), mode=APPEND)
        store.assert_statement("M6", True, 1_000, mode=APPEND)
        evaluator = procedures.Evaluator(binding, procedures.ReplaySession())
        assert evaluator.run_prepasses(store, 50_000) == 0
        assert len(store.query_instances("WATERED")) == 0


    def test_repeated_evaluation_writes_only_the_sync_reset(self, scenario):
        """An A7 evaluation whose tallies did not move since the previous
        one writes only the ``N`` reset: each stored pre-pass result already
        has the state and time it would be written with."""
        node = next(n for n in scenario.model.nodes if n.name == "T7")
        store = build_store("T7", load_store_model(scenario.base_dir / node.represents), mode=APPEND)
        for sensor, t in (("M6", 1_000), ("M7", 40_000), ("M16", 2_000), ("M17", 30_000)):
            store.assert_statement(sensor, True, t, mode=APPEND)
        evaluator = procedures.Evaluator(scenario.bindings[7], procedures.ReplaySession())
        sync = {"concepts": (procedures.SYNC_CONCEPT,), "mode": OVERWRITE}
        writes = []
        for now in (50_000, 60_000):
            store.assert_statement(procedures.SYNC_STATEMENT, True, now, **sync)
            before, records = store.mutation_seq, dict(store.instances)
            assert evaluator.evaluate_store(store, now) is None
            writes.append(store.mutation_seq - before)
        assert writes == [3, 1]  # N, CLEANED_1 and CLEANED_2; then N alone
        assert store.instances["CLEANED_1"] is records["CLEANED_1"]
        assert (store.instances["CLEANED_1"].time, store.instances["CLEANED_2"].time) == (40_000, 30_000)


def mini_skip_store():
    """An append store where the door ``D7`` is ``OPENED`` (a defined
    class) while true and lies in the room ``K``, ``I5`` is an item and
    ``TAKEN`` a pre-pass result."""
    g = ConceptGraph()
    for concept in ("STATEMENT", "SENSOR", "DOOR", "OPENED", "ITEM", "ROOM", "TAKEN", "ACTIVITY", "SYNC"):
        g.add_concept(concept)
    for child, parent in (("SENSOR", "STATEMENT"), ("DOOR", "SENSOR"), ("OPENED", "DOOR"), ("ITEM", "SENSOR"),
                          ("TAKEN", "STATEMENT"), ("ACTIVITY", "STATEMENT"), ("SYNC", "STATEMENT")):
        g.add_subclass(child, parent)
    g.add_property("isIn")
    g.add_defined(DefinedClass("OPENED", ("DOOR",), (Restriction(STATE_PROP, "TRUE"),)))
    decls = {"D7": SensorDecl("D7", ("DOOR",), (("isIn", "K"),)), "I5": SensorDecl("I5", ("ITEM",))}
    store = ContextStore("T", g, decls, default_mode=APPEND)
    store.add_instance("K", ("ROOM",))
    return store


def mini_skip_evaluator():
    """An evaluator of "an opened door, then an item taken at least 50 ms
    later", whose rule reads the lists of ``OPENED`` and ``ITEM`` only and
    whose pre-pass derives ``TAKEN_1`` from one present item."""
    rule = Rule(
        "A",
        (
            ClassAtom("OPENED", "?d"),
            PropertyAtom(STATE_PROP, "?d", True),
            PropertyAtom("hasTime", "?d", "?t1"),
            ClassAtom("ITEM", "?i"),
            PropertyAtom(STATE_PROP, "?i", False),
            PropertyAtom("hasTime", "?i", "?t2"),
            Assign("?a", "?t1", 50),
            Compare("<=", "?a", "?t2"),
        ),
        Head("A", ("ACTIVITY",), True, "?t2"),
    )
    compiled = dsl.CompiledModel("mini", (rule,), (dsl.Prepass("ITEM", True, 0, 1, "TAKEN"),))
    binding = procedures.ActivityBinding(1, "mini", "T", ("D7", "I5"), None, compiled, plan_rules(compiled.rules))
    return procedures.Evaluator(binding, procedures.ReplaySession())


def import_and_evaluate(evaluator, store, now_ms):
    """Raise ``N`` as an import does and evaluate: (whether the evaluation
    ran in full, the recognition)."""
    store.assert_statement(
        procedures.SYNC_STATEMENT, True, now_ms, concepts=(procedures.SYNC_CONCEPT,), mode=OVERWRITE
    )
    skipped = evaluator.skipped
    record = evaluator.evaluate_store(store, now_ms)
    return evaluator.skipped == skipped, record


def write(store, sensor, state, time_ms, mode=APPEND):
    store.assert_statement(sensor, state, time_ms, mode=mode)


# ways to change what the mini evaluator reads once it is silent, each of
# which must make its next evaluation run in full
CHANGES = {
    "class-atom record placed": lambda store: write(store, "I5", True, 400),
    "class-atom record removed": lambda store: store.remove_instance("I5#1"),
    "pre-pass result removed": lambda store: store.remove_instance("TAKEN_1"),
    "defined class flip in": lambda store: write(store, "D7", True, 400, OVERWRITE),
    "full recompute": lambda store: store.add_instance("K", ("ROOM",)),
    "new kept list": lambda store: store.keep("ROOM"),
}


class TestEvaluationSkip:
    """An evaluation that finds the lists it reads as the previous silent
    evaluation left them skips the pre-passes, the snapshot and the match."""

    def silent(self):
        store = mini_skip_store()
        evaluator = mini_skip_evaluator()
        write(store, "D7", False, 10, OVERWRITE)
        write(store, "I5", True, 20)
        assert import_and_evaluate(evaluator, store, 100) == (True, None)
        assert import_and_evaluate(evaluator, store, 200) == (False, None)
        return store, evaluator

    def test_skips_after_an_import_of_nothing_new(self):
        store, evaluator = self.silent()
        # a write no kept list reads: the door stays closed, so not OPENED
        write(store, "D7", False, 250, OVERWRITE)
        assert import_and_evaluate(evaluator, store, 300) == (False, None)
        assert evaluator.skipped == 2

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_runs_in_full_after_a_change_to_what_it_reads(self, change):
        store, evaluator = self.silent()
        reclassified = store.reclassified
        CHANGES[change](store)
        assert import_and_evaluate(evaluator, store, 500) == (True, None)
        if change in ("full recompute", "new kept list"):
            assert store.reclassified - reclassified == len(store.instances)
        assert "TAKEN_1" in store.instances
        assert import_and_evaluate(evaluator, store, 600) == (False, None)

    def test_a_full_recompute_moves_lists_it_places_nothing_in(self):
        """Here no kept list holds a record: the closed door is not
        ``OPENED``.  Re-adding the room it names forces a full recompute,
        which places nothing in the lists but still ends the skip."""
        store = mini_skip_store()
        evaluator = mini_skip_evaluator()
        write(store, "D7", False, 10, OVERWRITE)
        assert import_and_evaluate(evaluator, store, 100) == (True, None)
        assert import_and_evaluate(evaluator, store, 200) == (False, None)
        index_work = store.index_work
        store.add_instance("K", ("ROOM",))
        assert import_and_evaluate(evaluator, store, 300) == (True, None)
        assert store.index_work == index_work

    def test_defined_class_flip_out_runs_in_full(self):
        store, evaluator = self.silent()
        write(store, "D7", True, 400, OVERWRITE)
        assert import_and_evaluate(evaluator, store, 500) == (True, None)
        write(store, "D7", False, 550, OVERWRITE)
        assert import_and_evaluate(evaluator, store, 600) == (True, None)

    def test_runs_in_full_after_a_recognition(self):
        store, evaluator = self.silent()
        write(store, "D7", True, 300, OVERWRITE)
        write(store, "I5", False, 360)
        full, record = import_and_evaluate(evaluator, store, 400)
        assert full and record.time_ms == 360
        assert import_and_evaluate(evaluator, store, 500) == (True, None)
        assert import_and_evaluate(evaluator, store, 600) == (False, None)

    def test_runs_in_full_on_another_store(self):
        """Two stores written alike have equal ``lists_version``s; the
        second, where the item is taken late enough, is still matched."""
        early, late = mini_skip_store(), mini_skip_store()
        for store, taken in ((early, 30), (late, 90)):
            write(store, "D7", True, 10, OVERWRITE)
            write(store, "I5", False, taken)
        evaluator = mini_skip_evaluator()
        assert import_and_evaluate(evaluator, early, 100) == (True, None)
        assert import_and_evaluate(evaluator, early, 200) == (False, None)
        full, record = import_and_evaluate(evaluator, late, 300)
        assert full and record.time_ms == 90

    def test_skips_after_every_empty_import_on_the_session(self, scenario, monkeypatch):
        """On the scripted session, an evaluation whose import brought no
        reading and whose previous evaluation recognised nothing is
        skipped."""
        imported, silent, checked = {}, {}, []
        call_importer = procedures.Importer.__call__
        evaluate_store = procedures.Evaluator.evaluate_store

        def importer(self, net, now_ms):
            imported[self.binding.index] = net.stores[self.binding.node].mutation_seq
            call_importer(self, net, now_ms)

        def evaluator(self, store, now_ms, net=None):
            index = self.binding.index
            # the import's sync raise runs the evaluation inside the import
            empty = store.mutation_seq - imported.pop(index, store.mutation_seq) == 1  # N alone
            skipped = self.skipped
            record = evaluate_store(self, store, now_ms, net=net)
            if empty and silent.get(index):
                assert self.skipped == skipped + 1
                checked.append(index)
            silent[index] = record is None
            return record

        monkeypatch.setattr(procedures.Importer, "__call__", importer)
        monkeypatch.setattr(procedures.Evaluator, "evaluate_store", evaluator)
        load = ingest.load_trace(io.StringIO(synth.session_text()))
        procedures.run_replay(load.events, scenario=scenario)
        assert len(checked) >= 20 and len(set(checked)) >= 4

    @pytest.mark.parametrize("workload", ["sessions", "spatial_sweep", "append_growth"])
    def test_skipped_evaluations_would_write_and_derive_nothing(self, scenario, workloads, monkeypatch, workload):
        """The first seed-1 participant of each benchmark workload: every
        skipped evaluation, run in full on a copy of its store, writes no
        pre-pass result and derives nothing."""
        evaluators, shadowed = set(), []
        evaluate_store = procedures.Evaluator.evaluate_store

        def shadowing(self, store, now_ms, net=None):
            evaluators.add(self)
            skipped = self.skipped
            record = evaluate_store(self, store, now_ms, net=net)
            if self.skipped != skipped:
                copy = oracles.store_copy(store)
                shadow = procedures.Evaluator(self.binding, procedures.ReplaySession())
                shadow.register(copy)
                before = copy.mutation_seq
                assert shadow.run_prepasses(copy, now_ms) == 0
                assert shadow.engine.earliest(copy.snapshot()) is None
                assert copy.mutation_seq == before
                shadowed.append(self.binding.index)
            return record

        monkeypatch.setattr(procedures.Evaluator, "evaluate_store", shadowing)
        lines = workloads.generate(workload, 1)[0]
        load = ingest.load_trace(io.StringIO("\n".join(lines) + "\n"), **scenario.load_trace_kwargs())
        procedures.run_replay(load.events, participant="p01", scenario=scenario)
        assert evaluators
        if workload != "spatial_sweep":
            assert len(shadowed) >= 20


class TestRetainedRecords:
    """What a replay records (the dispatch log, the telemetry) is kept as
    values the cyclic garbage collector never tracks (strings and machine
    integers), so the collections of a long replay do not trace it again
    and again."""

    def test_a_result_holds_few_tracked_objects_per_reading(self, scenario, workloads):
        text = "\n".join(workloads.generate("sessions", 1)[0]) + "\n"

        def replay():
            load = ingest.load_trace(io.StringIO(text), **scenario.load_trace_kwargs())
            return procedures.run_replay(load.events, participant="p01", scenario=scenario)

        replay()  # the scenario's shared caches fill on the first replay
        gc.collect()
        before = len(gc.get_objects())
        result = replay()
        gc.collect()
        held = len(gc.get_objects()) - before
        assert result.events_replayed == 146
        assert held <= 8 * result.events_replayed

    def test_a_result_holds_its_dispatch_log_once(self, scenario, workloads):
        """The result's log text is the network's: a log's memory is its
        text and a machine integer per entry, whatever its length."""
        text = "\n".join(workloads.generate("sessions", 1)[0]) + "\n"

        def replay():
            load = ingest.load_trace(io.StringIO(text), **scenario.load_trace_kwargs())
            return procedures.run_replay(load.events, participant="p01", scenario=scenario)

        replay()  # the scenario's shared caches fill on the first replay
        gc.collect()
        tracemalloc.start()
        try:
            result = replay()
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, network.__file__)])
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in snapshot.statistics("filename"))
        assert result.log_text is result.net.render_log()
        assert len(result.net.log) == 1645
        assert held <= len(result.log_text) + 16 * len(result.net.log) + 16384


class TestHostileTraces:
    """A cabinet left open while an item is toggled: the append node is
    never cleared, so every evaluation sees the whole history.  Matching
    must stay bounded: the candidates examined per evaluation may grow at
    most linearly with the toggles, and no evaluation may take long."""

    SENSORS = {6: ("D08", "I01", "M017"), 1: ("D07", "I04", "M016")}

    def trace(self, activity, toggles, closed):
        door, item, motion = self.SENSORS[activity]
        lines = []
        synth.pulse(lines, 0, motion)
        lines.append(synth._line(5, door, "OPEN"))
        t = 5
        if closed:
            # the opening and the closing are both imported before the toggles
            synth.pulse(lines, 8, motion)
            lines.append(synth._line(12, door, "CLOSE"))
            synth.pulse(lines, 15, motion)
            t = 15
        for k in range(toggles):
            t += 10
            lines.append(synth._line(t, item, "ABSENT" if k % 2 == 0 else "PRESENT"))
            synth.pulse(lines, t + 1, motion)
        return "\n".join(lines) + "\n"

    def evaluations(self, scenario, monkeypatch, activity, toggles, closed):
        """(examined, CPU seconds) for each evaluation of the activity."""
        seen = []
        evaluate_store = procedures.Evaluator.evaluate_store

        def recording(self, store, now_ms, net=None):
            # CPU time of this process, so other processes' load does not count
            examined, started = self.engine.examined, time.process_time()
            record = evaluate_store(self, store, now_ms, net=net)
            if self.binding.index == activity:
                seen.append((self.engine.examined - examined, time.process_time() - started))
            return record

        load = ingest.load_trace(io.StringIO(self.trace(activity, toggles, closed)))
        # a collection inside a timed evaluation walks only what this replay
        # allocated, not every object the test session has left alive
        gc.collect()
        gc.freeze()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(procedures.Evaluator, "evaluate_store", recording)
                result = procedures.run_replay(load.events, scenario=scenario)
        finally:
            gc.unfreeze()
        assert activity not in {r.activity for r in result.recognitions}
        assert len(seen) >= toggles
        return seen

    @pytest.mark.parametrize("closed", [False, True], ids=["never-closed", "closed-first"])
    @pytest.mark.parametrize("activity", [6, 1])
    def test_cost_grows_at_most_linearly(self, scenario, monkeypatch, activity, closed):
        small = self.evaluations(scenario, monkeypatch, activity, 20, closed)
        large = self.evaluations(scenario, monkeypatch, activity, 80, closed)
        assert max(n for n, _ in large) <= 4 * max(n for n, _ in small) + 16
        assert max(s for _, s in small + large) < 0.05

    def matching_work(self, scenario, monkeypatch, activity, toggles):
        """Candidates examined per evaluation of the activity, with the
        cabinet never closed."""
        seen = []
        evaluate_store = procedures.Evaluator.evaluate_store

        def recording(self, store, now_ms, net=None):
            work = self.engine.examined
            record = evaluate_store(self, store, now_ms, net=net)
            if self.binding.index == activity:
                seen.append(self.engine.examined - work)
            return record

        load = ingest.load_trace(io.StringIO(self.trace(activity, toggles, False)))
        with monkeypatch.context() as patch:
            patch.setattr(procedures.Evaluator, "evaluate_store", recording)
            result = procedures.run_replay(load.events, scenario=scenario)
        assert activity not in {r.activity for r in result.recognitions}
        assert len(seen) >= toggles
        return seen

    def test_never_closed_matching_work_per_evaluation_is_flat(self, scenario, monkeypatch):
        """A1 at 1,280 toggles does the matching work per evaluation that
        it does at 20: the matcher reads the kept state lists, not the whole
        node."""
        small = self.matching_work(scenario, monkeypatch, 1, 20)
        large = self.matching_work(scenario, monkeypatch, 1, 1280)
        assert max(large) <= max(small) <= 16

    def kitchen_motion(self, readings):
        """``M016``/``M017``/``M018`` in turn pulse on, off 2 s later, every
        5 s; the tools cabinet ``D11`` is never opened, so A7 never
        completes and T7 gains every motion reading."""
        lines = []
        for k in range(readings // 2):
            synth.pulse(lines, 5 * k, ("M016", "M017", "M018")[k % 3])
        return "\n".join(lines) + "\n"

    def kitchen_work(self, scenario, monkeypatch, readings):
        """T7's kept-list work (records indexed plus pre-pass members read)
        per A7 evaluation, and T7's size at the end."""
        seen = []
        evaluate_store = procedures.Evaluator.evaluate_store

        def recording(self, store, now_ms, net=None):
            work = store.index_work
            record = evaluate_store(self, store, now_ms, net=net)
            if self.binding.index == 7:
                seen.append(store.index_work - work)
            return record

        load = ingest.load_trace(io.StringIO(self.kitchen_motion(readings)), **scenario.load_trace_kwargs())
        with monkeypatch.context() as patch:
            patch.setattr(procedures.Evaluator, "evaluate_store", recording)
            result = procedures.run_replay(load.events, scenario=scenario)
        assert 7 not in {r.activity for r in result.recognitions}
        return seen, len(result.net.stores["T7"].instances)

    def test_kitchen_motion_work_per_evaluation_is_bounded(self, scenario, monkeypatch):
        small, small_size = self.kitchen_work(scenario, monkeypatch, 100)
        large, large_size = self.kitchen_work(scenario, monkeypatch, 400)
        assert large_size > 3 * small_size
        assert len(large) > 3 * len(small)
        assert max(large) == max(small)
