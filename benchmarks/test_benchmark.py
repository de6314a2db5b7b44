"""Tests of the replay benchmark itself: generator, checks and tracing.

Run with ``python3 -m pytest benchmarks``.  They use shrunken workloads so
that they finish in seconds.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from fluentnet import procedures, rules  # importable once run has put src/ on the path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SMALL = {
    "sessions": lambda seed: workloads.sessions(seed, participants=3),
    "spatial_sweep": lambda seed: workloads.spatial_sweep(seed, participants=1),
    "append_growth": lambda seed: workloads.append_growth(seed, participants=2),
}


def texts(workload: str, seed: int) -> list[str]:
    return ["\n".join(lines) + "\n" for lines in SMALL[workload](seed)]


@pytest.fixture(scope="module")
def scenario():
    return procedures.load_scenario()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_lines(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_other_seed_other_lines_same_checks(scenario, workload):
    first, second = texts(workload, 1), texts(workload, 2)
    assert first != second
    for lines in (first, second):
        assert run.check(workload, lines, run.replay(scenario, lines)) == []


def test_dropped_recognition_fails_the_check(scenario):
    lines = texts("sessions", 3)
    iteration = run.replay(scenario, lines)
    assert run.check("sessions", lines, iteration) == []
    recognitions = {r.participant: r.recognition_pairs() for r in iteration.results}
    recognitions["p02"].pop(3)
    matrix = run.metrics.score(recognitions, iteration.truth)
    corrupted = dataclasses.replace(iteration, matrix=matrix, f1=run.metrics.f_measure(matrix))
    failures = run.check("sessions", lines, corrupted)
    assert failures and "F-measure" in failures[0]


def test_recognition_on_quiet_workload_fails_the_check(scenario):
    lines = texts("sessions", 3)
    assert run.check("spatial_sweep", lines, run.replay(scenario, lines))


def test_procedure_error_with_multiline_message_fails_cleanly(monkeypatch, capsys):
    def fail(self, net, now_ms):
        raise ValueError("first line\nsecond line")

    monkeypatch.setattr(procedures.Importer, "__call__", fail)
    monkeypatch.setitem(workloads.WORKLOADS, "sessions", SMALL["sessions"])
    assert run.main(["--workload", "sessions", "--seed", "1", "--seconds", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert any("error entries in the dispatch logs" in line for line in lines)


def test_traced_counters_and_digests_repeat(scenario):
    lines = texts("sessions", 4)
    plain, service = run.timed_iteration(scenario, lines)
    assert [len(series) for series in service] == [len(text.splitlines()) for text in lines]
    counters = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            iteration = run.replay(scenario, lines, tracer.begin_participant)
        assert iteration.digests() == plain.digests()
        layers = run.layer_metrics(tracer, iteration)
        counters.append({name: layers[name] for name in run.COUNTERS})
    assert counters[0] == counters[1]
    assert counters[0]["procedures.recognitions"] >= 3 * 8
    assert counters[0]["rules.builtin_calls"] > 0


def test_tracing_restores_the_program():
    def current():
        return procedures.Importer.__call__, rules.eval_builtin, procedures.bootstrap

    before = current()
    with tracing.Tracer().installed():
        assert all(a is not b for a, b in zip(current(), before))
    assert current() == before


def test_reported_metrics_match_benchmark_json(scenario, tmp_path):
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    lines = texts("spatial_sweep", 5)
    checker = run.Checker("spatial_sweep", lines)
    timed = run.run_timed(0, lines, checker)
    traced = run.run_traced("spatial_sweep", 0, lines, checker, tmp_path / "spans.tsv")
    assert checker.failures == []
    assert (tmp_path / "spans.tsv").stat().st_size > 0
    for section, values in (("end_to_end", timed), ("per_layer", traced)):
        names = {m["name"]: m["unit"] for m in declared[section]}
        reported = {name: run.units(name) for name in values if not name.startswith("_")}
        assert reported == names, section
    assert all(value > 0 for value in timed.values())
