"""Scoring: matrix shape, F-measure, delays, report determinism."""

import json

import pytest

from fluentnet.ingest import GroundTruth, Interval
from fluentnet.metrics import (
    ACTIVITIES,
    REFERENCE_DIAGONAL,
    REFERENCE_F1,
    Telemetry,
    TelemetryPoint,
    delay_stats,
    emit_report,
    f_measure,
    parse_dispatch_log,
    score,
)


def truth_for(*sessions):
    truth = GroundTruth()
    for participant, intervals in sessions:
        for activity, start_s, end_s in intervals:
            truth.add(participant, Interval(activity, start_s * 1000, end_s * 1000))
    return truth


def full_truth(participant="p01"):
    return truth_for((participant, [(a, a * 100, a * 100 + 50) for a in ACTIVITIES]))


def perfect_recognitions(participant="p01"):
    return {participant: [(a, (a * 100 + 25) * 1000) for a in ACTIVITIES]}


class TestScore:
    def test_perfect_run_is_identity(self):
        matrix = score(perfect_recognitions(), full_truth())
        for a in ACTIVITIES:
            assert matrix.rate(a, a) == 1.0
            assert matrix.rate(0, a) == 0.0

    def test_columns_sum_to_one_with_misses(self):
        truth = truth_for(
            ("p01", [(1, 0, 10), (2, 20, 30)]),
            ("p02", [(1, 0, 10), (2, 20, 30)]),
        )
        recognitions = {
            "p01": [(1, 5_000), (2, 25_000)],
            "p02": [(2, 25_000)],  # first activity missed entirely
        }
        matrix = score(recognitions, truth)
        for a in (1, 2):
            assert sum(matrix.rate(row, a) for row in matrix.rows()) == pytest.approx(1.0, abs=1e-9)
        assert matrix.rate(1, 1) == 0.5
        assert matrix.rate(0, 1) == 0.5

    def test_grace_window_matching(self):
        truth = truth_for(("p01", [(3, 0, 10)]))
        late = {"p01": [(3, 15_000)]}  # 5 s after the end
        assert score(late, truth, grace_ms=20_000).rate(3, 3) == 1.0
        assert score(late, truth, grace_ms=1_000).rate(0, 3) == 1.0

    def test_cross_prediction_lands_off_diagonal(self):
        truth = truth_for(("p01", [(3, 0, 10)]))
        matrix = score({"p01": [(7, 5_000)]}, truth)
        assert matrix.rate(7, 3) == 1.0
        assert matrix.rate(3, 3) == 0.0

    def test_first_match_wins_within_interval(self):
        truth = truth_for(("p01", [(3, 0, 10)]))
        matrix = score({"p01": [(3, 5_000), (7, 5_000)]}, truth)
        assert matrix.rate(3, 3) == 1.0

    def test_unmatched_recognitions_counted_separately(self):
        truth = truth_for(("p01", [(1, 0, 10)]))
        matrix = score({"p01": [(5, 500_000)]}, truth)
        assert matrix.unmatched == 1


class TestFMeasure:
    def test_perfect(self):
        matrix = score(perfect_recognitions(), full_truth())
        assert all(value == 1.0 for value in f_measure(matrix).values())

    def test_formula_by_hand(self):
        # one true positive for a1 plus one false positive (a1 predicted in
        # a2's interval): precision 1/2, recall 1 -> F1 = 2/3
        truth = truth_for(("p01", [(1, 0, 10), (2, 20, 30)]))
        matrix = score({"p01": [(1, 5_000), (1, 25_000)]}, truth)
        assert f_measure(matrix)[1] == pytest.approx(2 / 3)

    def test_zero_when_nothing_recognized(self):
        truth = truth_for(("p01", [(1, 0, 10)]))
        matrix = score({"p01": []}, truth)
        assert f_measure(matrix)[1] == 0.0

    def test_reference_vector(self):
        assert [REFERENCE_F1[a] for a in ACTIVITIES] == [
            0.97, 0.92, 0.80, 0.98, 0.89, 0.80, 0.78, 0.97,
        ]

    def test_reference_diagonal(self):
        assert REFERENCE_DIAGONAL[3] == 0.70
        assert REFERENCE_DIAGONAL[4] == 1.00


class TestDelays:
    def test_two_delays(self):
        truth = truth_for(("p01", [(1, 0, 10)]), ("p02", [(1, 0, 10)]))
        recognitions = {"p01": [(1, 12_000)], "p02": [(1, 14_000)]}
        stats = delay_stats(recognitions, truth)[1]
        assert stats.delayed == 2
        assert stats.total == 2
        assert stats.max_s == pytest.approx(4.0)
        assert stats.mean_s == pytest.approx(3.0)

    def test_inside_interval_not_delayed(self):
        truth = truth_for(("p01", [(1, 0, 10)]))
        stats = delay_stats({"p01": [(1, 5_000)]}, truth)[1]
        assert stats.delayed == 0
        assert stats.max_s is None and stats.mean_s is None

    def test_max_at_least_mean(self):
        truth = truth_for(("p01", [(1, 0, 10)]), ("p02", [(1, 0, 10)]), ("p03", [(1, 0, 10)]))
        recognitions = {"p01": [(1, 11_000)], "p02": [(1, 13_000)], "p03": [(1, 19_000)]}
        stats = delay_stats(recognitions, truth)[1]
        assert stats.max_s >= stats.mean_s >= 0

    def test_repeated_late_recognitions_count_once(self):
        truth = truth_for(("p01", [(1, 0, 10)]))
        recognitions = {"p01": [(1, 12_000), (1, 14_000), (1, 16_000)]}
        stats = delay_stats(recognitions, truth)[1]
        assert stats.delayed == 1
        assert stats.delayed <= stats.total
        assert stats.max_s == pytest.approx(2.0)  # the earliest match decides


class TestTelemetry:
    def test_series_reads_back_what_was_recorded(self):
        telemetry = Telemetry()
        recorded = [
            ("T2", 0, 12, 2**40),
            ("L", 0, 293, 111),
            ("T10", 5, 0, 0),
            ("L", 20, 294, 95),
            ("T2", 1_234_567_890_123, 13, 7),
        ]
        for node, time_ms, axiom_count, eval_ns in recorded:
            telemetry.record(node, time_ms, axiom_count, eval_ns)
        assert telemetry.nodes() == ["L", "T10", "T2"]
        assert list(telemetry.series) == ["T2", "L", "T10"]  # in order of first point
        for node in telemetry.nodes():
            assert telemetry.series[node] == [
                TelemetryPoint(time_ms=t, axiom_count=a, eval_ns=e) for n, t, a, e in recorded if n == node
            ]
        assert dict(telemetry.series.items())["T10"] == [TelemetryPoint(5, 0, 0)]
        assert "T3" not in telemetry.series and len(telemetry.series) == 3

    def test_an_empty_telemetry_has_no_series(self):
        telemetry = Telemetry()
        assert telemetry.nodes() == [] and dict(telemetry.series) == {}
        with pytest.raises(KeyError):
            telemetry.series["L"]


class TestReports:
    def artifacts(self):
        truth = full_truth()
        matrix = score(perfect_recognitions(), truth)
        telemetry = Telemetry()
        telemetry.record("L", 0, 293, 111)
        telemetry.record("L", 20, 293, 95)
        return matrix, f_measure(matrix), delay_stats(perfect_recognitions(), truth), telemetry

    def test_files_written(self, tmp_path):
        matrix, f1, delays, telemetry = self.artifacts()
        written = emit_report(
            tmp_path, matrix=matrix, f1=f1, delays=delays, telemetry=telemetry,
            dispatch_log="0\tcondition\tC1\toutcome=true\n",
            params={"d1": 40_000}, summary={"events": 1},
        )
        names = {p.name for p in written}
        assert {
            "confusion.csv", "confusion.json", "fmeasure.csv", "delay.csv",
            "telemetry_L.tsv", "timing_L.tsv", "dispatch.log", "params.json",
            "summary.json",
        } <= names

    def test_empty_run_still_emits(self, tmp_path):
        matrix = score({}, GroundTruth())
        written = emit_report(tmp_path, matrix=matrix, f1=f_measure(matrix), delays={})
        assert (tmp_path / "confusion.csv").exists()
        text = (tmp_path / "confusion.csv").read_text()
        assert text.count("\n") == 10  # header + 9 rows

    def test_reruns_byte_identical_outside_timing(self, tmp_path):
        matrix, f1, delays, telemetry = self.artifacts()
        for run in ("a", "b"):
            emit_report(
                tmp_path / run, matrix=matrix, f1=f1, delays=delays,
                telemetry=telemetry, dispatch_log="x\n", params={"d1": 1},
                summary={"events": 1},
            )
        for path in sorted((tmp_path / "a").iterdir()):
            if path.name.startswith("timing_"):
                continue
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()

    def test_fmeasure_report_compares_to_reference(self, tmp_path):
        matrix, f1, delays, _ = self.artifacts()
        emit_report(tmp_path, f1=f1)
        lines = (tmp_path / "fmeasure.csv").read_text().splitlines()
        assert lines[0] == "activity,f1,reference_f1,difference"
        assert lines[1].startswith("a1,1.000000,0.97,")

    def test_a_ninth_activity_is_scored_and_reported(self, tmp_path):
        """An activity past the paper's eight, recognised after its
        interval ends, gets its column, F1 and delay, and ``-`` where the
        paper publishes no reference; a tenth that only a recognition names
        is a row and a column with no interval."""
        truth = truth_for(("p01", [(1, 20, 30), (9, 1, 2)]))
        recognitions = {"p01": [(1, 25_000), (9, 2_500), (10, 500_000)]}
        matrix = score(recognitions, truth)
        assert matrix.activities == ACTIVITIES + (9, 10)
        assert (matrix.rate(9, 9), matrix.column_total(10), matrix.unmatched) == (1.0, 0, 1)
        f1 = f_measure(matrix)
        assert (f1[9], f1[10]) == (1.0, 0.0)
        delays = delay_stats(recognitions, truth)
        assert (delays[9].delayed, delays[9].total, delays[9].max_s) == (1, 1, 0.5)
        emit_report(tmp_path, matrix=matrix, f1=f1, delays=delays)
        confusion = (tmp_path / "confusion.csv").read_text().splitlines()
        assert confusion[0].endswith(",true_a8,true_a9,true_a10")
        assert [line.split(",")[0] for line in confusion[1:]][-3:] == ["a9", "a10", "unclassified"]
        assert confusion[9].split(",")[9] == "1.000000"
        payload = json.loads((tmp_path / "confusion.json").read_text())
        assert payload["reference_diagonal"]["a9"] == "-" and payload["counts"]["a9"]["a9"] == 1
        assert (tmp_path / "fmeasure.csv").read_text().splitlines()[-2:] == ["a9,1.000000,-,-", "a10,0.000000,-,-"]
        assert (tmp_path / "delay.csv").read_text().splitlines()[-2:] == ["a9,1,1,0.50,0.50", "a10,0,0,-,-"]


class TestDispatchLogParsing:
    def test_extracts_recognitions(self):
        text = (
            "100\tcondition\tC1\toutcome=true\n"
            "120\trecognition\tA3\tat=90 activity=3\n"
            "500\trecognition\tA7\tat=480 activity=7\n"
        )
        assert parse_dispatch_log(text) == [(3, 90), (7, 480)]
