"""Scoring and reporting: confusion matrix, F-measure, delays, telemetry.

A recognition is matched to the ground-truth interval that contains its
timestamp, or failing that to the most recently ended interval within a
grace window (recognitions routinely land a few seconds after the annotated
end).  Columns of the confusion matrix are true activities and always sum
to one: every annotated interval contributes exactly one outcome, the
``unclassified`` row collecting intervals no recognition matched.  The
activities reported are the paper's eight and every other index the
annotations or the recognitions name; one with no published reference
score shows ``-`` in its reference cells.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

from .ingest import GroundTruth, Interval

ACTIVITIES = tuple(range(1, 9))
UNCLASSIFIED = 0

DEFAULT_GRACE_MS = 20_000

# Published baseline scores for the eight activities, kept for side-by-side
# comparison in reports; exact reproduction depends on unpublished model
# parameters.
REFERENCE_F1 = {1: 0.97, 2: 0.92, 3: 0.80, 4: 0.98, 5: 0.89, 6: 0.80, 7: 0.78, 8: 0.97}
REFERENCE_DIAGONAL = {1: 0.95, 2: 0.95, 3: 0.70, 4: 1.00, 5: 0.80, 6: 0.70, 7: 0.80, 8: 0.95}


Recognition = tuple[int, int]  # (activity index, time ms)


def activity_axis(recognitions: Mapping[str, Sequence[Recognition]], truth: GroundTruth) -> tuple[int, ...]:
    """The activities to report, ascending: :data:`ACTIVITIES` and every
    other index that an interval or a recognition names."""
    named = {interval.activity for intervals in truth.sessions.values() for interval in intervals}
    named.update(activity for pairs in recognitions.values() for activity, _ in pairs)
    return tuple(sorted(named.union(ACTIVITIES) - {UNCLASSIFIED}))


@dataclass
class ConfusionMatrix:
    """Counts of (predicted row, true column) outcomes plus the rates view,
    over the activities ``activities``."""

    counts: dict[tuple[int, int], int] = field(default_factory=dict)
    unmatched: int = 0
    activities: tuple[int, ...] = ACTIVITIES

    def add(self, predicted: int, true: int) -> None:
        key = (predicted, true)
        self.counts[key] = self.counts.get(key, 0) + 1

    def column_total(self, true: int) -> int:
        return sum(v for (_, t), v in self.counts.items() if t == true)

    def count(self, predicted: int, true: int) -> int:
        return self.counts.get((predicted, true), 0)

    def rate(self, predicted: int, true: int) -> float:
        total = self.column_total(true)
        if total == 0:
            return 0.0
        return self.count(predicted, true) / total

    def rows(self) -> tuple[int, ...]:
        return self.activities + (UNCLASSIFIED,)


def _match_interval(
    time_ms: int, intervals: Sequence[Interval], grace_ms: int
) -> Optional[Interval]:
    containing = [i for i in intervals if i.start_ms <= time_ms <= i.end_ms]
    if containing:
        # innermost interval: latest start, then earliest end
        containing.sort(key=lambda i: (-i.start_ms, i.end_ms, i.activity))
        return containing[0]
    recent = [i for i in intervals if i.end_ms < time_ms <= i.end_ms + grace_ms]
    if recent:
        recent.sort(key=lambda i: (-i.end_ms, -i.start_ms, i.activity))
        return recent[0]
    return None


def score(
    recognitions: Mapping[str, Sequence[Recognition]],
    truth: GroundTruth,
    grace_ms: int = DEFAULT_GRACE_MS,
) -> ConfusionMatrix:
    """Confusion matrix over all participants.

    Each annotated interval is classified by the earliest recognition that
    matched it; intervals nothing matched count as unclassified.
    Recognitions matching no interval are tallied separately and never
    enter the matrix.
    """
    matrix = ConfusionMatrix(activities=activity_axis(recognitions, truth))
    for participant in sorted(truth.sessions):
        intervals = truth.intervals(participant)
        first_match: dict[Interval, Recognition] = {}
        for recognition in sorted(recognitions.get(participant, ()), key=lambda r: (r[1], r[0])):
            interval = _match_interval(recognition[1], intervals, grace_ms)
            if interval is None:
                matrix.unmatched += 1
                continue
            if interval not in first_match:
                first_match[interval] = recognition
        for interval in intervals:
            match = first_match.get(interval)
            matrix.add(match[0] if match else UNCLASSIFIED, interval.activity)
    return matrix


def f_measure(matrix: ConfusionMatrix) -> dict[int, float]:
    """Per-activity F1 from true/false positive and negative counts."""
    out: dict[int, float] = {}
    for activity in matrix.activities:
        tp = matrix.count(activity, activity)
        fp = sum(matrix.count(activity, true) for true in matrix.activities) - tp
        fn = matrix.column_total(activity) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        out[activity] = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return out


@dataclass
class ActivityDelay:
    activity: int
    delayed: int
    total: int
    max_s: Optional[float]
    mean_s: Optional[float]


def delay_stats(
    recognitions: Mapping[str, Sequence[Recognition]],
    truth: GroundTruth,
    grace_ms: int = DEFAULT_GRACE_MS,
) -> dict[int, ActivityDelay]:
    """Positive recognition delays (recognition time minus interval end).

    Each interval contributes at most once, through the earliest
    recognition of its own activity that matches it; ``delayed`` can never
    exceed ``total``.
    """
    delays: dict[int, list[float]] = {a: [] for a in activity_axis(recognitions, truth)}
    totals = truth.totals()
    for participant in sorted(truth.sessions):
        intervals = truth.intervals(participant)
        first_match: dict[Interval, Recognition] = {}
        for recognition in sorted(recognitions.get(participant, ()), key=lambda r: (r[1], r[0])):
            interval = _match_interval(recognition[1], intervals, grace_ms)
            if interval is None or recognition[0] != interval.activity:
                continue
            if interval not in first_match:
                first_match[interval] = recognition
        for interval, recognition in first_match.items():
            lag = recognition[1] - interval.end_ms
            if lag > 0:
                delays[interval.activity].append(lag / 1000.0)
    out: dict[int, ActivityDelay] = {}
    for activity, lags in delays.items():
        out[activity] = ActivityDelay(
            activity=activity,
            delayed=len(lags),
            total=totals.get(activity, 0),
            max_s=max(lags) if lags else None,
            mean_s=sum(lags) / len(lags) if lags else None,
        )
    return out


# --------------------------------------------------------------------------
# Telemetry

@dataclass(frozen=True)
class TelemetryPoint:
    time_ms: int
    axiom_count: int
    eval_ns: int


class Telemetry:
    """Append-only, time-ordered complexity series per node.

    Each node's points are kept as one ``array('q')`` of ``time_ms``,
    ``axiom_count``, ``eval_ns`` triples: machine integers, which the cyclic
    garbage collector never tracks.  ``series`` maps each node, in the order of its first
    point, to its points read back as a fresh list of
    :class:`TelemetryPoint` on every access.
    """

    def __init__(self) -> None:
        self._columns: dict[str, array] = {}
        self.series: Mapping[str, list[TelemetryPoint]] = _Series(self._columns)

    def record(self, node: str, time_ms: int, axiom_count: int, eval_ns: int) -> None:
        column = self._columns.get(node)
        if column is None:
            column = self._columns[node] = array("q")
        column.extend((time_ms, axiom_count, eval_ns))

    def nodes(self) -> list[str]:
        return sorted(self._columns)


class _Series(Mapping):
    """Read-only node -> :class:`TelemetryPoint` list view of a
    :class:`Telemetry`'s columns."""

    __slots__ = ("_columns",)

    def __init__(self, columns: dict[str, array]) -> None:
        self._columns = columns

    def __getitem__(self, node: str) -> list[TelemetryPoint]:
        values = iter(self._columns[node])
        return [TelemetryPoint(*point) for point in zip(values, values, values)]

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


# --------------------------------------------------------------------------
# Report emission

def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def emit_report(
    out_dir,
    matrix: Optional[ConfusionMatrix] = None,
    f1: Optional[Mapping[int, float]] = None,
    delays: Optional[Mapping[int, ActivityDelay]] = None,
    telemetry: Optional[Telemetry] = None,
    dispatch_log: str = "",
    params: Optional[Mapping[str, int]] = None,
    summary: Optional[Mapping[str, object]] = None,
) -> list[Path]:
    """Write the run's tables and plot data; bytes are a pure function of
    the inputs (wall-clock timing series live in separate ``timing_*``
    files so everything else can be compared across reruns)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if matrix is not None:
        activities = matrix.activities
        header = "predicted," + ",".join(f"true_a{a}" for a in activities)
        lines = [header]
        for row in matrix.rows():
            label = f"a{row}" if row != UNCLASSIFIED else "unclassified"
            cells = ",".join(f"{matrix.rate(row, true):.6f}" for true in activities)
            lines.append(f"{label},{cells}")
        path = out / "confusion.csv"
        _write(path, "\n".join(lines) + "\n")
        written.append(path)
        payload = {
            "counts": {
                f"a{row}" if row else "unclassified": {
                    f"a{true}": matrix.count(row, true) for true in activities
                }
                for row in matrix.rows()
            },
            "column_totals": {f"a{a}": matrix.column_total(a) for a in activities},
            "diagonal": {f"a{a}": round(matrix.rate(a, a), 6) for a in activities},
            "reference_diagonal": {f"a{a}": REFERENCE_DIAGONAL.get(a, "-") for a in activities},
            "unmatched_recognitions": matrix.unmatched,
        }
        path = out / "confusion.json"
        _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)

    if f1 is not None:
        lines = ["activity,f1,reference_f1,difference"]
        for activity in sorted(f1.keys() | set(ACTIVITIES)):
            value = f1.get(activity, 0.0)
            reference = REFERENCE_F1.get(activity)
            if reference is None:
                lines.append(f"a{activity},{value:.6f},-,-")
            else:
                lines.append(f"a{activity},{value:.6f},{reference:.2f},{value - reference:+.6f}")
        path = out / "fmeasure.csv"
        _write(path, "\n".join(lines) + "\n")
        written.append(path)

    if delays is not None:
        lines = ["activity,delayed,total,max_s,avg_s"]
        for activity, stat in sorted(delays.items()):
            max_s = f"{stat.max_s:.2f}" if stat.max_s is not None else "-"
            mean_s = f"{stat.mean_s:.2f}" if stat.mean_s is not None else "-"
            lines.append(f"a{activity},{stat.delayed},{stat.total},{max_s},{mean_s}")
        path = out / "delay.csv"
        _write(path, "\n".join(lines) + "\n")
        written.append(path)

    if telemetry is not None:
        for node in telemetry.nodes():
            points = telemetry.series[node]
            path = out / f"telemetry_{node}.tsv"
            _write(
                path,
                "time_ms\taxiom_count\n"
                + "".join(f"{p.time_ms}\t{p.axiom_count}\n" for p in points),
            )
            written.append(path)
            path = out / f"timing_{node}.tsv"
            _write(
                path,
                "time_ms\teval_ns\n" + "".join(f"{p.time_ms}\t{p.eval_ns}\n" for p in points),
            )
            written.append(path)

    if dispatch_log:
        path = out / "dispatch.log"
        _write(path, dispatch_log)
        written.append(path)

    if params is not None:
        path = out / "params.json"
        _write(path, json.dumps(dict(params), indent=2, sort_keys=True) + "\n")
        written.append(path)

    if summary is not None:
        path = out / "summary.json"
        _write(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
        written.append(path)

    return written


def parse_dispatch_log(text: str) -> list[Recognition]:
    """Extract (activity, time) recognitions from a rendered dispatch log:
    the ``activity=`` and ``at=`` fields of each recognition entry's detail,
    whatever the entry's name."""
    out: list[Recognition] = []
    for line in text.splitlines():
        parts = line.split("\t", 3)
        if len(parts) != 4 or parts[1] != "recognition":
            continue
        fields = dict(token.split("=", 1) for token in parts[3].split() if "=" in token)
        try:
            out.append((int(fields["activity"]), int(fields["at"])))
        except (KeyError, ValueError):
            continue
    return out
