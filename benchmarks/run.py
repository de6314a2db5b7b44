"""Replay benchmark: seeded sensor traces through the public pipeline.

Usage, from the repository root:

    python3 benchmarks/run.py --workload sessions --seed 1 --seconds 30 --trace 0

A run generates its workload from ``--seed`` (see ``workloads.py``), times
set-up in fresh processes (``setup_probe.py``), then repeats the workload
for ``--seconds`` seconds: every participant through
``ingest.load_trace`` -> ``procedures.run_replay``, then
``metrics.score``/``f_measure``.  The load is one closed loop on one
thread: pure-virtual replay hands over the next reading as soon as the
previous one is done.  Every repeat's outputs are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 when a check failed.

``--trace 0`` reports the end-to-end metrics with no tracing in place.
``--trace 1`` alternates untraced repeats with traced ones (``tracing.py``)
and reports per-layer self times and counters, the coverage of the traced
time by the layers' spans, and the traced/untraced throughput ratio; the
first traced repeat's spans go to ``benchmarks/out/``.

Times are scaled to a reference host speed (see :class:`Repeats`).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

try:
    import fluentnet
    from fluentnet import ingest, metrics, network, procedures
except ImportError as exc:
    raise SystemExit(f"benchmark: cannot import the program from {SRC}: {exc}")
if Path(fluentnet.__file__).resolve().parent != (SRC / "fluentnet").resolve():
    raise SystemExit(f"benchmark: fluentnet imported from {fluentnet.__file__}, not from {SRC}")

import tracing  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402

MIN_REPEATS = 3
# Fresh interpreters whose first set-up gives the ``setup_s`` samples.
SETUP_PROCESSES = 7
CALIBRATION_LOOPS = 30_000
# The calibration loop's time on an undisturbed CPU of the reference host
# (a 2-vCPU Xeon virtual machine); times are reported at this speed.
REFERENCE_MS = 3.5
OUT_DIR = BENCH_DIR / "out"

END_TO_END_UNITS = {
    "events_per_s": "events/s",
    "event_latency_p50_ms": "ms",
    "event_latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# Span names reported as self time per repeat (ms).
LAYER_TIMES = (
    "ingest.load_trace",
    "context.classify",
    "context.assert_statement",
    "context.infer_person_context",
    "context.snapshot",
    "context.query_instances",
    "rules.evaluate",
    "network.pending_until",
    "network.note_mutation",
    "network.evaluate_condition",
    "network.notify_sync",
    "network.run_procedure",
    "network.bootstrap",
    "procedures.replay_step",
    "procedures.importer",
    "procedures.evaluator",
    "procedures.prepass",
    "metrics.telemetry_record",
    "metrics.score",
)
SETUP_LAYER_TIMES = ("dsl.parse_model", "dsl.compile_model")
NODES = ("L", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
# Deterministic counters per repeat; every traced repeat must agree.
COUNTERS = (
    "context.classify_calls",
    "context.classify_recomputes",
    "context.assert_statement_calls",
    "context.snapshot_instances",
    "context.clear_statements_calls",
    *(f"context.peak_instances.{node}" for node in NODES),
    "rules.evaluate_calls",
    "rules.derived",
    "rules.builtin_calls",
    "rules.snapshot_lookups",
    "network.note_mutation_calls",
    "network.conditions_sampled",
    "network.condition_flips",
    "network.flip_ratio",
    "network.events_fired",
    "network.procedures_run",
    "procedures.imported_statements",
    "procedures.evaluations",
    "procedures.recognitions",
    "procedures.recognition_ratio",
)


# --------------------------------------------------------------------------
# One repeat: every participant replayed once, then scored

@dataclass
class Iteration:
    participant_ns: list[int]  # load_trace + run_replay, per participant
    score_ns: int  # score + f_measure
    readings: int
    results: list[procedures.RunResult]
    truth: ingest.GroundTruth
    matrix: metrics.ConfusionMatrix
    f1: dict[int, float]

    @property
    def wall_ns(self) -> int:
        return sum(self.participant_ns) + self.score_ns

    def digests(self) -> list[str]:
        return [hashlib.sha256(r.log_text.encode("utf-8")).hexdigest() for r in self.results]

    def log_tally(self) -> Counter:
        """Entry kinds across the dispatch logs, plus imported statements."""
        tally: Counter = Counter()
        for result in self.results:
            for entry in result.net.log:
                tally[entry.kind] += 1
                if entry.kind == "import":
                    tally["imported"] += int(entry.detail.removeprefix("count="))
        return tally


def replay(
    scenario: procedures.Scenario,
    texts: list[str],
    pause: Callable[[str], None] = lambda slot: None,
) -> Iteration:
    """Load, replay and score every participant once.  ``pause`` runs
    outside the timed spans, before each participant (with its label),
    before scoring (``"score"``) and after it (``"end"``)."""
    results: list[procedures.RunResult] = []
    participant_ns: list[int] = []
    truth = ingest.GroundTruth()
    recognitions: dict[str, list[tuple[int, int]]] = {}
    for index, text in enumerate(texts):
        participant = f"p{index + 1:02d}"
        pause(participant)
        started = perf_counter_ns()
        load = ingest.load_trace(io.StringIO(text), **scenario.load_trace_kwargs())
        result = procedures.run_replay(load.events, participant=participant, scenario=scenario)
        participant_ns.append(perf_counter_ns() - started)
        for interval in load.intervals:
            truth.add(
                participant,
                ingest.Interval(
                    interval.activity,
                    interval.start_ms - result.base_ms,
                    interval.end_ms - result.base_ms,
                ),
            )
        recognitions[participant] = result.recognition_pairs()
        results.append(result)
    pause("score")
    started = perf_counter_ns()
    matrix = metrics.score(recognitions, truth)
    f1 = metrics.f_measure(matrix)
    score_ns = perf_counter_ns() - started
    pause("end")
    readings = sum(r.events_replayed for r in results)
    return Iteration(participant_ns, score_ns, readings, results, truth, matrix, f1)


def check(workload: str, texts: list[str], iteration: Iteration) -> list[str]:
    """Output checks; returns one message per failed check."""
    failures: list[str] = []
    for text, result in zip(texts, iteration.results):
        expected = text.count("\n")
        if result.events_replayed != expected or result.warnings:
            failures.append(
                f"{result.participant}: replayed {result.events_replayed} of {expected} "
                f"readings, warnings {result.warnings}"
            )
    tally = iteration.log_tally()
    if tally["error"]:
        failures.append(f"{tally['error']} error entries in the dispatch logs")
    if workload == "sessions":
        wrong = {a: f for a, f in iteration.f1.items() if f != 1.0}
        if wrong:
            failures.append(f"F-measure below 1.0: {wrong}")
        if iteration.matrix.unmatched:
            failures.append(f"{iteration.matrix.unmatched} unmatched recognitions")
    elif tally["recognition"]:
        failures.append(f"{tally['recognition']} recognitions, expected none")
    return failures


# --------------------------------------------------------------------------
# Measurements

def measure_setup() -> tuple[procedures.Scenario, float]:
    """What a user pays before the first reading: load the scenario and
    bootstrap its network once.  Returns the scenario and the seconds."""
    started = perf_counter_ns()
    scenario = procedures.load_scenario()
    network.bootstrap(scenario.model, base_dir=scenario.base_dir)
    return scenario, (perf_counter_ns() - started) / 1e9


def setup_samples() -> list[float]:
    """The first set-up of each of ``SETUP_PROCESSES`` fresh interpreters
    (``setup_probe.py``), in seconds scaled to the reference host speed by
    the calibrations the probe times just before and after it.  Only a
    process's first set-up counts: that is what a user pays, and no state
    kept in the program's modules can carry over from one probe to the
    next."""
    samples: list[float] = []
    for _ in range(SETUP_PROCESSES):
        probe = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py")],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        before_ms, seconds, after_ms = map(float, probe.stdout.split())
        samples.append(seconds * 2 * REFERENCE_MS / (before_ms + after_ms))
    return samples


def timed_iteration(
    scenario: procedures.Scenario,
    texts: list[str],
    pause: Callable[[str], None] = lambda slot: None,
) -> tuple[Iteration, list[array]]:
    """One untraced repeat, plus each reading's service time (ns) per
    participant.  The only hook records when each reading enters
    ``Replayer.replay_step``; a reading's service time runs to the next
    entry, or for the last reading to the return of ``run_replay``."""
    marks: list[array] = []
    original_step = procedures.Replayer.replay_step
    original_run = procedures.run_replay

    def replay_step(self, net, event):
        marks[-1].append(perf_counter_ns())
        return original_step(self, net, event)

    def run_replay(*args, **kwargs):
        marks.append(array("q"))
        result = original_run(*args, **kwargs)
        marks[-1].append(perf_counter_ns())
        return result

    procedures.Replayer.replay_step = replay_step
    procedures.run_replay = run_replay
    try:
        iteration = replay(scenario, texts, pause)
    finally:
        procedures.Replayer.replay_step = original_step
        procedures.run_replay = original_run
    service = [array("q", (b - a for a, b in zip(stamps, stamps[1:]))) for stamps in marks]
    return iteration, service


def calibration_ms() -> float:
    """Time a fixed pure-Python loop of dict reads and writes.  It creates
    no object the garbage collector tracks, so the program's heap cannot
    change its time; only the host's speed can."""
    started = perf_counter_ns()
    table = dict.fromkeys(range(256), 0)
    total = 0
    for i in range(CALIBRATION_LOOPS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total ^= key
    return (perf_counter_ns() - started) / 1e6


class Repeats:
    """Times of every repeat, scaled to the reference host speed.

    Other work on a shared host slows this process by up to 1.8x, for
    stretches from a fraction of a second to tens of seconds.  The
    calibration loop runs in every pause, so each participant, its readings
    and the scoring are scaled by ``REFERENCE_MS`` over the mean of the
    calibrations on either side.
    """

    def __init__(self) -> None:
        self.count = 0
        self.readings = 0
        self._calibrations: list[float] = []
        self.participant_ms: list[list[float]] = []  # [repeat][participant]
        self.score_ms: list[float] = []
        self.service_ms: list[array] = []  # [repeat][reading]

    def calibrate(self) -> None:
        self._calibrations.append(calibration_ms())

    def add(self, iteration: Iteration, service_ns: list[array]) -> None:
        calibrations, self._calibrations = self._calibrations, []
        scale = [2 * REFERENCE_MS / (a + b) for a, b in zip(calibrations, calibrations[1:])]
        self.readings = iteration.readings
        self.participant_ms.append([ns / 1e6 * k for ns, k in zip(iteration.participant_ns, scale)])
        self.score_ms.append(iteration.score_ns / 1e6 * scale[-1])
        samples = array("d")
        for series, k in zip(service_ns, scale):
            samples.extend(ns / 1e6 * k for ns in series)
        self.service_ms.append(samples)
        self.count += 1

    def events_per_s(self) -> float:
        """Readings over the sum of each participant's median time, plus
        the median scoring time."""
        total_ms = sum(map(statistics.median, zip(*self.participant_ms)))
        return self.readings / ((total_ms + statistics.median(self.score_ms)) / 1e3)

    def latency_ms(self, share: float) -> float:
        """Percentile over readings of each reading's median service time
        over repeats.

        Preemption by other work on a shared host lands on about one reading
        in a hundred of any repeat, so a percentile over the raw samples
        measures the host: on ``spatial_sweep`` the raw p99 ranged from 0.49
        to 0.63 ms between processes replaying identical input, against 0.46
        to 0.50 ms here.  The price is that a stall which hits different
        readings in different repeats, such as a garbage collection, shows
        only through ``events_per_s``."""
        return percentile([statistics.median(times) for times in zip(*self.service_ms)], share)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


# --------------------------------------------------------------------------
# Reporting

class Checker:
    """Runs the checks on every repeat and compares its dispatch-log
    digests with the first repeat's."""

    def __init__(self, workload: str, texts: list[str]) -> None:
        self.workload = workload
        self.texts = texts
        self.digests: Optional[list[str]] = None
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, iteration: Iteration, label: str) -> None:
        for message in check(self.workload, self.texts, iteration):
            self.failures.append(f"{label}: {message}")
        digests = iteration.digests()
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = [i + 1 for i, (a, b) in enumerate(zip(self.digests, digests)) if a != b]
            self.failures.append(f"{label}: dispatch logs differ from the first repeat for {changed}")
        tally = iteration.log_tally()
        self.attempted += tally["procedure"]
        self.failed += tally["error"]


def run_timed(seconds: float, texts: list[str], checker: Checker) -> dict:
    """Time set-up in fresh processes, then repeat the workload for
    ``seconds``."""
    setup_s = setup_samples()
    scenario, _ = measure_setup()
    repeats = Repeats()
    tally: Counter = Counter()
    budget_ns = seconds * 1_000_000_000
    started = perf_counter_ns()
    while repeats.count < MIN_REPEATS or perf_counter_ns() - started < budget_ns:
        iteration, service = timed_iteration(scenario, texts, lambda slot: repeats.calibrate())
        checker(iteration, f"repeat {repeats.count + 1}")
        repeats.add(iteration, service)
        tally.update(iteration.log_tally())
        del iteration  # hold one repeat's networks at a time
    failed_share = tally["error"] / tally["procedure"]
    print(
        f"{repeats.count} repeats of {repeats.readings} readings, {len(setup_s)} set-up processes; "
        f"failed share {failed_share} ({tally['error']} errors / {tally['procedure']} procedures)"
    )
    return {
        "events_per_s": repeats.events_per_s(),
        "event_latency_p50_ms": repeats.latency_ms(0.5),
        "event_latency_p99_ms": repeats.latency_ms(0.99),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1.0 - failed_share,
        "_samples": repeats.readings,
    }


def layer_metrics(tracer: tracing.Tracer, iteration: Iteration) -> dict[str, float]:
    """One traced repeat's per-layer self times (ms) and counters."""
    out: dict[str, float] = {f"{name}_ms": tracer.self_ns[name] / 1e6 for name in LAYER_TIMES}
    calls, counts = tracer.calls, tracer.counts
    tally = iteration.log_tally()
    samples = calls["network.evaluate_condition"]
    evaluations = calls["procedures.evaluator"]
    out.update(
        {
            "context.classify_calls": calls["context.classify"],
            "context.classify_recomputes": counts["context.classify_recomputes"],
            "context.assert_statement_calls": calls["context.assert_statement"],
            "context.snapshot_instances": counts["context.snapshot_instances"],
            "context.clear_statements_calls": calls["context.clear_statements"],
            "rules.evaluate_calls": calls["rules.evaluate"],
            "rules.evaluate_max_ms": tracer.max_ns["rules.evaluate"] / 1e6,
            "rules.derived": counts["rules.derived"],
            "rules.builtin_calls": counts["rules.builtin_calls"],
            "rules.snapshot_lookups": counts["rules.snapshot_lookups"],
            "network.note_mutation_calls": calls["network.note_mutation"],
            "network.conditions_sampled": samples,
            "network.condition_flips": tally["condition"],
            "network.flip_ratio": tally["condition"] / samples if samples else 0.0,
            "network.events_fired": tally["event"],
            "network.procedures_run": tally["procedure"],
            "procedures.imported_statements": tally["imported"],
            "procedures.evaluations": evaluations,
            "procedures.recognitions": tally["recognition"],
            "procedures.recognition_ratio": tally["recognition"] / evaluations if evaluations else 0.0,
        }
    )
    for node in NODES:
        out[f"context.peak_instances.{node}"] = tracer.peak_instances.get(node, 0)
    return out


def run_traced(
    workload: str, seconds: float, texts: list[str], checker: Checker, span_file: Path
) -> dict:
    """Alternate untraced and traced repeats for ``seconds``; report the
    traced repeats' per-layer self times (median) and counters (which must
    repeat exactly), with the coverage and the throughput ratio."""
    tracer = tracing.Tracer()
    tracer.begin_participant("setup")
    with tracer.installed():
        scenario, _ = measure_setup()
    setup_ms = {f"{name}_ms": tracer.self_ns[name] / 1e6 for name in SETUP_LAYER_TIMES}

    untraced, traced_repeats = Repeats(), Repeats()
    traced: list[dict[str, float]] = []

    def pause(slot: str) -> None:
        traced_repeats.calibrate()
        tracer.begin_participant(f"{workload}/{slot}")

    budget_ns = seconds * 1_000_000_000
    started = perf_counter_ns()
    while len(traced) < MIN_REPEATS or perf_counter_ns() - started < budget_ns:
        plain, service = timed_iteration(scenario, texts, lambda slot: untraced.calibrate())
        checker(plain, f"untraced repeat {untraced.count + 1}")
        untraced.add(plain, service)
        del plain

        tracer.reset()
        with tracer.installed():
            iteration = replay(scenario, texts, pause)
        checker(iteration, f"traced repeat {len(traced) + 1}")
        traced_repeats.add(iteration, [])
        layers = layer_metrics(tracer, iteration)
        layers["_self_ms"] = {name: tracer.self_ns[name] / 1e6 for name in tracer.names}
        layers["_coverage"] = sum(tracer.self_ns.values()) / iteration.wall_ns
        layers["_end_to_end_ms"] = iteration.wall_ns / 1e6
        traced.append(layers)
        del iteration
        if len(traced) == 1:  # one repeat's spans are enough to inspect
            span_count = tracer.write_spans(span_file)

    for number, layers in enumerate(traced[1:], start=2):
        changed = [n for n in COUNTERS if layers[n] != traced[0][n]]
        if changed:
            checker.failures.append(f"traced repeat {number}: counters differ: {changed}")

    def median(key: str) -> float:
        return statistics.median(layers[key] for layers in traced)

    out: dict[str, float] = {}
    for name, value in traced[0].items():
        if name in COUNTERS:
            out[name] = value
        elif not name.startswith("_"):
            out[name] = median(name)
    out.update(setup_ms)
    end_to_end_ms = out["trace.end_to_end_ms"] = median("_end_to_end_ms")
    out["trace.coverage"] = median("_coverage")
    out["trace.throughput_ratio"] = traced_repeats.events_per_s() / untraced.events_per_s()

    print(f"{len(traced)} traced repeats; the first one's {span_count} spans are in {span_file}")
    print(f"per-layer self time, ms per repeat (share of traced end to end, {end_to_end_ms:.1f} ms)")
    for name in tracer.names:
        if name in SETUP_LAYER_TIMES:
            print(f"  {name + '_ms':36s} {out[name + '_ms']:12.3f}   (set-up)")
        else:
            value = statistics.median(layers["_self_ms"][name] for layers in traced)
            print(f"  {name + '_ms':36s} {value:12.3f} {value / end_to_end_ms:7.1%}")
    print(
        f"  coverage {out['trace.coverage']:.3f} of traced end to end; "
        f"traced/untraced events/s {out['trace.throughput_ratio']:.3f}"
    )
    print("counters per repeat")
    for name in COUNTERS:
        print(f"  {name:36s} {out[name]}")
    return out


def units(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    texts = ["\n".join(lines) + "\n" for lines in workloads.generate(args.workload, args.seed)]
    checker = Checker(args.workload, texts)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(texts)} participants, "
        f"{sum(text.count(chr(10)) for text in texts)} readings"
    )
    if args.trace:
        span_file = OUT_DIR / f"spans-{args.workload}.tsv"
        values = run_traced(args.workload, args.seconds, texts, checker, span_file)
    else:
        values = run_timed(args.seconds, texts, checker)
        samples = values.pop("_samples")
        for name, value in values.items():
            suffix = f" (n={samples} per repeat)" if name.startswith("event_latency") else ""
            print(f"{name} {value} {units(name)}{suffix}")

    for participant, digest in enumerate(checker.digests or [], start=1):
        print(f"dispatch log sha256 p{participant:02d} {digest}")
    for message in checker.failures:
        print(f"CHECK FAILED: {message}")
    correct = not checker.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {n: {"value": v, "unit": units(n)} for n, v in values.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
