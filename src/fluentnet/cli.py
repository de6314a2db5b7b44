"""Command line: replay traces, check models, score logs, explain models.

``replay`` runs one network per trace file (one participant each), writes a
dispatch log and telemetry per participant, and aggregates the confusion
matrix, F-measure and delay tables over all of them.  ``check-models``
builds the scenario's network once, as a replay does, and runs the bundled
golden traces, skipping an activity that no bundled case fits.  ``score``
re-scores previously written dispatch logs offline.  ``explain`` renders a
model's canonical text, its plain-language sentence and, given a bindings
dump from a replay, the last matched bindings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import dsl, golden, ingest, metrics, procedures
from .modelio import ConfigError
from .network import BootstrapError, bootstrap


def _load_params(path: Optional[str]) -> Optional[dict[str, int]]:
    """A ``--params`` file: one JSON object of integer parameter values."""
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--params {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"--params {path}: expected a JSON object")
    params: dict[str, int] = {}
    for name, value in raw.items():
        text = str(value) if isinstance(value, (int, str)) and not isinstance(value, bool) else ""
        try:
            params[name] = int(text)
        except ValueError:
            raise ConfigError(
                f"--params {path}: {name!r} must be an integer, found {value!r}"
            ) from None
    return params


def _load_bindings(path: str) -> dict:
    """An ``explain --bindings`` file: the JSON object replay writes, one
    entry per activity index."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            dump = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--bindings {path}: {exc}") from None
    if not isinstance(dump, dict):
        raise ConfigError(f"--bindings {path}: expected a JSON object")
    return dump


def _grace_ms(text: str) -> int:
    try:
        grace = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grace must be an integer, got {text}") from None
    if grace < 0:
        raise argparse.ArgumentTypeError(f"grace must be >= 0, got {text}")
    return grace


def _positive_speed(text: str) -> float:
    speed = float(text)
    if not speed > 0:
        raise argparse.ArgumentTypeError(f"speed must be > 0, got {text}")
    return speed


def _load_trace(trace_path: str, scenario: procedures.Scenario) -> tuple[str, ingest.TraceLoad]:
    """One participant's trace, named by its file stem; the warnings of
    loading it go to stderr."""
    path = Path(trace_path)
    load = ingest.load_trace(path, **scenario.load_trace_kwargs())
    for warning in load.warnings:
        print(f"{path.stem}: {warning}", file=sys.stderr)
    return path.stem, load


def _rebase_truth(load: ingest.TraceLoad, base_ms: int) -> list[ingest.Interval]:
    return [
        ingest.Interval(i.activity, i.start_ms - base_ms, i.end_ms - base_ms)
        for i in load.intervals
    ]


def cmd_replay(args: argparse.Namespace) -> int:
    config_dir = Path(args.config) if args.config else None
    params = _load_params(args.params)
    scenario = procedures.load_scenario(config_dir=config_dir, params=params)
    out_dir = Path(args.out)
    truth = ingest.GroundTruth()
    recognitions: dict[str, list[tuple[int, int]]] = {}
    telemetry = metrics.Telemetry()
    total_events = 0
    warnings = 0

    for trace_path in args.trace:
        participant, load = _load_trace(trace_path, scenario)
        if not load.events:
            print(f"{participant}: empty trace, skipped", file=sys.stderr)
            continue
        result = procedures.run_replay(
            load.events,
            participant=participant,
            scenario=scenario,
            speed=args.speed,
            pure_virtual=not args.wall,
        )
        recognitions[participant] = result.recognition_pairs()
        for interval in _rebase_truth(load, result.base_ms):
            truth.add(participant, interval)
        for node, points in result.telemetry.series.items():
            for point in points:
                telemetry.record(
                    f"{node}@{participant}", point.time_ms, point.axiom_count, point.eval_ns
                )
        participant_dir = out_dir / participant
        participant_dir.mkdir(parents=True, exist_ok=True)
        metrics.emit_report(
            participant_dir,
            telemetry=result.telemetry,
            dispatch_log=result.log_text,
            summary={
                "participant": participant,
                "events": result.events_replayed,
                "recognitions": len(result.recognitions),
                "base_ms": result.base_ms,
                "warnings": result.warnings,
            },
        )
        bindings_path = participant_dir / "bindings.json"
        with open(bindings_path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(
                {
                    str(activity): {var: value for var, value in binding}
                    for activity, binding in sorted(result.last_bindings.items())
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        total_events += result.events_replayed
        warnings += len(result.warnings)
        print(
            f"{participant}: {result.events_replayed} events, "
            f"{len(result.recognitions)} recognitions"
        )

    matrix = metrics.score(recognitions, truth, grace_ms=args.grace)
    f1 = metrics.f_measure(matrix)
    delays = metrics.delay_stats(recognitions, truth, grace_ms=args.grace)
    metrics.emit_report(
        out_dir,
        matrix=matrix,
        f1=f1,
        delays=delays,
        telemetry=telemetry,
        params=scenario.params(),
        summary={
            "participants": sorted(recognitions),
            "events": total_events,
            "warnings": warnings,
            "grace_ms": args.grace,
            "speed": args.speed,
            "pure_virtual": not args.wall,
        },
    )
    print(f"report written to {out_dir}")
    return 0


def cmd_check_models(args: argparse.Namespace) -> int:
    config_dir = Path(args.config) if args.config else None
    scenario = procedures.load_scenario(config_dir=config_dir, params=_load_params(args.params))
    # every store model is written once, as a replay writes it, so a model
    # line that cannot be written fails here too
    bootstrap(scenario.model, store_models=scenario.store_models)
    ran = failures = 0
    for outcome in golden.run_golden_suite(scenario):
        if outcome.passed is None:
            print(f"[skip] a{outcome.activity}: {outcome.detail}")
            continue
        status = "ok" if outcome.passed else "FAIL"
        print(f"[{status}] a{outcome.activity} {outcome.case}: {outcome.detail}")
        ran += 1
        failures += 0 if outcome.passed else 1
    print(f"{ran - failures}/{ran} cases passed")
    return 0 if failures == 0 else 1


def cmd_score(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    scenario = procedures.load_scenario(config_dir=Path(args.config) if args.config else None)
    truth = ingest.GroundTruth()
    recognitions: dict[str, list[tuple[int, int]]] = {}
    for trace_path in args.trace:
        participant, load = _load_trace(trace_path, scenario)
        if not load.events:
            continue
        for interval in _rebase_truth(load, procedures.rebase_offset(load.events)):
            truth.add(participant, interval)
        log_path = run_dir / participant / "dispatch.log"
        if not log_path.exists():
            print(f"{participant}: no dispatch log under {run_dir}", file=sys.stderr)
            recognitions[participant] = []
            continue
        recognitions[participant] = metrics.parse_dispatch_log(
            log_path.read_text(encoding="utf-8")
        )
    matrix = metrics.score(recognitions, truth, grace_ms=args.grace)
    metrics.emit_report(
        Path(args.out),
        matrix=matrix,
        f1=metrics.f_measure(matrix),
        delays=metrics.delay_stats(recognitions, truth, grace_ms=args.grace),
        summary={"participants": sorted(recognitions), "grace_ms": args.grace},
    )
    print(f"report written to {args.out}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    config_dir = Path(args.config) if args.config else None
    scenario = procedures.load_scenario(config_dir=config_dir, params=_load_params(args.params))
    wanted = args.model.upper()
    binding = next(
        (b for b in scenario.bindings.values() if b.ast.name.upper() == wanted),
        None,
    )
    if binding is None:
        print(f"unknown model {args.model!r}; shipped: "
              + ", ".join(scenario.bindings[i].ast.name for i in sorted(scenario.bindings)),
              file=sys.stderr)
        return 2
    print(dsl.format_model(binding.ast).rstrip("\n"))
    print()
    print(dsl.render_sentence(binding.ast))
    print()
    print(f"activity {binding.index}: {binding.label}")
    print(f"node {binding.node}; sensors {', '.join(binding.sensor_ids)}")
    for prepass in binding.compiled.prepasses:
        print(
            f"pre-pass: {prepass.derived_concept} when >= {prepass.min_count} "
            f"{prepass.source_concept} statements span >= {prepass.window_ms} ms"
        )
    for rule in binding.compiled.rules:
        print(f"rule {rule.name}: {len(rule.body)} atoms, head at {rule.head.time}")
    if args.bindings:
        entry = _load_bindings(args.bindings).get(str(binding.index))
        if entry:
            print("last matched binding:")
            for var, value in sorted(entry.items()):
                print(f"  {var} = {value}")
        else:
            print("no recorded binding for this model in the dump")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluentnet",
        description="Replay sensor traces through the activity-recognition network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser("replay", help="replay trace files and emit reports")
    replay.add_argument("--config", help="scenario directory (default: bundled)")
    replay.add_argument("--trace", nargs="+", required=True, help="trace file(s), one per participant")
    replay.add_argument("--speed", type=_positive_speed, default=1.0,
                        help="wall-clock speed factor, > 0; only matters with --wall")
    replay.add_argument("--wall", action="store_true",
                        help="pace replay against the wall clock (default: as fast as possible)")
    replay.add_argument("--params", help="JSON file overriding model parameters")
    replay.add_argument("--out", required=True, help="report directory")
    replay.add_argument("--grace", type=_grace_ms, default=metrics.DEFAULT_GRACE_MS,
                        help="grace window (ms), >= 0, when matching recognitions to truth")
    replay.set_defaults(func=cmd_replay)

    check = sub.add_parser("check-models", help="run the bundled golden traces")
    check.add_argument("--config", help="scenario directory (default: bundled)")
    check.add_argument("--params", help="JSON file overriding model parameters")
    check.set_defaults(func=cmd_check_models)

    scorer = sub.add_parser("score", help="score previously written dispatch logs")
    scorer.add_argument("--config", help="scenario directory (default: bundled)")
    scorer.add_argument("--run-dir", required=True, help="replay output directory")
    scorer.add_argument("--trace", nargs="+", required=True, help="the trace files replayed")
    scorer.add_argument("--grace", type=_grace_ms, default=metrics.DEFAULT_GRACE_MS,
                        help="grace window (ms), >= 0")
    scorer.add_argument("--out", required=True, help="report directory")
    scorer.set_defaults(func=cmd_score)

    explain = sub.add_parser("explain", help="describe a shipped model")
    explain.add_argument("--config", help="scenario directory (default: bundled)")
    explain.add_argument("--params", help="JSON file overriding model parameters")
    explain.add_argument("--model", required=True, help="model name, e.g. A3")
    explain.add_argument("--bindings", help="bindings.json written by replay")
    explain.set_defaults(func=cmd_explain)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BootstrapError, dsl.DslError, ingest.TraceParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
