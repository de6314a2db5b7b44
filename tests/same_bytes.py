"""One SHA-256 per benchmark workload and seed over what its replays write.

Every participant of a workload (generated by ``benchmarks/workloads.py``,
loaded by path so the benchmark stays as it is) is replayed through the
shipped scenario.  The workload's digest covers, participant after
participant, the SHA-256 of the dispatch log, of the recognitions, of the
last bindings and of the telemetry axiom series (each node's time and
axiom count per record, the numbers ``telemetry_<node>.tsv`` reports).
The synthetic session of ``tests/synth.py`` gets one digest the same way.
A second digest per workload and seed covers what ``ingest.load_trace``
loads, participant after participant: every event's fields and every
annotation interval, so a parsing change that moves a reading or an
annotation shows here and not only through the replays.
A change that keeps behaviour keeps every digest; ``tests/test_same_bytes.py``
pins them.

Run from the repository root with any interpreter the package supports::

    python3 tests/same_bytes.py

It prints one line per workload and seed, ``WORKLOAD SEED DIGEST
LOAD_DIGEST``, then ``synthetic - DIGEST``.  It needs only the standard
library, so the lines can be compared across interpreters.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "benchmarks" / "workloads.py"
WORKLOADS = ("sessions", "spatial_sweep", "append_growth")
SEEDS = (1, 9)

if __name__ == "__main__":  # run as a script: find the package beside the tests
    sys.path.insert(0, str(ROOT / "src"))

from fluentnet import ingest, procedures  # noqa: E402

import synth  # noqa: E402


def load_workloads():
    """``benchmarks/workloads.py`` as a module of its own."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay_digests(scenario: procedures.Scenario, text: str, participant: str) -> tuple[str, str, str, str]:
    """The digests of one replay's dispatch log, recognitions, last
    bindings and telemetry axiom series."""
    load = ingest.load_trace(io.StringIO(text), **scenario.load_trace_kwargs())
    result = procedures.run_replay(load.events, participant=participant, scenario=scenario)
    telemetry = result.telemetry
    axioms = [(node, [(p.time_ms, p.axiom_count) for p in telemetry.series[node]]) for node in telemetry.nodes()]
    return (
        sha256(result.log_text),
        sha256(repr(result.recognitions)),
        sha256(repr(sorted(result.last_bindings.items()))),
        sha256(repr(axioms)),
    )


def digest(scenario: procedures.Scenario, texts: list[str]) -> str:
    """One SHA-256 over every participant's replay digests, in order."""
    combined = hashlib.sha256()
    for number, text in enumerate(texts, start=1):
        for part in replay_digests(scenario, text, f"p{number:02d}"):
            combined.update(part.encode("ascii") + b"\n")
    return combined.hexdigest()


def workload_digest(scenario: procedures.Scenario, workloads, workload: str, seed: int) -> str:
    return digest(scenario, ["\n".join(lines) + "\n" for lines in workloads.generate(workload, seed)])


def load_digest(scenario: procedures.Scenario, workloads, workload: str, seed: int) -> str:
    """One SHA-256 over every participant's loaded events and intervals,
    in order."""
    combined = hashlib.sha256()
    for lines in workloads.generate(workload, seed):
        load = ingest.load_trace(io.StringIO("\n".join(lines) + "\n"), **scenario.load_trace_kwargs())
        events = [(e.time_ms, e.sensor, e.value, e.activity, e.marker) for e in load.events]
        intervals = [(i.activity, i.start_ms, i.end_ms) for i in load.intervals]
        combined.update(f"{sha256(repr(events))}\n{sha256(repr(intervals))}\n".encode("ascii"))
    return combined.hexdigest()


def synthetic_digest(scenario: procedures.Scenario) -> str:
    return digest(scenario, [synth.session_text()])


def main() -> None:
    scenario = procedures.load_scenario()
    workloads = load_workloads()
    for workload in WORKLOADS:
        for seed in SEEDS:
            print(
                workload,
                seed,
                workload_digest(scenario, workloads, workload, seed),
                load_digest(scenario, workloads, workload, seed),
            )
    print("synthetic", "-", synthetic_digest(scenario))


if __name__ == "__main__":
    main()
