"""The benchmark's traffic replays to the same bytes.

The first seed-1 participant of each workload in ``benchmarks/workloads.py``
(loaded by path, so the benchmark stays as it is) is replayed through the
shipped scenario, and SHA-256 digests of its dispatch log, its recognitions
and its last bindings are compared with digests recorded before the
store's write templates and membership memo went in.  The digest of its
telemetry axiom series (each node's time and axiom count per record, the
numbers ``telemetry_<node>.tsv`` reports) was recorded before evaluations
began to skip a match on unchanged input.  A change that keeps behaviour
keeps these bytes.
"""

import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from fluentnet import ingest, procedures

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"

# workload -> (log, recognitions, last bindings, telemetry axiom series) digests
EXPECTED = {
    "sessions": (
        "c8ea3245b4378a170cba7fd87fde6aedbb1bc8406d3866caae386bf3d14ab54f",
        "5fb160d762e80ef87a8d538147a16ec09d331beedecd09ebc8c3483804dc89fe",
        "5df6a09e8a686efc9f622642f2474273e2a5c2ea32b203fcc79ee8b7826c6f32",
        "242f4b254db5e7e0e2dccea62aa14871c29dab5c3d3b6b66f8872ee45d2145bf",
    ),
    "spatial_sweep": (
        "87ddebd9ed8eac0b6ba651c46862569ff2bbf1312cbea4c4e038f1d160c2e3e7",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "adc509ded48924ffd433310b345d7e231675b7c65ed340a3adab0aa5963ca7e5",
    ),
    "append_growth": (
        "e2a87e7e20cab02ac427f58f36c3cc595288f25f3939effb86e7c6c33e1c3445",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "75e82cea153d83c18b92cacb5cc1b26904012a6ef5651f69a46e65c42654a085",
    ),
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_first_seed_1_participant_replays_to_the_same_bytes(scenario, workloads, workload):
    lines = workloads.generate(workload, 1)[0]
    load = ingest.load_trace(io.StringIO("\n".join(lines) + "\n"), **scenario.load_trace_kwargs())
    result = procedures.run_replay(load.events, participant="p01", scenario=scenario)
    assert result.events_replayed == len(lines) and not result.warnings
    telemetry = result.telemetry
    axioms = [(node, [(p.time_ms, p.axiom_count) for p in telemetry.series[node]]) for node in telemetry.nodes()]
    digests = (
        sha256(result.log_text),
        sha256(repr(result.recognitions)),
        sha256(repr(sorted(result.last_bindings.items()))),
        sha256(repr(axioms)),
    )
    assert digests == EXPECTED[workload]
