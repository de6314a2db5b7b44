"""The reach ledger: every function in ``src/fluentnet`` that no command
enters, and why it stays.

The test runs the four commands on the synthetic session in-process under
``sys.setprofile``: ``replay`` with ``--params``, ``--grace`` and
``--speed``, then ``check-models``, ``score``, and ``explain --bindings``
for each of the eight models.  It lists every ``def`` in the package with
:mod:`ast`, as ``module.Qualname``, and asserts that the ones never entered
are exactly the keys of :data:`UNREACHED`.  A change that leaves a
function unreached names it there with its reason; one that makes a
listed function reachable, or deletes it, takes it out.
"""

import ast
import json
import sys
from pathlib import Path

import synth
import fluentnet
from fluentnet import cli

SRC = Path(fluentnet.__file__).resolve().parent

TRACED = "benchmarks/tracing.py patches it or reads it"
BENCHMARK = "the benchmark reaches it: benchmarks/run.py iterates the dispatch log, and the set-up probe bootstraps without implementations"
COUNTER = "a work counter, whose reader is ROADMAP item 4"
ABC = "an abstract method of its collections.abc base"
MALFORMED = "raised only on malformed input"
ALGEBRA = "the statement algebra, whose fate is ROADMAP item 8"
REMOVAL = "the tests' way into the store's removal path"
SNAPSHOT_READ = "the snapshot read the oracles check the stores against"
FROZEN = "a record's frozen guard, which raises on the assignments only the tests make"

UNREACHED = {
    "context.ContextStore.fixpointed": COUNTER,
    "context.ContextStore.index_work": COUNTER,
    "context.ContextStore.reclassified": COUNTER,
    "network.RuntimeNetwork.evaluated": COUNTER,
    "procedures.Evaluator.skipped": COUNTER,
    "rules.RuleEngine.examined": COUNTER,
    "context.ContextStore.infer_person_context": TRACED,
    "context.ContextStore.query_instances": TRACED,
    "rules.RuleEngine.evaluate": TRACED,
    "context.Snapshot.instances": TRACED,
    "network.DispatchLog.__iter__": BENCHMARK,
    "network._entry": BENCHMARK,
    "network._noop": BENCHMARK,
    "network.DispatchLog.__getitem__": ABC,
    "network.DispatchLog.__len__": ABC,
    "metrics._Series.__len__": ABC,
    "dsl.ParseError.__init__": MALFORMED,
    "ingest.TraceParseError.__init__": MALFORMED,
    "context.ContextStore.remove_instance": REMOVAL,
    "context.Snapshot.classification": SNAPSHOT_READ,
    "context.StoreInstance.__setattr__": FROZEN,
    "statements.Statement.__post_init__": ALGEBRA,
    "statements.StatementSet.__init__": ALGEBRA,
    "statements.StatementSet.members": ALGEBRA,
    "statements.StatementSet.__iter__": ALGEBRA,
    "statements.StatementSet.__len__": ALGEBRA,
    "statements.StatementSet.__contains__": ALGEBRA,
    "statements.StatementSet.__eq__": ALGEBRA,
    "statements.StatementSet.__hash__": ALGEBRA,
    "statements.StatementSet.__repr__": ALGEBRA,
    "statements.StatementSet.ids": ALGEBRA,
    "statements.sort_key": ALGEBRA,
    "statements.apply_logical": ALGEBRA,
    "statements.apply_precedence": ALGEBRA,
    "statements.apply_state_mask": ALGEBRA,
    "statements.shift_time": ALGEBRA,
    "statements.convolve": ALGEBRA,
    "statements.convolve_at_least": ALGEBRA,
    "statements.aggregate": ALGEBRA,
}


def defined_functions():
    """Every ``def`` in the package: ``module.Qualname`` -> (file, qualname)."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                found[f"{path.stem}.{qualname}"] = (path, qualname)
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def run_commands(tmp_path, params):
    """Each command's exit code, and the (file, qualname) of every Python
    function entered while they ran."""
    trace = tmp_path / "p01.txt"
    trace.write_text(synth.session_text(), encoding="utf-8")
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params), encoding="utf-8")
    run, scored = tmp_path / "run", tmp_path / "scored"
    commands = [
        ["replay", "--trace", str(trace), "--out", str(run), "--params", str(params_path),
         "--grace", "15000", "--speed", "2"],
        ["check-models"],
        ["score", "--run-dir", str(run), "--trace", str(trace), "--out", str(scored)],
    ] + [
        ["explain", "--model", f"A{i}", "--bindings", str(run / "p01" / "bindings.json")]
        for i in range(1, 9)
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in commands:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(previous)
    return codes, {(Path(filename).resolve(), qualname) for filename, qualname in entered}


def test_every_unreached_function_is_in_the_ledger(tmp_path, scenario):
    codes, entered = run_commands(tmp_path, scenario.params())
    assert codes == [0] * 11
    unreached = [name for name, function in defined_functions().items() if function not in entered]
    assert sorted(unreached) == sorted(UNREACHED)
