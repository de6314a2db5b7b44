"""Command-line surface: replay, check-models, score, explain."""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

import synth
from conftest import scenario_copy
from fluentnet import cli, procedures

SRC = str(Path(__file__).resolve().parent.parent / "src")

# SHA-256 of every report file but the wall-clock ``timing_*`` ones, written
# by ``fluentnet replay`` on ``synth.session_text()``.  Dispatch logs,
# telemetry and reports are the program's deterministic output: a change
# meant to keep behaviour must leave every digest as it is.
REPORT_DIGESTS = {
    "confusion.csv": "22ee6e3f66e843805c0ca68250adcb5a3e127ff95e10c3bb2f5dc268c4ee71c8",
    "confusion.json": "196b3a17a078a16012b04d6c73ba648fe706fe71be8e044d16d1a4383920cff3",
    "delay.csv": "7cfb782d27debc580702cfabe650f396e2e520f798d29dc1474bff985dcf50e9",
    "fmeasure.csv": "ae8bdb88000524a7ea7b7b2e7353c99be52e5e333568e208f3dfedd19ebc9ba3",
    "p01/bindings.json": "9aa362d8b23cd4c6d1ee467a9f69e6baebdf0e2fec6a28f889fcec77dac78b29",
    "p01/dispatch.log": "37f0cd003b2bd35b012ec7bf0c1f5c230be060147667db3d528469424b2595fe",
    "p01/summary.json": "ad6b6c4a624240d33df355c7d36e8659aab3a5b683f660cff1fe8e448024f2cd",
    "p01/telemetry_L.tsv": "d82896f83d03e5a2fbb715f05f83a0f185f3ad7601a535ecdeb1c8dfef40f184",
    "p01/telemetry_T1.tsv": "1406bae61e594082aa92745cee01083f6749181e0263e3f836ba6e634cebd7a6",
    "p01/telemetry_T2.tsv": "ac103defcfec24ab3ae494a4cd39e27bd82a33de58ceec0a42769dbc10ebd948",
    "p01/telemetry_T3.tsv": "d17edbda17630c08e0650152d3a571e0815fef3967d8aff581cac3e5444d1e06",
    "p01/telemetry_T4.tsv": "508a06be76b74c7839766bc6c8bb32f34127d9987689e8eab77511ca472a2ff1",
    "p01/telemetry_T5.tsv": "7d8db01695c34c005e449c12ee837efaf6dd2e97128dc5a5b076b99e897ce421",
    "p01/telemetry_T6.tsv": "be528e4e764328e5944901e48a3ce8622e15c8687d71e9705a76cba5f51e6eaf",
    "p01/telemetry_T7.tsv": "2576f8742a7b7c27c5b8d706fe1437920fd90b11dcbcb09bbf710983fd1d9307",
    "p01/telemetry_T8.tsv": "972019c565d254ce8e3780d7674b1d400858c1ebc029dd56504a213f1d1a1fa7",
    "params.json": "be592ae89dae9aa502f0ca54450fa18661d6844bb8df2af89c56108655bd8116",
    "summary.json": "9b436629c37bb25b5ce8302c4b466cb2adfc3a6989c324a37b74d55512cf828e",
    "telemetry_L@p01.tsv": "d82896f83d03e5a2fbb715f05f83a0f185f3ad7601a535ecdeb1c8dfef40f184",
    "telemetry_T1@p01.tsv": "1406bae61e594082aa92745cee01083f6749181e0263e3f836ba6e634cebd7a6",
    "telemetry_T2@p01.tsv": "ac103defcfec24ab3ae494a4cd39e27bd82a33de58ceec0a42769dbc10ebd948",
    "telemetry_T3@p01.tsv": "d17edbda17630c08e0650152d3a571e0815fef3967d8aff581cac3e5444d1e06",
    "telemetry_T4@p01.tsv": "508a06be76b74c7839766bc6c8bb32f34127d9987689e8eab77511ca472a2ff1",
    "telemetry_T5@p01.tsv": "7d8db01695c34c005e449c12ee837efaf6dd2e97128dc5a5b076b99e897ce421",
    "telemetry_T6@p01.tsv": "be528e4e764328e5944901e48a3ce8622e15c8687d71e9705a76cba5f51e6eaf",
    "telemetry_T7@p01.tsv": "2576f8742a7b7c27c5b8d706fe1437920fd90b11dcbcb09bbf710983fd1d9307",
    "telemetry_T8@p01.tsv": "972019c565d254ce8e3780d7674b1d400858c1ebc029dd56504a213f1d1a1fa7",
}


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "p01.txt"
    path.write_text(synth.session_text(), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def replay_out(tmp_path_factory, trace_file):
    out = tmp_path_factory.mktemp("out") / "run"
    code = cli.main(["replay", "--trace", str(trace_file), "--out", str(out)])
    assert code == 0
    return out


class TestReplay:
    def test_report_files(self, replay_out):
        for name in ("confusion.csv", "fmeasure.csv", "delay.csv", "params.json", "summary.json"):
            assert (replay_out / name).exists(), name
        assert (replay_out / "p01" / "dispatch.log").exists()
        assert (replay_out / "p01" / "bindings.json").exists()

    def test_report_bytes_match_the_recorded_digests(self, replay_out):
        written = {
            path.relative_to(replay_out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(replay_out.rglob("*"))
            if path.is_file() and not path.name.startswith("timing_")
        }
        assert written == REPORT_DIGESTS

    def test_confusion_diagonal_perfect_on_scripted_session(self, replay_out):
        payload = json.loads((replay_out / "confusion.json").read_text())
        assert all(value == 1.0 for value in payload["diagonal"].values())
        assert set(payload["reference_diagonal"]) == {f"a{i}" for i in range(1, 9)}

    def test_params_stamped(self, replay_out):
        params = json.loads((replay_out / "params.json").read_text())
        assert params["d2"] == 60_000 and params["h3"] == 2

    def test_param_override_applies(self, tmp_path, trace_file):
        override = tmp_path / "params.json"
        override.write_text(json.dumps({"d2": 600_000}), encoding="utf-8")
        out = tmp_path / "run"
        code = cli.main(
            ["replay", "--trace", str(trace_file), "--out", str(out), "--params", str(override)]
        )
        assert code == 0
        payload = json.loads((out / "confusion.json").read_text())
        assert payload["diagonal"]["a2"] == 0.0  # gap now far too long
        assert json.loads((out / "params.json").read_text())["d2"] == 600_000

    def test_missing_trace_is_a_config_error(self, tmp_path):
        code = cli.main(["replay", "--trace", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "checks, message",
        [
            ("checks=DOOR:isIn:KITCHEN in=L", "pattern check must read PERSON:prop:TARGET"),
            ("checks=PERSON:isIn:KITCHEN in=T1", "node T1 declares no [person]"),
        ],
    )
    def test_bad_pattern_check_is_a_config_error(self, checks, message, trace_file, tmp_path, capsys):
        config = tmp_path / "scenario"
        shutil.copytree(procedures.SCENARIO_DIR, config)
        network = config / procedures.NETWORK_FILE
        text = network.read_text(encoding="utf-8")
        assert "checks=PERSON:isIn:KITCHEN in=L" in text
        network.write_text(text.replace("checks=PERSON:isIn:KITCHEN in=L", checks), encoding="utf-8")
        argv = ["replay", "--config", str(config), "--trace", str(trace_file), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("C_boot checks=BOOT in=U hasTarget=true rate=50",
             "C_boot checks=BOOT in=U hasTarget=true rate=fast",
             "rate must be a number, found 'fast'"),
            ("C_boot checks=BOOT in=U hasTarget=true rate=50",
             "C_boot checks=BOOT in=U hasTarget=true rte=5",
             "unknown condition option 'rte'"),
            ("model=models/a2.fluent", "model=models/a2.fluent clear=false",
             "unknown activity option 'clear'"),
            ("\n2 label=", "\nx label=", "activity index must be a number, found 'x'"),
            ("\n2 label=", "\n0 label=", "activity index 0 names no activity"),
        ],
        ids=["rate=fast", "rte=5", "clear=false", "index=x", "index=0"],
    )
    def test_bad_network_option_is_a_config_error(self, old, new, message, trace_file, tmp_path, capsys):
        config = scenario_copy(tmp_path, old, new)
        argv = ["replay", "--config", str(config), "--trace", str(trace_file), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replay", "check-models"])
    @pytest.mark.parametrize(
        "name, old, new, message",
        [
            ("network.cfg", "\n8 label=", "\n2 label=", "network.cfg: line 87: duplicate activity index 2"),
            ("network.cfg", "I1 implements=importer:1", "I1 implements=importr:1",
             "procedure I1: unknown implementation 'importr:1'"),
            ("network.cfg", "[activities]", "[activites]", "network.cfg: line 79: unknown section [activites]"),
            ("sensors.map", "[rename]", "[renames]", "sensors.map: line 6: unknown section [renames]"),
            ("spatial.model", "[subclass]\n", "[subclass]\nFOO STATEMENT\n",
             "spatial.model: line 15: unknown concept 'FOO'"),
            ("spatial.model", "PERSON := isIn LOCATION >= 1", "PERSON := isIn LOCATION >= x",
             "spatial.model: line 46: restriction must read"),
            ("spatial.model", "P presence=MOTION", "P presense=MOTION",
             "spatial.model: line 61: unknown person option 'presense'"),
            ("t1.model", "[sensors]", "[instances]\nK KITCHN\n[sensors]",
             "node T1: t1.model: line 13: unknown concept 'KITCHN'"),
        ],
        ids=["duplicate-index", "implements", "activites", "renames", "subclass-FOO",
             "defined-x", "presense", "instance-KITCHN"],
    )
    def test_scenario_mistake_is_a_config_error(
        self, command, name, old, new, message, trace_file, tmp_path, capsys
    ):
        config = scenario_copy(tmp_path, old, new, name)
        argv = [command, "--config", str(config)]
        if command == "replay":
            argv += ["--trace", str(trace_file), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err

    def test_a_state_on_a_plain_instance_fails_at_bootstrap(self, trace_file, tmp_path, capsys):
        """Only a statement carries ``hasState``: a store model's instance
        line that sets it stops the replay with an error naming the node."""
        config = scenario_copy(tmp_path, "\nK KITCHEN\n", "\nK KITCHEN hasState=true\n", "spatial.model")
        argv = ["replay", "--config", str(config), "--trace", str(trace_file), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: node L: instance 'K' cannot declare hasState: only a statement carries it\n"

    @pytest.mark.parametrize("command", ["replay", "check-models"])
    @pytest.mark.parametrize(
        "params, message",
        [
            ('{"d2": "40.5"}', "'d2' must be an integer, found '40.5'"),
            ('{"d2": 40.5}', "'d2' must be an integer, found 40.5"),
            ('{"d99": 5}', "unknown model parameter 'd99'"),
            ("[5]", "expected a JSON object"),
            ('{"d2": ', "Expecting value"),
        ],
        ids=["d2=str", "d2=float", "d99", "list", "truncated"],
    )
    def test_bad_params_are_a_config_error(self, command, params, message, trace_file, tmp_path, capsys):
        override = tmp_path / "params.json"
        override.write_text(params, encoding="utf-8")
        argv = [command, "--params", str(override)]
        if command == "replay":
            argv += ["--trace", str(trace_file), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("speed", ["0", "-2"])
    def test_speed_must_be_positive(self, speed, trace_file, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["replay", "--wall", "--speed", speed, "--trace", str(trace_file), "--out", str(out)]
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        assert "speed must be > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["replay", "score"])
    def test_grace_must_not_be_negative(self, command, trace_file, tmp_path, capsys):
        out = tmp_path / "o"
        argv = [command, "--grace", "-1", "--trace", str(trace_file), "--out", str(out)]
        if command == "score":
            argv += ["--run-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        assert "grace must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestTraceWarnings:
    def test_malformed_lines_are_reported_by_replay_and_score(self, tmp_path, capsys):
        trace = tmp_path / "p07.txt"
        trace.write_text("garbage\n" + synth.session_text() + "2009-05-11 M016\n", encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["replay", "--trace", str(trace), "--out", str(out)]) == 0
        replayed = capsys.readouterr().err.splitlines()
        argv = ["score", "--run-dir", str(out), "--trace", str(trace), "--out", str(tmp_path / "s")]
        assert cli.main(argv) == 0
        scored = capsys.readouterr().err.splitlines()
        for err in (replayed, scored):
            assert len(err) == 2
            assert err[0].startswith("p07: line 1: ")
            assert err[1].startswith("p07: line ")


class TestScore:
    def test_offline_scoring_matches_replay(self, replay_out, trace_file, tmp_path):
        out = tmp_path / "rescore"
        code = cli.main(
            [
                "score",
                "--run-dir", str(replay_out),
                "--trace", str(trace_file),
                "--out", str(out),
            ]
        )
        assert code == 0
        fresh = (out / "confusion.csv").read_bytes()
        original = (replay_out / "confusion.csv").read_bytes()
        assert fresh == original

    def test_a_model_not_named_after_its_index_scores_as_replay_scores_it(self, trace_file, tmp_path):
        """Recognitions are scored by the ``activity=`` field the evaluator
        writes, not by the model's name."""
        config = scenario_copy(tmp_path, "\nA8 :=", "\nOUTFIT :=", "models/a8.fluent")
        run, out = tmp_path / "run", tmp_path / "rescore"
        assert cli.main(["replay", "--config", str(config), "--trace", str(trace_file), "--out", str(run)]) == 0
        assert "\trecognition\tOUTFIT\t" in (run / "p01" / "dispatch.log").read_text(encoding="utf-8")
        args = ["--config", str(config), "--run-dir", str(run), "--trace", str(trace_file), "--out", str(out)]
        assert cli.main(["score", *args]) == 0
        for name in ("confusion.csv", "confusion.json", "fmeasure.csv", "delay.csv"):
            assert (out / name).read_bytes() == (run / name).read_bytes(), name


class TestCrossProcessDeterminism:
    def test_reports_identical_under_different_hash_seeds(self, trace_file, tmp_path):
        import os
        import subprocess
        import sys

        outs = []
        for seed, name in (("1", "a"), ("271828", "b")):
            out = tmp_path / name
            # the child imports the package from src/, as pytest's pythonpath does here
            path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            subprocess.run(
                [sys.executable, "-m", "fluentnet.cli", "replay",
                 "--trace", str(trace_file), "--out", str(out)],
                check=True, env=env, capture_output=True,
            )
            outs.append(out)
        first, second = outs
        for path in sorted(first.rglob("*")):
            if path.is_dir() or path.name.startswith("timing_"):
                continue
            twin = second / path.relative_to(first)
            assert path.read_bytes() == twin.read_bytes(), path.name


class TestCheckModels:
    def test_all_cases_pass(self, capsys):
        assert cli.main(["check-models"]) == 0
        output = capsys.readouterr().out
        assert "34/34 cases passed" in output

    def test_failure_exit_code_with_broken_params(self, tmp_path, capsys):
        # collapsing the window threshold makes a perturbation recognize
        override = tmp_path / "params.json"
        override.write_text(json.dumps({"h3": 1, "d3": 0}), encoding="utf-8")
        assert cli.main(["check-models", "--params", str(override)]) == 1

    @pytest.mark.parametrize(
        "name, edits, skip",
        [
            (
                procedures.NETWORK_FILE,
                [("importer:8", "importer:9"), ("evaluator:8", "evaluator:9"), ("\n8 label=", "\n9 label=")],
                "[skip] a9: no bundled cases",
            ),
            (
                "models/a8.fluent",
                [("+ d11)", "+ d12)"), ("where d11", "where d12")],
                "[skip] a8: no bundled cases: model A8 lacks parameter 'd11'",
            ),
        ],
        ids=["unknown-index", "missing-parameter"],
    )
    def test_an_activity_no_case_fits_is_skipped(self, name, edits, skip, tmp_path, capsys):
        """The skipped activity's four cases are neither run nor counted."""
        config = scenario_copy(tmp_path, *edits[0], name)
        target = config / name
        text = target.read_text(encoding="utf-8")
        for old, new in edits[1:]:
            assert old in text
            text = text.replace(old, new, 1)
        target.write_text(text, encoding="utf-8")
        assert cli.main(["check-models", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert skip in lines
        assert lines[-1] == "30/30 cases passed"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("K KITCHEN hasState=true", "instance 'K' cannot declare hasState: only a statement carries it"),
            ("K KITCHEN,TABLE1", "instance 'K' cannot be both FURNITURE and LOCATION"),
        ],
        ids=["state", "disjoint"],
    )
    def test_a_store_model_line_that_cannot_be_written_fails(self, line, message, tmp_path, capsys):
        """A spatial-model instance line that parses but cannot be written
        stops ``check-models`` as it stops ``replay``, naming the node."""
        config = scenario_copy(tmp_path, "\nK KITCHEN\n", f"\n{line}\n", "spatial.model")
        assert cli.main(["check-models", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: node L: {message}\n"
        assert "cases passed" not in captured.out


class TestExplain:
    def test_sentence_and_rule_summary(self, capsys):
        assert cli.main(["explain", "--model", "A3"]) == 0
        output = capsys.readouterr().out
        assert "stayed" in output
        assert "pre-pass" in output
        assert "watering plants" in output

    def test_bindings_dump(self, replay_out, capsys):
        code = cli.main(
            ["explain", "--model", "A3", "--bindings", str(replay_out / "p01" / "bindings.json")]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "last matched binding" in output
        assert "D11" in output

    def test_unknown_model(self, capsys):
        assert cli.main(["explain", "--model", "A99"]) == 2

    @pytest.mark.parametrize(
        "dump, message",
        [("{not json", "Expecting property name"), ('[["?t", 1]]', "expected a JSON object")],
        ids=["malformed", "list"],
    )
    def test_bad_bindings_file_is_a_config_error(self, dump, message, tmp_path, capsys):
        bindings = tmp_path / "bindings.json"
        bindings.write_text(dump, encoding="utf-8")
        assert cli.main(["explain", "--model", "A3", "--bindings", str(bindings)]) == 2
        err = capsys.readouterr().err
        assert f"--bindings {bindings}" in err
        assert message in err
