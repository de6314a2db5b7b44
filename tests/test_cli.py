"""Command-line surface: replay, check-models, score, explain."""

import json
import shutil

import pytest

import synth
from fluentnet import cli, procedures


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

    @pytest.mark.parametrize("speed", ["0", "-2"])
    def test_speed_must_be_positive(self, speed, trace_file, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["replay", "--wall", "--speed", speed, "--trace", str(trace_file), "--out", str(out)]
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        assert "speed must be > 0" in capsys.readouterr().err
        assert not out.exists()


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


class TestCrossProcessDeterminism:
    def test_reports_identical_under_different_hash_seeds(self, trace_file, tmp_path):
        import os
        import subprocess
        import sys

        outs = []
        for seed, name in (("1", "a"), ("271828", "b")):
            out = tmp_path / name
            env = dict(os.environ, PYTHONHASHSEED=seed)
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
