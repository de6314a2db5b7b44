import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fluentnet import procedures  # noqa: E402


@pytest.fixture(scope="session")
def scenario():
    return procedures.load_scenario()


def scenario_copy(tmp_path, old, new, name=procedures.NETWORK_FILE):
    """A copy of the bundled scenario with one text in file ``name`` replaced."""
    config = tmp_path / "scenario"
    shutil.copytree(procedures.SCENARIO_DIR, config)
    target = config / name
    text = target.read_text(encoding="utf-8")
    assert old in text
    target.write_text(text.replace(old, new, 1), encoding="utf-8")
    return config


def pytest_terminal_summary(terminalreporter):
    # surface the acceptance verdict lines even under output capture
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.VERDICTS:
            terminalreporter.write_line(line)
