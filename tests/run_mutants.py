"""Rerun the mutant catalogue (``mutants.py``) against the current tree.

Usage, from the repository root:

    python3 tests/run_mutants.py                 # every catalogued mutant
    python3 tests/run_mutants.py NAME [NAME ...] # the named ones
    python3 tests/run_mutants.py --killers [NAME ...]

For each mutant the tree is copied to a temporary directory and the
mutant's edits are applied there (the working tree is never touched).
Tier-1 then runs on the copy (``python -m pytest -q
--continue-on-collection-errors``), leaving out ``tests/test_mutants.py``,
which fails on every mutant because an anchor it looks for is gone.  A
mutant is killed when tier-1 fails on it (pytest exits 1).  One line is
printed per mutant, then any catalogued killer that passed (a stale
entry) and every test that failed.

With ``--killers`` each mutant first runs only its catalogued killers,
and is killed when every one of them fails.  When any killer passes, the
runner names it and falls back to full tier-1 for that mutant, reported
as above.  The last line gives the number killed and the wall time of the
whole run.  The exit code is 1 when a mutant survived or a killer passed.
Only the standard library is used; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path.insert(0, str(TESTS))

from mutants import MUTANTS, Mutant  # noqa: E402

COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "out", "build"
)
PYTEST = (sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider")
TIER1 = ("--continue-on-collection-errors", "--ignore=tests/test_mutants.py")
TIMEOUT_S = 1800


def mutate(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.module
    text = path.read_text(encoding="utf-8")
    for anchor, replacement in mutant.edits:
        if text.count(anchor) != 1:
            raise SystemExit(f"{mutant.name}: anchor occurs {text.count(anchor)} times in {mutant.module}")
        text = text.replace(anchor, replacement)
    path.write_text(text, encoding="utf-8")


def pytest(tree: Path, args: tuple[str, ...]) -> tuple[int, list[str]]:
    """Run pytest with ``args`` in ``tree``; returns its exit code and the
    failed tests."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(PYTEST + args, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    # the short summary comes last; captured log lines before it may start with "ERROR"
    summary = done.stdout.rpartition("short test summary info")[2]
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in summary.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return done.returncode, failed


def run(mutant: Mutant, killers_first: bool) -> bool:
    """Check one mutant; prints its lines and returns whether it was killed
    with every catalogued killer failing."""
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        mutate(tree, mutant)
        if killers_first:
            code, failed = pytest(tree, mutant.killers)
            stale = [k for k in mutant.killers if k not in failed]
            if code == 1 and not stale:
                note = f"{len(mutant.killers)}/{len(mutant.killers)} killers failed"
                print(f"killed   {mutant.name} ({note}, {time.monotonic() - started:.0f} s)", flush=True)
                return True
            for killer in stale:
                print(f"         {mutant.name}: killer passed: {killer}; running tier-1", flush=True)
        code, failed = pytest(tree, TIER1)
    stale = [k for k in mutant.killers if k not in failed]
    killed = code == 1  # tests failed; any other code means pytest itself did not run them
    verdict = "killed  " if killed else "SURVIVED"
    note = f"{len(mutant.killers) - len(stale)}/{len(mutant.killers)} killers failed, tier-1 {len(failed)} failed"
    print(f"{verdict} {mutant.name} ({note}, {time.monotonic() - started:.0f} s)", flush=True)
    for killer in stale:
        print(f"         killer passed: {killer}", flush=True)
    for test in failed:
        print(f"         failed: {test}", flush=True)
    return killed and not stale


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Rerun the mutant catalogue against the current tree.")
    parser.add_argument("names", nargs="*", help="mutants to run (default: the whole catalogue)")
    parser.add_argument(
        "--killers", action="store_true", help="run each mutant's catalogued killers, and tier-1 only if one passes"
    )
    args = parser.parse_args(argv)
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        known = ", ".join(by_name)
        raise SystemExit(f"unknown mutant {unknown[0]!r}; the catalogue holds: {known}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    started = time.monotonic()
    results = [run(mutant, args.killers) for mutant in chosen]
    print(
        f"{sum(results)} of {len(results)} mutants killed, every catalogued killer failing "
        f"({time.monotonic() - started:.0f} s)"
    )
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
