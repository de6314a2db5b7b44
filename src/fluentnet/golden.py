"""Bundled check traces for the eight shipped activity models.

For every model there is one satisfying trace, expected to yield exactly
one recognition stamped with its terminal statement's time, and several
perturbations (reordered events, a violated time gap, an unmet visit
count, a wrong state) that must yield none.  Traces are built from the
model's own parameter table, so they stay valid under parameter overrides
as long as the relation between the margins holds.  An activity with no
bundled cases, or whose model lacks a parameter its cases read, is
skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .context import ContextStore
from .network import build_node_store
from .procedures import ActivityBinding, Evaluator, RecognitionRecord, ReplaySession, Scenario

Reading = tuple[str, bool, int]


@dataclass(frozen=True)
class GoldenCase:
    activity: int
    name: str
    readings: tuple[Reading, ...]
    expect_time: Optional[int]  # None: the model must stay silent


def _sec(seconds: float) -> int:
    return int(seconds * 1000)


class NoBundledCases(LookupError):
    """No bundled cases fit an activity: none exist for its index, or its
    model lacks a parameter they read."""


def golden_cases(binding: ActivityBinding) -> list[GoldenCase]:
    """The satisfying trace plus perturbations for one activity, or
    :class:`NoBundledCases` when none fit it."""
    build = _BUILDERS.get(binding.index)
    if build is None:
        raise NoBundledCases("no bundled cases")
    try:
        return build(binding.ast.param_table())
    except KeyError as exc:
        raise NoBundledCases(
            f"no bundled cases: model {binding.ast.name} lacks parameter {exc.args[0]!r}"
        ) from None


def _case(activity: int, name: str, readings: Sequence[Reading], expect: Optional[int]) -> GoldenCase:
    return GoldenCase(activity=activity, name=name, readings=tuple(readings), expect_time=expect)


def _a1(p: dict[str, int]) -> list[GoldenCase]:
    gap = p["d1"]
    good = [
        ("D7", True, _sec(10)),
        ("I4", False, _sec(20)),
        ("I6", False, _sec(25)),
        ("I4", True, _sec(25) + gap + _sec(20)),
        ("I6", True, _sec(25) + gap + _sec(30)),
        ("D7", False, _sec(25) + gap + _sec(50)),
    ]
    close = good[-1][2]
    short = [
        ("D7", True, _sec(10)),
        ("I4", False, _sec(20)),
        ("I6", False, _sec(25)),
        ("I4", True, _sec(30)),
        ("I6", True, _sec(35)),
        ("D7", False, _sec(25) + gap - _sec(5)),
    ]
    late_release = [
        ("D7", True, _sec(10)),
        ("I4", False, _sec(20)),
        ("I6", False, _sec(25)),
        ("D7", False, close),
        ("I4", True, close + _sec(10)),
        ("I6", True, close + _sec(20)),
    ]
    single = [r for r in good if r[0] != "I6"]
    no_close = [r for r in good[:-1]] + [("D7", True, close)]
    return [
        _case(1, "satisfying", good, close),
        _case(1, "gap-violated", short, None),
        _case(1, "release-after-close", late_release, None),
        _case(1, "single-item", single, None),
        _case(1, "door-never-closes", no_close, None),
    ]


def _a2(p: dict[str, int]) -> list[GoldenCase]:
    gap = p["d2"]
    taken, returned = _sec(10), _sec(10) + gap + _sec(5)
    good = [("I5", False, taken), ("I5", True, returned)]
    return [
        _case(2, "satisfying", good, returned),
        _case(2, "gap-violated", [("I5", False, taken), ("I5", True, taken + gap - _sec(5))], None),
        _case(2, "reordered", [("I5", True, taken), ("I5", False, returned)], None),
        _case(2, "wrong-state", [("I5", False, taken), ("I5", False, returned)], None),
    ]


def _a3(p: dict[str, int]) -> list[GoldenCase]:
    span3, span4 = p["d3"], p["d4"]
    good = [
        ("D11", True, _sec(5)),
        ("F2", True, _sec(10)),
        ("M6", True, _sec(20)),
        ("M7", True, _sec(20) + span3 + _sec(5)),
        ("M10", True, _sec(50)),
        ("M11", True, _sec(50) + span4 + _sec(5)),
        ("D11", False, _sec(50) + span4 + _sec(30)),
    ]
    close = good[-1][2]
    few_visits = [r for r in good if r[0] != "M7"]
    short_stay = [
        good[0],
        good[1],
        ("M6", True, _sec(20)),
        ("M7", True, _sec(20) + max(span3 - _sec(5), 1)),
        good[4],
        good[5],
        good[6],
    ]
    no_flow = [r for r in good if r[0] != "F2"]
    closed_early = good[:-1] + [("D11", False, _sec(40))]
    return [
        _case(3, "satisfying", good, close),
        _case(3, "visits-below-threshold", few_visits, None),
        _case(3, "stay-too-short", short_stay, None),
        _case(3, "no-flow", no_flow, None),
        _case(3, "closed-before-stays", closed_early, None),
    ]


def _a4(p: dict[str, int]) -> list[GoldenCase]:
    gap = p["d5"]
    up, down = _sec(10), _sec(10) + gap + _sec(5)
    good = [("P1", True, up), ("P1", False, down)]
    return [
        _case(4, "satisfying", good, down),
        _case(4, "gap-violated", [("P1", True, up), ("P1", False, up + gap - _sec(5))], None),
        _case(4, "reordered", [("P1", False, up), ("P1", True, down)], None),
        _case(4, "never-put-down", [("P1", True, up), ("P1", True, down)], None),
    ]


def _a5(p: dict[str, int]) -> list[GoldenCase]:
    g6, g7 = p["d6"], p["d7"]
    good = [
        ("I8", False, _sec(10)),
        ("I9", False, _sec(15)),
        ("I8", True, _sec(10) + g6 + _sec(10)),
        ("I9", True, _sec(15) + g7 + _sec(20)),
    ]
    last = good[-1][2]
    early = [
        ("I8", False, _sec(10)),
        ("I9", False, _sec(15)),
        ("I8", True, _sec(10) + g6 - _sec(5)),
        ("I9", True, _sec(15) + g7 + _sec(20)),
    ]
    reordered = [
        ("I8", True, _sec(10)),
        ("I9", True, _sec(15)),
        ("I8", False, _sec(10) + g6 + _sec(10)),
        ("I9", False, _sec(15) + g7 + _sec(20)),
    ]
    single = [r for r in good if r[0] == "I8"]
    return [
        _case(5, "satisfying", good, last),
        _case(5, "first-return-too-soon", early, None),
        _case(5, "reordered", reordered, None),
        _case(5, "single-item", single, None),
    ]


def _a6(p: dict[str, int]) -> list[GoldenCase]:
    gap = p["d8"]
    good = [
        ("D8", True, _sec(5)),
        ("I1", False, _sec(10)),
        ("I2", False, _sec(15)),
        ("I1", True, _sec(10) + gap + _sec(15)),
        ("I2", True, _sec(15) + gap + _sec(20)),
        ("D9", False, _sec(15) + gap + _sec(40)),
    ]
    close = good[-1][2]
    early_return = [
        good[0],
        good[1],
        good[2],
        ("I1", True, _sec(10) + gap - _sec(5)),
        ("I2", True, _sec(15) + gap + _sec(20)),
        good[5],
    ]
    closed_early = good[:-1] + [("D9", False, _sec(15) + gap + _sec(10))]
    no_open = good[1:]
    return [
        _case(6, "satisfying", good, close),
        _case(6, "gap-violated", early_return, None),
        _case(6, "closed-before-release", closed_early, None),
        _case(6, "door-never-opened", no_open, None),
    ]


def _a7(p: dict[str, int]) -> list[GoldenCase]:
    span9, span10 = p["d9"], p["d10"]
    good = [
        ("D11", True, _sec(5)),
        ("M6", True, _sec(15)),
        ("M8", True, _sec(15) + span9 + _sec(5)),
        ("M16", True, _sec(60)),
        ("M17", True, _sec(60) + span10 + _sec(5)),
        ("D11", False, _sec(60) + span10 + _sec(30)),
    ]
    close = good[-1][2]
    few = [r for r in good if r[0] != "M17"]
    short = [
        good[0],
        good[1],
        good[2],
        ("M16", True, _sec(60)),
        ("M17", True, _sec(60) + max(span10 - _sec(5), 1)),
        good[5],
    ]
    closed_early = good[:-1] + [("D11", False, _sec(50))]
    return [
        _case(7, "satisfying", good, close),
        _case(7, "visits-below-threshold", few, None),
        _case(7, "stay-too-short", short, None),
        _case(7, "closed-before-stays", closed_early, None),
    ]


def _a8(p: dict[str, int]) -> list[GoldenCase]:
    linger = p["d11"]
    good = [
        ("D12", False, _sec(10)),
        ("M22", True, _sec(10) + linger + _sec(5)),
        ("M5", True, _sec(10) + linger + _sec(25)),
    ]
    leave = good[-1][2]
    too_soon = [
        ("D12", False, _sec(10)),
        ("M22", True, _sec(10) + linger - _sec(2)),
        ("M5", True, _sec(10) + linger - _sec(1)),
    ]
    leave_first = [
        ("D12", False, _sec(10)),
        ("M5", True, _sec(10) + linger + _sec(5)),
        ("M22", True, _sec(10) + linger + _sec(25)),
    ]
    wrong_door = [("D12", True, _sec(10))] + list(good[1:])
    return [
        _case(8, "satisfying", good, leave),
        _case(8, "linger-violated", too_soon, None),
        _case(8, "leave-before-choose", leave_first, None),
        _case(8, "wrong-door-state", wrong_door, None),
    ]


_BUILDERS = {1: _a1, 2: _a2, 3: _a3, 4: _a4, 5: _a5, 6: _a6, 7: _a7, 8: _a8}


def _new_store(scenario: Scenario, binding: ActivityBinding) -> ContextStore:
    node = next(n for n in scenario.model.nodes if n.name == binding.node)
    return build_node_store(node, scenario.store_models[node.name])


def _evaluate(case: GoldenCase, store: ContextStore, evaluator: Evaluator) -> Optional[RecognitionRecord]:
    for sensor, state, time_ms in case.readings:
        store.assert_statement(sensor, state, time_ms)
    horizon = max((t for _, _, t in case.readings), default=0) + 1000
    return evaluator.evaluate_store(store, now_ms=horizon)


@dataclass(frozen=True)
class GoldenOutcome:
    activity: int
    case: str
    passed: Optional[bool]  # None: the activity was skipped, with no case run
    detail: str


def run_golden_suite(scenario: Scenario) -> list[GoldenOutcome]:
    """Evaluate every bundled case; used by tests and the check CLI.  A
    skipped activity gets one outcome, with no case and ``passed=None``."""
    outcomes: list[GoldenOutcome] = []
    for index in sorted(scenario.bindings):
        binding = scenario.bindings[index]
        try:
            cases = golden_cases(binding)
        except NoBundledCases as exc:
            outcomes.append(GoldenOutcome(activity=index, case="", passed=None, detail=str(exc)))
            continue
        # one evaluator serves every case
        evaluator = Evaluator(binding, ReplaySession())
        for case in cases:
            record = _evaluate(case, _new_store(scenario, binding), evaluator)
            if case.expect_time is None:
                passed = record is None
                detail = "silent" if passed else f"unexpected recognition at {record.time_ms}"
            elif record is None:
                passed = False
                detail = "expected a recognition, got none"
            else:
                passed = record.time_ms == case.expect_time
                detail = f"recognized at {record.time_ms} (expected {case.expect_time})"
            outcomes.append(
                GoldenOutcome(activity=index, case=case.name, passed=passed, detail=detail)
            )
    return outcomes
