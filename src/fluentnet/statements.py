"""Timed Boolean statements and the operator family that aggregates them.

A statement is the atomic unit of knowledge in the engine: a Boolean state
observed at a millisecond timestamp.  Operators combine statements into new
*aggregated* statements; every operator fixes both the resulting state and
the resulting timestamp, so arbitrarily deep combinations stay within the
same value domain.  Expression trees over a statement set are evaluated by
:func:`aggregate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

RAW = "raw"
AGGREGATED = "aggregated"

LOGICAL_OPS = ("and", "or")
PRECEDENCE_OPS = ("leq", "geq", "lt", "gt")


class StatementError(ValueError):
    """Domain error for statement construction or operator misuse."""


@dataclass(frozen=True)
class Statement:
    """A Boolean state paired with the time (ms) at which it was observed.

    ``kind`` distinguishes sensor-born statements from operator results;
    neither element of the pair may be absent.
    """

    id: str
    state: bool
    time: int
    kind: str = RAW

    def __post_init__(self) -> None:
        check_statement(self.id, self.state, self.time, self.kind)


def check_statement(statement_id: object, state: object, time: object, kind: object) -> None:
    """Raise a :class:`StatementError` unless the fields make a statement:
    the checks of :class:`Statement`, which a store write runs on its
    arguments as they are."""
    if not isinstance(statement_id, str) or not statement_id:
        raise StatementError("statement id must be a non-empty string")
    if not isinstance(state, bool):
        raise StatementError(f"state of {statement_id!r} must be a bool")
    if isinstance(time, bool) or not isinstance(time, int):
        raise StatementError(f"time of {statement_id!r} must be an integer")
    if time < 0:
        raise StatementError(f"time of {statement_id!r} must be >= 0, got {time}")
    if kind not in (RAW, AGGREGATED):
        raise StatementError(f"unknown statement kind {kind!r}")


def sort_key(statement: Statement) -> tuple[int, str]:
    """Canonical ordering key: time ascending, ties broken by id."""
    return (statement.time, statement.id)


class StatementSet:
    """An ordered collection of statements with deterministic iteration.

    Members are kept sorted by ``(time, id)`` so that every scan, window or
    query over the set is reproducible regardless of insertion order.
    """

    __slots__ = ("_members",)

    def __init__(self, members: Iterable[Statement] = ()) -> None:
        self._members: tuple[Statement, ...] = tuple(sorted(members, key=sort_key))

    @property
    def members(self) -> tuple[Statement, ...]:
        return self._members

    def __iter__(self) -> Iterator[Statement]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, statement: Statement) -> bool:
        return statement in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatementSet):
            return NotImplemented
        return self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __repr__(self) -> str:
        return f"StatementSet({list(self._members)!r})"

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self._members)


def apply_logical(kind: str, x: Statement, y: Statement) -> Statement:
    """Combine two statements with ``and``/``or``; time is the later one."""
    if kind == "and":
        state = x.state and y.state
    elif kind == "or":
        state = x.state or y.state
    else:
        raise StatementError(f"unknown logical operator {kind!r}")
    return Statement(
        id=f"{kind}({x.id},{y.id})",
        state=state,
        time=max(x.time, y.time),
        kind=AGGREGATED,
    )


def apply_precedence(kind: str, x: Statement, y: Statement) -> Statement:
    """Compare the two timestamps; the operand states are irrelevant.

    The result is true exactly when ``x.time <op> y.time`` holds, and is
    stamped with the later of the two times.
    """
    if kind == "leq":
        state = x.time <= y.time
    elif kind == "geq":
        state = x.time >= y.time
    elif kind == "lt":
        state = x.time < y.time
    elif kind == "gt":
        state = x.time > y.time
    else:
        raise StatementError(f"unknown precedence operator {kind!r}")
    return Statement(
        id=f"{kind}({x.id},{y.id})",
        state=state,
        time=max(x.time, y.time),
        kind=AGGREGATED,
    )


def apply_state_mask(x: Statement, mask: bool) -> Statement:
    """Conjoin the state with a constant; the timestamp is preserved."""
    if not isinstance(mask, bool):
        raise StatementError("mask must be a bool")
    return Statement(
        id=f"mask({x.id},{mask})",
        state=x.state and mask,
        time=x.time,
        kind=AGGREGATED,
    )


def shift_time(x: Statement, delta_ms: int) -> Statement:
    """Add a signed offset to the timestamp; the state is preserved."""
    if isinstance(delta_ms, bool) or not isinstance(delta_ms, int):
        raise StatementError("time shift must be an integer number of ms")
    shifted = x.time + delta_ms
    if shifted < 0:
        raise StatementError(
            f"shifting {x.id!r} by {delta_ms} ms would move its time below zero"
        )
    return Statement(id=f"shift({x.id},{delta_ms})", state=x.state, time=shifted, kind=AGGREGATED)


def convolve(members: StatementSet, target_state: bool, window_ms: int) -> StatementSet:
    """Collect same-state statements inside a window anchored at the earliest.

    The window starts at the earliest member whose state equals
    ``target_state`` and spans ``window_ms`` milliseconds (inclusive).  A
    leading statement of the opposite state therefore cannot empty the
    window.  An empty input yields an empty result.
    """
    if isinstance(window_ms, bool) or not isinstance(window_ms, int) or window_ms < 0:
        raise StatementError("window must be a non-negative integer number of ms")
    matching = [m for m in members if m.state == target_state]
    if not matching:
        return StatementSet()
    start = min(m.time for m in matching)
    return StatementSet(m for m in matching if start <= m.time <= start + window_ms)


def convolve_at_least(
    members: StatementSet, target_state: bool, window_ms: int, min_count: int
) -> Statement:
    """Threshold form of :func:`convolve`.

    True when the window holds at least ``min_count`` statements; stamped
    with the latest time inside the window, or 0 (and false) when the
    window is empty.

    This is not the models' ``conv(CLASS:+, hK, dK)``.  Here at least
    ``min_count`` statements must fall *within* ``window_ms`` of the first
    one; the evaluator's pre-pass needs at least ``hK`` statements that
    *span* at least ``dK`` (earliest + dK <= latest).  On A3's
    ``stay-too-short`` golden case (M6 at 20 s, M7 at 35 s, d3 = 20 s)
    this reads true at 35 000 while the model stays silent.
    """
    if isinstance(min_count, bool) or not isinstance(min_count, int) or min_count < 1:
        raise StatementError("minimum count must be an integer >= 1")
    window = convolve(members, target_state, window_ms)
    ident = f"atleast({target_state},{window_ms},{min_count})"
    if not len(window):
        return Statement(id=ident, state=False, time=0, kind=AGGREGATED)
    latest = max(m.time for m in window)
    return Statement(id=ident, state=len(window) >= min_count, time=latest, kind=AGGREGATED)


# --------------------------------------------------------------------------
# Expression trees evaluated against a statement set.

@dataclass(frozen=True)
class Ref:
    """Leaf node: the set member with this id (earliest if several)."""

    id: str


@dataclass(frozen=True)
class Logic:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Prec:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mask:
    child: "Expr"
    mask: bool


@dataclass(frozen=True)
class Shift:
    child: "Expr"
    delta_ms: int


@dataclass(frozen=True)
class Window:
    """Threshold convolution over the whole set or a subset of member ids."""

    target_state: bool
    window_ms: int
    min_count: int
    over: Optional[tuple[str, ...]] = None


Expr = Union[Ref, Logic, Prec, Mask, Shift, Window]


def aggregate(expr: Expr, members: StatementSet) -> Statement:
    """Evaluate an operator tree over a statement set.

    A one-leaf tree returns the referenced member unchanged; referencing an
    id that is not in the set is a domain error.
    """
    if isinstance(expr, Ref):
        member = next((m for m in members if m.id == expr.id), None)  # the earliest
        if member is None:
            raise StatementError(f"unbound reference {expr.id!r}")
        return member
    if isinstance(expr, Logic):
        return apply_logical(expr.op, aggregate(expr.left, members), aggregate(expr.right, members))
    if isinstance(expr, Prec):
        return apply_precedence(expr.op, aggregate(expr.left, members), aggregate(expr.right, members))
    if isinstance(expr, Mask):
        return apply_state_mask(aggregate(expr.child, members), expr.mask)
    if isinstance(expr, Shift):
        return shift_time(aggregate(expr.child, members), expr.delta_ms)
    if isinstance(expr, Window):
        if expr.over is None:
            subset = members
        else:
            known = set(members.ids())
            for ref in expr.over:
                if ref not in known:
                    raise StatementError(f"unbound reference {ref!r}")
            wanted = set(expr.over)
            subset = StatementSet(m for m in members if m.id in wanted)
        return convolve_at_least(subset, expr.target_state, expr.window_ms, expr.min_count)
    raise StatementError(f"unknown expression node {expr!r}")
