"""Forward-chaining conjunctive rules over store snapshots.

Rules are conjunctions of typed atoms -- class membership, property values,
``<=``/``!=`` comparisons and additive assignments -- with a head that
asserts a result statement.  Variables are written ``?name``; anything else
is a literal.  Matching only reads a store's snapshot, which is valid until
the store's next write, so repeated calls on one snapshot yield identical
results.

Class atoms are joined in the order the body gives them.
:func:`plan_rules` checks a rule set once and derives how each rule is
matched (a :class:`Plan`) for any number of engines.  It rejects a body
in which an atom reads a variable no earlier atom binds, and a head time
that is not a class variable's ``hasTime`` value shifted by ``+ d``
assignments, the only head time the model compiler writes.  A class
variable's candidates are one list the store keeps, read in place
(:meth:`Snapshot.of_concept`): ``(concept, state)`` when the variable's
first literal test is a boolean ``hasState`` value, which that list
answers, and the concept's plain list (state ``None``) when it has no
such test.  Every other literal test is a search step right after its
class atom, and every other test and comparison runs as soon as its
operands are bound.  A variable with no candidate means no binding
exists.  :meth:`RuleEngine.evaluate` enumerates every binding.
:meth:`RuleEngine.earliest` finds only the earliest head time and
its witness: it pins the head time to each candidate time of the head's
class variable in turn, plus the head's shifts, bounds the other times
through the body's ``<=`` and ``+ d`` atoms, and cuts each candidate list
to the prefix within its bound.  Both run one depth-first search, which
meets bindings in body order over candidates in snapshot order, so the
witness ``earliest`` returns is the first binding ``evaluate`` meets at
that time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .context import STATE_PROP, TIME_PROP, Snapshot, StoreInstance

Term = Union[str, int, bool]

COMPARE_OPS = ("<=", "!=")


class RuleValidationError(ValueError):
    """Rule rejected by :func:`plan_rules`: an empty body, a variable read
    before it is bound or bound twice, an unknown comparison, a head time
    no class variable's time reaches, a duplicate name."""


class BuiltinError(ValueError):
    """A builtin was applied to operands outside its domain."""


def is_var(term: Term) -> bool:
    return isinstance(term, str) and term.startswith("?")


@dataclass(frozen=True)
class ClassAtom:
    concept: str
    var: str


@dataclass(frozen=True)
class PropertyAtom:
    prop: str
    var: str
    value: Term


@dataclass(frozen=True)
class Compare:
    op: str
    left: Term
    right: Term


@dataclass(frozen=True)
class Assign:
    """Bind ``var`` to ``left + right``."""

    var: str
    left: Term
    right: Term


Atom = Union[ClassAtom, PropertyAtom, Compare, Assign]


@dataclass(frozen=True)
class Head:
    """Assertions made when the body matches: a result statement id, the
    concepts it is asserted under, its state, and a time term."""

    instance_id: str
    concepts: tuple[str, ...]
    state: bool
    time: Term


@dataclass(frozen=True)
class Rule:
    name: str
    body: tuple[Atom, ...]
    head: Head


@dataclass(frozen=True)
class Derived:
    """One deduplicated head assertion with the binding that produced it."""

    rule: str
    instance_id: str
    concepts: tuple[str, ...]
    state: bool
    time: int
    binding: tuple[tuple[str, Term], ...]


def eval_builtin(op: str, lhs: Term, rhs: Term):
    """``<=`` and ``!=`` return a bool; ``sum`` returns lhs + rhs."""
    if op == "!=":
        return lhs != rhs
    if op in ("<=", "sum"):
        _require_number(lhs)
        _require_number(rhs)
        return lhs <= rhs if op == "<=" else lhs + rhs
    raise BuiltinError(f"unknown builtin {op!r}")


def _require_number(value: Term) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BuiltinError(f"numeric builtin applied to {value!r}")


def _is_number(term: Term) -> bool:
    return isinstance(term, int) and not isinstance(term, bool)


@dataclass(frozen=True)
class Plan:
    """How a rule is matched, derived once by :func:`plan_rules`.

    ``classes`` holds each class variable with its concept and the state of
    the kept list its candidates are: the value of its first literal test
    when that test is a boolean ``hasState`` value, which the list
    ``(concept, state)`` answers, and ``None`` (the concept's plain list)
    when it has none.
    ``steps`` is the body the search runs: the lifted tests removed, and
    every other test, comparison and assignment moved up to just after the
    atom that binds its last operand (a literal test right after its class
    atom).  Atoms that bind keep their body order.
    ``times`` maps a class variable to the variable its ``hasTime`` value
    binds.  The head time is ``head_var``'s time plus ``head_offset``, the
    sum of the shifts ``Assign(var, anchor, number)`` that lead from it to
    the head.  ``edges`` are the body's upper-bound implications
    ``(var, source, offset)``, each reading ``var <= source - offset``,
    last atom first.
    """

    rule: Rule
    classes: tuple[tuple[str, str, Optional[bool]], ...]
    steps: tuple[Atom, ...]
    times: dict[str, str]
    head_var: str
    head_offset: int
    edges: tuple[tuple[str, Term, int], ...]


def _plan(rule: Rule) -> Plan:
    """Check that ``rule`` can be joined in the order it is written, and
    derive how it is matched.

    A class atom binds a new variable; a property atom reads its instance
    variable and binds its value variable if that is new; a comparison reads
    both operands; an assignment reads its operands and binds a new
    variable.  The first atom that reads an unbound variable, binds one
    twice, compares with another operator or is of no known kind raises
    :class:`RuleValidationError`, as do an empty body and a head time that
    no chain of shifts leads back to a class variable's time.
    """
    if not rule.body:
        raise RuleValidationError(f"rule {rule.name!r} has an empty body")
    concepts: dict[str, str] = {}
    states: dict[str, bool] = {}  # each class variable's lifted hasState test
    times: dict[str, str] = {}
    shifts: dict[str, tuple[str, int]] = {}  # Assign(var, anchor, number): var -> (anchor, number)
    binders: list[Atom] = []
    placed: list[list[Atom]] = [[]]  # placed[k]: atoms run right after binders[k - 1]
    level: dict[str, int] = {}  # each bound variable's binder index

    def after(*terms: Term) -> int:
        """The binder index after which every variable of ``terms`` is bound."""
        for term in terms:
            if is_var(term) and term not in level:
                raise RuleValidationError(f"unbound {term}")
        return max((level[t] for t in terms if is_var(t)), default=0)

    def bind(var: str, index: int) -> None:
        if var in level:
            raise RuleValidationError(f"{var} is bound twice")
        level[var] = index

    def add_binder(atom: Atom) -> int:
        binders.append(atom)
        placed.append([])
        return len(binders)

    for atom in rule.body:
        if isinstance(atom, ClassAtom):
            bind(atom.var, add_binder(atom))
            concepts[atom.var] = atom.concept
        elif isinstance(atom, PropertyAtom):
            after(atom.var)
            if is_var(atom.value) and atom.value not in level:
                level[atom.value] = add_binder(atom)
                if atom.prop == TIME_PROP and atom.var in concepts:
                    times.setdefault(atom.var, atom.value)
            elif (
                atom.prop == STATE_PROP
                and isinstance(atom.value, bool)
                and atom.var in concepts
                and atom.var not in states
            ):
                states[atom.var] = atom.value
            else:
                placed[after(atom.var, atom.value)].append(atom)
        elif isinstance(atom, Compare):
            if atom.op not in COMPARE_OPS:
                raise RuleValidationError(f"unknown comparison {atom.op!r}")
            placed[after(atom.left, atom.right)].append(atom)
        elif isinstance(atom, Assign):
            index = after(atom.left, atom.right)
            bind(atom.var, index)
            placed[index].append(atom)
            if is_var(atom.left) and _is_number(atom.right):
                shifts[atom.var] = (atom.left, atom.right)
        else:
            raise RuleValidationError(f"unknown atom {atom!r}")
    after(rule.head.time)
    head_time, head_offset = rule.head.time, 0
    while head_time in shifts:
        head_time, shift = shifts[head_time]
        head_offset += shift
    head_var = next((var for var, time in times.items() if time == head_time), None)
    if head_var is None:
        raise RuleValidationError(f"head time {rule.head.time!r} is not a class variable's time, shifted")
    steps = list(placed[0])
    for binder, checks in zip(binders, placed[1:]):
        steps.append(binder)
        steps.extend(checks)

    edges: list[tuple[str, Term, int]] = []
    for atom in reversed(rule.body):
        if isinstance(atom, Compare) and atom.op == "<=" and is_var(atom.left):
            edges.append((atom.left, atom.right, 0))
        elif isinstance(atom, Assign) and atom.var in shifts:
            edges.append((atom.left, atom.var, atom.right))
    return Plan(
        rule=rule,
        classes=tuple((var, concept, states.get(var)) for var, concept in concepts.items()),
        steps=tuple(steps),
        times=times,
        head_var=head_var,
        head_offset=head_offset,
        edges=tuple(edges),
    )


def _upper_bounds(plan: Plan, head_time: int) -> dict[str, int]:
    """Upper bounds on the body's variables implied by pinning the head
    time: ``<=`` and ``+ d`` atoms propagated backwards to a fixpoint."""
    bounds: dict[str, int] = {plan.rule.head.time: head_time}
    for _ in range(len(plan.edges) + 1):
        changed = False
        for var, source, offset in plan.edges:
            limit = bounds.get(source) if is_var(source) else source
            if not _is_number(limit):
                continue
            limit -= offset
            if var not in bounds or limit < bounds[var]:
                bounds[var] = limit
                changed = True
        if not changed:
            break
    return bounds


def _derive(rule: Rule, binding: dict[str, Term]) -> Derived:
    return Derived(
        rule=rule.name,
        instance_id=rule.head.instance_id,
        concepts=rule.head.concepts,
        state=rule.head.state,
        time=binding[rule.head.time],
        binding=tuple(sorted(binding.items())),
    )


def plan_rules(rules: Iterable[Rule]) -> tuple[Plan, ...]:
    """The plans of ``rules``, in order, each checked by :func:`_plan`; a
    name used twice raises :class:`RuleValidationError`.  Engines built on
    them (``RuleEngine(plans)``) share them."""
    plans: dict[str, Plan] = {}
    for rule in rules:
        if rule.name in plans:
            raise RuleValidationError(f"duplicate rule name {rule.name!r}")
        plans[rule.name] = _plan(rule)
    return tuple(plans.values())


class RuleEngine:
    """Planned rules evaluated against store snapshots.

    An engine matches ``plans`` (from :func:`plan_rules`) in their order;
    :meth:`evaluate` and :meth:`earliest` only read the snapshot.
    :attr:`examined` counts the class-atom candidates tried since
    construction.
    """

    def __init__(self, plans: Iterable[Plan]) -> None:
        self.plans = tuple(plans)
        self._examined = 0

    @property
    def examined(self) -> int:
        return self._examined

    def evaluate(self, snapshot: Snapshot) -> list[Derived]:
        """All deduplicated head assertions derivable from the snapshot.

        The binding that first produced each head value is attached to the
        result.
        """
        derived: list[Derived] = []
        for plan in self.plans:
            candidates = self._candidates(plan, snapshot)
            if candidates is None:
                continue
            seen: set[Term] = set()  # the rule's head times: its id and state are fixed
            for binding in self._match(plan, snapshot, candidates):
                if binding[plan.rule.head.time] not in seen:
                    seen.add(binding[plan.rule.head.time])
                    derived.append(_derive(plan.rule, binding))
        return derived

    def earliest(self, snapshot: Snapshot) -> Optional[Derived]:
        """``min(self.evaluate(snapshot), key=time)``, without enumerating
        the bindings the minimum does not need: the earliest head time, with
        the first binding :meth:`evaluate` meets at that time, and the first
        planned rule on a tie."""
        best: Optional[Derived] = None
        for plan in self.plans:
            found = self._earliest_of(plan, snapshot, None if best is None else best.time)
            if found is not None:
                best = found
        return best

    def _earliest_of(self, plan: Plan, snapshot: Snapshot, before: Optional[int]) -> Optional[Derived]:
        """The rule's earliest derivation, if it is earlier than ``before``.

        Each distinct time T of the head variable's candidates is tried in
        ascending order.  The head time T + ``head_offset`` bounds every
        time variable from above, and each class variable's candidates are
        cut to the prefix within its bound, found by bisecting the list on
        time (untimed records, which sort last, as infinity); the prefix
        keeps snapshot order, so the search meets the surviving bindings in
        :meth:`evaluate`'s order and the first it finds is the witness.  A
        statement's time is its one ``hasTime`` value, the key the snapshot
        orders it by.
        """
        candidates = self._candidates(plan, snapshot)
        if candidates is None:
            return None
        heads = candidates[plan.head_var]
        start = 0
        while start < len(heads) and heads[start].time is not None:
            end = bisect_right(heads, heads[start].time, start, key=_time)
            pinned = heads[start].time + plan.head_offset
            if before is not None and pinned >= before:
                return None
            bounds = _upper_bounds(plan, pinned)
            trimmed: dict[str, Sequence[StoreInstance]] = {}
            for var, instances in candidates.items():
                time = plan.times.get(var)
                if var == plan.head_var:
                    trimmed[var] = instances[start:end]
                elif time in bounds:
                    trimmed[var] = instances[: bisect_right(instances, bounds[time], key=_time)]
                else:
                    trimmed[var] = instances
            if all(trimmed.values()):
                binding = next(self._match(plan, snapshot, trimmed), None)
                if binding is not None:
                    return _derive(plan.rule, binding)
            start = end
        return None

    def _candidates(self, plan: Plan, snapshot: Snapshot) -> Optional[dict[str, Sequence[StoreInstance]]]:
        """Each class variable's candidates: the kept list its plan names,
        read in place, in snapshot order; ``None`` when one is empty, so
        nothing matches."""
        candidates: dict[str, Sequence[StoreInstance]] = {}
        for var, concept, state in plan.classes:
            instances = snapshot.of_concept(concept, state)
            if not instances:
                return None
            candidates[var] = instances
        return candidates

    def _match(
        self,
        plan: Plan,
        snapshot: Snapshot,
        candidates: Mapping[str, Sequence[StoreInstance]],
        index: int = 0,
        binding: Optional[dict[str, Term]] = None,
    ) -> Iterator[dict[str, Term]]:
        """Depth-first search over ``plan.steps`` from step ``index`` under
        ``binding`` (none: the first step, nothing bound): every binding, in
        the order of the class variables' candidate lists.  Each step
        recurses into the next, so a binding is extended, yielded and undone
        in place, one generator frame per step."""
        if binding is None:
            binding = {}
        steps = plan.steps
        if index == len(steps):
            yield dict(binding)
            return
        atom = steps[index]
        index += 1
        if isinstance(atom, ClassAtom):
            for inst in candidates[atom.var]:
                self._examined += 1
                binding[atom.var] = inst.id
                yield from self._match(plan, snapshot, candidates, index, binding)
                del binding[atom.var]
        elif isinstance(atom, PropertyAtom):
            inst = snapshot.get(str(binding[atom.var]))
            values = inst.prop_values(atom.prop) if inst is not None else ()
            if is_var(atom.value) and atom.value not in binding:
                for value in values:
                    binding[atom.value] = value
                    yield from self._match(plan, snapshot, candidates, index, binding)
                    del binding[atom.value]
            elif _resolve(atom.value, binding) in values:
                yield from self._match(plan, snapshot, candidates, index, binding)
        elif isinstance(atom, Compare):
            if eval_builtin(atom.op, _resolve(atom.left, binding), _resolve(atom.right, binding)):
                yield from self._match(plan, snapshot, candidates, index, binding)
        else:
            binding[atom.var] = eval_builtin("sum", _resolve(atom.left, binding), _resolve(atom.right, binding))
            yield from self._match(plan, snapshot, candidates, index, binding)
            del binding[atom.var]


def _resolve(term: Term, binding: Mapping[str, Term]) -> Term:
    return binding[term] if is_var(term) else term


def _time(record: StoreInstance) -> float:
    """A record's time as a bisection key: untimed records sort last."""
    return math.inf if record.time is None else record.time
