"""Forward-chaining conjunctive rules over store snapshots.

Rules are conjunctions of typed atoms -- class membership, property values,
numeric comparisons and additive assignments -- with a head that asserts a
result statement.  Variables are written ``?name``; anything else is a
literal.  Evaluation enumerates every consistent binding against an
immutable snapshot, so repeated calls yield identical results and atoms may
be given in any order: the engine plans an executable schedule when a rule
is registered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .context import Snapshot, SnapshotInstance

Term = Union[str, int, bool]

COMPARE_OPS = ("<=", ">=", "<", ">", "==", "!=")


class RuleValidationError(ValueError):
    """Rule rejected at registration: unbound variable, duplicate name."""


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
    """Comparison builtins return a bool; ``sum`` returns lhs + rhs."""
    if op == "==":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "sum":
        _require_number(lhs)
        _require_number(rhs)
        return lhs + rhs
    if op in ("<=", ">=", "<", ">"):
        _require_number(lhs)
        _require_number(rhs)
        if op == "<=":
            return lhs <= rhs
        if op == ">=":
            return lhs >= rhs
        if op == "<":
            return lhs < rhs
        return lhs > rhs
    raise BuiltinError(f"unknown builtin {op!r}")


def _require_number(value: Term) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BuiltinError(f"numeric builtin applied to {value!r}")


def _atom_vars(atom: Atom) -> list[str]:
    if isinstance(atom, ClassAtom):
        return [atom.var]
    if isinstance(atom, PropertyAtom):
        out = [atom.var]
        if is_var(atom.value):
            out.append(atom.value)
        return out
    if isinstance(atom, Compare):
        return [t for t in (atom.left, atom.right) if is_var(t)]
    return [atom.var] + [t for t in (atom.left, atom.right) if is_var(t)]


def _plan(body: tuple[Atom, ...]) -> tuple[list[Atom], set[str]]:
    """Order atoms so each one is executable when reached.

    Class and property atoms bind variables; comparisons and assignments
    wait until their operands are bound.  Raises when no complete schedule
    exists, naming an offending variable.
    """
    pending = list(body)
    schedule: list[Atom] = []
    bound: set[str] = set()

    def ready(atom: Atom, allow_free_instance: bool) -> bool:
        if isinstance(atom, ClassAtom):
            return True
        if isinstance(atom, PropertyAtom):
            return allow_free_instance or atom.var in bound
        if isinstance(atom, Compare):
            return all(not is_var(t) or t in bound for t in (atom.left, atom.right))
        if isinstance(atom, Assign):
            operands_ok = all(not is_var(t) or t in bound for t in (atom.left, atom.right))
            return operands_ok and atom.var not in bound
        return False

    while pending:
        chosen = None
        for allow_free in (False, True):
            for atom in pending:
                if ready(atom, allow_free):
                    chosen = atom
                    break
            if chosen is not None:
                break
        if chosen is None:
            for atom in pending:
                for var in _atom_vars(atom):
                    if var not in bound:
                        raise RuleValidationError(f"unbound {var}")
            raise RuleValidationError("rule body cannot be scheduled")
        pending.remove(chosen)
        schedule.append(chosen)
        bound.update(_atom_vars(chosen))
    return schedule, bound


class RuleEngine:
    """Registered rules evaluated against immutable snapshots.

    Registration is single-writer; :meth:`evaluate` is read-only and safe
    to call concurrently for distinct snapshots.
    """

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}
        self._plans: dict[str, list[Atom]] = {}

    def register_rule(self, rule: Rule) -> str:
        if not rule.body:
            raise RuleValidationError(f"rule {rule.name!r} has an empty body")
        if rule.name in self._rules:
            raise RuleValidationError(f"duplicate rule name {rule.name!r}")
        schedule, bound = _plan(rule.body)
        if is_var(rule.head.time) and rule.head.time not in bound:
            raise RuleValidationError(f"unbound {rule.head.time}")
        self._rules[rule.name] = rule
        self._plans[rule.name] = schedule
        return rule.name

    def evaluate(self, snapshot: Snapshot) -> list[Derived]:
        """All deduplicated head assertions derivable from the snapshot.

        The binding that first produced each head value is attached to the
        result.
        """
        derived: list[Derived] = []
        for name, rule in self._rules.items():
            seen: set[tuple[str, bool, int]] = set()
            for binding in self._match(self._plans[name], snapshot):
                time = binding[rule.head.time] if is_var(rule.head.time) else rule.head.time
                key = (rule.head.instance_id, rule.head.state, time)
                if key in seen:
                    continue
                seen.add(key)
                derived.append(
                    Derived(
                        rule=name,
                        instance_id=rule.head.instance_id,
                        concepts=rule.head.concepts,
                        state=rule.head.state,
                        time=int(time),
                        binding=tuple(sorted(binding.items())),
                    )
                )
        return derived

    def _match(self, schedule: list[Atom], snapshot: Snapshot):
        def instances_of(concept: str) -> tuple[SnapshotInstance, ...]:
            return snapshot.of_concept(concept)

        def resolve(term: Term, binding: dict[str, Term]) -> Term:
            return binding[term] if is_var(term) else term

        def solve(index: int, binding: dict[str, Term]):
            if index == len(schedule):
                yield dict(binding)
                return
            atom = schedule[index]
            if isinstance(atom, ClassAtom):
                if atom.var in binding:
                    inst = snapshot.get(str(binding[atom.var]))
                    if inst is not None and atom.concept in inst.concepts:
                        yield from solve(index + 1, binding)
                    return
                for inst in instances_of(atom.concept):
                    binding[atom.var] = inst.id
                    yield from solve(index + 1, binding)
                    del binding[atom.var]
                return
            if isinstance(atom, PropertyAtom):
                if atom.var in binding:
                    candidates = [snapshot.get(str(binding[atom.var]))]
                    candidates = [c for c in candidates if c is not None]
                    free_instance = False
                else:
                    candidates = [i for i in snapshot.instances if atom.prop in i.props]
                    free_instance = True
                for inst in candidates:
                    values = inst.props.get(atom.prop, ())
                    if free_instance:
                        binding[atom.var] = inst.id
                    if is_var(atom.value) and atom.value not in binding:
                        for value in values:
                            binding[atom.value] = value
                            yield from solve(index + 1, binding)
                            del binding[atom.value]
                    else:
                        wanted = resolve(atom.value, binding)
                        if wanted in values:
                            yield from solve(index + 1, binding)
                    if free_instance:
                        del binding[atom.var]
                return
            if isinstance(atom, Compare):
                if eval_builtin(atom.op, resolve(atom.left, binding), resolve(atom.right, binding)):
                    yield from solve(index + 1, binding)
                return
            if isinstance(atom, Assign):
                binding[atom.var] = eval_builtin("sum", resolve(atom.left, binding), resolve(atom.right, binding))
                yield from solve(index + 1, binding)
                del binding[atom.var]
                return
            raise BuiltinError(f"unknown atom {atom!r}")

        yield from solve(0, {})
