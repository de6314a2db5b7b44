"""Forward-chaining conjunctive rules over store snapshots.

Rules are conjunctions of typed atoms -- class membership, property values,
``<=``/``!=`` comparisons and additive assignments -- with a head that
asserts a result statement.  Variables are written ``?name``; anything else
is a literal.  Evaluation enumerates every consistent binding against an
immutable snapshot, so repeated calls yield identical results.  Atoms are
joined in the order the body gives them: registration rejects a body in
which an atom reads a variable no earlier atom binds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .context import Snapshot

Term = Union[str, int, bool]

COMPARE_OPS = ("<=", "!=")


class RuleValidationError(ValueError):
    """Rule rejected at registration: a variable read before it is bound or
    bound twice, an unknown comparison, a duplicate name."""


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


def _bound_variables(body: tuple[Atom, ...]) -> set[str]:
    """Check that ``body`` can be joined in the given order; return the
    variables it binds.

    A class atom binds a new variable; a property atom reads its instance
    variable and binds its value variable if that is new; a comparison reads
    both operands; an assignment reads its operands and binds a new variable.
    """
    bound: set[str] = set()

    def read(term: Term) -> None:
        if is_var(term) and term not in bound:
            raise RuleValidationError(f"unbound {term}")

    def bind(var: str) -> None:
        if var in bound:
            raise RuleValidationError(f"{var} is bound twice")
        bound.add(var)

    for atom in body:
        if isinstance(atom, ClassAtom):
            bind(atom.var)
        elif isinstance(atom, PropertyAtom):
            read(atom.var)
            if is_var(atom.value):
                bound.add(atom.value)
        elif isinstance(atom, Compare):
            if atom.op not in COMPARE_OPS:
                raise RuleValidationError(f"unknown comparison {atom.op!r}")
            read(atom.left)
            read(atom.right)
        elif isinstance(atom, Assign):
            read(atom.left)
            read(atom.right)
            bind(atom.var)
        else:
            raise RuleValidationError(f"unknown atom {atom!r}")
    return bound


class RuleEngine:
    """Registered rules evaluated against immutable snapshots.

    Registration is single-writer; :meth:`evaluate` is read-only and safe
    to call concurrently for distinct snapshots.
    """

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register_rule(self, rule: Rule) -> str:
        if not rule.body:
            raise RuleValidationError(f"rule {rule.name!r} has an empty body")
        if rule.name in self._rules:
            raise RuleValidationError(f"duplicate rule name {rule.name!r}")
        bound = _bound_variables(rule.body)
        if is_var(rule.head.time) and rule.head.time not in bound:
            raise RuleValidationError(f"unbound {rule.head.time}")
        self._rules[rule.name] = rule
        return rule.name

    def evaluate(self, snapshot: Snapshot) -> list[Derived]:
        """All deduplicated head assertions derivable from the snapshot.

        The binding that first produced each head value is attached to the
        result.
        """
        derived: list[Derived] = []
        for name, rule in self._rules.items():
            seen: set[tuple[str, bool, int]] = set()
            for binding in self._match(rule.body, snapshot):
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

    def _match(self, body: tuple[Atom, ...], snapshot: Snapshot):
        def resolve(term: Term, binding: dict[str, Term]) -> Term:
            return binding[term] if is_var(term) else term

        def solve(index: int, binding: dict[str, Term]):
            if index == len(body):
                yield dict(binding)
                return
            atom = body[index]
            if isinstance(atom, ClassAtom):
                for inst in snapshot.of_concept(atom.concept):
                    binding[atom.var] = inst.id
                    yield from solve(index + 1, binding)
                    del binding[atom.var]
            elif isinstance(atom, PropertyAtom):
                inst = snapshot.get(str(binding[atom.var]))
                values = inst.props.get(atom.prop, ()) if inst is not None else ()
                if is_var(atom.value) and atom.value not in binding:
                    for value in values:
                        binding[atom.value] = value
                        yield from solve(index + 1, binding)
                        del binding[atom.value]
                elif resolve(atom.value, binding) in values:
                    yield from solve(index + 1, binding)
            elif isinstance(atom, Compare):
                if eval_builtin(atom.op, resolve(atom.left, binding), resolve(atom.right, binding)):
                    yield from solve(index + 1, binding)
            else:
                binding[atom.var] = eval_builtin("sum", resolve(atom.left, binding), resolve(atom.right, binding))
                yield from solve(index + 1, binding)
                del binding[atom.var]

        yield from solve(0, {})
