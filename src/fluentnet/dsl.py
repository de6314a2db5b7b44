"""The textual fluent-model language and its compiler.

A fluent model is an expression over sensor-class references that asserts
an activity statement when satisfied.  Surface syntax::

    A3 := DOOR:+ <= FLOW:+ <= (conv(PLANT1:+, h3, d3) as WATERED
          & conv(PLANT2:+, h4, d4) as WATERED) <= DOOR:-
          where h3=3 h4=3 d3=30 s d4=30 s

``CLASS:+`` / ``CLASS:-`` matches a statement of that class with the given
state; ``<=`` is temporal precedence, ``&``/``|`` conjunction and
disjunction, ``+ dK`` shifts a time forward, and ``conv`` counts same-state
statements (a windowed pre-pass computed before rule evaluation).  Binary
operators share one precedence level and associate left; parenthesise for
anything else.  Files hold one model each, UTF-8, ``.fluent`` extension.

Compilation targets the rule engine: every precedence edge becomes one
``<=`` comparison between the anchor times of its operands, every shift one
additive assignment, and conjunctions order their operands so that the
right operand carries the aggregate (latest) timestamp.  Repeated
references to one class-and-state get pairwise distinct-instance guards.
Disjunction expands into one rule per alternative.  The compiler's atom
order is the join order: each leaf's class atom precedes its property
atoms, and every comparison and assignment follows the atoms that bind its
operands.  The rule engine joins class atoms in that order; it turns a
leaf's literal state test into a filter on its candidates and runs each
other test and comparison as soon as its operands are bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

from .context import STATE_PROP, TIME_PROP
from .rules import Assign, Atom, ClassAtom, Compare, Head, PropertyAtom, Rule

RESULT_CONCEPT = "ACTIVITY"

_UNITS = {"ms": 1, "s": 1000, "min": 60000}


class DslError(ValueError):
    """Base error for model parsing and compilation."""


class ParseError(DslError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnsupportedConstructError(DslError):
    """The expression uses a construct the compiler does not accept."""


# --------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class SensorRef:
    cls: str
    state: bool


@dataclass(frozen=True)
class ConvRef:
    """Windowed count over a class: at least ``min_count_param`` statements
    spanning ``window_param``; satisfied occurrences surface as statements
    of ``derived`` (default ``<CLASS>_WINDOW``)."""

    cls: str
    state: bool
    min_count_param: str
    window_param: str
    derived: Optional[str] = None


@dataclass(frozen=True)
class AndNode:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class OrNode:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class PrecNode:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class ShiftNode:
    child: "Node"
    param: str


Node = Union[SensorRef, ConvRef, AndNode, OrNode, PrecNode, ShiftNode]


@dataclass(frozen=True)
class ModelAst:
    name: str
    expr: Node
    params: tuple[tuple[str, int], ...] = ()

    def param_table(self) -> dict[str, int]:
        return dict(self.params)


def with_params(ast: ModelAst, overrides: dict[str, int]) -> ModelAst:
    """A copy of the model with parameter values replaced."""
    table = ast.param_table()
    for key, value in overrides.items():
        if key in table:
            table[key] = int(value)
    return replace(ast, params=tuple(sorted(table.items())))


# --------------------------------------------------------------------------
# Tokenizer

@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<define>:=)
  | (?P<state>:[+-])
  | (?P<prec><=)
  | (?P<number>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()&|+,=])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        value = match.group()
        kind = match.lastgroup or ""
        if kind not in ("ws", "comment"):
            if kind == "state":
                tokens.append(_Token("state", value == ":+", line, col))
            elif kind == "number":
                tokens.append(_Token("number", int(value), line, col))
            elif kind == "punct":
                tokens.append(_Token(value, value, line, col))
            else:
                tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = match.end()
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"expected {kind!r}, found {token.value!r}", token.line, token.col)
        return self.next()

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "name" and token.value == word

    def parse_model(self) -> ModelAst:
        name = self.expect("name").value
        self.expect("define")
        expr = self.parse_expr()
        params: tuple[tuple[str, int], ...] = ()
        if self.at_keyword("where"):
            self.next()
            params = self.parse_params()
        trailing = self.peek()
        if trailing.kind != "eof":
            raise ParseError(f"unexpected trailing {trailing.value!r}", trailing.line, trailing.col)
        return ModelAst(name=str(name), expr=expr, params=params)

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind in ("prec", "&", "|"):
            op = self.next()
            right = self.parse_term()
            if op.kind == "prec":
                node = PrecNode(node, right)
            elif op.kind == "&":
                node = AndNode(node, right)
            else:
                node = OrNode(node, right)
        return node

    def parse_term(self) -> Node:
        node = self.parse_primary()
        if self.peek().kind == "+":
            self.next()
            param = self.expect("name")
            node = ShiftNode(node, str(param.value))
        return node

    def parse_primary(self) -> Node:
        token = self.peek()
        if token.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if token.kind == "name" and token.value == "conv":
            return self.parse_conv()
        if token.kind == "name":
            self.next()
            state = self.expect("state")
            return SensorRef(cls=str(token.value), state=bool(state.value))
        raise ParseError(f"expected a sensor reference, found {token.value!r}", token.line, token.col)

    def parse_conv(self) -> Node:
        self.next()  # conv
        self.expect("(")
        cls = self.expect("name")
        state = self.expect("state")
        self.expect(",")
        count_param = self.expect("name")
        self.expect(",")
        window_param = self.expect("name")
        self.expect(")")
        derived: Optional[str] = None
        if self.at_keyword("as"):
            self.next()
            derived = str(self.expect("name").value)
        return ConvRef(
            cls=str(cls.value),
            state=bool(state.value),
            min_count_param=str(count_param.value),
            window_param=str(window_param.value),
            derived=derived,
        )

    def parse_params(self) -> tuple[tuple[str, int], ...]:
        table: dict[str, int] = {}
        while self.peek().kind == "name":
            name = str(self.next().value)
            self.expect("=")
            number = self.expect("number")
            value = int(number.value)
            if self.at_keyword("ms") or self.at_keyword("s") or self.at_keyword("min"):
                unit = str(self.next().value)
                value *= _UNITS[unit]
            table[name] = value
            if self.peek().kind == ",":
                self.next()
        if not table:
            token = self.peek()
            raise ParseError("expected at least one parameter after 'where'", token.line, token.col)
        return tuple(sorted(table.items()))


def _referenced_params(node: Node) -> set[str]:
    if isinstance(node, SensorRef):
        return set()
    if isinstance(node, ConvRef):
        return {node.min_count_param, node.window_param}
    if isinstance(node, ShiftNode):
        return {node.param} | _referenced_params(node.child)
    return _referenced_params(node.left) | _referenced_params(node.right)


def referenced_classes(node: Node) -> set[str]:
    if isinstance(node, SensorRef):
        return {node.cls}
    if isinstance(node, ConvRef):
        return {node.cls}
    if isinstance(node, ShiftNode):
        return referenced_classes(node.child)
    return referenced_classes(node.left) | referenced_classes(node.right)


def parse_model(text: str, known_classes: Optional[Iterable[str]] = None) -> ModelAst:
    """Parse one model definition, validating parameter and class names."""
    ast = _Parser(_tokenize(text)).parse_model()
    table = ast.param_table()
    missing = sorted(_referenced_params(ast.expr) - set(table))
    if missing:
        raise DslError(f"unknown parameter {missing[0]!r} in model {ast.name}")
    if known_classes is not None:
        known = set(known_classes)
        unknown = sorted(referenced_classes(ast.expr) - known)
        if unknown:
            raise DslError(f"unknown sensor class {unknown[0]!r} in model {ast.name}")
    return ast


# --------------------------------------------------------------------------
# Formatting

def _fmt(node: Node, top: bool = False) -> str:
    if isinstance(node, SensorRef):
        return f"{node.cls}:{'+' if node.state else '-'}"
    if isinstance(node, ConvRef):
        text = (
            f"conv({node.cls}:{'+' if node.state else '-'}, "
            f"{node.min_count_param}, {node.window_param})"
        )
        if node.derived:
            text += f" as {node.derived}"
        return text if top else f"({text})"
    if isinstance(node, ShiftNode):
        return f"({_fmt(node.child)} + {node.param})"
    if isinstance(node, (AndNode, OrNode, PrecNode)):
        op = "&" if isinstance(node, AndNode) else "|" if isinstance(node, OrNode) else "<="
        inner = f"{_fmt(node.left)} {op} {_fmt(node.right)}"
        return inner if top else f"({inner})"
    raise DslError(f"unknown node {node!r}")


def format_model(ast: ModelAst) -> str:
    """Canonical text such that ``parse_model(format_model(ast)) == ast``."""
    text = f"{ast.name} := {_fmt(ast.expr, top=True)}"
    if ast.params:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(ast.params))
        text += f" where {pairs}"
    return text + "\n"


# --------------------------------------------------------------------------
# Natural-language rendering

_LEAF_PHRASES = {
    ("DOOR", True): "the door was opened",
    ("DOOR", False): "the door was closed",
    ("ITEM", True): "the items were present",
    ("ITEM", False): "the items were absent",
    ("PHONE", True): "the phone was picked up",
    ("PHONE", False): "the phone was put down",
    ("FLOW", True): "the water was flowing",
    ("FLOW", False): "the water stopped",
}


def format_duration(ms: int) -> str:
    if ms % 60000 == 0 and ms >= 60000:
        return f"{ms // 60000} min"
    if ms % 1000 == 0 and ms >= 1000:
        return f"{ms // 1000} s"
    return f"{ms} ms"


def _phrase(node: Node, params: dict[str, int]) -> str:
    if isinstance(node, SensorRef):
        default = (
            f"the person was in the {node.cls} area"
            if node.state
            else f"the {node.cls} statement became false"
        )
        return _LEAF_PHRASES.get((node.cls, node.state), default)
    if isinstance(node, ConvRef):
        window = format_duration(params[node.window_param])
        count = params[node.min_count_param]
        return (
            f"the person stayed in the {node.cls} area for {window} "
            f"(at least {count} sightings)"
        )
    if isinstance(node, ShiftNode):  # the moment ``gap`` after the child; PrecNode reads a left operand
        return f"{format_duration(params[node.param])} had passed since {_phrase(node.child, params)}"
    if isinstance(node, AndNode):  # compiled like ``<=``: the right operand is no earlier
        return f"{_phrase(node.left, params)} and, no earlier, {_phrase(node.right, params)}"
    if isinstance(node, OrNode):
        return f"either {_phrase(node.left, params)} or {_phrase(node.right, params)}"
    if isinstance(node, PrecNode):
        left = node.left
        if isinstance(left, ShiftNode):
            gap = format_duration(params[left.param])
            return (
                f"{_phrase(left.child, params)}, then after {gap}, "
                f"{_phrase(node.right, params)}"
            )
        return f"{_phrase(left, params)}, then {_phrase(node.right, params)}"
    raise DslError(f"unknown node {node!r}")


def render_sentence(ast: ModelAst) -> str:
    """One plain-language sentence describing when the model holds."""
    body = _phrase(ast.expr, ast.param_table())
    return f"{ast.name} holds when {body}."


# --------------------------------------------------------------------------
# Compilation

@dataclass(frozen=True)
class Prepass:
    """A windowed count computed imperatively before rule evaluation.

    Statements of ``source_concept`` with ``target_state`` are scanned; when
    at least ``min_count`` of them span at least ``window_ms`` (earliest to
    latest) a statement of ``derived_concept`` is asserted, true, stamped
    with the latest time."""

    source_concept: str
    target_state: bool
    window_ms: int
    min_count: int
    derived_concept: str


@dataclass(frozen=True)
class CompiledModel:
    name: str
    rules: tuple[Rule, ...]
    prepasses: tuple[Prepass, ...]


@dataclass
class _Branch:
    atoms: list[Atom] = field(default_factory=list)
    leaves: list[tuple[str, bool, str]] = field(default_factory=list)
    anchor: str = ""


class _Compiler:
    def __init__(self, ast: ModelAst) -> None:
        self.ast = ast
        self.params = ast.param_table()
        self.counter = 0
        self.prepasses: dict[str, Prepass] = {}

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"?{prefix}{self.counter}"

    def compile(self) -> CompiledModel:
        branches = self.emit(self.ast.expr)
        for prepass in self.prepasses.values():
            if prepass.source_concept in {p.derived_concept for p in self.prepasses.values()}:
                raise UnsupportedConstructError(
                    f"convolution over convolution result {prepass.source_concept!r}"
                )
        rules = []
        for index, branch in enumerate(branches):
            atoms = list(branch.atoms)
            atoms.extend(self.distinct_guards(branch))
            name = self.ast.name if len(branches) == 1 else f"{self.ast.name}__{index + 1}"
            head = Head(
                instance_id=self.ast.name,
                concepts=(RESULT_CONCEPT,),
                state=True,
                time=branch.anchor,
            )
            rules.append(Rule(name=name, body=tuple(atoms), head=head))
        return CompiledModel(
            name=self.ast.name,
            rules=tuple(rules),
            prepasses=tuple(self.prepasses.values()),
        )

    def distinct_guards(self, branch: _Branch) -> list[Atom]:
        guards: list[Atom] = []
        groups: dict[tuple[str, bool], list[str]] = {}
        for concept, state, var in branch.leaves:
            groups.setdefault((concept, state), []).append(var)
        for (_, _), variables in sorted(groups.items()):
            for i in range(len(variables)):
                for j in range(i + 1, len(variables)):
                    guards.append(Compare("!=", variables[i], variables[j]))
        return guards

    def value(self, param: str) -> int:
        try:
            return self.params[param]
        except KeyError:
            raise DslError(f"unknown parameter {param!r} in model {self.ast.name}") from None

    def leaf(self, concept: str, state: bool) -> _Branch:
        inst = self.fresh("x")
        time = self.fresh("t")
        branch = _Branch(anchor=time)
        branch.atoms = [
            ClassAtom(concept, inst),
            PropertyAtom(STATE_PROP, inst, state),
            PropertyAtom(TIME_PROP, inst, time),
        ]
        branch.leaves = [(concept, state, inst)]
        return branch

    def emit(self, node: Node) -> list[_Branch]:
        if isinstance(node, SensorRef):
            return [self.leaf(node.cls, node.state)]
        if isinstance(node, ConvRef):
            derived = node.derived or f"{node.cls}_WINDOW"
            key = f"{node.cls}/{node.state}/{node.min_count_param}/{node.window_param}/{derived}"
            self.prepasses.setdefault(
                key,
                Prepass(
                    source_concept=node.cls,
                    target_state=node.state,
                    window_ms=self.value(node.window_param),
                    min_count=self.value(node.min_count_param),
                    derived_concept=derived,
                ),
            )
            return [self.leaf(derived, True)]
        if isinstance(node, ShiftNode):
            out = []
            for branch in self.emit(node.child):
                shifted = self.fresh("a")
                branch.atoms.append(Assign(shifted, branch.anchor, self.value(node.param)))
                branch.anchor = shifted
                out.append(branch)
            return out
        if isinstance(node, OrNode):
            return self.emit(node.left) + self.emit(node.right)
        if isinstance(node, (AndNode, PrecNode)):
            out = []
            for left in self.emit(node.left):
                for right in self.emit(node.right):
                    combined = _Branch(
                        atoms=list(left.atoms) + list(right.atoms),
                        leaves=list(left.leaves) + list(right.leaves),
                        anchor=right.anchor,
                    )
                    combined.atoms.append(Compare("<=", left.anchor, right.anchor))
                    out.append(combined)
            return out
        raise DslError(f"unknown node {node!r}")


def compile_model(ast: ModelAst) -> CompiledModel:
    """Compile a parsed model to rules plus windowed pre-pass specs."""
    return _Compiler(ast).compile()
