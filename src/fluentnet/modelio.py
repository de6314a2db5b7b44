"""Declarative plain-text model files for knowledge contexts.

One format family covers both store models and the network description:
bracketed section headers, one declaration per line, ``#`` comments,
shell-style quoting for values with spaces; a section header a reader does
not know is an error.  A declaration line splits into the tokens POSIX
``shlex.split(line, comments=True)`` gives; a line with no quote and no
backslash is cut at its first ``#`` (which ends such a line even inside a
word) and split on blanks, which gives the same tokens without
:mod:`shlex`.  A store model declares the
concept graph, the sensor installation table and any plain instances::

    [concepts]
    STATEMENT SENSOR DOOR LOCATION FURNITURE PERSON
    [properties]
    isIn isNearTo
    [subclass]
    SENSOR STATEMENT
    DOOR SENSOR
    [disjoint]
    LOCATION FURNITURE
    [defined]
    PERSON := isIn LOCATION >= 1 & isNearTo FURNITURE >= 1
    [instances]
    K KITCHEN
    [person]
    P
    [sensors]
    D7 DOOR isIn=KITCHEN installed=MEDICINE,COOKING
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, TypeVar

from .context import (
    OVERWRITE,
    ConceptGraph,
    ContextStore,
    DefinedClass,
    GraphError,
    Restriction,
    SensorDecl,
    UnknownConceptError,
)


T = TypeVar("T")

# A line holding none of these splits into the same tokens without shlex.
_SHELL_SYNTAX = re.compile(r"['\"\\]")
_WORD = re.compile(r"[^ \t\r\n]+")  # shlex's only blanks are these four


class ConfigError(ValueError):
    """Malformed declarative file; message carries the line number."""


@dataclass(frozen=True)
class ConfigLine:
    tokens: tuple[str, ...]
    lineno: int


def read_sections(text: str, known: tuple[str, ...]) -> dict[str, list[ConfigLine]]:
    """Split a declarative file into its bracketed sections; a section not
    in ``known`` is an error."""
    sections: dict[str, list[ConfigLine]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in known:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: declaration before any section header")
        if _SHELL_SYNTAX.search(line) is None:
            tokens = tuple(_WORD.findall(line.partition("#")[0]))
        else:
            try:
                tokens = tuple(shlex.split(line, comments=True))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        if tokens:
            sections[current].append(ConfigLine(tokens=tokens, lineno=lineno))
    return sections


def split_options(line: ConfigLine) -> tuple[list[str], dict[str, str]]:
    """Separate a line's positional tokens from its key=value options; an
    option given twice is an error."""
    positional: list[str] = []
    options: dict[str, str] = {}
    for token in line.tokens:
        if "=" in token and not token.startswith("="):
            key, value = token.split("=", 1)
            if key in options:
                raise ConfigError(f"line {line.lineno}: option {key!r} given twice")
            options[key] = value
        else:
            positional.append(token)
    return positional, options


@dataclass
class StoreModel:
    """Parsed store model, ready to be instantiated as a context."""

    graph: ConceptGraph
    installations: dict[str, SensorDecl] = field(default_factory=dict)
    instances: list[tuple[str, tuple[str, ...], dict[str, list[str]]]] = field(default_factory=list)
    person_id: Optional[str] = None
    presence_concept: str = "SENSOR"


def _parse_defined(line: ConfigLine) -> DefinedClass:
    tokens = list(line.tokens)
    if len(tokens) < 3 or tokens[1] != ":=":
        raise ConfigError(f"line {line.lineno}: defined class must read 'NAME := ...'")
    name = tokens[0]
    rest = tokens[2:]
    conjuncts: list[list[str]] = [[]]
    for token in rest:
        if token == "&":
            conjuncts.append([])
        else:
            conjuncts[-1].append(token)
    bases: list[str] = []
    restrictions: list[Restriction] = []
    for conjunct in conjuncts:
        if not conjunct:
            raise ConfigError(f"line {line.lineno}: empty conjunct in defined class {name}")
        if conjunct[0] == "base":
            if len(conjunct) != 2:
                raise ConfigError(f"line {line.lineno}: 'base' takes one concept")
            bases.append(conjunct[1])
            continue
        if len(conjunct) == 2:
            prop, target = conjunct
            restrictions.append(Restriction(prop=prop, target=target))
        elif len(conjunct) == 4 and conjunct[2] in (">=", "<=", "==") and conjunct[3].isdecimal():
            prop, target, bound, count = conjunct
            restrictions.append(Restriction(prop=prop, target=target, bound=bound, count=int(count)))
        else:
            raise ConfigError(
                f"line {line.lineno}: restriction must read 'prop TARGET [>=|<=|== N]'"
            )
    return DefinedClass(name=name, bases=tuple(bases), restrictions=tuple(restrictions))


STORE_SECTIONS = (
    "concepts", "properties", "subclass", "disjoint", "defined", "instances", "person", "sensors",
)


def _declare(line: ConfigLine, add, *args) -> None:
    """Apply one graph declaration; a rejected one is a :class:`ConfigError`
    on its line."""
    try:
        add(*args)
    except (GraphError, UnknownConceptError) as exc:
        raise ConfigError(f"line {line.lineno}: {exc}") from exc


def _require_declared(line: ConfigLine, kind: str, names, declared) -> None:
    """A name on ``line`` that is not in ``declared`` is a :class:`ConfigError`."""
    for name in names:
        if name not in declared:
            raise ConfigError(f"line {line.lineno}: unknown {kind} {name!r}")


def parse_store_model(text: str) -> StoreModel:
    sections = read_sections(text, STORE_SECTIONS)
    graph = ConceptGraph()
    for line in sections.get("concepts", []):
        for name in line.tokens:
            graph.add_concept(name)
    for line in sections.get("properties", []):
        for name in line.tokens:
            graph.add_property(name)
    for line in sections.get("subclass", []):
        if len(line.tokens) != 2:
            raise ConfigError(f"line {line.lineno}: subclass line must read 'CHILD PARENT'")
        _declare(line, graph.add_subclass, *line.tokens)
    for line in sections.get("disjoint", []):
        if len(line.tokens) != 2:
            raise ConfigError(f"line {line.lineno}: disjoint line must read 'A B'")
        _declare(line, graph.add_disjoint, *line.tokens)
    for line in sections.get("defined", []):
        _declare(line, graph.add_defined, _parse_defined(line))

    model = StoreModel(graph=graph)

    for line in sections.get("instances", []):
        positional, options = split_options(line)
        if len(positional) != 2:
            raise ConfigError(f"line {line.lineno}: instance line must read 'ID CONCEPT[,CONCEPT]'")
        instance_id, concepts = positional
        _require_declared(line, "concept", concepts.split(","), graph.concepts)
        _require_declared(line, "property", options, graph.properties)
        props = {key: value.split(",") for key, value in options.items()}
        model.instances.append((instance_id, tuple(concepts.split(",")), props))

    for line in sections.get("person", []):
        positional, options = split_options(line)
        if len(positional) != 1:
            raise ConfigError(f"line {line.lineno}: person line must name one instance")
        if model.person_id is not None:
            raise ConfigError(f"line {line.lineno}: only one person instance is supported")
        unknown = set(options) - {"presence"}
        if unknown:
            raise ConfigError(f"line {line.lineno}: unknown person option {sorted(unknown)[0]!r}")
        model.person_id = positional[0]
        if "presence" in options:
            model.presence_concept = options["presence"]

    for line in sections.get("sensors", []):
        positional, options = split_options(line)
        if len(positional) != 2:
            raise ConfigError(f"line {line.lineno}: sensor line must read 'ID CLASS[,CLASS]'")
        sensor_id, classes = positional
        concepts = list(classes.split(","))
        for extra in options.get("installed", "").split(","):
            if extra:
                concepts.append(extra)
        properties: list[tuple[str, str]] = []
        for prop in ("isIn", "isNearTo"):
            value = options.get(prop)
            if value:
                for target in value.split(","):
                    properties.append((prop, target))
        unknown = set(options) - {"installed", "isIn", "isNearTo"}
        if unknown:
            raise ConfigError(f"line {line.lineno}: unknown sensor option {sorted(unknown)[0]!r}")
        if sensor_id in model.installations:
            raise ConfigError(f"line {line.lineno}: duplicate sensor {sensor_id!r}")
        _require_declared(line, "concept", concepts, graph.concepts)
        model.installations[sensor_id] = SensorDecl(
            sensor_id=sensor_id, concepts=tuple(concepts), properties=tuple(properties)
        )
    return model


def build_store(name: str, model: StoreModel, mode: str = OVERWRITE) -> ContextStore:
    """Instantiate a context from its parsed model; ``mode`` is how it keeps
    statements asserted without an explicit mode."""
    store = ContextStore(
        name=name,
        graph=model.graph,
        installations=model.installations,
        person_id=model.person_id,
        default_mode=mode,
        presence_concept=model.presence_concept,
    )
    for instance_id, concepts, props in model.instances:
        store.add_instance(instance_id, concepts, props)
    if model.person_id is not None and model.person_id not in store.instances:
        store.add_instance(model.person_id, ("PERSON",))
    return store


def read_config(path, parse: Callable[[str], T]) -> T:
    """``parse`` applied to a configuration file's text; a
    :class:`ConfigError` it raises names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse(text)
    except ConfigError as exc:
        raise ConfigError(f"{Path(path).name}: {exc}") from exc


def load_store_model(path) -> StoreModel:
    """Parse a store model file; a :class:`ConfigError` names the file."""
    return read_config(path, parse_store_model)
