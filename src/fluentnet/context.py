"""Lightweight knowledge contexts: concept graphs, instances, classification.

A :class:`ContextStore` is one node of the network.  It holds a concept
hierarchy with subsumption, disjointness and defined classes, plus a set of
instances carrying property assertions.  Classification is closed-world:
cardinality restrictions count only the targets actually asserted, which
keeps minima/maxima computable without escaping to a separate reasoner.

Complexity is tracked as an axiom count:

    |concepts| + |subclass edges| + |defined-class restrictions|
    + per instance (|asserted concepts| + |property assertions|)

The count is maintained incrementally; inferred knowledge (classification
results, the person context) is not part of it.  The from-scratch recount
it must always equal, ``recount_axioms``, lives in ``tests/oracles.py``.

A store's cached classification is its only classified state: brought up
to date on the first read after a mutation and handed out read-only.  The
person context and the answers of the watched patterns are derived from
it, and readers such as the scheduler's pattern checks read a watch
(:meth:`ContextStore.watch`) instead of walking the store's instances.
The dirty set below is the one stale marker: the cache is current exactly
when the set is empty, and ``None`` (before the first read, and after a
new watch or kept list) makes the next read recompute every instance.

Classification is maintained from a dirty set: the ids written or removed
since the last read.  One fixpoint routine reclassifies the dirty instances
alone, reading every other membership from the cache, when that is exact:

- no instance refers to a dirty one (a reverse index maps each id to the
  instances whose property values name it, dangling names included), so no
  other membership can change;
- every instance a dirty one refers to holds only its asserted closure, so
  the dirty instance sees the same targets at every pass of a full fixpoint,
  and neither a ``<=`` count nor a disjointness block can depend on the
  pass order.  This is read off the cache: a cached membership always
  contains its record's closure, so one larger than it is enriched.

Otherwise, and on the first read, the same routine runs over every
instance.  A removal with no referrers just drops the entry.  The person
context is counted the same way: each present, true instance of the
presence concept contributes its ``isIn``/``isNearTo`` pairs, only the
dirty instances' contributions are recounted, and
:meth:`ContextStore.infer_person_context` reads the counted pairs on
demand.  :attr:`ContextStore.reclassified` counts the instances
reclassified, so the work per write can be checked.

A write derives once what its declaration fixes.  The graph keeps a
:class:`WriteTemplate` per ``(statement id, concepts)``, built on the
first write by the checked derivation: the asserted set, its closure
(clash-free, or the write raises), the declared property values checked
against the graph's properties, the ids they name, the pairs they lend
the person and the record's weight.  A later write looks it up, and
rebuilds it when the store's installation is not the :class:`SensorDecl`
it was built from.  A record is its template plus three slots: the
state, the time and ``seq``, the store's ``mutation_seq`` after the write
that made it; a plain instance's template is derived for it alone.  One
module-level builder fills a record's slots directly, with no dataclass
``__init__``, and the record refuses every later assignment.

A write pays only for what its template changes.  The template fixes the
record's weight and the ids it names, so a write whose previous record
has the same template (a sensor's every reading after its first, every
rewrite of the sync statement) replaces the record and marks the id
dirty, and leaves the axiom count and the reference index as they are.
Template identity decides: a rebuilt template, other ``concepts`` or a
plain instance (whose template is its own) takes the full write.

On the local path, the fixpoint's result for a statement record is a
function of the template, the state and the memberships of the ids the
template names (``None`` for a dangling name), so the graph memoises it
under that key (``ConceptGraph.membership_memo``).  The key holds
everything the fixpoint reads: the closure and the declared values come
with the template; the time is a natural number (the write checks it as
a :class:`Statement` does), so it meets a ``NATURAL`` restriction and no
other; and by the local path's two conditions no named id is dirty and
each holds only its asserted closure, so the memberships in the key are
the ones the fixpoint reads throughout.  The memo caches the one
fixpoint; it is not a second classifier.  :attr:`ContextStore.fixpointed` counts the
instances run through the fixpoint, which a memo hit is not.  Templates
and memo live on the graph, which every store of a node shares across a
scenario's replays, so they stay warm from one participant to the next.
Every graph mutator (``add_concept``, ``add_property``, ``add_subclass``,
``add_disjoint``, ``add_defined``) clears them, so the stores built after an
edit derive under it.  The graph keeps no closure cache: a template holds
its statement's closure, so :meth:`ConceptGraph.closure` runs only when a
template is built or a plain instance is added.

The answers to the ``PERSON:prop:TARGET`` patterns a reader watches
(:meth:`ContextStore.watch`) are kept by counting: each watch counts the
person's ``prop`` pairs whose target is classified under ``TARGET``.  A
count moves only when a pair appears or disappears (a presence count goes
to or from 0), or when a dirty id is a current pair target (its membership
moved, or a dangling name appeared): such a pair is uncounted under the
old membership and counted again under the new one.  A full recompute
counts every watch afresh.  A watch's answer is read off its count (some
pair matches), so nothing else is kept per watch.  This is counting-based
view maintenance (Gupta, Mumick & Subrahmanian, SIGMOD 1993).  A watch's
answer is the only answer to its pattern in the program; the tests check
it against one read off the person context and the classification.

What an evaluation reads is kept the same way.  A reader registers a
concept (:meth:`ContextStore.keep`) and the store keeps that concept's
records in snapshot order, ``(time, id)`` with untimed records last; with a
state it keeps a tally, the concept's statements in that state, whose
length and ends give a pre-pass its count, earliest and latest time
(:meth:`ContextStore.tally`).  One routine places records: it moves each
dirty id out of the lists it was placed in and into the lists its new
record and membership admit, so a defined-class flip and an out-of-order
write land where a rebuild would put them.  A full recompute gives every
kept list a new empty list and places every record in snapshot order, so
each is appended.  :attr:`ContextStore.index_work` counts the records
placed and the tally members read.  Each kept list counts the records
placed in it and removed from it in a version, and a full recompute moves
every version, so a reader that noted the versions can tell that none of
its lists changed since.

A snapshot reads the store in place: its record map, its classification
and its kept lists, with the ``(concept, state)`` map of the lists taken
when the snapshot is made.  It copies and sorts nothing, so it costs the
same whatever the node's size, and it is valid until the store's next
write: every reader raises a :class:`StoreError` once the store's
``mutation_seq`` has moved.  A new kept list or watch is not a write: the
full recompute it brings gives the store new lists and a new membership
map, and leaves the ones a snapshot holds as they were.

A snapshot hands out only what the store keeps: :meth:`Snapshot.of_concept`
of a ``(concept, state)`` with no kept list raises, so a reader registers
what it reads (:meth:`ContextStore.keep`) before it takes the snapshot.  A state list is
also the rule matcher's answer to the literal test ``hasState state``
(``state in`` the record's ``hasState`` values) on the concept.  Only
:meth:`ContextStore.assert_statement` writes ``hasState`` and ``hasTime``:
a plain instance or a declaration naming either is rejected at the write.
So every record with a state is a statement with one bool state and a
time, and the list and the test agree on every record by construction.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union

from .statements import RAW, Statement, StatementSet, check_statement

STATE_PROP = "hasState"
TIME_PROP = "hasTime"

# the properties whose targets a present sensor lends the person
PAIR_PROPS = ("isIn", "isNearTo")

# Literal domains usable as restriction targets alongside concept names.
BOOLEAN_DOMAIN = "BOOLEAN"
NATURAL_DOMAIN = "NATURAL"
TRUE_LITERAL = "TRUE"
FALSE_LITERAL = "FALSE"
_LITERAL_TARGETS = {BOOLEAN_DOMAIN, NATURAL_DOMAIN, TRUE_LITERAL, FALSE_LITERAL}

PropValue = Union[str, bool, int]


class GraphError(ValueError):
    """Malformed concept graph: cycles, dangling references, duplicates."""


class ConsistencyError(Exception):
    """An assertion would place an instance in two disjoint concepts."""


class UnknownConceptError(ValueError):
    """A query or assertion referenced a concept the graph does not define."""


class StoreError(ValueError):
    """Store-level misuse (unknown sensor, missing person declaration)."""


@dataclass(frozen=True)
class Restriction:
    """One conjunct of a defined class: a cardinality bound on a property.

    ``target`` names either a concept or a literal domain (BOOLEAN/NATURAL)
    or a required literal value (TRUE/FALSE).  ``bound`` is one of
    ``>=``, ``<=``, ``==``.
    """

    prop: str
    target: str
    bound: str = ">="
    count: int = 1

    def __post_init__(self) -> None:
        if self.bound not in (">=", "<=", "=="):
            raise GraphError(f"unknown cardinality bound {self.bound!r}")
        if self.count < 0:
            raise GraphError("cardinality count must be >= 0")


@dataclass(frozen=True)
class DefinedClass:
    """A concept whose membership is inferred from bases plus restrictions."""

    name: str
    bases: tuple[str, ...] = ()
    restrictions: tuple[Restriction, ...] = ()


class ConceptGraph:
    """Concept hierarchy: named concepts, acyclic subclass edges, disjoint
    pairs and defined classes.

    The graph also holds what the stores built on it derive alike: the
    write templates and the membership memo (see the module docstring).
    Every mutator clears them, so a store built after an edit derives under
    the edited graph.  Edit a graph before building the stores that read
    it: a store built earlier keeps the records and the classification it
    derived before the edit.
    """

    def __init__(self) -> None:
        self.concepts: set[str] = set()
        self.properties: set[str] = {STATE_PROP, TIME_PROP}
        self._parents: dict[str, set[str]] = {}
        self.subclass_edges: set[tuple[str, str]] = set()
        self.disjoint: set[frozenset[str]] = set()
        self.defined: dict[str, DefinedClass] = {}
        self._super_cache: dict[str, frozenset[str]] = {}
        self._defined_order: Optional[tuple[DefinedClass, ...]] = None
        # (statement id, concepts) -> the write template
        self._templates: dict[tuple, WriteTemplate] = {}
        # (template, state, each named id's membership) -> the membership
        self.membership_memo: dict[tuple, frozenset[str]] = {}

    def _edited(self) -> None:
        self._super_cache.clear()
        self._defined_order = None
        self._templates.clear()
        self.membership_memo.clear()

    def add_concept(self, name: str) -> None:
        if not name:
            raise GraphError("concept name must be non-empty")
        self.concepts.add(name)
        self._parents.setdefault(name, set())
        self._edited()

    def add_property(self, name: str) -> None:
        if not name:
            raise GraphError("property name must be non-empty")
        self.properties.add(name)
        self._edited()

    def add_subclass(self, child: str, parent: str) -> None:
        for name in (child, parent):
            if name not in self.concepts:
                raise UnknownConceptError(f"unknown concept {name!r}")
        # the subclass relation must stay a DAG
        if child in self._reachable(parent):
            raise GraphError(f"subclass edge {child} -> {parent} would create a cycle")
        self.subclass_edges.add((child, parent))
        self._parents[child].add(parent)
        self._edited()

    def _reachable(self, start: str) -> set[str]:
        seen: set[str] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._parents.get(node, ()))
        return seen

    def add_disjoint(self, a: str, b: str) -> None:
        for name in (a, b):
            if name not in self.concepts:
                raise UnknownConceptError(f"unknown concept {name!r}")
        if a == b:
            raise GraphError(f"concept {a!r} cannot be disjoint with itself")
        self.disjoint.add(frozenset((a, b)))
        self._edited()

    def add_defined(self, defined: DefinedClass) -> None:
        if defined.name not in self.concepts:
            raise UnknownConceptError(f"unknown concept {defined.name!r}")
        for base in defined.bases:
            if base not in self.concepts:
                raise UnknownConceptError(f"unknown base concept {base!r}")
        for restriction in defined.restrictions:
            if restriction.prop not in self.properties:
                raise GraphError(f"unknown property {restriction.prop!r}")
            if restriction.target not in self.concepts and restriction.target not in _LITERAL_TARGETS:
                raise UnknownConceptError(f"unknown restriction target {restriction.target!r}")
        self.defined[defined.name] = defined
        self._edited()

    def defined_order(self) -> tuple[DefinedClass, ...]:
        """The defined classes in name order: the order classification
        applies them in."""
        if self._defined_order is None:
            self._defined_order = tuple(self.defined[name] for name in sorted(self.defined))
        return self._defined_order

    def supers(self, concept: str) -> frozenset[str]:
        """Reflexive-transitive superclasses of a concept."""
        if concept not in self.concepts:
            raise UnknownConceptError(f"unknown concept {concept!r}")
        cached = self._super_cache.get(concept)
        if cached is None:
            cached = frozenset(self._reachable(concept))
            self._super_cache[concept] = cached
        return cached

    def closure(self, asserted: frozenset[str]) -> tuple[frozenset[str], Optional[tuple[str, str]]]:
        """The asserted concepts with their superclasses, and a disjoint
        pair that closure holds (``None`` when it holds none)."""
        closure = frozenset().union(*map(self.supers, asserted))
        return closure, self.violates_disjointness(closure)

    def template(
        self,
        statement_id: str,
        concepts: Optional[tuple[str, ...]],
        decl: Optional[SensorDecl],
    ) -> WriteTemplate:
        """The template of a write of ``statement_id`` under ``concepts``
        (``None``: the declaration's) by the installation ``decl``: looked
        up, or built by the checked derivation on the first write and
        whenever ``decl`` is not the one it was built from."""
        key = (statement_id, concepts)
        template = self._templates.get(key)
        if template is None or template.decl is not decl:
            declared: dict[str, tuple[PropValue, ...]] = {}
            for prop, value in decl.properties if decl is not None else ():
                declared[prop] = declared.get(prop, ()) + (value,)
            asserted = frozenset(decl.concepts if concepts is None else concepts)
            template = _derive(self, decl, asserted, declared, f"statement {statement_id!r}", 2)
            self._templates[key] = template
        return template

    def violates_disjointness(self, memberships: frozenset[str]) -> Optional[tuple[str, str]]:
        """The disjoint pair held by ``memberships`` that sorts first by
        name (``None`` when it holds none), whatever the set's order."""
        return min((tuple(sorted(pair)) for pair in self.disjoint if pair <= memberships), default=None)

    def axiom_terms(self) -> int:
        restrictions = sum(len(d.restrictions) for d in self.defined.values())
        return len(self.concepts) + len(self.subclass_edges) + restrictions


@dataclass(frozen=True)
class SensorDecl:
    """Prior knowledge about one installed sensor: the concepts it is
    asserted under and its fixed spatial properties."""

    sensor_id: str
    concepts: tuple[str, ...]
    properties: tuple[tuple[str, PropValue], ...] = ()


def _derive(
    graph: ConceptGraph, decl: Optional[SensorDecl], asserted: frozenset[str], declared: dict, label: str, stated: int
) -> WriteTemplate:
    """The checked derivation of a write's template.  Every declared
    property is known to the graph and none is ``hasState`` or ``hasTime``,
    which only a statement's write states; the closure of ``asserted`` is
    clash-free, or a :class:`ConsistencyError` names ``label``.  ``stated``
    counts the values the write itself states: two for a statement's state
    and time, none for a plain instance."""
    for prop in declared:
        if prop not in graph.properties:
            raise StoreError(f"unknown property {prop!r}")
        if prop in (STATE_PROP, TIME_PROP):
            raise StoreError(f"{label} cannot declare {prop}: only a statement carries it")
    closure, clash = graph.closure(asserted)
    if clash:
        raise ConsistencyError(f"{label} cannot be both {clash[0]} and {clash[1]}")
    names = frozenset(v for values in declared.values() for v in values if isinstance(v, str))
    pairs = frozenset((prop, v) for prop in PAIR_PROPS for v in declared.get(prop, ()) if isinstance(v, str))
    weight = len(asserted) + stated + sum(map(len, declared.values()))
    return WriteTemplate(decl, asserted, closure, MappingProxyType(declared), names, pairs, weight)


@dataclass(frozen=True, eq=False, slots=True)
class WriteTemplate:
    """What every write of one statement id under one declaration derives
    alike, checked once: the asserted concepts and their clash-free
    closure, the declared property values grouped by property (``declared``,
    a read-only map, each property known to the graph), the ids they name,
    the pairs they lend the person when present and the record's axiom
    weight.  It holds for the installation ``decl`` it was built from
    (``None``: none).  A plain instance's template is its own."""

    decl: Optional[SensorDecl]
    asserted: frozenset[str]
    closure: frozenset[str]
    declared: Mapping[str, tuple[PropValue, ...]]
    names: frozenset[str]
    pairs: frozenset[tuple[str, str]]
    weight: int


class StoreInstance:
    """One stored instance, built once per write and never changed: its
    write's template plus ``state``, ``time`` and ``seq``.

    ``state`` and ``time`` are the statement's (``None`` for a plain
    instance, which carries neither) and ``seq`` the store's
    ``mutation_seq`` after the write that made the record.  The asserted
    concepts, their closure, the declared values and the weight stay on
    the template; :meth:`prop_values` reads one property's values.  A
    write replaces the record whole, so snapshots and the rule matcher
    read it in place.  Records compare by identity, assigning or deleting
    a field raises :class:`FrozenInstanceError`, and :func:`_record` is
    the one way to build one.
    """

    __slots__ = ("id", "template", "state", "time", "seq", "kind")

    id: str
    template: WriteTemplate
    state: Optional[bool]
    time: Optional[int]
    seq: int
    kind: str

    asserted = property(attrgetter("template.asserted"))
    closure = property(attrgetter("template.closure"))
    weight = property(attrgetter("template.weight"))

    def __setattr__(self, name: str, *value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def prop_values(self, prop: str) -> tuple[PropValue, ...]:
        if self.time is not None and (prop == STATE_PROP or prop == TIME_PROP):
            return (self.state,) if prop == STATE_PROP else (self.time,)
        return self.template.declared.get(prop, ())

    def is_statement(self) -> bool:
        return self.time is not None


_new_record = object.__new__
# the slots' own setters, which the frozen __setattr__ does not guard
_set_id, _set_template, _set_state, _set_time, _set_seq, _set_kind = (
    getattr(StoreInstance, name).__set__ for name in StoreInstance.__slots__
)


def _record(
    instance_id: str, template: WriteTemplate, state: Optional[bool], time: Optional[int], seq: int, kind: str
) -> StoreInstance:
    """A new record: six slot stores, with none of a dataclass
    ``__init__``'s per-field ``object.__setattr__`` calls."""
    record = _new_record(StoreInstance)
    _set_id(record, instance_id)
    _set_template(record, template)
    _set_state(record, state)
    _set_time(record, time)
    _set_seq(record, seq)
    _set_kind(record, kind)
    return record


@dataclass(eq=False, slots=True)
class PatternWatch:
    """A watched ``PERSON:prop:TARGET`` pattern: how many of the person's
    ``prop`` pairs have a target classified under ``target_concept``, and
    the answer, whether there is one.  The store keeps the count current as
    of its last :meth:`ContextStore.classify`."""

    prop: str
    target_concept: str
    matches: int = 0

    @property
    def answer(self) -> bool:
        return self.matches > 0


def snapshot_order(record: StoreInstance) -> tuple:
    """The key of snapshot order: by time, then id, untimed records last."""
    return (record.time is None, record.time, record.id)


@dataclass(eq=False, slots=True)
class KeptList:
    """The records classified under ``concept`` in snapshot order or, with a
    ``state``, a tally: the statements among them whose state is ``state``.
    The store keeps it current as of its last :meth:`ContextStore.classify`.
    ``version`` moves whenever a record is placed in the list or removed
    from it, and on every full recompute, so equal versions mean the same
    records.  Snapshots read the lists in place by ``(concept, state)``;
    there a tally is the rule matcher's list of the records passing
    ``hasState state`` (see the module docstring)."""

    concept: str
    state: Optional[bool] = None
    records: list[StoreInstance] = field(default_factory=list)
    version: int = 0


OVERWRITE = "overwrite"
APPEND = "append"

_NO_NAMES: frozenset[str] = frozenset()
_NO_PAIRS: frozenset[tuple[str, str]] = frozenset()


class ContextStore:
    """One network node: a concept graph plus mutable instances.

    All mutation happens on a single logical thread; :meth:`snapshot` hands
    out views of the store that are valid until its next write.
    """

    def __init__(
        self,
        name: str,
        graph: ConceptGraph,
        installations: Mapping[str, SensorDecl] | None = None,
        person_id: Optional[str] = None,
        default_mode: str = OVERWRITE,
        presence_concept: str = "SENSOR",
    ) -> None:
        if default_mode not in (OVERWRITE, APPEND):
            raise StoreError(f"unknown reasoner mode {default_mode!r}")
        self.name = name
        self.graph = graph
        self.installations: dict[str, SensorDecl] = dict(installations or {})
        self.person_id = person_id
        self.default_mode = default_mode
        self.presence_concept = presence_concept
        self.instances: dict[str, StoreInstance] = {}
        self.mutation_seq = 0
        self._sequence: dict[str, int] = {}
        self._axioms = graph.axiom_terms()
        # the cached classification and its read-only view, and the ids
        # changed since it was read (None: recompute every instance)
        self._memberships: dict[str, frozenset[str]] = {}
        self._classification: Mapping[str, frozenset[str]] = MappingProxyType(self._memberships)
        self._dirty: Optional[set[str]] = None
        self._reclassified = 0
        self._fixpointed = 0
        # id -> the ids its property values name, and the reverse
        self._refs: dict[str, frozenset[str]] = {}
        self._referrers: dict[str, set[str]] = {}
        # person context: each instance's pairs, and how many instances hold each pair
        self._contributions: dict[str, frozenset[tuple[str, str]]] = {}
        self._presence: dict[tuple[str, str], int] = {}
        # watched PERSON:prop:TARGET patterns, by (prop, target) and by prop
        self._watches: dict[tuple[str, str], PatternWatch] = {}
        self._watches_by_prop: dict[str, list[PatternWatch]] = {}
        # kept lists by (concept, state) and by concept, and each kept id's
        # record as placed with the lists it was placed in
        self._kept: dict[tuple[str, Optional[bool]], KeptList] = {}
        self._kept_by_concept: dict[str, list[KeptList]] = {}
        self._placed: dict[str, tuple[StoreInstance, tuple[KeptList, ...]]] = {}
        # (membership, statement state) -> the kept lists admitting it
        self._admitting: dict[tuple[frozenset[str], Optional[bool]], tuple[KeptList, ...]] = {}
        self._index_work = 0

    @property
    def reclassified(self) -> int:
        """Instances whose membership was recomputed since construction."""
        return self._reclassified

    @property
    def fixpointed(self) -> int:
        """Instances run through the defined-class fixpoint since
        construction: those reclassified less the memo's answers."""
        return self._fixpointed

    @property
    def index_work(self) -> int:
        """Records placed in kept lists, plus tally members read, since
        construction."""
        return self._index_work

    # -- bookkeeping -------------------------------------------------------

    def _touch(self, instance_id: str, refs: frozenset[str]) -> None:
        """Mark an id dirty and index ``refs``, the ids its new record names
        (empty for a removal)."""
        if self._dirty is not None:
            self._dirty.add(instance_id)
        old = self._refs.get(instance_id, _NO_NAMES)
        if refs is old or refs == old:
            return
        for target in old - refs:
            referrers = self._referrers[target]
            referrers.discard(instance_id)
            if not referrers:
                del self._referrers[target]
        for target in refs - old:
            self._referrers.setdefault(target, set()).add(instance_id)
        if refs:
            self._refs[instance_id] = refs
        else:
            del self._refs[instance_id]

    def _drop(self, instance_id: str) -> None:
        self._axioms -= self.instances.pop(instance_id).template.weight
        self._touch(instance_id, _NO_NAMES)

    # -- instance management ----------------------------------------------

    def _put(self, record: StoreInstance) -> None:
        """The one store write: the record in place of any previous one,
        the dirty set and, unless the previous record has the same
        template (whose weight and named ids it cannot move; see the
        module docstring), the axiom count and the reference index."""
        instance_id = record.id
        template = record.template
        instances = self.instances
        previous = instances.get(instance_id)
        instances[instance_id] = record
        if previous is not None and previous.template is template:
            if self._dirty is not None:
                self._dirty.add(instance_id)
        else:
            if previous is not None:
                self._axioms -= previous.template.weight
            self._axioms += template.weight
            self._touch(instance_id, template.names)
        self.mutation_seq += 1

    def add_instance(
        self,
        instance_id: str,
        concepts: Iterable[str],
        props: Mapping[str, Sequence[PropValue]] | None = None,
    ) -> StoreInstance:
        """Directly add a plain (non-statement) instance, e.g. a location,
        by the checked derivation: property, concept and disjointness
        checks, then the record.  ``hasState`` and ``hasTime`` are
        rejected: only :meth:`assert_statement` writes them."""
        props = {p: tuple(v) for p, v in (props or {}).items()}
        template = _derive(self.graph, None, frozenset(concepts), props, f"instance {instance_id!r}", 0)
        record = _record(instance_id, template, None, None, self.mutation_seq + 1, RAW)
        self._put(record)
        return record

    def assert_statement(
        self, statement_id: str, state: bool, time: int, kind: str = RAW,
        concepts: Iterable[str] | None = None, mode: Optional[str] = None,
    ) -> None:
        """Ground the statement ``(statement_id, state, time, kind)`` as a
        classified instance; the fields are checked as a :class:`Statement`
        checks them, with the same :class:`StatementError`.

        Overwrite mode replaces any prior instance for the same sensor id,
        keeping the axiom count bounded; append mode adds a fresh instance
        with a monotone suffix.  Omitted concepts fall back to the sensor
        installation table, which also gives the statement's properties.
        The checked derivation of the declaration is read off the graph's
        write template, which the record carries.
        """
        check_statement(statement_id, state, time, kind)
        mode = mode or self.default_mode
        if mode not in (OVERWRITE, APPEND):
            raise StoreError(f"unknown reasoner mode {mode!r}")
        decl = self.installations.get(statement_id)
        if concepts is None:
            if decl is None:
                raise StoreError(f"unknown sensor {statement_id!r} in {self.name}")
        else:
            concepts = tuple(concepts)
        if mode == OVERWRITE:
            instance_id = statement_id
        else:
            suffix = self._sequence.get(statement_id, 0) + 1
            instance_id = f"{statement_id}#{suffix}"
        template = self.graph.template(statement_id, concepts, decl)
        self._put(_record(instance_id, template, state, time, self.mutation_seq + 1, kind))
        if mode == APPEND:
            self._sequence[statement_id] = suffix

    def remove_instance(self, instance_id: str) -> None:
        if instance_id not in self.instances:
            return
        self._drop(instance_id)
        self.mutation_seq += 1

    # -- classification -----------------------------------------------------

    def classify(self) -> Mapping[str, frozenset[str]]:
        """Transitive concept membership for every instance, as a read-only
        view of the store's cache (valid until the next mutation).

        Membership starts from the asserted concepts and their superclasses,
        then defined classes are applied to a fixpoint under closed-world
        counting.  A defined class is never applied where it would clash
        with a declared disjointness.  Only the instances changed since the
        last read are reclassified when the module's exactness conditions
        hold; otherwise every instance is.
        """
        dirty = self._dirty
        if dirty is not None and not dirty:
            return self._classification
        changed: Iterable[str]
        # present pairs whose target is reclassified: uncounted under the
        # old membership, counted again under the new one
        moved: list[tuple[str, str]] = []
        full = dirty is None or not self._stays_local(dirty)
        if full:
            self._memberships = {}
            self._contributions = {}
            self._presence = {}
            for watch in self._watches.values():
                watch.matches = 0
            # new list objects, so a snapshot holding the old ones keeps them
            self._placed = {}
            for kept in self._kept.values():
                kept.records = []
                kept.version += 1
            # in snapshot order, so each record is appended to its lists
            changed = [record.id for record in sorted(self.instances.values(), key=snapshot_order)]
            ids = sorted(self.instances)
        else:
            changed = dirty
            if self._watches:
                moved = [(p, i) for i in changed for p in PAIR_PROPS if (p, i) in self._presence]
                for pair in moved:
                    self._count_pair(pair, -1)
            instances = self.instances
            ids = []
            for inst_id in changed:
                if inst_id in instances:
                    ids.append(inst_id)
                else:
                    self._memberships.pop(inst_id, None)
            if len(ids) > 1:
                ids.sort()
        self._fixpoint(ids, memo=not full)
        for pair in moved:
            self._count_pair(pair, 1)
        if self.person_id is not None:
            self._recount_presence(changed)
        if self._kept:
            self._reindex(changed)
        self._dirty = set()
        self._classification = MappingProxyType(self._memberships)
        return self._classification

    def _stays_local(self, dirty: set[str]) -> bool:
        """Whether reclassifying ``dirty`` alone gives the full fixpoint's
        result (the two conditions in the module docstring).

        The second is read off the cache: a named id is enriched when its
        cached membership is larger than its record's closure, which the
        membership always contains.  A named id whose record changed since
        its membership was computed is dirty, and a dirty id named by
        another dirty id has a referrer, so the scan returns False when it
        reaches that id whatever the size test read for it."""
        memberships = self._memberships
        instances = self.instances
        for inst_id in dirty:
            if inst_id in self._referrers:
                return False
            for name in self._refs.get(inst_id, ()):
                membership = memberships.get(name)
                record = instances.get(name)
                if membership is not None and record is not None and len(membership) > len(record.closure):
                    return False
        return True

    def _fixpoint(self, ids: Sequence[str], memo: bool) -> None:
        """Classify the instances ``ids`` (in sorted order) from their
        records' closures: defined classes in name order, pass after pass,
        until a pass changes nothing.  Memberships of instances outside
        ``ids`` are read from the cache.  With ``memo`` (the local path), a
        statement record takes its membership from the graph's membership
        memo when it is there, and puts it there when not."""
        memberships = self._memberships
        instances = self.instances
        self._reclassified += len(ids)
        keys: list[tuple] = []
        if memo:
            cache = self.graph.membership_memo
            run = []
            for inst_id in ids:
                record = instances[inst_id]
                if record.time is None:
                    run.append(inst_id)
                    continue
                template = record.template
                key = (template, record.state, *map(memberships.get, template.names))
                found = cache.get(key)
                if found is None:
                    run.append(inst_id)
                    keys.append((inst_id, key))
                    continue
                memberships[inst_id] = found
            ids = run
        for inst_id in ids:
            memberships[inst_id] = instances[inst_id].closure
        changed = bool(ids)
        while changed:
            changed = False
            for dc in self.graph.defined_order():
                candidate = self.graph.supers(dc.name)
                for inst_id in ids:
                    current = memberships[inst_id]
                    if dc.name in current:
                        continue
                    if not all(base in current for base in dc.bases):
                        continue
                    if not self._satisfies(instances[inst_id], dc, memberships):
                        continue
                    merged = current | candidate
                    if self.graph.violates_disjointness(merged):
                        continue
                    memberships[inst_id] = merged
                    changed = True
        self._fixpointed += len(ids)
        for inst_id, key in keys:
            cache[key] = memberships[inst_id]

    def _recount_presence(self, changed: Iterable[str]) -> None:
        """Replace the person-context contributions of ``changed`` ids."""
        for inst_id in changed:
            old = self._contributions.pop(inst_id, frozenset())
            new = self._contribution(inst_id)
            if new:
                self._contributions[inst_id] = new
            if new == old:
                continue
            for pair in old - new:
                self._presence[pair] -= 1
                if not self._presence[pair]:
                    del self._presence[pair]
                    self._count_pair(pair, -1)
            for pair in new - old:
                count = self._presence.get(pair, 0)
                if not count:
                    self._count_pair(pair, 1)
                self._presence[pair] = count + 1

    def _lists_admitting(self, record: StoreInstance, membership: frozenset[str]) -> tuple[KeptList, ...]:
        """The kept lists a record with ``membership`` belongs in: those of
        its concepts that are plain lists or tallies of its statement state
        (a plain instance has none)."""
        state = record.state
        lists = self._admitting.get((membership, state))
        if lists is None:
            lists = tuple(
                k
                for concept in sorted(membership)
                for k in self._kept_by_concept.get(concept, ())
                if k.state is None or k.state is state
            )
            self._admitting[(membership, state)] = lists
        return lists

    def _reindex(self, changed: Iterable[str]) -> None:
        """Place the ``changed`` ids in the kept lists: each placed record
        leaves the lists it was placed in, and each present one enters the
        lists its record and membership now admit it to (appended when it
        sorts last, as every record does on a full recompute).  Each list
        a record enters or leaves moves its version."""
        for inst_id in changed:
            placed = self._placed.pop(inst_id, None)
            if placed is not None:
                key = snapshot_order(placed[0])
                for kept in placed[1]:
                    del kept.records[bisect_left(kept.records, key, key=snapshot_order)]
                    kept.version += 1
            record = self.instances.get(inst_id)
            if record is None:
                continue
            lists = self._lists_admitting(record, self._memberships[inst_id])
            if not lists:
                continue
            self._placed[inst_id] = (record, lists)
            key = snapshot_order(record)
            for kept in lists:
                records = kept.records
                if records and key < snapshot_order(records[-1]):
                    insort(records, record, key=snapshot_order)
                else:
                    records.append(record)
                kept.version += 1
            self._index_work += len(lists)

    def _count_pair(self, pair: tuple[str, str], sign: int) -> None:
        """Add (``sign`` 1) or remove (-1) one pair's match to the watches
        on its property, under its target's current membership."""
        watches = self._watches_by_prop.get(pair[0])
        if watches:
            membership = self._memberships.get(pair[1], ())
            for watch in watches:
                if watch.target_concept in membership:
                    watch.matches += sign

    def _contribution(self, inst_id: str) -> frozenset[tuple[str, str]]:
        """The isIn/isNearTo pairs an instance lends the person: those of a
        present instance of the presence concept with a true state."""
        instance = self.instances.get(inst_id)
        if instance is None or instance.state is not True:
            return _NO_PAIRS
        if self.presence_concept not in self._memberships[inst_id]:
            return _NO_PAIRS
        return instance.template.pairs

    def _satisfies(
        self,
        instance: StoreInstance,
        dc: DefinedClass,
        memberships: Mapping[str, set[str]],
    ) -> bool:
        for restriction in dc.restrictions:
            values = instance.prop_values(restriction.prop)
            count = 0
            for value in values:
                if restriction.target == BOOLEAN_DOMAIN:
                    ok = isinstance(value, bool)
                elif restriction.target == NATURAL_DOMAIN:
                    ok = isinstance(value, int) and not isinstance(value, bool) and value >= 0
                elif restriction.target == TRUE_LITERAL:
                    ok = value is True
                elif restriction.target == FALSE_LITERAL:
                    ok = value is False
                else:
                    ok = isinstance(value, str) and restriction.target in memberships.get(value, ())
                if ok:
                    count += 1
            if restriction.bound == ">=" and count < restriction.count:
                return False
            if restriction.bound == "<=" and count > restriction.count:
                return False
            if restriction.bound == "==" and count != restriction.count:
                return False
        return True

    def query_instances(self, concept: str, state_filter: Optional[bool] = None) -> StatementSet:
        """Statement instances classified under a concept, optionally
        filtered by state, in canonical order."""
        if concept not in self.graph.concepts:
            raise UnknownConceptError(f"unknown concept {concept!r}")
        classification = self.classify()
        out = []
        for inst_id in sorted(self.instances):
            instance = self.instances[inst_id]
            if not instance.is_statement():
                continue
            if concept not in classification[inst_id]:
                continue
            if state_filter is not None and instance.state is not state_filter:
                continue
            out.append(Statement(id=inst_id, state=instance.state, time=instance.time, kind=instance.kind))
        return StatementSet(out)

    def infer_person_context(self) -> tuple[tuple[str, str], ...]:
        """Propagate spatial targets of active sensors onto the person.

        Every instance of the store's presence concept with a true state
        contributes its isIn and isNearTo targets; the sorted union is the
        person's current context.  The presence concept narrows which
        sensors count as presence evidence (a scenario typically uses its
        motion class, since latched door or item states would otherwise pin
        the person to one spot).  The pairs are counted per instance as
        :meth:`classify` reclassifies it, each call sorts the counted pairs
        afresh, and they do not enter the axiom count.
        """
        if self.person_id is None:
            raise StoreError(f"store {self.name!r} declares no person instance")
        self.classify()  # brings the presence counts up to date
        return tuple(sorted(self._presence))

    def watch(self, prop: str, target_concept: str) -> PatternWatch:
        """Keep the answer to a ``PERSON:prop:TARGET`` pattern from the next
        read on; one watch per pattern, however often it is asked for."""
        if self.person_id is None:
            raise StoreError(f"store {self.name!r} declares no person instance")
        watch = self._watches.get((prop, target_concept))
        if watch is None:
            watch = PatternWatch(prop, target_concept)
            self._watches[(prop, target_concept)] = watch
            self._watches_by_prop.setdefault(prop, []).append(watch)
            # the next read counts every watch from scratch
            self._dirty = None
        return watch

    def keep(self, concept: str, state: Optional[bool] = None) -> KeptList:
        """Keep ``concept``'s records in snapshot order from the next read
        on, or with a ``state``, its statements in that state (a tally);
        one list per ``(concept, state)``, however often it is asked for."""
        kept = self._kept.get((concept, state))
        if kept is None:
            if concept not in self.graph.concepts:
                raise UnknownConceptError(f"unknown concept {concept!r}")
            kept = KeptList(concept, state)
            self._kept[(concept, state)] = kept
            self._kept_by_concept.setdefault(concept, []).append(kept)
            self._admitting = {}
            # the next read builds every kept list from scratch
            self._dirty = None
        return kept

    def tally(self, concept: str, state: bool) -> tuple[int, Optional[int], Optional[int]]:
        """How many statements :meth:`query_instances` would list under
        ``concept`` with ``state``, and their earliest and latest times
        (``None`` when there are none), read off the kept tally (kept from
        the first call on)."""
        kept = self.keep(concept, state)
        self.classify()
        records = kept.records
        if not records:
            return 0, None, None
        self._index_work += min(len(records), 2)
        return len(records), records[0].time, records[-1].time

    # -- complexity ----------------------------------------------------------

    def axiom_count(self) -> int:
        return self._axioms

    def clear_statements(self, keep_concepts: Iterable[str] = ()) -> int:
        """Remove statement instances except those classified under any of
        ``keep_concepts``; returns the number removed."""
        keep = set(keep_concepts)
        classification = self.classify()
        removed = 0
        for inst_id in sorted(self.instances):
            instance = self.instances[inst_id]
            if not instance.is_statement():
                continue
            if keep & classification.get(inst_id, frozenset()):
                continue
            self._drop(inst_id)
            removed += 1
        if removed:
            self.mutation_seq += 1
        return removed

    # -- read-only views -----------------------------------------------------

    def statement_state(self, instance_id: str) -> Optional[bool]:
        instance = self.instances.get(instance_id)
        return None if instance is None else instance.state

    def snapshot(self) -> "Snapshot":
        """The store as it is now, read in place: its record map, its
        classification and its kept lists, valid until the store's next
        write (see :class:`Snapshot`)."""
        self.classify()
        return Snapshot(self, {key: kept.records for key, kept in self._kept.items()})


class Snapshot:
    """A classified view of a store, valid until the store's next write.

    A snapshot reads the store's record map, membership map and kept lists
    (keyed by ``(concept, state)``, state ``None`` for a plain list) in
    place; the map of the kept lists is taken when the snapshot is made, so
    a list the store keeps later is not one of them.  :meth:`get`,
    :meth:`of_concept`, ``instances`` and ``classification`` raise a
    :class:`StoreError` once the store's ``mutation_seq`` has moved, and
    what they returned earlier is not to be read after that write either.
    :meth:`get` is a lookup, :meth:`of_concept` a kept list, the store's
    own, which a reader does not change, ``instances`` a read-only view of
    the record map by id (sort by :func:`snapshot_order` for snapshot
    order) and ``classification`` each id's concepts.
    """

    __slots__ = ("_store", "_seq", "_records", "_memberships", "_lists")

    def __init__(self, store: ContextStore, lists: Mapping[tuple[str, Optional[bool]], list[StoreInstance]]) -> None:
        self._store = store
        self._seq = store.mutation_seq
        self._records = store.instances
        self._memberships = store._memberships
        self._lists = lists

    def _check(self) -> None:
        if self._store.mutation_seq != self._seq:
            raise StoreError(f"snapshot of {self._store.name!r} read after the store's next write")

    @property
    def instances(self) -> Mapping[str, StoreInstance]:
        self._check()
        return MappingProxyType(self._records)

    @property
    def classification(self) -> Mapping[str, frozenset[str]]:
        self._check()
        return MappingProxyType(self._memberships)

    def of_concept(self, concept: str, state: Optional[bool] = None) -> Sequence[StoreInstance]:
        """The kept list of ``concept``'s records or, with a ``state``, of
        its statements in that state, in snapshot order; a
        :class:`StoreError` naming the store and the key when the snapshot
        has no such list."""
        self._check()
        found = self._lists.get((concept, state))
        if found is None:
            raise StoreError(f"snapshot of {self._store.name!r} keeps no list {(concept, state)!r}")
        return found

    def get(self, instance_id: str) -> Optional[StoreInstance]:
        self._check()
        return self._records.get(instance_id)
