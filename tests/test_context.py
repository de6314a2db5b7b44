"""Knowledge contexts: classification, modes, consistency, axiom counting."""

import os
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import oracles
from fluentnet.context import (
    APPEND,
    OVERWRITE,
    ConceptGraph,
    ConsistencyError,
    ContextStore,
    DefinedClass,
    GraphError,
    Restriction,
    SensorDecl,
    StoreError,
    UnknownConceptError,
    snapshot_order,
)
from fluentnet.modelio import build_store, load_store_model, parse_store_model
from fluentnet.network import RuntimeNetwork, load_network
from fluentnet.statements import AGGREGATED, RAW, Statement, StatementError

SPATIAL = "src/fluentnet/scenario/spatial.model"


def small_graph():
    g = ConceptGraph()
    for name in (
        "STATEMENT", "SENSOR", "DOOR", "ITEM", "MOTION",
        "LOCATION", "KITCHEN", "FURNITURE", "TABLE", "PERSON", "MEDICINE",
    ):
        g.add_concept(name)
    g.add_property("isIn")
    g.add_property("isNearTo")
    g.add_subclass("SENSOR", "STATEMENT")
    g.add_subclass("DOOR", "SENSOR")
    g.add_subclass("ITEM", "SENSOR")
    g.add_subclass("MOTION", "SENSOR")
    g.add_subclass("KITCHEN", "LOCATION")
    g.add_subclass("TABLE", "FURNITURE")
    g.add_disjoint("LOCATION", "FURNITURE")
    g.add_disjoint("SENSOR", "PERSON")
    g.add_defined(
        DefinedClass(
            "PERSON",
            restrictions=(
                Restriction("isIn", "LOCATION", ">=", 1),
                Restriction("isNearTo", "FURNITURE", ">=", 1),
            ),
        )
    )
    return g


def store_with(graph=None, **kwargs):
    return ContextStore("test", graph or small_graph(), **kwargs)


def install(store, sensor, concepts, places):
    """Install ``sensor`` under ``concepts`` with the property values
    ``places`` (property -> its values), which its next writes carry."""
    store.installations[sensor] = SensorDecl(
        sensor, tuple(concepts), tuple((prop, value) for prop, values in places.items() for value in values)
    )


class TestGraph:
    def test_cycle_rejected(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.add_subclass("STATEMENT", "DOOR")

    def test_supers_reflexive_transitive(self):
        g = small_graph()
        assert {"DOOR", "SENSOR", "STATEMENT"} <= g.supers("DOOR")

    def test_defined_references_validated(self):
        g = small_graph()
        with pytest.raises(UnknownConceptError):
            g.add_defined(DefinedClass("PERSON", restrictions=(Restriction("isIn", "NOWHERE"),)))
        with pytest.raises(GraphError):
            g.add_defined(DefinedClass("PERSON", restrictions=(Restriction("owns", "LOCATION"),)))


class TestClosure:
    @settings(max_examples=150, deadline=None)
    @given(
        st_.lists(
            st_.tuples(
                st_.sampled_from(["subclass", "disjoint", "closure"]),
                st_.sampled_from(["SENSOR", "DOOR", "ITEM", "MOTION", "KITCHEN", "TABLE", "MEDICINE"]),
                st_.sampled_from(["STATEMENT", "SENSOR", "LOCATION", "FURNITURE", "MEDICINE", "PERSON"]),
                st_.frozensets(
                    st_.sampled_from(["DOOR", "ITEM", "MOTION", "KITCHEN", "TABLE", "MEDICINE", "PERSON"]),
                    max_size=3,
                ),
            ),
            max_size=25,
        )
    )
    def test_closure_equals_the_union_and_scan(self, ops):
        """Between and after new subclass and disjointness edges, the
        closure and clash of an asserted set equal a walk over the edges and
        a scan of the disjoint pairs."""
        g = small_graph()
        for action, child, parent, asserted in ops:
            if action == "subclass":
                try:
                    g.add_subclass(child, parent)
                except GraphError:
                    pass  # would close a cycle
            elif action == "disjoint" and child != parent:
                g.add_disjoint(child, parent)
            closure, clash = g.closure(asserted)
            expected, clashes = oracles.closure_from_scratch(g, asserted)
            assert closure == expected
            assert (clash is None) == (not clashes)
            assert clash is None or clash in clashes


class TestAssert:
    def test_overwrite_keeps_single_instance(self):
        store = store_with()
        store.assert_statement("D7", True, 10, concepts=("DOOR",), mode=OVERWRITE)
        store.assert_statement("D7", False, 20, concepts=("DOOR",), mode=OVERWRITE)
        assert set(store.instances) == {"D7"}
        assert store.statement_state("D7") is False

    def test_append_keeps_both(self):
        store = store_with(default_mode=APPEND)
        store.assert_statement("D7", True, 10, concepts=("DOOR",))
        store.assert_statement("D7", False, 20, concepts=("DOOR",))
        assert set(store.instances) == {"D7#1", "D7#2"}

    def test_disjointness_violation_names_the_pair(self):
        store = store_with()
        with pytest.raises(ConsistencyError) as err:
            store.add_instance("X", ("KITCHEN", "TABLE"))
        assert "LOCATION" in str(err.value) and "FURNITURE" in str(err.value)

    def test_disjointness_violation_names_the_same_pair_under_any_hash_seed(self):
        """An instance holding several disjoint pairs is refused naming the
        pair that sorts first, whatever order the process's string hashes
        give the graph's set of pairs."""
        script = (
            "from fluentnet.context import ConceptGraph, ConsistencyError, ContextStore\n"
            "g = ConceptGraph()\n"
            "for name in 'ABCDEFGH':\n"
            "    g.add_concept(name)\n"
            "for a, b in ('AB', 'CD', 'EF', 'GH'):\n"
            "    g.add_disjoint(a, b)\n"
            "try:\n"
            "    ContextStore('s', g).add_instance('X', tuple('ABCDEFGH'))\n"
            "except ConsistencyError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        messages = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
            messages.add(run.stdout.strip())
        assert messages == {"instance 'X' cannot be both A and B"}

    def test_unknown_concept(self):
        store = store_with()
        with pytest.raises(UnknownConceptError):
            store.assert_statement("D7", True, 10, concepts=("WINDOW",))

    def test_undeclared_property_is_rejected_on_every_write(self):
        store = store_with()
        with pytest.raises(StoreError, match="unknown property 'isNearBy'"):
            store.add_instance("K", ("KITCHEN",), {"isNearBy": ["SINK"]})
        install(store, "D7", ("DOOR",), {"isNearBy": ["K"]})
        with pytest.raises(StoreError, match="unknown property 'isNearBy'"):
            store.assert_statement("D7", True, 10, concepts=("DOOR",))
        assert store.instances == {}

    def test_installation_fallback(self):
        store = store_with(
            installations={"D7": SensorDecl("D7", ("DOOR", "MEDICINE"), (("isIn", "K"),))}
        )
        store.add_instance("K", ("KITCHEN",))
        store.assert_statement("D7", True, 10)
        assert store.instances["D7"].asserted == frozenset({"DOOR", "MEDICINE"})
        assert store.instances["D7"].prop_values("isIn") == ("K",)


class TestClassify:
    def test_transitive_membership(self):
        store = store_with()
        store.assert_statement("D7", True, 10, concepts=("DOOR",))
        classes = store.classify()["D7"]
        assert {"DOOR", "SENSOR", "STATEMENT"} <= classes

    def test_defined_class_satisfaction(self):
        store = store_with()
        store.add_instance("K", ("KITCHEN",))
        store.add_instance("T1", ("TABLE",))
        store.add_instance("P", (), {"isIn": ["K"], "isNearTo": ["T1"]})
        assert "PERSON" in store.classify()["P"]

    def test_cardinality_unmet(self):
        store = store_with()
        store.add_instance("T1", ("TABLE",))
        store.add_instance("P", (), {"isNearTo": ["T1"]})
        assert "PERSON" not in store.classify()["P"]

    def test_defined_class_blocked_by_disjointness(self):
        # a sensor with full spatial context must not become a person
        store = store_with()
        store.add_instance("K", ("KITCHEN",))
        store.add_instance("T1", ("TABLE",))
        install(store, "M1", ("MOTION",), {"isIn": ["K"], "isNearTo": ["T1"]})
        store.assert_statement("M1", True, 5, concepts=("MOTION",))
        assert "PERSON" not in store.classify()["M1"]

    def test_read_only_view_until_the_next_mutation(self):
        store = store_with()
        store.assert_statement("D7", True, 10, concepts=("DOOR",))
        view = store.classify()
        with pytest.raises(TypeError):
            view["D7"] = frozenset()
        assert store.classify() is view
        store.assert_statement("D7", False, 20, concepts=("DOOR",))
        assert store.classify() is not view

    def test_idempotent(self):
        store = store_with()
        store.assert_statement("D7", True, 10, concepts=("DOOR",))
        assert store.classify() == store.classify()

    def test_literal_targets_and_every_bound_match_the_oracle(self):
        """Defined classes that count ``hasState`` and ``hasTime`` values
        against each literal target (``BOOLEAN``, ``NATURAL``, ``TRUE``,
        ``FALSE``), or ``isIn`` places against a concept, under ``>=``,
        ``<=`` and ``==``: the classification of random statements and
        places, read after every write, equals the full fixpoint oracle."""
        rng = random.Random(923)
        for _ in range(80):
            g = small_graph()
            for k in range(3):
                g.add_concept(f"DEF{k}")
                prop = rng.choice(["hasState", "hasTime", "isIn"])
                target = rng.choice(["LOCATION", "KITCHEN"] if prop == "isIn" else ["BOOLEAN", "NATURAL", "TRUE", "FALSE"])
                restriction = Restriction(prop, target, rng.choice([">=", "<=", "=="]), rng.randrange(3))
                bases = rng.choice([(), ("SENSOR",), ("MOTION",)] + [(f"DEF{k - 1}",)] * (k > 0))
                g.add_defined(DefinedClass(f"DEF{k}", bases=bases, restrictions=(restriction,)))
            store = store_with(g)
            store.add_instance("K", ("KITCHEN",))
            store.add_instance("LR", ("LOCATION",))
            for step in range(8):
                sensor = rng.choice(["M1", "M2", "D7"])
                places = rng.sample(["K", "LR"], rng.randrange(3))
                install(store, sensor, ("DOOR",) if sensor == "D7" else ("MOTION",), {"isIn": places})
                store.assert_statement(sensor, rng.random() < 0.5, step, mode=rng.choice([OVERWRITE, APPEND]))
                assert store.classify() == oracles.classify_from_scratch(store)


class TestQuery:
    def test_query_by_installed_class(self):
        store = store_with(
            installations={
                s: SensorDecl(s, (cls, "MEDICINE"))
                for s, cls in (("D7", "DOOR"), ("I4", "ITEM"), ("I6", "ITEM"), ("I7", "ITEM"))
            }
        )
        for i, sensor in enumerate(("D7", "I4", "I6", "I7")):
            store.assert_statement(sensor, True, 10 + i)
        assert store.query_instances("MEDICINE").ids() == ("D7", "I4", "I6", "I7")

    def test_state_filter(self):
        store = store_with()
        store.assert_statement("I4", False, 5, concepts=("ITEM",))
        store.assert_statement("I6", True, 6, concepts=("ITEM",))
        assert store.query_instances("ITEM", state_filter=False).ids() == ("I4",)

    def test_empty_concept(self):
        store = store_with()
        assert len(store.query_instances("DOOR")) == 0

    def test_unknown_concept_rejected(self):
        store = store_with()
        with pytest.raises(UnknownConceptError):
            store.query_instances("WINDOW")


class TestPersonContext:
    def spatial(self):
        store = store_with(person_id="P", presence_concept="MOTION")
        store.add_instance("K", ("KITCHEN",))
        store.add_instance("T1", ("TABLE",))
        store.add_instance("P", ("PERSON",))
        return store

    def test_active_sensor_propagates(self):
        store = self.spatial()
        install(store, "M16", ("MOTION",), {"isIn": ["K"]})
        store.assert_statement("M16", True, 10, concepts=("MOTION",))
        assert store.infer_person_context() == (("isIn", "K"),)
        assert oracles.person_context_matches(store, "isIn", "KITCHEN")
        assert oracles.person_context_matches(store, "isIn", "LOCATION")

    def test_inactive_sensors_contribute_nothing(self):
        store = self.spatial()
        install(store, "M16", ("MOTION",), {"isIn": ["K"]})
        store.assert_statement("M16", False, 10, concepts=("MOTION",))
        assert store.infer_person_context() == ()

    def test_two_rooms_both_present(self):
        store = self.spatial()
        store.add_instance("LR", ("LOCATION",))
        install(store, "M16", ("MOTION",), {"isIn": ["K"]})
        install(store, "M3", ("MOTION",), {"isIn": ["LR"]})
        store.assert_statement("M16", True, 10, concepts=("MOTION",))
        store.assert_statement("M3", True, 11, concepts=("MOTION",))
        assert store.infer_person_context() == (("isIn", "K"), ("isIn", "LR"))

    @settings(max_examples=80, deadline=None)
    @given(
        st_.lists(
            st_.tuples(
                st_.sampled_from(["overwrite", "append", "add", "drop", "clear"]),
                st_.sampled_from(["M16", "M3", "D7"]),
                st_.booleans(),
                st_.sampled_from(["K", "LR", "T1"]),
                st_.sampled_from(["KITCHEN", "LOCATION", "TABLE"]),
            ),
            max_size=25,
        )
    )
    def test_cache_matches_a_rebuilt_store(self, ops):
        """After any mutation sequence the cached classification and person
        context equal those of a store rebuilt from the same instances, and
        pattern checks answer from them, never from an older state."""
        store = self.spatial()
        for time, (action, sensor, state, place, concept) in enumerate(ops):
            concepts = ("DOOR",) if sensor == "D7" else ("MOTION",)
            if action in ("overwrite", "append"):
                install(store, sensor, concepts, {"isIn" if state else "isNearTo": [place]})
                store.assert_statement(
                    sensor, state, time,
                    concepts=concepts,
                    mode=OVERWRITE if action == "overwrite" else APPEND,
                )
            elif action == "add":
                store.add_instance(place, (concept,))
            elif action == "clear":
                store.clear_statements(keep_concepts=("DOOR",))
            elif store.instances:
                store.remove_instance(sorted(store.instances)[time % len(store.instances)])

            fresh = oracles.store_copy(store)
            classification = fresh.classify()
            pairs = fresh.infer_person_context()
            for prop in ("isIn", "isNearTo"):
                for target_concept in ("KITCHEN", "LOCATION", "TABLE"):
                    expected = any(
                        p == prop and target_concept in classification.get(target, ())
                        for p, target in pairs
                    )
                    assert oracles.person_context_matches(store, prop, target_concept) is expected
            assert store.classify() == classification
            assert store.infer_person_context() == pairs


def dirty_graph(bounded=False):
    """``small_graph`` plus defined classes that reach every fallback of the
    dirty-set update: a location gains ``KITCHEN`` when near a table (a
    referenced instance gaining a defined class) and, when ``bounded``,
    sensors carry a ``<=`` restriction.  ``PERSON`` is blocked on sensors
    by disjointness, and so is the second of the disjoint ``COOKING`` (in a
    kitchen) and ``LIVE`` (state true) that a sensor gains: a full fixpoint
    tries ``COOKING`` before the location has gained ``KITCHEN``, so
    ``LIVE`` wins, where reclassifying the sensor alone would pick
    ``COOKING``."""
    g = small_graph()
    g.add_concept("LIVE")
    g.add_concept("COOKING")
    g.add_disjoint("LIVE", "COOKING")
    g.add_defined(
        DefinedClass("KITCHEN", bases=("LOCATION",), restrictions=(Restriction("isNearTo", "TABLE"),))
    )
    g.add_defined(DefinedClass("LIVE", bases=("SENSOR",), restrictions=(Restriction("hasState", "TRUE"),)))
    g.add_defined(DefinedClass("COOKING", bases=("SENSOR",), restrictions=(Restriction("isIn", "KITCHEN"),)))
    if bounded:
        g.add_concept("QUIET")
        g.add_defined(
            DefinedClass("QUIET", bases=("SENSOR",), restrictions=(Restriction("isNearTo", "FURNITURE", "<=", 0),))
        )
    return g


def dirty_store(bounded=False):
    store = store_with(dirty_graph(bounded), person_id="P", presence_concept="MOTION")
    store.add_instance("K", ("LOCATION",))
    store.add_instance("T1", ("TABLE",))
    store.add_instance("P", ("PERSON",))
    return store


def reclassified_by(store, write):
    """Instances reclassified by ``write`` and the next read."""
    before = store.reclassified
    write()
    store.infer_person_context()
    return store.reclassified - before


def assert_matches_oracles(store):
    expected = oracles.classify_from_scratch(store)
    assert store.classify() == expected
    pairs = oracles.person_context_from_scratch(store, expected)
    assert store.infer_person_context() == pairs
    for prop in ("isIn", "isNearTo"):
        for target_concept in ("LOCATION", "KITCHEN", "TABLE"):
            assert oracles.person_context_matches(store, prop, target_concept) is (
                oracles.person_context_matches_from_scratch(pairs, expected, prop, target_concept)
            )


def spatial_with_copies(copies):
    """The shipped spatial model with each sensor line repeated ``copies``
    times under fresh ids."""
    lines = Path(SPATIAL).read_text(encoding="utf-8").splitlines()
    start = lines.index("[sensors]") + 1
    sensors = [line for line in lines[start:] if line and not line.startswith("#")]
    extra = [f"{line.split()[0]}x{k} {line.split(' ', 1)[1]}" for k in range(2, copies + 1) for line in sensors]
    return "\n".join(lines + extra) + "\n"


# each sensor's two installations, for writes through the installation
# table: they name ids the generator also rewrites or removes
DIRTY_DECLS = {
    "M16": (
        SensorDecl("M16", ("MOTION",), (("isIn", "K"),)),
        SensorDecl("M16", ("MOTION",), (("isIn", "LR"), ("isNearTo", "T1"))),
    ),
    "M3": (
        SensorDecl("M3", ("MOTION",), (("isIn", "LR"),)),
        SensorDecl("M3", ("MOTION", "MEDICINE"), (("isIn", "K"), ("isIn", "T1"))),
    ),
    "D7": (
        SensorDecl("D7", ("DOOR",), (("isNearTo", "T1"),)),
        SensorDecl("D7", ("DOOR",), ()),
    ),
}

# graph edits between writes: each changes a closure, a clash or a defined
# class that a write template or the membership memo derived
GRAPH_EDITS = (
    ("subclass", "MOTION", "MEDICINE"),
    ("subclass", "DOOR", "LIVE"),
    ("disjoint", "MOTION", "MEDICINE"),
    ("disjoint", "DOOR", "COOKING"),
    ("defined", DefinedClass("LIVE", bases=("SENSOR",), restrictions=(Restriction("hasState", "FALSE"),))),
    ("defined", DefinedClass("MEDICINE", bases=("SENSOR",), restrictions=(Restriction("isIn", "TABLE"),))),
)

# random steps on a dirty store: (action, sensor, state, place, concept,
# near, edit, read), applied by ``DirtyRun.apply``.  "overwrite" and
# "append" (concepts given) first install the sensor with their place;
# "sense" (overwrite) and "sense-append" (append, concepts given) write
# through the installation table as it stands; "declare" swaps a sensor's
# installation; "edit" edits the graph
DIRTY_OPS = st_.lists(
    st_.tuples(
        st_.sampled_from(
            ["overwrite", "append", "add", "drop", "clear", "sense", "sense", "sense-append", "declare", "edit"]
        ),
        st_.sampled_from(["M16", "M3", "D7"]),
        st_.booleans(),
        st_.sampled_from(["K", "LR", "T1", "M16"]),
        st_.sampled_from(["LOCATION", "TABLE"]),
        st_.sampled_from([None, "K", "LR", "T1"]),
        st_.integers(0, len(GRAPH_EDITS) - 1),
        st_.booleans(),
    ),
    max_size=30,
)


class DirtyRun:
    """A dirty store driven by ``DIRTY_OPS``, with the record each id it
    holds should have, derived from scratch from the writes' arguments.  A
    graph edit moves the run to a fresh store on the edited graph, as the
    next replay of a scenario builds one: a store reads its graph as it was
    when built, while the graph's templates and memo outlive the store.
    Every step ends by checking every record it holds."""

    def __init__(self, bounded=False):
        self.graph = dirty_graph(bounded)
        self.store = None
        self.fresh_store({sensor: decls[0] for sensor, decls in DIRTY_DECLS.items()})

    def fresh_store(self, installations):
        self.store = ContextStore("test", self.graph, installations, person_id="P", presence_concept="MOTION")
        self.expected = {}
        self.appended = {}
        for inst_id, concepts, props in (
            ("K", ("LOCATION",), {}),
            ("T1", ("TABLE",), {}),
            ("P", ("PERSON",), {}),
            ("LR", ("LOCATION",), {"isNearTo": ["T1"]}),  # a KITCHEN by definition
        ):
            self.add(inst_id, concepts, props)

    def _expect(self, inst_id, asserted, props, write):
        fields, clashes = oracles.record_from_scratch(self.graph, asserted, props)
        if clashes:
            with pytest.raises(ConsistencyError):
                write()
            return False
        write()
        self.expected[inst_id] = fields
        return True

    def add(self, inst_id, concepts, props):
        props = {prop: tuple(values) for prop, values in props.items()}
        self._expect(inst_id, frozenset(concepts), props, lambda: self.store.add_instance(inst_id, concepts, props))

    def write(self, statement, concepts=None, mode=OVERWRITE):
        decl = self.store.installations.get(statement.id)
        asserted = frozenset(decl.concepts if concepts is None else concepts)
        props = oracles.statement_props_from_scratch(statement, decl)
        seq = self.appended.get(statement.id, 0) + 1
        inst_id = statement.id if mode == OVERWRITE else f"{statement.id}#{seq}"
        written = self._expect(
            inst_id,
            asserted,
            props,
            lambda: self.store.assert_statement(
                statement.id, statement.state, statement.time, statement.kind, concepts=concepts, mode=mode
            ),
        )
        if written and mode == APPEND:
            self.appended[statement.id] = seq

    def apply(self, time, op):
        action, sensor, state, place, concept, near, edit, _ = op
        store = self.store
        statement = Statement(sensor, state, time)
        sensor_concepts = ("DOOR",) if sensor == "D7" else ("MOTION",)
        props = {"isNearTo": [near]} if near else {}
        if action in ("overwrite", "append"):
            install(store, sensor, sensor_concepts, {"isIn": [place], **props})
            self.write(statement, sensor_concepts, OVERWRITE if action == "overwrite" else APPEND)
        elif action == "sense":
            self.write(statement)
        elif action == "sense-append":
            self.write(statement, sensor_concepts, APPEND)
        elif action == "declare":
            store.installations[sensor] = DIRTY_DECLS[sensor][state]
        elif action == "edit":
            kind, *args = GRAPH_EDITS[edit]
            getattr(self.graph, f"add_{kind}")(*args)
            self.fresh_store(store.installations)
        elif action == "add" and place != "M16":
            self.add(place, (concept,), props)
        elif action == "clear":
            store.clear_statements(keep_concepts=("DOOR",))
        elif action == "drop" and store.instances:
            store.remove_instance(sorted(store.instances)[time % len(store.instances)])
        self.assert_records()

    def assert_records(self):
        """Every record equals the one derived from scratch, field by field."""
        store = self.store
        for inst_id, record in store.instances.items():
            assert oracles.record_fields(record) == self.expected[inst_id]
            assert record.weight == oracles.axiom_weight(record)
        assert store.axiom_count() == oracles.recount_axioms(store)
        assert store._referrers == oracles.references_from_scratch(store)


class TestDirtySet:
    @pytest.mark.parametrize("bounded", [False, True], ids=["monotone", "bounded"])
    @settings(max_examples=200, deadline=None)
    @given(ops=DIRTY_OPS, every_step=st_.booleans())
    def test_matches_a_full_fixpoint_after_every_read(self, bounded, ops, every_step):
        """Random writes, with and without the installation table, and
        graph edits between them, read after every step or (so that writes
        pile up in the dirty set) at random points: the classification, the
        person context and every pattern check equal the from-scratch
        oracles, and every record (closure, state, time, property values,
        weight) equals the one derived from scratch from its write."""
        run = DirtyRun(bounded)
        for time, op in enumerate(ops):
            run.apply(time, op)
            if every_step or op[-1]:
                assert_matches_oracles(run.store)
        assert_matches_oracles(run.store)

    def test_full_recompute_only_on_first_read_and_fallbacks(self):
        store = dirty_store()

        def sense(sensor, place, time, near=None):
            def write():
                install(store, sensor, ("MOTION",), {"isIn": [place], **({"isNearTo": [near]} if near else {})})
                store.assert_statement(sensor, True, time, concepts=("MOTION",), mode=OVERWRITE)

            return write

        assert reclassified_by(store, lambda: None) == 3  # first read: every instance
        assert reclassified_by(store, sense("M16", "K", 1)) == 1
        assert reclassified_by(store, sense("M3", "K", 2)) == 1
        # a sensor near a table would be a person, but disjointness blocks it
        assert reclassified_by(store, sense("M16", "K", 3, near="T1")) == 1
        assert "PERSON" not in store.classify()["M16"]
        assert reclassified_by(store, lambda: store.remove_instance("M3")) == 0
        assert "M3" not in store.classify()
        assert_matches_oracles(store)

        # a write to an instance that another one refers to
        assert reclassified_by(store, lambda: store.add_instance("K", ("LOCATION",))) == 4
        # an unreferenced location gains KITCHEN locally ...
        assert reclassified_by(store, lambda: store.add_instance("LR", ("LOCATION",), {"isNearTo": ["T1"]})) == 1
        assert "KITCHEN" in store.classify()["LR"]
        # ... but a reference to it makes the next write a full recompute
        assert reclassified_by(store, sense("M3", "LR", 4)) == 6
        assert reclassified_by(store, lambda: store.remove_instance("T1")) == 5
        assert_matches_oracles(store)

        bounded = dirty_store(bounded=True)
        assert reclassified_by(bounded, lambda: None) == 3
        # a <= restriction: an unreferenced write whose targets hold only
        # their asserted closure is still reclassified alone
        assert reclassified_by(bounded, lambda: bounded.add_instance("LR", ("LOCATION",))) == 1
        assert_matches_oracles(bounded)

    @pytest.mark.parametrize("copies", [1, 4])
    def test_each_overwrite_reading_reclassifies_one_instance(self, copies):
        """On the shipped spatial model, and on one with four times the
        sensors, a reading costs one reclassification, during the sweep
        that switches every sensor on and after it."""
        store = build_store("L", parse_store_model(spatial_with_copies(copies)))
        sensors = sorted(store.installations)
        assert len(sensors) == 41 * copies
        assert reclassified_by(store, lambda: None) == 11  # first read: locations, furniture, P
        rng = random.Random(copies)
        readings = [(s, True) for s in sensors] + [(rng.choice(sensors), rng.random() < 0.5) for _ in range(300)]
        for time, (sensor, state) in enumerate(readings, start=1):
            assert reclassified_by(store, lambda: store.assert_statement(sensor, state, time)) == 1
        assert_matches_oracles(store)


class TestWriteTemplates:
    def test_memo_reads_the_named_ids_closures(self):
        """A defined class on a named target: ``NEAR`` holds while ``K`` is
        a table.  Once ``K`` is rewritten as a location (with no referrer,
        so the write stays local), the same reading of ``M16`` must miss
        the memo entry made while ``K`` was a table."""
        g = small_graph()
        g.add_concept("NEAR")
        g.add_defined(DefinedClass("NEAR", bases=("SENSOR",), restrictions=(Restriction("isIn", "TABLE", ">=", 1),)))
        store = ContextStore("test", g, {"M16": SensorDecl("M16", ("MOTION",), (("isIn", "K"),))})
        steps = [
            lambda: store.add_instance("K", ("TABLE",)),  # the first read: every instance
            lambda: store.assert_statement("M16", True, 1),  # the memo learns NEAR
            lambda: store.assert_statement("M16", True, 2),  # a hit
            lambda: store.remove_instance("M16"),
            lambda: store.add_instance("K", ("LOCATION",)),
            lambda: store.assert_statement("M16", True, 3),  # a miss: K's closure moved
            lambda: store.assert_statement("M16", True, 4),  # a hit
        ]
        run = []
        for step in steps:
            before = store.fixpointed
            step()
            assert store.classify() == oracles.classify_from_scratch(store)
            run.append(store.fixpointed - before)
        assert "NEAR" not in store.classify()["M16"]
        assert run == [1, 1, 0, 0, 1, 1, 0]

    def test_a_template_holds_for_its_declaration_only(self):
        """Swapping a sensor's installation changes what its next write
        derives, although the statement id and concepts are the same."""
        store = store_with(installations={"M16": SensorDecl("M16", ("MOTION",), (("isIn", "K"),))})
        store.assert_statement("M16", True, 1)
        store.installations["M16"] = SensorDecl("M16", ("DOOR",), (("isNearTo", "T1"),))
        store.assert_statement("M16", True, 2)
        record = store.instances["M16"]
        assert record.asserted == {"DOOR"} and record.closure == store.graph.supers("DOOR")
        assert oracles.props_of(record) == {"hasState": (True,), "hasTime": (2,), "isNearTo": ("T1",)}
        assert store.axiom_count() == oracles.recount_axioms(store)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda g: g.add_concept("NEW"),
            lambda g: g.add_property("owns"),
            lambda g: g.add_subclass("MEDICINE", "STATEMENT"),
            lambda g: g.add_disjoint("MEDICINE", "DOOR"),
            lambda g: g.add_defined(DefinedClass("MEDICINE", bases=("SENSOR",))),
        ],
        ids=["concept", "property", "subclass", "disjoint", "defined"],
    )
    def test_every_graph_mutator_clears_templates_and_memo(self, edit):
        decl = SensorDecl("M16", ("MOTION",), (("isIn", "K"),))
        store = store_with(installations={"M16": decl})
        store.add_instance("K", ("LOCATION",))
        store.classify()
        store.assert_statement("M16", True, 1)
        store.classify()  # local: the memo learns M16's membership
        g, template = store.graph, store.instances["M16"].template
        assert g.template("M16", None, decl) is template and g.membership_memo
        edit(g)
        assert g.template("M16", None, decl) is not template and not g.membership_memo

    def test_every_graph_edit_reaches_the_next_store(self):
        """Templates and memo entries outlive the store that made them but
        not a graph edit: a store built after the edit derives under it."""
        g = dirty_graph()
        table = {"M16": SensorDecl("M16", ("MOTION",), (("isIn", "K"),))}

        def reading():
            store = ContextStore("test", g, table)
            store.add_instance("K", ("LOCATION",))
            store.classify()
            store.assert_statement("M16", True, 1)
            return store

        assert reading().classify()["M16"] == g.supers("MOTION") | {"LIVE"}
        assert reading().fixpointed == 1  # the first read's fixpoint, then a memo hit
        g.add_subclass("MOTION", "MEDICINE")
        assert "MEDICINE" in reading().instances["M16"].closure
        g.add_defined(DefinedClass("LIVE", bases=("SENSOR",), restrictions=(Restriction("hasState", "FALSE"),)))
        assert "LIVE" not in reading().classify()["M16"]
        g.add_disjoint("MOTION", "MEDICINE")
        with pytest.raises(ConsistencyError):
            reading()


# pattern checks on the dirty store, at two rates, with a statement check
# sharing the slower rate
WATCH_NETWORK = """\
[nodes]
A represents=dirty.model
[conditions]
W_in_location checks=PERSON:isIn:LOCATION in=A hasTarget=true rate=50
W_in_kitchen checks=PERSON:isIn:KITCHEN in=A hasTarget=true rate=50
W_near_table checks=PERSON:isNearTo:TABLE in=A hasTarget=false rate=20
W_near_kitchen checks=PERSON:isNearTo:KITCHEN in=A hasTarget=true rate=20
S_door checks=D7 in=A hasTarget=true rate=20
"""


class TestWatches:
    @pytest.mark.parametrize("every_step", [True, False], ids=["every-step", "piled-up"])
    @pytest.mark.parametrize("bounded", [False, True], ids=["monotone", "bounded"])
    @settings(max_examples=100, deadline=None)
    @given(ops=DIRTY_OPS)
    def test_watched_answers_follow_every_write(self, bounded, every_step, ops):
        """The dirty-set generator's writes, with a network watching the
        store.  After every step (or, so that writes pile up in the dirty
        set, at the generator's reads) each watched answer equals the
        from-scratch oracle; the conditions on one node at one rate share
        one tick group; and once the pending samples ran (at the
        generator's reads), every pattern condition's outcome is the
        oracle's answer, although the scheduler sampled only the patterns
        whose answer differed from their outcome when noted.  The store is
        noted where it is checked, as a note classifies it."""
        run = DirtyRun(bounded)
        store = None
        for step, op in enumerate(ops):
            if run.store is not store:  # the first step, or a graph edit
                store = run.store
                net = RuntimeNetwork(load_network(WATCH_NETWORK), {"A": store}, {})
                states = list(net.conditions.values())
                tick_groups = oracles.tick_groups(net)
                for rate in (50, 20):
                    assert len({id(tick_groups[s.decl.name]) for s in states if s.decl.rate_hz == rate}) == 1
                patterns = [s for s in states if s.watch is not None]
            run.apply(step, op)
            if run.store is not store:
                continue
            if not (every_step or op[-1]):
                continue
            net.note_mutation("A")
            classification = oracles.classify_from_scratch(store)
            pairs = oracles.person_context_from_scratch(store, classification)
            store.classify()
            answers = {}
            for state in patterns:
                check, watch = state.decl.check, state.watch
                answer = oracles.person_context_matches_from_scratch(
                    pairs, classification, check.prop, check.target_concept
                )
                assert watch.answer is answer
                answers[state.decl.name] = answer
            if op[-1]:
                net.pending_until(net.clock.now + 50)  # past both groups' next tick
                for state in patterns:
                    assert state.outcome is (answers[state.decl.name] is state.decl.target)
            # each condition is a member of one group, which holds its store
            assert sum(len(group.members) for group in {id(g): g for g in tick_groups.values()}.values()) == len(states)
            assert all(tick_groups[s.decl.name].store is s.store is store for s in states)
            net.clock.advance_to(net.clock.now + 7)

    @pytest.mark.parametrize("retarget", ["reclassify", "remove"])
    def test_pair_target_changed_in_the_batch_that_drops_the_pair(self, retarget):
        """A sensor leaves a location while, before the next read, that
        location is reclassified or removed: the dirty set stays local (no
        instance names the location any more), and the dropped pair must be
        uncounted under the membership it was counted under."""
        store = dirty_store()
        watch = store.watch("isIn", "LOCATION")
        motion = {"concepts": ("MOTION",), "mode": OVERWRITE}
        install(store, "M16", ("MOTION",), {"isIn": ["K"]})
        store.assert_statement("M16", True, 1, **motion)
        assert store.infer_person_context() == (("isIn", "K"),) and watch.answer is True
        before = store.reclassified
        install(store, "M16", ("MOTION",), {"isIn": ["T1"]})
        store.assert_statement("M16", True, 2, **motion)
        if retarget == "reclassify":
            store.add_instance("K", ("TABLE",))
        else:
            store.remove_instance("K")
        store.classify()
        assert store.reclassified - before == (2 if retarget == "reclassify" else 1)
        assert watch.answer is False and watch.matches == 0
        assert_matches_oracles(store)


class TestRecords:
    def spatial(self):
        store = store_with(person_id="P", presence_concept="MOTION")
        store.add_instance("K", ("KITCHEN",))
        store.add_instance("T1", ("TABLE",))
        store.add_instance("P", ("PERSON",))
        return store

    def test_record_fields(self):
        store = store_with()
        store.add_instance("K", ("KITCHEN",), {"isNearTo": ["T1"]})
        store.assert_statement("D7", True, 10, concepts=("DOOR",))
        door, kitchen = store.instances["D7"], store.instances["K"]
        assert door.closure == store.graph.supers("DOOR")
        assert (door.time, kitchen.time) == (10, None)
        assert door.weight == oracles.axiom_weight(door) == 3
        assert kitchen.weight == oracles.axiom_weight(kitchen) == 2

    def test_snapshot_holds_the_stores_records(self):
        store = self.spatial()
        install(store, "M16", ("MOTION",), {"isIn": ["K"]})
        store.assert_statement("M16", True, 10, concepts=("MOTION",))
        snap = oracles.kept_snapshot(store, keys=[("MOTION", None)])
        assert [i.id for i in sorted(snap.instances.values(), key=snapshot_order)] == ["M16", "K", "P", "T1"]
        for inst_id in store.instances:
            assert snap.get(inst_id) is store.instances[inst_id]
        assert snap.classification == store.classify()
        assert tuple(snap.of_concept("MOTION")) == (store.instances["M16"],)

    def test_records_are_frozen(self):
        store = store_with()
        store.assert_statement("D7", True, 10, concepts=("DOOR",))
        record = store.instances["D7"]
        with pytest.raises(FrozenInstanceError):
            record.time = 20
        with pytest.raises(FrozenInstanceError):
            record.state = False
        with pytest.raises(TypeError):
            record.template.declared["isIn"] = ("K",)
        assert record.state is True

    @pytest.mark.parametrize("concepts", [("DOOR",), None], ids=["concepts", "installation"])
    @pytest.mark.parametrize(
        "fields",
        [
            ("", True, 10, RAW),
            (7, True, 10, RAW),
            (None, True, 10, RAW),
            ("D7", 1, 10, RAW),
            ("D7", None, 10, RAW),
            ("D7", True, True, RAW),
            ("D7", True, 10.0, RAW),
            ("D7", True, "10", RAW),
            ("D7", True, -1, RAW),
            ("D7", True, 10, "derived"),
            ("D7", True, 10, AGGREGATED.upper()),
        ],
        ids=[
            "empty-id", "int-id", "no-id", "int-state", "no-state", "bool-time", "float-time", "str-time",
            "negative-time", "unknown-kind", "kind-case",
        ],
    )
    def test_a_write_checks_its_fields_as_a_statement_does(self, fields, concepts):
        """Each invalid field raises the same error text through the write
        as through ``Statement``, before the store looks the id up, and
        the store is left as it was."""
        with pytest.raises(StatementError) as built:
            Statement(*fields)
        store = store_with()
        before = (store.mutation_seq, dict(store.instances))
        with pytest.raises(StatementError) as written:
            store.assert_statement(*fields, concepts=concepts)
        assert str(written.value) == str(built.value)
        assert (store.mutation_seq, dict(store.instances)) == before

    def test_every_reader_raises_after_each_kind_of_write(self):
        """A snapshot reads the store in place until the store's next
        write; after an overwrite, an append, a removal, a clear or a new
        plain instance every reader raises."""
        writes = {
            "overwrite": lambda store: store.assert_statement("M16", False, 30, concepts=("MOTION",)),
            "append": lambda store: store.assert_statement(
                "M16", False, 30, concepts=("MOTION",), mode=APPEND
            ),
            "removal": lambda store: store.remove_instance("M3"),
            "clear": lambda store: store.clear_statements(),
            "plain instance": lambda store: store.add_instance("LR", ("LOCATION",)),
        }
        for write in writes.values():
            store = self.spatial()
            store.keep("MOTION")
            store.keep("MOTION", True)
            store.assert_statement("D7", True, 5, concepts=("DOOR",))
            install(store, "M16", ("MOTION",), {"isIn": ["K"]})
            store.assert_statement("M16", True, 10, concepts=("MOTION",))
            store.assert_statement("M3", False, 20, concepts=("MOTION",))
            snap = store.snapshot()
            assert [i.id for i in sorted(snap.instances.values(), key=snapshot_order)] == ["D7", "M16", "M3", "K", "P", "T1"]
            assert snap.of_concept("MOTION") is store.keep("MOTION").records
            write(store)
            assert_stale(snap)
            fresh = oracles.kept_snapshot(store, keys=every_concept(store))
            assert fresh.classification == store.classify()
            assert_snapshot_is(fresh, expected_snapshot(store))


# every reader of a snapshot, on kept lists plain and state
SNAPSHOT_READERS = {
    "get": lambda snap: snap.get("K"),
    "of_concept kept": lambda snap: snap.of_concept("MOTION"),
    "of_concept state": lambda snap: snap.of_concept("MOTION", True),
    "instances": lambda snap: snap.instances,
    "classification": lambda snap: snap.classification,
}


def assert_stale(snap):
    for read in SNAPSHOT_READERS.values():
        with pytest.raises(StoreError, match="read after the store's next write"):
            read(snap)


# random steps against a dirty store with kept lists and tallies: (action,
# sensor, state, place, time, hold); write times are drawn, so appends and
# overwrites land out of order
KEPT_OPS = st_.lists(
    st_.tuples(
        st_.sampled_from(["overwrite", "append", "add", "drop", "clear", "watch", "keep"]),
        st_.sampled_from(["M16", "M3", "D7"]),
        st_.booleans(),
        st_.sampled_from(["K", "LR", "T1"]),
        st_.integers(0, 20),
        st_.booleans(),
    ),
    max_size=30,
)
KEPT_FIRST = [("DOOR", None), ("MOTION", None), ("LIVE", None), ("KITCHEN", None), ("LOCATION", None),
              ("MOTION", True), ("SENSOR", False), ("LIVE", True)]
# registered by a "keep" step, by sensor: state lists, since every plain
# list is kept from the first snapshot on
KEPT_LATE = {"M16": ("SENSOR", True), "M3": ("MOTION", False), "D7": ("STATEMENT", True)}


def apply_kept_op(store, kept, op):
    action, sensor, state, place, time, _ = op
    if action in ("overwrite", "append"):
        concepts = ("DOOR",) if sensor == "D7" else ("MOTION",)
        install(store, sensor, concepts, {"isIn": [place]})
        store.assert_statement(
            sensor, state, time, concepts=concepts, mode=OVERWRITE if action == "overwrite" else APPEND
        )
    elif action == "add":
        store.add_instance(place, ("TABLE",) if place == "T1" else ("LOCATION",), {"isNearTo": ["T1"]} if state else {})
    elif action == "drop" and store.instances:
        store.remove_instance(sorted(store.instances)[time % len(store.instances)])
    elif action == "clear":
        store.clear_statements(keep_concepts=("DOOR",))
    elif action == "watch":
        store.watch("isIn", "KITCHEN" if state else "LOCATION")
    elif action == "keep" and KEPT_LATE[sensor] not in kept:
        store.keep(*KEPT_LATE[sensor])
        kept.append(KEPT_LATE[sensor])


def every_concept(store):
    """The plain-list key of every concept of the store's graph."""
    return [(concept, None) for concept in sorted(store.graph.concepts)]


def expected_snapshot(store):
    ordered, classification, by_id, by_concept = oracles.snapshot_from_scratch(store)
    concepts = {c: by_concept.get(c, ()) for c in sorted(store.graph.concepts)}
    return ordered, classification, by_id, concepts


def assert_snapshot_is(snap, expected):
    ordered, classification, by_id, concepts = expected
    assert len(snap.instances) == len(ordered)
    assert tuple(sorted(snap.instances.values(), key=snapshot_order)) == ordered
    assert dict(snap.classification) == classification
    for concept, records in concepts.items():
        assert tuple(snap.of_concept(concept)) == records
    for inst_id in [*by_id, "missing"]:
        assert snap.get(inst_id) is by_id.get(inst_id)


class TestKeptLists:
    @settings(max_examples=150, deadline=None)
    @given(ops=KEPT_OPS)
    def test_kept_structures_match_a_rebuild_after_every_step(self, ops):
        """After every step the kept lists, the tallies and a fresh
        snapshot equal the sort-and-index oracle and the query-based
        tally; a snapshot held across later steps raises from every reader
        once the store has written since, and reads as it did when taken
        when only watches and kept lists were added."""
        store = dirty_store()
        kept = list(KEPT_FIRST)
        for concept, state in kept:
            store.keep(concept, state)
        held = []
        for op in ops:
            apply_kept_op(store, kept, op)
            expected = expected_snapshot(store)
            store.classify()
            for concept, state in kept:
                records = expected[3][concept]
                if state is not None:
                    records = tuple(r for r in records if r.is_statement() and r.state is state)
                assert tuple(store.keep(concept, state).records) == records
                if state is not None:
                    assert store.tally(concept, state) == oracles.tally_from_scratch(store, concept, state)
            snap = oracles.kept_snapshot(store, keys=every_concept(store))
            if op[-1]:
                held.append((snap, expected, store.mutation_seq))  # read only after the later steps
            else:
                assert_snapshot_is(snap, expected)
        for snap, expected, seq in held:
            if store.mutation_seq == seq:
                assert_snapshot_is(snap, expected)
            else:
                assert_stale(snap)

    @settings(max_examples=150, deadline=None)
    @given(ops=KEPT_OPS)
    def test_equal_versions_mean_the_same_records(self, ops):
        """When the store's ``lists_version`` did not move since the
        previous read, every kept list holds the very records it held then,
        and a snapshot's state list holds the concept's records that pass
        the literal test ``hasState state``."""
        store = dirty_store()
        kept = list(KEPT_FIRST)
        for concept, state in kept:
            store.keep(concept, state)
        seen = None
        for op in ops:
            apply_kept_op(store, kept, op)
            store.classify()
            held = {key: tuple(store.keep(*key).records) for key in kept}
            if seen is not None and seen[0] == store.lists_version:
                assert held.keys() == seen[1].keys()
                for key, records in held.items():
                    assert len(records) == len(seen[1][key])
                    assert all(a is b for a, b in zip(records, seen[1][key]))
            seen = (store.lists_version, held)
            snap = oracles.kept_snapshot(store, keys=[(concept, None) for concept, state in kept if state is not None])
            for concept, state in kept:
                if state is not None:
                    passing = tuple(r for r in snap.of_concept(concept) if state in r.prop_values("hasState"))
                    assert tuple(snap.of_concept(concept, state)) == passing

    def test_defined_class_flip_moves_the_sync_statement(self):
        """``N`` is ``SYNC`` while false and ``UPDATE`` once true: each
        overwrite moves it between the kept lists and the tally, on the
        dirty path, and a snapshot taken before the overwrite refuses every
        read after it."""
        store = build_store("T7", load_store_model("src/fluentnet/scenario/t7.model"))
        store.keep("UPDATE")
        store.keep("SYNC", True)
        sync = {"concepts": ("SYNC",), "mode": OVERWRITE}
        store.assert_statement("N", False, 10, **sync)
        before = store.snapshot()
        assert before.of_concept("UPDATE") == [] and store.tally("SYNC", True) == (0, None, None)
        reclassified = store.reclassified
        store.assert_statement("N", True, 20, **sync)
        after = store.snapshot()
        assert store.reclassified - reclassified == 1
        assert after.of_concept("UPDATE") == [store.instances["N"]] and after.get("N").time == 20
        assert store.tally("SYNC", True) == (1, 20, 20)
        for read in (lambda snap: snap.of_concept("UPDATE"), lambda snap: snap.get("N")):
            with pytest.raises(StoreError):
                read(before)
        store.assert_statement("N", False, 30, **sync)
        assert store.snapshot().of_concept("UPDATE") == []
        assert store.tally("SYNC", True) == (0, None, None)
        for read in (lambda snap: snap.of_concept("UPDATE"), lambda snap: snap.get("N")):
            with pytest.raises(StoreError):
                read(after)

    def test_tallies_split_one_membership_by_state(self):
        """Statements of one membership in both states go to the tally of
        their own state, on the first (full) read and on a later local one."""
        store = store_with()
        store.keep("DOOR")
        store.keep("DOOR", True)
        store.keep("DOOR", False)
        store.assert_statement("D7", True, 10, concepts=("DOOR",))
        store.assert_statement("D8", False, 20, concepts=("DOOR",))
        assert store.classify()["D7"] == store.classify()["D8"]
        assert store.tally("DOOR", True) == (1, 10, 10)
        assert store.tally("DOOR", False) == (1, 20, 20)
        store.assert_statement("D9", False, 5, concepts=("DOOR",))
        assert store.tally("DOOR", True) == (1, 10, 10)
        assert store.tally("DOOR", False) == (2, 5, 20)
        assert [r.id for r in store.keep("DOOR").records] == ["D9", "D7", "D8"]

    def test_snapshots_share_until_the_next_write(self):
        """Snapshots taken with no write between them read the store's own
        record map and kept lists; the next write makes both refuse every
        read."""
        store = store_with()
        store.keep("DOOR")
        store.assert_statement("D7", True, 10, concepts=("DOOR",))
        first, second = store.snapshot(), store.snapshot()
        for snap in (first, second):
            assert snap.of_concept("DOOR") is store.keep("DOOR").records
            assert snap.get("D7") is store.instances["D7"]
        store.assert_statement("D7", False, 20, concepts=("DOOR",))
        for snap in (first, second):
            for read in (lambda s: s.get("D7"), lambda s: s.of_concept("DOOR"), lambda s: s.instances,
                         lambda s: s.classification):
                with pytest.raises(StoreError, match="'test' read after the store's next write"):
                    read(snap)
        assert [r.time for r in store.snapshot().of_concept("DOOR")] == [20]

    def test_of_concept_of_a_key_not_kept_raises(self):
        """A snapshot hands out only the lists its store keeps: a plain or
        state key the store does not keep raises, naming the store and the
        key, and the kept ones read as before."""
        store = store_with()
        store.keep("DOOR")
        store.keep("DOOR", True)
        store.assert_statement("D7", True, 10, concepts=("DOOR",))
        snap = store.snapshot()
        assert [r.id for r in snap.of_concept("DOOR", True)] == ["D7"]
        for key in (("SENSOR", None), ("DOOR", False), ("LOCATION", True)):
            with pytest.raises(StoreError, match=re.escape(f"snapshot of 'test' keeps no list {key!r}")):
                snap.of_concept(*key)
        assert snap.of_concept("DOOR") is store.keep("DOOR").records


class TestReferenceIndex:
    """A write whose previous record has the same template skips the axiom
    arithmetic and the reference-index update; every other write does
    both.  Each is checked against its recount from scratch."""

    def test_index_count_and_person_match_a_recount_after_each_kind_of_overwrite(self):
        store = store_with(
            installations={"M16": SensorDecl("M16", ("MOTION",), (("isIn", "K"),))},
            person_id="P",
            presence_concept="MOTION",
        )
        store.add_instance("K", ("KITCHEN",))
        store.add_instance("T1", ("TABLE",))
        templates = []

        def check():
            classification = oracles.classify_from_scratch(store)
            assert store._referrers == oracles.references_from_scratch(store)
            assert store.axiom_count() == oracles.recount_axioms(store)
            assert store.classify() == classification
            assert store.infer_person_context() == oracles.person_context_from_scratch(store, classification)

        def write(time, concepts=None):
            store.assert_statement("M16", time % 2 == 1, time, concepts=concepts)
            templates.append(store.instances["M16"].template)
            check()

        for time in (1, 2, 3):  # same-template overwrites, the state flipping
            write(time)
        # a new installation: the next write rebuilds the template, with the
        # same weight and another named id
        store.installations["M16"] = SensorDecl("M16", ("DOOR",), (("isNearTo", "T1"),))
        write(4)
        write(5)
        write(6, ("DOOR", "ITEM"))  # other concepts: another template, of another weight
        write(7, ("DOOR", "ITEM"))
        write(8)
        store.remove_instance("M16")
        check()
        write(9)  # re-added under the template it had before the removal
        write(10)
        first, rebuilt, other = templates[0], templates[3], templates[5]
        assert [t is first for t in templates[:3]] == [True] * 3
        assert rebuilt.weight == first.weight and rebuilt.names != first.names
        assert other.weight != rebuilt.weight
        assert [t is rebuilt for t in templates[3:]] == [True, True, False, False, True, True, True]


class TestAxioms:
    def test_empty_graph_empty_store(self):
        assert ContextStore("empty", ConceptGraph()).axiom_count() == 0

    def test_overwrite_count_stable(self):
        store = store_with()
        store.assert_statement("D7", True, 1, concepts=("DOOR",))
        first = store.axiom_count()
        for t in range(2, 12):
            store.assert_statement("D7", t % 2 == 0, t, concepts=("DOOR",))
        assert store.axiom_count() == first

    def test_append_grows_by_fixed_amount(self):
        store = store_with(default_mode=APPEND)
        base = store.axiom_count()
        store.assert_statement("D7", True, 1, concepts=("DOOR",))
        grown = store.axiom_count()
        store.assert_statement("D7", False, 2, concepts=("DOOR",))
        assert store.axiom_count() - grown == grown - base
        assert store.axiom_count() == oracles.recount_axioms(store)

    def test_incremental_matches_recount_over_random_sequences(self):
        """Overwrites rewrite an id under other concepts, and every other
        store installs ``I6`` in the kitchen, so a write may change the
        template of the record it replaces or keep it."""
        rng = random.Random(99)
        for run in range(30):
            store = store_with(installations={"I6": SensorDecl("I6", ("ITEM",), (("isIn", "K"),))} if run % 2 else {})
            store.add_instance("K", ("KITCHEN",))
            for step in range(40):
                action = rng.randrange(4)
                sensor = rng.choice(["D7", "I4", "I6"])
                if action == 0:
                    concepts = [("DOOR",), ("ITEM",), ("MOTION",)] + ([None] if sensor in store.installations else [])
                    store.assert_statement(
                        sensor, rng.random() < 0.5, step,
                        concepts=rng.choice(concepts),
                        mode=OVERWRITE,
                    )
                elif action == 1:
                    store.assert_statement(
                        sensor, rng.random() < 0.5, step,
                        concepts=("ITEM",),
                        mode=APPEND,
                    )
                elif action == 2:
                    store.clear_statements(keep_concepts=("DOOR",))
                elif store.instances:
                    store.remove_instance(rng.choice(sorted(store.instances)))
                assert store.axiom_count() == oracles.recount_axioms(store)

    @settings(max_examples=80, deadline=None)
    @given(
        st_.lists(
            st_.tuples(
                st_.sampled_from(["overwrite", "append", "clear", "drop"]),
                st_.sampled_from(["D7", "I4", "I6"]),
                st_.booleans(),
                st_.integers(min_value=0, max_value=10_000),
            ),
            max_size=25,
        )
    )
    def test_bookkeeping_invariant_holds_for_any_sequence(self, ops):
        store = store_with()
        for action, sensor, state, time in ops:
            concepts = ("DOOR",) if sensor == "D7" else ("ITEM",)
            if action == "overwrite":
                store.assert_statement(sensor, state, time, concepts=concepts, mode=OVERWRITE)
            elif action == "append":
                store.assert_statement(sensor, state, time, concepts=concepts, mode=APPEND)
            elif action == "clear":
                store.clear_statements(keep_concepts=("DOOR",))
            elif store.instances:
                store.remove_instance(sorted(store.instances)[time % len(store.instances)])
            assert store.axiom_count() == oracles.recount_axioms(store)


class TestClear:
    def test_clear_keeps_requested_concepts(self):
        store = store_with(default_mode=APPEND)
        store.assert_statement("I4", True, 1, concepts=("ITEM",))
        store.assert_statement("D7", True, 2, concepts=("DOOR",))
        removed = store.clear_statements(keep_concepts=("DOOR",))
        assert removed == 1
        assert set(store.instances) == {"D7#1"}

    def test_clear_empty(self):
        assert store_with().clear_statements() == 0

    def test_plain_instances_survive(self):
        store = store_with()
        store.add_instance("K", ("KITCHEN",))
        store.assert_statement("I4", True, 1, concepts=("ITEM",))
        store.clear_statements()
        assert set(store.instances) == {"K"}


class TestModelFile:
    def test_shipped_spatial_model_loads(self):
        model = load_store_model(SPATIAL)
        assert model.person_id == "P"
        assert model.presence_concept == "MOTION"
        medicine = sorted(
            s for s, d in model.installations.items() if "MEDICINE" in d.concepts
        )
        assert medicine == ["D7", "I4", "I6", "I7"]

    def test_build_store_asserts_prior_instances(self):
        store = build_store("L", load_store_model(SPATIAL))
        assert "K" in store.instances and "P" in store.instances
        assert store.axiom_count() == oracles.recount_axioms(store)

    def test_snapshot_is_stable_under_mutation(self):
        """A new kept list and the full recompute it brings are not writes:
        they give the store new lists and a new membership map, and a
        snapshot taken before reads what it read before, with no list for
        the new concept.  A write then makes it refuse every read."""
        store = store_with()
        store.keep("DOOR")
        store.assert_statement("D7", True, 10, concepts=("DOOR",))
        store.assert_statement("I4", False, 5, concepts=("ITEM",))
        snap = store.snapshot()

        def of_concept(*key):
            """The ids of a kept list; ``None`` when the snapshot has none."""
            try:
                return [r.id for r in snap.of_concept(*key)]
            except StoreError:
                return None

        def reads():
            return (
                [r.id for r in sorted(snap.instances.values(), key=snapshot_order)],
                dict(snap.classification),
                of_concept("DOOR"),
                of_concept("SENSOR"),
                of_concept("SENSOR", False),
                snap.get("D7"),
            )

        seen = reads()
        assert seen[:5] == (["I4", "D7"], dict(store.classify()), ["D7"], None, None)
        door = store.keep("DOOR").records
        store.keep("SENSOR")
        store.keep("SENSOR", False)
        assert reads() == seen
        store.classify()
        assert store.keep("DOOR").records is not door and [r.id for r in store.keep("SENSOR", False).records] == ["I4"]
        assert reads() == seen
        store.assert_statement("D7", False, 20, concepts=("DOOR",))
        with pytest.raises(StoreError):
            snap.get("D7")

    def test_parse_errors_carry_line_numbers(self):
        from fluentnet.modelio import ConfigError

        with pytest.raises(ConfigError) as err:
            parse_store_model("[subclass]\nDOOR\n")
        assert "line 2" in str(err.value)
