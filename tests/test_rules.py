"""Rule engine: planning checks, matching semantics, oracle equivalence."""

import random

import pytest

from fluentnet import dsl
from fluentnet.context import APPEND, ConceptGraph, ContextStore, SensorDecl, StoreError
from fluentnet.rules import (
    Assign,
    BuiltinError,
    ClassAtom,
    Compare,
    Head,
    PropertyAtom,
    Rule,
    RuleEngine,
    RuleValidationError,
    eval_builtin,
    plan_rules,
)

import oracles
from test_dsl import random_model


def item_store(*readings):
    g = ConceptGraph()
    for c in ("STATEMENT", "SENSOR", "ITEM", "DOOR", "ACTIVITY"):
        g.add_concept(c)
    g.add_subclass("SENSOR", "STATEMENT")
    g.add_subclass("ITEM", "SENSOR")
    g.add_subclass("DOOR", "SENSOR")
    store = ContextStore("T", g, default_mode=APPEND)
    for ident, state, time in readings:
        cls = "DOOR" if ident.startswith("D") else "ITEM"
        store.assert_statement(ident, state, time, concepts=(cls,))
    return store


def dvd_rule(gap):
    """An item goes absent, then present at least ``gap`` ms later."""
    return Rule(
        name="A2",
        body=(
            ClassAtom("ITEM", "?taken"),
            PropertyAtom("hasState", "?taken", False),
            PropertyAtom("hasTime", "?taken", "?t_taken"),
            ClassAtom("ITEM", "?back"),
            PropertyAtom("hasState", "?back", True),
            PropertyAtom("hasTime", "?back", "?t_back"),
            Assign("?deadline", "?t_taken", gap),
            Compare("<=", "?deadline", "?t_back"),
        ),
        head=Head(instance_id="A2", concepts=("ACTIVITY",), state=True, time="?t_back"),
    )


class TestRegistration:
    def test_unbound_head_variable(self):
        rule = Rule(
            name="bad",
            body=(ClassAtom("ITEM", "?i"),),
            head=Head("A", ("ACTIVITY",), True, "?t"),
        )
        with pytest.raises(RuleValidationError, match=r"unbound \?t"):
            plan_rules([rule])

    def test_unbound_builtin_variable(self):
        rule = Rule(
            name="bad",
            body=(ClassAtom("ITEM", "?i"), Compare("<=", "?x", 5)),
            head=Head("A", ("ACTIVITY",), True, 0),
        )
        with pytest.raises(RuleValidationError, match=r"unbound \?x"):
            plan_rules([rule])

    def test_duplicate_name_rejected(self):
        with pytest.raises(RuleValidationError):
            plan_rules([dvd_rule(50), dvd_rule(60)])

    def test_empty_body_rejected(self):
        with pytest.raises(RuleValidationError):
            plan_rules([Rule("e", (), Head("A", (), True, 0))])

    @pytest.mark.parametrize("time", [0, "?late", "?state"])
    def test_a_head_time_no_shift_leads_back_to_a_class_variable_is_rejected(self, time):
        """A literal head time, a sum with the number first, or a value
        other than a time: no candidate time pins any of them, and the
        compiler writes none."""
        base = dvd_rule(50)
        body = base.body + (Assign("?late", 100, "?t_taken"), PropertyAtom("hasState", "?back", "?state"))
        assert plan_rules([Rule("A2", body, base.head)])
        with pytest.raises(RuleValidationError, match="is not a class variable's time"):
            plan_rules([Rule("A2", body, Head("A2", ("ACTIVITY",), True, time))])

    def test_activity_rule_registers(self):
        assert [plan.rule.name for plan in plan_rules([dvd_rule(50)])] == ["A2"]

    def test_reading_before_the_binding_atom_is_rejected(self):
        base = dvd_rule(50)
        *head, assign, compare = base.body
        rule = Rule("A2", (*head, compare, assign), base.head)
        with pytest.raises(RuleValidationError, match=r"unbound \?deadline"):
            plan_rules([rule])

    def test_rebinding_a_variable_is_rejected(self):
        base = dvd_rule(50)
        rule = Rule("A2", base.body + (ClassAtom("ITEM", "?back"),), base.head)
        with pytest.raises(RuleValidationError, match=r"\?back is bound twice"):
            plan_rules([rule])

    def test_compiled_random_models_register(self):
        rng = random.Random(1)
        for _ in range(300):
            plan_rules(dsl.compile_model(random_model(rng)).rules)


class TestEvaluation:
    def test_item_cycle_derives(self):
        engine = RuleEngine(plan_rules([dvd_rule(50)]))
        store = item_store(("I5", False, 10), ("I5", True, 100))
        derived = engine.evaluate(oracles.kept_snapshot(store, engine.plans))
        assert [(d.instance_id, d.state, d.time) for d in derived] == [("A2", True, 100)]

    def test_gap_not_met(self):
        engine = RuleEngine(plan_rules([dvd_rule(200)]))
        store = item_store(("I5", False, 10), ("I5", True, 100))
        assert engine.evaluate(oracles.kept_snapshot(store, engine.plans)) == []

    def test_inequality_needs_two_instances(self):
        rule = Rule(
            name="pair",
            body=(
                ClassAtom("ITEM", "?i"),
                PropertyAtom("hasTime", "?i", "?t"),
                ClassAtom("ITEM", "?j"),
                Compare("!=", "?i", "?j"),
            ),
            head=Head("PAIR", ("ACTIVITY",), True, "?t"),
        )
        engine = RuleEngine(plan_rules([rule]))
        assert engine.evaluate(oracles.kept_snapshot(item_store(("I5", True, 10)), engine.plans)) == []
        two = item_store(("I5", True, 10), ("I3", True, 11))
        assert [d.time for d in engine.evaluate(oracles.kept_snapshot(two, engine.plans))] == [10, 11]

    def test_deduplicates_equal_heads(self):
        engine = RuleEngine(plan_rules([dvd_rule(10)]))
        # two absences both pair with one return: one derived head value
        store = item_store(("I5", False, 10), ("I3", False, 20), ("I5", True, 100))
        derived = engine.evaluate(oracles.kept_snapshot(store, engine.plans))
        assert [(d.instance_id, d.time) for d in derived] == [("A2", 100)]

    def test_repeated_calls_identical(self):
        engine = RuleEngine(plan_rules([dvd_rule(50)]))
        snap = oracles.kept_snapshot(item_store(("I5", False, 10), ("I5", True, 100), ("I3", True, 90)), engine.plans)
        assert engine.evaluate(snap) == engine.evaluate(snap)


class TestBuiltins:
    def test_inclusive_comparison(self):
        assert eval_builtin("<=", 5, 5) is True

    def test_sum(self):
        assert eval_builtin("sum", 10, 50) == 60

    def test_identity_difference(self):
        assert eval_builtin("!=", "I5#1", "I5#1") is False
        assert eval_builtin("!=", "I5#1", "I5#2") is True

    @pytest.mark.parametrize("op", ["==", ">=", "<", ">"])
    def test_only_the_compiled_comparisons_exist(self, op):
        with pytest.raises(BuiltinError):
            eval_builtin(op, 1, 2)
        rule = Rule("c", (ClassAtom("ITEM", "?i"), Compare(op, 1, 2)), Head("A", (), True, 0))
        with pytest.raises(RuleValidationError, match="unknown comparison"):
            plan_rules([rule])


class TestOrderIndependence:
    def test_permuted_bodies_derive_the_same(self):
        """A shuffled body is rejected by plan_rules or derives what the
        original derives."""
        rng = random.Random(5)
        base = dvd_rule(50)
        snap = oracles.kept_snapshot(
            item_store(("I5", False, 10), ("I3", False, 40), ("I5", True, 70), ("I3", True, 120)), plan_rules([base])
        )

        def derive(body):
            engine = RuleEngine(plan_rules([Rule("A2", body, base.head)]))
            return sorted((d.instance_id, d.state, d.time) for d in engine.evaluate(snap))

        reference = derive(base.body)
        assert reference
        outcomes = set()
        for _ in range(200):
            body = list(base.body)
            rng.shuffle(body)
            try:
                got = derive(tuple(body))
            except RuleValidationError:
                outcomes.add("rejected")
                continue
            outcomes.add("derived")
            assert got == reference
        assert outcomes == {"rejected", "derived"}


def random_snapshot(rng, plans, max_instances=12):
    readings = []
    n = rng.randrange(1, max_instances + 1)
    for i in range(n):
        ident = rng.choice(["I5", "I3", "I8", "D7", "D8"])
        readings.append((ident, rng.random() < 0.5, rng.randrange(0, 300)))
    return oracles.kept_snapshot(item_store(*readings), plans)


def test_engine_matches_brute_force_on_random_rules():
    rng = random.Random(314)
    for _ in range(60):
        gap = rng.randrange(0, 150)
        rule = dvd_rule(gap)
        engine = RuleEngine(plan_rules([rule]))
        snap = random_snapshot(rng, engine.plans)
        expected = oracles.brute_force_derivations(rule, snap)
        got = sorted(
            {(d.instance_id, d.state, d.time) for d in engine.evaluate(snap)},
            key=lambda k: (k[0], k[2]),
        )
        assert got == expected


def test_shipped_models_match_brute_force_where_compared_times_meet(scenario):
    """Criterion 8's check on readings at whole 5 s steps, where a shifted
    time often equals the time it is compared with, so an inclusive ``<=``
    and the distinctness guards decide derivations."""
    from test_acceptance import _random_activity_snapshot

    rng = random.Random(56)
    found = 0
    for index in sorted(scenario.bindings):
        binding = scenario.bindings[index]
        engine = RuleEngine(binding.plans)
        for _ in range(60):
            snap = _random_activity_snapshot(rng, scenario, binding, grid=5_000)
            expected = [oracles.brute_force_derivations(rule, snap) for rule in binding.compiled.rules]
            got = sorted({(d.instance_id, d.state, d.time) for d in engine.evaluate(snap)}, key=lambda k: (k[0], k[2]))
            assert got == sorted(set().union(*map(set, expected)), key=lambda k: (k[0], k[2])), f"A{index}"
            assert engine.earliest(snap) == earliest_by_evaluate(engine, snap), f"A{index}"
            found += bool(got)
    assert found >= 50


# -- the earliest derivation ----------------------------------------------------


def earliest_by_evaluate(engine, snap):
    derived = engine.evaluate(snap)
    return min(derived, key=lambda d: d.time) if derived else None


def model_store(rng, concepts, max_instances=14):
    """An append store of random statements under ``concepts``, with times
    close enough for the compiled gaps and windows to be met."""
    g = ConceptGraph()
    for c in ("STATEMENT", "ACTIVITY", *concepts):
        g.add_concept(c)
    for c in concepts:
        g.add_subclass(c, "STATEMENT")
    store = ContextStore("T", g, default_mode=APPEND)
    for _ in range(rng.randrange(1, max_instances + 1)):
        concept = rng.choice(concepts)
        store.assert_statement(
            f"{concept}{rng.randrange(3)}", rng.random() < 0.5, rng.randrange(0, 150_000), concepts=(concept,)
        )
    return store


class TestEarliest:
    def test_equals_the_minimum_of_evaluate_on_the_shipped_models(self, scenario):
        from test_acceptance import _random_activity_snapshot

        rng = random.Random(808)
        checked = found = 0
        for index in sorted(scenario.bindings):
            binding = scenario.bindings[index]
            engine = RuleEngine(plan_rules(binding.compiled.rules))
            for size in (12, 30) * 60:
                snap = _random_activity_snapshot(rng, scenario, binding, max_instances=size)
                expected = earliest_by_evaluate(engine, snap)
                assert engine.earliest(snap) == expected, f"A{index}"
                checked += 1
                found += expected is not None
        assert checked >= 800
        assert found >= 50

    def test_equals_the_minimum_of_evaluate_on_random_models(self):
        rng = random.Random(909)
        concepts = ("DOOR", "ITEM", "FLOW", "PHONE", "MOTION", "MOTION_WINDOW", "ZONE_WINDOW",
                    "ITEM_WINDOW", "SPAN", "STAY")
        found = 0
        for _ in range(300):
            engine = RuleEngine(plan_rules(dsl.compile_model(random_model(rng)).rules))
            snap = oracles.kept_snapshot(model_store(rng, concepts), engine.plans)
            expected = earliest_by_evaluate(engine, snap)
            assert engine.earliest(snap) == expected
            found += expected is not None
        assert found >= 30

    def test_equals_the_minimum_of_evaluate_where_the_head_bounds_no_class_time(self):
        """``?y`` has no time and ``?v`` bounds ``?u`` from above, so pinning
        the head time ``?t`` bounds neither ``?y``, ``?w`` nor ``?z``: their
        candidates stay whole."""
        rule = Rule(
            name="X",
            body=(
                ClassAtom("ITEM", "?x"),
                PropertyAtom("hasTime", "?x", "?t"),
                ClassAtom("DOOR", "?y"),
                ClassAtom("ITEM", "?z"),
                PropertyAtom("hasTime", "?z", "?u"),
                ClassAtom("DOOR", "?w"),
                PropertyAtom("hasTime", "?w", "?v"),
                Compare("<=", "?u", "?v"),
            ),
            head=Head("X", ("ACTIVITY",), True, "?t"),
        )
        engine = RuleEngine(plan_rules([rule]))
        rng = random.Random(404)
        found = 0
        for _ in range(300):
            snap = random_snapshot(rng, engine.plans)
            expected = earliest_by_evaluate(engine, snap)
            assert engine.earliest(snap) == expected
            found += expected is not None
        assert found >= 30

    def test_tie_at_the_earliest_time_goes_to_the_body_order_first_binding(self):
        engine = RuleEngine(plan_rules([dvd_rule(50)]))
        # both absences pair with the one return; I5#1 comes first in
        # snapshot order although I3#1 sorts first by id
        snap = oracles.kept_snapshot(item_store(("I5", False, 10), ("I3", False, 20), ("I5", True, 100)), engine.plans)
        best = engine.earliest(snap)
        assert (best.time, dict(best.binding)["?taken"]) == (100, "I5#1")
        assert best == earliest_by_evaluate(engine, snap)

    def test_tie_between_rules_goes_to_the_first_registered(self):
        snap = oracles.kept_snapshot(item_store(("I5", False, 10), ("I5", True, 100)), plan_rules([dvd_rule(50)]))
        for first, second in (("B", "A"), ("A", "B")):
            rules = [Rule(name, dvd_rule(gap).body, dvd_rule(gap).head) for name, gap in ((first, 50), (second, 10))]
            engine = RuleEngine(plan_rules(rules))
            best = engine.earliest(snap)
            assert (best.rule, best.time) == (first, 100)
            assert best == earliest_by_evaluate(engine, snap)

    def test_no_derivation_is_none(self):
        engine = RuleEngine(plan_rules([dvd_rule(200)]))
        assert engine.earliest(oracles.kept_snapshot(item_store(("I5", False, 10), ("I5", True, 100)), engine.plans)) is None

    def test_examined_counts_candidates_and_is_read_only(self):
        engine = RuleEngine(plan_rules([dvd_rule(50)]))
        snap = oracles.kept_snapshot(item_store(("I5", False, 10), ("I5", True, 100)), engine.plans)
        assert engine.examined == 0
        engine.evaluate(snap)
        assert engine.examined == 2
        with pytest.raises(AttributeError):
            engine.examined = 0

    @pytest.mark.parametrize("present_at", [10_000_000, 3_000])
    def test_a_shifted_head_is_pinned(self, present_at):
        """A model whose last operand is shifted compiles to a head time
        ``?t + d1``, which is pinned like any other: 200 absences that no
        presence within 5 s follows cost no candidate, and a trace that
        has a derivation finds the minimum of ``evaluate``."""
        rules = dsl.compile_model(dsl.parse_model("X := ITEM:+ <= ITEM:- + d1 where d1 = 5 s")).rules
        engine = RuleEngine(plan_rules(rules))
        assert [(plan.head_offset, plan.rule.head.time) for plan in engine.plans] == [(5_000, "?a5")]
        store = item_store(*[("I5", False, 1_000 + i) for i in range(200)])
        for i in range(200):
            store.assert_statement("I3", True, present_at + i, concepts=("ITEM",))
        snap = oracles.kept_snapshot(store, engine.plans)
        best = engine.earliest(snap)
        if present_at == 10_000_000:
            assert (best, engine.examined) == (None, 0)
        else:
            assert best.time == 6_000
            assert best == earliest_by_evaluate(engine, snap)


# -- kept state lists -----------------------------------------------------------

# writes that would give a record a state or a time outside a statement:
# an item with an integer 0/1 state, a plain item instance with a
# ``hasState`` value and no time, an item statement whose declaration adds
# a second ``hasState`` value, and a plain instance with a time
ODD_WRITES = {
    "int": lambda store: store.add_instance("I0", ("ITEM",), {"hasState": [0], "hasTime": [40]}),
    "plain": lambda store: store.add_instance("P1", ("ITEM",), {"hasState": [False]}),
    "second": lambda store: store.assert_statement("I9", True, 120),
    "time": lambda store: store.add_instance("K", ("ITEM",), {"hasTime": [5]}),
}


def state_store(readings, keep):
    """An append store of item and door statements.  With ``keep`` the
    store keeps the state lists an evaluator of ``dvd_rule`` keeps."""
    store = item_store()
    if keep:
        for key in (("ITEM", False), ("ITEM", True)):
            store.keep(*key)
    for ident, state, time in readings:
        store.assert_statement(ident, state, time, concepts=("DOOR" if ident.startswith("D") else "ITEM",))
    return store


def candidate_ids(engine, plan, snap):
    candidates = engine._candidates(plan, snap)
    return None if candidates is None else {var: [i.id for i in found] for var, found in candidates.items()}


class TestKeptStateLists:
    def test_candidates_and_derivations_equal_the_literal_filter(self):
        """A store that keeps state lists hands the matcher the candidates,
        derivations and earliest witness that the literal filter of the
        whole snapshot (``oracles.literal_filter``) finds on a store that
        keeps none."""
        rng = random.Random(16)
        quick = dvd_rule(0)
        plans = plan_rules([dvd_rule(50), Rule("A2-quick", quick.body, quick.head)])
        for _ in range(240):
            readings = [
                (rng.choice(["I5", "I3", "D7"]), rng.random() < 0.5, rng.randrange(0, 300))
                for _ in range(rng.randrange(0, 10))
            ]
            kept = state_store(readings, keep=True).snapshot()
            plain = state_store(readings, keep=False).snapshot()
            lists, filters = RuleEngine(plans), RuleEngine(plans)
            filters._candidates = lambda plan, snap: oracles.literal_filter(plan.rule, snap)
            for plan in plans:
                assert candidate_ids(lists, plan, kept) == candidate_ids(filters, plan, plain)
            assert lists.evaluate(kept) == filters.evaluate(plain)
            assert lists.earliest(kept) == filters.earliest(plain)
            assert kept.of_concept("ITEM", False) is not None

    @pytest.mark.parametrize("kind", sorted(ODD_WRITES))
    def test_an_odd_record_raises_at_the_write(self, kind):
        """Only a statement's write sets ``hasState`` and ``hasTime``: a
        plain instance or a declaration naming either is refused, and the
        store is left as it was, so every record a state list or the
        literal test reads has one bool state and a time."""
        store = state_store([("I5", False, 10), ("I5", True, 100)], keep=True)
        store.installations["I9"] = SensorDecl("I9", ("ITEM",), (("hasState", False),))
        before = (store.mutation_seq, dict(store.instances), store.axiom_count())
        with pytest.raises(StoreError, match="cannot declare has(State|Time): only a statement carries it"):
            ODD_WRITES[kind](store)
        assert (store.mutation_seq, dict(store.instances), store.axiom_count()) == before
        engine = RuleEngine(plan_rules([dvd_rule(50)]))
        assert [(d.time, dict(d.binding)["?taken"]) for d in engine.evaluate(store.snapshot())] == [(100, "I5#1")]

    @pytest.mark.parametrize("goes", ["removed", "overwritten", "removed before a full recompute"])
    @pytest.mark.parametrize("kind", ("int", "plain", "second"))
    def test_an_odd_record_is_filtered_until_it_goes(self, kind, goes):
        """An odd record is refused at its write, so the state lists stay
        exact: before and after a statement goes, removed or overwritten by
        a plain instance, on the local path or a full recompute, they hold
        what the literal test passes."""
        readings = [("I3", False, 20), ("I5", False, 10), ("I5", True, 100)]
        store = state_store(readings, keep=True)
        store.installations["I9"] = SensorDecl("I9", ("ITEM",), (("hasState", False),))
        engine = RuleEngine(plan_rules([dvd_rule(50)]))
        with pytest.raises(StoreError, match="only a statement carries it"):
            ODD_WRITES[kind](store)
        plans = plan_rules([dvd_rule(50)])
        expected = RuleEngine(plans).evaluate(oracles.kept_snapshot(state_store(readings, keep=False), plans))
        snap = store.snapshot()
        assert engine.evaluate(snap) == expected
        assert sorted(r.id for r in snap.of_concept("ITEM", False)) == ["I3#1", "I5#1"]
        if goes == "overwritten":
            store.add_instance("I3#1", ("DOOR",))
        else:
            store.remove_instance("I3#1")
        if goes == "removed before a full recompute":
            store.keep("DOOR")
        snap = store.snapshot()
        assert [r.id for r in snap.of_concept("ITEM", False)] == ["I5#1"]
        assert [(d.time, dict(d.binding)["?taken"]) for d in engine.evaluate(snap)] == [(100, "I5#1")]

    def test_plans_are_shared_and_work_is_counted_per_engine(self):
        plans = plan_rules([dvd_rule(50)])
        snap = state_store([("I5", False, 10), ("I5", True, 100)], keep=True).snapshot()
        first, second = RuleEngine(plans), RuleEngine(plans)
        assert first.plans == second.plans == plans
        first.evaluate(snap)
        assert (first.examined, second.examined) == (2, 0)
        with pytest.raises(RuleValidationError):
            plan_rules([dvd_rule(50), dvd_rule(60)])

    def test_a_list_the_store_does_not_keep_raises(self):
        """The matcher reads only kept lists: on a store that keeps none of
        the plan's lists, evaluation raises naming the store and the key."""
        engine = RuleEngine(plan_rules([dvd_rule(50)]))
        snap = state_store([("I5", False, 10), ("I5", True, 100)], keep=False).snapshot()
        for read in (engine.evaluate, engine.earliest):
            with pytest.raises(StoreError, match=r"snapshot of 'T' keeps no list \('ITEM', False\)"):
                read(snap)


# the literal tests a class variable of ``rule_with_tests`` carries: a boolean
# ``hasState`` value (the list it reads), none (the plain list), a non-bool
# ``hasState`` value (a search step, which ``0 in (False,)`` passes), and a
# second test after a boolean one, on the state or on the time
LITERAL_TESTS = {
    "bool": lambda var, rng: [PropertyAtom("hasState", var, rng.random() < 0.5)],
    "none": lambda var, rng: [],
    "int": lambda var, rng: [PropertyAtom("hasState", var, rng.randrange(2))],
    "second state": lambda var, rng: [
        PropertyAtom("hasState", var, rng.random() < 0.5),
        PropertyAtom("hasState", var, rng.random() < 0.5),
    ],
    "second time": lambda var, rng: [
        PropertyAtom("hasState", var, rng.random() < 0.5),
        PropertyAtom("hasTime", var, rng.randrange(0, 300, 30)),
    ],
}


def rule_with_tests(rng, taken, back, gap):
    """``dvd_rule`` with the literal tests ``LITERAL_TESTS[taken]`` and
    ``LITERAL_TESTS[back]`` on its two class variables."""
    return Rule(
        name="A2",
        body=(
            ClassAtom("ITEM", "?taken"),
            *LITERAL_TESTS[taken]("?taken", rng),
            PropertyAtom("hasTime", "?taken", "?t_taken"),
            ClassAtom("ITEM", "?back"),
            *LITERAL_TESTS[back]("?back", rng),
            PropertyAtom("hasTime", "?back", "?t_back"),
            Assign("?deadline", "?t_taken", gap),
            Compare("<=", "?deadline", "?t_back"),
        ),
        head=Head(instance_id="A2", concepts=("ACTIVITY",), state=True, time="?t_back"),
    )


@pytest.mark.parametrize("taken", sorted(LITERAL_TESTS))
def test_literal_tests_beside_the_list_match_the_oracles(taken):
    """Whatever literal tests a class variable carries, only its first
    boolean ``hasState`` value picks its list; every other test runs in the
    search.  Derivations equal the all-permutations matcher and
    ``earliest`` the minimum of ``evaluate``."""
    rng = random.Random(f"literal {taken}")
    found = 0
    for back in sorted(LITERAL_TESTS):
        for _ in range(40):
            rule = rule_with_tests(rng, taken, back, rng.randrange(0, 150, 30))
            engine = RuleEngine(plan_rules([rule]))
            # each variable's first boolean hasState test picks its list
            lifted = [next((a.value for a in rule.body if isinstance(a, PropertyAtom) and a.var == var
                            and a.prop == "hasState" and isinstance(a.value, bool)), None)
                      for var in ("?taken", "?back")]
            assert [state for _, _, state in engine.plans[0].classes] == lifted
            readings = [
                (rng.choice(["I5", "I3", "D7"]), rng.random() < 0.5, rng.randrange(0, 300, 30))
                for _ in range(rng.randrange(1, 10))
            ]
            snap = oracles.kept_snapshot(state_store(readings, keep=False), engine.plans)
            expected = oracles.brute_force_derivations(rule, snap)
            got = sorted({(d.instance_id, d.state, d.time) for d in engine.evaluate(snap)}, key=lambda k: (k[0], k[2]))
            assert got == expected, (taken, back)
            assert engine.earliest(snap) == earliest_by_evaluate(engine, snap)
            found += bool(expected)
    assert found >= 10
