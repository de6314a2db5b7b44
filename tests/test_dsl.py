"""Fluent-model language: parsing, formatting, compilation, sentences."""

import random
from pathlib import Path

import pytest

from fluentnet import dsl
from fluentnet.rules import Assign, Compare

MODELS_DIR = Path("src/fluentnet/scenario/models")


class TestParse:
    def test_shift_then_precedence(self):
        ast = dsl.parse_model("A2 := (ITEM:- + d2) <= ITEM:+ where d2 = 60 s")
        assert isinstance(ast.expr, dsl.PrecNode)
        assert isinstance(ast.expr.left, dsl.ShiftNode)
        assert ast.expr.left.param == "d2"
        assert ast.expr.left.child == dsl.SensorRef("ITEM", False)
        assert ast.expr.right == dsl.SensorRef("ITEM", True)
        assert ast.param_table() == {"d2": 60_000}

    def test_chain_with_two_convolutions(self):
        text = (
            "A3 := DOOR:+ <= FLOW:+ <= (conv(PLANT1:+, h3, d3) & conv(PLANT2:+, h4, d4)) <= DOOR:-"
            " where h3=2 h4=2 d3=20 s d4=20 s"
        )
        ast = dsl.parse_model(text)
        convs = [
            n
            for n in _walk(ast.expr)
            if isinstance(n, dsl.ConvRef)
        ]
        assert len(convs) == 2
        assert convs[0].min_count_param == "h3" and convs[0].window_param == "d3"

    def test_dangling_operator_position(self):
        with pytest.raises(dsl.ParseError) as err:
            dsl.parse_model("A := X:+ <=")
        assert err.value.line == 1
        assert err.value.col == 12

    def test_unknown_parameter(self):
        with pytest.raises(dsl.DslError, match="unknown parameter 'd9'"):
            dsl.parse_model("A := ITEM:- + d9")

    def test_unknown_sensor_class(self):
        with pytest.raises(dsl.DslError, match="unknown sensor class 'SOFA'"):
            dsl.parse_model("A := SOFA:+", known_classes={"ITEM", "DOOR"})

    def test_units(self):
        ast = dsl.parse_model("A := ITEM:+ + dx where dx = 2 min")
        assert ast.param_table() == {"dx": 120_000}

    def test_left_association(self):
        ast = dsl.parse_model("A := ITEM:+ <= DOOR:+ & FLOW:+")
        assert isinstance(ast.expr, dsl.AndNode)
        assert isinstance(ast.expr.left, dsl.PrecNode)


def _walk(node):
    yield node
    if isinstance(node, (dsl.AndNode, dsl.OrNode, dsl.PrecNode)):
        yield from _walk(node.left)
        yield from _walk(node.right)
    elif isinstance(node, dsl.ShiftNode):
        yield from _walk(node.child)


class TestRoundTrip:
    def test_shipped_models_are_fixpoints(self):
        for path in sorted(MODELS_DIR.glob("*.fluent")):
            ast = dsl.parse_model(path.read_text(encoding="utf-8"))
            assert dsl.parse_model(dsl.format_model(ast)) == ast, path.name

    def test_empty_param_table_formats_without_where(self):
        ast = dsl.parse_model("A := ITEM:+")
        assert "where" not in dsl.format_model(ast)

    def test_fuzzed_asts_round_trip(self):
        rng = random.Random(17)
        for _ in range(200):
            ast = random_model(rng)
            assert dsl.parse_model(dsl.format_model(ast)) == ast


def random_model(rng):
    params = {}

    def param(prefix, value):
        name = f"{prefix}{len(params) + 1}"
        params[name] = value
        return name

    def node(depth):
        if depth == 0 or rng.random() < 0.35:
            if rng.random() < 0.25:
                return dsl.ConvRef(
                    cls=rng.choice(["MOTION", "ZONE", "ITEM"]),
                    state=rng.random() < 0.5,
                    min_count_param=param("h", rng.randrange(1, 5)),
                    window_param=param("d", rng.randrange(1, 90_000)),
                    derived=rng.choice([None, "SPAN", "STAY"]),
                )
            return dsl.SensorRef(
                cls=rng.choice(["DOOR", "ITEM", "FLOW", "PHONE", "MOTION"]),
                state=rng.random() < 0.5,
            )
        kind = rng.randrange(4)
        if kind == 0:
            return dsl.AndNode(node(depth - 1), node(depth - 1))
        if kind == 1:
            return dsl.OrNode(node(depth - 1), node(depth - 1))
        if kind == 2:
            return dsl.PrecNode(node(depth - 1), node(depth - 1))
        return dsl.ShiftNode(node(depth - 1), param("d", rng.randrange(0, 60_000)))

    expr = node(3)
    return dsl.ModelAst(name=f"M{rng.randrange(100)}", expr=expr, params=tuple(sorted(params.items())))


def count_nodes(node, kinds):
    total = 1 if isinstance(node, kinds) else 0
    if isinstance(node, (dsl.AndNode, dsl.OrNode, dsl.PrecNode)):
        total += count_nodes(node.left, kinds) + count_nodes(node.right, kinds)
    elif isinstance(node, dsl.ShiftNode):
        total += count_nodes(node.child, kinds)
    return total


class TestCompile:
    def test_single_leaf_model(self):
        compiled = dsl.compile_model(dsl.parse_model("A9 := DOOR:+"))
        assert len(compiled.rules) == 1
        rule = compiled.rules[0]
        assert rule.head.instance_id == "A9"
        assert rule.head.state is True
        # head time copies the matched statement's time
        time_atoms = [a for a in rule.body if getattr(a, "prop", "") == "hasTime"]
        assert rule.head.time == time_atoms[0].value

    def test_dvd_model_shape(self):
        compiled = dsl.compile_model(dsl.parse_model("A2 := (ITEM:- + d2) <= ITEM:+ where d2=60 s"))
        assert len(compiled.rules) == 1
        assert compiled.prepasses == ()
        rule = compiled.rules[0]
        assigns = [a for a in rule.body if isinstance(a, Assign)]
        assert len(assigns) == 1 and assigns[0].right == 60_000

    def test_watering_model_shape(self):
        text = (
            "A3 := DOOR:+ <= FLOW:+ <= (conv(PLANT1:+, h3, d3) as WATERED"
            " & conv(PLANT2:+, h4, d4) as WATERED) <= DOOR:-"
            " where h3=2 h4=2 d3=20 s d4=20 s"
        )
        compiled = dsl.compile_model(dsl.parse_model(text))
        assert len(compiled.rules) == 1
        assert len(compiled.prepasses) == 2
        assert {p.derived_concept for p in compiled.prepasses} == {"WATERED"}
        assert {p.source_concept for p in compiled.prepasses} == {"PLANT1", "PLANT2"}
        # both derived statements are matched distinctly
        distinct = [a for a in compiled.rules[0].body if isinstance(a, Compare) and a.op == "!="]
        assert len(distinct) == 1

    def test_one_compare_per_edge_one_assign_per_shift(self, scenario):
        for binding in scenario.bindings.values():
            expr = binding.ast.expr
            prec_edges = count_nodes(expr, dsl.PrecNode)
            and_nodes = count_nodes(expr, dsl.AndNode)
            shifts = count_nodes(expr, dsl.ShiftNode)
            rule = binding.compiled.rules[0]
            compares = [a for a in rule.body if isinstance(a, Compare) and a.op == "<="]
            assigns = [a for a in rule.body if isinstance(a, Assign)]
            assert len(compares) == prec_edges + and_nodes, binding.ast.name
            assert len(assigns) == shifts, binding.ast.name

    def test_disjunction_expands_to_branch_rules(self):
        compiled = dsl.compile_model(dsl.parse_model("A := (DOOR:+ | FLOW:+) <= ITEM:+"))
        assert len(compiled.rules) == 2
        assert {r.head.instance_id for r in compiled.rules} == {"A"}

    def test_second_order_window_rejected(self):
        text = "A := conv(SPAN:+, h1, d1) as SPAN where h1=1 d1=5 s"
        with pytest.raises(dsl.UnsupportedConstructError):
            dsl.compile_model(dsl.parse_model(text))


class TestSentences:
    def test_watering_sentence_mentions_stays_and_durations(self, scenario):
        sentence = dsl.render_sentence(scenario.bindings[3].ast)
        assert "stayed" in sentence
        assert sentence.count("20 s") == 2

    def test_dvd_sentence_sequence(self, scenario):
        sentence = dsl.render_sentence(scenario.bindings[2].ast)
        assert "then after 1 min" in sentence
        assert sentence.startswith("A2 holds when the items were absent")

    @pytest.mark.parametrize(
        "text, body",
        [
            # t_door <= t_item + 5 s: the door may open up to 5 s after the items went
            ("X := DOOR:+ <= ITEM:- + d1 where d1=5 s",
             "the door was opened, then 5 s had passed since the items were absent"),
            # the head time is the items' time shifted by 5 s
            ("X := ITEM:- + d1 where d1=5 s", "5 s had passed since the items were absent"),
            ("X := DOOR:+ | PHONE:+ + d1 where d1=2 min",
             "either the door was opened or 2 min had passed since the phone was picked up"),
            ("X := DOOR:+ + d1 | PHONE:+ where d1=1500 ms",
             "either 1500 ms had passed since the door was opened or the phone was picked up"),
        ],
        ids=["right-operand", "whole-model", "or-right", "or-left"],
    )
    def test_a_shift_that_is_not_a_left_operand_is_rendered(self, text, body):
        assert dsl.render_sentence(dsl.parse_model(text)) == f"X holds when {body}."

    def test_a_conjunction_says_its_right_operand_is_no_earlier(self):
        """``&`` compiles like ``<=`` (the left operand's time at most the
        right one's), so the sentence may not read as a plain "and"."""
        assert dsl.render_sentence(dsl.parse_model("X := DOOR:+ & ITEM:-")) == (
            "X holds when the door was opened and, no earlier, the items were absent."
        )

    def test_duration_formatting(self):
        assert dsl.format_duration(1500) == "1500 ms"
        assert dsl.format_duration(45_000) == "45 s"
        assert dsl.format_duration(120_000) == "2 min"
