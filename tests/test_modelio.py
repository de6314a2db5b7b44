"""Declarative line splitting: shlex's tokens, with shlex run only on the
lines that hold a quote or a backslash; each option given once."""

import shlex
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from fluentnet import modelio, procedures
from fluentnet.modelio import ConfigError, load_store_model, read_config, read_sections
from fluentnet.network import load_network

SHLEX_SPLIT = shlex.split  # the reference, taken before any test patches it

# pieces of declaration lines with no quote and no backslash; a no-break
# space is a blank to str.split but part of a word to shlex
PLAIN = ("a", "b", "x1", "=", ",", ":", "&", ">=", "#", " ", "\t", "\r", "\n", "\u00a0")
QUOTING = ("'", '"', "\\")


def reference(text):
    """Each declaration's (line number, tokens) as ``shlex.split`` gives
    them, or the number of the first line it cannot split."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line == "[s]":
            continue
        try:
            tokens = tuple(SHLEX_SPLIT(line, comments=True))
        except ValueError:
            return lineno
        if tokens:
            lines.append((lineno, tokens))
    return lines


def declarations(text):
    return [(line.lineno, line.tokens) for line in read_sections(text, ("s",))["s"]]


def lines_of(pieces):
    return st_.lists(st_.sampled_from(pieces), max_size=12).map("".join)


class TestSplit:
    @settings(max_examples=400, deadline=None)
    @given(lines_of(PLAIN))
    def test_a_plain_line_splits_as_shlex_splits_it_without_shlex(self, line):
        text = "[s]\n" + line
        expected = reference(text)
        with mock.patch.object(modelio.shlex, "split", wraps=SHLEX_SPLIT) as split:
            assert declarations(text) == expected
        assert split.call_count == 0

    @settings(max_examples=400, deadline=None)
    @given(lines_of(PLAIN + QUOTING))
    def test_any_line_splits_or_fails_on_its_line_as_shlex_does(self, line):
        text = "[s]\n" + line
        expected = reference(text)
        if isinstance(expected, int):
            with pytest.raises(ConfigError, match=f"^line {expected}: "):
                declarations(text)
        else:
            assert declarations(text) == expected

    @pytest.mark.parametrize(
        "line, tokens",
        [
            ("a#b c", ("a",)),
            ("a\\ b", ("a b",)),
            ("a\\#b c", ("a#b", "c")),
            ('x="a b" # c', ("x=a b",)),
            ("x=a,b  y>=2\t&\tz", ("x=a,b", "y>=2", "&", "z")),
        ],
        ids=["comment-inside-a-word", "escaped-blank", "escaped-hash", "quoted-value", "blanks"],
    )
    def test_fixed_lines(self, line, tokens):
        assert declarations(f"[s]\n{line}\n") == [(2, tokens)]

    def test_a_comment_line_declares_nothing(self):
        assert read_sections("[s]\n   # a b c\n\t#\n", ("s",)) == {"s": []}

    def test_an_unbalanced_quote_names_its_line(self):
        with pytest.raises(ConfigError, match='^line 3: No closing quotation'):
            read_sections('[s]\na b\nx="a b\n', ("s",))


def test_load_scenario_runs_shlex_on_its_quoted_lines_only(monkeypatch):
    """The shipped scenario has 8 quoted lines (the activity labels) among
    the 272 declarations it parses."""
    split = []
    monkeypatch.setattr(modelio.shlex, "split", lambda line, **kw: split.append(line) or SHLEX_SPLIT(line, **kw))
    scenario = procedures.load_scenario()
    assert len(split) == 8 and all(' label="' in line for line in split)
    assert scenario.bindings[1].label == "filling the medication dispenser"


class TestRepeatedOptions:
    """An option given twice on one line is an error naming the file, the
    line and the option, not a silent choice of the last value."""

    def test_a_sensor_line(self, tmp_path):
        path = tmp_path / "home.model"
        path.write_text(
            "[concepts]\nDOOR KITCHEN BATHROOM\n[properties]\nisIn\n[sensors]\nD7 DOOR isIn=KITCHEN isIn=BATHROOM\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="^home.model: line 6: option 'isIn' given twice$"):
            load_store_model(path)

    def test_a_network_line(self, tmp_path):
        path = tmp_path / "network.cfg"
        path.write_text(
            "[nodes]\nA represents=a.model\n[conditions]\nC1 checks=N in=A hasTarget=true hasTarget=false\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="^network.cfg: line 4: option 'hasTarget' given twice$"):
            read_config(path, load_network)


def test_a_bare_restriction_means_at_least_one():
    """``prop TARGET`` with no bound is ``prop TARGET >= 1``."""
    text = "[concepts]\nX LOCATION\n[properties]\nisIn\n[defined]\n{}\n"
    bare, bounded = (
        modelio.parse_store_model(text.format(line)).graph.defined["X"]
        for line in ("X := isIn LOCATION", "X := isIn LOCATION >= 1")
    )
    assert bare == bounded
    assert (bare.restrictions[0].bound, bare.restrictions[0].count) == (">=", 1)
