"""Trace ingestion: line grammar, normalization, loading."""

import calendar
import io
from datetime import datetime, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from fluentnet.ingest import (
    GroundTruth,
    Interval,
    TraceParseError,
    load_trace,
    normalize_sensor,
    timestamp_ms,
)


def epoch_ms_oracle(y, mo, d, h, mi, s, ms):
    """Independent calendar arithmetic for the date-to-ms check."""
    return (calendar.timegm((y, mo, d, h, mi, s)) * 1000) + ms


def parse_line(text, **kwargs):
    """The event one well-formed line loads as."""
    load = load_trace(io.StringIO(text), **kwargs)
    assert load.skipped == 0, load.warnings
    (event,) = load.events
    return event


def rejection(text):
    """The warning one malformed line is skipped with."""
    load = load_trace(io.StringIO(text))
    assert (load.skipped, load.events) == (1, [])
    (warning,) = load.warnings
    return warning


def format_line(event):
    """A line that loads as ``event``, in the documented grammar."""
    stamp = datetime(1970, 1, 1) + timedelta(milliseconds=event.time_ms)
    text = (
        f"{stamp:%Y-%m-%d %H:%M:%S}.{event.time_ms % 1000:03d} "
        f"{event.sensor} {'ON' if event.value else 'OFF'}"
    )
    if event.activity is not None and event.marker:
        text += f" a{event.activity} {event.marker}"
    return text


class TestParseLine:
    def test_motion_on(self):
        event = parse_line("2009-05-11 14:59:55.21 M016 ON")
        assert event.sensor == "M16"
        assert event.value is True
        assert event.time_ms == epoch_ms_oracle(2009, 5, 11, 14, 59, 55, 210)

    def test_item_absent_is_false(self):
        event = parse_line("2009-05-11 15:00:00 I04 ABSENT")
        assert event.sensor == "I4"
        assert event.value is False

    def test_garbage_rejected(self):
        assert rejection("garbage") == "line 1: expected DATE TIME SENSOR VALUE: 'garbage'"

    def test_unknown_value_rejected(self):
        assert rejection("2009-05-11 15:00:00 M01 MAYBE") == (
            "line 1: unknown sensor value 'MAYBE': '2009-05-11 15:00:00 M01 MAYBE'"
        )

    def test_annotation_pair(self):
        event = parse_line("2009-05-11 15:00:00 M01 ON a3 begin")
        assert (event.activity, event.marker) == (3, "begin")
        event = parse_line("2009-05-11 15:00:00 M01 ON 7 end")
        assert (event.activity, event.marker) == (7, "end")

    def test_rename_map(self):
        assert normalize_sensor("AD1-A", {"AD1-A": "F2"}) == "F2"
        assert normalize_sensor("M016") == "M16"
        assert normalize_sensor("P01") == "P1"

    def test_scenario_sensor_map_applies(self):
        from fluentnet.procedures import load_scenario

        scenario = load_scenario()
        kwargs = scenario.load_trace_kwargs()
        event = parse_line("2009-05-11 14:00:00 AD1-A ON", **kwargs)
        assert event.sensor == "F2" and event.value is True
        event = parse_line("2009-05-11 14:00:00 M07 MOVED", **kwargs)
        assert event.sensor == "M7" and event.value is True
        event = parse_line("2009-05-11 14:00:01 M07 STILL", **kwargs)
        assert event.value is False

    def test_round_trip_through_formatter(self):
        for line in (
            "2009-05-11 14:59:55.210 M016 ON",
            "2009-05-11 08:00:00.000 I04 ABSENT a1 begin",
            "2009-05-11 23:59:59.999 D07 CLOSE",
        ):
            event = parse_line(line)
            assert parse_line(format_line(event)) == event


# a malformed line and the warning text it gets, whether or not an earlier
# line of the trace already used its date token and its time's HH:MM
NOT_DIGITS = "a field holds more than ASCII digits"
MALFORMED = [
    ("2009-13-11 x:00:00 M01 ON", "bad timestamp (invalid literal for int() with base 10: 'x'): '2009-13-11 x:00:00'"),
    ("2009-05-11 x:00:00 M01 ON", "bad timestamp (invalid literal for int() with base 10: 'x'): '2009-05-11 x:00:00'"),
    ("2009-05-11 24:00:00 M01 ON", "bad timestamp (hour must be in 0..23): '2009-05-11 24:00:00'"),
    ("2009-05-11 -1:00:00 M01 ON", "bad timestamp (hour must be in 0..23): '2009-05-11 -1:00:00'"),
    ("2009-05-11 14:60:00 M01 ON", "bad timestamp (minute must be in 0..59): '2009-05-11 14:60:00'"),
    ("2009-05-11 14:00:60 M01 ON", "bad timestamp (second must be in 0..59): '2009-05-11 14:00:60'"),
    ("2009-02-30 14:00:00 M01 ON", "bad timestamp (day is out of range for month): '2009-02-30 14:00:00'"),
    ("2009-13-11 24:00:00 M01 ON", "bad timestamp (month must be in 1..12): '2009-13-11 24:00:00'"),
    ("2009-05-11 14:00:00.x M01 ON", "bad timestamp (invalid literal for int() with base 10: 'x00'): '2009-05-11 14:00:00.x'"),
    ("2009-05-11 25:00:00.x M01 ON", "bad timestamp (invalid literal for int() with base 10: 'x00'): '2009-05-11 25:00:00.x'"),
    ("2009-05-11 14:00 M01 ON", "bad timestamp (not enough values to unpack (expected 3, got 2)): '2009-05-11 14:00'"),
    ("2009-05-11 14:00:00:00 M01 ON", "bad timestamp (too many values to unpack (expected 3)): '2009-05-11 14:00:00:00'"),
    ("2009-05 14:00:00 M01 ON", "bad timestamp (not enough values to unpack (expected 3, got 2)): '2009-05 14:00:00'"),
    ("0-05-11 14:00:00 M01 ON", "bad timestamp (year 0 is out of range): '0-05-11 14:00:00'"),
    # fields that are not ASCII digits but that int() takes (a sign, an underscore,
    # another script's digit) or that a fraction cut to milliseconds hid
    ("2009-05-11 14:00:00.-5 M01 ON", f"bad timestamp ({NOT_DIGITS}): '2009-05-11 14:00:00.-5'"),
    ("2009-05-11 14:00:00.+5 M01 ON", f"bad timestamp ({NOT_DIGITS}): '2009-05-11 14:00:00.+5'"),
    ("2009-05-11 1_4:00:00 M01 ON", f"bad timestamp ({NOT_DIGITS}): '2009-05-11 1_4:00:00'"),
    ("2009-05-1_1 14:00:00 M01 ON", f"bad timestamp ({NOT_DIGITS}): '2009-05-1_1 14:00:00'"),
    ("2009-05-11 14:00:00.\u0665 M01 ON", f"bad timestamp ({NOT_DIGITS}): '2009-05-11 14:00:00.\u0665'"),
    ("2009-05-11 14:00:00.123x M01 ON", f"bad timestamp ({NOT_DIGITS}): '2009-05-11 14:00:00.123x'"),
    # a '.' with no fraction after it
    ("2009-05-11 14:00:00. M01 ON", "bad timestamp (no digit after the '.'): '2009-05-11 14:00:00.'"),
    ("2009-05-11 14:00:00 M01 MAYBE", "unknown sensor value 'MAYBE': '2009-05-11 14:00:00 M01 MAYBE'"),
    ("2009-05-11 14:00:00 M01", "expected DATE TIME SENSOR VALUE: '2009-05-11 14:00:00 M01'"),
]


class TestLoadTrace:
    def test_small_file(self):
        text = (
            "2009-05-11 14:00:00 M01 ON\n"
            "2009-05-11 14:00:05 M01 OFF\n"
            "2009-05-11 14:00:09 D07 OPEN\n"
        )
        load = load_trace(io.StringIO(text))
        assert len(load.events) == 3
        assert load.warnings == []

    def test_unsorted_reordered_with_warning(self):
        text = (
            "2009-05-11 14:00:05 M01 OFF\n"
            "2009-05-11 14:00:00 M01 ON\n"
        )
        load = load_trace(io.StringIO(text))
        assert [e.value for e in load.events] == [True, False]
        assert any("reordered" in w for w in load.warnings)

    def test_annotations_pair_in_the_reordered_order(self):
        """An end read before its begin pairs with it once the events are
        reordered by time: one interval, and no unmatched-mark warning."""
        text = (
            "2009-05-11 14:00:10 M01 OFF a1 end\n"
            "2009-05-11 14:00:00 M01 ON a1 begin\n"
            "2009-05-11 14:00:05 D07 OPEN\n"
        )
        load = load_trace(io.StringIO(text))
        start = epoch_ms_oracle(2009, 5, 11, 14, 0, 0, 0)
        assert [(e.time_ms - start, e.sensor) for e in load.events] == [(0, "M1"), (5_000, "D7"), (10_000, "M1")]
        assert load.intervals == [Interval(activity=1, start_ms=start, end_ms=start + 10_000)]
        assert load.warnings == ["events were not time-ordered; reordered by timestamp"]

    def test_unclosed_annotation_clamped(self):
        text = (
            "2009-05-11 14:00:00 M01 ON a2 begin\n"
            "2009-05-11 14:00:30 M01 OFF\n"
        )
        load = load_trace(io.StringIO(text))
        assert len(load.intervals) == 1
        interval = load.intervals[0]
        assert interval.activity == 2
        assert interval.end_ms == load.events[-1].time_ms
        assert any("clamped" in w for w in load.warnings)

    def test_an_activity_index_of_0_drops_the_annotation(self):
        """Index 0 names no activity: both lines keep their readings, each
        drops its annotation with a warning naming it, and no interval
        is made."""
        text = (
            "2009-05-11 14:00:00 M01 ON a0 begin\n"
            "2009-05-11 14:00:05 M01 OFF 0 end\n"
            "2009-05-11 14:00:09 D07 OPEN a1 begin\n"
            "2009-05-11 14:00:12 D07 CLOSE a1 end\n"
        )
        load = load_trace(io.StringIO(text))
        assert [(e.sensor, e.value, e.activity, e.marker) for e in load.events] == [
            ("M1", True, None, None),
            ("M1", False, None, None),
            ("D7", True, 1, "begin"),
            ("D7", False, 1, "end"),
        ]
        assert load.warnings == [
            "line 1: activity index 0 names no activity; annotation dropped",
            "line 2: activity index 0 names no activity; annotation dropped",
        ]
        assert [i.activity for i in load.intervals] == [1]
        assert load.skipped == 0

    def test_bad_lines_skipped_with_warning(self):
        text = "junk line\n2009-05-11 14:00:00 M01 ON\n"
        load = load_trace(io.StringIO(text))
        assert load.skipped == 1
        assert len(load.events) == 1

    @pytest.mark.parametrize("line, warning", MALFORMED, ids=[line for line, _ in MALFORMED])
    def test_malformed_line_warnings(self, line, warning):
        assert load_trace(io.StringIO(line + "\n")).warnings == [f"line 1: {warning}"]
        # line 2 shares the HH:MM of every 14:00 token above
        seen = "2009-05-11 13:00:00 M01 ON\n2009-05-11 14:00:00 M02 ON\n2009-13-11 13:00:00 M01 ON\n"
        load = load_trace(io.StringIO(seen + line + "\n2009-05-11 14:00:00 M0001 ON\n"))
        assert load.warnings == ["line 3: bad timestamp (month must be in 1..12): '2009-13-11 13:00:00'",
                                 f"line 4: {warning}"]
        assert [(e.time_ms, e.sensor) for e in load.events] == [
            (epoch_ms_oracle(2009, 5, 11, 13, 0, 0, 0), "M1"),
            (epoch_ms_oracle(2009, 5, 11, 14, 0, 0, 0), "M2"),
            (epoch_ms_oracle(2009, 5, 11, 14, 0, 0, 0), "M1"),
        ]

    def test_value_words_and_renames_apply_to_every_line(self):
        """The value table is built once per trace: a custom word (in any
        case, and overriding a default one) and a rename hold on every
        line, and an unknown value is still skipped with its line number."""
        text = (
            "2009-05-11 14:00:00 AD1-A moved\n"
            "2009-05-11 14:00:01 M07 STILL\n"
            "2009-05-11 14:00:02 M07 MAYBE\n"
            "2009-05-11 14:00:03 M07 ON\n"
            "2009-05-11 14:00:04 AD1-A Moved\n"
        )
        load = load_trace(io.StringIO(text), value_map={"Moved": True, "still": False, "ON": False},
                          rename={"AD1-A": "F2"})
        assert [(e.sensor, e.value) for e in load.events] == [
            ("F2", True), ("M7", False), ("M7", False), ("F2", True)
        ]
        assert load.skipped == 1
        assert load.warnings == ["line 3: unknown sensor value 'MAYBE': '2009-05-11 14:00:02 M07 MAYBE'"]
        # the table is the trace's own: a later trace without the map reads the defaults
        assert [e.value for e in load_trace(io.StringIO(text)).events] == [True]


# time-of-day tokens near the grammar: fields of 1-3 digits or the 23/24 and
# 59/60 boundaries, with a sign, an underscore or another script's digit
# now and then; no fraction, a bare '.', or 0-7 digits after it
_DIGITS = st_.text("0123456789", min_size=1, max_size=3)
_ODD = st_.sampled_from(["+5", "-1", "1_0", "\u0665", "\u0665\u0665", "5\u00b2", "x", ""])
_FIELD = st_.one_of(_DIGITS, st_.sampled_from(["23", "24", "59", "60", "0", "00", "000"]), _ODD)
_FRACTION = st_.one_of(
    st_.just(""),
    st_.just("."),
    st_.text("0123456789", max_size=7).map(lambda digits: "." + digits),
    st_.tuples(st_.text("0123456789", max_size=3), _ODD).map(lambda parts: "." + "".join(parts)),
)
TIME_TOKENS = st_.tuples(_FIELD, _FIELD, _FIELD, _FRACTION).map(lambda t: f"{t[0]}:{t[1]}:{t[2]}{t[3]}")
DATE = "2009-05-11"


def expected_outcome(time_token, lineno):
    """What the token's line loads as, read off :func:`timestamp_ms`: its
    time in ms, or the warning it is skipped with."""
    try:
        return timestamp_ms(DATE, time_token)
    except TraceParseError as exc:
        return f"line {lineno}: {exc}"


def loaded_outcomes(text):
    """Each line's time in ms, or its warning, in line order."""
    load = load_trace(io.StringIO(text))
    times = iter(event.time_ms for event in load.events)
    warnings = {int(w.split(":")[0].split()[1]): w for w in load.warnings}
    return [warnings.get(n) or next(times) for n in range(1, text.count("\n") + 1)]


class TestClockMemo:
    """The minute memo answers only what :func:`timestamp_ms` would: a
    token reads the same time, or gets the same warning, on a first line,
    after a line that filled the date and minute memos with its ``HH:MM``,
    and after itself."""

    @settings(max_examples=400, deadline=None)
    @given(TIME_TOKENS)
    @example("14:00:59.999")
    @example("14:00:60")
    @example("14:00:00.-5")
    @example("14:00:00.\u0665")
    @example("14:00:00.")
    @example("24:00:00")
    @example("14:60:00")
    @example("1_4:00:00")
    def test_a_token_loads_as_timestamp_ms_reads_it(self, time_token):
        line = f"{DATE} {time_token} M01 ON\n"
        assert loaded_outcomes(line + line) == [expected_outcome(time_token, 1), expected_outcome(time_token, 2)]
        head = time_token.rpartition(":")[0]
        filler = f"{head}:00" if isinstance(expected_outcome(f"{head}:00", 1), int) else "00:00:00"
        text = f"{DATE} {filler} M02 ON\n" + line + line
        assert loaded_outcomes(text) == [
            timestamp_ms(DATE, filler), expected_outcome(time_token, 2), expected_outcome(time_token, 3)
        ]


class TestGroundTruth:
    def test_totals(self):
        truth = GroundTruth()
        truth.add("p01", Interval(1, 0, 10))
        truth.add("p01", Interval(2, 5, 15))
        truth.add("p02", Interval(1, 0, 10))
        assert truth.totals() == {1: 2, 2: 1}
