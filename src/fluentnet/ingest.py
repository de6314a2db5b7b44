"""Reading interleaved-ADL sensor logs into timed events and ground truth.

Lines are whitespace separated: ``DATE TIME SENSOR VALUE [ACTIVITY TAG]``.
Date and time fuse into epoch milliseconds; sensor values normalise to a
Boolean per sensor family (ON/OPEN/PRESENT are true, OFF/CLOSE/ABSENT are
false -- the map is extensible because raw vocabularies vary by release).
Sensor names drop leading zeros (``M016`` becomes ``M16``) and may be
renamed through a scenario map so that a different physical labelling can
be fixed without code changes.

A trailing token pair is read as an activity annotation ``(activity,
begin|end)``; the activity token is a bare index or an index prefixed with
``a``, ``alpha`` or ``activity`` (``7``, ``a3``).  Any other trailing pair is
ignored.  Malformed lines are skipped by :func:`load_trace` with a warning.
"""

from __future__ import annotations

import re
import time as _time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, TextIO, Union

DEFAULT_VALUE_MAP: dict[str, bool] = {
    "ON": True,
    "OFF": False,
    "OPEN": True,
    "CLOSE": False,
    "CLOSED": False,
    "PRESENT": True,
    "ABSENT": False,
    "START": True,
    "STOP": False,
    "TRUE": True,
    "FALSE": False,
}

_EPOCH = datetime(1970, 1, 1)
_SENSOR_RE = re.compile(r"^([A-Za-z]+)0*(\d+)(.*)$")
# a time of day as timestamp_ms accepts it: three fields and an optional
# fraction of at least one digit, each of ASCII digits only
_CLOCK = re.compile(r"([0-9]+):([0-9]+):([0-9]+)(?:\.([0-9]+))?")
_BEGIN_TAGS = {"begin", "start"}
_END_TAGS = {"end", "stop"}


class TraceParseError(ValueError):
    """A line did not match the trace grammar; the raw text is preserved."""

    def __init__(self, message: str, line: str) -> None:
        super().__init__(f"{message}: {line!r}")
        self.line = line


@dataclass(frozen=True)
class TraceEvent:
    time_ms: int
    sensor: str
    value: bool
    activity: Optional[int] = None
    marker: Optional[str] = None  # "begin" | "end"


@dataclass(frozen=True)
class Interval:
    activity: int
    start_ms: int
    end_ms: int


@dataclass
class GroundTruth:
    """Annotated activity intervals per participant; overlaps are allowed."""

    sessions: dict[str, list[Interval]] = field(default_factory=dict)

    def add(self, participant: str, interval: Interval) -> None:
        self.sessions.setdefault(participant, []).append(interval)

    def intervals(self, participant: str) -> list[Interval]:
        return self.sessions.get(participant, [])

    def totals(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for intervals in self.sessions.values():
            for interval in intervals:
                counts[interval.activity] = counts.get(interval.activity, 0) + 1
        return counts


def timestamp_ms(date_token: str, time_token: str) -> int:
    """Fuse a date and a time-of-day into epoch milliseconds.

    Fractional seconds of any length are accepted (logs carry anything from
    two to six digits) and truncated to milliseconds; a ``.`` needs at
    least one digit after it.  Every field is ASCII digits: ``int`` alone
    would also take a sign, underscores and the digits of other scripts.
    """
    try:
        year, month, day = (int(part) for part in date_token.split("-"))
        clock, dot, fraction = time_token.partition(".")
        hour, minute, second = (int(part) for part in clock.split(":"))
        ms = int((fraction + "000")[:3]) if fraction else 0
        stamp = datetime(year, month, day, hour, minute, second)
        digits = date_token.replace("-", "") + clock.replace(":", "") + fraction
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError("a field holds more than ASCII digits")
        if dot and not fraction:
            raise ValueError("no digit after the '.'")
    except ValueError as exc:
        raise TraceParseError(f"bad timestamp ({exc})", f"{date_token} {time_token}") from exc
    delta = stamp - _EPOCH
    return delta.days * 86_400_000 + delta.seconds * 1000 + ms


def normalize_sensor(token: str, rename: Optional[Mapping[str, str]] = None) -> str:
    """Strip leading zeros from the numeric part and apply renames."""
    if rename and token in rename:
        return rename[token]
    match = _SENSOR_RE.match(token)
    if match and not match.group(3):
        normalized = f"{match.group(1)}{int(match.group(2))}"
    else:
        normalized = token
    if rename and normalized in rename:
        return rename[normalized]
    return normalized


def _parse_activity_token(token: str) -> Optional[int]:
    match = re.fullmatch(r"(?:a|alpha|activity)?(\d+)", token.lower())
    if match:
        return int(match.group(1))
    return None


def _value_table(value_map: Optional[Mapping[str, bool]]) -> dict[str, bool]:
    """The default value words, extended or overridden by ``value_map``,
    keyed in upper case."""
    values = dict(DEFAULT_VALUE_MAP)
    if value_map:
        values.update({k.upper(): v for k, v in value_map.items()})
    return values


def _clock_ms(time_token: str) -> Optional[int]:
    """Milliseconds into the day of a time-of-day token, as
    :func:`timestamp_ms` reads it, or ``None`` when that would raise."""
    match = _CLOCK.fullmatch(time_token)
    if match is None:
        return None
    hour, minute, second = int(match[1]), int(match[2]), int(match[3])
    fraction = match[4]
    ms = int((fraction + "000")[:3]) if fraction else 0
    if 0 <= hour <= 23 and 0 <= minute <= 59 and 0 <= second <= 59:
        return ((hour * 60 + minute) * 60 + second) * 1000 + ms
    return None


class _LineParser:
    """:func:`load_trace`'s line parser: one line to a :class:`TraceEvent`,
    or a :class:`TraceParseError`.  It holds the value table, built once,
    and memos of each date token's epoch-day milliseconds and each raw
    sensor token's normalised id.  A memo holds only tokens that parsed; a
    line the memo cannot answer goes through :func:`timestamp_ms`, so its
    error is the one that function raises."""

    def __init__(self, values: Mapping[str, bool], rename: Optional[Mapping[str, str]]) -> None:
        self.values = values
        self.rename = rename
        self.days: dict[str, int] = {}
        self.sensors: dict[str, str] = {}

    def __call__(self, text: str) -> TraceEvent:
        tokens = text.split()
        if len(tokens) < 4:
            raise TraceParseError("expected DATE TIME SENSOR VALUE", text.rstrip("\n"))
        date_token, time_token, sensor_token = tokens[0], tokens[1], tokens[2]
        day_ms = self.days.get(date_token)
        clock_ms = _clock_ms(time_token)
        if day_ms is None or clock_ms is None:
            time_ms = timestamp_ms(date_token, time_token)  # raises a malformed line's error
            if clock_ms is not None:
                self.days[date_token] = time_ms - clock_ms
        else:
            time_ms = day_ms + clock_ms
        sensor = self.sensors.get(sensor_token)
        if sensor is None:
            sensor = self.sensors[sensor_token] = normalize_sensor(sensor_token, self.rename)
        value = self.values.get(tokens[3].upper())
        if value is None:
            raise TraceParseError(f"unknown sensor value {tokens[3]!r}", text.rstrip("\n"))
        activity: Optional[int] = None
        marker: Optional[str] = None
        if len(tokens) >= 6:
            tag = tokens[-1].lower()
            parsed = _parse_activity_token(tokens[-2])
            if tag in _BEGIN_TAGS | _END_TAGS and parsed is not None:
                activity = parsed
                marker = "begin" if tag in _BEGIN_TAGS else "end"
        return TraceEvent(
            time_ms=time_ms, sensor=sensor, value=value, activity=activity, marker=marker
        )


@dataclass
class TraceLoad:
    events: list[TraceEvent]
    intervals: list[Interval]
    warnings: list[str]
    skipped: int = 0


def load_trace(
    source: Union[str, Path, TextIO],
    value_map: Optional[Mapping[str, bool]] = None,
    rename: Optional[Mapping[str, str]] = None,
) -> TraceLoad:
    """Read one participant's log: ordered events plus annotation intervals.

    Malformed lines are skipped and counted, each with a warning naming its
    line number.  Out-of-order timestamps are reordered with a warning; a
    begin without an end is clamped to the last event time with a warning.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()

    parse = _LineParser(_value_table(value_map), rename)
    events: list[TraceEvent] = []
    warnings: list[str] = []
    skipped = 0
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            events.append(parse(raw))
        except TraceParseError as exc:
            skipped += 1
            warnings.append(f"line {lineno}: {exc}")

    if any(events[i].time_ms > events[i + 1].time_ms for i in range(len(events) - 1)):
        warnings.append("events were not time-ordered; reordered by timestamp")
        events.sort(key=lambda e: (e.time_ms, e.sensor))

    intervals: list[Interval] = []
    open_marks: dict[int, int] = {}
    for event in events:
        if event.activity is None:
            continue
        if event.marker == "begin":
            if event.activity in open_marks:
                warnings.append(f"activity {event.activity}: begin while already open")
            open_marks.setdefault(event.activity, event.time_ms)
        elif event.marker == "end":
            start = open_marks.pop(event.activity, None)
            if start is None:
                warnings.append(f"activity {event.activity}: end without begin")
                continue
            intervals.append(Interval(activity=event.activity, start_ms=start, end_ms=event.time_ms))
    if open_marks and events:
        last = events[-1].time_ms
        for activity, start in sorted(open_marks.items()):
            warnings.append(f"activity {activity}: begin without end; clamped to last event")
            intervals.append(Interval(activity=activity, start_ms=start, end_ms=last))

    intervals.sort(key=lambda i: (i.start_ms, i.activity))
    return TraceLoad(events=events, intervals=intervals, warnings=warnings, skipped=skipped)


def drive(
    events: Iterable[TraceEvent],
    speed: float = 1.0,
    pure_virtual: bool = True,
    sleeper: Callable[[float], None] = _time.sleep,
) -> Iterator[TraceEvent]:
    """Yield events in order, paced by the wall clock or not at all.

    In pure-virtual mode events are handed over as fast as the consumer can
    process them, timestamps untouched.  In wall-clock mode the original
    inter-event gaps are slept through, divided by ``speed``.  The consumer
    moves its own virtual clock: it may have work due before an event's
    time that must run first.
    """
    if speed <= 0:
        raise ValueError("speed factor must be positive")
    previous: Optional[int] = None
    for event in events:
        if not pure_virtual and previous is not None and event.time_ms > previous:
            sleeper((event.time_ms - previous) / 1000.0 / speed)
        previous = event.time_ms
        yield event
