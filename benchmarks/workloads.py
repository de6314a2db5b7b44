"""Seeded sensor-trace generator for the replay benchmark.

Every workload is a list of participants, each a list of raw log lines in
the ingest grammar (``DATE TIME SENSOR VALUE [aK begin|end]``).  The same
seed always gives the same lines.  The program under test receives only
these lines; nothing here imports it, so the generator stays fixed while
the program and its tests change.

The activity blocks below enact the eight scenario activities with motion
pulses between state changes, so the spatial triggers keep firing.  Times
are seconds from the block's first reading.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

ORIGIN = datetime(2009, 5, 11, 14, 0, 0)

# (second, sensor, value) with value "PULSE" meaning ON now and OFF 2 s later.
# The first and last readings of a block carry the begin/end annotation.
_BLOCKS: dict[int, list[tuple[int, str, str]]] = {
    1: [  # filling the medication dispenser (kitchen)
        (0, "M016", "PULSE"), (5, "D07", "OPEN"), (8, "M018", "PULSE"),
        (10, "I04", "ABSENT"), (12, "I06", "ABSENT"), (20, "M016", "PULSE"),
        (40, "M017", "PULSE"), (55, "M018", "PULSE"), (60, "I04", "PRESENT"),
        (63, "I06", "PRESENT"), (65, "M016", "PULSE"), (70, "D07", "CLOSE"),
        (75, "M015", "PULSE"), (80, "M015", "PULSE"),
    ],
    2: [  # watching a DVD (living room)
        (0, "M003", "PULSE"), (5, "I05", "ABSENT"), (10, "M005", "PULSE"),
        (30, "M003", "PULSE"), (50, "M005", "PULSE"), (80, "I05", "PRESENT"),
        (85, "M003", "PULSE"), (90, "M003", "PULSE"),
    ],
    3: [  # watering plants (living room + sink)
        (0, "M003", "PULSE"), (5, "D11", "OPEN"), (8, "M010", "PULSE"),
        (15, "M017", "PULSE"), (20, "F02", "ON"), (22, "M017", "PULSE"),
        (28, "F02", "OFF"), (30, "M017", "PULSE"), (40, "M006", "PULSE"),
        (65, "M007", "PULSE"), (75, "M011", "PULSE"), (100, "M012", "PULSE"),
        (110, "M010", "PULSE"), (115, "D11", "CLOSE"), (120, "M003", "PULSE"),
        (125, "M003", "PULSE"),
    ],
    4: [  # conversing on the phone (table 2)
        (0, "M013", "PULSE"), (5, "P01", "ON"), (20, "M013", "PULSE"),
        (45, "P01", "OFF"), (50, "M013", "PULSE"), (55, "M013", "PULSE"),
    ],
    5: [  # writing a card (table 1)
        (0, "M004", "PULSE"), (5, "I08", "ABSENT"), (8, "I09", "ABSENT"),
        (20, "M004", "PULSE"), (45, "M004", "PULSE"), (50, "I08", "PRESENT"),
        (55, "I09", "PRESENT"), (60, "M004", "PULSE"), (65, "M004", "PULSE"),
    ],
    6: [  # preparing a meal (kitchen)
        (0, "M016", "PULSE"), (5, "D08", "OPEN"), (10, "I01", "ABSENT"),
        (15, "M018", "PULSE"), (20, "I02", "ABSENT"), (40, "M017", "PULSE"),
        (65, "M016", "PULSE"), (70, "I01", "PRESENT"), (75, "I02", "PRESENT"),
        (80, "M018", "PULSE"), (85, "D08", "CLOSE"), (90, "M016", "PULSE"),
        (100, "M016", "PULSE"),
    ],
    7: [  # cleaning the apartment (living room + kitchen)
        (0, "M003", "PULSE"), (5, "D11", "OPEN"), (15, "M006", "PULSE"),
        (40, "M008", "PULSE"), (45, "M009", "PULSE"), (55, "M016", "PULSE"),
        (80, "M017", "PULSE"), (85, "M018", "PULSE"), (95, "M010", "PULSE"),
        (100, "D11", "CLOSE"), (105, "M003", "PULSE"), (110, "M003", "PULSE"),
    ],
    8: [  # selecting an outfit (corridor, then sofa)
        (0, "M021", "PULSE"), (5, "D12", "OPEN"), (15, "M022", "PULSE"),
        (25, "M023", "PULSE"), (30, "D12", "CLOSE"), (38, "M022", "PULSE"),
        (50, "M005", "PULSE"), (55, "M003", "PULSE"), (60, "M003", "PULSE"),
    ],
}

# Every sensor the scenario declares, in sweep order.
SENSORS = (
    [f"M{i:03d}" for i in range(1, 24)]
    + [f"I{i:02d}" for i in range(1, 10)]
    + ["D07", "D08", "D09", "D10", "D11", "D12", "F02", "F03", "P01"]
)
# Sensors whose readings, once every sensor has been seen, raise no
# condition: bathroom motion (no condition watches the bathroom) and
# non-motion sensors (the person's context follows motion only).
QUIET_SENSORS = ("M001", "M002", "I01", "D09", "F03", "P01")

# Block orders change how long append nodes grow before recognition clears
# them, so each participant's cost depends on the seed; 40 participants
# keep the workload's total cost and its p99 within a few per cent across
# seeds.
SESSION_PARTICIPANTS = 40
SESSION_GAP_MS = (10_000, 40_000)
# Six participants rather than one long trace: the benchmark measures the
# host's speed between participants, and a shorter span between those
# measurements follows the host's swings more closely.
SWEEP_PARTICIPANTS = 6
SWEEP_READINGS = 500
SWEEP_GAP_MS = (200, 1_000)
GROWTH_PARTICIPANTS = 15
GROWTH_TOGGLES = 22
# Toggles are 9-11 s apart, so four gaps always span less than the A6
# model's 45 s window and five gaps always span at least that: every seed
# admits the same (ITEM:-, ITEM:+) pairs, so the join work is the same.
GROWTH_GAP_MS = (9_000, 11_000)


def line(time_ms: int, sensor: str, value: str, note: str = "") -> str:
    stamp = ORIGIN + timedelta(milliseconds=time_ms)
    text = f"{stamp:%Y-%m-%d %H:%M:%S}.{stamp.microsecond // 1000:03d} {sensor} {value}"
    return f"{text} {note}" if note else text


def _block_lines(activity: int, start_ms: int) -> tuple[list[str], int]:
    """One activity block from ``start_ms``; returns lines and last time."""
    steps = _BLOCKS[activity]
    out: list[tuple[int, str, str, str]] = []
    for index, (second, sensor, value) in enumerate(steps):
        at = start_ms + second * 1000
        note = ""
        if index == 0:
            note = f"a{activity} begin"
        elif index == len(steps) - 1:
            note = f"a{activity} end"
        if value == "PULSE":
            out.append((at, sensor, "ON", note))
            out.append((at + 2000, sensor, "OFF", ""))
        else:
            out.append((at, sensor, value, note))
    out.sort(key=lambda item: item[0])
    return [line(*item) for item in out], out[-1][0]


def session_participant(rng: random.Random) -> list[str]:
    """All eight activity blocks in a seeded order with seeded idle gaps."""
    order = list(_BLOCKS)
    rng.shuffle(order)
    lines: list[str] = []
    start = 0
    for activity in order:
        block, last = _block_lines(activity, start)
        lines.extend(block)
        start = last + rng.randint(*SESSION_GAP_MS)
    return lines


def sessions(seed: int, participants: int = SESSION_PARTICIPANTS) -> list[list[str]]:
    rng = random.Random(f"sessions/{seed}")
    return [session_participant(rng) for _ in range(participants)]


def sweep_participant(rng: random.Random) -> list[str]:
    """Every sensor switched on once, then quiet toggles."""
    lines: list[str] = []
    t = 0
    for sensor in SENSORS:
        lines.append(line(t, sensor, "ON"))
        t += 1000
    state = {sensor: True for sensor in QUIET_SENSORS}
    while len(lines) < SWEEP_READINGS:
        sensor = rng.choice(QUIET_SENSORS)
        state[sensor] = not state[sensor]
        lines.append(line(t, sensor, "ON" if state[sensor] else "OFF"))
        t += rng.randint(*SWEEP_GAP_MS)
    return lines


def spatial_sweep(seed: int, participants: int = SWEEP_PARTICIPANTS) -> list[list[str]]:
    rng = random.Random(f"spatial_sweep/{seed}")
    return [sweep_participant(rng) for _ in range(participants)]


def growth_participant(rng: random.Random) -> list[str]:
    """Cabinet D08 opens and never closes while item I01 is toggled, each
    toggle followed by a kitchen-motion pulse that runs the A6 importer."""
    lines = [line(0, "M016", "ON"), line(2000, "M016", "OFF"), line(5000, "D08", "OPEN")]
    t = 5000
    for k in range(GROWTH_TOGGLES):
        t += rng.randint(*GROWTH_GAP_MS)
        lines.append(line(t, "I01", "ABSENT" if k % 2 == 0 else "PRESENT"))
        lines.append(line(t + 1000, "M017", "ON"))
        lines.append(line(t + 3000, "M017", "OFF"))
    return lines


def append_growth(seed: int, participants: int = GROWTH_PARTICIPANTS) -> list[list[str]]:
    rng = random.Random(f"append_growth/{seed}")
    return [growth_participant(rng) for _ in range(participants)]


WORKLOADS = {
    "sessions": sessions,
    "spatial_sweep": spatial_sweep,
    "append_growth": append_growth,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The workload's participants, each a list of raw log lines."""
    return WORKLOADS[workload](seed)
