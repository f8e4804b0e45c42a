"""Shared fixtures and generators for the test suite."""

import random

import pytest
from hypothesis import strategies as st

from rankone import ParamSchedule, Stage
from rankone.cli import CHACON, ODOMETER
# the runs of a bare prefix whose window [0, 9] telescopes to one stage
# of 3,888 copies (8,351 floors): floor arithmetic on a wide stage
WIDE_RUNS = (
    (1, 0), (0, 1, 2), (0, 1), (1, 0, 0), (2, 0),
    (0, 0, 1), (0, 1), (1, 0, 1), (0, 2, 0), (0, 1),
)
# q = 1 forever with growing spacer runs: heights grow linearly and the
# spacer-ratio series is provably divergent
DIVERGENT = ParamSchedule(
    (Stage(1, (1,)), Stage(1, (2,)), Stage(1, (4,))), tail_period=1
)


@pytest.fixture
def odometer():
    return ODOMETER


@pytest.fixture
def chacon():
    return CHACON


@st.composite
def schedules(draw, max_stages=4, min_q=2, max_q=4, max_spacer=3, allow_bare=True):
    """Small random schedules; q >= 2 keeps heights growing geometrically."""
    n = draw(st.integers(1, max_stages))
    stages = []
    for _ in range(n):
        q = draw(st.integers(min_q, max_q))
        a = tuple(draw(st.lists(st.integers(0, max_spacer), min_size=q, max_size=q)))
        stages.append(Stage(q, a))
    if allow_bare and draw(st.booleans()):
        period = None
    else:
        period = draw(st.integers(1, n))
    return ParamSchedule(tuple(stages), tail_period=period)


@st.composite
def any_schedules(draw):
    """Bare or periodic schedules whose stages may be malformed."""
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 4)) == 0:  # malformed: any q, any run list
            q = draw(st.integers(-1, 3))
            a = draw(st.lists(st.integers(-1, 3), max_size=4))
        else:
            q = draw(st.integers(1, 3))
            a = draw(st.lists(st.integers(0, 3), min_size=q, max_size=q))
        stages.append(Stage(q, tuple(a)))
    period = draw(st.one_of(st.none(), st.integers(1, len(stages))))
    return ParamSchedule(tuple(stages), tail_period=period)


def seeded_schedule(rng: random.Random, height_cap: int) -> ParamSchedule:
    """Random bare-prefix schedule with q in 2..4, runs in 0..3, h <= cap."""
    stages = []
    h = 1
    while True:
        q = rng.randint(2, 4)
        a = tuple(rng.randint(0, 3) for _ in range(q))
        nxt = q * h + sum(a)
        if nxt > height_cap:
            break
        stages.append(Stage(q, a))
        h = nxt
    assert len(stages) >= 2
    return ParamSchedule(tuple(stages), tail_period=None)


def seeded_levels(rng: random.Random, schedule: ParamSchedule, windows: int = 3):
    """0 = m_0 < m_1 < ... picked inside the schedule's explicit prefix."""
    top = schedule.prefix_len
    k = min(windows, top)
    return [0] + sorted(rng.sample(range(1, top + 1), k))
