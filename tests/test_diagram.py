"""Adic paths: order, successor dynamics, floors, coding, measures."""

from fractions import Fraction

import pytest
from conftest import CHACON, ODOMETER, schedules
from hypothesis import given
from hypothesis import strategies as st

from rankone import (
    DOWN,
    ParamSchedule,
    Stage,
    ROOT_NONSPACER,
    ROOT_SPACER,
    SPACER,
    TOWER,
    AdicPath,
    Edge,
    Overflow,
    PathError,
    build_block,
    code_orbit,
    cylinder_measure_bounds,
    export_dot,
    from_tower_coordinates,
    heights,
    level_indices,
    minimal_path,
    path_from_json_dict,
    path_to_json_dict,
    successor,
    validate_path,
)


def small_cases():
    return st.tuples(
        schedules(max_stages=3, max_q=3, max_spacer=2, allow_bare=False),
        st.integers(1, 3),
    )


def test_minimal_maximal_structure():
    lo = minimal_path(CHACON, 2)
    assert lo.root == ROOT_NONSPACER
    assert all(e == Edge(TOWER, 0) for e in lo.edges)
    hi = from_tower_coordinates(CHACON, 2, 12)
    # chacon's final run is empty, so the greatest path climbs the last
    # copy at every level and never touches the spacer column
    assert hi == AdicPath(ROOT_NONSPACER, (Edge(TOWER, 2), Edge(TOWER, 2)))
    assert successor(CHACON, hi) == Overflow(2)
    validate_path(CHACON, lo)
    validate_path(CHACON, hi)

    spaced = ParamSchedule((Stage(2, (0, 2)),), tail_period=1)
    top = from_tower_coordinates(spaced, 2, heights(spaced, 2)[2] - 1)
    # here the final run is positive: the top edge is its last spacer slot
    assert top == AdicPath(ROOT_SPACER, (Edge(DOWN), Edge(SPACER, 1, 1)))
    assert successor(spaced, top) == Overflow(2)

    # the sole path into column 1 is both least and greatest
    all_down = AdicPath(ROOT_SPACER, (Edge(DOWN),) * 2)
    assert all(e.kind == DOWN for e in all_down.edges)
    assert successor(CHACON, all_down) == Overflow(2)


def test_validate_path_rejects():
    with pytest.raises(PathError):
        validate_path(CHACON, AdicPath(ROOT_NONSPACER, (Edge(TOWER, 3),)))
    with pytest.raises(PathError):
        validate_path(CHACON, AdicPath(ROOT_SPACER, (Edge(SPACER, 0, 0),)))  # a[0]=0
    with pytest.raises(PathError):
        validate_path(CHACON, AdicPath(ROOT_SPACER, (Edge(SPACER, 1, 1),)))  # a[1]=1
    with pytest.raises(PathError):
        # tower edges start in column 0, but the root went to column 1
        validate_path(CHACON, AdicPath(ROOT_SPACER, (Edge(TOWER, 0),)))
    with pytest.raises(PathError):
        # down edges live in column 1, but the root went to column 0
        validate_path(CHACON, AdicPath(ROOT_NONSPACER, (Edge(DOWN),)))
    with pytest.raises(PathError):
        # spacer edge lands in column 0; a second spacer cannot follow
        validate_path(
            CHACON, AdicPath(ROOT_SPACER, (Edge(SPACER, 1, 0), Edge(SPACER, 1, 0)))
        )


@given(small_cases())
def test_successor_walks_fiber_in_floor_order(case):
    schedule, depth = case
    h = heights(schedule, depth)[depth]
    x = minimal_path(schedule, depth)
    for k in range(h):
        assert x == from_tower_coordinates(schedule, depth, k)
        assert level_indices(schedule, x).at(depth) == k
        x = successor(schedule, x)
    assert x == Overflow(depth)


@given(small_cases())
def test_floor_round_trip(case):
    schedule, depth = case
    h = heights(schedule, depth)[depth]
    for k in range(h):
        x = from_tower_coordinates(schedule, depth, k)
        validate_path(schedule, x)
        li = level_indices(schedule, x)
        assert li.at(depth) == k
        # the lift of any floor it reports reproduces the path suffix
        rebuilt = from_tower_coordinates(schedule, depth, li.at(depth))
        assert rebuilt == x


def test_level_indices_spacer_entry():
    # enter tower 1 through spacer (1, 0) of the first stage: floor
    # (1+1)*1 + a[0] + 0 = 2, then tower edge 2 lifts to 2*4 + 1 + 2 = 11
    x = AdicPath(ROOT_SPACER, (Edge(SPACER, 1, 0), Edge(TOWER, 2)))
    li = level_indices(CHACON, x)
    assert li.start == 1
    assert li.values == (2, 11)
    with pytest.raises(ValueError):
        li.at(0)


def test_level_indices_all_down_rejected():
    with pytest.raises(PathError):
        level_indices(CHACON, AdicPath(ROOT_SPACER, (Edge(DOWN),) * 3))


def test_from_tower_coordinates_range():
    with pytest.raises(ValueError):
        from_tower_coordinates(CHACON, 2, 13)
    with pytest.raises(ValueError):
        from_tower_coordinates(CHACON, 2, -1)


def test_code_orbit_matches_block():
    for n in range(5):
        w = build_block(CHACON, n)
        got = code_orbit(CHACON, minimal_path(CHACON, n), len(w))
        assert got.word == w
        assert got.overflow is None


@given(schedules(max_q=12, max_spacer=5), st.integers(0, 3))
def test_code_orbit_matches_block_on_random_schedules(schedule, n):
    # wide stages and zero runs exercise every case of the next edge
    if schedule.tail_period is None:
        n = min(n, schedule.prefix_len)
    w = build_block(schedule, n)
    got = code_orbit(schedule, minimal_path(schedule, n), len(w))
    assert got.word == w
    assert got.overflow is None


def test_code_orbit_overflow():
    got = code_orbit(ODOMETER, minimal_path(ODOMETER, 2), 10)
    assert got.word == "0000"
    assert got.overflow == Overflow(2)


def test_cylinder_measure_values():
    ex = cylinder_measure_bounds(ODOMETER, 3, 10)
    assert ex.lo == ex.hi == Fraction(1, 8)
    assert ex.tail_bounded
    assert ex.width == 0

    br = cylinder_measure_bounds(CHACON, 1, 15)
    assert br.lo <= Fraction(2, 9) <= br.hi
    assert br.width < Fraction(1, 10**5)
    wide = cylinder_measure_bounds(CHACON, 1, 8)
    assert wide.width > br.width


def test_cylinder_measure_unbounded_tail():
    from rankone import ParamSchedule, Stage

    bare = ParamSchedule(tuple(Stage(2, (1, 1)) for _ in range(6)), tail_period=None)
    br = cylinder_measure_bounds(bare, 1, 6)
    assert not br.tail_bounded
    assert br.lo == 0
    assert br.hi > 0


def test_export_dot_deterministic():
    dot = export_dot(ODOMETER, 1)
    assert dot == export_dot(ODOMETER, 1)
    assert dot.startswith("digraph")
    # 2 root edges + 2 tower edges + 1 down edge
    assert dot.count("->") == 5
    dot2 = export_dot(CHACON, 1)
    # 2 root + 3 towers + 1 spacer + 1 down
    assert dot2.count("->") == 7
    assert "style=dashed" in dot2


@given(small_cases())
def test_path_json_round_trip(case):
    schedule, depth = case
    h = heights(schedule, depth)[depth]
    for k in (0, h // 2, h - 1):
        x = from_tower_coordinates(schedule, depth, k)
        assert path_from_json_dict(path_to_json_dict(x), schedule) == x


def test_path_json_rejects():
    with pytest.raises(PathError):
        path_from_json_dict({"root": "nope", "edges": []})
    with pytest.raises(PathError):
        path_from_json_dict({"root": "nonspacer"})


@pytest.mark.parametrize(
    "edges, needle",
    [
        ({"level": 0}, "array"),
        ([{"kind": TOWER}], "edge 0"),
        ([{"kind": TOWER, "i": 0}, {"kind": SPACER, "i": 1}], "edge 1"),
        ([{"kind": TOWER, "i": True}], "edge 0"),
        ([{"kind": SPACER, "i": 1, "j": "0"}], "edge 0"),
    ],
)
def test_path_json_rejects_bad_edges(edges, needle):
    with pytest.raises(PathError) as err:
        path_from_json_dict({"root": "nonspacer", "edges": edges})
    assert needle in str(err.value)
