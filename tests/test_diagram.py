"""Adic paths: order, successor dynamics, floors, coding, measures."""

import random
from fractions import Fraction

import pytest
from conftest import CHACON, ODOMETER, WIDE_RUNS, any_schedules, schedules, seeded_schedule
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankone import (
    DEFAULT_SYMBOL_BUDGET,
    DOWN,
    BudgetError,
    DepthError,
    ParamSchedule,
    Stage,
    ROOT_NONSPACER,
    ROOT_SPACER,
    SPACER,
    TOWER,
    AdicPath,
    Edge,
    LevelIndices,
    OrbitCoding,
    Overflow,
    PathError,
    build_block,
    code_minimal_orbit,
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
    telescope,
    validate_path,
)
from rankone.diagram import _step
from rankone.schedules import _floor_tables


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
    with pytest.raises(ValueError, match="^depth -1 < 0$"):
        minimal_path(CHACON, -1)
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
        if k + 1 < h:
            # the successor of a valid path is valid: verify's walk leaves
            # an image equal to the successor of an image unchecked
            validate_path(schedule, x)
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
    # the cached table covers every depth up to 2 now; a negative one is still refused
    with pytest.raises(ValueError, match="depth -1 < 0"):
        from_tower_coordinates(CHACON, -1, 0)


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


def test_code_orbit_budget_checked_before_coding():
    with pytest.raises(BudgetError) as err:
        code_orbit(CHACON, minimal_path(CHACON, 40), DEFAULT_SYMBOL_BUDGET + 1)
    assert str(err.value) == (
        f"orbit coding needs {DEFAULT_SYMBOL_BUDGET + 1} symbols, "
        f"over the budget of {DEFAULT_SYMBOL_BUDGET}"
    )
    with pytest.raises(ValueError, match="^steps -1 < 0$"):
        code_orbit(CHACON, minimal_path(CHACON, 2), -1)


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
    with pytest.raises(ValueError, match=r"^need 0 <= n <= depth, got n=3, depth=2$"):
        cylinder_measure_bounds(CHACON, 3, 2)


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


def test_export_dot_budget():
    # past the four header lines, every line but the closing brace takes at
    # least 32 characters with its newline
    lines = export_dot(CHACON, 3).splitlines()
    assert min(len(line) + 1 for line in lines[4:-1]) == 32
    # the rank lines alone pass the budget: refused before a stage is read
    with pytest.raises(BudgetError, match=(
        "^dot of depth 100000000 needs at least 4677777974 characters by level 0, "
        "over the budget of 67108864$"
    )):
        export_dot(ParamSchedule(()), 100_000_000)
    # each level adds over 4.3 * 10^7 characters: the spacer lines alone
    wide = ParamSchedule((Stage(2, (0, 10**6)),), 1)
    with pytest.raises(BudgetError, match=(
        "^dot of depth 5 needs at least 101778375 characters by level 2, "
        "over the budget of 67108864$"
    )):
        export_dot(wide, 5)
    # the stages are read before any line is built, in level order
    with pytest.raises(DepthError, match="^stage 1 unresolvable"):
        export_dot(ParamSchedule((Stage(2, (0, 1)),)), 3)
    with pytest.raises(ValueError, match="^depth -1 < 0$"):
        export_dot(CHACON, -1)


def _wide_stage() -> Stage:
    # one telescoped window of 3,888 copies: four-digit ranks
    base = ParamSchedule(tuple(Stage(len(a), tuple(a)) for a in WIDE_RUNS))
    return telescope(base, [0, 9]).stages[0]


@pytest.mark.parametrize(
    "schedule, depths",
    [(CHACON, range(13)), (ODOMETER, range(13)), (ParamSchedule((_wide_stage(),), 1), range(4))],
    ids=["chacon", "odometer", "wide"],
)
def test_export_dot_count_is_exact(monkeypatch, schedule, depths):
    # the budget counts every character: a text of N characters is refused
    # under a budget of N - 1, with N named, and built under a budget of N
    for depth, size in [(depth, len(export_dot(schedule, depth))) for depth in depths]:
        monkeypatch.setattr("rankone.diagram.DEFAULT_SYMBOL_BUDGET", size - 1)
        with pytest.raises(BudgetError, match=(
            f"^dot of depth {depth} needs at least {size} characters by level {depth}, "
            f"over the budget of {size - 1}$"
        )):
            export_dot(schedule, depth)
        monkeypatch.setattr("rankone.diagram.DEFAULT_SYMBOL_BUDGET", size)
        assert len(export_dot(schedule, depth)) == size


@given(small_cases())
def test_path_json_round_trip(case):
    schedule, depth = case
    h = heights(schedule, depth)[depth]
    for k in (0, h // 2, h - 1):
        x = from_tower_coordinates(schedule, depth, k)
        assert path_from_json_dict(path_to_json_dict(x)) == x


def test_path_json_rejects():
    with pytest.raises(PathError):
        path_from_json_dict({"root": "nope", "edges": []})
    with pytest.raises(PathError):
        path_from_json_dict({"root": "nonspacer"})


@pytest.mark.parametrize(
    "edges, needle",
    [
        ({"level": 0}, "array"),
        ([{"kind": TOWER}], "missing field 'i' at $.edges[0].i"),
        ([{"kind": TOWER, "i": 0}, {"kind": SPACER, "i": 1}], "missing field 'j' at $.edges[1].j"),
        ([{"kind": TOWER, "i": True}], "expected an integer at $.edges[0].i"),
        ([{"kind": SPACER, "i": 1, "j": "0"}], "expected an integer at $.edges[0].j"),
        # fields the kind does not carry, and a level that is not an integer
        ([{"kind": TOWER, "i": 0, "j": 7}], "unknown field 'j' at $.edges[0].j"),
        ([{"kind": TOWER, "i": 0, "foo": 1}], "unknown field 'foo' at $.edges[0].foo"),
        ([{"kind": TOWER, "i": 0}, {"kind": DOWN, "i": 5}], "unknown field 'i' at $.edges[1].i"),
        ([{"kind": TOWER, "i": 0}, {"kind": TOWER, "i": 0, "level": True}], "expected an integer at $.edges[1].level"),
        ([{"kind": TOWER, "i": 0, "level": 0.0}], "expected an integer at $.edges[0].level"),
        ([{"kind": TOWER, "i": 0, "level": 1}], "level 1 at $.edges[0].level, expected 0"),
        ([{"kind": "x"}], "unknown edge kind 'x' at $.edges[0].kind"),
        ([{"kind": [TOWER]}], "unknown edge kind ['tower'] at $.edges[0].kind"),
    ],
)
def test_path_json_rejects_bad_edges(edges, needle):
    with pytest.raises(PathError) as err:
        path_from_json_dict({"root": "nonspacer", "edges": edges})
    assert needle in str(err.value)


@pytest.mark.parametrize("kind, shown", [("x", "'x'"), ([TOWER], "['tower']")])
def test_path_to_json_rejects_unknown_edge_kinds(kind, shown):
    # a kind must be a str key of the edge-field table; a list is unhashable
    with pytest.raises(PathError) as err:
        path_to_json_dict(AdicPath(ROOT_NONSPACER, (Edge(TOWER, 0), Edge(kind))))
    assert str(err.value) == f"unknown edge kind {shown}"


# -- the level table and the bisect against per-level references -------------


def _scan_floor(schedule, n, k):
    """The depth-n path on floor k, scanning each level's copies upward."""
    hs = heights(schedule, n)
    edges = [Edge(DOWN)] * n
    pos = k
    for level in range(n - 1, -1, -1):
        stage, h = schedule.stage(level), hs[level]
        i, start = 0, 0
        while i + 1 < stage.q and start + h + stage.a[i] <= pos:
            start += h + stage.a[i]
            i += 1
        pos -= start
        if pos >= h:
            edges[level] = Edge(SPACER, i, pos - h)
            return AdicPath(ROOT_SPACER, tuple(edges))
        edges[level] = Edge(TOWER, i)
    return AdicPath(ROOT_NONSPACER, tuple(edges))


def _check_floors_and_table(schedule, n, seed=0):
    hs = heights(schedule, n)
    floors = range(hs[n])
    if hs[n] > 5000:
        floors = random.Random(seed).sample(floors, 5000)
    for k in floors:
        x = from_tower_coordinates(schedule, n, k)
        assert x == _scan_floor(schedule, n, k)
        assert level_indices(schedule, x).at(n) == k
    _, table = _floor_tables(schedule, n)
    assert len(table) >= n
    for level, starts in enumerate(table[:n]):
        stage = schedule.stage(level)
        assert starts == tuple(i * hs[level] + sum(stage.a[:i]) for i in range(stage.q + 1))
        assert starts[stage.q] == heights(schedule, level + 1)[level + 1]


@settings(max_examples=40, deadline=None)
@given(schedules(max_q=12, max_spacer=5), st.integers(0, 4), st.integers(0, 2**32))
def test_floors_by_bisection_match_linear_scan(schedule, n, seed):
    if schedule.tail_period is None:
        n = min(n, schedule.prefix_len)
    _check_floors_and_table(schedule, n, seed)


@pytest.mark.parametrize(
    "schedule, levels",
    [
        (CHACON, [0, 5]),
        (CHACON, [0, 5, 7]),
        (ODOMETER, [0, 8, 9]),
        (ParamSchedule(tuple(Stage(len(a), a) for a in WIDE_RUNS)), [0, 9]),
        (seeded_schedule(random.Random(1), 10**7), [0, 5, 7]),
        (seeded_schedule(random.Random(2), 10**7), [0, 5, 9]),
    ],
)
def test_floors_by_bisection_on_wide_windows(schedule, levels):
    # telescoped windows have hundreds or thousands of copies per stage
    tele = ParamSchedule(telescope(schedule, levels).stages, tail_period=None)
    assert max(stage.q for stage in tele.stages) >= 100
    _check_floors_and_table(tele, tele.prefix_len)


# -- errors on malformed input, against code that resolves each stage where ---
# it reads it and reads no level table


def _ref_validate_path(schedule, path):
    if path.root not in (ROOT_NONSPACER, ROOT_SPACER):
        raise PathError(f"unknown root edge {path.root!r}")
    column = 0 if path.root == ROOT_NONSPACER else 1
    for n, e in enumerate(path.edges):
        st = schedule.stage(n)
        if column == 0:
            if e.kind != TOWER:
                raise PathError(f"level {n}: expected a tower edge out of column 0")
            if not 0 <= e.i < st.q:
                raise PathError(f"level {n}: tower index {e.i} outside 0..{st.q - 1}")
        else:
            if e.kind == DOWN:
                continue
            if e.kind != SPACER:
                raise PathError(f"level {n}: expected spacer or down out of column 1")
            if not 0 <= e.i < st.q:
                raise PathError(f"level {n}: spacer group {e.i} outside 0..{st.q - 1}")
            if not 0 <= e.j < st.a[e.i]:
                raise PathError(
                    f"level {n}: spacer index {e.j} outside 0..{st.a[e.i] - 1}"
                )
            column = 0


def _ref_successor(schedule, path):
    _ref_validate_path(schedule, path)
    return _ref_step(schedule, path)


def _ref_step(schedule, path):
    """The successor of a valid path, resolving a stage at every level it tries."""
    for pos, e in enumerate(path.edges):
        if e.kind == DOWN:
            continue
        st = schedule.stage(pos)
        j = 0 if e.kind == TOWER else e.j + 1
        if j < st.a[e.i]:
            new = Edge(SPACER, e.i, j)
        elif e.i + 1 < st.q:
            new = Edge(TOWER, e.i + 1)
        else:
            continue
        if new.kind == TOWER:
            root, head = ROOT_NONSPACER, (Edge(TOWER, 0),) * pos
        else:
            root, head = ROOT_SPACER, (Edge(DOWN),) * pos
        return AdicPath(root, head + (new,) + path.edges[pos + 1:])
    return Overflow(path.depth)


def _ref_level_indices(schedule, path):
    _ref_validate_path(schedule, path)
    hs = heights(schedule, path.depth)
    start, j = 0, 0
    if path.root != ROOT_NONSPACER:
        m = next((n for n, e in enumerate(path.edges) if e.kind != DOWN), None)
        if m is None:
            raise PathError("path stays in the spacer column; no tower coordinates")
        e, st = path.edges[m], schedule.stage(m)
        start = m + 1
        j = (e.i + 1) * hs[m] + sum(st.a[:e.i]) + e.j
    vals = [j]
    for n in range(start, path.depth):
        e, st = path.edges[n], schedule.stage(n)
        j = e.i * hs[n] + sum(st.a[:e.i]) + j
        vals.append(j)
    return LevelIndices(start, tuple(vals))


def _ref_from_tower_coordinates(schedule, n, k):
    hs = heights(schedule, n)
    if not 0 <= k < hs[n]:
        raise ValueError(f"floor {k} outside 0..{hs[n] - 1}")
    return _scan_floor(schedule, n, k)


def _result(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)


_ANY_EDGES = st.lists(
    st.builds(Edge, st.sampled_from([TOWER, SPACER, DOWN]), st.integers(-3, 4), st.integers(-2, 4)),
    max_size=6,
)


@given(
    any_schedules(),
    st.lists(
        st.tuples(
            st.sampled_from([ROOT_NONSPACER, ROOT_SPACER, "bogus"]),
            _ANY_EDGES,
            st.integers(-1, 6),
            st.integers(-1, 120),
        ),
        min_size=1,
        max_size=4,
    ),
)
@example(  # negative and past-the-end indices, refused before the copy starts are read
    ParamSchedule((Stage(2, (0, 1)),), 1),
    [
        (ROOT_NONSPACER, [Edge(TOWER, -1), Edge(TOWER, 2)], 2, 5),
        (ROOT_SPACER, [Edge(SPACER, -1, 0), Edge(TOWER, -2)], 1, 0),
        (ROOT_SPACER, [Edge(DOWN), Edge(SPACER, 2, 1)], 3, 1),
        (ROOT_SPACER, [Edge(SPACER, 1, 1), Edge(TOWER, 0)], 2, 3),
    ],
)
def test_path_functions_raise_where_each_level_is_read(schedule, cases):
    # bad and missing stages inside and below the path, out-of-range and
    # negative edge indices; each case runs on the table the cases before
    # it left behind
    for root, edges, n, k in cases:
        paths = [AdicPath(root, tuple(edges))]
        head = _result(_ref_from_tower_coordinates, schedule, n, k)
        if isinstance(head, AdicPath):  # a valid head, then arbitrary edges
            paths.append(AdicPath(head.root, head.edges + tuple(edges)))
        for path in paths:
            for fn, ref in (
                (validate_path, _ref_validate_path),
                (successor, _ref_successor),
                (level_indices, _ref_level_indices),
            ):
                assert _result(fn, schedule, path) == _result(ref, schedule, path)
        assert _result(from_tower_coordinates, schedule, n, k) == head


def _ref_code_orbit(schedule, path, steps):
    """code_orbit validating the path, then stepping _ref_step, which
    resolves a stage at every step."""
    _ref_validate_path(schedule, path)
    out = []
    for s in range(steps):
        out.append("1" if path.root == ROOT_SPACER else "0")
        if s + 1 < steps:
            path = _ref_step(schedule, path)
            if isinstance(path, Overflow):
                return OrbitCoding("".join(out), path)
    return OrbitCoding("".join(out), None)


@given(
    any_schedules(),
    st.sampled_from([ROOT_NONSPACER, ROOT_SPACER, "bogus"]),
    _ANY_EDGES,
    st.integers(-1, 6),
    st.integers(-1, 120),
    st.integers(0, 150),
)
def test_code_orbit_matches_stepped_successor(schedule, root, edges, n, k, steps):
    # the orbit validates the path, then resolves each level once: same
    # word, overflow, or exception and text as validating and stepping
    paths = [AdicPath(root, tuple(edges))]
    head = _result(_ref_from_tower_coordinates, schedule, n, k)
    if isinstance(head, AdicPath):  # a valid head, then arbitrary edges
        paths.append(AdicPath(head.root, head.edges + tuple(edges)))
    for path in paths:
        assert _result(code_orbit, schedule, path, steps) == _result(
            _ref_code_orbit, schedule, path, steps
        )


@given(any_schedules(), st.integers(0, 8), st.integers(1, 400))
def test_code_minimal_orbit_is_code_orbit_of_the_minimal_path(schedule, depth, steps):
    # the word read off the block recursion is the stepped orbit's: same
    # word, overflow depth, or exception type and text
    stepped = _result(lambda: code_orbit(schedule, minimal_path(schedule, depth), steps))
    assert _result(code_minimal_orbit, schedule, depth, steps) == stepped


def _ref_minimal_path(schedule, depth):
    """minimal_path reading every stage below depth, level by level."""
    if depth < 0:
        raise ValueError(f"depth {depth} < 0")
    for n in range(depth):
        schedule.stage(n)
    return AdicPath(ROOT_NONSPACER, (Edge(TOWER, 0),) * depth)


@given(any_schedules(), st.data())
def test_minimal_path_checks_the_stages_a_level_walk_reads(schedule, data):
    # the check reads at most prefix_len + 1 levels, yet refuses the same
    # first bad or missing stage as a walk through every level below depth
    depth = data.draw(st.integers(-1, 3 * schedule.prefix_len))
    assert _result(minimal_path, schedule, depth) == _result(_ref_minimal_path, schedule, depth)


def test_errors_at_the_level_read():
    bare = ParamSchedule((Stage(2, (0, 1)),))
    with pytest.raises(PathError, match="level 0: tower index 5 outside 0..1"):
        validate_path(bare, AdicPath(ROOT_NONSPACER, (Edge(TOWER, 5), Edge(TOWER, 0))))
    # the step moves the edge at level 0, so the missing stage 1 is never
    # read; the public functions validate the path first and refuse it there
    path = AdicPath(ROOT_NONSPACER, (Edge(TOWER, 0), Edge(TOWER, 0)))
    assert _step(bare.stage, path.edges) == (0, Edge(TOWER, 1))
    for fn in (successor, level_indices):
        with pytest.raises(DepthError, match="stage 1 unresolvable"):
            fn(bare, path)
    # level 0 is read, and refused, before the missing stage 1
    with pytest.raises(PathError, match="level 0: tower index 5 outside 0..1"):
        level_indices(bare, AdicPath(ROOT_NONSPACER, (Edge(TOWER, 5), Edge(TOWER, 0))))


@pytest.mark.parametrize("path, message", [
    # the edges of test_level_indices_spacer_entry under an unknown root
    (AdicPath("bogus", (Edge(SPACER, 1, 0), Edge(TOWER, 2))), "unknown root edge 'bogus'"),
    (AdicPath(ROOT_SPACER, (Edge("weird", 1, 0),)), "level 0: expected spacer or down out of column 1"),
    (AdicPath(ROOT_SPACER, (Edge(TOWER, 1),)), "level 0: expected spacer or down out of column 1"),
    (AdicPath(ROOT_SPACER, (Edge(SPACER, 1, 0), Edge(DOWN))), "level 1: expected a tower edge out of column 0"),
])
def test_level_indices_checks_paths_as_validate_path_does(path, message):
    for fn in (validate_path, level_indices):
        with pytest.raises(PathError) as err:
            fn(CHACON, path)
        assert str(err.value) == message


@pytest.mark.parametrize("path, message", [
    (AdicPath(ROOT_NONSPACER, (Edge(TOWER, 5),)), "level 0: tower index 5 outside 0..2"),
    (AdicPath("bogus", (Edge(TOWER, 0),)), "unknown root edge 'bogus'"),
    (AdicPath(ROOT_SPACER, (Edge(SPACER, 0, 7),)), "level 0: spacer index 7 outside 0..-1"),
    (AdicPath(ROOT_SPACER, (Edge(TOWER, 0),)), "level 0: expected spacer or down out of column 1"),
])
def test_successor_and_code_orbit_validate_the_path(path, message):
    # unchecked, the first indexes past stage 0's runs and the others step
    # an edge the diagram lacks to a successor or word
    for call in (lambda: successor(CHACON, path), lambda: code_orbit(CHACON, path, 4)):
        with pytest.raises(PathError) as err:
            call()
        assert str(err.value) == message


def test_path_types_are_tuples():
    assert Edge(TOWER, 2) == (TOWER, 2, 0)
    assert AdicPath(ROOT_NONSPACER, ()) == (ROOT_NONSPACER, ())
    assert LevelIndices(1, (2, 11)) == (1, (2, 11))
    assert hash(Edge(SPACER, 1, 0)) == hash((SPACER, 1, 0))
