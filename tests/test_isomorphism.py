"""Finite-depth verification of the spacer-replacement isomorphism."""

import dataclasses
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from conftest import CHACON, ODOMETER, any_schedules, seeded_levels, seeded_schedule
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankone import (
    DOWN,
    ROOT_NONSPACER,
    ROOT_SPACER,
    AdicPath,
    BudgetError,
    DepthError,
    Edge,
    IsoFailure,
    IsoReport,
    Overflow,
    ParamSchedule,
    PathError,
    SPACER,
    Stage,
    TOWER,
    build_expansive,
    exceptional_index,
    expansive_replace,
    from_tower_coordinates,
    heights,
    level_indices,
    minimal_path,
    path_from_json_dict,
    successor,
    telescope,
    to_source,
    to_target,
    verify_isomorphism,
)
from rankone.diagram import _advance, _advance_indices, _step
from rankone.isomorphism import _advance_exceptional


@pytest.fixture(scope="module")
def chacon_ctx():
    return build_expansive(CHACON, 3)


@pytest.fixture(scope="module")
def odometer_ctx():
    return build_expansive(ODOMETER, 3)


def test_context_shape(chacon_ctx):
    assert chacon_ctx.heights == (1, 4, 40, 364)
    assert chacon_ctx.cut == (1, 7, 7)
    assert chacon_ctx.top_run == (2, 5, 41)
    assert chacon_ctx.num_stages == 3


def test_exceptional_membership(chacon_ctx):
    # spacer edges are always exceptional; towers only past the cut
    x = AdicPath(ROOT_SPACER, (Edge(SPACER, 1, 0), Edge(TOWER, 8)))
    assert exceptional_index(chacon_ctx, x) == 1  # 8 > cut 7
    kept = AdicPath(ROOT_SPACER, (Edge(SPACER, 1, 0), Edge(TOWER, 7)))
    assert exceptional_index(chacon_ctx, kept) == 0

    low = minimal_path(chacon_ctx.source, 3)
    assert exceptional_index(chacon_ctx, low) == -1


def test_mapping_hand_example(chacon_ctx):
    # source: spacer (1,0) into tower 1, then copy 8 of tower 2; the
    # floor is J_2 = 8*4 + 4 + 2 = 38, inside the replaced top run
    x = AdicPath(ROOT_SPACER, (Edge(SPACER, 1, 0), Edge(TOWER, 8)))
    y = to_target(chacon_ctx, x)
    assert y == AdicPath(ROOT_SPACER, (Edge(DOWN), Edge(SPACER, 7, 3)))
    assert level_indices(chacon_ctx.target, y).at(2) == 38
    assert level_indices(chacon_ctx.source, x).at(2) == 38
    assert to_source(chacon_ctx, y) == x


def test_mapping_identity_off_exceptional(chacon_ctx):
    x = minimal_path(chacon_ctx.source, 3)
    y = to_target(chacon_ctx, x)
    assert y == x
    assert to_source(chacon_ctx, y) == x


def test_mapping_kept_spacer_passes_through(chacon_ctx):
    # spacer (1, 0) sits at copy 1 <= cut 1, so the edge survives as is
    x = AdicPath(ROOT_SPACER, (Edge(SPACER, 1, 0), Edge(TOWER, 0), Edge(TOWER, 0)))
    y = to_target(chacon_ctx, x)
    assert y.edges[0] == Edge(SPACER, 1, 0)
    assert to_source(chacon_ctx, y) == x


def test_mapping_rejects_all_down(chacon_ctx):
    down = AdicPath(ROOT_SPACER, (Edge(DOWN),) * 3)
    with pytest.raises(PathError):
        to_target(chacon_ctx, down)
    with pytest.raises(PathError):
        to_source(chacon_ctx, down)


def test_mapping_range_error(chacon_ctx):
    # slot 38 - 40 + 0 lies outside the target's stage-1 run of 5
    broken = dataclasses.replace(chacon_ctx, top_run=(2, 0, 41))
    x = AdicPath(ROOT_SPACER, (Edge(SPACER, 1, 0), Edge(TOWER, 8)))
    with pytest.raises(PathError, match="level 1: spacer index -2 outside 0..4"):
        to_target(broken, x)


@pytest.mark.parametrize("i", [99, 3, -1])
def test_tower_index_outside_the_stage(chacon_ctx, i):
    # stage 0 of chacon and of the context's source has q = 3; no floor may
    # be read off these paths
    x = AdicPath(ROOT_NONSPACER, (Edge(TOWER, i), Edge(TOWER, 0)))
    message = re.escape(f"level 0: tower index {i} outside 0..2")
    for schedule in (CHACON, chacon_ctx.source):
        with pytest.raises(PathError, match=message):
            level_indices(schedule, x)
    with pytest.raises(PathError, match=message):
        to_target(chacon_ctx, x)


def test_to_target_validates_its_input(chacon_ctx):
    # off the exceptional set the edges would pass to the image unread
    x = AdicPath("bogus", (Edge(TOWER, 0), Edge(TOWER, 0)))
    with pytest.raises(PathError, match="unknown root edge 'bogus'"):
        to_target(chacon_ctx, x)


def test_to_source_validates_its_result(chacon_ctx):
    # a target stage of 4 copies over a source stage of 3, both of height 4:
    # target copy 3 is a valid path with no source copy to return to
    wide = dataclasses.replace(
        chacon_ctx,
        target=ParamSchedule((Stage(4, (0, 0, 0, 0)),) + chacon_ctx.target.stages[1:]),
    )
    with pytest.raises(PathError, match=re.escape("level 0: tower index 3 outside 0..2")):
        to_source(wide, AdicPath(ROOT_NONSPACER, (Edge(TOWER, 3),)))


def test_depth_guard(chacon_ctx):
    deep = minimal_path(CHACON, 4)
    with pytest.raises(ValueError):
        to_target(chacon_ctx, deep)
    with pytest.raises(ValueError, match="path depth 4 exceeds the 3 stages"):
        to_source(chacon_ctx, deep)
    with pytest.raises(ValueError):
        verify_isomorphism(chacon_ctx, 4)
    with pytest.raises(ValueError, match="samples -1 < 0"):
        verify_isomorphism(chacon_ctx, 2, samples=-1)


def test_verify_walk_budget():
    # the odometer's depth-6 fiber has 2^21 floors; neither it nor a sample
    # one floor past the 2^20 budget is walked, and a small sample is
    model = build_expansive(ODOMETER, 6)
    for samples, walked in ((None, 1 << 21), ((1 << 20) + 1, (1 << 20) + 1)):
        with pytest.raises(BudgetError, match=(
            f"^verify needs {walked} floors, over the budget of 1048576; "
            r"pass --samples K with K <= 1048576$"
        )):
            verify_isomorphism(model, 6, samples=samples)
    assert verify_isomorphism(model, 6, samples=50, seed=1).passed


def test_verify_refuses_a_target_of_fewer_stages(chacon_ctx):
    # stage 1 of the target is missing: refused before any floor is read
    short = dataclasses.replace(
        chacon_ctx, target=ParamSchedule(chacon_ctx.target.stages[:1])
    )
    with pytest.raises(ValueError, match="depth 2 exceeds the target's 1 stages"):
        verify_isomorphism(short, 2)
    assert verify_isomorphism(short, 1).passed


def test_verify_samples_deep_fibers():
    # H_10 of the chacon model passes sys.maxsize, where random.sample fails
    model = build_expansive(CHACON, 10)
    assert heights(model.source, 10)[10] > sys.maxsize
    report = verify_isomorphism(model, 10, samples=20, seed=3)
    assert report.paths_tested == 20
    assert report.passed


@pytest.mark.parametrize("samples", [40, 41])
def test_verify_sample_of_the_whole_fiber(chacon_ctx, samples):
    # H_2 = 40: a sample this large walks every floor
    assert verify_isomorphism(chacon_ctx, 2, samples=samples, seed=5) == verify_isomorphism(
        chacon_ctx, 2
    )


def test_verify_exhaustive_passes(chacon_ctx, odometer_ctx):
    for ctx, fiber in ((odometer_ctx, 64), (chacon_ctx, 364)):
        report = verify_isomorphism(ctx, 3)
        assert report.paths_tested == fiber
        assert report.passed
        assert report.failures == ()
        # the single skip is the top floor, whose successor leaves depth 3
        assert report.exclusions == (("successor-overflow", 1),)
        assert report == reference_verify(ctx, 3)


def test_verify_mass_terms(chacon_ctx):
    report = verify_isomorphism(chacon_ctx, 2)
    assert report.exceptional_mass_terms == (Fraction(3, 4), Fraction(9, 40))


def test_verify_detects_wrong_cut(chacon_ctx):
    bad = dataclasses.replace(chacon_ctx, cut=(0,) + chacon_ctx.cut[1:])
    report = verify_isomorphism(bad, 3)
    assert not report.passed
    counts = report.failure_counts()
    assert counts.get("mapping-error", 0) + counts.get("equivariance", 0) > 0
    # the floors after a failed successor reuse its record, witnesses included;
    # a sample reuses it only for the floor next to the last one
    assert report == reference_verify(bad, 3)
    sampled = verify_isomorphism(bad, 3, samples=50, seed=7)
    assert sampled == reference_verify(bad, 3, samples=50, seed=7)


def test_verify_sampled_deterministic(chacon_ctx):
    a = verify_isomorphism(chacon_ctx, 3, samples=50, seed=7)
    b = verify_isomorphism(chacon_ctx, 3, samples=50, seed=7)
    assert a == b
    assert a.paths_tested == 50
    assert a.passed


def test_verify_json_shape(chacon_ctx):
    doc = verify_isomorphism(chacon_ctx, 2).to_json_dict()
    assert doc["passed"] is True
    assert doc["paths_tested"] == 40
    assert doc["exceptional_mass_partial_sum"] == str(Fraction(3, 4) + Fraction(9, 40))


def test_verify_partial_replacement_context():
    # contexts built by hand from a partial replacement still verify
    tele = telescope(CHACON, [0, 1, 3])
    ctx = expansive_replace(tele)
    report = verify_isomorphism(ctx, 2)
    assert report.passed
    assert report.paths_tested == 40


def reference_verify(ctx, depth, samples=None, seed=None):
    """The verifier as one independent loop per path: every image is mapped
    anew through to_target/to_source, and injectivity is a dict keyed by
    path; the fiber sizes are compared first.  A sample draws floors with
    randrange until it holds min(samples, H_D) distinct ones."""
    if depth > ctx.num_stages:
        raise ValueError(f"depth {depth} exceeds the {ctx.num_stages} stages")
    fiber = heights(ctx.source, depth)[depth]
    if samples is None:
        floors = range(fiber)
    else:
        rng = random.Random(seed)
        drawn = set()
        while len(drawn) < min(samples, fiber):
            drawn.add(rng.randrange(fiber))
        floors = sorted(drawn)
    failures = []
    target_fiber = heights(ctx.target, depth)[depth]
    if target_fiber != fiber:
        taller = ctx.target if target_fiber > fiber else ctx.source
        failures.append(IsoFailure(
            "onto",
            f"target H'_{depth} = {target_fiber} != source H_{depth} = {fiber}",
            from_tower_coordinates(taller, depth, max(fiber, target_fiber) - 1),
        ))
    exclusions = Counter()
    images = {}
    tested = 0
    for k in floors:
        x = from_tower_coordinates(ctx.source, depth, k)
        tested += 1
        n_exc = exceptional_index(ctx, x)
        try:
            y = to_target(ctx, x)
        except ValueError as exc:
            failures.append(IsoFailure("mapping-error", str(exc), x))
            continue
        try:
            jx = level_indices(ctx.source, x)
            jy = level_indices(ctx.target, y)
            for n in range(max(jx.start, jy.start, n_exc + 1), depth + 1):
                if jx.at(n) != jy.at(n):
                    failures.append(IsoFailure(
                        "floor-preservation",
                        f"J_{n}: source {jx.at(n)} != target {jy.at(n)}",
                        x,
                    ))
                    break
        except (PathError, ValueError) as exc:
            failures.append(IsoFailure("floor-preservation", str(exc), x))
        try:
            if to_source(ctx, y) != x:
                failures.append(
                    IsoFailure("round-trip", "inverse image differs from the path", x)
                )
        except ValueError as exc:
            failures.append(IsoFailure("round-trip", str(exc), x))
        if y in images and images[y] != x:
            failures.append(IsoFailure("injectivity", "two paths share this image", x))
        images[y] = x
        step_x = successor(ctx.source, x)
        if isinstance(step_x, Overflow):
            exclusions["successor-overflow"] += 1
            continue
        step_y = successor(ctx.target, y)
        if isinstance(step_y, Overflow):
            failures.append(IsoFailure(
                "equivariance", "image overflowed although the source did not", x
            ))
            continue
        try:
            mapped = to_target(ctx, step_x)
        except ValueError as exc:
            failures.append(IsoFailure("equivariance", str(exc), x))
        else:
            if mapped != step_y:
                failures.append(IsoFailure(
                    "equivariance",
                    "successor of image differs from image of successor",
                    x,
                ))
    terms = tuple(
        Fraction(
            ctx.source.stage(n).spacer_sum + max(ctx.source.stage(n).a) + ctx.heights[n],
            ctx.heights[n + 1],
        )
        for n in range(min(depth, ctx.num_stages))
    )
    return IsoReport(
        depth=depth,
        paths_tested=tested,
        failures=tuple(failures),
        exclusions=tuple(sorted(exclusions.items())),
        exceptional_mass_terms=terms,
    )


def mutated(ctx, field, n, delta, i=0):
    """ctx with cut[n] or top_run[n] moved by delta, or run i of target stage n."""
    if field == "target":
        stages = list(ctx.target.stages)
        runs = list(stages[n].a)
        i %= len(runs)
        runs[i] = max(0, runs[i] + delta)
        stages[n] = Stage(stages[n].q, tuple(runs))
        return dataclasses.replace(ctx, target=ParamSchedule(tuple(stages)))
    values = list(getattr(ctx, field))
    values[n] = max(0, values[n] + delta)
    return dataclasses.replace(ctx, **{field: tuple(values)})


@st.composite
def seeded_contexts(draw):
    """The context of a seeded random schedule over seeded levels."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    schedule = seeded_schedule(rng, draw(st.sampled_from([100, 300, 1000])))
    return expansive_replace(telescope(schedule, seeded_levels(rng, schedule)))


@st.composite
def contexts(draw):
    """A seeded random context, clean or mutated in cut, top_run or a target run."""
    ctx = draw(seeded_contexts())
    field = draw(st.sampled_from([None, "cut", "top_run", "target"]))
    if field is not None:
        n = draw(st.integers(0, ctx.num_stages - 1))
        delta = draw(st.sampled_from([-2, -1, 1, 2]))
        ctx = mutated(ctx, field, n, delta, draw(st.integers(0, 63)))
    return ctx, draw(st.integers(1, ctx.num_stages))


@settings(deadline=None)
@given(contexts(), st.integers(1, 40), st.integers(0, 99))
def test_verify_matches_reference(case, samples, seed):
    ctx, depth = case
    assert verify_isomorphism(ctx, depth) == reference_verify(ctx, depth)
    assert verify_isomorphism(ctx, depth, samples=samples, seed=seed) == reference_verify(
        ctx, depth, samples=samples, seed=seed
    )


PRESET_CONTEXTS = tuple(
    build_expansive(schedule, 4) for schedule in (CHACON, ODOMETER)
)


@settings(deadline=None)
@given(st.one_of(st.sampled_from(PRESET_CONTEXTS), seeded_contexts()), st.data())
def test_depth_consistency(ctx, data):
    # the image of a depth-(D+1) path with N(x) < D, truncated to depth D,
    # is the image of the truncated path
    depth = data.draw(st.integers(1, ctx.num_stages - 1))
    fiber = heights(ctx.source, depth + 1)[depth + 1]
    x = from_tower_coordinates(ctx.source, depth + 1, data.draw(st.integers(0, fiber - 1)))
    assume(exceptional_index(ctx, x) < depth)
    y = to_target(ctx, x)
    assert AdicPath(y.root, y.edges[:depth]) == to_target(
        ctx, AdicPath(x.root, x.edges[:depth])
    )


@settings(deadline=None)
@given(st.one_of(st.sampled_from(PRESET_CONTEXTS), seeded_contexts()), st.data())
def test_map_is_the_floor_map(ctx, data):
    # floors are kept above N(x) < D, and J_D is a bijection on target paths
    # into column 0, so the image is the target path on floor J_D(x)
    depth = data.draw(st.integers(1, ctx.num_stages))
    fiber = heights(ctx.source, depth)[depth]
    x = from_tower_coordinates(ctx.source, depth, data.draw(st.integers(0, fiber - 1)))
    floor = level_indices(ctx.source, x).at(depth)
    assert to_target(ctx, x) == from_tower_coordinates(ctx.target, depth, floor)


def _check_step_rule(schedule, x, cut):
    """J and N of the successor of x carried through the step, as the verify
    walk carries them, against both read off the successor."""
    move = _step(schedule.stage, x.edges)
    if move is None:
        return
    nxt = _advance(x.edges, *move)
    assert _advance_indices(level_indices(schedule, x), *move) == level_indices(schedule, nxt)
    model = SimpleNamespace(cut=cut)  # exceptional_index reads only the cut
    carried = _advance_exceptional(cut, exceptional_index(model, x), move[0], nxt.edges)
    assert carried == exceptional_index(model, nxt)


@settings(deadline=None)
@given(any_schedules(), st.lists(st.integers(-1, 3), max_size=6), st.data())
def test_step_rule_on_any_schedule(schedule, cut, data):
    # the rule holds on every path with a successor, below the first bad or
    # missing stage, and for any cut, even one that makes tower(0) exceptional
    good = 0
    while good < 5:
        try:
            heights(schedule, good + 1)
        except (ValueError, DepthError):
            break
        good += 1
    depth = data.draw(st.integers(0, good))
    k = data.draw(st.integers(0, heights(schedule, depth)[depth] - 1))
    _check_step_rule(schedule, from_tower_coordinates(schedule, depth, k), tuple(cut))


@settings(deadline=None)
@given(contexts(), st.data())
def test_step_rule_on_seeded_models(case, data):
    # source and target paths of clean and mutated models, under the model's cut
    ctx, depth = case
    for schedule in (ctx.source, ctx.target):
        k = data.draw(st.integers(0, heights(schedule, depth)[depth] - 1))
        _check_step_rule(schedule, from_tower_coordinates(schedule, depth, k), ctx.cut)


@pytest.mark.parametrize("runs, witness", [
    # one slot more in the top run: H'_1 = 5, so target floor 4 has no preimage
    ((0, 3), AdicPath(ROOT_SPACER, (Edge(SPACER, 1, 2),))),
    # one slot fewer: H'_1 = 3, and source floor 3 is the taller tower's top
    ((0, 1), AdicPath(ROOT_NONSPACER, (Edge(TOWER, 2),))),
])
def test_verify_reports_a_target_of_another_height(chacon_ctx, runs, witness):
    assert chacon_ctx.target.stage(0) == Stage(2, (0, 2))
    bad = dataclasses.replace(
        chacon_ctx,
        target=ParamSchedule((Stage(2, runs),) + chacon_ctx.target.stages[1:]),
    )
    height = heights(bad.target, 1)[1]
    for report in (verify_isomorphism(bad, 1), verify_isomorphism(bad, 1, samples=2, seed=0)):
        assert report.failures[0] == IsoFailure(
            "onto", f"target H'_1 = {height} != source H_1 = 4", witness
        )
    report = verify_isomorphism(bad, 1)
    assert report.paths_tested == 4
    assert report == reference_verify(bad, 1)
    if height > 4:  # injective on the source fiber, yet not onto
        assert report.failure_counts() == {"onto": 1}


def test_verify_keeps_the_round_trip_range_check(chacon_ctx):
    # runs (1, 2) give H'_1 = 5: the image of source floor 3 sits on target
    # floor 4, which the source tower lacks, so its preimage is refused
    bad = dataclasses.replace(
        chacon_ctx,
        target=ParamSchedule((Stage(2, (1, 2)),) + chacon_ctx.target.stages[1:]),
    )
    report = verify_isomorphism(bad, 1)
    assert report.failures[-1] == IsoFailure(
        "round-trip", "floor 4 outside 0..3", AdicPath(ROOT_NONSPACER, (Edge(TOWER, 2),))
    )
    assert report.failure_counts() == {
        "onto": 1, "equivariance": 1, "floor-preservation": 3, "round-trip": 2,
    }
    assert report == reference_verify(bad, 1)


def test_verify_resolves_each_level_once_per_walk(monkeypatch):
    model = build_expansive(CHACON, 4)
    resolved = []
    original = ParamSchedule.stage

    def counted(self, n):
        resolved.append((self is model.source, n))
        return original(self, n)

    monkeypatch.setattr(ParamSchedule, "stage", counted)
    assert verify_isomorphism(model, 4).paths_tested == 9841
    assert len(resolved) < 100  # a resolution per edge would make 63,420
    # with the heights and floor tables kept, only the walk's own resolvers
    # read stages: each level of each side once
    for samples in (None, 50):
        resolved.clear()
        assert verify_isomorphism(model, 4, samples=samples, seed=3).passed
        assert sorted(resolved) == [(side, n) for side in (False, True) for n in range(4)]


def test_verify_reports_injectivity(chacon_ctx):
    # one slot fewer in the stage-0 run: two floors of tower 1 land on one image
    bad = mutated(chacon_ctx, "top_run", 0, -1)
    report = verify_isomorphism(bad, 3)
    assert report.failure_counts()["injectivity"] == 64
    assert report == reference_verify(bad, 3)


def test_failing_report_serializes_its_witnesses(chacon_ctx):
    report = verify_isomorphism(mutated(chacon_ctx, "top_run", 0, -1), 3)
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["passed"] is False
    assert doc["failure_counts"] == report.failure_counts()
    assert len(doc["failures"]) == len(report.failures)
    for got, failure in zip(doc["failures"], report.failures):
        assert (got["check"], got["detail"]) == (failure.check, failure.detail)
        assert path_from_json_dict(got["witness"]) == failure.witness


def test_verify_maps_each_floor_through_the_shared_bodies(monkeypatch):
    # the walk calls the one body of each rule; a private copy of one in
    # the walk would leave its counter short
    from rankone import isomorphism

    calls = Counter()

    def counted(module, name):
        body = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return body(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in (
        "_to_target", "_level_indices", "_from_tower_coordinates", "_validate_path",
        "_step", "_advance", "_advance_indices", "_last_exceptional",
    ):
        counted(isomorphism, name)
    assert verify_isomorphism(build_expansive(CHACON, 4), 4).paths_tested == 9841
    # an image equal to the successor of a valid image is valid, so only the
    # first floor's image is validated; J(x) and J(y) are read off the tables
    # for the first floor only, and every successor's follow from the moves.
    # N is scanned for the first floor and for each successor moved at or
    # above the last exceptional level
    assert calls == {
        "_to_target": 9841,
        "_level_indices": 2,
        "_from_tower_coordinates": 6514,
        "_step": 19681,
        "_advance": 19680,
        "_advance_indices": 19680,
        "_last_exceptional": 7840,
        "_validate_path": 1,
    }
    # no successor of a sampled floor is the next one drawn: each floor's image
    # is validated and its J read, and each successor's image is the successor
    # of that image
    calls.clear()
    report = verify_isomorphism(build_expansive(CHACON, 6), 6, samples=1000, seed=0)
    assert report.passed and report.paths_tested == 1000
    assert calls["_validate_path"] == 1000
    assert calls["_level_indices"] == 2000
    assert calls["_last_exceptional"] == 1786
