"""Acceptance suite: one test per shipped guarantee, one line per verdict.

Run as `pytest -v -s tests/test_acceptance.py` to see the lines; each
test also enforces its own runtime budget.
"""

import dataclasses
import random
import time
from fractions import Fraction
from functools import lru_cache

from conftest import CHACON, DIVERGENT, ODOMETER, seeded_levels, seeded_schedule

from rankone import (
    PROVED_CONVERGENT,
    PROVED_DIVERGENT,
    ParamSchedule,
    build_block,
    build_expansive,
    code_orbit,
    cylinder_measure_bounds,
    expansive_replace,
    from_tower_coordinates,
    heights,
    level_indices,
    minimal_path,
    period_doubling_occurrences,
    spacer_ratio_sum,
    successor,
    telescope,
    validate,
    verify_isomorphism,
)
from rankone.cli import main

SEED = 20240817
TRIALS = 50
HEIGHT_CAP = 10**5


@lru_cache(maxsize=1)
def _seeded_cases():
    rng = random.Random(SEED)
    cases = []
    for _ in range(TRIALS):
        schedule = seeded_schedule(rng, HEIGHT_CAP)
        cases.append((schedule, seeded_levels(rng, schedule)))
    return cases


def test_criterion_1_expansive_odometer_blocks(capsys):
    t0 = time.perf_counter()
    rep = build_expansive(ODOMETER, 5).target
    blocks = [build_block(rep, n) for n in range(6)]
    assert blocks[1] == "01"
    assert blocks[2] == "01010111"
    for n in range(1, 5):
        copies = 2 ** (n + 1) - 1
        run = 2 ** (n * (n + 1) // 2)
        assert blocks[n + 1] == blocks[n] * copies + "1" * run

    code = main(["expand", "--preset", "dyadic-odometer", "--stages", "2",
                 "--emit-blocks"])
    out = capsys.readouterr().out
    assert code == 0 and out == "01\n01010111\n"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 1: expansive odometer blocks (doubling copies, "
          f"triangular spacer runs) in {elapsed:.2f}s")


def test_criterion_2_telescoping_preserves_blocks():
    t0 = time.perf_counter()
    for schedule, levels in _seeded_cases():
        tele = telescope(schedule, levels)
        merged = ParamSchedule(tele.stages, tail_period=None)
        for j, m in enumerate(levels):
            assert build_block(schedule, m) == build_block(merged, j)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 2: telescoped blocks equal base blocks on "
          f"{TRIALS} seeded schedules in {elapsed:.2f}s")


def test_criterion_3_replacement_invariants():
    t0 = time.perf_counter()
    for schedule, levels in _seeded_cases():
        tele = telescope(schedule, levels)
        model = expansive_replace(tele)
        rep = model.target
        assert heights(rep, tele.num_stages) == list(tele.heights)
        for st in map(rep.stage, range(tele.num_stages)):
            assert all(x < st.a[-1] for x in st.a[:-1])
        for new, old, low in zip(rep.stages, tele.stages, tele.heights):
            assert new.spacer_sum <= 2 * old.spacer_sum + low
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 3: replacement keeps heights, dominates runs, "
          f"and respects the spacer budget on {TRIALS} seeded schedules "
          f"in {elapsed:.2f}s")


def test_criterion_4_orbit_coding_matches_blocks():
    for n in range(5):
        w = build_block(CHACON, n)
        assert code_orbit(CHACON, minimal_path(CHACON, n), len(w)).word == w

    rep = build_expansive(ODOMETER, 3).target
    for n in range(4):
        w = build_block(rep, n)
        assert code_orbit(rep, minimal_path(rep, n), len(w)).word == w

    # the successor enumerates the depth-3 fiber in floor order
    x = minimal_path(CHACON, 3)
    for k in range(40):
        assert x == from_tower_coordinates(CHACON, 3, k)
        assert level_indices(CHACON, x).at(3) == k
        x = successor(CHACON, x)
    print("PASS criterion 4: orbit codings equal blocks; the successor "
          "walks the fiber in floor order")


def test_criterion_5_isomorphism_verification():
    t0 = time.perf_counter()
    for base, fiber in ((ODOMETER, 64), (CHACON, 364)):
        ctx = build_expansive(base, 3)
        report = verify_isomorphism(ctx, 3)
        assert report.paths_tested == fiber
        assert report.passed, report.failure_counts()

    ctx = build_expansive(CHACON, 3)
    bad = dataclasses.replace(ctx, cut=(0,) + ctx.cut[1:])
    broken = verify_isomorphism(bad, 3)
    assert len(broken.failures) >= 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 5: exhaustive depth-3 verification clean on both "
          f"models, perturbed cut caught ({len(broken.failures)} failures) "
          f"in {elapsed:.2f}s")


def test_criterion_6_period_doubling_gaps():
    t0 = time.perf_counter()
    occ = period_doubling_occurrences(1 << 14, "0100")
    assert occ.count
    assert all(g % 4 == 0 for g in occ.distinct_gaps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 6: all {len(occ.distinct_gaps)} distinct gaps between the "
          f"{occ.count} 0100 occurrences in 2^14 symbols are multiples of 4 in {elapsed:.2f}s")


def test_criterion_7_cylinder_measure_bracket():
    bracket = cylinder_measure_bounds(CHACON, 1, 15)
    assert bracket.lo <= Fraction(2, 9) <= bracket.hi
    assert bracket.width < Fraction(1, 100000)
    print(f"PASS criterion 7: level-1 cylinder bracket [{bracket.lo}, "
          f"{bracket.hi}] encloses 2/9 with width {float(bracket.width):.2e}")


def test_criterion_8_ratio_sum_verdicts():
    conv = spacer_ratio_sum(CHACON, 3)
    assert conv.partial == Fraction(1, 4) + Fraction(1, 13) + Fraction(1, 40)
    assert conv.verdict == PROVED_CONVERGENT

    div = spacer_ratio_sum(DIVERGENT, 3)
    assert div.verdict == PROVED_DIVERGENT
    assert validate(DIVERGENT, 3).tail_verdict == PROVED_DIVERGENT
    print("PASS criterion 8: ratio-sum partial 183/520 proved convergent; "
          "the linear-growth schedule proved divergent")
