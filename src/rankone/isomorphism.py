"""The spacer-replacement conjugacy and its finite-depth verification.

Every function here takes an ExpansiveModel as expansive_replace builds
it.  Source paths live over its telescoped stages (Q_n, A_n),
model.source, and target paths over the replaced stages (Q'_n, A'_n),
model.target; both share the heights H_n.  The exceptional set at level
n collects the source paths sitting in stage-n spacers or in the copies
above the cut:

    x in E_n  iff  x(n) is a spacer edge, or a tower edge with i > cut_n.

With the canonical extension (tower(0) past the truncation, never
exceptional) every finite path has a well-defined last exceptional
level N(x), and the map sends x to the target path that occupies the
same floor of every tower above N(x):

  * N(x) = -1: copy the tower edges unchanged;
  * otherwise: downs below N(x); at N(x) keep a spacer edge (i, j) with
    i <= cut verbatim, and send anything above the cut into the big
    replacement run at slot J_{N+1}(x) - H_{N+1} + top_run_N;
  * copy tower edges above N(x).

Floor preservation J'_n = J_n for n > N(x) makes the map injective and
equivariant for the successor dynamics wherever both sides stay inside
the truncation.  It holds because a replaced stage keeps copies
0..cut with the source runs below the cut, so those copies start on
the same floors, and its last run ends on the top floor H_{N+1} - 1 of
both towers, so the slot above puts y on floor J_{N+1}(x).  Above N(x)
every edge is a tower edge at most the cut.  verify_isomorphism walks
the whole level-D fiber (or a seeded sample) and checks all of it
mechanically, and it compares H'_D with H_D, without which the
injective map need not be onto.

The piecewise map is therefore the floor map: for a source path x of
depth D into column 0, to_target(x) = from_tower_coordinates(target, D,
J_D(x)).  Floors are preserved above N(x), and N(x) < D, so J'_D(y) =
J_D(x).  y ends in column 0, since its top edge is a tower edge of x or
the spacer edge at N(x) = D - 1.  And J_D is a bijection from the
target paths into column 0 onto 0..H'_D - 1, which
from_tower_coordinates inverts.

The walk computes one record per floor k: the path x, N(x), its floor
coding J(x), the image y and J(y).  The equivariance check maps the
successor of x, and that record is used for floor k when its J_D is k.
The successor enters the same column-0 vertex as x, the J carried to
it equals the J read off its path (see below), and J_D is a bijection from the
paths into that vertex onto 0..H_D - 1, so the record holds the path
from_tower_coordinates would build for k.  That inverse builds only the first floor, a floor
after a successor left unmapped (it overflowed on either side), and a
sampled floor that does not follow the last one.  Every image the map
returns is a valid path ending in column 0, and on those paths J_D is a
bijection onto 0..H'_D - 1; two images are therefore equal exactly when
their J_D(y) are, and injectivity is checked on these integers.

The walk reads each level once: both sides resolve their stages through
a memoized resolver and read their floor tables once per call, and each
floor is mapped through the private bodies of the path functions in
``diagram``, which take what they read.  The round trip keeps the
range check of the floor inverse.  ``_to_target`` takes the model's cut, top runs and
heights, which the walk binds once (``heights`` is a property that reads
through the telescoped schedule), and the round trip's source prefix is
built straight onto the image's upper edges.  Those bodies, and the
walk's own record ``_Floor``, build their NamedTuples with
``tuple.__new__`` as ``diagram`` explains: each floor makes about a dozen
of them, and the generated constructor is a Python-level call.  The
walk holds no copy of those bodies, since a copy would be a second code
path for its rule; a test counts the walk's calls into them.

An image is validated unless it equals the target successor of an image
already valid, which the equivariance check computes anyway.  The
successor of a valid path is valid: ``_step`` moves only to an edge the
stage has, and refills the levels below with down edges under a spacer
edge and with tower(0) under a tower edge.  Every target stage below the
depth was resolved by the heights read before the walk, so each has a
tower(0).  This is the argument by which x, built from a floor or as a
successor, is taken as valid.  So on a model that passes, the walk
validates the first floor's image, the image after an overflow, and the
image of a sampled floor no successor reached.  An image that differs
from the successor it is compared with is validated too, so a mapping
error keeps its text and its place among the failures.

A successor's record is carried through the step that builds it, not
read off its path.  Floors that from_tower_coordinates builds read J(x)
and J(y) off the tables and N(x) by a scan of every level.  For the
successor x' made by the move (pos, new) of ``_step``, J(x') follows
from J(x) and the move (``_advance_indices``, proved in ``diagram``).
The move keeps every edge above pos, so N(x') = N(x) when N(x) > pos,
and otherwise N(x') is the last exceptional level at or below pos,
scanned from pos down; neither case assumes anything of the cut.  J of
the image is carried from J(y) and the target move only when the image
equals step_y, whose validation is skipped on the same condition, and
the equivariance check only asks whether the record kept that J object;
any other image is read off its path, so every failure keeps its text
and its place.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .diagram import (
    AdicPath,
    Edge,
    LevelIndices,
    ROOT_NONSPACER,
    ROOT_SPACER,
    SPACER,
    TOWER,
    _DOWN,
    _advance,
    _advance_indices,
    _from_tower_coordinates,
    _level_indices,
    _new,
    _step,
    _validate_path,
    from_tower_coordinates,
    level_indices,
    path_to_json_dict,
    validate_path,
)
from .schedules import (
    VERIFY_WALK_BUDGET,
    ParamSchedule,
    _check_budget,
    _exact_sum,
    _floor_tables,
    _heights_at,
    heights,
)
from .telescoping import ExpansiveModel, _checked_levels


def exceptional_index(model: ExpansiveModel, path: AdicPath) -> int:
    """N(x): the last level whose edge is a spacer edge or a copy above the cut, or -1."""
    return _last_exceptional(model.cut, path.edges, len(path.edges))


def _last_exceptional(cut: tuple[int, ...], edges: tuple[Edge, ...], top: int) -> int:
    """The last exceptional level below top, scanning top - 1 down to 0, or -1."""
    for n in range(min(top, len(cut)) - 1, -1, -1):
        kind, i, _ = edges[n]
        if kind == SPACER or (kind == TOWER and i > cut[n]):
            return n
    return -1


def _advance_exceptional(
    cut: tuple[int, ...], n_exc: int, pos: int, edges: tuple[Edge, ...]
) -> int:
    """N of the successor with these edges, made by a ``_step`` move at
    level pos from a path with N = n_exc: the move keeps every edge above
    pos, so only a path with no exceptional level above pos is scanned,
    from pos down."""
    return n_exc if n_exc > pos else _last_exceptional(cut, edges, pos + 1)


def to_target(model: ExpansiveModel, x: AdicPath) -> AdicPath:
    """Map a source path to the target path on the same tower floors."""
    if x.depth > model.num_stages:
        raise ValueError(f"path depth {x.depth} exceeds the {model.num_stages} stages")
    jx = level_indices(model.source, x)
    y = _to_target(model.cut, model.top_run, model.heights, x, exceptional_index(model, x), jx)
    validate_path(model.target, y)
    return y


def _to_target(
    cut: tuple[int, ...], top_run: tuple[int, ...], hs: tuple[int, ...],
    x: AdicPath, n_exc: int, jx: LevelIndices,
) -> AdicPath:
    """to_target given the model's cut, top_run and heights, N(x) and J(x);
    the image is not validated."""
    edges = x.edges
    if n_exc == -1:
        return _new(AdicPath, (ROOT_NONSPACER, edges))
    e = edges[n_exc]
    if e.kind != SPACER or e.i > cut[n_exc]:
        slot = jx.at(n_exc + 1) - hs[n_exc + 1] + top_run[n_exc]
        e = _new(Edge, (SPACER, cut[n_exc], slot))
    return _new(AdicPath, (ROOT_SPACER, (_DOWN,) * n_exc + (e,) + edges[n_exc + 1:]))


def to_source(model: ExpansiveModel, y: AdicPath) -> AdicPath:
    """Inverse map: recover the source path on the same tower floors."""
    if y.depth > model.num_stages:
        raise ValueError(f"path depth {y.depth} exceeds the {model.num_stages} stages")
    jy = level_indices(model.target, y)
    x = _to_source(*_floor_tables(model.source, jy.start), y, jy)
    validate_path(model.source, x)
    return x


def _to_source(
    hs: list[int], table: list[tuple[int, ...]], y: AdicPath, jy: LevelIndices
) -> AdicPath:
    """to_source of a valid target path given J(y), read off source floor
    tables that cover level jy.start; the result is not validated.

    A path entering through a spacer edge at level m keeps its edges
    above m and takes the source prefix on floor J_{m+1}(y), which
    raises ValueError when the source tower m+1 has no such floor.
    """
    if y.root == ROOT_NONSPACER:
        return y  # a path of tower edges is its own preimage
    return _from_tower_coordinates(hs, table, jy.start, jy.values[0], y.edges[jy.start:])


class _Floor(NamedTuple):
    """One source path of a verify walk with everything computed from it.

    y and jy are None when the map fails on x; error then holds why.
    """

    x: AdicPath
    n_exc: int                  # N(x)
    jx: LevelIndices            # J(x)
    y: AdicPath | None          # the image
    jy: LevelIndices | None     # J(y)
    error: str | None


@dataclass(frozen=True)
class IsoFailure:
    check: str
    detail: str
    witness: AdicPath


@dataclass(frozen=True)
class IsoReport:
    """Outcome of a finite-depth isomorphism check.

    exceptional_mass_terms[n] bounds the mass of E_n from above by
    (sum A_n + max A_n + H_n) / H_{n+1}; their sum converging is the
    evidence that the exceptional sets are asymptotically negligible.
    """

    depth: int
    paths_tested: int
    failures: tuple[IsoFailure, ...]
    exclusions: tuple[tuple[str, int], ...]
    exceptional_mass_terms: tuple[Fraction, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def exceptional_mass_partial_sum(self) -> Fraction:
        return _exact_sum(self.exceptional_mass_terms)

    def failure_counts(self) -> dict[str, int]:
        counts: Counter[str] = Counter(f.check for f in self.failures)
        return dict(counts)

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "paths_tested": self.paths_tested,
            "passed": self.passed,
            "failure_counts": self.failure_counts(),
            "failures": [
                {
                    "check": f.check,
                    "detail": f.detail,
                    "witness": path_to_json_dict(f.witness),
                }
                for f in self.failures
            ],
            "exclusions": dict(self.exclusions),
            "exceptional_mass_terms": [str(t) for t in self.exceptional_mass_terms],
            "exceptional_mass_partial_sum": str(self.exceptional_mass_partial_sum),
        }


# what a refused verify walk suggests instead
_SAMPLES_HINT = f"; pass --samples K with K <= {VERIFY_WALK_BUDGET}"


def _precheck_walk(schedule: ParamSchedule, levels, depth: int, samples: int | None) -> None:
    """Refuse a verify walk of more than VERIFY_WALK_BUDGET floors before
    the model it walks is built, as far as its size is known by then.

    On greedy levels every growth base is at least 2, so H_D >= 2^e with
    e = D(D+1)/2: without a sample the walk is refused by comparing
    exponents, since 2^e cannot be built at every depth, and a sample of
    K < 2^e floors walks K.  A spec's levels must first pass telescope's
    list checks, and a depth past their windows is refused as
    ``verify_isomorphism`` refuses it.  Then, unless a sample of K <= 2^20
    floors fits anyway, H_D = h_{m_D} is read and the walk is H_D floors,
    or min(K, H_D); the height walk keeps what it read for the build, and
    on a closed tail H_D is read in closed form.
    """
    if levels is None:
        e = depth * (depth + 1) // 2
        if samples is None:
            _check_budget(f"verify --depth {depth}", e, "floors", VERIFY_WALK_BUDGET,
                          bound="at least 2^", power=True, hint=_SAMPLES_HINT)
        elif samples.bit_length() <= e:  # K < 2^e <= H_D, so the walk is K floors
            _check_budget("verify", samples, "floors", VERIFY_WALK_BUDGET, hint=_SAMPLES_HINT)
    else:
        levels = _checked_levels(levels)
        if depth >= len(levels):
            raise ValueError(f"depth {depth} exceeds the {len(levels) - 1} stages")
        if samples is None or samples > VERIFY_WALK_BUDGET:
            fiber = _heights_at(schedule, [levels[depth]])[0]
            walked = min(fiber, samples or fiber)
            _check_budget("verify", walked, "floors", VERIFY_WALK_BUDGET, hint=_SAMPLES_HINT)


def verify_isomorphism(
    model: ExpansiveModel,
    depth: int,
    samples: int | None = None,
    seed: int | None = None,
) -> IsoReport:
    """Check the map on the level-`depth` fiber of the source diagram.

    Exhaustive when samples is None or at least the fiber size H_D.
    Otherwise a seeded sample: rng.randrange(H_D) is drawn until `samples`
    distinct floors are found, which are walked in order.  These are the
    draws random.sample makes on a large population, and H_D may pass
    sys.maxsize.  A depth past the model's or the target's stages is
    refused with ValueError, and a walk of more than VERIFY_WALK_BUDGET
    = 2^20 floors (H_D, or min(samples, H_D) for a sample) with
    BudgetError, before anything is mapped.  The target fiber must have
    as many floors as the source fiber, or the injective map is not onto;
    the witness of a mismatch is the top floor of the taller tower.  Per path:
    floors must agree above the last exceptional level, the round trip
    must return the path, images must not collide (compared by J_D), and
    taking successors must commute with the map.
    The image's spacer level is N(x) by construction, so it is not
    checked.  Each path is built and mapped once: the successor mapped
    for the equivariance check is the next floor's record when its J_D
    is that floor, since J_D is one-to-one on the fiber.  An image is
    validated against the target unless it equals the target successor
    of the image before it: the successor of a valid path is valid.  So
    an exhaustive walk that passes validates one image.  A successor's
    N and J, and J of its image when that image is the successor of the
    image before, are carried through the successor step, not read off
    the path.  The only
    skips are truncation overflows (the top floor has no successor
    inside the diagram); they are counted under exclusions.  Mapping
    errors are recorded as failures, never raised.
    """
    if depth > model.num_stages:
        raise ValueError(f"depth {depth} exceeds the {model.num_stages} stages")
    resolved = len(model.target.stages)
    if depth > resolved and model.target.tail_period is None:
        raise ValueError(f"depth {depth} exceeds the target's {resolved} stages")
    if samples is not None and samples < 0:
        raise ValueError(f"samples {samples} < 0")
    fiber = heights(model.source, depth)[depth]
    walked = fiber if samples is None else min(samples, fiber)
    _check_budget("verify", walked, "floors", VERIFY_WALK_BUDGET, hint=_SAMPLES_HINT)
    floors = range(fiber)
    if walked < fiber:
        rng = random.Random(seed)
        drawn: set[int] = set()
        while len(drawn) < walked:
            drawn.add(rng.randrange(fiber))
        floors = sorted(drawn)
    failures: list[IsoFailure] = []
    image_fiber = heights(model.target, depth)[depth]
    if image_fiber != fiber:
        # the walk covers only the source fiber; a taller target leaves floors unhit
        taller = model.target if image_fiber > fiber else model.source
        failures.append(
            IsoFailure(
                "onto",
                f"target H'_{depth} = {image_fiber} != source H_{depth} = {fiber}",
                from_tower_coordinates(taller, depth, max(fiber, image_fiber) - 1),
            )
        )
    # both sides resolve their stages below depth and read their floor
    # tables once per walk; the heights above already read those levels
    source_stage, target_stage = cache(model.source.stage), cache(model.target.stage)
    shs, stable = _floor_tables(model.source, depth)
    ths, ttable = _floor_tables(model.target, depth)
    cut, top_run, hs = model.cut, model.top_run, model.heights

    def floor(
        x: AdicPath, n_exc: int, jx: LevelIndices,
        step_y: AdicPath | None = None, step_jy: LevelIndices | None = None,
    ) -> _Floor:
        """Map a valid source path with N(x) and J(x) through the target.
        An image equal to step_y, the successor of a valid target path, is
        valid and keeps jy = step_jy itself (see the module docstring); any
        other image is validated and gets a new J read off the tables."""
        try:
            y = _to_target(cut, top_run, hs, x, n_exc, jx)
            if y == step_y:
                jy = step_jy
            else:
                _validate_path(target_stage, y)
                jy = _level_indices(ths, ttable, y)
        except ValueError as exc:
            return _new(_Floor, (x, n_exc, jx, None, None, str(exc)))
        return _new(_Floor, (x, n_exc, jx, y, jy, None))

    exclusions: Counter[str] = Counter()
    seen: set[int] = set()  # J_D of every image so far
    ahead: _Floor | None = None  # the last successor's record
    for k in floors:
        # J_D is one-to-one on the fiber, so a successor on floor k is its path
        if ahead is not None and ahead.jx.values[-1] == k:
            rec = ahead
        else:
            x = _from_tower_coordinates(shs, stable, depth, k)
            rec = floor(x, exceptional_index(model, x), _level_indices(shs, stable, x))
        ahead = None
        x, n_exc, jx, y, jy, error = rec
        if y is None:
            failures.append(IsoFailure("mapping-error", error, x))
            continue

        lo = max(jx.start, jy.start, n_exc + 1)
        if jx.values[lo - jx.start:] != jy.values[lo - jy.start:]:
            n = next(n for n in range(lo, depth + 1) if jx.at(n) != jy.at(n))
            failures.append(
                IsoFailure(
                    "floor-preservation",
                    f"J_{n}: source {jx.at(n)} != target {jy.at(n)}",
                    x,
                )
            )

        # y carries the tower edges of x above its spacer level, so the
        # preimage needs no validation; a floor J_{N+1}(y) that the source
        # lacks raises ValueError
        try:
            if _to_source(shs, stable, y, jy) != x:
                failures.append(
                    IsoFailure("round-trip", "inverse image differs from the path", x)
                )
        except ValueError as exc:
            failures.append(IsoFailure("round-trip", str(exc), x))

        if jy.values[-1] in seen:
            failures.append(
                IsoFailure("injectivity", "two paths share this image", x)
            )
        seen.add(jy.values[-1])

        move_x = _step(source_stage, x.edges)
        if move_x is None:
            exclusions["successor-overflow"] += 1
            continue
        move_y = _step(target_stage, y.edges)
        if move_y is None:
            failures.append(
                IsoFailure(
                    "equivariance",
                    "image overflowed although the source did not",
                    x,
                )
            )
            continue
        # the successors' records follow from the moves (see the module docstring)
        pos, new = move_x
        step_x = _advance(x.edges, pos, new)
        n_next = _advance_exceptional(cut, n_exc, pos, step_x.edges)
        jx_next = _advance_indices(jx, pos, new)
        pos, new = move_y
        step_jy = _advance_indices(jy, pos, new)
        ahead = floor(step_x, n_next, jx_next, _advance(y.edges, pos, new), step_jy)
        if ahead.y is None:
            failures.append(IsoFailure("equivariance", ahead.error, x))
        elif ahead.jy is not step_jy:  # the image is not the successor of y
            failures.append(
                IsoFailure(
                    "equivariance",
                    "successor of image differs from image of successor",
                    x,
                )
            )

    terms = []
    for n in range(min(depth, model.num_stages)):
        st = source_stage(n)
        terms.append(
            Fraction(st.spacer_sum + max(st.a) + model.heights[n], model.heights[n + 1])
        )
    return IsoReport(
        depth=depth,
        paths_tested=len(floors),
        failures=tuple(failures),
        exclusions=tuple(sorted(exclusions.items())),
        exceptional_mass_terms=tuple(terms),
    )
