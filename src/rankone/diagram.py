"""Two-column ordered Bratteli diagrams and their Vershik dynamics.

The diagram of a parameter schedule has a root and, per level n >= 0, a
column-0 vertex (the tower) and a column-1 vertex (the spacer
reservoir).  Edges into the column-0 vertex at level n+1, in order:

    tower(0) < spacer(0,0) < ... < spacer(0, a[n][0]-1) < tower(1) < ...

tower(i) leaves the column-0 vertex at level n, spacer(i,j) leaves the
column-1 vertex, and a single down edge joins consecutive column-1
vertices.  The root sends one edge to each level-0 vertex ("nonspacer"
into column 0, "spacer" into column 1).

Paths here are finite, with edges at levels 0..depth-1, and carry the
canonical extension convention: tower(0) at every level past their
depth.  tower(0) never belongs to an exceptional set at deeper levels,
so quantities like the last exceptional level are computable from the
truncation alone.

The number of root-to-column-0 paths at level n equals the tower height
h_n, and the dimension-weighted rank of such a path in the incoming
order is exactly its level index J_n: the floor of the tower the path
codes.  The successor map (replace the lowest non-maximal edge by the
next edge into the same vertex, refill minimally below) therefore steps
J_n by one, and walking the whole fiber enumerates floors 0..h_n - 1 in
lexicographic order.  Moves that fall off the truncation are returned
as Overflow values, not raised.

Each path operation has one body, a private helper that takes what it
reads: a stage resolver stage(n), or the floor tables (hs, table) that
``_floor_tables`` keeps on the schedule.  The public functions pass
``schedule.stage`` and the schedule's tables, so they resolve level by
level and raise at the first level that fails; each that takes a path
validates it first.  Walks read each level once per call: ``code_orbit`` validates
and steps through a memoized resolver, and ``verify_isomorphism`` (in
``isomorphism``) steps through one and reads both tables once.

The successor rule itself has one body, ``_step``, which names the level
pos that advances and its new edge.  ``_advance`` builds the next path
from that move (``successor`` and the verify walk); ``code_orbit``
applies it in place to one list of edges.  ``_advance_indices`` gives the
next path's J from the path's J and the same move:

    J_n(x') = J_n(x) + 1 for n > pos; below that, J_0..J_pos = 0 when
    the new edge is a tower edge, and J starts at pos + 1 when it is a
    spacer edge.

Proof, for a valid path x with a move.  Copy i of tower m and then its
spacer run fill the floors from s[i] to s[i + 1] - 1 of tower m + 1,
where s = s_m are the copy starts, s[i + 1] = s[i] + h_m + a_m[i] and
s[q] = h_{m+1}, so a tower edge i at level m adds s[i] and a spacer edge
(i, j) enters floor s[i] + h_m + j.  ``_step`` passes only edges that
cannot advance: down edges, and the last edge into their vertex, either
tower(q - 1) with a[q - 1] = 0, which lifts the top floor h_m - 1 to the
top floor h_{m+1} - 1, or spacer(q - 1, a[q - 1] - 1), which enters that
top floor.  As J_0 = 0 = h_0 - 1, a tower edge at pos sits on J_pos(x) =
h_pos - 1, and a spacer edge (i, j) at pos enters s[i] + h + j, where
h = h_pos.  The move
then enters the next floor of tower pos + 1: tower(i) to spacer(i, 0)
goes from s[i] + h - 1 to s[i] + h, tower(i) to tower(i + 1) (a[i] = 0)
to s[i + 1] + 0 = s[i] + h, spacer(i, j) to spacer(i, j + 1) adds one,
and spacer(i, a[i] - 1) to tower(i + 1) goes to s[i + 1] + 0.  Above pos
the edges are kept, and each J_{n+1} - J_n is read off the edge at level
n alone, so the one is carried to every n > pos.  Below pos, x' has
tower(0) edges (s[0] = 0) under a tower edge and down edges under a
spacer edge, which enters tower pos + 1.

The minimal path's orbit codes the block B_depth, so
``code_minimal_orbit`` reads that word off the block recursion instead
of stepping it.

These bodies run once or twice per floor of a verify walk, so they build
their records with ``tuple.__new__`` (``_new``) rather than through the
Python-level ``__new__`` that NamedTuple generates.  The instances are the
same, with every field written out, since ``tuple.__new__`` skips the
defaults.  On chacon's depth-4 walk the generated constructor took about
a tenth of the time.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import prod
from typing import NamedTuple

from .blocks import _block_prefix
from .schedules import (
    DEFAULT_SYMBOL_BUDGET,
    ParamSchedule,
    Stage,
    _check_budget,
    _floor_tables,
    _folded_stages,
    _heights_at,
    _json_array,
    _json_int,
    _json_object,
    _stages,
    tail_mass_bound,
)

TOWER = "tower"
SPACER = "spacer"
DOWN = "down"
ROOT_NONSPACER = "nonspacer"
ROOT_SPACER = "spacer"


class PathError(ValueError):
    """A path is malformed or incompatible with the schedule."""


class Edge(NamedTuple):
    kind: str
    i: int = 0
    j: int = 0


# the edges that successor's refills and the path builders repeat
_DOWN = Edge(DOWN)
_TOWER_0 = Edge(TOWER, 0)

# builds a NamedTuple from all its fields in C, without the generated __new__
_new = tuple.__new__


@dataclass(frozen=True)
class Overflow:
    """The finite truncation cannot represent the requested move."""

    depth: int


class AdicPath(NamedTuple):
    """A finite path from the root: a root edge plus edges at levels 0..depth-1."""

    root: str
    edges: tuple[Edge, ...]

    @property
    def depth(self) -> int:
        return len(self.edges)


def validate_path(schedule: ParamSchedule, path: AdicPath) -> None:
    """Check vertex compatibility and index bounds; raises PathError."""
    _validate_path(schedule.stage, path)


def _validate_path(stage: Callable[[int], Stage], path: AdicPath) -> None:
    """validate_path resolving stage n through stage(n) as it reaches level n."""
    if path.root not in (ROOT_NONSPACER, ROOT_SPACER):
        raise PathError(f"unknown root edge {path.root!r}")
    column = 0 if path.root == ROOT_NONSPACER else 1
    for n, e in enumerate(path.edges):
        st = stage(n)
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
    # paths may end in either column; depth-0 paths are a bare root edge


def minimal_path(schedule: ParamSchedule, depth: int) -> AdicPath:
    """The least path of the given depth ending in column 0; the depth rule,
    then the first bad or missing stage below depth, is refused first."""
    _check_stages(schedule, depth)
    return AdicPath(ROOT_NONSPACER, (_TOWER_0,) * depth)


def _check_stages(schedule: ParamSchedule, depth: int) -> None:
    """Refuse the depth rule of ``_stages``, then the first bad or missing
    stage of levels 0..depth-1, as a walk through them would.

    At most prefix_len + 1 levels are read: past a periodic prefix every
    level repeats an explicit stage already read at its own index, and a
    bare prefix has no stage at level prefix_len.
    """
    _stages(schedule, depth, depth)
    for _ in _stages(schedule, 0, min(depth, schedule.prefix_len + 1)):
        pass


def successor(schedule: ParamSchedule, path: AdicPath) -> AdicPath | Overflow:
    """Vershik successor within the truncation, or Overflow; raises what
    validate_path raises."""
    validate_path(schedule, path)
    return _successor(schedule.stage, path)


def _successor(stage: Callable[[int], Stage], path: AdicPath) -> AdicPath | Overflow:
    """successor of a valid path, resolving stage n through stage(n) only
    where it tries an edge."""
    step = _step(stage, path.edges)
    if step is None:
        return Overflow(len(path.edges))
    pos, new = step
    return _advance(path.edges, pos, new)


def _step(stage: Callable[[int], Stage], edges: Sequence[Edge]) -> tuple[int, Edge] | None:
    """The successor's move on a path's edges: (pos, new) when the lowest
    edge that can advance sits at level pos and becomes new, else None.

    The successor replaces that edge and refills the levels below pos
    minimally: with down edges under a spacer edge (the path then enters
    through the spacer root) and with tower(0) under a tower edge.
    """
    for pos, (kind, i, j) in enumerate(edges):
        if kind == DOWN:
            continue  # the sole edge into its vertex, nothing to increment
        st = stage(pos)
        j = 0 if kind == TOWER else j + 1
        if j < st.a[i]:
            return pos, _new(Edge, (SPACER, i, j))
        if i + 1 < st.q:
            return pos, _new(Edge, (TOWER, i + 1, 0))
    return None


def _advance(edges: tuple[Edge, ...], pos: int, new: Edge) -> AdicPath:
    """The successor that the move (pos, new) of ``_step`` makes of edges."""
    if new.kind == SPACER:
        return _new(AdicPath, (ROOT_SPACER, (_DOWN,) * pos + (new,) + edges[pos + 1:]))
    return _new(AdicPath, (ROOT_NONSPACER, (_TOWER_0,) * pos + (new,) + edges[pos + 1:]))


def _advance_indices(j: LevelIndices, pos: int, new: Edge) -> LevelIndices:
    """J of the successor ``_advance`` builds, from J of the valid path it
    advances and the same move: each J_n with n > pos plus one, below that
    zeros under a tower edge and no values under a spacer edge, whose
    range starts at pos + 1 (see the module docstring)."""
    start, values = j
    above = tuple([v + 1 for v in values[pos + 1 - start:]])
    if new.kind == SPACER:
        return _new(LevelIndices, (pos + 1, above))
    return _new(LevelIndices, (0, (0,) * (pos + 1) + above))


class LevelIndices(NamedTuple):
    """Tower floor numbers J_n for n = start..depth.

    start is the first level at which the path sits inside the tower:
    0 for paths rooted in column 0, spacer-level + 1 for paths that
    enter through the spacer reservoir.
    """

    start: int
    values: tuple[int, ...]

    def at(self, n: int) -> int:
        if not self.start <= n < self.start + len(self.values):
            raise ValueError(f"J_{n} not defined; range is {self.start}..{self.start + len(self.values) - 1}")
        return self.values[n - self.start]


def level_indices(schedule: ParamSchedule, path: AdicPath) -> LevelIndices:
    """Floor numbers of the path in each tower it crosses.

    A path through the level-n column-0 vertex codes floor J_n of the
    n-th tower: J_0 = 0, a spacer edge (i, j) at level m enters floor
    starts[i] + h_m + j of tower m+1, and a tower edge i at level n lifts
    J_n by starts[i], where starts are the copy starts of the level table.
    Raises what validate_path raises, and PathError for a path that stays
    in the spacer column.
    """
    validate_path(schedule, path)
    return _level_indices(*_floor_tables(schedule, len(path.edges)), path)


def _level_indices(hs: list[int], table: list[tuple[int, ...]], path: AdicPath) -> LevelIndices:
    """level_indices of a path that validate_path accepts, read off floor
    tables (as ``_floor_tables`` gives them) that cover its depth."""
    root, edges = path
    start, j = 0, 0
    if root == ROOT_SPACER:
        for m, (kind, i, slot) in enumerate(edges):
            if kind != DOWN:
                break
        else:
            raise PathError("path stays in the spacer column; no tower coordinates")
        start, j = m + 1, table[m][i] + hs[m] + slot
    vals = [j]
    for n in range(start, len(edges)):
        j += table[n][edges[n].i]
        vals.append(j)
    return _new(LevelIndices, (start, tuple(vals)))


def from_tower_coordinates(schedule: ParamSchedule, n: int, k: int) -> AdicPath:
    """The unique depth-n path through the column-0 vertex with J_n = k.

    Inverts level_indices by greedy digit extraction: at each level the
    floor number selects either a sub-tower copy (continue downward) or
    a spacer slot (the path enters from the reservoir below).  The copy
    is found by bisection on the copy starts, O(log q) per level.
    """
    return _from_tower_coordinates(*_floor_tables(schedule, n), n, k)


def _from_tower_coordinates(
    hs: list[int], table: list[tuple[int, ...]], n: int, k: int, above: Sequence[Edge] = ()
) -> AdicPath:
    """from_tower_coordinates read off floor tables that cover depth n,
    with the edges `above` appended at levels n and up; a floor outside
    0..h_n - 1 is refused with ValueError."""
    if not 0 <= k < hs[n]:
        raise ValueError(f"floor {k} outside 0..{hs[n] - 1}")
    edges: list[Edge] = [_DOWN] * n
    edges += above
    pos = k
    for level in range(n - 1, -1, -1):
        # copy i of tower `level`, then its spacer run, fills the floors
        # from starts[i] up to starts[i + 1]; pos < starts[q] = h_{level+1}
        starts = table[level]
        i = bisect_right(starts, pos) - 1
        pos -= starts[i]
        if pos >= hs[level]:
            edges[level] = _new(Edge, (SPACER, i, pos - hs[level]))
            return _new(AdicPath, (ROOT_SPACER, tuple(edges)))
        edges[level] = _new(Edge, (TOWER, i, 0))
    assert pos == 0
    return _new(AdicPath, (ROOT_NONSPACER, tuple(edges)))


@dataclass(frozen=True)
class OrbitCoding:
    word: str
    overflow: Overflow | None


def code_orbit(schedule: ParamSchedule, path: AdicPath, steps: int) -> OrbitCoding:
    """Code `steps` symbols along the successor orbit, one step per symbol.

    Symbol rule: 1 when the current path enters through the spacer
    reservoir (root edge into column 1), else 0.  Stops early with the
    partial word when the orbit overflows the truncation.  The path is
    validated first, raising what validate_path raises, and `steps` is
    checked against the symbol budget before the first step.  The orbit
    is kept as a root flag and a list of edges that each ``_step`` move
    changes in place, so no path is built per symbol.

    The step-by-step Vershik walk, from any path.  The CLI has no caller:
    ``vershik`` codes the minimal path's orbit by ``code_minimal_orbit``,
    and this walk, which shares no code with the block recursion, is the
    oracle the tests hold that word against.
    """
    stage = cache(schedule.stage)  # each level resolved once, by the validation
    _validate_path(stage, path)
    _check_steps(steps)
    out = []
    spacer, edges = path.root == ROOT_SPACER, list(path.edges)
    for s in range(steps):
        out.append("1" if spacer else "0")
        if s + 1 < steps:
            step = _step(stage, edges)
            if step is None:
                return OrbitCoding("".join(out), Overflow(len(edges)))
            pos, new = step
            spacer = new.kind == SPACER
            if pos:
                edges[:pos] = (_DOWN if spacer else _TOWER_0,) * pos
            edges[pos] = new
    return OrbitCoding("".join(out), None)


def _check_steps(steps: int) -> None:
    """Refuse a negative orbit length, then one over the symbol budget."""
    if steps < 0:
        raise ValueError(f"steps {steps} < 0")
    _check_budget("orbit coding", steps, "symbols", DEFAULT_SYMBOL_BUDGET)


def code_minimal_orbit(schedule: ParamSchedule, depth: int, steps: int) -> OrbitCoding:
    """``code_orbit(schedule, minimal_path(schedule, depth), steps)``, read off
    the block recursion: the word is B_depth[:steps].

    The orbit of the minimal path visits floors 0..h_depth - 1 of tower
    depth in order, and floor k is a spacer floor exactly when B_depth[k]
    is 1; the maximal path has no successor in the truncation.  So the
    orbit overflows depth exactly when h_depth < steps, after the whole
    block.  The refusals are code_orbit's, in its order: minimal_path's,
    then a negative steps, then steps over the symbol budget.  No level
    past the first whose block has steps symbols is built.
    """
    _check_stages(schedule, depth)
    _check_steps(steps)
    word = _block_prefix(_folded_stages(schedule, 0, depth), steps)
    return OrbitCoding(word, None if len(word) == steps else Overflow(depth))


@dataclass(frozen=True)
class MeasureBracket:
    lo: Fraction
    hi: Fraction
    tail_bounded: bool  # False: no tail information, lo pinned to 0

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def cylinder_measure_bounds(
    schedule: ParamSchedule, n: int, depth: int
) -> MeasureBracket:
    """Bracket the mass of the minimal level-n cylinder (the n-tower base).

    The base cylinder splits into prod_{k=n..depth-1} q_k cylinders at
    level `depth`, each of mass at most 1/h_depth, giving hi.  For
    periodic tails the spacer mass not yet swallowed by the towers is at
    most the tail ratio bound, giving lo = hi * (1 - bound).  On a tail
    whose q product is 1, h_depth and the copies past c are read in closed
    form (``_heights_at``, ``_folded_stages``).
    """
    if not 0 <= n <= depth:
        raise ValueError(f"need 0 <= n <= depth, got n={n}, depth={depth}")
    h = _heights_at(schedule, [depth])[0]
    copies = prod(st.q for st in _folded_stages(schedule, n, depth))
    hi = Fraction(copies, h)
    bound = tail_mass_bound(schedule, depth)
    if bound is None:
        return MeasureBracket(Fraction(0), hi, False)
    lo = max(Fraction(0), hi * (1 - bound))
    return MeasureBracket(lo, hi, True)


def export_dot(schedule: ParamSchedule, depth: int) -> str:
    """Deterministic DOT rendering of the first `depth` levels.

    Edge labels give the order into the next column-0 vertex, 1-based;
    spacer edges are dashed, down edges bold.  The text's length is
    counted exactly before any line is built: the fixed lines and the
    depth + 1 rank lines from the flag alone, then level by level the
    q + sum(a) + 1 edge lines of each stage, each line's fixed characters
    plus the digits of its level numbers and its rank.  The first count
    over DEFAULT_SYMBOL_BUDGET characters is refused with BudgetError.
    """
    what = f"dot of depth {depth}"
    # 145 characters of header, root-edge and closing lines, then depth + 1 rank
    # lines of 31 fixed characters, each naming its level twice
    size = 145 + 31 * (depth + 1) + 2 * (1 + _digits_through(depth))
    _check_budget(what, size, "characters", DEFAULT_SYMBOL_BUDGET, 0, bound="at least ")
    stages = []
    for lvl, st in enumerate(_stages(schedule, 0, depth)):
        stages.append(st)
        # q tower lines (29 fixed characters) and sum(a) spacer lines (43)
        # ranked 1..q + sum(a), and the down line (42), each naming lvl and lvl + 1
        ranks = st.q + st.spacer_sum
        size += 29 * st.q + 43 * st.spacer_sum + 42 + _digits_through(ranks)
        size += (ranks + 1) * (len(str(lvl)) + len(str(lvl + 1)))
        _check_budget(what, size, "characters", DEFAULT_SYMBOL_BUDGET, lvl + 1, bound="at least ")
    lines = [
        "digraph bratteli {",
        "  rankdir=TB;",
        "  node [shape=circle, fontsize=10];",
        '  "root";',
    ]
    for lvl in range(depth + 1):
        lines.append(f'  {{ rank=same; "v{lvl}_0"; "v{lvl}_1"; }}')
    lines.append('  "root" -> "v0_0" [label="1"];')
    lines.append('  "root" -> "v0_1" [label="1"];')
    for lvl, st in enumerate(stages):
        rank = 1
        for i in range(st.q):
            lines.append(f'  "v{lvl}_0" -> "v{lvl + 1}_0" [label="{rank}"];')
            rank += 1
            for _ in range(st.a[i]):
                lines.append(
                    f'  "v{lvl}_1" -> "v{lvl + 1}_0" [label="{rank}", style=dashed];'
                )
                rank += 1
        lines.append(f'  "v{lvl}_1" -> "v{lvl + 1}_1" [label="1", style=bold];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _digits_through(m: int) -> int:
    """How many decimal digits 1, 2, ..., m take together; 0 for m < 1."""
    total, power = 0, 1
    while power <= m:
        total += m - power + 1  # the numbers up to m with more digits than power - 1
        power *= 10
    return total


# the index fields each edge kind carries in path JSON, besides "level" and "kind"
_EDGE_INDICES = {TOWER: ("i",), SPACER: ("i", "j"), DOWN: ()}


def path_to_json_dict(path: AdicPath) -> dict:
    edges = []
    for n, e in enumerate(path.edges):
        if not isinstance(e.kind, str) or e.kind not in _EDGE_INDICES:
            raise PathError(f"unknown edge kind {e.kind!r}")
        fields = {key: getattr(e, key) for key in _EDGE_INDICES[e.kind]}
        edges.append({"level": n, "kind": e.kind, **fields})
    return {"root": path.root, "edges": edges}


def path_from_json_dict(doc) -> AdicPath:
    """Strict parse of the path JSON form; an edge's "level" may be left out."""
    _json_object(doc, "$", PathError, ("root", "edges"))
    if doc["root"] not in (ROOT_NONSPACER, ROOT_SPACER):
        raise PathError("root must be 'nonspacer' or 'spacer' at $.root")
    edges = []
    for n, raw in enumerate(_json_array(doc["edges"], "$.edges", PathError)):
        spot = f"$.edges[{n}]"
        _json_object(raw, spot, PathError, ("kind",), ("level", "i", "j"))
        kind = raw["kind"]
        if not isinstance(kind, str) or kind not in _EDGE_INDICES:
            raise PathError(f"unknown edge kind {kind!r} at {spot}.kind")
        indices = _EDGE_INDICES[kind]
        _json_object(raw, spot, PathError, ("kind", *indices), ("level",))
        if "level" in raw and _json_int(raw["level"], f"{spot}.level", PathError) != n:
            raise PathError(f"level {raw['level']} at {spot}.level, expected {n}")
        values = (_json_int(raw[key], f"{spot}.{key}", PathError) for key in indices)
        edges.append(Edge(kind, *values))
    return AdicPath(doc["root"], tuple(edges))
