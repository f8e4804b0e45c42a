"""Workload definitions: seeded inputs, timed items and output oracles.

A workload is a fixed list of items run back to back in one process
(closed loop, one caller).  An item is either a ``rankone`` CLI call made
in-process through ``rankone.cli.main`` with stdout captured, or a
library call.  Each item carries an output check: preset items compare
the exit code and the sha256 of stdout with the values recorded at the
seed commit (``expected.json``, byte-identical CLI output), and seeded
items use oracles computed here without the library.

Seeded inputs come only from the ``--seed`` argument and are generated
with the benchmark's own arithmetic, never with ``rankone``, so the
program sees nothing but the generated spec files.  Each seeded input is
drawn until a cost proxy (fiber size, run count, denominator bits) falls
in a narrow band, which keeps a pass's cost nearly the same on every
seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())["items"]

# Regression bound of the workload-specific timings, as a share of the
# parent's median: run-to-run spread on a shared 2-vCPU machine reaches
# 5-15%, so only the widest bound the contract allows holds.
TIME_BOUND = 0.25

# chacon as (q, a) stage pairs: one stage repeated forever
CHACON = [(3, (0, 1, 0))]


@dataclass(frozen=True)
class Metric:
    """A workload-specific end-to-end metric derived from item times.

    ``work`` names the per-item count divided by the summed item time
    for a rate; without it the metric is the summed time of its items.
    """

    name: str
    unit: str
    better: str
    bound: float
    items: tuple[str, ...]
    work: bool = False


@dataclass
class Item:
    """One timed operation and the check applied to its output."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], int]]  # (problems, work count)


@dataclass
class Workload:
    name: str
    items: list[Item]
    metrics: tuple[Metric, ...]
    probe: Item | None = None
    inputs: dict = field(default_factory=dict)


# --- the benchmark's own arithmetic (oracles and input generation) -------


def stage_at(stages, tail_period, n):
    """Stage n of a prefix-plus-periodic-tail schedule."""
    if n < len(stages):
        return stages[n]
    p = tail_period
    return stages[len(stages) - p + (n - len(stages)) % p]


def height_list(stages, tail_period, n):
    hs = [1]
    for k in range(n):
        q, a = stage_at(stages, tail_period, k)
        hs.append(q * hs[-1] + sum(a))
    return hs


def ratio_partial(stages, tail_period, n):
    """sum_{k<n} spacers_k / h_{k+1}, recomputed from the heights."""
    hs = height_list(stages, tail_period, n)
    total = Fraction(0)
    for k in range(n):
        total += Fraction(sum(stage_at(stages, tail_period, k)[1]), hs[k + 1])
    return total


def chacon_block(n):
    """B_{k+1} = B_k B_k 1 B_k, the chacon recursion written out."""
    b = "0"
    for _ in range(n):
        b = b + b + "1" + b
    return b


def schedule_doc(stages, tail_period):
    tail = {"kind": "none"} if tail_period is None else {"kind": "periodic", "period": tail_period}
    return {"stages": [{"q": q, "a": list(a)} for q, a in stages], "tail": tail}


def telescoped_runs(stages, levels):
    """sum_n Q_n, Q_n the product of q over the window [m_n, m_{n+1})."""
    total = 0
    for lo, hi in zip(levels, levels[1:]):
        big_q = 1
        for q, _ in stages[lo:hi]:
            big_q *= q
        total += big_q
    return total


def random_stage(rng):
    q = rng.randint(2, 4)
    return q, tuple(rng.randint(0, 3) for _ in range(q))


# --- CLI plumbing ----------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    rc: int
    out: str
    err: str


def cli_call(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                rc = exc.code
        return CliResult(rc, out.getvalue(), err.getvalue())

    return call


def check_expected(name, res):
    """Exit code and stdout digest against the seed commit."""
    want = EXPECTED[name]
    problems = []
    if res.rc != want["exit"]:
        problems.append(f"{name}: exit {res.rc}, expected {want['exit']}: {res.err.strip()}")
    digest = hashlib.sha256(res.out.encode()).hexdigest()
    if digest != want["sha256"]:
        problems.append(f"{name}: stdout sha256 {digest[:12]} differs from the seed commit")
    return problems


def parse_json_out(name, res, problems):
    try:
        return json.loads(res.out)
    except json.JSONDecodeError as exc:
        problems.append(f"{name}: stdout is not JSON: {exc}")
        return None


# --- verify: path space -------------------------------------------------

VERIFY_DEPTH = 4
VERIFY_SEEDED = 3
VERIFY_FIBER_BAND = (1700, 2000)
VERIFY_RUNS_BAND = (16, 32)


def seeded_verify_schedule(rng):
    """Random bare schedule (q 2..4, runs 0..3) with 4 telescoping windows.

    Drawn until the depth-4 fiber H_4 = h_{m_4} lies in VERIFY_FIBER_BAND
    and the telescoped run count sum_n Q_n in VERIFY_RUNS_BAND: the
    exhaustive check costs about (fiber) x (a constant + sum_n Q_n), so
    it costs about the same on every seed.
    """
    while True:
        length = rng.randint(VERIFY_DEPTH + 2, VERIFY_DEPTH + 4)
        stages = [random_stage(rng) for _ in range(length)]
        fiber = height_list(stages, None, length)[length]
        if not VERIFY_FIBER_BAND[0] <= fiber <= VERIFY_FIBER_BAND[1]:
            continue
        levels = [0] + sorted(rng.sample(range(1, length), VERIFY_DEPTH - 1)) + [length]
        if VERIFY_RUNS_BAND[0] <= telescoped_runs(stages, levels) <= VERIFY_RUNS_BAND[1]:
            return stages, levels, fiber


def verify_item(cli, name, argv, fiber, preset):
    def check(res):
        problems = check_expected(name, res) if preset else []
        if not preset and res.rc != 0:
            problems.append(f"{name}: exit {res.rc}: {res.err.strip()}")
        doc = parse_json_out(name, res, problems)
        if doc is None:
            return problems, 0
        if doc.get("passed") is not True:
            problems.append(f"{name}: verification did not pass")
        if doc.get("paths_tested") != fiber:
            problems.append(f"{name}: tested {doc.get('paths_tested')} paths, expected {fiber}")
        return problems, doc.get("paths_tested", 0)

    return Item(name, cli_call(cli, argv), check)


def build_verify(cli, lib, work: Path, rng) -> Workload:
    seeded = []
    for i in range(VERIFY_SEEDED):
        stages, levels, fiber = seeded_verify_schedule(rng)
        spec = work / f"verify-seeded-{i}.json"
        spec.write_text(json.dumps({"schedule": schedule_doc(stages, None), "telescope_levels": levels}))
        seeded.append((spec, stages, levels, fiber))
    # presets without levels go through build_expansive; its greedy growth
    # rule picks levels 0,1,3,5,8 on chacon and 0,1,3,6,10 on the odometer
    chacon_fiber = (3 ** 9 - 1) // 2
    odometer_fiber = 2 ** 10
    exhaustive = ["--depth", str(VERIFY_DEPTH), "--exhaustive", "--format", "json"]
    items = [
        verify_item(cli, "verify-chacon-d4-exhaustive",
                    ["verify", "--preset", "chacon", *exhaustive], chacon_fiber, True),
        verify_item(cli, "verify-odometer-d4-exhaustive",
                    ["verify", "--preset", "dyadic-odometer", *exhaustive], odometer_fiber, True),
        *(verify_item(cli, f"verify-seeded-{i}-d4-exhaustive",
                      ["verify", "--spec", str(spec), *exhaustive], fiber, False)
          for i, (spec, _, _, fiber) in enumerate(seeded)),
        verify_item(cli, "verify-chacon-d6-sampled",
                    ["verify", "--preset", "chacon", "--depth", "6", "--samples", "1000",
                     "--format", "json"], 1000, True),
    ]
    names = [i.name for i in items]
    metrics = (
        Metric("paths_per_s", "paths/s", "higher", TIME_BOUND, tuple(names), work=True),
        Metric("verify_exhaustive_s", "s", "lower", TIME_BOUND, tuple(names[:-1])),
        Metric("verify_sampled_s", "s", "lower", TIME_BOUND, (names[-1],)),
    )
    inputs = {
        "seeded": [
            {"schedule": schedule_doc(st, None), "telescope_levels": lv, "fiber": fiber,
             "runs": telescoped_runs(st, lv)}
            for _, st, lv, fiber in seeded
        ],
        "depth": VERIFY_DEPTH,
        "fiber_band": list(VERIFY_FIBER_BAND),
        "runs_band": list(VERIFY_RUNS_BAND),
        "preset_fibers": {"chacon-d4": chacon_fiber, "odometer-d4": odometer_fiber},
        "sampled": {"preset": "chacon", "depth": 6, "fiber": (3 ** 17 - 1) // 2, "samples": 1000},
    }
    return Workload("verify", items, metrics, inputs=inputs)


# --- symbolic, series part: exact Fraction sums and asymptotics ---------

SERIES_DEPTH = 600
# 150 (about 1.2 s on a 2.1 GHz Xeon) was the first size; its time varies by about 10%
# from one process to the next while validate's does not, and at that
# size it set the spread of the pass time, so it runs at depth 100
KALIKOW_DEPTH = 100
CLI_VALIDATE_DEPTH = 160
PERIODIC_BITS_TARGET = 110_000  # target sum of log2 h_k over the validated stages


def seeded_periodic_schedule(rng):
    """Random periodic schedule (q 2..4, runs 0..3, positive tail spacers).

    The depth is the least one at which sum_k log2(h_k) reaches
    PERIODIC_BITS_TARGET: that bounds the size of the exact partial sums,
    which is what validate's cost follows, so it is about equal on
    every seed.  It comes out near depth 400.
    """
    while True:
        prefix = rng.randint(1, 3)
        stages = [random_stage(rng) for _ in range(prefix)]
        period = rng.randint(1, prefix)
        if any(sum(a) for _, a in stages[prefix - period:]):
            break
    bits, h, depth = 0, 1, 0
    while bits < PERIODIC_BITS_TARGET:
        q, a = stage_at(stages, period, depth)
        h = q * h + sum(a)
        bits += h.bit_length()
        depth += 1
    return stages, period, depth


def series_oracle(stages, period):
    cache = {}

    def at(n):
        if n not in cache:
            cache[n] = ratio_partial(stages, period, n)
        return cache[n]

    return at


def series_part(cli, lib, work: Path, rng):
    """Items, metrics, known-defect probe and inputs of the series part."""
    stages, period, depth = seeded_periodic_schedule(rng)
    spec = work / "series-periodic.json"
    spec.write_text(json.dumps({"schedule": schedule_doc(stages, period)}))
    chacon = lib.ParamSchedule.from_json_dict(schedule_doc(CHACON, 1))
    seeded = lib.ParamSchedule.from_json_dict(json.loads(spec.read_text())["schedule"])
    chacon_sum = series_oracle(CHACON, 1)
    seeded_sum = series_oracle(stages, period)

    def check_validate(name, n, oracle):
        def check(report):
            problems = []
            if not report.ok:
                problems.append(f"{name}: report not ok")
            if len(report.partial_sums) != n or report.partial_sums[-1] != oracle(n):
                problems.append(f"{name}: partial sums differ from the recomputed sum")
            return problems, n
        return check

    def check_ratio(report):
        problems = []
        if report.partial != chacon_sum(SERIES_DEPTH):
            problems.append("ratio-sum-chacon-600: partial sum differs from the recomputed sum")
        if report.verdict != lib.PROVED_CONVERGENT:
            problems.append(f"ratio-sum-chacon-600: verdict {report.verdict}")
        return problems, SERIES_DEPTH

    def check_kalikow(report):
        # runs are nonnegative, so the maximum over m sits at m = 0:
        # witness_n = sum_{k<=n} a[k][q_k-1] + max a[n+1]; chacon's final run is 0
        want = tuple(max(CHACON[0][1]) for _ in range(KALIKOW_DEPTH + 1))
        problems = []
        if report.witnesses != want:
            problems.append("kalikow-chacon-100: witnesses differ from the closed form")
        if report.verdict != lib.KALIKOW_BOUNDED:
            problems.append(f"kalikow-chacon-100: verdict {report.verdict}")
        return problems, KALIKOW_DEPTH

    def check_cli_validate(name, n, preset):
        def check(res):
            problems = check_expected(name, res) if preset else []
            if res.rc != 0:
                if not preset:
                    problems.append(f"{name}: exit {res.rc}: {res.err.strip()}")
                return problems, 0
            doc = parse_json_out(name, res, problems)
            if doc is not None and doc.get("ratio_partial_sum") != str(chacon_sum(n)):
                problems.append(f"{name}: ratio_partial_sum differs from the recomputed sum")
            return problems, n
        return check

    items = [
        Item("validate-chacon-600", lambda: lib.validate(chacon, SERIES_DEPTH),
             check_validate("validate-chacon-600", SERIES_DEPTH, chacon_sum)),
        Item("ratio-sum-chacon-600", lambda: lib.spacer_ratio_sum(chacon, SERIES_DEPTH), check_ratio),
        Item("kalikow-chacon-100", lambda: lib.kalikow_sup_condition(chacon, KALIKOW_DEPTH),
             check_kalikow),
        Item("validate-cli-chacon-160",
             cli_call(cli, ["validate", "--preset", "chacon", "--depth", str(CLI_VALIDATE_DEPTH)]),
             check_cli_validate("validate-cli-chacon-160", CLI_VALIDATE_DEPTH, True)),
        Item("validate-seeded-periodic", lambda: lib.validate(seeded, depth),
             check_validate("validate-seeded-periodic", depth, seeded_sum)),
    ]
    # Known defect, run once per process and never timed: at the seed the
    # CLI exits 2 for chacon depth >= 171 because serializing the partial
    # sums passes CPython's 4300-digit int->str limit, while the library
    # call succeeds at 600.  The timed CLI item stays at depth 160 and the
    # deep Fraction work goes through the library; this probe keeps the
    # defect visible in failed_ops_ratio (ok_ops_ratio) until it is fixed,
    # and a fix cannot show up as a norm_wall_s change.
    probe = Item(
        "validate-cli-chacon-600-probe",
        cli_call(cli, ["validate", "--preset", "chacon", "--depth", str(SERIES_DEPTH)]),
        check_cli_validate("validate-cli-chacon-600-probe", SERIES_DEPTH, False),
    )
    names = [i.name for i in items]
    metrics = (
        Metric("ratio_sum_s", "s", "lower", TIME_BOUND,
               (names[0], names[1], names[3], names[4])),
        Metric("kalikow_s", "s", "lower", TIME_BOUND, (names[2],)),
    )
    inputs = {
        "seeded_schedule": schedule_doc(stages, period),
        "seeded_depth": depth,
        "seeded_bits_target": PERIODIC_BITS_TARGET,
        "chacon_depth": SERIES_DEPTH,
        "kalikow_depth": KALIKOW_DEPTH,
        "cli_validate_depth": CLI_VALIDATE_DEPTH,
        "probe": "validate --preset chacon --depth 600 (untimed; exits 2 at the seed)",
    }
    return items, metrics, probe, inputs


# --- symbolic, word part: word building and rebuilds ----------------------

TELESCOPE_LEVELS = [0, 18]
EXPAND_SEEDED = 3
EXPAND_RUNS_BAND = (9000, 11000)
VERSHIK = (12, 50_000)
PD_LENGTH = 1 << 22
BLOCK_DEPTH = 14
BLOCK_ORBIT_PREFIX = 50_000


def seeded_expand_schedule(rng):
    """Random bare schedule with 3 telescoping windows.

    Drawn until the telescoped run count sum_n Q_n lies in
    EXPAND_RUNS_BAND, which sets the cost of telescoping, replacement
    and the JSON output.
    """
    while True:
        length = rng.randint(8, 12)
        stages = [random_stage(rng) for _ in range(length)]
        levels = [0] + sorted(rng.sample(range(1, length), 2)) + [length]
        runs = telescoped_runs(stages, levels)
        if EXPAND_RUNS_BAND[0] <= runs <= EXPAND_RUNS_BAND[1]:
            return stages, levels, runs


def check_expand_model(name, doc, stages, levels):
    """Height, replacement and domination invariants of an expand document."""
    hs = height_list(stages, None, levels[-1])
    big_h = [hs[m] for m in levels]
    problems = []
    if doc.get("m") != levels or doc.get("H") != big_h:
        return [f"{name}: levels or heights differ from the spec"]
    for n, st in enumerate(doc["stages"]):
        q, a, cut = st["Q"], st["A"], st["cut"]
        h = big_h[n]
        window_q = 1
        for qq, _ in stages[levels[n]:levels[n + 1]]:
            window_q *= qq
        ok = (
            q == window_q
            and len(a) == q
            and q * h + sum(a) == big_h[n + 1]
            and st["A_max"] == max(a)
            and st["Q_new"] == cut + 1
            and st["A_new"] == a[:cut] + [st["top_run"]]
            and st["top_run"] > st["A_max"]
            and st["Q_new"] * h + sum(st["A_new"]) == big_h[n + 1]
        )
        if not ok:
            problems.append(f"{name}: stage {n} breaks the replacement invariants")
    return problems


def odometer_expansive_blocks(count):
    """Blocks of the odometer's expansive rebuild:
    B_1 = 01 and B_{n+1} = B_n^(2^(n+1)-1) 1^(2^(n(n+1)/2))."""
    blocks = ["01"]
    for n in range(1, count):
        blocks.append(blocks[-1] * (2 ** (n + 1) - 1) + "1" * 2 ** (n * (n + 1) // 2))
    return blocks


def word_part(cli, lib, work: Path, rng):
    """Items, metrics and inputs of the word part."""
    tele_spec = work / "telescope-odometer.json"
    tele_spec.write_text(json.dumps({"preset": "dyadic-odometer", "telescope_levels": TELESCOPE_LEVELS}))
    seeded = []
    for i in range(EXPAND_SEEDED):
        stages, levels, runs = seeded_expand_schedule(rng)
        spec = work / f"expand-seeded-{i}.json"
        spec.write_text(json.dumps({"schedule": schedule_doc(stages, None), "telescope_levels": levels}))
        seeded.append((spec, stages, levels, runs))
    chacon = lib.ParamSchedule.from_json_dict(schedule_doc(CHACON, 1))
    oracle = {}

    def check_telescope(res):
        name = "telescope-odometer-0-18"
        problems = check_expected(name, res)
        doc = parse_json_out(name, res, problems)
        runs = 0
        if doc is not None:
            runs = sum(st["Q"] for st in doc["stages"])
            if doc["H"] != [1, 2 ** 18] or runs != 2 ** 18:
                problems.append(f"{name}: heights or run count differ from 2^18")
        return problems, runs

    def check_expand_blocks(res):
        name = "expand-odometer-6-blocks"
        problems = check_expected(name, res)
        if "odo" not in oracle:
            oracle["odo"] = "\n".join(odometer_expansive_blocks(6)) + "\n"
        if res.out != oracle["odo"]:
            problems.append(f"{name}: blocks differ from B_(n+1) = B_n^(2^(n+1)-1) 1^(2^(n(n+1)/2))")
        return problems, len(res.out)

    def expand_seeded_item(i, spec, stages, levels):
        name = f"expand-seeded-{i}"

        def check(res):
            problems = [] if res.rc == 0 else [f"{name}: exit {res.rc}: {res.err.strip()}"]
            doc = parse_json_out(name, res, problems)
            if doc is not None:
                problems += check_expand_model(name, doc, stages, levels)
            return problems, sum(len(st["A"]) for st in doc["stages"]) if doc else 0

        return Item(name, cli_call(cli, ["expand", "--spec", str(spec)]), check)

    def check_vershik(res):
        name = "vershik-chacon-d12-50000"
        problems = check_expected(name, res)
        if "chacon" not in oracle:
            oracle["chacon"] = chacon_block(10)
        if res.out.rstrip("\n") != oracle["chacon"][: VERSHIK[1]]:
            problems.append(f"{name}: orbit word differs from the chacon block prefix")
        return problems, len(res.out.rstrip("\n"))

    def check_pd(res):
        name = "pd-check-4194304"
        problems = check_expected(name, res)
        doc = parse_json_out(name, res, problems)
        if doc is not None:
            if not doc["gaps_all_multiples_of_4"] or any(g % 4 for g in doc["distinct_gaps"]):
                problems.append(f"{name}: a 0100 gap is not a multiple of 4")
        return problems, PD_LENGTH

    def check_block(res):
        name = "block-chacon-d14"
        problems = check_expected(name, res)
        if "orbit" not in oracle:
            path = lib.minimal_path(chacon, BLOCK_DEPTH)
            oracle["orbit"] = lib.code_orbit(chacon, path, BLOCK_ORBIT_PREFIX).word
        word = res.out.rstrip("\n")
        if len(word) != (3 ** (BLOCK_DEPTH + 1) - 1) // 2 or word.count("0") != 3 ** BLOCK_DEPTH:
            problems.append(f"{name}: length or zero count differs from h_14, 3^14")
        if word[:BLOCK_ORBIT_PREFIX] != oracle["orbit"]:
            problems.append(f"{name}: block prefix differs from the code_orbit word")
        return problems, len(word)

    items = [
        Item("telescope-odometer-0-18", cli_call(cli, ["telescope", "--spec", str(tele_spec)]),
             check_telescope),
        Item("expand-odometer-6-blocks",
             cli_call(cli, ["expand", "--preset", "dyadic-odometer", "--stages", "6", "--emit-blocks"]),
             check_expand_blocks),
        *(expand_seeded_item(i, spec, st, lv) for i, (spec, st, lv, _) in enumerate(seeded)),
        Item("vershik-chacon-d12-50000",
             cli_call(cli, ["vershik", "--preset", "chacon", "--depth", str(VERSHIK[0]),
                            "--length", str(VERSHIK[1])]),
             check_vershik),
        Item("pd-check-4194304", cli_call(cli, ["pd-check", "--length", str(PD_LENGTH), "--format", "json"]),
             check_pd),
        Item("block-chacon-d14", cli_call(cli, ["block", "--preset", "chacon", "--depth", str(BLOCK_DEPTH)]),
             check_block),
    ]
    names = [i.name for i in items]
    telescope_names = (names[0],) + tuple(n for n in names if n.startswith("expand-seeded-"))
    metrics = (
        Metric("telescope_s", "s", "lower", TIME_BOUND, telescope_names),
        Metric("orbit_steps_per_s", "steps/s", "higher", TIME_BOUND, ("vershik-chacon-d12-50000",), work=True),
        Metric("pd_check_s", "s", "lower", TIME_BOUND, ("pd-check-4194304",)),
    )
    inputs = {
        "telescope_levels": TELESCOPE_LEVELS,
        "expand_seeded": [
            {"schedule": schedule_doc(st, None), "telescope_levels": lv, "runs": runs}
            for _, st, lv, runs in seeded
        ],
        "expand_runs_band": list(EXPAND_RUNS_BAND),
        "vershik": {"depth": VERSHIK[0], "length": VERSHIK[1]},
        "pd_length": PD_LENGTH,
        "block_depth": BLOCK_DEPTH,
    }
    return items, metrics, inputs


def build_symbolic(cli, lib, work: Path, rng) -> Workload:
    """The series items and the word items in one workload.

    They were two workloads; on a shared 2-vCPU host the spread of 40 s
    runs was too wide, and two workloads leave time for 60 s runs.
    Neither part does isomorphism work, so `verify` alone exercises it.
    """
    series_items, series_metrics, probe, series_inputs = series_part(cli, lib, work, rng)
    word_items, word_metrics, word_inputs = word_part(cli, lib, work, rng)
    return Workload("symbolic", series_items + word_items, series_metrics + word_metrics,
                    probe=probe, inputs={"series": series_inputs, "words": word_inputs})


BUILDERS = {
    "verify": build_verify,
    "symbolic": build_symbolic,
}


def build(name, cli, lib, work: Path, seed: int) -> Workload:
    """Generate the seeded inputs of one workload and its items."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](cli, lib, work, rng)
