"""Run one benchmark workload on one seed and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the repository root.  The process imports ``rankone`` from
``src/`` of the same checkout (nothing needs building), generates the
workload's seeded inputs under ``.perfbench_work/``, then runs passes
over the workload's items back to back until ``--seconds`` are used up.
Each workload gets its own interpreter, so peak RSS and set-up time
are per workload.  The passes start no threads or subprocesses.  Before
them, with ``--trace 0``, the set-up is timed SETUP_SAMPLES times, each
in a fresh interpreter started on this script with ``--setup-only`` and
waited for, one at a time; ``setup_s`` is the median.

The host's speed drifts by a quarter and more within minutes, so every
timing is also taken at reference speed: a fixed computation of the
benchmark's own (``reference_work``, no rankone code) is timed before
the first set-up sample and the first pass and after every one of
them, and a time t measured between reference times r1 and r2 is
reported as t * REFERENCE_S / ((r1 + r2) / 2).  ``norm_wall_s`` and
``setup_s`` are taken this way; the raw ``wall_s`` and set-up times are
reported beside them.

With ``--trace 0`` every end-to-end metric of BENCHMARK.json is printed;
with ``--trace 1`` the first half of the time runs untraced and the
second half with every public rankone callable wrapped (see tracing.py),
and the per-layer metrics plus ``trace_overhead_ratio`` are printed.
The last stdout line is one JSON object; the lines before it are a
readable report and a ``DETAIL`` line with every sample.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PERCENTILES = (99, 95, 90, 75)
SETUP_SAMPLES = 7
# time of reference_work on the host the timings are scaled to (a
# 2-vCPU Xeon takes 0.10-0.15 s)
REFERENCE_S = 0.11
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]}
UNITS.update(failed_ops_ratio="ratio", wall_s="s", setup_wall_s="s", reference_s="s",
             trace_norm_wall_s="s")


class BenchError(Exception):
    """The benchmark cannot run here (for example, no rankone sources)."""


def import_rankone():
    """Import rankone from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("rankone")
        cli = importlib.import_module("rankone.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import rankone from {src}: {exc}") from exc
    if Path(package.__file__).resolve().parent.parent != src:
        raise BenchError(f"rankone was imported from {package.__file__}, not from {src}")
    return package, cli


def setup(name, seed):
    """Import rankone, generate the seeded inputs, write the spec files."""
    package, cli = import_rankone()
    work = ROOT / ".perfbench_work" / f"{name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    return workloads.build(name, cli, package, work, seed), package


def time_setups(name, seed):
    """Set-up times, from starting an interpreter on this script to its
    inputs written, in fresh processes run one after the other.

    The child prints CLOCK_MONOTONIC, which is system-wide, when its
    set-up is done; interpreter exit is not counted.  A reference time
    is taken before the first and after every sample; returns the raw
    times and the times at reference speed.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", "1", "--setup-only"]
    samples, scaled = [], []
    ref = time_reference()
    for _ in range(SETUP_SAMPLES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up in a fresh interpreter exited {proc.returncode}: {proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
        ref, before = time_reference(), ref
        scaled.append(samples[-1] * REFERENCE_S / ((before + ref) / 2))
    return samples, scaled


def reference_work():
    """A fixed mix of big-int and Fraction sums, dict traffic, string
    building and JSON, written with the benchmark's own arithmetic; it
    calls no rankone code, so a change to the program cannot move it."""
    total = workloads.ratio_partial(workloads.CHACON, 1, 300)
    counts = {}
    for i in range(150_000):
        key = divmod(i * 7919 % 4093, 61)
        counts[key] = counts.get(key, 0) + 1
    word = workloads.chacon_block(11)
    doc = [len(json.loads(json.dumps(list(range(k, k + 20_000))))) for k in range(5)]
    return word.count("1"), len(counts), total.denominator % 997, doc


def time_reference():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def run_item(item):
    start = time.perf_counter()
    try:
        result = item.call()
    except Exception:  # an item that raises is a failed operation, not a crash
        return time.perf_counter() - start, 0, [f"{item.name}: {traceback.format_exc(limit=3)}"], 0
    elapsed = time.perf_counter() - start
    problems, work = item.check(result)
    out = getattr(result, "out", "")
    return elapsed, work, problems, len(out.encode())


def run_pass(workload, tracer=None):
    rec = {"items": {}, "work": {}, "problems": [], "failed": 0, "bytes_out": 0, "item_calls": {}}
    for item in workload.items:
        if tracer is not None:
            before = tracer.call_counts()
            tracer.recording = True
        elapsed, work, problems, nbytes = run_item(item)
        if tracer is not None:
            tracer.recording = False
            rec["item_calls"][item.name] = {
                name: n - before[name] for name, n in tracer.call_counts().items() if n != before[name]
            }
        rec["items"][item.name] = elapsed
        rec["work"][item.name] = work
        rec["problems"] += problems
        rec["failed"] += bool(problems)
        rec["bytes_out"] += nbytes
    rec["wall_s"] = sum(rec["items"].values())
    return rec


def run_passes(workload, deadline, tracer=None):
    """Passes back to back, each followed by a reference time, until the
    next one would overrun `deadline`; at least one.  ``scale`` turns a
    pass's times into times at reference speed."""
    passes = []
    ref = time_reference()
    while True:
        start = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        rec = run_pass(workload, tracer)
        if tracer is not None:
            rec["layers"] = layer_metrics(tracer, rec["bytes_out"])
            rec["counts"] = tracer.pass_counts()
            rec["times"] = tracer.pass_times()
        ref, before = time_reference(), ref
        rec["reference_s"] = (before + ref) / 2
        rec["scale"] = REFERENCE_S / rec["reference_s"]
        rec["norm_wall_s"] = rec["wall_s"] * rec["scale"]
        passes.append(rec)
        took = time.perf_counter() - start
        if time.perf_counter() + took > deadline:
            return passes


def summarize(values):
    """Median, quartiles, sample count and the highest percentile with
    at least ten samples beyond it."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
        cuts = statistics.quantiles(values, n=100)
        for p in PERCENTILES:
            if len(values) * (100 - p) / 100 >= 10:
                out[f"p{p}"] = cuts[p - 1]
                break
    return out


def focus_samples(workload, passes):
    """Per-pass values of the workload-specific metrics, at reference speed."""
    samples = {}
    for m in workload.metrics:
        vals = []
        for rec in passes:
            t = sum(rec["items"][name] for name in m.items) * rec["scale"]
            vals.append(sum(rec["work"][name] for name in m.items) / t if m.work else t)
        samples[m.name] = vals
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload, package = setup(args.workload, args.seed)
    if args.setup_only:
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    first_setup_s = time.perf_counter() - PROCESS_T0
    deadline = time.perf_counter() + args.seconds
    setups, scaled_setups = time_setups(args.workload, args.seed) if not args.trace else ([], [])

    probe = None
    if workload.probe is not None:
        _, _, problems, _ = run_item(workload.probe)
        probe = {"name": workload.probe.name, "failed": bool(problems), "problems": problems}

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": workload.inputs, "probe": probe,
              "python": sys.version.split()[0]}
    if args.trace:
        untraced = run_passes(workload, deadline - args.seconds / 2)
        tracer = Tracer(package)
        tracer.calibrate()
        tracer.install()
        try:
            traced = run_passes(workload, deadline, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        passes = untraced = run_passes(workload, deadline)

    problems = [p for rec in passes for p in rec["problems"]]
    attempted = sum(len(rec["items"]) for rec in passes)
    failed = sum(rec["failed"] for rec in passes)
    probe_failed = int(bool(probe and probe["failed"]))
    all_attempted = attempted + (probe is not None)
    failed_ops_ratio = (failed + probe_failed) / all_attempted

    metrics = {}
    report = {}
    if args.trace:
        walls = [rec["norm_wall_s"] for rec in untraced]
        traced_walls = [rec["norm_wall_s"] for rec in traced]
        first = traced[0]
        layers = {}
        for key, value in first["layers"].items():
            if key.endswith("_s"):
                value = statistics.median(rec["layers"][key] for rec in traced)
            layers[key] = value
        layers["trace_overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        for key, value in layers.items():
            metrics[key] = {"value": value, "unit": UNITS[key]}
        detail["trace_counts_repeat"] = all(rec["counts"] == first["counts"] for rec in traced)
        detail["item_calls"] = first["item_calls"]
        detail["wrapper_cost_per_call_s"] = tracer.per_call
        detail["traced_passes"] = len(traced)
        detail["untraced_passes"] = len(untraced)
        trace_path = ROOT / ".perfbench_work" / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_path, {
            "workload": args.workload, "seed": args.seed, "layers": layers,
            "passes": [{"wall_s": r["wall_s"], "items": r["items"], "counts": r["counts"],
                        "times": r["times"], "item_calls": r["item_calls"]} for r in traced],
        })
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        report = {"trace_norm_wall_s": summarize(traced_walls), "norm_wall_s": summarize(walls)}
    else:
        samples = {
            "norm_wall_s": [rec["norm_wall_s"] for rec in passes],
            "setup_s": scaled_setups,
            **focus_samples(workload, passes),
            "wall_s": [rec["wall_s"] for rec in passes],
            "setup_wall_s": setups,
            "reference_s": [rec["reference_s"] for rec in passes],
        }
        report = {name: summarize(vals) for name, vals in samples.items()}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["peak_rss_mb"] = {"median": rss_mb, "n": 1}
        report["failed_ops_ratio"] = {"median": failed_ops_ratio, "n": all_attempted}
        report["ok_ops_ratio"] = {"median": 1 - failed_ops_ratio, "n": all_attempted}
        for name in (m["name"] for m in CONFIG["end_to_end"]):
            metrics[name] = {"value": report[name]["median"], "unit": UNITS[name]}
        detail["focus_metrics"] = {
            m.name: {"unit": m.unit, "better": m.better, "bound": m.bound} for m in workload.metrics
        }
        detail["samples"] = samples
    detail.update(report=report, first_setup_s=first_setup_s, passes=len(passes),
                  attempted=attempted, failed=failed, problems=problems[:20],
                  item_medians={name: statistics.median(r["items"][name] for r in untraced)
                                for name in untraced[0]["items"]})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    for name, s in report.items():
        unit = UNITS.get(name) or detail.get("focus_metrics", {}).get(name, {}).get("unit", "s")
        spread = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}" if "q1" in s else ""
        high = "".join(f"  {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"  {name:24s} {s['median']:.6g} {unit}  n={s['n']}{spread}{high}")
    if probe is not None:
        print(f"  known-defect probe {probe['name']}: {'failed' if probe['failed'] else 'passed'}")
    for p in problems[:5]:
        print(f"  problem: {p.strip()}")
    print("DETAIL " + json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)
