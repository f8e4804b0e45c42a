"""Run every workload over several seeds and summarize across runs.

    python3 perfbench/suite.py --seeds 1-10                 # end-to-end
    python3 perfbench/suite.py --seeds 1,1 --trace 1        # per layer
    python3 perfbench/suite.py --seeds 1-10 --out a.json --compare b.json

Each (workload, seed) of BENCHMARK.json's workloads runs ``run.py`` in
its own interpreter, one after the other, for BENCHMARK.json's
``run_seconds``.  For every metric the table gives the median over runs,
the run count, the quartile spread as a share of the median, and the
metric's bound: the contract metrics' bounds come from BENCHMARK.json,
the workload-specific ones from workloads.py.  A spread above a third of
its bound is marked.  With ``--compare`` each median is also checked
against an earlier results file: no worse by more than the bound.  A
file whose runs had another length is refused.
With ``--trace 1`` it also checks that the call counts repeat exactly
between runs of the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import summarize

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [*CONFIG["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("DETAIL "))[7:])
    return {"result": json.loads(lines[-1]), "detail": detail}


def spread(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def machine():
    cpu = "unknown"
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def end_to_end_rows(workload, runs):
    """(name, unit, better, bound, per-run values, pooled samples); the
    raw times, without a bound, come last."""
    rows = []
    for m in CONFIG["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        pooled = [v for r in runs for v in r["detail"].get("samples", {}).get(m["name"], [])]
        rows.append((m["name"], m["unit"], m["better"], m["bound"], values, pooled))
    for name, spec in runs[0]["detail"].get("focus_metrics", {}).items():
        values = [r["detail"]["report"][name]["median"] for r in runs]
        pooled = [v for r in runs for v in r["detail"]["samples"][name]]
        rows.append((name, spec["unit"], spec["better"], spec["bound"], values, pooled))
    for name in ("failed_ops_ratio", "wall_s", "setup_wall_s", "reference_s"):
        values = [r["detail"]["report"][name]["median"] for r in runs]
        pooled = [v for r in runs for v in r["detail"]["samples"].get(name, [])]
        unit = "ratio" if name == "failed_ops_ratio" else "s"
        rows.append((name, unit, "lower", None, values, pooled))
    return rows


def high_percentile(pooled):
    if len(pooled) < 2:
        return ""
    return "".join(f"{k} {v:.6g}" for k, v in summarize(pooled).items() if k.startswith("p"))


def worse_by(better, old, new):
    if not old:
        return 0.0 if new == old else float("inf")
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run's results here")
    parser.add_argument("--compare", type=Path, help="results file of an earlier suite run")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    seconds = CONFIG["run_seconds"]
    previous = json.loads(args.compare.read_text()) if args.compare else None
    if previous and previous["seconds"] != seconds:
        parser.error(f"{args.compare} holds {previous['seconds']} s runs, not {seconds} s")
    results = {"machine": machine(), "seeds": seeds, "seconds": seconds,
               "trace": args.trace, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in CONFIG["workloads"]):
        runs = []
        for seed in seeds:
            run = run_one(workload, seed, seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: correct {res['correct']} "
                  f"attempted {res['attempted']} failed {res['failed']}", flush=True)
            ok &= res["correct"]
            runs.append(run)
        summary = {}
        print(f"\n== {workload}  ({len(runs)} runs of {seconds:g} s)")
        if args.trace:
            for name in runs[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                med, sp = spread(values)
                unit = runs[0]["result"]["metrics"][name]["unit"]
                summary[name] = {"median": med, "unit": unit, "spread": sp, "values": values}
                print(f"  {name:40s} {med:14.6g} {unit:8s} n={len(values)}")
            by_seed = {}
            for seed, run in zip(seeds, runs):
                counts = {k: v["value"] for k, v in run["result"]["metrics"].items()
                          if v["unit"] in ("count", "bytes")}
                if by_seed.setdefault(seed, counts) != counts:
                    print(f"  call counts differ between runs of seed {seed}")
                    ok = False
        else:
            for name, unit, better, bound, values, pooled in end_to_end_rows(workload, runs):
                med, sp = spread(values)
                mark = "" if bound is None or sp <= bound / 3 else "  SPREAD ABOVE BOUND/3"
                entry = {"median": med, "unit": unit, "better": better, "bound": bound,
                         "spread": sp, "values": values, "samples": len(pooled)}
                line = (f"  {name:22s} {med:12.6g} {unit:8s} n={len(values)} runs, "
                        f"{len(pooled)} samples  spread {sp:.3f}  bound {bound}  "
                        f"{high_percentile(pooled)}{mark}")
                if previous and bound is not None:
                    old = previous["workloads"][workload][name]["median"]
                    entry["worse_by"] = worse_by(better, old, med)
                    line += f"  vs previous {entry['worse_by']:+.3f}"
                    if entry["worse_by"] > bound:
                        line += "  REGRESSION"
                        ok = False
                summary[name] = entry
                print(line)
        summary["item_medians"] = {
            name: statistics.median(r["detail"]["item_medians"][name] for r in runs)
            for name in runs[0]["detail"]["item_medians"]
        }
        if args.trace:
            summary["item_calls"] = runs[0]["detail"]["item_calls"]
        summary["inputs"] = {str(s): r["detail"]["inputs"] for s, r in zip(seeds, runs)}
        summary["probe"] = runs[0]["detail"]["probe"]
        results["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
