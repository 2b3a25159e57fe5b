#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
summarizes each metric as median and quartiles, with the spread
(Q3 - Q1) / median checked against the bound BENCHMARK.json fixes.

    python3 perfbench/summarize.py [--runs 10] [--seconds S] [--trace 0|1]
                                   [--workloads a,b] [--first-seed 1]
                                   [--out perfbench/results/<name>.json]

Run from the root of a checkout. Exits non-zero when a run fails or an
end-to-end spread (setup_s aside) exceeds a third of its bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    commit = next((l.split("commit=")[1].split()[0] for l in lines if l.startswith("host:")),
                  "unknown")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        return None, wall, commit
    return json.loads(lines[-1]), wall, commit


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    summary = {"host": {"nproc": os.cpu_count(), "cpu": cpu_model()},
               "runs": args.runs, "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        walls = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, wall, commit = run_once(workload, seed, args.seconds, args.trace)
            summary["host"]["commit"] = commit
            walls.append(wall)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED", flush=True)
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, {result['attempted']} frames",
                  flush=True)
        rows = {}
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[m["name"]]
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound, "values": v}
            flag = ""
            if bound is not None:
                steady = spread <= bound / 3
                flag = "steady" if steady else "NOISY"
                if not steady and m["name"] != "setup_s":
                    ok = False
            print(f"  {m['name']:34s} median {med:12.6g} {m['unit']:8s} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {100 * spread:6.2f} %"
                  + (f" (bound {100 * bound:.0f} %) {flag}" if bound is not None else ""),
                  flush=True)
        summary["workloads"][workload] = {"wall_s": walls, "metrics": rows}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
