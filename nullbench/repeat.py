"""Run the benchmark once per seed and summarise each metric by its median,
quartiles and quartile spread ((q3 - q1) / median), as
``statistics.quantiles(values, n=4)`` gives them.

    python3 nullbench/repeat.py --workload cli_scan --seeds 1-10 --trace 0
    python3 nullbench/repeat.py --seeds 1-10 --out nullbench/baseline.json

With --out the summary is merged into that JSON file under
[workload]["trace0" | "trace1"]; the bound of each end-to-end metric is taken
from BENCHMARK.json and the spread is flagged when it exceeds a third of it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list, bounds: dict) -> dict:
    out = {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "all_correct": all(r["correct"] for r in results),
        "metrics": {},
    }
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        entry = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
        if name in bounds:
            entry["bound"] = bounds[name]
        out["metrics"][name] = entry
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file to merge the summary into")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    merged = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            merged = json.load(fh)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in parse_seeds(args.seeds):
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + json.dumps(results[-1]), flush=True)
        summary = summarise(results, bounds)
        summary.update({"seeds": args.seeds, "seconds": args.seconds})
        print(f"== {workload} trace={args.trace}: {summary['failed']}/{summary['attempted']} failed")
        for name, m in summary["metrics"].items():
            flag = ""
            if "bound" in m and name != "setup_s" and m["spread"] > m["bound"] / 3:
                flag = "  spread above a third of the bound"
            print(f"  {name:<36} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g}"
                  f" spread {m['spread']:.4f} {m['unit']}{flag}")
        merged.setdefault(workload, {})[f"trace{args.trace}"] = summary
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
