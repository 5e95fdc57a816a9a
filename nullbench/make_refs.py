"""Compute the reference outputs of every catalogue job with the nullplane
sources of this checkout, and store them in refs/.

Run it only at the commit whose behaviour is the reference; the references
in refs/ were made at the commit named in each refs/*.json:

    python3 nullbench/make_refs.py                      # all workloads, both sizes
    python3 nullbench/make_refs.py --workload cli_scan --tiny
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import refcheck
import workloads


def make(workload: str, tiny: bool) -> None:
    workdir = run.make_workdir(workload)
    cwd = os.getcwd()
    try:
        jobs = run.set_up(workload, tiny, workdir)
        runner = run.Runner(workload, tiny, jobs)
        os.chdir(workdir)
        entries = {}
        for key, job in jobs.items():
            _, text, problem = runner.execute(job)
            if problem:
                raise SystemExit(f"reference job failed: {problem}")
            entries[key] = json.loads(text)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    env = run.environment(argparse.Namespace(workload=workload, seed=None, seconds=None, trace=0, tiny=tiny), None)
    meta = {k: env[k] for k in ("workload", "tiny", "git_commit", "src_sha256", "python", "numpy", "blas")}
    meta["points"] = (workloads.TINY_POINTS if tiny else workloads.POINTS)[workload]
    refcheck.save(workload, tiny, meta, entries)
    print(f"{workload}{' (tiny)' if tiny else ''}: {len(entries)} reference outputs", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    parser.add_argument("--tiny", action="store_true", help="only the tiny sizes")
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    os.makedirs(refcheck.REFS_DIR, exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        for tiny in (True,) if args.tiny else (True, False):
            make(workload, tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
