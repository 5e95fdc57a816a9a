"""nullplane benchmark: one workload, one closed-loop client, one process.

    python3 nullbench/run.py --workload cli_scan --seed 1 --seconds 25 --trace 0

Runs the seeded jobs of the workload back to back until --seconds of job time
have passed, checks every job's output against the reference outputs in
refs/, and prints the metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced run with --trace 1.
Earlier lines give the same numbers as a table, the environment, and extra
detail (failed_frac, sample counts, quartiles, the raw wall times).  Timings
in the metrics are at the reference host speed (see hostspeed.py); numpy's
BLAS runs one thread.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)
# one client on a 2-vCPU host: BLAS threads that spin between calls would
# compete with it; set before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import hostspeed  # noqa: E402
import refcheck  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
TAIL_SAMPLES = 100  # p90 is resolved only with at least 10 samples beyond it


@dataclass
class JobResult:
    key: str
    start: float
    end: float
    seconds: float  # wall time of the job, speed probes excluded
    ref_seconds: float = 0.0  # the same at the reference host speed
    points: int = 0
    kbytes: float = 0.0
    passed: bool = False
    identical: bool = False


class Runner:
    """Runs catalogue jobs in this process and checks their outputs."""

    def __init__(self, workload: str, tiny: bool, jobs: dict, refs=None):
        import nullplane.lab.analyze as analyze
        import nullplane.lab.cli as cli
        from nullplane.exprkit import parse_expr
        from nullplane.lab.config import AnalysisConfig
        from nullplane.tensor import MetricSpec

        self.analyze, self.cli = analyze, cli
        self.refs = refs
        points = (workloads.TINY_POINTS if tiny else workloads.POINTS)[workload]
        self.configs = {
            job.key: AnalysisConfig(
                spec=MetricSpec.walker(*(parse_expr(e) for e in job.metric)), points=points, seed=job.sample_seed
            )
            for job in jobs.values()
            if job.metric
        }
        self.first_problem = None
        self.sampler = None  # a hostspeed.Sampler while one is active

    def execute(self, job) -> tuple:
        """(start, end, output text, problem) of one job; only the call into
        nullplane is timed."""
        text, problem = "", ""
        if job.argv:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(list(job.argv))
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
            except Exception as exc:
                code = f"raised {exc!r}"
            t1 = perf_counter()
            text = out.getvalue()
            if code != 0:
                problem = f"{job.key}: exit {code}: {err.getvalue().strip()[:300]}"
        else:
            t0 = perf_counter()
            try:
                text = self.analyze.run_analysis(self.configs[job.key]).to_json()
            except Exception as exc:
                problem = f"{job.key}: raised {exc!r}"
            t1 = perf_counter()
        return t0, t1, text, problem

    def run(self, job) -> JobResult:
        """Execute one job and check its output against the reference."""
        t0, t1, text, problem = self.execute(job)
        seconds = t1 - t0
        if self.sampler is not None:
            seconds -= self.sampler.probe_seconds(t0, t1)
        res = JobResult(job.key, t0, t1, seconds, kbytes=len(text.encode()) / 1024.0)
        if not problem:
            try:
                doc = json.loads(text)
            except ValueError as exc:
                problem = f"{job.key}: output is not JSON: {exc}"
            else:
                res.points = sum(len(rep.get("points", [])) for rep in refcheck.reports(doc).values())
                res.passed, res.identical, found = self.refs.check(job.key, doc)
                problem = found or ""
        if problem and self.first_problem is None:
            self.first_problem = problem
            print(f"first mismatch: {problem}", file=sys.stderr)
        return res

    def run_rounds(self, rounds, budget_s: float) -> tuple:
        """Run rounds until budget_s of job time has passed; returns
        (results, rounds run)."""
        results, done, timed = [], [], 0.0
        for rnd in rounds:
            if timed >= budget_s:
                break
            for job in rnd:
                res = self.run(job)
                results.append(res)
                timed += res.seconds
            done.append(rnd)
        return results, done


def make_workdir(workload: str) -> str:
    base = os.path.join(BENCH, ".work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{workload}-", dir=base)


def set_up(workload: str, tiny: bool, workdir: str) -> dict:
    """What every run pays before its first job: import nullplane, compute
    the calibration constant, generate the inputs."""
    import nullplane  # noqa: F401
    import nullplane.lab.cli  # noqa: F401
    from nullplane.weylalg import default_kappa

    default_kappa()
    jobs = workloads.catalogue(workload, tiny)
    workloads.write_spec_files(jobs, workdir)
    return jobs


def measure_setup(args) -> tuple:
    """Set-up times of SETUP_RUNS fresh processes, from spawn to ready: at
    the reference host speed, and as measured."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload]
    if args.tiny:
        cmd.append("--tiny")
    sampler = hostspeed.Sampler()
    times, ref_times = [], []
    for _ in range(SETUP_RUNS):
        sampler.sample(3)
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = perf_counter() - t0
                proc.stdout.read()
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up run failed (exit {proc.returncode})")
        sampler.sample(3)
        times.append(elapsed)
        ref_times.append(elapsed / sampler.slowdown(t0, t0 + elapsed))
    return ref_times, times


def environment(args, threads_env) -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies across numpy versions
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        commit = done.stdout.strip() if done.returncode == 0 else None
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "nullplane"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_hash.update(name.encode() + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "NULLPLANE_THREADS": threads_env,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "machine": platform.machine(),
    }


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def end_to_end(results, setup_times, raw_setup_times) -> tuple:
    times = [r.ref_seconds for r in results]
    ms = [1e3 * t for t in times]
    raw_ms = [1e3 * r.seconds for r in results]
    points = sum(r.points for r in results)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "points_per_s": points / sum(times),
        "analysis_ms_p50": statistics.median(ms),
        "analysis_ms_p90": quantile(ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "identical_frac": sum(r.identical for r in results) / len(results),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups; at reference speed",
        "points_per_s": "at reference speed",
        "analysis_ms_p50": f"n={len(ms)} jobs; at reference speed",
        "analysis_ms_p90": f"n={len(ms)} jobs; at reference speed"
        + ("" if len(ms) >= TAIL_SAMPLES else f"; fewer than {TAIL_SAMPLES}, tail not resolved"),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    extra = {
        "jobs": len(ms),
        "analysis_ms_p25": quantile(ms, 0.25),
        "analysis_ms_p75": quantile(ms, 0.75),
        "setup_s_all": setup_times,
        "raw": {
            "setup_s": statistics.median(raw_setup_times),
            "points_per_s": points / sum(r.seconds for r in results),
            "analysis_ms_p50": statistics.median(raw_ms),
            "analysis_ms_p90": quantile(raw_ms, 0.9),
            "host_slowdown": sum(r.seconds for r in results) / sum(times),
        },
    }
    return metrics, notes, extra


def per_layer(names, tracer, results, untraced_s, setup_kappa_ms) -> tuple:
    """Layer metrics by name.  A name "<span>.<field>" reads the span's
    totals: calls over the traced jobs, or calls_per_job, ms, self_ms per job."""
    jobs = len(results)
    run = tracer.totals("lab.run_analysis")
    cost_note = "absent" if tracer.cost_failed or tracer.totals("exprkit.mul_coeffs")["absent"] else "computed"
    computed = {
        "exprkit.mul_coeffs.mbytes": (tracer.mul_bytes / 1e6 / jobs, cost_note),
        "exprkit.mul_coeffs.mflop": (tracer.mul_flop / 1e6 / jobs, cost_note),
        "weylalg.default_kappa.ms": (setup_kappa_ms, "first call, in set-up"),
        "lab.report.kbytes": (sum(r.kbytes for r in results) / jobs, ""),
        "trace.overhead_frac": (sum(r.seconds for r in results) / untraced_s - 1.0, "traced / untraced job time - 1"),
        "trace.coverage_frac": (1.0 - run["self_ms"] / run["ms"] if run["ms"] > 0 else 0.0, ""),
        "trace.jobs": (jobs, ""),
    }
    metrics, notes = {}, {}
    for name in names:
        if name in computed:
            metrics[name], notes[name] = computed[name]
            continue
        span, _, field = name.rpartition(".")
        tot = tracer.totals(span)
        if field == "calls":
            metrics[name] = tot["calls"]
        elif field == "calls_per_job":
            metrics[name] = tot["calls"] / jobs
        else:
            metrics[name] = tot[field] / jobs
        notes[name] = "absent" if tot["absent"] else ""
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small point counts, for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nullplane", "__init__.py")):
        print(f"error: nullplane sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # one process, one chunk: the run does not split points across threads
    threads_env = os.environ.pop("NULLPLANE_THREADS", None)

    if args.setup_probe:
        workdir = make_workdir(args.workload)
        try:
            set_up(args.workload, args.tiny, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup_times, raw_setup_times = ([], []) if args.trace else measure_setup(args)
    workdir = make_workdir(args.workload)
    cwd = os.getcwd()
    try:
        setup_kappa_ms = 0.0
        if args.trace:
            import nullplane.lab.cli  # noqa: F401  (the wrapped modules must be loaded)
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            import nullplane.weylalg

            nullplane.weylalg.default_kappa()
            setup_kappa_ms = tracer.totals("weylalg.default_kappa")["ms"]
            tracer.uninstall()
        jobs = set_up(args.workload, args.tiny, workdir)
        runner = Runner(args.workload, args.tiny, jobs, refcheck.References(args.workload, args.tiny))
        os.chdir(workdir)  # spec files are named relative to it, as a user would
        rounds = workloads.job_rounds(args.workload, args.seed, jobs)
        if not args.trace:
            sampler = hostspeed.Sampler()
            sampler.sample(3)
            with sampler:
                runner.sampler = sampler
                results, _ = runner.run_rounds(rounds, args.seconds)
                runner.sampler = None
            for res in results:  # the probes on both sides of each job are in now
                res.ref_seconds = res.seconds / sampler.slowdown(res.start, res.end)
            checked = results
            metrics, notes, extra = end_to_end(results, setup_times, raw_setup_times)
            extra["speed_probes"] = len(sampler.costs)
        else:
            untraced, done = runner.run_rounds(rounds, args.seconds / 2)
            tracer.reset_totals()
            tracer.install()
            tracer_jobs = []
            try:
                results = []
                for rnd in done:
                    for job in rnd:
                        tracer.job = len(tracer_jobs)
                        tracer_jobs.append(job.key)
                        results.append(runner.run(job))
            finally:
                tracer.uninstall()
            checked = untraced + results
            metrics, notes = per_layer(
                units, tracer, results, sum(r.seconds for r in untraced), setup_kappa_ms
            )
            extra = {
                "jobs_untraced": len(untraced),
                "absent_spans": sorted(tracer.absent),
                "span_calls": {name: tracer.totals(name)["calls"] for name in tracer.names},
            }
            out_dir = os.path.join(BENCH, "out")
            os.makedirs(out_dir, exist_ok=True)
            extra["spans_file"] = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json.gz")
            tracer.write(extra["spans_file"], tracer_jobs)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.passed for r in checked)
    print(f"nullbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]:<10} {notes.get(name, '')}")
    print(f"  {'failed_frac':<36} {failed / len(checked):>14.6g} {'fraction':<10} {failed}/{len(checked)} jobs")
    print("env " + json.dumps(environment(args, threads_env), sort_keys=True))
    print("detail " + json.dumps(extra, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
