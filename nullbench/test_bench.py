"""The benchmark's own tests; they run it at tiny sizes.

    python3 -m pytest -q nullbench
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("nullbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def tiny_run(workload: str, trace: int):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    lines, result = tiny_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert result["metrics"]["identical_frac"]["value"] == 1.0
    table = [line.split() for line in lines if line.startswith("  ")]
    assert {row[0]: row[2] for row in table if row[0] in want} == want


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in workloads.WORKLOADS:
        lines, result = tiny_run(workload, trace=1)
        detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
        out[workload] = (result, detail)
    return out


def test_traced_run_prints_every_layer_metric(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result, detail in traced.values():
        assert result["correct"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == want
        assert detail["absent_spans"] == []
        assert os.path.exists(detail["spans_file"])


def test_every_span_is_called(traced):
    for name in spans.SPANS:
        assert sum(detail["span_calls"][name] for _, detail in traced.values()) > 0, name
    # each workload reaches the layers it is there to measure
    calls = {w: detail["span_calls"] for w, (_, detail) in traced.items()}
    assert calls["walker_bulk"]["tensor.volume_and_duals"] > 0
    assert calls["cli_scan"]["families.build"] > 0 and calls["cli_scan"]["lab.load_spec_file"] > 0
    assert calls["conformal_mix"]["tensor.box_scalar"] > 0


def _inputs(workload: str, seed: int):
    jobs = workloads.catalogue(workload)
    rounds = itertools.islice(workloads.job_rounds(workload, seed, jobs), 30)
    return [(job.key, job.argv, job.spec_text, job.metric) for rnd in rounds for job in rnd]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    assert _inputs(workload, 5) == _inputs(workload, 5)
    assert _inputs(workload, 5) != _inputs(workload, 6)


def test_absent_span_is_reported_not_raised():
    tracer = spans.Tracer(
        {
            "gone.module": ["nullplane.no_such_module:f"],
            "gone.attr": ["nullplane.lab.cli:no_such_function"],
            "lab.cli_main": ["nullplane.lab.cli:main"],
        }
    )
    sys.path.insert(0, run.SRC)
    tracer.install()
    try:
        assert tracer.absent == {"gone.module", "gone.attr"}
        assert tracer.totals("gone.attr") == {"calls": 0, "ms": 0.0, "self_ms": 0.0, "absent": True}
    finally:
        tracer.uninstall()
    import nullplane.lab.cli

    assert not hasattr(nullplane.lab.cli.main, "__wrapped__")


def test_check_names_the_first_mismatch():
    sys.path.insert(0, run.SRC)
    jobs = workloads.catalogue("cli_scan", tiny=True)
    runner = run.Runner("cli_scan", True, jobs, refcheck.References("cli_scan", True))
    _, _, text, problem = runner.execute(jobs["sd2015-00"])
    assert not problem
    doc = json.loads(text)
    assert runner.refs.check("sd2015-00", doc) == (True, True, None)

    doc["points"][1]["scalar_curvature"] *= 1 + 1e-13
    assert runner.refs.check("sd2015-00", doc) == (True, False, None)
    doc["points"][1]["scalar_curvature"] += 1e-6
    passed, identical, problem = runner.refs.check("sd2015-00", doc)
    assert not passed and "points[1].scalar_curvature" in problem

    doc = json.loads(text)
    doc["flags"]["SD"] = not doc["flags"]["SD"]
    passed, _, problem = runner.refs.check("sd2015-00", doc)
    assert not passed and "SD" in problem


def test_without_sources_exits_nonzero_and_prints_no_result():
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(BENCH, ".work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "nullbench"),
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__", ".pytest_cache"))
        done = bench("--workload", "cli_scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert "correct" not in done.stdout
    finally:
        shutil.rmtree(bare)


def test_slowdown_reads_the_probes_near_the_job():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REF_PROBE_MS / 1e3
    sampler.stamps, sampler.costs = [0.0, 0.5, 3.0], [ref, 2 * ref, 100 * ref]
    assert sampler.slowdown(0.2, 0.6) == pytest.approx(1.5)
    assert sampler.probe_seconds(0.2, 0.6) == pytest.approx(2 * ref)
    with pytest.raises(RuntimeError):
        sampler.slowdown(10.0, 11.0)


def test_sampler_probes_during_a_long_call_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval_s=0.02) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.costs) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
