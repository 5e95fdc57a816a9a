"""The three workloads: each one's fixed job catalogue, and the job sequence
a run seed draws from it.

Every job's reference output was computed once from the catalogue (see
make_refs.py), so a run seed only selects and orders catalogue jobs; it never
invents a job without a reference.  Inputs are made with the standard
library's ``random`` so that they do not change with the numpy version, and
are handed to nullplane only as expression strings, spec-file text and CLI
argv.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

WORKLOADS = ("walker_bulk", "cli_scan", "conformal_mix")

# Sampled points per analysis; the tiny sizes exist for the benchmark's own tests.
POINTS = {"walker_bulk": 1000, "cli_scan": 20, "conformal_mix": 200}
TINY_POINTS = {"walker_bulk": 8, "cli_scan": 3, "conformal_mix": 4}

N_WALKER_BULK = 8
N_ANALYZE = 64
N_PER_FAMILY = 12
N_CONFORMAL = 6

SEEDED_FAMILIES = ("sd2015", "sd_two_sided", "left_flat")
EXPR_FAMILIES = ("two_sided", "ricci_null", "walker")
# cli_scan alternates analyze jobs with one family job of each kind in turn.
CLI_ROTATION = tuple(
    kind for fam in SEEDED_FAMILIES + EXPR_FAMILIES for kind in ("analyze", fam)
)

ALL_COORDS = ("u", "v", "x", "y")


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``argv`` is a CLI call; a job without argv is a
    direct ``run_analysis`` of the walker metric ``metric`` = (a, b, c)."""

    key: str
    argv: tuple = ()
    spec_name: str = ""
    spec_text: str = ""
    metric: tuple = ()
    sample_seed: int = 0


def poly(rng: random.Random, names, degree: int) -> str:
    """Random polynomial of total degree <= degree, coefficients in [-1, 1]."""
    terms = []
    for total in range(degree + 1):
        for mono in itertools.combinations_with_replacement(names, total):
            coeff = f"{rng.uniform(-1.0, 1.0):.6f}"
            terms.append("*".join((coeff,) + mono))
    return " + ".join(terms).replace("+ -", "- ")


def _walker_abc(rng: random.Random) -> tuple:
    return tuple(poly(rng, ALL_COORDS, 2) for _ in range(3))


def _walker_spec_text(a: str, b: str, c: str) -> str:
    return f"[metric]\nkind = walker\na = {a}\nb = {b}\nc = {c}\n"


def _general_spec_text(rng: random.Random) -> str:
    """Conformal rescale chi^2 g of a random walker metric g, written out as
    ten general components, with the walker tetrad divided by chi."""
    a, b, c = _walker_abc(rng)
    al, be, ga = (rng.uniform(-0.5, 0.5) for _ in range(3))
    chi = f"(exp({al:.6f}*x + {be:.6f}*y) / (2 + {ga:.6f}*u*v))"
    c2 = f"{chi}^2"
    comps = {
        "g_uu": "0", "g_uv": "0", "g_ux": c2, "g_uy": "0",
        "g_vv": "0", "g_vx": "0", "g_vy": c2,
        "g_xx": f"{c2} * ({a})", "g_xy": f"{c2} * ({c})", "g_yy": f"{c2} * ({b})",
    }
    inv = f"1 / {chi}"
    tetrad = {
        "l": (inv, "0", "0", "0"),
        "n": (f"-0.5 * ({a}) / {chi}", f"-0.5 * ({c}) / {chi}", inv, "0"),
        "m": (f"0.5 * ({c}) / {chi}", f"0.5 * ({b}) / {chi}", "0", f"-1 / {chi}"),
        "mt": ("0", inv, "0", "0"),
    }
    lines = ["[metric]", "kind = general"]
    lines += [f"{k} = {v}" for k, v in comps.items()]
    lines.append("")
    lines.append("[tetrad]")
    for name, vec in tetrad.items():
        lines += [f"{name}{i} = {comp}" for i, comp in enumerate(vec)]
    return "\n".join(lines) + "\n"


def _family_argv(fam: str, rng: random.Random) -> tuple:
    if fam in SEEDED_FAMILIES:
        return ("family", "--name", fam)
    if fam == "two_sided":
        a, c = poly(rng, ("u", "x", "y"), 2), poly(rng, ("u", "x", "y"), 2)
        return ("family", "--name", fam, f"--a={a}", f"--b={poly(rng, ALL_COORDS, 2)}", f"--c={c}")
    if fam == "ricci_null":
        # F_uu = G_vv = h(x, y), as the family requires
        h = poly(rng, ("x", "y"), 1)
        F = f"0.5*({h})*u^2 + ({poly(rng, ('x', 'y'), 1)})*u + {poly(rng, ('x', 'y'), 1)}"
        G = f"0.5*({h})*v^2 + ({poly(rng, ('x', 'y'), 1)})*v + {poly(rng, ('x', 'y'), 1)}"
        return ("family", "--name", fam, f"--theta={poly(rng, ALL_COORDS, 2)}", f"--F={F}", f"--G={G}")
    a, b, c = _walker_abc(rng)
    return ("family", "--name", fam, f"--a={a}", f"--b={b}", f"--c={c}")


def catalogue(workload: str, tiny: bool = False) -> dict:
    """Every job the workload can run, by key; independent of the run seed."""
    points = str((TINY_POINTS if tiny else POINTS)[workload])
    jobs = {}
    if workload == "walker_bulk":
        for i in range(N_WALKER_BULK):
            rng = random.Random(f"walker_bulk/{i}")
            jobs[f"metric-{i}"] = Job(f"metric-{i}", metric=_walker_abc(rng), sample_seed=i)
    elif workload == "cli_scan":
        for i in range(N_ANALYZE):
            rng = random.Random(f"cli_scan/analyze/{i}")
            key = f"analyze-{i:03d}"
            jobs[key] = Job(
                key,
                argv=("analyze", "--spec", f"{key}.ini", "--points", points, "--seed", str(i)),
                spec_name=f"{key}.ini",
                spec_text=_walker_spec_text(*_walker_abc(rng)),
            )
        for fam in SEEDED_FAMILIES + EXPR_FAMILIES:
            for i in range(N_PER_FAMILY):
                rng = random.Random(f"cli_scan/{fam}/{i}")
                key = f"{fam}-{i:02d}"
                jobs[key] = Job(key, argv=_family_argv(fam, rng) + ("--points", points, "--seed", str(i)))
    elif workload == "conformal_mix":
        for i in range(N_CONFORMAL):
            rng = random.Random(f"conformal_mix/general/{i}")
            jobs[f"cp-{i}"] = Job(
                f"cp-{i}",
                argv=("family", "--name", "cp", "--F", "x*y", "--points", points, "--seed", str(i)),
            )
            key = f"general-{i}"
            jobs[key] = Job(
                key,
                argv=("analyze", "--spec", f"{key}.ini", "--points", points, "--seed", str(i)),
                spec_name=f"{key}.ini",
                spec_text=_general_spec_text(rng),
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def job_rounds(workload: str, seed: int, jobs: dict):
    """Endless, seed-determined sequence of rounds (tuples of catalogue
    jobs) for one run.  A run stops only between rounds, so conformal_mix
    always holds as many cp jobs as general ones."""
    rng = random.Random(seed)
    if workload == "walker_bulk":
        job = jobs[f"metric-{seed % N_WALKER_BULK}"]
        while True:
            yield (job,)
    elif workload == "cli_scan":
        pools = {}
        for kind in sorted(set(CLI_ROTATION)):
            keys = sorted(k for k in jobs if k.rsplit("-", 1)[0] == kind)
            rng.shuffle(keys)
            pools[kind] = itertools.cycle(keys)
        for kind in itertools.cycle(CLI_ROTATION):
            yield (jobs[next(pools[kind])],)
    else:
        order = list(range(N_CONFORMAL))
        rng.shuffle(order)
        for i in itertools.cycle(order):
            yield (jobs[f"cp-{i}"], jobs[f"general-{i}"])


def write_spec_files(jobs: dict, workdir: str) -> None:
    for job in jobs.values():
        if job.spec_name:
            with open(os.path.join(workdir, job.spec_name), "w", encoding="utf-8") as fh:
                fh.write(job.spec_text)
