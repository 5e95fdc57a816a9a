import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest

from nullplane.errors import ConfigError, NullplaneError
from nullplane.exprkit import u, v, x, y
from nullplane.families import mk_cp_example, mk_ricci_null, mk_sd_two_sided, mk_two_sided, mk_walker, random_polys
from nullplane.lab import AnalysisConfig, load_spec_file, run_analysis, sample_points
from nullplane.lab.cli import main
from nullplane.lab.report import write_reports
from conftest import GENERAL_SPEC, sample_box

GOOD_SPEC = """
[metric]
kind = walker
a = u^2
b = v^2
c = u

[lambda]
t0 = 0
t1 = 1

[domain]
box = 0.5, 1.5
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "metric.ini"
    path.write_text(GOOD_SPEC)
    return str(path)


# ---------------------------------------------------------------------------
# configuration


def test_load_spec_file(spec_file):
    cfg = load_spec_file(spec_file)
    assert cfg.spec.kind == "walker"
    assert str(cfg.t_field.t1) == "1"
    assert cfg.box == ((0.5, 1.5),) * 4


def test_load_spec_file_errors(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[metric]\nkind = walker\na = u^\nb = 0\nc = 0\n")
    with pytest.raises(ConfigError):
        load_spec_file(bad.as_posix())
    missing = tmp_path / "missing.ini"
    missing.write_text("[metric]\nkind = walker\na = u\n")
    with pytest.raises(ConfigError):
        load_spec_file(missing.as_posix())
    nokind = tmp_path / "nokind.ini"
    nokind.write_text("[metric]\nfoo = 1\n")
    with pytest.raises(ConfigError):
        load_spec_file(nokind.as_posix())


def test_sample_points_deterministic_and_excluding():
    cfg = AnalysisConfig(spec=mk_walker(0, 0, 0).spec, points=50, seed=5, box=((-1.0, 1.0),) * 4, exclude=(("v", 0.0),))
    pts1 = sample_points(cfg)
    pts2 = sample_points(cfg)
    assert np.array_equal(pts1, pts2)
    assert np.all(np.abs(pts1[:, 1]) >= 0.02 * 2.0)


# ---------------------------------------------------------------------------
# analysis flags and verdicts


def test_flat_analysis():
    report = run_analysis(AnalysisConfig(spec=mk_walker(0, 0, 0).spec, points=6, seed=3))
    assert report.verdict == "yes"
    rec = report.point_records[0]
    assert rec["quartic_sd"]["roots"]["type"] == "O"
    assert rec["quartic_asd"]["roots"]["type"] == "O"
    assert rec["scalar_curvature"] == 0.0
    for kinds in rec["residuals"].values():
        for value in kinds.values():
            assert value < 1e-12


def test_two_sided_verdict_yes():
    for spec in (
        mk_two_sided(u**2, v**2, u).spec,
        mk_sd_two_sided(*random_polys(70_001, 2, ("x", "y"), 9)).spec,
        mk_ricci_null(u**2 * v * x, u**2, v**2).spec,
    ):
        report = run_analysis(AnalysisConfig(spec=spec, points=10, seed=4))
        assert report.flags["two_sided"] is True
        assert report.verdict == "yes"


def test_flag_monotonicity_across_corpus():
    instances = [
        mk_walker(0, 0, 0),
        mk_two_sided(u**2, v**2, u),
        mk_walker(*random_polys(70_100, 2, ("u", "v", "x", "y"), 3)),
        mk_walker(random_polys(70_101, 2, ("u", "x", "y"), 1)[0], v**2, u * v * x),
    ]
    g_inst, h_inst, t_field = mk_cp_example(x * y)
    configs = [AnalysisConfig(spec=i.spec, t_field=i.t_field, points=8, seed=6) for i in instances]
    configs += [
        AnalysisConfig(spec=i.spec, t_field=t_field, points=8, seed=6, exclude=(("v", 0.0),))
        for i in (g_inst, h_inst)
    ]
    for cfg in configs:
        flags = run_analysis(cfg).flags
        if flags["two_sided"]:
            assert flags["integrable_sesquiWalker"]
        if flags["integrable_sesquiWalker"]:
            assert flags["sesquiWalker"]
        if flags["sesquiWalker"]:
            assert flags["walker_form"]


def test_cp_verdict_no_h():
    g_inst, h_inst, t_field = mk_cp_example(x * y)
    for inst in (g_inst, h_inst):
        cfg = AnalysisConfig(spec=inst.spec, t_field=t_field, points=8, seed=2, exclude=(("v", 0.0),))
        assert run_analysis(cfg).verdict == "no:H"


def test_general_kind_inconclusive():
    from nullplane.tensor import conformal_rescale
    from nullplane.exprkit import parse_expr

    spec = conformal_rescale(mk_two_sided(u**2, v**2, u).spec, parse_expr("exp(x/4)"))
    report = run_analysis(AnalysisConfig(spec=spec, points=5, seed=1))
    assert report.verdict == "inconclusive"
    assert report.flags["Z_parallel"] is None
    assert "quartic_sd" not in report.point_records[0]


def test_general_kind_with_user_tetrad(tmp_path):
    """A conformal rescale by a factor constant on the null surfaces keeps
    both plane distributions parallel; with a user tetrad the frame flags
    are computed even though the verdict stays inconclusive."""
    path = tmp_path / "general.ini"
    path.write_text(GENERAL_SPEC)
    cfg = load_spec_file(str(path))
    cfg.points = 6
    report = run_analysis(cfg)
    assert report.flags["Z_parallel"] is True
    assert report.flags["two_sided"] is True
    assert report.flags["walker_form"] is True
    assert report.verdict == "inconclusive"
    assert report.flags["obstruction_zero"] is None


def test_determinism_byte_identical():
    cfg = AnalysisConfig(spec=mk_two_sided(u**2, v**2, u).spec, points=10, seed=11)
    a = run_analysis(cfg).to_json(with_timestamp=False)
    b = run_analysis(cfg).to_json(with_timestamp=False)
    assert a == b


def _shared_evaluation_configs(tmp_path):
    a, b, c = random_polys(72_000, 2, ("u", "v", "x", "y"), 3)
    walker = AnalysisConfig(spec=mk_walker(a, b, c).spec, points=12, seed=4)
    _, h_inst, t_field = mk_cp_example(x * y)
    conformal = AnalysisConfig(spec=h_inst.spec, t_field=t_field, points=8, seed=2, exclude=(("v", 0.0),))
    path = tmp_path / "general.ini"
    path.write_text(GENERAL_SPEC)
    general = load_spec_file(str(path))
    general.points = 6
    return {"walker": walker, "conformal_walker": conformal, "general": general}


@pytest.mark.parametrize("case", ["walker", "conformal_walker", "general"])
def test_pipeline_residuals_equal_public_wrappers(case, tmp_path):
    """The pipeline's residuals read the connection of its curvature pack,
    and its quartics and Ricci restriction read the chunk's frame; the
    public wrappers build their own connection from order-2 metric jets and
    their own frame.  Both must give the same numbers bit for bit.  So must
    the obstruction and the box of chi, which the public functions compute
    from the walker part's own metric."""
    from nullplane.frames import (
        ProjParam,
        alpha_dist,
        autoparallel_residual,
        beta_dist,
        dist_D,
        dist_H,
        frobenius_residual,
        parallel_residual,
        walker_tetrad,
    )

    cfg = _shared_evaluation_configs(tmp_path)[case]
    report = run_analysis(cfg)
    pts = sample_points(cfg)
    spec = cfg.spec
    tet = cfg.tetrad if case == "general" else walker_tetrad(spec)
    dists = {
        "D": dist_D(cfg.t_field, tet),
        "Z": alpha_dist(ProjParam.of(1, 0), tet),
        "W": beta_dist(cfg.t_field, tet),
        "H": dist_H(cfg.t_field, tet),
    }
    for name, dist in dists.items():
        want = {
            "frobenius": frobenius_residual(dist, pts),
            "autoparallel": autoparallel_residual(spec, dist, pts),
            "parallel": parallel_residual(spec, dist, pts),
        }
        for kind, values in want.items():
            got = [rec["residuals"][name][kind] for rec in report.point_records]
            assert got == [float(val) for val in values], (name, kind)

    from nullplane.tensor import curvature, metric_jet
    from nullplane.weylalg import ricci_null_residual, rps_discriminant, weyl_quartic

    pack = curvature(metric_jet(spec, pts))
    forms = weyl_quartic(pack, tet)
    for side, key in (("SD", "quartic_sd"), ("ASD", "quartic_asd")):
        want_coeffs = [[float(c) for c in row] for row in forms[side].coeffs]
        assert [rec[key]["coeffs"] for rec in report.point_records] == want_coeffs, side
    got = [rec["ricci_null_residual"] for rec in report.point_records]
    assert got == [float(val) for val in ricci_null_residual(pack, dists["Z"])]
    got = [rec["rps_discriminant"] for rec in report.point_records]
    assert got == [float(val) for val in rps_discriminant(pack, dists["Z"])]

    if case == "general":
        return
    from nullplane.tensor import box_scalar
    from nullplane.weylalg import obstruction_residual

    wp = spec.walker_part()
    got = [rec["obstruction"] for rec in report.point_records]
    assert got == [float(val) for val in obstruction_residual(wp, pts)]
    if case == "conformal_walker":
        got = [rec["box_chi"]["generic"] for rec in report.point_records]
        assert got == [float(val) for val in box_scalar(wp, spec.chi, pts)]


# a conformal rescale chi^2 g of a degree-2 walker metric g, written out as
# ten general components with the walker tetrad divided by chi
_CHI = "(exp(0.31*x - 0.27*y) / (2 + 0.13*u*v))"
_A, _B, _C = "1 + x*u - 0.5*v^2 + 0.3*u*y", "2 - u*v + 0.7*x^2 - 0.2*y", "0.4*u^2 + x*y - 0.6*v"
RESCALED_WALKER_SPEC = f"""
[metric]
kind = general
g_uu = 0
g_uv = 0
g_ux = {_CHI}^2
g_uy = 0
g_vv = 0
g_vx = 0
g_vy = {_CHI}^2
g_xx = {_CHI}^2 * ({_A})
g_xy = {_CHI}^2 * ({_C})
g_yy = {_CHI}^2 * ({_B})

[tetrad]
l0 = 1 / {_CHI}
l1 = 0
l2 = 0
l3 = 0
n0 = -0.5 * ({_A}) / {_CHI}
n1 = -0.5 * ({_C}) / {_CHI}
n2 = 1 / {_CHI}
n3 = 0
m0 = 0.5 * ({_C}) / {_CHI}
m1 = 0.5 * ({_B}) / {_CHI}
m2 = 0
m3 = -1 / {_CHI}
mt0 = 0
mt1 = 1 / {_CHI}
mt2 = 0
mt3 = 0
"""


def _assert_close_documents(got, want, path="") -> None:
    """got equals want, except that each number may differ by 1e-9 max(1, |x|)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_close_documents(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close_documents(g, w, f"{path}/{i}")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert got == want or abs(got - want) <= 1e-9 * max(1.0, abs(want)) or (got != got and want != want), path
    else:
        assert got == want, path


@pytest.mark.parametrize("case", ["walker", "conformal_walker", "general"])
def test_chunk_size_does_not_change_results(case, monkeypatch, tmp_path):
    """At a few points, chunks of 1 and 7 give the whole run's bytes.  At
    300 points, chunks of 13, 128 and 333 are compared with the default of
    250, on both sides of the sizes where numpy changes how it lays out and
    sums a batch: the walker report keeps its bytes; cp h and a rescaled
    walker written as a general spec may move last bits, so each number is
    within 1e-9 max(1, |x|) and the verdict, flags and root types are the
    same."""
    import importlib

    analyze = importlib.import_module("nullplane.lab.analyze")
    cfg = _shared_evaluation_configs(tmp_path)[case]
    reports = []
    for size in (1, 7, cfg.points):
        monkeypatch.setattr(analyze, "_CHUNK_POINTS", size)
        reports.append(run_analysis(cfg).to_json(with_timestamp=False))
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]

    if case == "general":
        path = tmp_path / "rescaled_walker.ini"
        path.write_text(RESCALED_WALKER_SPEC)
        cfg = load_spec_file(str(path))
    cfg.points = 300
    reports = {}
    for size in (250, 13, 128, 333):
        monkeypatch.setattr(analyze, "_CHUNK_POINTS", size)
        reports[size] = run_analysis(cfg).to_json(with_timestamp=False)
    for size in (13, 128, 333):
        if case == "walker":
            assert reports[size] == reports[250], size
        else:
            _assert_close_documents(json.loads(reports[size]), json.loads(reports[250]), str(size))


@pytest.mark.parametrize("case", ["walker", "conformal_walker", "general"])
def test_orientation_check_builds_no_star_tensor(case, monkeypatch, tmp_path):
    """The pipeline calls volume_and_duals for its orientation check only;
    the check stars one bivector, so the (P, 4, 4, 4, 4) eps_mixed of the
    operators it returns is never built."""
    import nullplane.tensor.dual as dual

    made = []
    original = dual.volume_and_duals

    def recorded(*args):
        made.append(original(*args))
        return made[-1]

    monkeypatch.setattr(dual, "volume_and_duals", recorded)
    run_analysis(_shared_evaluation_configs(tmp_path)[case])
    assert made and all("eps_mixed" not in vars(op) for op in made)


@pytest.mark.parametrize("case", ["walker", "conformal_walker", "general"])
def test_point_count_does_not_change_results(case, tmp_path):
    """sample_points draws the same first point for any point count, and
    that point gets the same record analysed alone or in a batch."""
    cfg = _shared_evaluation_configs(tmp_path)[case]
    cfg.points = 12
    batch = run_analysis(cfg).point_records
    cfg.points = 1
    alone = run_analysis(cfg).point_records
    assert json.dumps(alone, sort_keys=True) == json.dumps(batch[:1], sort_keys=True)


def test_division_guard_is_per_point(monkeypatch):
    """c = x u / (1e-11 u^2) * 1e-11 equals x / u.  The guard on the
    division compares each point's denominator with that point's numerator,
    so with u up to 20 a batch of 20 points runs, and each point's record is
    the one it gets analysed alone."""
    import importlib

    analyze = importlib.import_module("nullplane.lab.analyze")
    spec = mk_walker(u**2, v**2, x * u / (1e-11 * u**2) * 1e-11).spec
    cfg = AnalysisConfig(spec=spec, box=((0.5, 20.0),) + ((0.5, 1.5),) * 3, points=20, seed=0)
    batch = run_analysis(cfg)
    assert batch.verdict == "yes"
    pts = sample_points(cfg)
    for i in range(cfg.points):
        monkeypatch.setattr(analyze, "sample_points", lambda cfg: pts[i : i + 1])
        alone = run_analysis(cfg).point_records
        assert json.dumps(alone, sort_keys=True) == json.dumps(batch.point_records[i : i + 1], sort_keys=True), i


def test_tetrad_normalization_error_names_point(tmp_path):
    """l scaled by 1 + u^2 breaks g(l, n) = 1 most where |u| is largest."""
    path = tmp_path / "general.ini"
    path.write_text(GENERAL_SPEC.replace("l0 = exp(-y/4)", "l0 = (1 + u^2) * exp(-y/4)"))
    cfg = load_spec_file(str(path))
    cfg.points = 6
    with pytest.raises(NullplaneError, match=r"tetrad normalization defect .* \[at point \[") as info:
        run_analysis(cfg)
    pts = sample_points(cfg)
    worst = pts[np.argmax(np.abs(pts[:, 0]))]
    assert str(info.value).endswith(f"[at point {worst.tolist()}]")


def test_tetrad_normalization_tolerance_is_per_point(tmp_path):
    """l scaled by 1 + 1e-6 gives a defect of 1e-6 everywhere.  At a point
    with max |g| <= 1 the tolerance is 1e-7, so it fails; at a point with
    max |g| ~ 270 the tolerance is ~2.7e-5, so it passes.  Sharing a chunk
    does not lend the small point the large point's tolerance."""
    from nullplane.lab.analyze import _chunk_arrays

    path = tmp_path / "general.ini"
    path.write_text(GENERAL_SPEC.replace("l0 = exp(-y/4)", "l0 = (1 + 1e-6) * exp(-y/4)"))
    cfg = load_spec_file(str(path))
    small = [0.2, 0.3, 0.5, -2.0]  # max |g| = exp(-1)
    large = [10.0, 0.3, 0.5, 2.0]  # max |g| = e * 100
    _chunk_arrays(cfg, np.array([large]), None)
    for pts in ([small], [small, large], [large, small]):
        with pytest.raises(NullplaneError, match=r"tetrad normalization defect") as info:
            _chunk_arrays(cfg, np.array(pts), None)
        assert str(info.value).endswith(f"[at point {small}]")


@pytest.mark.parametrize(
    "replace",
    [
        ("g_ux = exp(y/2)", "g_ux = exp(y/2) + ln(u - 0.9) - ln(u - 0.9)"),
        ("l0 = exp(-y/4)", "l0 = 1 + ln(u - 0.9) - ln(u - 0.9)"),
    ],
    ids=["metric", "tetrad"],
)
def test_domain_error_names_point(replace, tmp_path, capsys):
    """A metric or tetrad component outside its domain at some samples
    names the first of them, in the library and on the CLI."""
    path = tmp_path / "general.ini"
    path.write_text(GENERAL_SPEC.replace(*replace))
    cfg = load_spec_file(str(path))
    cfg.points = 6
    pts = sample_points(cfg)
    where = f"[at point {pts[np.flatnonzero(pts[:, 0] <= 0.9)[0]].tolist()}]"
    with pytest.raises(NullplaneError, match=r"^ln of non-positive value in subexpression 'ln\(u - 0\.9\)' \[at") as info:
        run_analysis(cfg)
    assert str(info.value).endswith(where)
    assert main(["analyze", "--spec", str(path), "--points", "6"]) == 1
    assert capsys.readouterr().err.rstrip("\n").endswith(where)


def test_constant_zero_conformal_factor_fails_the_metric_stage(tmp_path, capsys):
    """chi = 0 has no tetrad (the walker tetrad divides by chi), but the
    metric stage runs first and names the error, at the first sample."""
    path = tmp_path / "chi0.ini"
    path.write_text("[metric]\nkind = conformal_walker\na = u^2\nb = v^2\nc = u\nchi = 0\n")
    assert main(["analyze", "--spec", str(path), "--points", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("analysis error: conformal factor must be positive on the sample box")
    assert "[at sample 0, stage metric]" in err


@pytest.mark.parametrize(
    "abc",
    [
        ["--a=1e300*u*1e300", "--b=v", "--c=x"],
        ["--a=u^400*1e300", "--b=v", "--c=x"],
        ["--a=u^2", "--b=v", "--c=x*1e200*1e200"],
    ],
)
def test_metric_overflow_names_sample_and_stage(abc, capsys):
    """A product that overflows is a DomainError of the metric stage at the
    first sample, not numpy's LinAlgError from the signature check."""
    assert main(["family", "--name", "walker", "--points", "3", *abc]) == 1
    err = capsys.readouterr().err
    assert re.match(r"analysis error: metric component g_x[xy] or its partials overflowed", err)
    assert "[at sample 0, stage metric]" in err
    assert "Traceback" not in err


def test_non_finite_inverse_and_frame_name_sample_and_stage(tmp_path, capsys):
    """A metric whose determinant overflows although its components do not,
    a t-field that overflows and a tetrad component that is nan end as
    errors of the metric or frame stage at the first sample: no traceback,
    no nan in the output, no RuntimeWarning."""
    import warnings

    def general(metric, tetrad=None):
        text = "[metric]\nkind = general\n" + "".join(f"g_{key} = {value}\n" for key, value in metric.items())
        if tetrad:
            text += "[tetrad]\n"
            text += "".join(f"{name}{i} = {e}\n" for name, vec in tetrad.items() for i, e in enumerate(vec))
        return text

    zero = dict.fromkeys(("uv", "ux", "uy", "vx", "vy", "xy"), 0)
    block = dict(uu=0, uv=0, ux=1, uy=0, vv=0, vx=0, vy=1, xx="u^2", xy="u", yy="v^2")
    m = ("u/2", "v^2/2", 0, "-1*1e300*1e300*0")  # m3 is nan
    tetrad = dict(l=(1, 0, 0, 0), n=("-u^2/2", "-u/2", 1, 0), m=m, mt=(0, 1, 0, 0))
    cases = {
        "determinant": (
            general({**zero, "uu": "1e100*(1+u*u)", "vv": "1e100", "xx": "-1e100", "yy": "-1e100"}),
            "metric determinant or inverse overflowed",
            "metric",
        ),
        "t_field": (
            "[metric]\nkind = walker\na = u^2\nb = v^2\nc = u\n[lambda]\nt0 = 1e300*u*1e300\nt1 = 1\n",
            "t-field component t0 or its partials are not finite",
            "frame",
        ),
        "tetrad": (general(block, tetrad), "tetrad component m3 or its partials are not finite", "frame"),
    }
    for case, (text, reason, stage) in cases.items():
        path = tmp_path / f"{case}.ini"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["analyze", "--spec", str(path), "--points", "3"]) == 1, case
        out, err = capsys.readouterr()
        assert err.startswith(f"analysis error: {reason} [at sample 0, stage {stage}]"), case
        assert "Traceback" not in err and not re.search(r"\bnan\b", out + err, re.I), case


def test_nan_tetrad_defect_fails_the_tetrad_stage(monkeypatch):
    """A tetrad normalization defect that is nan fails the check."""
    from nullplane.lab import analyze

    spec = mk_walker(u**2, v**2, u).spec
    monkeypatch.setattr(analyze, "tetrad_max_defect", lambda mj, frame: math.nan)
    monkeypatch.setattr(analyze, "_tetrad_defects", lambda mj, frame: np.array([0.0, math.nan, 0.0]))
    with pytest.raises(NullplaneError, match=r"defect nan exceeds .* \[at sample 1, stage tetrad\]"):
        run_analysis(AnalysisConfig(spec=spec, points=3))


@pytest.mark.parametrize("stage", ["metric", "frame", "tetrad"])
def test_error_names_global_sample_and_stage(stage, tmp_path):
    """An error in a later chunk names the sample by its index in the whole
    run, not in its chunk, and the stage that failed.  Only the sample with
    the smallest u fails: t lies between the two smallest sampled u."""
    from nullplane.exprkit import parse_expr
    from nullplane.lab import analyze

    points = 300
    assert -(-points // analyze._CHUNK_POINTS) == 2  # chunks of 150

    def config(seed, metric="u^2", l0="exp(-y/4)"):
        if stage == "metric":
            spec = mk_walker(parse_expr(metric), v**2, u).spec
            return AnalysisConfig(spec=spec, points=points, seed=seed)
        path = tmp_path / "general.ini"
        path.write_text(GENERAL_SPEC.replace("l0 = exp(-y/4)", f"l0 = {l0}"))
        cfg = load_spec_file(str(path))
        cfg.points, cfg.seed = points, seed
        return cfg

    seed = next(s for s in range(100) if np.argmin(sample_points(config(s))[:, 0]) >= analyze._CHUNK_POINTS)
    pts = sample_points(config(seed))
    index = int(np.argmin(pts[:, 0]))
    lo = np.sort(pts[:, 0])[:2]
    t, k = f"{(lo[0] + lo[1]) / 2:.17g}", f"{50.0 / (lo[1] - lo[0]):.17g}"
    broken = {
        "metric": {"metric": f"ln(u - {t})"},
        "frame": {"l0": f"exp(-y/4) + ln(u - {t}) - ln(u - {t})"},
        # l scaled by 1 + e^25 at the sample, by 1 + e^-25 or less elsewhere
        "tetrad": {"l0": f"(1 + exp({k} * ({t} - u))) * exp(-y/4)"},
    }[stage]
    with pytest.raises(NullplaneError) as info:
        run_analysis(config(seed, **broken))
    where = f"[at point {pts[index].tolist()}]"
    assert str(info.value).endswith(f" [at sample {index}, stage {stage}] {where}")


@pytest.mark.parametrize("stage", ["generators-param", "generators-rank", "walker_part", "box"])
def test_later_stage_error_names_global_sample_and_stage(stage, monkeypatch):
    """The t-field values and the generators (a t-field that vanishes at a
    sample, or is small enough there for the 3-plane H to lose rank), the
    conformal_walker walker part's metric and the box of chi name the
    failing sample by its index in the whole run and the stage.  No
    conformal_walker metric fails only in its walker part or its box, so
    those two are made to fail at the sample with the smallest u."""
    from nullplane.errors import DomainError, at_point
    from nullplane.exprkit import parse_expr
    from nullplane.frames import ProjParam
    from nullplane.lab import analyze

    points = 300
    conformal = stage in ("walker_part", "box")

    def config(seed, t_field=None):
        if conformal:
            _, h_inst, t_field = mk_cp_example(x * y)
            return AnalysisConfig(spec=h_inst.spec, t_field=t_field, points=points, seed=seed, exclude=(("v", 0.0),))
        return AnalysisConfig(spec=mk_walker(u**2, v**2, u).spec, t_field=t_field, points=points, seed=seed)

    seed = next(s for s in range(100) if np.argmin(sample_points(config(s))[:, 0]) >= analyze._CHUNK_POINTS)
    pts = sample_points(config(seed))
    index = int(np.argmin(pts[:, 0]))
    lo = np.sort(pts[:, 0])[:2]
    reason = "made to fail"
    if stage == "generators-param":  # both components vanish at the sample
        cfg = config(seed, ProjParam.of(parse_expr(f"u - {float(lo[0])!r}"), 0))
        reason = "both projective components vanish at a sampled point"
    elif stage == "generators-rank":  # t0 = -2e-12 at the sample: H loses rank, t passes
        cfg = config(seed, ProjParam.of(parse_expr(f"u - {float(lo[0]) + 2e-12!r}"), 0))
        reason = "generators have rank < 3"
    else:
        cfg = config(seed)
        name = {"walker_part": "metric_jet", "box": "box_scalar"}[stage]
        original = getattr(analyze, name)

        def failing(first, *args):
            # metric_jet(spec, cache) or box_scalar(pack, chi), raising as a per-point check does
            at = args[0].points if name == "metric_jet" else first.points
            low = np.flatnonzero(at[:, 0] < lo.mean())
            if (stage == "box" or first.kind == "walker") and low.size:
                raise at_point(DomainError, reason, at, low[0])
            return original(first, *args)

        monkeypatch.setattr(analyze, name, failing)
    with pytest.raises(NullplaneError) as info:
        run_analysis(cfg)
    where = f"[at point {pts[index].tolist()}]"
    assert str(info.value) == f"{reason} [at sample {index}, stage {stage.split('-')[0]}] {where}"


def test_first_check_to_fail_names_its_first_row(monkeypatch):
    """The sample named is the first failing row of the first check to fail.
    a (g_xx) is evaluated before b (g_yy), so the ln in a names its sample
    i, although b divides by zero at the earlier sample j.  The chunk's
    metric is evaluated once: no point is evaluated again on its own."""
    from nullplane.exprkit import parse_expr
    from nullplane.lab import analyze
    from nullplane.tensor import MetricSpec

    cfg = AnalysisConfig(spec=MetricSpec.walker(u**2, v**2, u), points=20)
    pts = sample_points(cfg)
    i, j = 11, 3
    a = parse_expr(f"ln((u - {float(pts[i, 0])!r})^2)")
    cfg.spec = MetricSpec.walker(a, parse_expr(f"1/(v - {float(pts[j, 1])!r})"), u)
    calls = []
    original = analyze.metric_jet
    monkeypatch.setattr(analyze, "metric_jet", lambda spec, p: calls.append(spec) or original(spec, p))
    with pytest.raises(NullplaneError) as info:
        run_analysis(cfg)
    where = f"[at sample {i}, stage metric] [at point {pts[i].tolist()}]"
    assert str(info.value) == f"ln of non-positive value in subexpression '{a}' {where}"
    assert len(calls) == 1


def test_adapted_middle_coeff_matches_factored_quartic():
    """Oracle: a quartic lead * prod_i (t1 - tau_i t0), with coefficient c_k
    on t0^(4-k) t1^k, becomes prod_i ((a1 - tau_i a0) + (b1 - tau_i b0) s)
    under t0 = a0 + b0 s, t1 = a1 + b1 s; the middle coefficient is that
    product's s^2 coefficient."""
    from numpy.polynomial import polynomial as npoly

    from nullplane.lab.analyze import _adapted_middle_coeff

    rng = np.random.default_rng(5)
    npts = 40
    taus = rng.uniform(-2.0, 2.0, (npts, 4))
    lead = rng.choice([-1.0, 1.0], npts) * rng.uniform(0.5, 2.0, npts)
    coeffs = lead[:, None] * np.array([npoly.polyfromroots(tau) for tau in taus])
    tvals = rng.normal(size=(2, npts))
    tvals[0, :4] = 0.0
    tvals[1, 4:8] = 0.0
    tvals[:, 8:12] = [[1.5, -1.5, -0.5, 0.5], [-2.0, 2.0, -3.0, 3.0]]

    got = _adapted_middle_coeff(coeffs, tvals)
    for p in range(npts):
        b0, b1 = tvals[:, p] / np.hypot(*tvals[:, p])
        a0, a1 = b1, -b0
        product = np.array([lead[p]])
        for tau in taus[p]:
            product = npoly.polymul(product, [a1 - tau * a0, b1 - tau * b0])
        assert abs(got[p] - product[2]) <= 1e-13 * np.max(np.abs(coeffs[p])), p

    vertical = np.tile([[0.0], [1.0]], (1, npts))
    np.testing.assert_array_equal(_adapted_middle_coeff(coeffs, vertical), coeffs[:, 2])


def test_one_metric_and_connection_evaluation_per_chunk(monkeypatch, tmp_path):
    """Each chunk evaluates each metric and its connection once, and their
    Leibniz products are stacked: a metric's determinant and adjugate take
    10 mul_coeffs calls, its connection 1, and a conformal_walker's chi^2
    factor 2 more (the entrywise expansion took 148 and 4)."""
    import importlib

    frames = importlib.import_module("nullplane.frames")
    analyze = importlib.import_module("nullplane.lab.analyze")
    # nullplane.tensor re-exports the function curvature under the module's name
    tcurv = importlib.import_module("nullplane.tensor.curvature")
    tmetric = importlib.import_module("nullplane.tensor.metric")
    weylalg = importlib.import_module("nullplane.weylalg")

    counts = {"metric_jet": 0, "christoffel": 0, "mul_coeffs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (analyze, frames, tcurv, weylalg):
        monkeypatch.setattr(module, "metric_jet", counted("metric_jet", module.metric_jet))
    for module in (frames, tcurv):
        monkeypatch.setattr(module, "christoffel", counted("christoffel", module.christoffel))
    for module in (tmetric, tcurv):
        monkeypatch.setattr(module, "mul_coeffs", counted("mul_coeffs", module.mul_coeffs))

    # a conformal_walker chunk evaluates two metrics, the metric and its walker
    # part; box_scalar reads the walker part's pack
    want = {
        "walker": {"metric_jet": 1, "christoffel": 1, "mul_coeffs": 11},
        "general": {"metric_jet": 1, "christoffel": 1, "mul_coeffs": 11},
        "conformal_walker": {"metric_jet": 2, "christoffel": 2, "mul_coeffs": 24},
    }
    for case, cfg in _shared_evaluation_configs(tmp_path).items():
        counts.update(metric_jet=0, christoffel=0, mul_coeffs=0)
        run_analysis(cfg)
        assert counts == want[case], case


@pytest.mark.parametrize("case", ["walker", "conformal_walker", "general"])
def test_one_frame_evaluation_per_chunk(case, monkeypatch, tmp_path):
    """Every structurally distinct expression node is evaluated at most once
    per chunk, by all consumers together: the metric, the walker part, both
    frames, the generators, the box of chi and its closed form all evaluate
    in the chunk's one jet cache.  Each tetrad and t-field component is
    among the nodes evaluated; reading a kept jet is not an evaluation."""
    import collections
    import importlib

    jets = importlib.import_module("nullplane.exprkit.jets")
    frames = importlib.import_module("nullplane.frames")
    analyze = importlib.import_module("nullplane.lab.analyze")

    cfg = _shared_evaluation_configs(tmp_path)[case]
    components = [cfg.t_field.t0, cfg.t_field.t1]

    def track(tet):
        components.extend(comp for vec in tet.vectors().values() for comp in vec)
        return tet

    if cfg.tetrad is not None:
        track(cfg.tetrad)
    monkeypatch.setattr(analyze, "walker_tetrad", lambda spec: track(frames.walker_tetrad(spec)))

    counts: collections.Counter = collections.Counter()  # (cache, structural key) -> evaluations
    jet = jets.JetCache.jet

    def counted(cache, e, order, *args):
        kept = cache._kept.get(cache.keys.key(e))
        if kept is None or len(kept) < jets.n_coeffs(order):  # not a read of a kept jet
            counts[cache, cache.keys.key(e)] += 1
        return jet(cache, e, order, *args)

    monkeypatch.setattr(jets.JetCache, "jet", counted)
    assert cfg.points <= analyze._CHUNK_POINTS  # one chunk
    run_analysis(cfg)
    (cache,) = {cache for cache, _ in counts}
    assert len(components) == {"walker": 18, "conformal_walker": 34, "general": 18}[case]
    assert {(cache, cache.keys.key(comp)) for comp in components} <= counts.keys()
    assert max(counts.values()) == 1


def test_roots_classified_once_per_chunk_and_side(monkeypatch, tmp_path):
    """The pipeline hands root_structure each chunk's form of one side as one
    batch: P = 600 makes three chunks of 200, so six calls."""
    import importlib

    from nullplane.weylalg import QuarticForm

    analyze = importlib.import_module("nullplane.lab.analyze")
    original = analyze.root_structure
    calls = []

    def recorded(form, *args, **kwargs):
        calls.append((type(form), form.side, form.coeffs.shape))
        return original(form, *args, **kwargs)

    monkeypatch.setattr(analyze, "root_structure", recorded)
    cfg = _shared_evaluation_configs(tmp_path)["walker"]
    cfg.points = 600
    run_analysis(cfg)
    assert calls == [(QuarticForm, "SD", (200, 5)), (QuarticForm, "ASD", (200, 5))] * 3


@pytest.mark.parametrize("case", ["walker", "conformal_walker", "general"])
def test_one_weyl_quartic_call_per_chunk(case, monkeypatch, tmp_path):
    """One weyl_quartic call gives both sides of a chunk; a conformal_walker
    chunk makes a second one for its walker part.  P = 500 makes two chunks."""
    import importlib

    analyze = importlib.import_module("nullplane.lab.analyze")
    original = analyze.weyl_quartic
    shapes = []

    def recorded(*args, **kwargs):
        forms = original(*args, **kwargs)
        shapes.append({side: form.coeffs.shape for side, form in forms.items()})
        return forms

    monkeypatch.setattr(analyze, "weyl_quartic", recorded)
    cfg = _shared_evaluation_configs(tmp_path)[case]
    cfg.points = 500
    run_analysis(cfg)
    per_chunk = 2 if case == "conformal_walker" else 1
    assert shapes == [{"SD": (250, 5), "ASD": (250, 5)}] * (2 * per_chunk)


def test_report_json_roundtrip():
    cfg = AnalysisConfig(spec=mk_two_sided(u**2, v**2, u).spec, points=4, seed=1)
    report = run_analysis(cfg)
    parsed = json.loads(report.to_json())
    assert parsed["verdict"] == "yes"
    assert parsed["tool"]["name"] == "nullplane"
    assert "generated_at" in parsed
    assert len(parsed["points"]) == 4


def test_report_outputs_are_the_bytes_of_json_dumps(monkeypatch, tmp_path, capsys):
    """Reports of every shape (walker at P = 1, 12 and 251, which is two
    chunks; conformal_walker, with box_chi; general-kind with a [tetrad] and
    without one, which has no frames), the cp pair printed by the CLI and
    the selftest listing are laid out as json.dumps lays out the same
    document.  The selftest runs without criterion 01, the finite-difference
    check; its row has the same fields as the others."""
    import copy
    import hashlib
    import importlib

    selftest_mod = importlib.import_module("nullplane.lab.selftest")
    report_mod = importlib.import_module("nullplane.lab.report")

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def as_json_dumps(doc):
        return json.dumps(doc, sort_keys=True, indent=2)

    configs = _shared_evaluation_configs(tmp_path)
    for points in (1, 251):
        configs[f"walker-{points}"] = copy.copy(configs["walker"])
        configs[f"walker-{points}"].points = points
    path = tmp_path / "no_frames.ini"
    path.write_text(GENERAL_SPEC[: GENERAL_SPEC.index("[tetrad]")])
    configs["general-no-frames"] = load_spec_file(str(path))
    configs["general-no-frames"].points = 5
    shapes = {
        "walker": "quartic_sd",
        "walker-1": "quartic_sd",
        "walker-251": "quartic_sd",
        "conformal_walker": "box_chi",
        "general": "quartic_sd",
        "general-no-frames": None,
    }
    assert set(configs) == set(shapes)
    for case, key in shapes.items():
        report = run_analysis(configs[case])
        assert len(report.point_records) == configs[case].points
        assert all(key in rec for rec in report.point_records) if key else "residuals" not in report.point_records[0]
        text = report.to_json(with_timestamp=False)
        assert digest(text) == digest(as_json_dumps(report.to_dict(with_timestamp=False)))
        text = report.to_json()
        assert digest(text) == digest(as_json_dumps(json.loads(text)))

    assert main(["family", "--name", "cp", "--F", "x*y", "--points", "5"]) == 0
    out = capsys.readouterr().out
    assert set(json.loads(out)) == {"cp_g", "cp_h"}
    assert digest(out) == digest(as_json_dumps(json.loads(out)) + "\n")
    # the pair's writer against json.dumps of the same reports, one timestamp for all
    monkeypatch.setattr(report_mod.time, "strftime", lambda fmt, t: "2026-01-01T00:00:00Z")
    g_inst, h_inst, t_field = mk_cp_example(x * y)
    pair = {
        inst.name: run_analysis(AnalysisConfig(spec=inst.spec, t_field=t_field, points=5, exclude=(("v", 0.0),)))
        for inst in (g_inst, h_inst)
    }
    text = _write_reports(pair)
    assert digest(text) == digest(as_json_dumps({name: r.to_dict() for name, r in pair.items()}))

    monkeypatch.setattr(selftest_mod, "CRITERIA", selftest_mod.CRITERIA[1:])
    assert selftest_mod.selftest("json") == 0
    out = capsys.readouterr().out
    assert [row["id"] for row in json.loads(out)] == [f"c{i:02d}" for i in range(2, 14)]
    assert digest(out) == digest(as_json_dumps(json.loads(out)) + "\n")


@pytest.mark.parametrize(
    "source",
    [
        "-100000000000000000000",
        "-100000000000000000001",
        "x: -100000000000000000000,\n  y",
        "-100000000000000000000\n",
        "\x000\x00",
        "%s %% \x001\x00",
        'x\n  "points": []\n    "points": [],',
    ],
)
def test_report_strings_that_look_like_template_slots(source, monkeypatch):
    """A config string that reads like a placeholder of the report's
    templates is written as json.dumps writes it, by to_json and by the
    cp-pair writer."""
    report = run_analysis(AnalysisConfig(spec=mk_walker(u**2, v**2, u).spec, points=3, source=source))
    assert report.config["source"] == source
    _assert_laid_out_as_json_dumps(report, source, monkeypatch)


@pytest.mark.parametrize("bound", [-(10**20), -(10**20) - 1, -2 * 10**20 + 1])
def test_report_integer_box_bounds_that_look_like_template_slots(bound, monkeypatch):
    """The config echo writes an integer box bound as given; one that reads
    like a placeholder of the report's templates is still written as
    json.dumps writes it.  numpy samples no box with such bounds, so the
    bound is put into the config of a report made on another box."""
    report = run_analysis(AnalysisConfig(spec=mk_walker(u**2, v**2, u).spec, points=3))
    report = dataclasses.replace(report, config={**report.config, "box": [[bound, 0]] * 4})
    _assert_laid_out_as_json_dumps(report, "a", monkeypatch)


@pytest.mark.parametrize("where", ["config", "nested config", "flags"])
def test_report_points_keys_below_the_documents_own(where, monkeypatch):
    """An empty "points" list in the config echo or in the flags is written
    as json.dumps writes it: the writer puts the records only at the
    document's own "points" line, which sits at a shallower indent."""
    report = run_analysis(AnalysisConfig(spec=mk_walker(u**2, v**2, u).spec, points=3))
    if where == "config":
        report = dataclasses.replace(report, config={**report.config, "points": []})
    elif where == "nested config":
        report = dataclasses.replace(report, config={**report.config, "box": {"points": [], "x": {"points": []}}})
    else:
        report = dataclasses.replace(report, flags={**report.flags, "points": []})
    _assert_laid_out_as_json_dumps(report, "points", monkeypatch)


def _write_reports(reports: dict) -> str:
    """What write_reports writes of reports, as one string."""
    out = io.StringIO()
    write_reports(out, reports)
    return out.getvalue()


def _assert_laid_out_as_json_dumps(report, name, monkeypatch):
    """to_json, and the cp-pair writer with the report under name and "b",
    give the bytes json.dumps lays out from to_dict()."""
    import nullplane.lab.report as report_mod

    monkeypatch.setattr(report_mod.time, "strftime", lambda fmt, t: "2026-01-01T00:00:00Z")
    assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2)
    pair = _write_reports({name: report, "b": report})
    assert pair == json.dumps({name: report.to_dict(), "b": report.to_dict()}, sort_keys=True, indent=2)


def test_report_written_from_hand_built_columns():
    """Columns with nan, +-inf and -0.0, and root tables holding every type
    and entry kind, some with non-finite or negative-zero values: to_json
    and the cp-pair writer give the bytes json.dumps writes of the records
    the columns make."""
    from nullplane.lab.report import Report
    from nullplane.weylalg import RootTable

    nan, inf = math.nan, math.inf
    real, pair, at_inf = 2, 0, 1  # indices into weylalg.ROOT_KINDS
    rows = [  # (type code, [(kind, value, multiplicity), ...])
        (0, []),
        (4, [(real, nan, 4)]),
        (31, [(at_inf, 0j, 1), (real, -0.0, 3)]),
        (22, [(pair, 1 + 2j, 2)]),
        (211, [(real, 0.5, 2), (real, inf, 1), (real, -inf, 1)]),
        (1111, [(pair, complex(-0.0, 1.0), 1), (real, 2.0, 1), (real, -1e-300, 1)]),
        (1111, [(pair, 0.25 + 1e300j, 1), (pair, complex(nan, 3.0), 1)]),
        (211, [(at_inf, 0j, 2), (real, 1.0, 1), (real, 5e-324, 1)]),
    ]
    table = RootTable(
        np.array([code for code, _ in rows]),
        np.array([[e[0] for e in entries] + [-1] * (4 - len(entries)) for _, entries in rows]),
        np.array([[e[1] for e in entries] + [0j] * (4 - len(entries)) for _, entries in rows]),
        np.array([[e[2] for e in entries] + [0] * (4 - len(entries)) for _, entries in rows]),
    )
    count = len(rows)
    specials = [nan, inf, -inf, -0.0, 0.0, 1e-300, 123456.789, -2.5]

    def column(shift):
        return [specials[(p + shift) % len(specials)] for p in range(count)]

    columns = {
        "point": [[column(0)[p], column(1)[p], 0.5, -0.0] for p in range(count)],
        "scalar": column(2),
        "einstein": column(3),
        "ricci_null": column(4),
        "rps_disc": column(5),
        "SD_coeffs": [[column(k)[p] for k in range(5)] for p in range(count)],
        "ASD_coeffs": [[1.0, 2.0, 3.0, 4.0, 5.0]] * count,  # all finite
        "SD_roots": table,
        "ASD_roots": table[::-1],
        "obstruction": column(6),
        "box_chi_generic": column(7),
        "box_chi_closed": [0.1] * count,
    }
    for i, name in enumerate("DZWH"):
        for j, kind in enumerate(("frobenius", "autoparallel", "parallel")):
            columns[name, kind] = column(3 * i + j)
    report = Report({"points": count, "seed": 0, "source": "hand"}, None, columns, {"SD": None}, "no", "hand-built")
    assert [rec["quartic_sd"]["roots"]["type"] for rec in report.point_records] == [
        "O", "{4}", "{31}", "{22}", "{211}", "{1111}", "{1111}", "{211}"
    ]
    assert report.point_records[2]["quartic_sd"]["roots"]["roots"] == [
        {"kind": "inf", "value": None, "multiplicity": 1},
        {"kind": "real", "value": -0.0, "multiplicity": 3},
    ]
    assert report.to_json(with_timestamp=False) == json.dumps(report.to_dict(with_timestamp=False), sort_keys=True, indent=2)
    text = _write_reports({"a": report, "b": report})
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2)
    assert json.dumps(json.loads(text)["b"]["points"], sort_keys=True) == json.dumps(report.point_records, sort_keys=True)
    # the same columns as float arrays, as run_analysis hands them over
    arrays = {key: col if isinstance(col, RootTable) else np.array(col) for key, col in columns.items()}
    as_arrays = Report(report.config, None, arrays, report.flags, "no", "hand-built")
    assert as_arrays.to_json(with_timestamp=False) == report.to_json(with_timestamp=False)
    stamp = re.compile(r'"generated_at": "[^"]*"')
    assert stamp.sub("", _write_reports({"a": as_arrays, "b": as_arrays})) == stamp.sub("", text)
    assert as_arrays.to_text() == report.to_text()


def _text_from_records(report) -> str:
    """Report.to_text as it read the first point from point_records."""
    lines = [f"nullplane 0.1.0 analysis of {report.config.get('source', '?')}"]
    lines.append(f"  points: {report.config['points']}  seed: {report.config['seed']}")
    if report.kappa is not None:
        lines.append(f"  calibration constant: {report.kappa:.12g}")
    lines.append("  flags:")
    width = max(len(k) for k in report.flags)
    for key in sorted(report.flags):
        lines.append(f"    {key:<{width}}  {report.flags[key]}")
    lines.append(f"  verdict: {report.verdict}   ({report.verdict_reason})")
    if report.point_records:
        rec = report.point_records[0]
        lines.append("  first sampled point:")
        lines.append(f"    point: {rec['point']}")
        lines.append(f"    scalar_curvature: {rec['scalar_curvature']:.6g}")
        if rec.get("quartic_sd"):
            lines.append(f"    SD quartic type: {rec['quartic_sd']['roots']['type']}")
            lines.append(f"    ASD quartic type: {rec['quartic_asd']['roots']['type']}")
    return "\n".join(lines)


def test_text_report_reads_the_columns_not_the_records(monkeypatch, tmp_path, capsys):
    """to_text builds no per-point records, and writes what it wrote from
    them: for a walker report, a general report without frames, and the cp
    pair."""
    import nullplane.lab.cli as cli

    reports = []

    def recorded(cfg):
        reports.append(run_analysis(cfg))
        return reports[-1]

    monkeypatch.setattr(cli, "run_analysis", recorded)
    a, b, c = random_polys(75_000, 2, ("u", "v", "x", "y"), 3)
    path = tmp_path / "general.ini"
    path.write_text(GENERAL_SPEC.split("[tetrad]")[0])
    runs = (
        ["family", "--name", "walker", f"--a={a}", f"--b={b}", f"--c={c}", "--points", "300"],
        ["analyze", "--spec", str(path), "--points", "7"],
        ["family", "--name", "cp", "--F", "x*y", "--points", "5"],
    )
    for argv in runs:
        assert main(argv + ["--format", "text"]) == 0
        printed = capsys.readouterr().out
        assert all("point_records" not in report.__dict__ for report in reports)
        assert printed == "\n\n".join(_text_from_records(report) for report in reports) + "\n"
        reports.clear()
    assert "SD quartic type" not in _text_from_records(run_analysis(load_spec_file(str(path))))


# ---------------------------------------------------------------------------
# CLI


def test_cli_analyze_json(spec_file, capsys):
    code = main(["analyze", "--spec", spec_file, "--points", "5", "--seed", "42", "--format", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "yes"
    assert out["config"]["points"] == 5


def test_cli_analyze_text(spec_file, capsys):
    code = main(["analyze", "--spec", spec_file, "--points", "4", "--format", "text"])
    assert code == 0
    assert "verdict: yes" in capsys.readouterr().out


def test_cli_family_text_report(capsys):
    """The text report gives each instance's verdict and flags, and no
    jet order (no option sets one)."""
    argv = ["family", "--name", "cp", "--F", "x*y", "--points", "4"]
    assert main(argv) == 0
    reports = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "order:" not in text
    for report in reports.values():
        assert f"verdict: {report['verdict']}" in text
        for key, value in report["flags"].items():
            assert re.search(rf"^ +{key} +{value}$", text, re.MULTILINE), key


def test_cli_parser_built_once_gives_the_same_runs(spec_file, capsys, monkeypatch):
    """main builds its argument parser once per process.  An analyze, a
    family and a rejected argv, run in turn, print and exit as they do with
    a parser built afresh for each call."""
    from nullplane.lab import cli

    argvs = (
        ["analyze", "--spec", spec_file, "--points", "3"],
        ["family", "--name", "walker", "--a", "u^2", "--b", "v^2", "--c", "u", "--points", "3", "--format", "text"],
        ["family", "--name", "walker", "--points", "many"],
    )

    def runs():
        results = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            out, err = capsys.readouterr()
            results.append((code, re.sub(r'.*"generated_at".*', "", out), err))
        return results

    cached = runs()
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert runs() == cached
    assert [code for code, _, _ in cached] == [0, 0, 2]


def test_analyses_leave_no_memory_behind():
    """Expressions are keyed once per analysis, and the key table goes when
    the analysis returns: after the 10th of 40 walker analyses of distinct
    degree-2 polynomials, traced memory grows by less than 1 MB.  A table
    kept at module level grows by about 1.7 MB here."""
    import contextlib
    import gc
    import io
    import itertools
    import tracemalloc

    monomials = ["*".join(m) for d in (1, 2) for m in itertools.combinations_with_replacement("uvxy", d)]

    def analyze(i):
        a, b, c = (
            " + ".join(f"{((37 * i + 11 * k + j) % 97 + 1) / 50}*{m}" for j, m in enumerate(monomials)) for k in range(3)
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["family", "--name", "walker", "--a", a, "--b", b, "--c", c, "--points", "3"]) == 0

    for i in range(9):
        analyze(i)
    tracemalloc.start()  # what the 10th and later analyses leave behind
    try:
        traced = []
        for i in range(9, 40):
            analyze(i)
            if i in (9, 39):
                gc.collect()
                traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert traced[1] - traced[0] < 1_000_000


def test_report_writer_holds_less_than_its_output():
    """Report.write holds the columns' value streams and one record at a
    time: writing a P=1000 walker report into a sink that keeps nothing
    traces a peak of at most 1.2 times the output's length (0.93 for this
    report; building the whole text first, as one string, traces 2.2)."""
    import tracemalloc

    spec = mk_walker(u**2 * x + y * v, v**2 + x * y, u * v + x).spec
    report = run_analysis(AnalysisConfig(spec=spec, points=1000))

    class Sink:
        length = 0

        def write(self, text):
            self.length += len(text)

    sink = Sink()
    tracemalloc.start()
    try:
        report.write(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.length == len(report.to_json())
    assert peak <= 1.2 * sink.length


def test_cli_closed_stdout_exits_141():
    """A reader that closes the pipe early gets exit status 141
    (128 + SIGPIPE) and nothing on stderr."""
    import os
    import subprocess
    import sys

    import nullplane

    src = os.path.dirname(os.path.dirname(nullplane.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["family", "--name", "cp", "--F", "x*y", "--points", "200"]
    with subprocess.Popen(
        [sys.executable, "-m", "nullplane.lab.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


def test_cli_analyze_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[metric]\nkind = walker\na = u^\nb = 0\nc = 0\n")
    assert main(["analyze", "--spec", bad.as_posix()]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_analyze_missing_file(capsys):
    assert main(["analyze", "--spec", "/nonexistent.ini"]) == 2


def test_cli_family_cp(capsys):
    code = main(["family", "--name", "cp", "--F", "x*y", "--points", "6", "--format", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"cp_g", "cp_h"}
    assert out["cp_g"]["verdict"] == "no:H"
    assert out["cp_h"]["verdict"] == "no:H"


def test_cli_family_two_sided(capsys):
    code = main(
        ["family", "--name", "two_sided", "--a", "u^2", "--b", "v^2", "--c", "u", "--points", "5", "--format", "json"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "yes"


def test_cli_family_random_sd(capsys):
    code = main(["family", "--name", "sd2015", "--seed", "7", "--degree", "2", "--points", "5", "--format", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["flags"]["SD"] is True


def test_cli_family_missing_argument(capsys):
    assert main(["family", "--name", "two_sided"]) == 2


def test_cli_family_constraint_violation_is_analysis_error(capsys):
    code = main(["family", "--name", "two_sided", "--a", "v", "--b", "0", "--c", "0"])
    assert code == 1


def test_cli_t_field_override(spec_file, capsys):
    code = main(["analyze", "--spec", spec_file, "--t0", "u", "--t1", "v", "--points", "4", "--format", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["config"]["lambda"] == {"t0": "u", "t1": "v"}


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--name", "cp", "--F", "x*y", "--seed", "-1"],
        ["family", "--name", "sd2015", "--seed", "-1"],
        ["family", "--name", "sd2015", "--degree", "5"],
        ["family", "--name", "left_flat", "--degree", "-1"],
    ],
    ids=["negative_seed", "negative_seed_random_family", "degree_5", "negative_degree"],
)
def test_cli_rejects_bad_seed_or_degree(argv, capsys):
    assert main(argv + ["--points", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--box", "0,inf", "not finite"),
        ("--box", "-inf,1", "not finite"),
        ("--box", "nan,1", "not finite"),
        ("--box", "-1e308,1e308", "not finite"),
        ("--exclude", "v=nan", "not finite"),
        ("--exclude", "u=inf", "not finite"),
        ("--box", "1,1", "is empty"),
    ],
)
def test_cli_rejects_non_finite_box_or_exclusion(flag, value, message, capsys):
    argv = ["family", "--name", "walker", "--a", "u", "--b", "v", "--c", "0", f"{flag}={value}", "--points", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "domain, message",
    [
        ("box = 0, inf", "not finite"),
        ("box_v = -inf, 1", "not finite"),
        ("box_u = nan, 1", "not finite"),
        ("exclude = v=nan", "not finite"),
        ("exclude = v=0; x=-inf", "not finite"),
    ],
)
def test_spec_file_rejects_non_finite_domain(domain, message, tmp_path, capsys):
    path = tmp_path / "domain.ini"
    path.write_text(GOOD_SPEC.replace("box = 0.5, 1.5", domain))
    with pytest.raises(ConfigError, match=message):
        load_spec_file(str(path))
    assert main(["analyze", "--spec", str(path), "--points", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_WALKER_TETRAD = GENERAL_SPEC[GENERAL_SPEC.index("[tetrad]") :]


@pytest.mark.parametrize(
    "text, section, key",
    [
        (GOOD_SPEC + "exlude = v=1\n", "domain", "exlude"),
        (GOOD_SPEC + "box_z = 0, 1\n", "domain", "box_z"),
        (GOOD_SPEC.replace("[lambda]", "[lamda]"), "lamda", None),
        (GOOD_SPEC.replace("c = u\n", "c = u\nchi = 1/v\n"), "metric", "chi"),
        (GOOD_SPEC.replace("c = u\n", "c = u\ng_uu = 7\n"), "metric", "g_uu"),
        (GOOD_SPEC + "\n" + _WALKER_TETRAD, "tetrad", None),
        ("[DEFAULT]\nchi = 1/v\n" + GOOD_SPEC, "DEFAULT", "chi"),
        (GENERAL_SPEC + "l4 = 0\n", "tetrad", "l4"),
    ],
    ids=["domain-typo", "box_z", "lamda", "walker-chi", "walker-g_uu", "walker-tetrad", "default-section", "tetrad-l4"],
)
def test_spec_file_rejects_sections_and_keys_it_does_not_read(text, section, key, tmp_path, capsys):
    path = tmp_path / "unread.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_spec_file(str(path))
    assert f"[{section}]" in str(err.value)
    if key is not None:
        assert repr(key) in str(err.value)
    assert main(["analyze", "--spec", str(path), "--points", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_COVERED = ";".join(f"u={0.03 * k:.2f}" for k in range(35))  # margins of 0.02 around every 0.03 of u


@pytest.mark.parametrize(
    "args, text, message",
    [
        (["--exclude", "v0"], None, "exclude entries look like 'v=0', got 'v0'"),
        (["--exclude", "z=0"], None, "exclude coordinate 'z' unknown"),
        (["--exclude", "v=zero"], None, "exclude value in 'v=zero' is not a number"),
        ([], "[metric\nkind = walker\n", "malformed spec file {path}: "),
        ([], "[lambda]\nt0 = 0\n", "spec file needs a [metric] section"),
        ([], GENERAL_SPEC[: GENERAL_SPEC.index("mt3")], "tetrad section needs component mt3"),
        (["--box", "1"], None, "interval must be 'lo, hi', got '1'"),
        (["--box", "a,b"], None, "interval bounds in 'a,b' are not numbers"),
        (["--points", "0"], None, "point count must be positive"),
        (["--box", "0,1", "--exclude", _COVERED], None, "could not sample the box away from excluded loci"),
    ],
    ids=[
        "exclude-syntax", "exclude-coordinate", "exclude-value", "malformed-file", "no-metric-section",
        "tetrad-component", "interval-syntax", "interval-bounds", "no-points", "box-excluded",
    ],
)
def test_cli_configuration_errors(args, text, message, tmp_path, capsys):
    """Each configuration error exits 2 with its message, from a command-line
    option or from the spec file."""
    path = tmp_path / "spec.ini"
    path.write_text(GOOD_SPEC if text is None else text)
    assert main(["analyze", "--spec", str(path), "--points", "3", *args]) == 2
    assert capsys.readouterr().err.startswith("error: " + message.format(path=path))


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["analyze"])  # missing --spec
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# selftest plumbing


def test_selftest_mutation_detection():
    """Perturbing the self-dual family's off-diagonal component by 0.01 u^3
    must break the anti-self-dual vanishing that the family guarantees."""
    from nullplane.exprkit.calculus import add_, mul_
    from nullplane.exprkit import Num, parse_expr
    from nullplane.frames import walker_tetrad
    from nullplane.tensor import MetricSpec, curvature, metric_jet
    from nullplane.weylalg import root_structure, weyl_quartic

    inst = mk_sd_two_sided(*random_polys(70_200, 2, ("x", "y"), 9))
    pts = sample_box(70_201, 8)
    broken = MetricSpec.walker(
        inst.spec.a, inst.spec.b, add_(inst.spec.c, mul_(Num(0.01), parse_expr("u^3")))
    )
    pack = curvature(metric_jet(broken, pts))
    asd = weyl_quartic(pack, walker_tetrad(broken))["ASD"]
    assert any(rl.type_string != "O" for rl in root_structure(asd))
