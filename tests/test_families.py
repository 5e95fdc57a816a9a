import numpy as np
import pytest

from nullplane.errors import (
    CoefficientDependsOnUV,
    ConstraintViolated,
    NotMultipleWPS,
    NullplaneError,
    ObstructionPresent,
)
from nullplane.exprkit import eval_jet, eval_scalar, parse_expr, to_string, u, v, x, y
from nullplane.exprkit.calculus import add_, mul_
from nullplane.families import (
    conformal_two_sided_factor,
    mk_cp_example,
    mk_left_flat,
    mk_ricci_null,
    mk_sd2015,
    mk_sd_two_sided,
    mk_two_sided,
    mk_walker,
    random_polys,
)
from nullplane.frames import ProjParam, beta_dist, parallel_residual, walker_tetrad
from nullplane.tensor import conformal_rescale, curvature, metric_jet
from conftest import sample_box

PTS = sample_box(400, 10)


# ---------------------------------------------------------------------------
# mk_walker


def test_mk_walker_tags():
    assert mk_walker(0, 0, 0).tags == frozenset({"WALKER", "TWO_SIDED"})
    inst = mk_walker(u**2, v**2, u)
    assert "TWO_SIDED" in inst.tags
    assert "TWO_SIDED" not in mk_walker(v, 0, 0).tags


def test_symbolic_checks_agree_with_jets():
    """The builder's symbolic v-independence test matches numeric jets."""
    accepted = mk_walker(u**2 + x * y, v**2, u * x)
    ja = eval_jet(accepted.spec.a, PTS, 1)
    jc = eval_jet(accepted.spec.c, PTS, 1)
    assert np.max(np.abs(ja.partial("v"))) == 0.0
    assert np.max(np.abs(jc.partial("v"))) == 0.0
    rejected = mk_walker(u**2 + v, v**2, u * x)  # tag absent
    jr = eval_jet(rejected.spec.a, PTS, 1)
    assert np.min(np.abs(jr.partial("v"))) > 0.0
    assert "TWO_SIDED" not in rejected.tags


# ---------------------------------------------------------------------------
# self-dual families


def test_mk_sd2015_flat_and_single_coefficient():
    flat = mk_sd2015()
    assert np.max(np.abs(curvature(metric_jet(flat.spec, PTS)).riemann_val)) == 0.0
    inst = mk_sd2015(1)
    assert to_string(inst.spec.a) == "u^3"
    assert to_string(inst.spec.b) == "u * v^2"
    assert to_string(inst.spec.c) == "u^2 * v"


def test_mk_sd2015_rejects_uv_coefficients():
    with pytest.raises(CoefficientDependsOnUV):
        mk_sd2015(u)
    with pytest.raises(CoefficientDependsOnUV):
        mk_sd2015(A=parse_expr("x + v"))


def test_random_polys_are_valid_sd_input():
    polys = random_polys(7, 2, ("x", "y"), 13)
    inst = mk_sd2015(*polys)
    assert inst.spec.kind == "walker"


def test_sd_two_sided_nests_in_sd2015():
    names = ("C", "E", "G", "L", "M", "N", "H", "P", "T")
    polys = dict(zip(names, random_polys(3, 2, ("x", "y"), 9)))
    narrow = mk_sd_two_sided(**polys)
    from nullplane.exprkit.calculus import neg_

    wide = mk_sd2015(
        C=polys["C"], E=polys["E"], G=polys["G"], L=polys["L"], M=polys["M"],
        N=polys["N"], H=polys["H"], P=polys["P"], T=polys["T"], K=neg_(polys["C"]),
    )
    g1 = metric_jet(narrow.spec, PTS).g_val
    g2 = metric_jet(wide.spec, PTS).g_val
    assert np.max(np.abs(g1 - g2)) < 1e-12


def test_sd_two_sided_scalar_curvature_vanishes():
    inst = mk_sd_two_sided(*random_polys(11, 2, ("x", "y"), 9))
    pack = curvature(metric_jet(inst.spec, PTS))
    assert np.max(np.abs(pack.scalar_val)) < 1e-9 * max(np.max(pack.riemann_scale()), 1.0)


# ---------------------------------------------------------------------------
# two-sided


def test_mk_two_sided_golden_scalar():
    inst = mk_two_sided(u**2, v**2, u)
    pack = curvature(metric_jet(inst.spec, PTS))
    assert np.allclose(pack.scalar_val, 4.0)


def test_mk_two_sided_vacuous_constraints():
    inst = mk_two_sided(0, v**3 * x + u, 0)
    assert "TWO_SIDED" in inst.tags


def test_mk_two_sided_rejects_violations():
    with pytest.raises(ConstraintViolated):
        mk_two_sided(v, 0, 0)
    with pytest.raises(ConstraintViolated):
        mk_two_sided(u, 0, v * x)


# ---------------------------------------------------------------------------
# Ricci-degenerate family


def test_mk_ricci_null_simple():
    inst = mk_ricci_null(0, u**2, v**2)
    assert eval_scalar(parse_expr(inst.provenance["h"]), PTS[0]) == pytest.approx(2.0)
    pack = curvature(metric_jet(inst.spec, PTS))
    assert np.allclose(pack.scalar_val, 4.0)


def test_mk_ricci_null_tags():
    inst = mk_ricci_null(u**2 * v * x, u**2, v**2)
    assert "MULT_WPS_BETA" in inst.tags
    inst2 = mk_ricci_null(u**2 * v * x + v**3, u**2, v**2)
    assert "MULT_WPS_BETA" not in inst2.tags


def test_mk_ricci_null_constraint_errors():
    with pytest.raises(ConstraintViolated):
        mk_ricci_null(0, u**2, 2 * v**2)  # F_uu != G_vv
    with pytest.raises(ConstraintViolated):
        mk_ricci_null(0, u**2 + v, v**2)  # F depends on v
    with pytest.raises(ConstraintViolated):
        mk_ricci_null(0, u**3, v**2)  # F_uu depends on u


# ---------------------------------------------------------------------------
# left-flat family


def test_mk_left_flat_zero_is_flat():
    inst = mk_left_flat()
    assert np.max(np.abs(curvature(metric_jet(inst.spec, PTS)).riemann_val)) == 0.0


def test_mk_left_flat_direct_substitution():
    inst = mk_left_flat(X=parse_expr("0"), Y=mul_(x, y))
    # a = 0; c = -4 u y; b = -4 (u x + v y)
    pts = PTS
    assert np.max(np.abs(eval_scalar(inst.spec.a, pts))) == 0.0
    assert np.allclose(eval_scalar(inst.spec.c, pts), -4.0 * pts[:, 0] * pts[:, 3])
    assert np.allclose(
        eval_scalar(inst.spec.b, pts), -4.0 * (pts[:, 0] * pts[:, 2] + pts[:, 1] * pts[:, 3])
    )


def test_mk_left_flat_ricci_flat():
    inst = mk_left_flat(*[mul_(parse_expr("0.5"), e) for e in random_polys(21, 2, ("x", "y"), 5)])
    pack = curvature(metric_jet(inst.spec, PTS))
    scale = max(np.max(pack.riemann_scale()), 1e-30)
    assert np.max(np.abs(pack.ricci_val)) < 1e-9 * scale


# ---------------------------------------------------------------------------
# reference pair


def test_cp_transcription_golden():
    g_inst, h_inst, t_field = mk_cp_example(0)
    p = (1.0, 1.0, 0.0, 0.0)
    assert eval_scalar(g_inst.spec.a, p) == pytest.approx(1.0 / 3.0)
    assert eval_scalar(g_inst.spec.c, p) == pytest.approx(2.0 / 3.0)
    assert eval_scalar(g_inst.spec.b, p) == pytest.approx(1.0)
    assert h_inst.spec.kind == "conformal_walker"
    assert to_string(t_field.t0) == "u" and to_string(t_field.t1) == "v"
    assert g_inst.exclude == ("v=0",)


def test_cp_scalar_curvature_vanishes():
    g_inst, _, _ = mk_cp_example(mul_(x, y))
    pack = curvature(metric_jet(g_inst.spec, PTS))
    assert np.max(np.abs(pack.scalar_val)) < 1e-7 * max(np.max(pack.riemann_scale()), 1.0)


def test_cp_sesqui_but_not_two_sided():
    from nullplane.frames import frobenius_residual

    g_inst, _, t_field = mk_cp_example(mul_(x, y))
    tet = walker_tetrad(g_inst.spec)
    w = beta_dist(t_field, tet)
    assert np.max(frobenius_residual(w, PTS)) < 1e-7
    assert np.min(parallel_residual(g_inst.spec, w, PTS)) > 1e-3


# ---------------------------------------------------------------------------
# constructive conformal factor


def test_conformal_factor_golden():
    inst = mk_walker(u**2, v**2 * x + u, mul_(v, x))
    chi = conformal_two_sided_factor(inst)
    expected = np.exp(PTS[:, 2] ** 2 / 4.0)
    assert np.allclose(eval_scalar(chi, PTS), expected, rtol=1e-12)
    assert inst.provenance["conformal_factor"]["chi"] == str(chi)


def test_conformal_factor_already_two_sided():
    inst = mk_walker(u**2, v**2, u * x)
    chi = conformal_two_sided_factor(inst)
    assert np.allclose(eval_scalar(chi, PTS), 1.0)


def test_conformal_factor_rescale_contract():
    pts = sample_box(402, 12)
    a = random_polys(61_000, 2, ("u", "x", "y"), 1)[0]
    c1 = random_polys(61_001, 2, ("u", "x", "y"), 1)[0]
    phi = random_polys(61_002, 2, ("x", "y"), 1)[0]
    b = random_polys(61_003, 2, ("u", "v", "x", "y"), 1)[0]
    inst = mk_walker(a, b, add_(c1, mul_(v, phi)))
    chi = conformal_two_sided_factor(inst)
    rescaled = conformal_rescale(inst.spec, chi)
    tet = walker_tetrad(inst.spec)
    from nullplane.frames import alpha_dist

    for dist in (alpha_dist(ProjParam.of(1, 0), tet), beta_dist(ProjParam.of(0, 1), tet)):
        assert np.max(parallel_residual(rescaled, dist, pts)) < 1e-7


def test_conformal_factor_residual_is_checked(monkeypatch):
    """The factor exp(-f) is returned only once the rescaled metric is
    checked two-sided; a failed check is an error, and no provenance is
    recorded."""
    import nullplane.frames

    monkeypatch.setattr(nullplane.frames, "parallel_residual", lambda spec, dist, pts: np.ones(len(pts)))
    inst = mk_walker(u**2, v**2 * x + u, mul_(v, x))
    with pytest.raises(NullplaneError, match="not two-sided"):
        conformal_two_sided_factor(inst)
    assert "conformal_factor" not in inst.provenance


def test_conformal_factor_error_paths():
    with pytest.raises(ObstructionPresent):
        conformal_two_sided_factor(mk_walker(u**2, v**2, u * v))
    with pytest.raises(NotMultipleWPS):
        conformal_two_sided_factor(mk_walker(u**2, v**2, v**2 * x))
    with pytest.raises(ConstraintViolated):
        conformal_two_sided_factor(mk_walker(v, v**2, x))


# ---------------------------------------------------------------------------
# random_polys


def test_random_polys_deterministic():
    a = random_polys(1, 2, ("x", "y"), 3)
    b = random_polys(1, 2, ("x", "y"), 3)
    assert [to_string(e) for e in a] == [to_string(e) for e in b]


def test_random_polys_degree_zero():
    from nullplane.exprkit import Num

    for e in random_polys(1, 0, ("x", "y"), 4):
        assert isinstance(e, Num)


def test_random_polys_rejects_high_degree():
    for degree in (5, -1):
        with pytest.raises(ValueError, match="degree must be between 0 and 4"):
            random_polys(1, degree, ("x", "y"), 1)
