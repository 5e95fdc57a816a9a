import numpy as np
import pytest

from nullplane.errors import CalibrationFailure, DomainError, KindError, SingularMetric
from nullplane.exprkit import Num, eval_scalar, parse_expr, u, v
from nullplane.exprkit.calculus import diff_expr
from nullplane.frames import Tetrad, walker_tetrad
from nullplane.tensor import (
    MetricSpec,
    box_scalar,
    christoffel,
    conformal_rescale,
    curvature,
    metric_jet,
    volume_and_duals,
    walker_box_closed_form,
    weyl_split,
)
from conftest import random_walker_specs, sample_box

FLAT = MetricSpec.walker(0, 0, 0)
PTS = sample_box(100, 8)


def _rel(err, scale):
    return err / max(scale, 1e-30)


# ---------------------------------------------------------------------------
# metric assembly


def test_flat_walker_block():
    mj = metric_jet(FLAT, PTS)
    expected = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    assert np.allclose(mj.g_val, expected)
    assert np.allclose(mj.g_inv_val, expected)


def test_reference_metric_components():
    # conformally-Einstein example with the coefficient function set to zero
    a = parse_expr("u^4/(3*v^2)")
    c = parse_expr("2*u^3/(3*v)")
    b = parse_expr("u^2")
    mj = metric_jet(MetricSpec.walker(a, b, c), np.array([1.0, 1.0, 0.0, 0.0]))
    g = mj.g_val[0]
    assert g[2, 2] == pytest.approx(1.0 / 3.0)
    assert g[2, 3] == pytest.approx(2.0 / 3.0)
    assert g[3, 3] == pytest.approx(1.0)


def test_conformal_component():
    spec = MetricSpec.conformal_walker(parse_expr("1/v"), 0, 0, 0)
    mj = metric_jet(spec, np.array([0.0, 2.0, 0.0, 0.0]))
    assert mj.g_val[0][1, 3] == pytest.approx(0.25)


def test_inverse_identity_and_partial_symmetry(walker_corpus):
    specs, pts = walker_corpus
    for spec in specs[:3]:
        mj = metric_jet(spec, pts)
        ident = np.einsum("pij,pjk->pik", mj.g_val, mj.g_inv_val)
        assert np.max(np.abs(ident - np.eye(4))) < 1e-12
        assert np.allclose(mj.g, np.swapaxes(mj.g, 0, 1))


@pytest.mark.parametrize("case", ["walker", "conformal_walker", "general"])
def test_inverse_built_one_order_below_the_metric(case, tmp_path):
    """g is built to second order, g^-1 and det to first, and these equal
    bit for bit the leading coefficients of the inverse and determinant
    built at second order: lower Leibniz coefficients do not depend on the
    truncation."""
    from nullplane.exprkit.jets import div_coeffs, n_coeffs
    from nullplane.families import mk_cp_example, random_polys
    from nullplane.lab import load_spec_file
    from nullplane.tensor.metric import det_and_adjugate
    from conftest import GENERAL_SPEC

    if case == "walker":
        spec = MetricSpec.walker(*random_polys(73_000, 2, ("u", "v", "x", "y"), 3))
    elif case == "conformal_walker":
        spec = mk_cp_example(parse_expr("x*y"))[1].spec
    else:
        path = tmp_path / "general.ini"
        path.write_text(GENERAL_SPEC)
        spec = load_spec_file(str(path)).spec
    for npts in (1, 2, 13, 250):
        pts = sample_box(73_100 + npts, npts)
        mj = metric_jet(spec, pts)
        assert mj.g.shape == (4, 4, n_coeffs(2), npts)
        assert mj.g_inv.shape == (4, 4, n_coeffs(1), npts) and mj.det.shape == (n_coeffs(1), npts)
        det, adj = det_and_adjugate(mj.g, 2)
        g_inv = div_coeffs(adj, det[None, None], 2, 2, 2)
        assert np.array_equal(mj.det, det[: n_coeffs(1)]), npts
        assert np.array_equal(mj.g_inv, g_inv[:, :, : n_coeffs(1)]), npts


def _entrywise_det_and_adjugate(g, order):
    """Reference: each of the 16 cofactors expanded on its own, then the
    determinant along row 0, summed left to right."""
    from nullplane.exprkit.jets import mul_coeffs

    def mm(a, b):
        return mul_coeffs(a, b, order, order, order)

    def det3(m):
        return (
            mm(m[0][0], mm(m[1][1], m[2][2]) - mm(m[1][2], m[2][1]))
            - mm(m[0][1], mm(m[1][0], m[2][2]) - mm(m[1][2], m[2][0]))
            + mm(m[0][2], mm(m[1][0], m[2][1]) - mm(m[1][1], m[2][0]))
        )

    cof = np.empty_like(g)
    for i in range(4):
        for j in range(4):
            minor = [[g[r, c] for c in range(4) if c != j] for r in range(4) if r != i]
            cof[i, j] = (-1.0) ** (i + j) * det3(minor)
    det = np.zeros_like(g[0, 0])
    for j in range(4):
        det = det + mm(g[0, j], cof[0, j])
    return det, np.swapaxes(cof, 0, 1)


@pytest.mark.parametrize("case", ["walker", "conformal_walker", "general", "dense"])
def test_stacked_adjugate_equals_entrywise_expansion(case, tmp_path):
    """The stacked Laplace expansion gives the bits of the cofactor-by-
    cofactor expansion, signed zeros included, at the order the metric
    stage uses and one above.  The metrics' walker blocks hold many exact
    zeros; the dense case, random symmetric jets, makes every product and
    every sum count."""
    from nullplane.exprkit.jets import truncate_coeffs
    from nullplane.families import mk_cp_example, random_polys
    from nullplane.lab import load_spec_file
    from nullplane.tensor.metric import det_and_adjugate
    from conftest import GENERAL_SPEC

    if case == "walker":
        spec = MetricSpec.walker(*random_polys(74_000, 2, ("u", "v", "x", "y"), 3))
    elif case == "conformal_walker":
        spec = mk_cp_example(parse_expr("x*y"))[1].spec
    elif case == "general":
        path = tmp_path / "general.ini"
        path.write_text(GENERAL_SPEC)
        spec = load_spec_file(str(path)).spec
    for npts in (1, 2, 13, 250):
        if case == "dense":
            g = np.random.default_rng(74_200 + npts).normal(size=(4, 4, 15, npts))
            g = g + g.swapaxes(0, 1)
        else:
            g = metric_jet(spec, sample_box(74_100 + npts, npts)).g
        for order in (1, 2):
            gk = truncate_coeffs(g, 2, order)
            (det, adj), (want_det, want_adj) = det_and_adjugate(gk, order), _entrywise_det_and_adjugate(gk, order)
            assert det.tobytes() == want_det.tobytes() and adj.tobytes() == want_adj.tobytes(), (npts, order)


def test_signature_rejection():
    euclid = MetricSpec.general([[Num(1.0) if i == j else Num(0.0) for j in range(4)] for i in range(4)])
    with pytest.raises(SingularMetric):
        metric_jet(euclid, PTS)


def test_library_errors_name_the_failing_point():
    """A per-point check raised outside the pipeline names its first failing
    point: a metric singular at u = 0, and an ln of a non-positive value."""
    from nullplane.exprkit import eval_jet

    pts = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0]])
    spec = MetricSpec.general([[u, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    with pytest.raises(SingularMetric) as info:
        metric_jet(spec, pts)
    assert str(info.value) == "metric is numerically singular at a sampled point [at point [0.0, 1.0, 1.0, 1.0]]"
    with pytest.raises(DomainError) as info:
        eval_jet(parse_expr("1 + ln(u)"), pts)
    assert str(info.value) == "ln of non-positive value in subexpression 'ln(u)' [at point [0.0, 1.0, 1.0, 1.0]]"


def test_conformal_factor_positivity_enforced():
    spec = MetricSpec.conformal_walker(parse_expr("v - 1"), 0, 0, 0)
    with pytest.raises(DomainError):
        metric_jet(spec, PTS)


# ---------------------------------------------------------------------------
# connection


def test_flat_christoffel_vanishes():
    pack = christoffel(metric_jet(FLAT, PTS))
    assert np.max(np.abs(pack.gamma_val)) == 0.0


def test_christoffel_oracle_a_u2():
    spec = MetricSpec.walker(u**2, 0, 0)
    pts = np.array([[1.3, 0.7, 0.9, 1.1]])
    gam = christoffel(metric_jet(spec, pts)).gamma_val[0]
    assert gam[0, 0, 2] == pytest.approx(1.3)  # Gamma^u_ux = u
    assert gam[0, 2, 2] == pytest.approx(1.3**3)  # Gamma^u_xx = u^3
    assert gam[2, 2, 2] == pytest.approx(-1.3)  # Gamma^x_xx = -u
    assert np.max(np.abs(gam[:, 1, 1])) == 0.0  # nabla_v d_v = 0


def test_metric_compatibility(walker_corpus):
    from nullplane.exprkit.jets import deriv_coeffs

    specs, pts = walker_corpus
    for spec in specs[:4]:
        mj = metric_jet(spec, pts)
        pack = christoffel(mj)
        dg = deriv_coeffs(mj.g, 2)[..., 0, :]
        gamv = pack.gamma[..., 0, :]
        gv = mj.g[:, :, 0, :]
        term = np.einsum("ekip,ejp->ijkp", gamv, gv) + np.einsum("ekjp,iep->ijkp", gamv, gv)
        scale = max(np.max(np.abs(term)), 1e-30)
        assert np.max(np.abs(dg - term)) < 1e-10 * scale


# ---------------------------------------------------------------------------
# curvature


def test_flat_curvature_zero():
    pack = curvature(metric_jet(FLAT, PTS))
    assert np.max(np.abs(pack.riemann_val)) == 0.0


def test_scalar_curvature_golden():
    pack = curvature(metric_jet(MetricSpec.walker(u**2, v**2, Num(0.0)), PTS))
    assert np.allclose(pack.scalar_val, 4.0)


def test_riemann_symmetries_on_large_corpus():
    # 200 seeded random walker metrics, 10 points each
    specs = random_walker_specs(30_000, 200)
    pts = sample_box(31_000, 10)
    for spec in specs:
        pack = curvature(metric_jet(spec, pts))
        r = pack.riemann_val
        scale = max(np.max(np.abs(r)), 1e-30)
        assert np.max(np.abs(r + r.transpose(0, 2, 1, 3, 4))) < 1e-9 * scale
        assert np.max(np.abs(r + r.transpose(0, 1, 2, 4, 3))) < 1e-9 * scale
        assert np.max(np.abs(r - r.transpose(0, 3, 4, 1, 2))) < 1e-9 * scale
        bianchi = r + r.transpose(0, 1, 3, 4, 2) + r.transpose(0, 1, 4, 2, 3)
        assert np.max(np.abs(bianchi)) < 1e-9 * scale


def test_weyl_and_efield_traceless(walker_corpus):
    specs, pts = walker_corpus
    for spec in specs:
        mj = metric_jet(spec, pts)
        pack = curvature(mj)
        scale = max(np.max(np.abs(pack.riemann_val)), 1e-30)
        tr = np.einsum("pac,pabcd->pbd", mj.g_inv_val, pack.weyl_val)
        assert np.max(np.abs(tr)) < 1e-9 * scale
        tr_e = np.einsum("pab,pab->p", mj.g_inv_val, pack.efield_val)
        assert np.max(np.abs(tr_e)) < 1e-9 * scale


def test_scalar_curvature_formula(walker_corpus):
    specs, pts = walker_corpus
    for spec in specs:
        pack = curvature(metric_jet(spec, pts))
        formula = (
            eval_scalar(diff_expr(diff_expr(spec.a, "u"), "u"), pts)
            + eval_scalar(diff_expr(diff_expr(spec.b, "v"), "v"), pts)
            + 2.0 * eval_scalar(diff_expr(diff_expr(spec.c, "u"), "v"), pts)
        )
        scale = np.maximum(np.abs(formula), pack.riemann_scale())
        assert np.max(np.abs(pack.scalar_val - formula) / np.maximum(scale, 1e-30)) < 1e-8


# ---------------------------------------------------------------------------
# duality


def test_dual_eigensignatures_flat():
    mj = metric_jet(FLAT, PTS)
    tet = walker_tetrad(FLAT)
    dual = volume_and_duals(mj, tet)

    def wedge(a_, b_):
        av = np.array([eval_scalar(c_, PTS) for c_ in a_])
        bv = np.array([eval_scalar(c_, PTS) for c_ in b_])
        o = np.einsum("ip,jp->pij", av, bv)
        return o - o.transpose(0, 2, 1)

    for pair, sign in [
        ((tet.l, tet.mt), 1.0),
        ((tet.m, tet.n), 1.0),
        ((tet.l, tet.m), -1.0),
        ((tet.mt, tet.n), -1.0),
    ]:
        biv = wedge(*pair)
        assert np.max(np.abs(dual.star_bivector(biv) - sign * biv)) < 1e-12


def test_star_squared_identity(walker_corpus):
    specs, pts = walker_corpus
    rng = np.random.default_rng(4)
    for spec in specs[:3]:
        dual = volume_and_duals(metric_jet(spec, pts), walker_tetrad(spec))
        biv = rng.normal(size=(len(pts), 4, 4))
        biv = biv - biv.transpose(0, 2, 1)
        twice = dual.star_bivector(dual.star_bivector(biv))
        assert np.max(np.abs(twice - biv)) < 1e-10 * np.max(np.abs(biv))


def test_dual_sign_flips_with_swapped_tetrad(walker_corpus):
    specs, pts = walker_corpus
    spec = specs[0]
    tet = walker_tetrad(spec)
    swapped = Tetrad(l=tet.l, n=tet.n, m=tet.mt, mt=tet.m)
    lv = np.array([eval_scalar(c_, pts) for c_ in tet.l])
    mv = np.array([eval_scalar(c_, pts) for c_ in tet.m])
    biv = np.einsum("ip,jp->pij", lv, mv)
    biv = biv - biv.transpose(0, 2, 1)  # l ^ m, the swapped tetrad's l ^ mt
    dual = volume_and_duals(metric_jet(spec, pts), swapped)
    assert dual.sign == -1.0
    assert np.max(np.abs(dual.star_bivector(biv) - biv)) < 1e-10 * np.max(np.abs(biv))
    rng = np.random.default_rng(2)
    rand = rng.normal(size=(len(pts), 4, 4))
    rand = rand - rand.transpose(0, 2, 1)
    twice = dual.star_bivector(dual.star_bivector(rand))
    assert np.max(np.abs(twice - rand)) < 1e-10 * np.max(np.abs(rand))


def test_dual_calibration_failure_on_broken_tetrad():
    mj = metric_jet(FLAT, PTS)
    broken = Tetrad(
        l=(Num(1.0), Num(0.0), Num(1.0), Num(0.0)),  # not a null-plane spanner
        n=(Num(0.0), Num(0.0), Num(1.0), Num(0.0)),
        m=(Num(0.0), Num(0.0), Num(0.0), Num(-1.0)),
        mt=(Num(0.0), Num(1.0), Num(0.0), Num(0.0)),
    )
    with pytest.raises(CalibrationFailure):
        volume_and_duals(mj, broken)


def test_weyl_split_parts(walker_corpus):
    specs, pts = walker_corpus
    for spec in specs[:3]:
        mj = metric_jet(spec, pts)
        pack = curvature(mj)
        dual = volume_and_duals(mj, walker_tetrad(spec))
        cp, cm = weyl_split(pack, dual)
        scale = max(np.max(np.abs(pack.weyl_val)), 1e-30)
        assert np.max(np.abs(cp + cm - pack.weyl_val)) < 1e-12 * scale
        sp = dual.star_right(cp)
        sm = dual.star_right(cm)
        assert np.max(np.abs(sp - cp)) < 1e-9 * scale
        assert np.max(np.abs(sm + cm)) < 1e-9 * scale


def test_flat_weyl_split_zero():
    mj = metric_jet(FLAT, PTS)
    pack = curvature(mj)
    dual = volume_and_duals(mj, walker_tetrad(FLAT))
    cp, cm = weyl_split(pack, dual)
    assert np.max(np.abs(cp)) == 0.0
    assert np.max(np.abs(cm)) == 0.0


def test_cross_contraction_sd_bivector_with_asd_part(walker_corpus):
    specs, pts = walker_corpus
    spec = specs[0]
    mj = metric_jet(spec, pts)
    pack = curvature(mj)
    dual = volume_and_duals(mj, walker_tetrad(spec))
    _, cm = weyl_split(pack, dual)
    tet = walker_tetrad(spec)
    lv = np.array([eval_scalar(c_, pts) for c_ in tet.l])
    mtv = np.array([eval_scalar(c_, pts) for c_ in tet.mt])
    biv = np.einsum("ip,jp->pij", lv, mtv)
    biv = biv - biv.transpose(0, 2, 1)
    contraction = np.einsum("pabcd,pab->pcd", cm, biv)
    scale = max(np.max(np.abs(pack.weyl_val)), 1e-30)
    assert np.max(np.abs(contraction)) < 1e-10 * scale


# ---------------------------------------------------------------------------
# geodesic field and wave operator


def test_dv_is_geodesic(walker_corpus):
    """Gamma^a_vv = 0 exactly on a walker metric: d_v is a geodesic field."""
    specs, pts = walker_corpus
    for spec in specs[:4]:
        assert np.all(christoffel(metric_jet(spec, pts)).gamma[:, 1, 1, 0, :] == 0.0)


def test_box_closed_form_equals_generic(walker_corpus):
    specs, pts = walker_corpus
    chi = parse_expr("exp(x/3) + u*v")
    for spec in specs[:4]:
        bg = box_scalar(spec, chi, pts)
        bc = walker_box_closed_form(spec.a, spec.b, spec.c, chi, pts)
        assert np.max(np.abs(bg - bc)) < 1e-8 * max(np.max(np.abs(bc)), 1.0)


def test_box_vanishes_for_alpha_surface_functions(walker_corpus):
    specs, pts = walker_corpus
    chi = parse_expr("x^2*y + sin(y)")
    for spec in specs[:4]:
        assert np.max(np.abs(box_scalar(spec, chi, pts))) < 1e-10


def test_box_flat_x_squared():
    assert np.max(np.abs(box_scalar(FLAT, parse_expr("x^2"), PTS))) == 0.0
    assert np.max(np.abs(walker_box_closed_form(Num(0.0), Num(0.0), Num(0.0), parse_expr("x^2"), PTS))) == 0.0


# ---------------------------------------------------------------------------
# conformal rescaling


def test_conformal_identity():
    spec = MetricSpec.walker(u**2, v**2, u * v)
    resc = conformal_rescale(spec, Num(1.0))
    assert np.allclose(metric_jet(resc, PTS).g_val, metric_jet(spec, PTS).g_val)


def test_conformal_walker_components_give_its_metric(walker_corpus):
    """A general spec of a conformal_walker's component expressions has its
    metric values: measured equal to the bit on these four, so the bound is a
    few units in the last place."""
    specs, pts = walker_corpus
    chi = parse_expr("exp(x/4 + v/5)")
    for spec in specs[:4]:
        cw = MetricSpec.conformal_walker(chi, spec.a, spec.b, spec.c)
        g = metric_jet(cw, pts).g_val
        g_general = metric_jet(MetricSpec.general(cw.component_exprs()), pts).g_val
        assert np.max(np.abs(g_general - g)) <= 1e-15 * np.max(np.abs(g))


def test_conformal_scalar_law(walker_corpus):
    specs, pts = walker_corpus
    chi = parse_expr("exp(x/4 + v/5)")
    chi_v = eval_scalar(chi, pts)
    for spec in specs[:4]:
        pack = curvature(metric_jet(spec, pts))
        resc = conformal_rescale(spec, chi)
        pack_r = curvature(metric_jet(resc, pts))
        predicted = chi_v**-2.0 * (pack.scalar_val - 6.0 * np.asarray(box_scalar(spec, chi, pts)) / chi_v)
        scale = np.maximum(np.abs(predicted), pack_r.riemann_scale())
        assert np.max(np.abs(pack_r.scalar_val - predicted) / np.maximum(scale, 1e-30)) < 1e-7


def test_conformal_weyl_invariance(walker_corpus):
    specs, pts = walker_corpus
    chi = parse_expr("exp(y/4)*(1 + u/10)")
    for spec in specs[:4]:
        mj = metric_jet(spec, pts)
        mjr = metric_jet(conformal_rescale(spec, chi), pts)
        w = np.einsum("pae,pebcd->pabcd", mj.g_inv_val, curvature(mj).weyl_val)
        wr = np.einsum("pae,pebcd->pabcd", mjr.g_inv_val, curvature(mjr).weyl_val)
        assert np.max(np.abs(w - wr)) < 1e-7 * max(np.max(np.abs(w)), 1e-30)


def test_reference_rescaled_metric_is_einstein():
    a = parse_expr("u^4/(3*v^2)")
    c = parse_expr("2*u^3/(3*v)")
    b = parse_expr("u^2")
    h = MetricSpec.conformal_walker(parse_expr("1/v"), a, b, c)
    pack = curvature(metric_jet(h, PTS))
    scale = max(np.max(np.abs(pack.riemann_val)), 1e-30)
    assert np.max(np.abs(pack.efield_val)) < 1e-9 * scale
    assert np.max(np.abs(pack.scalar_val)) < 1e-9 * scale


def test_general_kind_requires_tetrad():
    spec = MetricSpec.walker(u**2, v**2, Num(0.0))
    resc = conformal_rescale(spec, parse_expr("exp(x/4)"))
    with pytest.raises(KindError):
        walker_tetrad(resc)
