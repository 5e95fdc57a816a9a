import copy

import numpy as np
import pytest

from nullplane.errors import CalibrationFailure, DegenerateRoot, KindError
from nullplane.exprkit import Num, eval_scalar, parse_expr, u, v, x, y
from nullplane.frames import ProjParam, Tetrad, alpha_dist, walker_tetrad
from nullplane.tensor import MetricSpec, conformal_rescale, curvature, metric_jet, volume_and_duals, weyl_split
from nullplane.weylalg import (
    QuarticForm,
    calibrate_kappa,
    default_kappa,
    einstein_residual,
    implicit_root_jet,
    obstruction_residual,
    ricci_null_residual,
    root_structure,
    rps_discriminant,
    weyl_components,
    weyl_quartic,
)
from conftest import sample_box

PTS = sample_box(300, 8)
T10 = ProjParam.of(1, 0)


def _reference_spec():
    return MetricSpec.walker(
        parse_expr("exp(4*x*y)*u^4/(3*v^2) + 4*u*y"),
        parse_expr("exp(4*x*y)*u^2 + 2*v*x"),
        parse_expr("2*exp(4*x*y)*u^3/(3*v) + 2*u*x"),
    )


# ---------------------------------------------------------------------------
# quartic extraction


def test_flat_quartics_type_o():
    spec = MetricSpec.walker(0, 0, 0)
    pack = curvature(metric_jet(spec, PTS, 3))
    tet = walker_tetrad(spec)
    for side in ("SD", "ASD"):
        for f in weyl_quartic(pack, tet, side):
            assert root_structure(f).type_string == "O"


def test_quartic_value_matches_plane_pairing(walker_corpus):
    """q(tau) equals the Weyl pairing of the plane bivector with itself."""
    specs, pts = walker_corpus
    spec = specs[0]
    pack = curvature(metric_jet(spec, pts, 3))
    tet = walker_tetrad(spec)
    vecs = {k: np.stack([eval_scalar(c, pts) for c in comps]) for k, comps in tet.vectors().items()}
    cvals = pack.weyl_val

    def wedge(a_, b_):
        o = np.einsum("ip,jp->pij", a_, b_)
        return o - o.transpose(0, 2, 1)

    for side in ("SD", "ASD"):
        forms = weyl_quartic(pack, tet, side)
        for tau in (0.0, 0.7, -1.3):
            if side == "SD":
                gen1 = vecs["l"] + tau * vecs["m"]
                gen2 = vecs["mt"] + tau * vecs["n"]
            else:
                gen1 = vecs["l"] + tau * vecs["mt"]
                gen2 = vecs["m"] + tau * vecs["n"]
            biv = wedge(gen1, gen2)
            direct = np.einsum("pabcd,pab,pcd->p", cvals, biv, biv)
            from_coeffs = np.array([f.value(tau) for f in forms])
            scale = max(np.max(np.abs(direct)), 1e-30)
            assert np.max(np.abs(direct - from_coeffs)) < 1e-9 * scale


def test_quartic_purity(walker_corpus):
    """Quartic from the full Weyl tensor equals the quartic from the
    matching duality eigenpart; the opposite part contributes nothing."""
    specs, pts = walker_corpus
    for spec in specs[:3]:
        mj = metric_jet(spec, pts, 3)
        pack = curvature(mj)
        dual = volume_and_duals(mj, walker_tetrad(spec))
        cp, cm = weyl_split(pack, dual)
        for side, part in (("SD", cp), ("ASD", cm)):
            pack_part = copy.copy(pack)
            pack_part.weyl = np.moveaxis(part, 0, -1)[..., None, :]  # order-0 jets
            pack_part.order = 0
            full = weyl_quartic(pack, walker_tetrad(spec), side)
            from_part = weyl_quartic(pack_part, walker_tetrad(spec), side)
            for f, g in zip(full, from_part):
                assert np.max(np.abs(f.coeffs - g.coeffs)) < 1e-9 * max(f.scale, 1e-30)


def test_asd_quartic_zero_iff_asd_weyl_zero(walker_corpus):
    specs, pts = walker_corpus
    # direction 1: a self-dual instance has ASD quartic type O everywhere
    from nullplane.families import mk_sd2015, random_polys

    inst = mk_sd2015(*random_polys(50_000, 2, ("x", "y"), 15))
    mj = metric_jet(inst.spec, pts, 3)
    pack = curvature(mj)
    dual = volume_and_duals(mj, walker_tetrad(inst.spec))
    _, cm = weyl_split(pack, dual)
    assert np.max(np.abs(cm)) < 1e-7 * np.max(np.abs(pack.weyl_val))
    for f in weyl_quartic(pack, walker_tetrad(inst.spec), "ASD"):
        assert root_structure(f).type_string == "O"
    # direction 2: a generic instance has nonzero ASD part and non-O quartic
    spec = specs[0]
    mj2 = metric_jet(spec, pts, 3)
    pack2 = curvature(mj2)
    dual2 = volume_and_duals(mj2, walker_tetrad(spec))
    _, cm2 = weyl_split(pack2, dual2)
    assert np.max(np.abs(cm2)) > 1e-3 * np.max(np.abs(pack2.weyl_val))
    assert any(root_structure(f).type_string != "O" for f in weyl_quartic(pack2, walker_tetrad(spec), "ASD"))


def test_coefficient_vanishing_implications():
    from nullplane.families import random_polys

    pts = PTS
    a_u = random_polys(51_000, 2, ("u", "x", "y"), 1)[0]
    b_any, c_any = random_polys(51_001, 2, ("u", "v", "x", "y"), 2)
    spec = MetricSpec.walker(a_u, b_any, c_any)
    for f in weyl_quartic(curvature(metric_jet(spec, pts, 3)), walker_tetrad(spec), "ASD"):
        assert abs(f.coeffs[4]) < 1e-9 * max(f.scale, 1e-30)
    c_u = random_polys(51_002, 2, ("u", "x", "y"), 1)[0]
    spec2 = MetricSpec.walker(a_u, b_any, c_u)
    for f in weyl_quartic(curvature(metric_jet(spec2, pts, 3)), walker_tetrad(spec2), "ASD"):
        assert max(abs(f.coeffs[3]), abs(f.coeffs[4])) < 1e-9 * max(f.scale, 1e-30)


# ---------------------------------------------------------------------------
# root structure


def _form(coeffs, ref=10.0):
    c = np.asarray(coeffs, dtype=float)
    return QuarticForm("ASD", c, None, float(np.max(np.abs(c))), ref)


def test_root_structure_constructed():
    rl = root_structure(_form([-6.0, 13.0, -7.0, -1.0, 1.0]))
    assert rl.type_string == "{211}"
    values = sorted(e.value.real for e in rl.entries)
    assert values == pytest.approx([-3.0, 1.0, 2.0], abs=1e-8)
    double = [e for e in rl.entries if e.multiplicity == 2][0]
    assert double.value.real == pytest.approx(1.0, abs=1e-6)


def test_root_structure_infinity():
    rl = root_structure(_form([0.0, 0.0, 0.0, 1.0, 0.0]))
    assert rl.type_string == "{31}"
    kinds = {e.kind: e.multiplicity for e in rl.entries}
    assert kinds["inf"] == 1 and kinds["real"] == 3


def test_root_structure_complex_pairs():
    rl = root_structure(_form([1.0, 0.0, 2.0, 0.0, 1.0]))  # (t^2+1)^2
    assert rl.type_string == "{22}"
    entry = rl.entries[0]
    assert entry.kind == "complex_pair" and entry.value.imag == pytest.approx(1.0, abs=1e-8)


def test_root_structure_zero_form_marker():
    assert root_structure(_form([0.0] * 5)).type_string == "O"
    # tiny coefficients relative to a large curvature reference are zero
    assert root_structure(_form([1e-10, 0, 0, 0, 1e-11], ref=1.0)).type_string == "O"


def test_root_multiplicities_sum():
    rng = np.random.default_rng(6)
    for _ in range(50):
        rl = root_structure(_form(rng.uniform(-2, 2, 5)))
        assert sum(rl.multiplicities()) == 4


def test_reference_roots():
    spec = _reference_spec()
    pack = curvature(metric_jet(spec, PTS, 3))
    tet = walker_tetrad(spec)
    for p, (fs, fa) in enumerate(zip(weyl_quartic(pack, tet, "SD"), weyl_quartic(pack, tet, "ASD"))):
        rs, ra = root_structure(fs), root_structure(fa)
        assert rs.type_string == "{4}"
        assert abs(rs.entries[0].value) < 1e-3
        assert ra.type_string == "{4}"
        expected = PTS[p, 1] / PTS[p, 0]
        assert ra.entries[0].value.real == pytest.approx(expected, rel=1e-3)


def test_root_invariance_under_rescaling():
    spec = _reference_spec()
    chi = parse_expr("exp(x/4)")
    rescaled = conformal_rescale(spec, chi)
    tet = walker_tetrad(spec)
    from nullplane.exprkit.calculus import div_

    tet_r = Tetrad(**{k: tuple(div_(c, chi) for c in vec) for k, vec in tet.vectors().items()})
    pack = curvature(metric_jet(spec, PTS, 3))
    pack_r = curvature(metric_jet(rescaled, PTS, 3))
    for f, fr in zip(weyl_quartic(pack, tet, "ASD"), weyl_quartic(pack_r, tet_r, "ASD")):
        r1, r2 = root_structure(f), root_structure(fr)
        assert r1.type_string == r2.type_string
        assert r1.entries[0].value.real == pytest.approx(r2.entries[0].value.real, rel=1e-6)


# ---------------------------------------------------------------------------
# calibration and components


def test_default_kappa_reused():
    k1 = default_kappa()
    k2 = default_kappa()
    assert k1 is k2
    assert k1.value == pytest.approx(-4.0, rel=1e-9)


def test_calibrate_kappa_instances():
    pts = sample_box(52_000, 10)
    k1 = calibrate_kappa(MetricSpec.walker(u**2, v**2, u), pts)
    k2 = calibrate_kappa(MetricSpec.walker(u**2, v**2, Num(0.0)), pts)
    assert abs(k1.value - k2.value) < 1e-6 * abs(k1.value)
    assert k1.provenance["points"] == 10


def test_calibrate_kappa_failure_modes():
    pts = sample_box(52_100, 6)
    with pytest.raises(CalibrationFailure):
        calibrate_kappa(MetricSpec.walker(v, Num(0.0), Num(0.0)), pts)  # a_v != 0
    with pytest.raises(CalibrationFailure):
        calibrate_kappa(MetricSpec.walker(0, 0, 0), pts)  # S = 0 everywhere


def test_weyl_components_reconstruction():
    spec = MetricSpec.walker(u**2, v**2, u)
    pack = curvature(metric_jet(spec, PTS[:1], 2))
    kappa = default_kappa()
    f = weyl_quartic(pack, walker_tetrad(spec), "ASD")[0]
    psi = weyl_components(f, kappa).psi
    from math import comb

    rebuilt = np.array([psi[k] * comb(4, k) * kappa.value for k in range(5)])
    assert np.allclose(rebuilt, f.coeffs, rtol=1e-12)
    # middle component equals S/12 on this two-sided instance
    assert psi[2] == pytest.approx(pack.scalar_val[0] / 12.0, rel=1e-9)


# ---------------------------------------------------------------------------
# obstruction


def test_obstruction_examples():
    from nullplane.families import random_polys

    a, b = random_polys(53_000, 2, ("u", "v", "x", "y"), 2)
    zero = obstruction_residual(MetricSpec.walker(a, b, parse_expr("u + v")), PTS)
    pack = curvature(metric_jet(MetricSpec.walker(a, b, parse_expr("u + v")), PTS, 2))
    assert np.max(np.abs(zero)) < 1e-7 * np.max(pack.riemann_scale())
    nonzero = obstruction_residual(MetricSpec.walker(a, b, parse_expr("u*v")), PTS)
    assert np.min(np.abs(nonzero)) > 1e-3


def test_obstruction_requires_walker_gauge():
    with pytest.raises(KindError):
        obstruction_residual(MetricSpec.general([[Num(0.0)] * 4] * 4), PTS)


# ---------------------------------------------------------------------------
# Ricci degeneracy residuals


def test_einstein_residuals_reference_pair():
    spec = _reference_spec()
    pack_g = curvature(metric_jet(spec, PTS, 2))
    assert np.min(einstein_residual(pack_g)) > 1e-3
    h = MetricSpec.conformal_walker(parse_expr("1/v"), spec.a, spec.b, spec.c)
    pack_h = curvature(metric_jet(h, PTS, 2))
    assert np.max(einstein_residual(pack_h)) < 1e-7


def test_ricci_null_and_discriminant(walker_corpus):
    specs, pts = walker_corpus
    for spec in specs[:5]:
        pack = curvature(metric_jet(spec, pts, 2))
        z = alpha_dist(T10, walker_tetrad(spec))
        assert np.max(ricci_null_residual(pack, z)) < 1e-7
        assert np.max(rps_discriminant(pack, z)) <= 1e-9


# ---------------------------------------------------------------------------
# implicit root differentiation


def test_implicit_root_jet_reference():
    spec = _reference_spec()
    p0 = np.array([1.0, 2.0, 0.8, 1.2])
    pack = curvature(metric_jet(spec, p0, 3))
    q = weyl_quartic(pack, walker_tetrad(spec), "ASD")
    grad = implicit_root_jet(q, 2.0)  # root field v/u
    assert grad[0] == pytest.approx(-2.0, rel=1e-6)
    assert grad[1] == pytest.approx(1.0, rel=1e-6)
    assert abs(grad[2]) < 1e-8 and abs(grad[3]) < 1e-8


def test_implicit_root_jet_sd_root_stationary():
    spec = _reference_spec()
    p0 = np.array([1.0, 2.0, 0.8, 1.2])
    pack = curvature(metric_jet(spec, p0, 3))
    q = weyl_quartic(pack, walker_tetrad(spec), "SD")
    grad = implicit_root_jet(q, 0.0)
    assert np.max(np.abs(grad)) < 1e-8


def test_implicit_root_jet_constant_coefficients():
    q = QuarticForm("ASD", np.array([0.0, 0.0, 1.0, -2.0, 1.0]), np.zeros((5, 4)), 2.0, 10.0)
    grad = implicit_root_jet(q, 0.0)  # double root at 0 of t^2 (t-1)^2
    assert np.max(np.abs(grad)) == 0.0


def test_implicit_root_jet_errors():
    q = QuarticForm("ASD", np.array([6.0, -5.0, 1.0, 0.0, 0.0]), np.zeros((5, 4)), 6.0, 10.0)
    with pytest.raises(DegenerateRoot):
        implicit_root_jet(q, 1.0)  # not a root of (t-2)(t-3)
    q2 = QuarticForm("ASD", np.array([0.0] * 5), np.zeros((5, 4)), 0.0, 10.0)
    with pytest.raises(DegenerateRoot):
        implicit_root_jet(q2, 0.0)
    q3 = QuarticForm("ASD", np.array([1.0, 0, 0, 0, 0]), None, 1.0, 10.0)
    with pytest.raises(ValueError):
        implicit_root_jet(q3, 0.0)
