"""The acceptance suite: thirteen numbered criteria, each pinned to its
stated tolerance.  ``selftest()`` runs all of them and prints one
pass/fail line per criterion; the pytest acceptance module wraps the same
functions one test per criterion.

Default verification scale: 20 seeded points in [0.5, 1.5]^4 per instance
and 5 seeded instances per family; "~0" means < 1e-7 relative to the
natural scale of the compared quantity, "nonzero" means > 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import DomainError, ObstructionPresent
from ..exprkit.ast import Num, Var
from ..exprkit.calculus import add_, diff_expr, mul_
from ..exprkit.jets import eval_jet, eval_scalar, fd_derivatives, monomials
from ..exprkit.parser import parse_expr
from ..exprkit.randexpr import random_expr
from ..families import (
    conformal_two_sided_factor,
    mk_cp_example,
    mk_left_flat,
    mk_ricci_null,
    mk_sd2015,
    mk_sd_two_sided,
    mk_walker,
    random_polys,
)
from ..frames import (
    ProjParam,
    Tetrad,
    alpha_dist,
    beta_dist,
    dist_D,
    dist_H,
    frobenius_residual,
    parallel_residual,
    walker_tetrad,
)
from ..tensor.curvature import box_scalar, curvature, walker_box_closed_form
from ..tensor.metric import MetricSpec, conformal_rescale, metric_jet
from ..weylalg import (
    QuarticForm,
    calibrate_kappa,
    default_kappa,
    einstein_residual,
    obstruction_residual,
    ricci_null_residual,
    root_structure,
    rps_discriminant,
    weyl_quartic,
)
from .config import TOL_NONZERO, TOL_ZERO, AnalysisConfig
from .report import dumps_json

_U, _V, _X, _Y = Var("u"), Var("v"), Var("x"), Var("y")

N_POINTS = 20
N_INSTANCES = 5


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.cid}: {self.description} [{self.detail}]"


def _points(seed: int, n: int = N_POINTS) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.5, 1.5, (n, 4))


@lru_cache(maxsize=None)
def _walker_corpus():
    """Five seeded random walker metrics (degree-2 components in all
    coordinates) with their sample points."""
    out = []
    for i in range(N_INSTANCES):
        a, b, c = random_polys(1000 + i, 2, ("u", "v", "x", "y"), 3)
        out.append((MetricSpec.walker(a, b, c), _points(2000 + i)))
    return tuple(out)


def _rel(err, scale) -> float:
    """Largest err / scale over the points."""
    return float(np.max(err / np.maximum(scale, 1e-30)))


# ---------------------------------------------------------------------------
# criterion 1: jets match finite differences


def criterion_01() -> CriterionResult:
    rng = np.random.default_rng(20260811)
    indices = [m for m in monomials(3) if sum(m) >= 1]
    worst = 0.0
    accepted = 0
    while accepted < 1000:
        e = random_expr(rng, depth=5)
        p = rng.uniform(0.5, 1.5, 4)
        try:
            jet = eval_jet(e, p, order=3)
            coeffs = jet.coeffs[:, 0]
            if not np.all(np.isfinite(coeffs)) or np.max(np.abs(coeffs)) > 1e2:
                continue
            # oracle self-consistency: reject draws where the central
            # difference has not converged at the tuned steps
            fd1 = fd_derivatives(e, p, indices, step=1e-3)
            fd2 = fd_derivatives(e, p, indices, step=5e-4)
        except DomainError:
            continue
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        if np.max(np.abs(fd1 - fd2)) > 0.2e-5 * scale:
            continue
        accepted += 1
        jet_parts = np.array([jet.partial(m) for m in indices])
        worst = max(worst, _rel(np.max(np.abs(jet_parts - fd1)), scale))
    passed = worst <= 1e-5
    return CriterionResult(
        "c01",
        "jet partials (order <= 3) match central differences on 1000 random expressions",
        passed,
        f"max rel err {worst:.2e} (tol 1e-5)",
    )


# ---------------------------------------------------------------------------
# criterion 2: scalar curvature closed form


def criterion_02() -> CriterionResult:
    worst = 0.0
    for spec, pts in _walker_corpus():
        pack = curvature(metric_jet(spec, pts, 3))
        formula = (
            eval_scalar(diff_expr(diff_expr(spec.a, "u"), "u"), pts)
            + eval_scalar(diff_expr(diff_expr(spec.b, "v"), "v"), pts)
            + 2.0 * eval_scalar(diff_expr(diff_expr(spec.c, "u"), "v"), pts)
        )
        scale = np.maximum(np.abs(formula), pack.riemann_scale())
        worst = max(worst, float(np.max(np.abs(pack.scalar_val - formula) / np.maximum(scale, 1e-30))))
    return CriterionResult(
        "c02",
        "engine scalar curvature equals a_uu + b_vv + 2 c_uv on random walker metrics",
        worst <= TOL_ZERO,
        f"max rel err {worst:.2e} (tol {TOL_ZERO})",
    )


# ---------------------------------------------------------------------------
# criterion 3: walker universals


def criterion_03() -> CriterionResult:
    worst_par, worst_c01, worst_disc = 0.0, 0.0, -np.inf
    for spec, pts in _walker_corpus():
        tet = walker_tetrad(spec)
        pack = curvature(metric_jet(spec, pts, 3))
        zdist = alpha_dist(ProjParam.of(1, 0), tet)
        worst_par = max(worst_par, float(np.max(parallel_residual(spec, zdist, pts))))
        sd = weyl_quartic(pack, tet)["SD"]
        worst_c01 = max(worst_c01, _rel(np.max(np.abs(sd.coeffs[:, :2]), axis=1), sd.scale))
        worst_disc = max(worst_disc, float(np.max(rps_discriminant(pack, zdist))))
    passed = worst_par < TOL_ZERO and worst_c01 < TOL_ZERO and worst_disc <= 1e-9
    return CriterionResult(
        "c03",
        "walker universals: Z parallel, SD quartic double root at (1:0), Ricci degeneracy",
        passed,
        f"Z par {worst_par:.2e}, c0/c1 {worst_c01:.2e}, disc {worst_disc:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 4: sesquiWalker / two-sided characterization with mutations


def criterion_04() -> CriterionResult:
    t01 = ProjParam.of(0, 1)
    checks = []
    for i in range(N_INSTANCES):
        pts = _points(4100 + i)
        a_u = random_polys(4200 + i, 2, ("u", "x", "y"), 1)[0]
        b_any, c_any = random_polys(4300 + i, 2, ("u", "v", "x", "y"), 2)
        spec = MetricSpec.walker(a_u, b_any, c_any)
        tet = walker_tetrad(spec)
        wdist = beta_dist(t01, tet)
        checks.append(("W frob (a_v=0)", np.max(frobenius_residual(wdist, pts)), "zero"))
        asd = weyl_quartic(curvature(metric_jet(spec, pts, 3)), tet)["ASD"]
        checks.append(("c4 (a_v=0)", _rel(np.abs(asd.coeffs[:, 4]), asd.scale), "zero"))

        c_u = random_polys(4400 + i, 2, ("u", "x", "y"), 1)[0]
        spec2 = MetricSpec.walker(a_u, b_any, c_u)
        tet2 = walker_tetrad(spec2)
        wdist2 = beta_dist(t01, tet2)
        ddist2 = dist_D(t01, tet2)
        checks.append(("W par (two-sided)", np.max(parallel_residual(spec2, wdist2, pts)), "zero"))
        checks.append(("D par (two-sided)", np.max(parallel_residual(spec2, ddist2, pts)), "zero"))
        asd2 = weyl_quartic(curvature(metric_jet(spec2, pts, 3)), tet2)["ASD"]
        checks.append(("c3,c4 (two-sided)", _rel(np.max(np.abs(asd2.coeffs[:, 3:]), axis=1), asd2.scale), "zero"))

        # mutations: a += v breaks integrability, c += v breaks parallelism
        # (first-order residuals); the quartic coefficients respond to
        # second derivatives, so they get quadratic mutations
        mut_a = MetricSpec.walker(add_(a_u, _V), b_any, c_any)
        checks.append(("W frob (a+=v)", np.max(frobenius_residual(beta_dist(t01, walker_tetrad(mut_a)), pts)), "nonzero"))
        mut_a2 = MetricSpec.walker(add_(a_u, _V**2), b_any, c_any)
        asd_m = weyl_quartic(curvature(metric_jet(mut_a2, pts, 3)), walker_tetrad(mut_a2))["ASD"]
        checks.append(("c4 (a+=v^2)", _rel(np.abs(asd_m.coeffs[:, 4]), asd_m.scale), "nonzero"))
        mut_c = MetricSpec.walker(a_u, b_any, add_(c_u, _V))
        checks.append(("W par (c+=v)", np.max(parallel_residual(mut_c, beta_dist(t01, walker_tetrad(mut_c)), pts)), "nonzero"))
        mut_c2 = MetricSpec.walker(a_u, b_any, add_(c_u, _V**2))
        asd_mc = weyl_quartic(curvature(metric_jet(mut_c2, pts, 3)), walker_tetrad(mut_c2))["ASD"]
        checks.append(("c3 (c+=v^2)", _rel(np.abs(asd_mc.coeffs[:, 3]), asd_mc.scale), "nonzero"))

    bad = [
        name
        for name, value, kind in checks
        if (kind == "zero" and value >= TOL_ZERO) or (kind == "nonzero" and value <= TOL_NONZERO)
    ]
    wz = max(v for _, v, k in checks if k == "zero")
    wn = min(v for _, v, k in checks if k == "nonzero")
    return CriterionResult(
        "c04",
        "v-independence of a (and c) controls integrability (and parallelism); mutations fail",
        not bad,
        f"worst zero {wz:.2e}, worst nonzero {wn:.2e}" + (f", failing: {bad}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# criterion 5: calibration stability


def criterion_05() -> CriterionResult:
    pts = _points(5100, 10)
    instances = [
        MetricSpec.walker(_U**2, _V**2, _U),
        MetricSpec.walker(_U**2, _V**2, Num(0.0)),
        MetricSpec.walker(add_(_U**2, mul_(_X, _U)), add_(_V**2, _Y), mul_(_U, _X)),
    ]
    values = [calibrate_kappa(spec, pts).value for spec in instances]
    mean = np.mean(values)
    spread = float(np.std(values) / abs(mean))
    return CriterionResult(
        "c05",
        "calibration constant stable across instances, points, and both duality sides",
        spread < 1e-6,
        f"kappa = {mean:.9g}, std/mean = {spread:.2e} (tol 1e-6)",
    )


# ---------------------------------------------------------------------------
# criterion 6: obstruction equivalence


def _obstruction_rel(spec: MetricSpec, pts: np.ndarray) -> float:
    obs = obstruction_residual(spec, pts)
    pack = curvature(metric_jet(spec, pts, 2))
    scale = np.maximum(np.abs(pack.scalar_val) / 12.0, 1e-2 * pack.riemann_scale())
    return float(np.max(np.abs(obs) / np.maximum(scale, 1e-30)))


def criterion_06() -> CriterionResult:
    worst_zero, worst_nonzero = 0.0, np.inf
    for i in range(N_INSTANCES):
        pts = _points(6100 + i)
        a, b = random_polys(6200 + i, 2, ("u", "v", "x", "y"), 2)
        pxy = random_polys(6300 + i, 2, ("x", "y"), 1)[0]
        zero_spec = MetricSpec.walker(a, b, add_(add_(_U, _V), pxy))  # c_uv = 0
        worst_zero = max(worst_zero, _obstruction_rel(zero_spec, pts))
        nonzero_spec = MetricSpec.walker(a, b, mul_(_U, _V))
        worst_nonzero = min(worst_nonzero, _obstruction_rel(nonzero_spec, pts))
    passed = worst_zero < TOL_ZERO and worst_nonzero > TOL_NONZERO
    return CriterionResult(
        "c06",
        "the middle-component defect vanishes iff c_uv does",
        passed,
        f"c_uv=0 gives {worst_zero:.2e}; c=uv gives {worst_nonzero:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 7: self-dual families


def criterion_07() -> CriterionResult:
    t01 = ProjParam.of(0, 1)
    worst_asd, worst_par, worst_s = 0.0, 0.0, 0.0
    for i in range(N_INSTANCES):
        pts = _points(7100 + i)
        inst = mk_sd2015(*random_polys(7200 + i, 2, ("x", "y"), 15))
        pack = curvature(metric_jet(inst.spec, pts, 3))
        tet = walker_tetrad(inst.spec)
        sd, asd = weyl_quartic(pack, tet).values()
        worst_asd = max(worst_asd, _rel(asd.scale, np.maximum(sd.scale, asd.ref_scale)))

        inst2 = mk_sd_two_sided(*random_polys(7300 + i, 2, ("x", "y"), 9))
        pack2 = curvature(metric_jet(inst2.spec, pts, 3))
        tet2 = walker_tetrad(inst2.spec)
        sd2, asd2 = weyl_quartic(pack2, tet2).values()
        worst_asd = max(worst_asd, _rel(asd2.scale, np.maximum(sd2.scale, asd2.ref_scale)))
        worst_par = max(worst_par, float(np.max(parallel_residual(inst2.spec, beta_dist(t01, tet2), pts))))
        worst_s = max(worst_s, float(np.max(np.abs(pack2.scalar_val) / np.maximum(pack2.riemann_scale(), 1e-30))))
    passed = worst_asd < TOL_ZERO and worst_par < TOL_ZERO and worst_s < TOL_ZERO
    return CriterionResult(
        "c07",
        "self-dual family has vanishing anti-self-dual quartic; two-sided variant adds W parallel and S = 0",
        passed,
        f"ASD {worst_asd:.2e}, W par {worst_par:.2e}, S {worst_s:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 8: Ricci-degenerate family


def criterion_08() -> CriterionResult:
    worst_ez, worst_s, worst_c34 = 0.0, 0.0, 0.0
    for i in range(N_INSTANCES):
        pts = _points(8100 + i)
        h_xy, f1, g1 = random_polys(8200 + i, 2, ("x", "y"), 3)
        theta_coeffs = random_polys(8300 + i, 1, ("u", "x", "y"), 3)
        # theta quadratic in v: coefficient functions free of v
        theta = add_(
            add_(mul_(theta_coeffs[0], _V**2), mul_(theta_coeffs[1], _V)),
            mul_(theta_coeffs[2], mul_(_U, _V)),
        )
        F = add_(mul_(mul_(Num(0.5), h_xy), _U**2), mul_(f1, _U))
        G = add_(mul_(mul_(Num(0.5), h_xy), _V**2), mul_(g1, _V))
        inst = mk_ricci_null(theta, F, G)
        pack = curvature(metric_jet(inst.spec, pts, 3))
        tet = walker_tetrad(inst.spec)
        zdist = alpha_dist(ProjParam.of(1, 0), tet)
        worst_ez = max(worst_ez, float(np.max(ricci_null_residual(pack, zdist))))
        h_vals = eval_scalar(parse_expr(inst.provenance["h"]), pts)
        scale = np.maximum(np.abs(2.0 * h_vals), pack.riemann_scale())
        worst_s = max(worst_s, float(np.max(np.abs(pack.scalar_val - 2.0 * h_vals) / np.maximum(scale, 1e-30))))
        assert "MULT_WPS_BETA" in inst.tags
        asd = weyl_quartic(pack, tet)["ASD"]
        worst_c34 = max(worst_c34, _rel(np.max(np.abs(asd.coeffs[:, 3:]), axis=1), asd.scale))
    passed = worst_ez < TOL_ZERO and worst_s < TOL_ZERO and worst_c34 < TOL_ZERO
    return CriterionResult(
        "c08",
        "Ricci-degenerate family: E vanishes on the distinguished plane, S = 2h, double root at (0:1)",
        passed,
        f"E|Z {worst_ez:.2e}, S-2h {worst_s:.2e}, c3/c4 {worst_c34:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 9: left-flat family


def criterion_09() -> CriterionResult:
    worst_ric, worst_asd = 0.0, 0.0
    sd_nonzero = True
    for i in range(N_INSTANCES):
        pts = _points(9100 + i)
        coeffs = random_polys(9200 + i, 2, ("x", "y"), 5)
        coeffs = [mul_(Num(0.5), e) for e in coeffs]  # keep exp(X/2) moderate
        inst = mk_left_flat(*coeffs)
        pack = curvature(metric_jet(inst.spec, pts, 3))
        worst_ric = max(
            worst_ric,
            float(np.max(np.max(np.abs(pack.ricci_val), axis=(1, 2)) / np.maximum(pack.riemann_scale(), 1e-30))),
        )
        tet = walker_tetrad(inst.spec)
        sd, asd = weyl_quartic(pack, tet).values()
        worst_asd = max(worst_asd, _rel(asd.scale, np.maximum(sd.scale, asd.ref_scale)))
        if any(rl.type_string == "O" for rl in root_structure(sd)):
            sd_nonzero = False
    passed = worst_ric < TOL_ZERO and worst_asd < TOL_ZERO and sd_nonzero
    return CriterionResult(
        "c09",
        "left-flat family: Ricci and anti-self-dual Weyl vanish, self-dual Weyl does not",
        passed,
        f"Ricci {worst_ric:.2e}, ASD {worst_asd:.2e}, SD nonzero {sd_nonzero}",
    )


# ---------------------------------------------------------------------------
# criterion 10: the conformally-Einstein reference pair


def criterion_10() -> CriterionResult:
    from .analyze import run_analysis

    g_inst, h_inst, t_field = mk_cp_example(mul_(_X, _Y))
    pts = _points(10_100)
    problems = []

    pack_g = curvature(metric_jet(g_inst.spec, pts, 3))
    riem = np.maximum(pack_g.riemann_scale(), 1e-30)
    if float(np.max(np.abs(pack_g.scalar_val) / riem)) >= TOL_ZERO:
        problems.append("S(g) != 0")
    if float(np.min(einstein_residual(pack_g))) <= TOL_NONZERO:
        problems.append("g unexpectedly Einstein")

    tet_g = walker_tetrad(g_inst.spec)
    roots_sd, roots_asd = (root_structure(q) for q in weyl_quartic(pack_g, tet_g).values())
    for p, (rs, ra) in enumerate(zip(roots_sd, roots_asd)):
        if rs.type_string != "{4}" or abs(rs.entries[0].value) > TOL_NONZERO:
            problems.append(f"SD root structure at point {p}: {rs.type_string}")
            break
        expected = pts[p, 1] / pts[p, 0]
        if ra.type_string != "{4}" or abs(ra.entries[0].value.real - expected) > TOL_NONZERO * max(1.0, expected):
            problems.append(f"ASD root at point {p} not v/u")
            break

    wdist = beta_dist(t_field, tet_g)
    hdist = dist_H(t_field, tet_g)
    if float(np.max(frobenius_residual(wdist, pts))) >= TOL_ZERO:
        problems.append("W not integrable")
    if float(np.min(parallel_residual(g_inst.spec, wdist, pts))) <= TOL_NONZERO:
        problems.append("W unexpectedly parallel")
    if float(np.min(frobenius_residual(hdist, pts))) <= TOL_NONZERO:
        problems.append("H unexpectedly integrable")

    pack_h = curvature(metric_jet(h_inst.spec, pts, 3))
    riem_h = np.maximum(pack_h.riemann_scale(), 1e-30)
    if float(np.max(einstein_residual(pack_h))) >= TOL_ZERO:
        problems.append("h not Einstein")
    if float(np.max(np.abs(pack_h.scalar_val) / riem_h)) >= TOL_ZERO:
        problems.append("S(h) != 0")

    tet_h = walker_tetrad(h_inst.spec)
    roots_sd_h, roots_asd_h = (root_structure(q) for q in weyl_quartic(pack_h, tet_h).values())
    for p in range(len(pts)):
        rs_g, rs_h = roots_sd[p], roots_sd_h[p]
        ra_g, ra_h = roots_asd[p], roots_asd_h[p]
        if rs_g.type_string != rs_h.type_string or ra_g.type_string != ra_h.type_string:
            problems.append(f"root structures differ between g and h at point {p}")
            break
        rg, rh = ra_g.entries[0].value.real, ra_h.entries[0].value.real
        if abs(rg - rh) > TOL_NONZERO * max(1.0, abs(rg)):
            problems.append(f"ASD root moved under rescaling at point {p}")
            break

    wp = g_inst.spec
    box_closed = walker_box_closed_form(wp.a, wp.b, wp.c, h_inst.spec.chi, pts)
    box_generic = box_scalar(wp, h_inst.spec.chi, pts)
    box_scale = np.maximum(riem, 1.0)
    if float(np.max(np.abs(box_closed) / box_scale)) >= TOL_ZERO or float(
        np.max(np.abs(box_generic) / box_scale)
    ) >= TOL_ZERO:
        problems.append("box of the conformal factor does not vanish")

    for inst in (g_inst, h_inst):
        cfg = AnalysisConfig(
            spec=inst.spec, t_field=t_field, points=10, seed=7, exclude=(("v", 0.0),), source=inst.name
        )
        report = run_analysis(cfg)
        if report.verdict != "no:H":
            problems.append(f"verdict for {inst.name} is {report.verdict}, expected no:H")

    return CriterionResult(
        "c10",
        "reference pair: curvature, quartic roots, frame residuals, and verdict all match",
        not problems,
        "all golden checks hold" if not problems else "; ".join(problems),
    )


# ---------------------------------------------------------------------------
# criterion 11: conformal transformation laws


def criterion_11() -> CriterionResult:
    worst_s, worst_box, worst_psi2 = 0.0, 0.0, 0.0
    kappa = default_kappa()
    for i in range(N_INSTANCES):
        pts = _points(11_100 + i)
        a, b, c = random_polys(11_200 + i, 2, ("u", "v", "x", "y"), 3)
        spec = MetricSpec.walker(a, b, c)
        chi_exp = random_polys(11_300 + i, 2, ("u", "v", "x", "y"), 1)[0]
        from ..exprkit.ast import Call

        chi = Call("exp", mul_(Num(0.3), chi_exp))
        rescaled = conformal_rescale(spec, chi)

        pack = curvature(metric_jet(spec, pts, 3))
        pack_r = curvature(metric_jet(rescaled, pts, 3))
        chi_v = eval_scalar(chi, pts)
        predicted = chi_v**-2.0 * (pack.scalar_val - 6.0 * np.asarray(box_scalar(spec, chi, pts)) / chi_v)
        scale = np.maximum(np.abs(predicted), pack_r.riemann_scale())
        worst_s = max(worst_s, float(np.max(np.abs(pack_r.scalar_val - predicted) / np.maximum(scale, 1e-30))))

        bc = np.asarray(walker_box_closed_form(a, b, c, chi, pts))
        bg = np.asarray(box_scalar(spec, chi, pts))
        worst_box = max(worst_box, float(np.max(np.abs(bc - bg) / np.maximum(np.abs(bc), 1.0))))

        tet = walker_tetrad(spec)
        from ..exprkit.calculus import div_

        tet_r = Tetrad(**{k: tuple(div_(comp, chi) for comp in vec) for k, vec in tet.vectors().items()})
        asd = weyl_quartic(pack, tet)["ASD"]
        asd_r = weyl_quartic(pack_r, tet_r)["ASD"]
        psi2 = asd.coeffs[:, 2] / (6.0 * kappa.value)
        psi2_r = asd_r.coeffs[:, 2] / (6.0 * kappa.value)
        predicted2 = chi_v**-2.0 * psi2
        scale2 = np.maximum(np.abs(predicted2), asd.scale / (6.0 * abs(kappa.value)))
        worst_psi2 = max(worst_psi2, _rel(np.abs(psi2_r - predicted2), scale2))
    passed = worst_s < TOL_ZERO and worst_box < 1e-8 and worst_psi2 < TOL_ZERO
    return CriterionResult(
        "c11",
        "conformal laws: scalar curvature, wave operator, and middle component transform correctly",
        passed,
        f"S {worst_s:.2e}, box {worst_box:.2e}, psi2 {worst_psi2:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 12: constructive conformal factor


def criterion_12() -> CriterionResult:
    worst = 0.0
    for i in range(3):
        pts = _points(12_100 + i)
        a = random_polys(12_200 + i, 2, ("u", "x", "y"), 1)[0]
        c1 = random_polys(12_300 + i, 2, ("u", "x", "y"), 1)[0]
        phi = random_polys(12_400 + i, 2, ("x", "y"), 1)[0]
        b = random_polys(12_500 + i, 2, ("u", "v", "x", "y"), 1)[0]
        inst = mk_walker(a, b, add_(c1, mul_(_V, phi)))
        chi = conformal_two_sided_factor(inst)
        rescaled = conformal_rescale(inst.spec, chi)
        tet = walker_tetrad(inst.spec)
        for dist in (alpha_dist(ProjParam.of(1, 0), tet), beta_dist(ProjParam.of(0, 1), tet)):
            worst = max(worst, float(np.max(parallel_residual(rescaled, dist, pts))))
    try:
        conformal_two_sided_factor(mk_walker(_U**2, _V**2, mul_(_U, _V)))
        obstruction_raised = False
    except ObstructionPresent:
        obstruction_raised = True
    passed = worst < TOL_ZERO and obstruction_raised
    return CriterionResult(
        "c12",
        "constructed conformal factor makes both null-plane distributions parallel; c = uv is rejected",
        passed,
        f"max parallel residual {worst:.2e}, obstruction raised: {obstruction_raised}",
    )


# ---------------------------------------------------------------------------
# criterion 13: root-structure unit suite


def criterion_13() -> CriterionResult:
    def form(coeffs):
        c = np.asarray(coeffs, dtype=float)
        return QuarticForm("ASD", c, None, 10.0)

    cases = []
    # (t-1)^2 (t-2) (t+3) = t^4 - t^3 - 7 t^2 + 13 t - 6
    rl = root_structure(form([-6.0, 13.0, -7.0, -1.0, 1.0]))
    cases.append(("{211}", rl.type_string == "{211}" and rl.multiplicities() == (2, 1, 1)))
    # t^3: triple root at 0 plus a root at infinity
    rl = root_structure(form([0.0, 0.0, 0.0, 1.0, 0.0]))
    has_inf = any(e.kind == "inf" and e.multiplicity == 1 for e in rl.entries)
    cases.append(("{31}", rl.type_string == "{31}" and has_inf))
    # (t^2+1)(t-1)(t-2) = t^4 - 3t^3 + 3t^2 - 3t + 2
    rl = root_structure(form([2.0, -3.0, 3.0, -3.0, 1.0]))
    pair = [e for e in rl.entries if e.kind == "complex_pair"]
    cases.append(("{1111}+pair", rl.type_string == "{1111}" and len(pair) == 1))
    # (t^2+1)^2: double complex pair
    rl = root_structure(form([1.0, 0.0, 2.0, 0.0, 1.0]))
    cases.append(("{22}", rl.type_string == "{22}"))
    # (t-2)^4 with relative coefficient noise 1e-9
    c = np.array([16.0, -32.0, 24.0, -8.0, 1.0])
    noisy = c * (1.0 + 1e-9 * np.array([1.0, -0.7, 0.3, -0.2, 0.9]))
    rl = root_structure(form(noisy))
    quad_ok = rl.type_string == "{4}" and abs(rl.entries[0].value.real - 2.0) < 1e-3 * 2.0
    cases.append(("{4} noisy", quad_ok))
    # double root at infinity: quadratic only
    rl = root_structure(form([6.0, 5.0, 1.0, 0.0, 0.0]))
    cases.append(("{211} inf2", rl.type_string == "{211}" and any(e.kind == "inf" and e.multiplicity == 2 for e in rl.entries)))
    # zero form
    rl = root_structure(form([0.0] * 5))
    cases.append(("O", rl.type_string == "O"))

    failing = [name for name, ok in cases if not ok]
    return CriterionResult(
        "c13",
        "constructed quartics (multiple, infinite, complex-pair roots) classify exactly",
        not failing,
        "all cases classified" if not failing else f"failing: {failing}",
    )


CRITERIA = [
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
]


def run_all() -> list:
    return [fn() for fn in CRITERIA]


def selftest(output_format: str = "text") -> int:
    """Run every acceptance criterion; returns a nonzero exit status when
    any criterion fails."""
    results = run_all()
    if output_format == "json":
        rows = [{"id": r.cid, "description": r.description, "passed": r.passed, "detail": r.detail} for r in results]
        print(dumps_json(rows))
    else:
        for r in results:
            print(r.line())
        n_failed = sum(not r.passed for r in results)
        print(f"{len(results) - n_failed}/{len(results)} criteria passed")
    return 0 if all(r.passed for r in results) else 1
