"""Builders for the structured metric families, with build-time symbolic
constraint checks and machine-checkable expected-property tags.

Line elements quoted in the literature list the dx^2, 2 dx dy, dy^2
coefficients; the builders normalize those to the matrix entries a, c, b
of the walker block in this one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
import numpy as np

from .errors import (
    CoefficientDependsOnUV,
    ConstraintViolated,
    NotMultipleWPS,
    NullplaneError,
    ObstructionPresent,
)
from .exprkit.ast import Call, Expr, Num, Var, as_expr
from .exprkit.calculus import (
    add_,
    antideriv_poly,
    depends_on,
    diff_expr,
    div_,
    is_zero_expr,
    mul_,
    neg_,
    pow_,
    sub_,
)
from .frames import ProjParam, alpha_dist, beta_dist, walker_tetrad
from .tensor.metric import MetricSpec, conformal_rescale

_U, _V, _X, _Y = Var("u"), Var("v"), Var("x"), Var("y")

# expected-property tags
WALKER_TAG = "WALKER"
SD_TAG = "SD"
TWO_SIDED = "TWO_SIDED"
RICCI_NULL = "RICCI_NULL"
LEFT_FLAT = "LEFT_FLAT"
EINSTEIN = "EINSTEIN"
TYPE4_BOTH = "TYPE4_BOTH"
SESQUI = "SESQUI"
MULT_WPS_BETA = "MULT_WPS_BETA"


@dataclass
class FamilyInstance:
    name: str
    spec: MetricSpec
    t_field: ProjParam
    tags: frozenset
    provenance: dict = field(default_factory=dict)
    exclude: tuple = ()


def _t01() -> ProjParam:
    return ProjParam.of(0, 1)


def _check_xy_only(name: str, e: Expr) -> None:
    if depends_on(e, "u") or depends_on(e, "v"):
        raise CoefficientDependsOnUV(f"coefficient {name} must depend on (x, y) only, got '{e}'")


def mk_walker(a, b, c) -> FamilyInstance:
    """Arbitrary walker metric; detects v-independence of a and c."""
    a, b, c = as_expr(a), as_expr(b), as_expr(c)
    spec = MetricSpec.walker(a, b, c)
    tags = {WALKER_TAG}
    if is_zero_expr(diff_expr(a, "v")) and is_zero_expr(diff_expr(c, "v")):
        tags.add(TWO_SIDED)
    return FamilyInstance(
        name="walker",
        spec=spec,
        t_field=_t01(),
        tags=frozenset(tags),
        provenance={"a": str(a), "b": str(b), "c": str(c)},
    )


_SD_COEFF_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H", "K", "L", "M", "N", "P", "Q", "T")


def mk_sd2015(*coeffs, **named) -> FamilyInstance:
    """Self-dual walker family; the fifteen coefficients A..T (skipping
    I, J, O, R, S) are functions of (x, y), defaulting to zero:

        a = A u^3 + B u^2 v + C u^2 + 2D uv + E u + F v + G
        b = B v^3 + A u v^2 + K v^2 + 2L uv + M u + N v + H
        c = A u^2 v + B u v^2 + L u^2 + D v^2 + (C+K)/2 uv + P u + Q v + T
    """
    if len(coeffs) > len(_SD_COEFF_NAMES):
        raise TypeError(f"at most {len(_SD_COEFF_NAMES)} coefficients")
    table = {name: Num(0.0) for name in _SD_COEFF_NAMES}
    for name, value in zip(_SD_COEFF_NAMES, coeffs):
        table[name] = as_expr(value)
    for name, value in named.items():
        if name not in table:
            raise TypeError(f"unknown coefficient {name!r}")
        table[name] = as_expr(value)
    for name, e in table.items():
        _check_xy_only(name, e)
    A, B, C, D, E, F, G, H, K, L, M, N, P, Q, T = (table[n] for n in _SD_COEFF_NAMES)

    def _sum(*terms):
        out: Expr = Num(0.0)
        for coeff, *var_factors in terms:
            term = as_expr(coeff)
            for vf in var_factors:
                term = mul_(term, vf)
            out = add_(out, term)
        return out

    a = _sum((A, pow_(_U, 3)), (B, pow_(_U, 2), _V), (C, pow_(_U, 2)),
             (mul_(Num(2.0), D), _U, _V), (E, _U), (F, _V), (G,))
    b = _sum((B, pow_(_V, 3)), (A, _U, pow_(_V, 2)), (K, pow_(_V, 2)),
             (mul_(Num(2.0), L), _U, _V), (M, _U), (N, _V), (H,))
    c = _sum((A, pow_(_U, 2), _V), (B, _U, pow_(_V, 2)), (L, pow_(_U, 2)),
             (D, pow_(_V, 2)), (div_(add_(C, K), Num(2.0)), _U, _V),
             (P, _U), (Q, _V), (T,))
    return FamilyInstance(
        name="sd2015",
        spec=MetricSpec.walker(a, b, c),
        t_field=_t01(),
        tags=frozenset({WALKER_TAG, SD_TAG}),
        provenance={name: str(table[name]) for name in _SD_COEFF_NAMES},
    )


def mk_sd_two_sided(C=0, E=0, G=0, L=0, M=0, N=0, H=0, P=0, T=0) -> FamilyInstance:
    """Self-dual and two-sided walker family (coefficients in x, y):

        a = C u^2 + E u + G
        b = -C v^2 + 2L uv + M u + N v + H
        c = L u^2 + P u + T

    The scalar curvature vanishes identically (a_uu + b_vv + 2c_uv = 0).
    """
    table = {"C": C, "E": E, "G": G, "L": L, "M": M, "N": N, "H": H, "P": P, "T": T}
    table = {k: as_expr(val) for k, val in table.items()}
    for name, e in table.items():
        _check_xy_only(name, e)
    C_, E_, G_, L_, M_, N_, H_, P_, T_ = (table[k] for k in ("C", "E", "G", "L", "M", "N", "H", "P", "T"))
    a = add_(add_(mul_(C_, pow_(_U, 2)), mul_(E_, _U)), G_)
    b = add_(
        add_(add_(mul_(neg_(C_), pow_(_V, 2)), mul_(mul_(Num(2.0), L_), mul_(_U, _V))), mul_(M_, _U)),
        add_(mul_(N_, _V), H_),
    )
    c = add_(add_(mul_(L_, pow_(_U, 2)), mul_(P_, _U)), T_)
    return FamilyInstance(
        name="sd_two_sided",
        spec=MetricSpec.walker(a, b, c),
        t_field=_t01(),
        tags=frozenset({WALKER_TAG, SD_TAG, TWO_SIDED}),
        provenance={k: str(v) for k, v in table.items()},
    )


def mk_two_sided(a, b, c) -> FamilyInstance:
    """Walker metric with a and c independent of v (checked symbolically);
    both null-plane distributions of the (0:1) parameter are parallel."""
    a, b, c = as_expr(a), as_expr(b), as_expr(c)
    for name, e in (("a", a), ("c", c)):
        if not is_zero_expr(diff_expr(e, "v")):
            raise ConstraintViolated(f"component {name} must be independent of v, got '{e}'")
    return FamilyInstance(
        name="two_sided",
        spec=MetricSpec.walker(a, b, c),
        t_field=_t01(),
        tags=frozenset({WALKER_TAG, TWO_SIDED}),
        provenance={"a": str(a), "b": str(b), "c": str(c)},
    )


def mk_ricci_null(theta, F, G) -> FamilyInstance:
    """Walker metric whose trace-free Ricci vanishes on the distinguished
    plane family:

        a = -2 theta_vv + F(u,x,y)
        b = -2 theta_uu + G(v,x,y)
        c = 2 theta_uv

    with F_uu = G_vv =: h(x, y); the scalar curvature is 2h.  When theta
    is at most quadratic in v the (0:1) direction is a double root of the
    anti-self-dual quartic.
    """
    theta, F, G = as_expr(theta), as_expr(F), as_expr(G)
    if depends_on(F, "v"):
        raise ConstraintViolated("F must be independent of v")
    if depends_on(G, "u"):
        raise ConstraintViolated("G must be independent of u")
    f_uu = diff_expr(diff_expr(F, "u"), "u")
    g_vv = diff_expr(diff_expr(G, "v"), "v")
    for name, e in (("F_uu", f_uu), ("G_vv", g_vv)):
        if depends_on(e, "u") or depends_on(e, "v"):
            raise ConstraintViolated(f"{name} must be a function of (x, y) only, got '{e}'")
    if not is_zero_expr(sub_(f_uu, g_vv)):
        raise ConstraintViolated(f"F_uu = '{f_uu}' and G_vv = '{g_vv}' must be equal")

    t_vv = diff_expr(diff_expr(theta, "v"), "v")
    t_uu = diff_expr(diff_expr(theta, "u"), "u")
    t_uv = diff_expr(diff_expr(theta, "u"), "v")
    a = add_(mul_(Num(-2.0), t_vv), F)
    b = add_(mul_(Num(-2.0), t_uu), G)
    c = mul_(Num(2.0), t_uv)
    tags = {WALKER_TAG, RICCI_NULL}
    if is_zero_expr(diff_expr(t_vv, "v")):
        tags.add(MULT_WPS_BETA)
    return FamilyInstance(
        name="ricci_null",
        spec=MetricSpec.walker(a, b, c),
        t_field=_t01(),
        tags=frozenset(tags),
        provenance={"theta": str(theta), "F": str(F), "G": str(G), "h": str(f_uu)},
    )


def mk_left_flat(X=0, Y=0, K5=0, K6=0, K7=0) -> FamilyInstance:
    """Walker family whose only curvature is the self-dual Weyl part:

        a = u X_x - 4 K7
        c = -4 u Y_x exp(X/2) + 2 K6
        b = -4 (u Y_y + v Y_x) exp(X/2) - v X_y - 4 K5

    with X, Y, K5, K6, K7 functions of (x, y).
    """
    table = {"X": as_expr(X), "Y": as_expr(Y), "K5": as_expr(K5), "K6": as_expr(K6), "K7": as_expr(K7)}
    for name, e in table.items():
        _check_xy_only(name, e)
    X_, Y_, K5_, K6_, K7_ = (table[k] for k in ("X", "Y", "K5", "K6", "K7"))
    ex2 = Call("exp", mul_(Num(0.5), X_))
    a = add_(mul_(_U, diff_expr(X_, "x")), mul_(Num(-4.0), K7_))
    c = add_(mul_(mul_(Num(-4.0), mul_(_U, diff_expr(Y_, "x"))), ex2), mul_(Num(2.0), K6_))
    b = add_(
        add_(
            mul_(Num(-4.0), mul_(add_(mul_(_U, diff_expr(Y_, "y")), mul_(_V, diff_expr(Y_, "x"))), ex2)),
            neg_(mul_(_V, diff_expr(X_, "y"))),
        ),
        mul_(Num(-4.0), K5_),
    )
    return FamilyInstance(
        name="left_flat",
        spec=MetricSpec.walker(a, b, c),
        t_field=_t01(),
        tags=frozenset({WALKER_TAG, TWO_SIDED, LEFT_FLAT}),
        provenance={k: str(v) for k, v in table.items()},
    )


def mk_cp_example(F=0):
    """The conformally-Einstein reference pair: a walker metric g with

        a = exp(4F) u^4 / (3 v^2) + 4 u F_x
        c = 2 exp(4F) u^3 / (3 v)  + 2 u F_y
        b = exp(4F) u^2 + 2 v F_y

    (F a function of x, y; the v = 0 locus is excluded) and its rescaling
    h = (1/v)^2 g, which is Einstein with both Weyl quartics of type {4}.
    The distinguished beta-family parameter is (u : v).
    """
    F = as_expr(F)
    _check_xy_only("F", F)
    e4f = Call("exp", mul_(Num(4.0), F))
    fx, fy = diff_expr(F, "x"), diff_expr(F, "y")
    a = add_(div_(mul_(e4f, pow_(_U, 4)), mul_(Num(3.0), pow_(_V, 2))), mul_(Num(4.0), mul_(_U, fx)))
    c = add_(div_(mul_(Num(2.0), mul_(e4f, pow_(_U, 3))), mul_(Num(3.0), _V)), mul_(Num(2.0), mul_(_U, fy)))
    b = add_(mul_(e4f, pow_(_U, 2)), mul_(Num(2.0), mul_(_V, fy)))
    t_field = ProjParam.of(_U, _V)
    g_inst = FamilyInstance(
        name="cp_g",
        spec=MetricSpec.walker(a, b, c),
        t_field=t_field,
        tags=frozenset({WALKER_TAG, SESQUI}),
        provenance={"F": str(F)},
        exclude=("v=0",),
    )
    chi = div_(Num(1.0), _V)
    h_inst = FamilyInstance(
        name="cp_h",
        spec=MetricSpec.conformal_walker(chi, a, b, c),
        t_field=t_field,
        tags=frozenset({EINSTEIN, TYPE4_BOTH}),
        provenance={"F": str(F), "chi": str(chi)},
        exclude=("v=0",),
    )
    return g_inst, h_inst, t_field


def conformal_two_sided_factor(inst: FamilyInstance) -> Expr:
    """Conformal factor chi(x, y) such that chi^2 g has both null-plane
    distributions of the (0:1) parameter parallel.

    Requires a_v = 0 and c = c1(u,x,y) + v phi(x,y); the factor is
    exp(-f) with f = -(1/2) * antiderivative of phi in x, checked at five
    seeded points (the factor and its residual go into the instance
    provenance); the mixed derivative c_uv presents the obstruction.
    """
    spec = inst.spec
    if spec.kind != "walker":
        raise ConstraintViolated("conformal factor construction needs a walker-kind metric")
    a, c = spec.a, spec.c
    if not is_zero_expr(diff_expr(a, "v")):
        raise ConstraintViolated("component a must be independent of v")
    c_v = diff_expr(c, "v")
    if not is_zero_expr(diff_expr(c_v, "v")):
        raise NotMultipleWPS("component c must be linear in v (c_vv must vanish)")
    if not is_zero_expr(diff_expr(c_v, "u")):
        raise ObstructionPresent("mixed derivative c_uv must vanish")
    phi = c_v
    f = mul_(Num(-0.5), antideriv_poly(phi, "x"))
    chi = Call("exp", neg_(f))

    check_points = np.random.default_rng(2718281).uniform(0.5, 1.5, (5, 4))
    from .frames import parallel_residual

    tet = walker_tetrad(spec)
    rescaled = conformal_rescale(spec, chi)
    dists = (alpha_dist(ProjParam.of(1, 0), tet), beta_dist(_t01(), tet))
    res = max(np.max(parallel_residual(rescaled, dist, check_points)) for dist in dists)
    if res >= 1e-7:
        raise NullplaneError(f"the rescaled metric is not two-sided (residual {res:.2e})")
    inst.provenance["conformal_factor"] = {"chi": str(chi), "residual": res}
    return chi


def random_polys(seed: int, degree: int, variables, count: int) -> list:
    """Deterministic random polynomials with coefficients in [-1, 1] over
    all monomials of total degree <= degree in the given variables."""
    if not 0 <= degree <= 4:
        raise ValueError("degree must be between 0 and 4")
    names = tuple(variables)
    rng = np.random.default_rng(seed)
    monos = []
    for total in range(degree + 1):
        monos.extend(combinations_with_replacement(names, total))
    out = []
    for _ in range(count):
        e: Expr = Num(0.0)
        for mono in monos:
            coeff = Num(round(float(rng.uniform(-1.0, 1.0)), 6))
            term: Expr = coeff
            for name in mono:
                term = mul_(term, Var(name))
            e = add_(e, term)
        out.append(e)
    return out
