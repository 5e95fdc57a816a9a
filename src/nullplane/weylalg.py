"""Weyl quartics over the null-plane families, root-multiplicity structure,
component calibration, and Ricci degeneracy residuals.

For a tetrad (l, n, m, mt) the plane families are parametrized by a
projective pair; their bivectors expand as

    self-dual      P(s) = l^mt + s (l^n + m^mt) + s^2 (m^n)
    anti-self-dual Q(t) = l^m  + t (l^n - m^mt) + t^2 (mt^n)

and the quartic value at parameter tau is C(P(tau), P(tau)) with the full
Weyl tensor (the opposite-duality part contracts to zero).  Roots of the
quartic are the principal directions of the corresponding Weyl half; the
walker direction is s = 0, i.e. the homogeneous parameter (1:0).

Component normalization (psi_k = c_k / (binom(4,k) kappa)) uses one global
calibration constant fixed on metrics with a and c independent of v, where
the middle component must equal S/12 on both sides; the constant is
asserted to be instance- and point-independent rather than derived from
any particular component convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

import numpy as np

from .errors import CalibrationFailure, DegenerateRoot, KindError, RankDeficient
from .exprkit.ast import Num, u as _u, v as _v
from .exprkit.calculus import diff_expr, is_zero_expr
from .exprkit.jets import as_points, deriv_coeffs, mul_coeffs
from .frames import Distribution, walker_tetrad, _as_frame, _generators
from .tensor.curvature import CurvaturePack, curvature
from .tensor.metric import WALKER, MetricSpec, metric_jet

_REF_FLOOR = 1e-4  # absolute curvature-reference floor for zero-form detection
_ROOT_TOL = 1e-8  # relative zero and cluster tolerance of root_structure


@dataclass
class QuarticForm:
    """Binary quartic of one duality side at a batch of points, along the
    leading axis of every array; a single point has no point axis."""

    side: str  # "SD" | "ASD"
    coeffs: np.ndarray  # (P, 5) c_0..c_4, c_k multiplying tau^k
    coeff_partials: Optional[np.ndarray]  # (P, 5, 4) coordinate partials, or None
    ref_scale: np.ndarray  # (P,) curvature x bivector^2 magnitude at each point

    @property
    def scale(self) -> np.ndarray:
        """max |c_k| at each point."""
        return np.max(np.abs(self.coeffs), axis=-1)


@dataclass(frozen=True)
class RootEntry:
    kind: str  # "real" | "complex_pair" | "inf"
    value: Optional[complex]
    multiplicity: int


@dataclass(frozen=True)
class RootList:
    entries: tuple
    type_string: str

    def multiplicities(self) -> tuple:
        out = []
        for e in self.entries:
            out.extend([e.multiplicity] * (2 if e.kind == "complex_pair" else 1))
        return tuple(sorted(out, reverse=True))


@dataclass(frozen=True)
class WeylComponents:
    psi: np.ndarray  # (..., 5)


@dataclass(frozen=True)
class CalibrationConstant:
    value: float
    provenance: dict


# ---------------------------------------------------------------------------
# quartic extraction


def _contract(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Jets of a_{ij...} b_{ij...} summed over the leading index pair."""
    return mul_coeffs(a, b, order, order, order).sum(axis=(0, 1))


def weyl_quartic(pack: CurvaturePack, tet) -> dict:
    """The SD and ASD quartic forms at the pack's point(s): {"SD": QuarticForm,
    "ASD": QuarticForm}, each with a leading point axis unless the pack is a
    single point.

    tet is a Tetrad, or a frames.Frame at the pack's points whose bivector
    bases have the pack's jet order.  Coefficient coordinate partials are
    included when the pack was built from order-3 metric jets.  The
    reference scale is the largest Weyl pairing C(b_i, b_j) over both
    sides' bivector bases, which is the magnitude the coefficients would
    have if the relevant Weyl part were generic.
    """
    order = pack.order
    bases = _as_frame(tet, pack.points, basis_order=order).bases
    pairings = {}
    for side, basis in bases.items():
        # C(b_i, .) once per basis element, then paired with b_j for j >= i
        t = [_contract(pack.weyl, b[:, :, None, None], order) for b in basis]
        pairings[side] = [_contract(t[i], basis[j], order) for i in range(3) for j in range(i, 3)]
    ref = np.max([np.abs(p[0]) for side_pairings in pairings.values() for p in side_pairings], axis=0)

    point = 0 if pack.mj.single else slice(None)
    forms = {}
    for side, (p00, p01, p02, p11, p12, p22) in pairings.items():
        coeffs = np.stack([p00, 2.0 * p01, 2.0 * p02 + p11, 2.0 * p12, p22])  # (5, M, P)
        partials = None
        if order >= 1:
            partials = np.moveaxis(deriv_coeffs(coeffs, order)[..., 0, :], -1, 0)[point]  # (P, 5, 4)
        forms[side] = QuarticForm(side, coeffs[:, 0].T[point], partials, ref[point])
    return forms


# ---------------------------------------------------------------------------
# root structure

# Candidate clusters of four root slots in the greedy search order: size
# descending, then lexicographic.  A point with fewer roots uses those
# within its slots.
_CLUSTERS = [s for m in (4, 3, 2, 1) for s in combinations(range(4), m)]


def _quartic_roots(c: np.ndarray, lead: np.ndarray):
    """np.roots of each row's polynomial c[i, lead[i]::-1] in np.roots'
    order, in slots 0..lead-1 of a (k, 4) complex array (no roots where
    lead < 1), with one np.linalg.eigvals call per degree.  Also returns
    whether each row's eigenvalues are all real, the case in which np.roots
    returns floats."""
    k = c.shape[0]
    roots = np.zeros((k, 4), dtype=complex)
    real = np.ones(k, dtype=bool)
    # np.roots strips exact trailing zeros and appends their roots as zeros
    trailing = np.cumprod(c == 0.0, axis=1).sum(axis=1)
    degree = lead - trailing
    for n in range(1, 5):
        rows = np.flatnonzero(degree == n)
        if rows.size == 0:
            continue
        p = c[rows[:, None], lead[rows, None] - np.arange(n + 1)]  # highest power first
        companion = np.zeros((rows.size, n, n))
        companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        eig = np.linalg.eigvals(companion)
        roots[rows, :n] = eig
        real[rows] = np.all(eig.imag == 0.0, axis=1)
    return roots, real


def _classify(clusters: list, m_inf: int) -> RootList:
    """RootList of one point's (center, multiplicity, radius) clusters."""
    entries = []
    complex_clusters = []
    for center, m, r in clusters:
        if abs(center.imag) <= r:
            entries.append(RootEntry("real", complex(center.real, 0.0), m))
        else:
            complex_clusters.append((center, m))
    used = [False] * len(complex_clusters)
    for i, (z, m) in enumerate(complex_clusters):
        if used[i]:
            continue
        used[i] = True
        best, bestd = None, np.inf
        for j in range(i + 1, len(complex_clusters)):
            if used[j] or complex_clusters[j][1] != m:
                continue
            d = abs(z.conjugate() - complex_clusters[j][0])
            if d < bestd:
                best, bestd = j, d
        if best is not None:
            used[best] = True
        rep = z if z.imag > 0 else z.conjugate()
        entries.append(RootEntry("complex_pair", rep, m))
    if m_inf:
        entries.append(RootEntry("inf", None, m_inf))

    entries.sort(key=lambda e: (e.kind, -e.multiplicity, abs(e.value) if e.value is not None else 0.0))
    mults = []
    for e in entries:
        mults.extend([e.multiplicity] * (2 if e.kind == "complex_pair" else 1))
    type_string = "{" + "".join(str(m) for m in sorted(mults, reverse=True)) + "}"
    return RootList(entries=tuple(entries), type_string=type_string)


def root_structure(q: QuarticForm):
    """Roots with multiplicities of a QuarticForm: a RootList for a
    single-point form, else a list of them, classified in one batch.

    Near-zero leading coefficients deflate to roots at infinity.  The finite
    roots are np.roots' eigenvalues; a greedy search then takes the first
    cluster of the remaining roots, largest first, whose members lie within
    _ROOT_TOL^(1/multiplicity) (relative beyond 1) of their mean.
    """
    c = np.reshape(np.asarray(q.coeffs, dtype=float), (-1, 5))
    k = c.shape[0]
    scale = np.max(np.abs(c), axis=1)
    zero = scale <= _ROOT_TOL * np.maximum(q.ref_scale, _REF_FLOOR)
    small = np.abs(c[:, ::-1]) < _ROOT_TOL * scale[:, None]
    m_inf = np.cumprod(small, axis=1).sum(axis=1)
    lead = 4 - m_inf  # the number of finite roots, if positive
    rows = np.flatnonzero(~zero)
    roots, real = _quartic_roots(c[rows], lead[rows])

    remaining = np.arange(4) < lead[rows, None]
    centers, radii, taken = [], [], []
    for combo in _CLUSTERS:
        m = len(combo)
        total = np.zeros(rows.size, dtype=complex)  # sum(group) starts at 0
        for i in combo:
            total = total + roots[:, i]
        # a point whose roots np.roots returns as floats divides as floats
        center = np.where(real, total.real / m, total / m)
        r = _ROOT_TOL ** (1.0 / m) * np.maximum(1.0, np.abs(center))
        fits = np.all([np.abs(roots[:, i] - center) <= r for i in combo], axis=0)
        take = fits & remaining[:, list(combo)].all(axis=1)
        remaining[np.ix_(take, combo)] = False
        centers.append(center)
        radii.append(r)
        taken.append(take)

    out = [RootList(entries=(), type_string="O")] * k
    per_point = zip(
        rows.tolist(),
        np.stack(centers, axis=1).tolist(),
        np.stack(radii, axis=1).tolist(),
        np.stack(taken, axis=1).tolist(),
        m_inf[rows].tolist(),
    )
    for p, cs, rs, ts, mi in per_point:
        clusters = [(cs[j], len(combo), rs[j]) for j, combo in enumerate(_CLUSTERS) if ts[j]]
        out[p] = _classify(clusters, mi)
    return out[0] if np.ndim(q.coeffs) == 1 else out


# ---------------------------------------------------------------------------
# component calibration

_BINOM4 = np.array([comb(4, k) for k in range(5)], dtype=float)


def weyl_components(q: QuarticForm, kappa: CalibrationConstant) -> WeylComponents:
    return WeylComponents(psi=q.coeffs / (_BINOM4 * kappa.value))


def calibrate_kappa(spec: MetricSpec, points) -> CalibrationConstant:
    """Fix the pairing constant via (middle component) = S/12 on metrics
    with a_v = c_v = 0; asserts point- and side-independence."""
    if spec.kind != WALKER:
        raise CalibrationFailure("calibration runs on walker-kind metrics")
    if not (is_zero_expr(diff_expr(spec.a, "v")) and is_zero_expr(diff_expr(spec.c, "v"))):
        raise CalibrationFailure("calibration instance must have a and c independent of v")
    pts, _ = as_points(points)
    pack = curvature(metric_jet(spec, pts, order=2))
    tet = walker_tetrad(spec)
    s_vals = pack.scalar_val
    if np.all(np.abs(s_vals) < 1e-8):
        raise CalibrationFailure("scalar curvature vanishes at all calibration points")
    keep = np.abs(s_vals) > 1e-8 * max(1.0, np.max(np.abs(s_vals)))
    forms = weyl_quartic(pack, tet)
    ratios = np.concatenate([(2.0 * forms[side].coeffs[..., 2] / s_vals)[keep] for side in ("ASD", "SD")])
    mean = float(np.mean(ratios))
    if abs(mean) < 1e-12:
        raise CalibrationFailure("calibration ratio is zero (degenerate instance)")
    if np.std(ratios) / abs(mean) > 1e-6:
        raise CalibrationFailure(
            f"calibration ratio not constant across points/sides (std/mean = {np.std(ratios)/abs(mean):.2e})"
        )
    return CalibrationConstant(
        value=mean,
        provenance={
            "instance": {"a": str(spec.a), "b": str(spec.b), "c": str(spec.c)},
            "points": int(np.sum(keep)),
            "sides": ["ASD", "SD"],
        },
    )


_DEFAULT_KAPPA: Optional[CalibrationConstant] = None


def default_kappa() -> CalibrationConstant:
    """Package-wide calibration constant, computed once and reused verbatim.

    Calibrated on a = u^2, b = v^2, c = u (S = 4) and cross-checked on the
    independent instance c = 0 to guard against convention drift.
    """
    global _DEFAULT_KAPPA
    if _DEFAULT_KAPPA is None:
        pts = np.random.default_rng(0xC0FFEE).uniform(0.5, 1.5, (10, 4))
        first = calibrate_kappa(MetricSpec.walker(_u**2, _v**2, _u), pts)
        second = calibrate_kappa(MetricSpec.walker(_u**2, _v**2, Num(0.0)), pts)
        if abs(first.value - second.value) > 1e-6 * abs(first.value):
            raise CalibrationFailure("calibration constant is instance-dependent")
        _DEFAULT_KAPPA = first
    return _DEFAULT_KAPPA


def obstruction_residual(spec: MetricSpec, p):
    """psi_2 - S/12 from the anti-self-dual quartic of a walker metric; the
    quantity whose vanishing characterizes conformally two-sided form, with
    the package-wide calibration constant."""
    if spec.kind != WALKER:
        raise KindError("the obstruction is evaluated in the walker gauge")
    pts, single = as_points(p)
    pack = curvature(metric_jet(spec, pts, order=2))
    c2 = weyl_quartic(pack, walker_tetrad(spec))["ASD"].coeffs[..., 2]
    out = c2 / (6.0 * default_kappa().value) - pack.scalar_val / 12.0
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Ricci degeneracy residuals

_RICCI_FLOOR = 1e-4  # fraction of the Riemann scale used as an E-scale floor


def einstein_residual(pack: CurvaturePack):
    """max |E_ab| normalized by the Ricci/Riemann scale (0 iff Einstein)."""
    num = np.max(np.abs(pack.efield_val), axis=(1, 2))
    den = np.maximum.reduce(
        [np.max(np.abs(pack.ricci_val), axis=(1, 2)), pack.riemann_scale(), np.full_like(num, 1e-30)]
    )
    out = num / den
    return float(out[0]) if pack.mj.single else out


def _e_restricted(pack: CurvaturePack, vals: np.ndarray):
    """The trace-free Ricci form on rank-checked generator values (k,4,P)
    and its normalization."""
    evals = pack.efield_val  # (P,4,4)
    m = np.einsum("iap,pab,jbp->ijp", vals, evals, vals)
    gen_scale = np.max(np.linalg.norm(vals, axis=1), axis=0)
    e_scale = np.maximum(
        np.max(np.abs(evals), axis=(1, 2)), _RICCI_FLOOR * pack.riemann_scale()
    )
    return m, e_scale * gen_scale**2


def _ricci_null_of(m: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.max(np.abs(m), axis=(0, 1)) / np.maximum(den, 1e-30)


def _rps_of(m: np.ndarray, den: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return det / np.maximum(den**2, 1e-30)


def ricci_null_residual(pack: CurvaturePack, zdist: Distribution):
    """max |E(X, Y)| over the distribution's generators, normalized; 0 iff
    the trace-free Ricci form vanishes on the plane."""
    out = _ricci_null_of(*_e_restricted(pack, _generators(zdist, pack.points)[0]))
    return float(out[0]) if pack.mj.single else out


def rps_discriminant(pack: CurvaturePack, zdist: Distribution):
    """det of E restricted to the 2-plane, normalized; a real principal
    direction of the trace-free Ricci form on the plane exists iff <= 0."""
    if zdist.rank != 2:
        raise RankDeficient("rps_discriminant needs a 2-plane distribution")
    out = _rps_of(*_e_restricted(pack, _generators(zdist, pack.points)[0]))
    return float(out[0]) if pack.mj.single else out


# ---------------------------------------------------------------------------
# implicit differentiation of a root field


def _falling(k: int, j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= k - i
    return out


_VANISH_TOL = 1e-6  # relative size below which a t-derivative of the quartic vanishes


def implicit_root_jet(q: QuarticForm, t_root: float) -> np.ndarray:
    """First coordinate partials of an isolated root field of a single-point
    quartic form.

    The root's multiplicity m is detected from the t-derivatives at t_root;
    implicit differentiation is applied to d^{m-1}q/dt^{m-1} = 0.  Raises
    DegenerateRoot when the multiplicity structure is not clearly resolved.
    """
    if q.coeff_partials is None:
        raise ValueError("quartic was built without coefficient partials (needs order-3 metric jets)")
    c = q.coeffs
    tmax = max(1.0, abs(t_root))
    mult = None
    for j in range(5):
        val = sum(c[k] * _falling(k, j) * t_root ** (k - j) for k in range(j, 5))
        bound = sum(abs(c[k]) * _falling(k, j) * tmax ** (k - j) for k in range(j, 5))
        bound = max(bound, q.scale, 1e-30)
        if abs(val) > _VANISH_TOL * bound:
            if abs(val) < 1e3 * _VANISH_TOL * bound:
                raise DegenerateRoot("root multiplicity is numerically marginal")
            mult = j
            break
    if mult is None:
        raise DegenerateRoot("all t-derivatives vanish (zero form)")
    if mult == 0:
        raise DegenerateRoot(f"t = {t_root} is not a root of the quartic")

    dG_dt = sum(c[k] * _falling(k, mult) * t_root ** (k - mult) for k in range(mult, 5))
    grad = np.zeros(4)
    for i in range(4):
        dG_dxi = sum(
            q.coeff_partials[k, i] * _falling(k, mult - 1) * t_root ** (k - mult + 1)
            for k in range(mult - 1, 5)
        )
        grad[i] = -dG_dxi / dG_dt
    return grad
