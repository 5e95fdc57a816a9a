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
constant, kappa = -4.  calibrate_kappa recomputes it on metrics with a and
c independent of v, where the middle component must equal S/12 on both
sides, and asserts that it is instance- and point-independent; acceptance
criterion 05 and the tests check that it gives the constant.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import CalibrationFailure, KindError, RankDeficient
from .exprkit.calculus import diff_expr, is_zero_expr
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
class CalibrationConstant:
    value: float
    provenance: dict


# ---------------------------------------------------------------------------
# quartic extraction


def weyl_quartic(pack: CurvaturePack, tet) -> dict:
    """The SD and ASD quartic forms at the pack's point(s): {"SD": QuarticForm,
    "ASD": QuarticForm}, each with a leading point axis unless the pack is a
    single point.

    tet is a Tetrad, or a frames.Frame at the pack's points.  The reference
    scale is the largest Weyl pairing C(b_i, b_j) over both sides' bivector
    bases, which is the magnitude the coefficients would have if the
    relevant Weyl part were generic.
    """
    bases = _as_frame(tet, pack.mj.cache).bases
    pairings = {}
    for side, basis in bases.items():
        # C(b_i, .) once per basis element, then paired with b_j for j >= i
        t = [(pack.weyl * b[:, :, None, None]).sum(axis=(0, 1)) for b in basis]
        pairings[side] = [(t[i] * basis[j]).sum(axis=(0, 1)) for i in range(3) for j in range(i, 3)]
    ref = np.max([np.abs(p) for side_pairings in pairings.values() for p in side_pairings], axis=0)

    point = 0 if pack.mj.single else slice(None)
    forms = {}
    for side, (p00, p01, p02, p11, p12, p22) in pairings.items():
        coeffs = np.stack([p00, 2.0 * p01, 2.0 * p02 + p11, 2.0 * p12, p22])  # (5, P)
        forms[side] = QuarticForm(side, coeffs.T[point], ref[point])
    return forms


# ---------------------------------------------------------------------------
# root structure

# Candidate clusters of four root slots in the greedy search order: size
# descending, then lexicographic.  A point with fewer roots uses those
# within its slots.
_CLUSTERS = [s for m in (4, 3, 2, 1) for s in combinations(range(4), m)]
_CLUSTER_SIZES = np.array([len(s) for s in _CLUSTERS])

# Entry kinds in the order a point's entries sort by; a RootTable's kind
# codes index this tuple.
ROOT_KINDS = ("complex_pair", "inf", "real")
_COMPLEX, _INF, _REAL, _NONE = 0, 1, 2, 3  # _NONE sorts after every kind


def root_type_string(code: int) -> str:
    """The type string of a RootTable type code: "{211}" for 211, "O" for 0."""
    return "{%d}" % code if code else "O"


class RootTable(Sequence):
    """Root structure of a batch of quartic forms as arrays, the point along
    the leading axis.  As a sequence it holds each point's RootList, built
    when it is read.

    type_code     (P,) the digits of the type string (211 for "{211}");
                  0 for a zero form ("O")
    kind          (P, 4) each entry's index into ROOT_KINDS, -1 past the
                  point's last entry
    value         (P, 4) complex: a real root, or the member of a complex
                  pair with positive imaginary part; 0 for "inf" and padding
    multiplicity  (P, 4) int, 0 for padding
    """

    __slots__ = ("type_code", "kind", "value", "multiplicity")
    __hash__ = None

    def __init__(self, type_code, kind, value, multiplicity):
        self.type_code = type_code
        self.kind = kind
        self.value = value
        self.multiplicity = multiplicity

    @staticmethod
    def concatenate(tables) -> "RootTable":
        return RootTable(*(np.concatenate([getattr(t, name) for t in tables]) for name in RootTable.__slots__))

    def __len__(self) -> int:
        return len(self.type_code)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RootTable(*(getattr(self, name)[i] for name in RootTable.__slots__))
        rows = zip(self.kind[i].tolist(), self.value[i].tolist(), self.multiplicity[i].tolist())
        entries = tuple(RootEntry(ROOT_KINDS[k], None if k == _INF else v, m) for k, v, m in rows if k >= 0)
        return RootList(entries, root_type_string(int(self.type_code[i])))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other):
        if isinstance(other, RootTable):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return f"RootTable({list(self)!r})"


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


def root_structure(q: QuarticForm):
    """Roots with multiplicities of a QuarticForm: a RootTable of the batch,
    classified with array operations, or the RootList of a single-point form.

    Near-zero leading coefficients deflate to roots at infinity.  The finite
    roots are np.roots' eigenvalues; a greedy search then takes the first
    cluster of the remaining roots, largest first, whose members lie within
    _ROOT_TOL^(1/multiplicity) (relative beyond 1) of their mean.  A cluster
    is real when its center lies within that radius of the real axis; each
    complex one, in search order, is paired with the nearest conjugate of a
    later unpaired one of equal multiplicity.  A point's entries are sorted
    by (kind, -multiplicity, |value|).
    """
    c = np.reshape(np.asarray(q.coeffs, dtype=float), (-1, 5))
    k = c.shape[0]
    scale = np.max(np.abs(c), axis=1)
    zero = scale <= _ROOT_TOL * np.maximum(q.ref_scale, _REF_FLOOR)
    small = np.abs(c[:, ::-1]) < _ROOT_TOL * scale[:, None]
    m_inf = np.cumprod(small, axis=1).sum(axis=1)
    lead = 4 - m_inf  # the number of finite roots, if positive
    rows = np.flatnonzero(~zero)
    n = rows.size
    roots, real = _quartic_roots(c[rows], lead[rows])

    remaining = np.arange(4) < lead[rows, None]
    centers, radii, taken = [], [], []
    for combo in _CLUSTERS:
        m = len(combo)
        total = np.zeros(n, dtype=complex)  # sum(group) starts at 0
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

    # each point's taken clusters in search order: at most four
    taken = np.stack(taken, axis=1)
    pick = np.argsort(~taken, axis=1, kind="stable")[:, :4]
    valid = np.take_along_axis(taken, pick, axis=1)
    center = np.take_along_axis(np.stack(centers, axis=1), pick, axis=1)
    radius = np.take_along_axis(np.stack(radii, axis=1), pick, axis=1)
    mult = np.where(valid, _CLUSTER_SIZES[pick], 0)
    is_real = valid & (np.abs(center.imag) <= radius)
    unpaired = valid & ~is_real  # complex clusters not yet given or taken as a partner
    first = np.zeros_like(valid)  # complex clusters that make an entry
    for i in range(4):
        first[:, i] = unpaired[:, i]
        later = unpaired[:, i + 1 :] & first[:, i, None] & (mult[:, i + 1 :] == mult[:, i, None])
        d = np.where(later, np.abs(center[:, i, None].conj() - center[:, i + 1 :]), np.inf)
        if d.shape[1]:
            best = np.argmin(d, axis=1)  # the first of equal distances
            found = np.flatnonzero(d[np.arange(n), best] < np.inf)
            unpaired[found, i + 1 + best[found]] = False

    # entries: one per real cluster, one per first complex cluster, and the
    # roots at infinity in a fifth slot; then each point's stable sort
    kind = np.full((n, 5), _NONE)
    kind[:, :4] = np.where(is_real, _REAL, np.where(first, _COMPLEX, _NONE))
    kind[:, 4] = np.where(m_inf[rows] > 0, _INF, _NONE)
    value = np.zeros((n, 5), dtype=complex)
    value[:, :4] = np.where(is_real, center.real, np.where(center.imag > 0, center, center.conj()))
    mult = np.concatenate([mult, m_inf[rows, None]], axis=1)
    order = np.lexsort((np.abs(value).ravel(), -mult.ravel(), kind.ravel(), np.repeat(np.arange(n), 5)))
    order = order.reshape(n, 5)[:, :4]  # padding sorts last; a point has at most four entries
    kind, value, mult = (a.ravel()[order] for a in (kind, value, mult))
    pad = kind == _NONE

    # the type code: the entries' multiplicities, a pair's twice, descending
    digits = np.concatenate([mult, np.where(kind == _COMPLEX, mult, 0)], axis=1)
    digits = np.where(pad[:, [0, 1, 2, 3, 0, 1, 2, 3]], 0, digits)
    code = np.zeros(n, dtype=np.int64)
    for d in (-np.sort(-digits, axis=1)).T:
        code = np.where(d > 0, code * 10 + d, code)

    table = RootTable(
        np.zeros(k, dtype=np.int64),
        np.full((k, 4), -1),
        np.zeros((k, 4), dtype=complex),
        np.zeros((k, 4), dtype=np.int64),
    )
    table.type_code[rows] = code
    table.kind[rows] = np.where(pad, -1, kind)
    table.value[rows] = np.where(pad | (kind == _INF), 0.0, value)
    table.multiplicity[rows] = np.where(pad, 0, mult)
    return table[0] if np.ndim(q.coeffs) == 1 else table


# ---------------------------------------------------------------------------
# component calibration

def calibrate_kappa(spec: MetricSpec, points) -> CalibrationConstant:
    """Fix the pairing constant via (middle component) = S/12 on metrics
    with a_v = c_v = 0; asserts point- and side-independence."""
    if spec.kind != WALKER:
        raise CalibrationFailure("calibration runs on walker-kind metrics")
    if not (is_zero_expr(diff_expr(spec.a, "v")) and is_zero_expr(diff_expr(spec.c, "v"))):
        raise CalibrationFailure("calibration instance must have a and c independent of v")
    pack = curvature(metric_jet(spec, points))
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


_DEFAULT_KAPPA = CalibrationConstant(
    value=-4.0,
    provenance={
        "oracle": "calibrate_kappa",
        "instances": [{"a": "u^2", "b": "v^2", "c": "u"}, {"a": "u^2", "b": "v^2", "c": "0"}],
        "sides": ["ASD", "SD"],
    },
)


def default_kappa() -> CalibrationConstant:
    """Package-wide calibration constant, kappa = -4 exactly.  calibrate_kappa
    gives this value, bit for bit, on a = u^2, b = v^2, c = u (S = 4) and
    on the independent instance c = 0."""
    return _DEFAULT_KAPPA


def obstruction_residual(spec: MetricSpec, p):
    """psi_2 - S/12 from the anti-self-dual quartic of a walker metric; the
    quantity whose vanishing characterizes conformally two-sided form, with
    the package-wide calibration constant."""
    if spec.kind != WALKER:
        raise KindError("the obstruction is evaluated in the walker gauge")
    pack = curvature(metric_jet(spec, p))
    c2 = weyl_quartic(pack, walker_tetrad(spec))["ASD"].coeffs[..., 2]
    out = c2 / (6.0 * default_kappa().value) - pack.scalar_val / 12.0
    return float(out[0]) if pack.mj.single else out


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
    out = _ricci_null_of(*_e_restricted(pack, _generators(zdist, pack.mj.cache)[0]))
    return float(out[0]) if pack.mj.single else out


def rps_discriminant(pack: CurvaturePack, zdist: Distribution):
    """det of E restricted to the 2-plane, normalized; a real principal
    direction of the trace-free Ricci form on the plane exists iff <= 0."""
    if zdist.rank != 2:
        raise RankDeficient("rps_discriminant needs a 2-plane distribution")
    out = _rps_of(*_e_restricted(pack, _generators(zdist, pack.mj.cache)[0]))
    return float(out[0]) if pack.mj.single else out
