"""Metric specifications and their jets at sample points.

Coordinate order is (u, v, x, y).  A walker-kind metric is the block form

    g = [[0, 0, 1, 0],
         [0, 0, 0, 1],
         [1, 0, a, c],
         [0, 1, c, b]]

with a, b, c arbitrary coordinate functions; conformal_walker is chi^2
times that block; general holds ten independent components.  Every sampled
point is checked for finite components, invertibility and signature
(+, +, -, -).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DomainError, KindError, SingularMetric, at_point, require, require_finite
from ..exprkit.ast import COORDS, ONE, ZERO, Expr, as_expr
from ..exprkit.calculus import mul_, pow_
from ..exprkit.jets import JetCache, div_coeffs, mul_coeffs, n_coeffs, truncate_coeffs

WALKER = "walker"
CONFORMAL_WALKER = "conformal_walker"
GENERAL = "general"


@dataclass(frozen=True)
class MetricSpec:
    kind: str
    a: Optional[Expr] = None
    b: Optional[Expr] = None
    c: Optional[Expr] = None
    chi: Optional[Expr] = None
    components: Optional[tuple] = None  # 4x4 nested tuple of Expr, general kind

    @staticmethod
    def walker(a, b, c) -> "MetricSpec":
        return MetricSpec(WALKER, a=as_expr(a), b=as_expr(b), c=as_expr(c))

    @staticmethod
    def conformal_walker(chi, a, b, c) -> "MetricSpec":
        return MetricSpec(CONFORMAL_WALKER, a=as_expr(a), b=as_expr(b), c=as_expr(c), chi=as_expr(chi))

    @staticmethod
    def general(rows: Sequence[Sequence]) -> "MetricSpec":
        mat = [[as_expr(rows[i][j]) for j in range(4)] for i in range(4)]
        for i in range(4):
            for j in range(i):
                mat[i][j] = mat[j][i]  # upper triangle is authoritative
        return MetricSpec(GENERAL, components=tuple(tuple(r) for r in mat))

    def walker_part(self) -> "MetricSpec":
        """The underlying walker-form metric (identity for walker kind)."""
        if self.kind == WALKER:
            return self
        if self.kind == CONFORMAL_WALKER:
            return MetricSpec(WALKER, a=self.a, b=self.b, c=self.c)
        raise KindError("general metrics have no distinguished walker part")

    def component_exprs(self) -> list:
        if self.kind == GENERAL:
            return [list(row) for row in self.components]
        rows = [
            [ZERO, ZERO, ONE, ZERO],
            [ZERO, ZERO, ZERO, ONE],
            [ONE, ZERO, self.a, self.c],
            [ZERO, ONE, self.c, self.b],
        ]
        if self.kind == CONFORMAL_WALKER:
            chi2 = pow_(self.chi, 2)
            rows = [[mul_(chi2, e) for e in row] for row in rows]
        return rows


def conformal_rescale(spec: MetricSpec, chi) -> MetricSpec:
    """General-kind spec whose components are chi^2 times the input's."""
    chi = as_expr(chi)
    chi2 = pow_(chi, 2)
    rows = [[mul_(chi2, e) for e in row] for row in spec.component_exprs()]
    return MetricSpec.general(rows)


# ---------------------------------------------------------------------------
# jet-valued 4x4 linear algebra (coefficient arrays shaped (M, P))


_KEPT = np.array([[1, 0, 0, 0], [2, 2, 1, 1], [3, 3, 3, 2]])  # _KEPT[:, i]: the rows left after striking row i
_SIGN = (-1.0) ** np.add.outer(np.arange(4), np.arange(4))[:, :, None, None]


def det_and_adjugate(g: np.ndarray, order: int):
    """Determinant jet and adjugate jets of a 4x4 jet matrix: the 16 3x3
    minors are expanded at once, stacked on their (row, column) axes."""

    def mm(a, b):
        return mul_coeffs(a, b, order, order, order)

    m = g[_KEPT[:, None, :, None], _KEPT[None, :, None, :]]  # m[r, c, i, j]: entry (r, c) of minor (i, j)
    cof = _SIGN * (
        mm(m[0, 0], mm(m[1, 1], m[2, 2]) - mm(m[1, 2], m[2, 1]))
        - mm(m[0, 1], mm(m[1, 0], m[2, 2]) - mm(m[1, 2], m[2, 0]))
        + mm(m[0, 2], mm(m[1, 0], m[2, 1]) - mm(m[1, 1], m[2, 0]))
    )
    det = mm(g[0], cof[0]).sum(axis=0, initial=0.0)  # along row 0, added from zero left to right
    return det, np.swapaxes(cof, 0, 1)


@dataclass
class MetricJet:
    """Metric values and raw partials to second order at a point batch; the
    inverse and the determinant stop at first order, since that is all the
    connection and the curvature read."""

    spec: MetricSpec
    cache: JetCache  # the points and the jets of the expressions evaluated there
    g: np.ndarray  # (4, 4, 15, P), the partials to order 2
    g_inv: np.ndarray  # (4, 4, 5, P), the partials to order 1
    det: np.ndarray  # (5, P)

    points = property(lambda self: self.cache.points)  # (P, 4)
    single = property(lambda self: self.cache.single)

    @property
    def g_val(self) -> np.ndarray:  # (P, 4, 4)
        return np.moveaxis(self.g[:, :, 0, :], -1, 0)

    @property
    def g_inv_val(self) -> np.ndarray:
        return np.moveaxis(self.g_inv[:, :, 0, :], -1, 0)


def metric_jet(spec: MetricSpec, p) -> MetricJet:
    """Evaluate the metric and its partials to second order at the point(s),
    and its inverse and determinant to first order.  p may be a JetCache.
    A check that fails names the first point it fails at."""
    cache = JetCache.of(p)
    pts = cache.points
    order = 2
    M = n_coeffs(order)

    if spec.kind not in (WALKER, CONFORMAL_WALKER, GENERAL):
        raise KindError(f"unknown metric kind {spec.kind!r}")
    comps = (spec if spec.kind == GENERAL else spec.walker_part()).component_exprs()
    g = np.zeros((4, 4, M, cache.points.shape[0]))
    # a product that overflows gives inf or nan, rejected below by name
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(4):
            for j in range(i, 4):
                g[i, j] = g[j, i] = cache.jet(comps[i][j], order)
        if spec.kind == CONFORMAL_WALKER:
            chi = cache.jet(spec.chi, order)
            require(~(chi[0] <= 0.0), DomainError, "conformal factor must be positive on the sample box", pts, spec.chi)
            chi2 = mul_coeffs(chi, chi, order, order, order)
            g = mul_coeffs(chi2[None, None], g, order, order, order)
    finite = np.isfinite(g).all(axis=2)  # (4, 4, P)
    if not finite.all():
        row = np.argmin(finite.all(axis=(0, 1)))
        i, j = np.argwhere(~finite[..., row])[0]
        raise at_point(DomainError, f"metric component g_{COORDS[i]}{COORDS[j]} or its partials overflowed", pts, row)

    g_val = np.moveaxis(g[:, :, 0, :], -1, 0)
    eigs = np.linalg.eigvalsh(g_val)
    scale = np.max(np.abs(eigs), axis=1)
    singular = (scale <= 0.0) | (np.min(np.abs(eigs), axis=1) < 1e-10 * scale)
    require(~singular, SingularMetric, "metric is numerically singular at a sampled point", pts)
    require((eigs > 0).sum(axis=1) == 2, SingularMetric, "metric signature is not (+, +, -, -) at a sampled point", pts)

    # curvature reads g^-1 to one order below g; lower Leibniz coefficients
    # do not depend on the order they are truncated at
    with np.errstate(over="ignore", invalid="ignore"):
        det, adj = det_and_adjugate(truncate_coeffs(g, order, 1), 1)
        g_inv = div_coeffs(adj, det[None, None], 1, 1, 1)
    require_finite("metric determinant or inverse overflowed", pts, det, g_inv)

    ident = np.einsum("pij,pjk->pik", g_val, np.moveaxis(g_inv[:, :, 0, :], -1, 0))
    defect = np.max(np.abs(ident - np.eye(4)), axis=(1, 2))
    require(defect <= 1e-9, SingularMetric, "inverse check failed (ill-conditioned metric)", pts)  # a nan defect fails

    return MetricJet(spec=spec, cache=cache, g=g, g_inv=g_inv, det=det)
