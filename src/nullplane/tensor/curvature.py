"""Connection and curvature from metric jets.

Conventions (verified against the Walker closed form S = a_uu + b_vv + 2 c_uv):

    Gamma^a_bc = (1/2) g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
    R^a_bcd    = d_c Gamma^a_db - d_d Gamma^a_cb
                 + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb
    Ricci_bd   = R^a_bad,   S = g^{bd} Ricci_bd,   E = Ricci - (S/4) g
    Weyl       = Riemann - (1/2) Kulkarni-Nomizu(g, Ricci)
                 + (S/6) (g_ac g_bd - g_ad g_bc)

All curvature tensors are carried as jets, so first coordinate partials of
the Weyl tensor are available whenever the metric jet order allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..exprkit.ast import Expr, as_expr
from ..exprkit.jets import (
    as_points,
    deriv_coeffs,
    mul_coeffs,
    truncate_coeffs,
    _eval_coeffs,
)
from .metric import MetricJet, MetricSpec, metric_jet


def _vals(jets: np.ndarray) -> np.ndarray:
    """Value slice of stacked jets: (..., M, P) -> (P, ...)."""
    return np.moveaxis(jets[..., 0, :], -1, 0)


@dataclass
class CurvaturePack:
    mj: MetricJet
    gamma: np.ndarray  # (4,4,4,Mg,P) jets, order mj.order-1
    gamma_order: int
    riemann: Optional[np.ndarray] = None  # all indices down, (4,4,4,4,Mr,P)
    ricci: Optional[np.ndarray] = None
    scalar: Optional[np.ndarray] = None  # (Mr,P)
    efield: Optional[np.ndarray] = None  # trace-free Ricci
    weyl: Optional[np.ndarray] = None
    order: int = 0  # jet order of the curvature tensors

    @property
    def points(self) -> np.ndarray:
        return self.mj.points

    @property
    def gamma_val(self) -> np.ndarray:  # (P,4,4,4)
        return _vals(self.gamma)

    @property
    def riemann_val(self) -> np.ndarray:
        return _vals(self.riemann)

    @property
    def ricci_val(self) -> np.ndarray:
        return _vals(self.ricci)

    @property
    def scalar_val(self) -> np.ndarray:  # (P,)
        return self.scalar[0]

    @property
    def efield_val(self) -> np.ndarray:
        return _vals(self.efield)

    @property
    def weyl_val(self) -> np.ndarray:
        return _vals(self.weyl)

    def riemann_scale(self) -> np.ndarray:
        """Per-point max |R_abcd|: the natural relative-error scale."""
        return np.max(np.abs(self.riemann_val), axis=(1, 2, 3, 4))


def christoffel(mj: MetricJet) -> CurvaturePack:
    """Levi-Civita connection as jets of order mj.order - 1."""
    if mj.order < 2:
        raise ValueError("christoffel needs metric jets of order >= 2")
    og = mj.order - 1
    dg = deriv_coeffs(mj.g, mj.order)  # (4,4,4,Mg,P), dg[i,j,k] = d_k g_ij
    # sums[d,b,c] = d_b g_dc + d_c g_db - d_d g_bc
    sums = dg.transpose(0, 2, 1, 3, 4) + dg - dg.transpose(2, 0, 1, 3, 4)
    gamma = np.zeros_like(sums)
    for d in range(4):
        gamma = gamma + mul_coeffs(mj.g_inv[:, d][:, None, None], sums[d][None], og, og, og)
    gamma = 0.5 * gamma
    return CurvaturePack(mj=mj, gamma=gamma, gamma_order=og)


def curvature(mj: MetricJet) -> CurvaturePack:
    """Full curvature pack (Riemann, Ricci, scalar, trace-free Ricci, Weyl)."""
    pack = christoffel(mj)
    og = pack.gamma_order
    orc = og - 1
    if orc < 0:
        raise ValueError("curvature needs metric jets of order >= 2")

    dgam = deriv_coeffs(pack.gamma, og)  # axes (a, d, b, c) with c the deriv
    t1 = dgam.transpose(0, 2, 3, 1, 4, 5)  # [a,b,c,d] = dgam[a,d,b,c]
    t2 = dgam.transpose(0, 2, 1, 3, 4, 5)  # [a,b,c,d] = dgam[a,c,b,d]
    gt = truncate_coeffs(pack.gamma, og, orc)
    gg1 = np.zeros_like(t1)
    gg2 = np.zeros_like(t1)
    for e in range(4):
        a_ce = gt[:, :, e][:, None, :, None]  # (a,1,c,1)
        b_db = gt[e].transpose(1, 0, 2, 3)[None, :, None, :]  # (1,b,1,d)
        gg1 = gg1 + mul_coeffs(a_ce, b_db, orc, orc, orc)
        a_de = gt[:, :, e][:, None, None, :]  # (a,1,1,d)
        b_cb = gt[e].transpose(1, 0, 2, 3)[None, :, :, None]  # (1,b,c,1)
        gg2 = gg2 + mul_coeffs(a_de, b_cb, orc, orc, orc)
    r_up = t1 - t2 + gg1 - gg2

    g = truncate_coeffs(mj.g, mj.order, orc)
    ginv = truncate_coeffs(mj.g_inv, og, orc)
    riem = np.zeros_like(r_up)
    for e in range(4):
        riem = riem + mul_coeffs(g[:, e][:, None, None, None], r_up[e][None], orc, orc, orc)

    ricci = np.einsum("abadmp->bdmp", r_up)
    scalar = mul_coeffs(ginv, ricci, orc, orc, orc).sum(axis=(0, 1))
    efield = ricci - 0.25 * mul_coeffs(scalar[None, None], g, orc, orc, orc)

    p1 = mul_coeffs(g[:, None, :, None], ricci[None, :, None, :], orc, orc, orc)  # g_ac R_bd
    q1 = mul_coeffs(g[:, None, :, None], g[None, :, None, :], orc, orc, orc)  # g_ac g_bd
    kn = p1 - p1.transpose(0, 1, 3, 2, 4, 5) - p1.transpose(1, 0, 2, 3, 4, 5) + p1.transpose(1, 0, 3, 2, 4, 5)
    gg = q1 - q1.transpose(0, 1, 3, 2, 4, 5)
    weyl = riem - 0.5 * kn + mul_coeffs(scalar[None, None, None, None] / 6.0, gg, orc, orc, orc)

    pack.riemann = riem
    pack.ricci = ricci
    pack.scalar = scalar
    pack.efield = efield
    pack.weyl = weyl
    pack.order = orc
    return pack


# ---------------------------------------------------------------------------
# derived differential operators


def covariant_derivative(spec: MetricSpec, field, direction, p) -> np.ndarray:
    """(nabla_X Y)^a = X^b d_b Y^a + Gamma^a_bc X^b Y^c at the point(s).

    ``field`` is four Exprs; ``direction`` is four Exprs or a numeric
    4-vector (constant direction).  Returns shape (4,) or (4, P).
    """
    pack = christoffel(metric_jet(spec, p, order=2))
    pts = pack.points
    npts = pts.shape[0]
    yj = np.stack([_eval_coeffs(as_expr(comp), pts, 1) for comp in field])  # (4, M1, P)
    yval = yj[:, 0, :]
    dy = deriv_coeffs(yj, 1)[:, :, 0, :]  # (4 comp, 4 deriv, P)
    if isinstance(direction, (list, tuple)) and any(isinstance(d, Expr) for d in direction):
        xval = np.stack([_eval_coeffs(as_expr(comp), pts, 0)[0] for comp in direction])
    else:
        arr = np.asarray(direction, dtype=float)
        if arr.shape == (4,):
            xval = np.repeat(arr[:, None], npts, axis=1)
        else:
            xval = arr.reshape(4, npts)
    gamma = pack.gamma[..., 0, :]  # (a,b,c,P)
    out = np.einsum("abp,bp->ap", dy, xval)
    out = out + np.einsum("abcp,bp,cp->ap", gamma, xval, yval)
    if pack.mj.single:
        return out[:, 0]
    return out


def box_scalar(metric: MetricSpec | CurvaturePack, chi, p=None) -> float | np.ndarray:
    """Wave operator g^{ab} nabla_a nabla_b chi, computed from the generic
    connection (any metric kind).  metric is a MetricSpec, evaluated at the
    point(s) p, or a CurvaturePack, whose connection and points are used."""
    chi = as_expr(chi)
    pack = metric if isinstance(metric, CurvaturePack) else christoffel(metric_jet(metric, p, order=2))
    mj = pack.mj
    cj = _eval_coeffs(chi, mj.points, 2)
    hess = deriv_coeffs(deriv_coeffs(cj, 2), 1)[..., 0, :]  # (4,4,P): d_a d_b chi
    grad = deriv_coeffs(cj, 2)[:, 0, :]  # (4,P)
    ginv = np.moveaxis(mj.g_inv[:, :, 0, :], -1, 0)  # (P,4,4)
    gamma = pack.gamma[..., 0, :]  # (a,b,c,P)
    term2 = np.einsum("cabp,cp->abp", gamma, grad)
    out = np.einsum("pab,abp->p", ginv, hess - term2)
    return float(out[0]) if mj.single else out


def walker_box_closed_form(a, b, c, chi, p) -> float | np.ndarray:
    """Closed-form wave operator on a walker-kind metric:

    box chi = -a chi_uu - 2c chi_uv - b chi_vv + 2 chi_ux + 2 chi_vy
              - (a_u + c_v) chi_u - (b_v + c_u) chi_v
    """
    pts, single = as_points(p)
    aj = _eval_coeffs(as_expr(a), pts, 1)
    bj = _eval_coeffs(as_expr(b), pts, 1)
    cj = _eval_coeffs(as_expr(c), pts, 1)
    xj = _eval_coeffs(as_expr(chi), pts, 2)
    da = deriv_coeffs(aj, 1)[:, 0, :]
    db = deriv_coeffs(bj, 1)[:, 0, :]
    dc = deriv_coeffs(cj, 1)[:, 0, :]
    dchi = deriv_coeffs(xj, 2)  # (4, M1, P)
    grad = dchi[:, 0, :]
    hess = deriv_coeffs(dchi, 1)[:, :, 0, :]  # (4,4,P)
    out = (
        -aj[0] * hess[0, 0]
        - 2.0 * cj[0] * hess[0, 1]
        - bj[0] * hess[1, 1]
        + 2.0 * hess[0, 2]
        + 2.0 * hess[1, 3]
        - (da[0] + dc[1]) * grad[0]
        - (db[1] + dc[0]) * grad[1]
    )
    return float(out[0]) if single else out
