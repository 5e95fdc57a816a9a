"""Connection and curvature from metric jets.

Conventions (verified against the Walker closed form S = a_uu + b_vv + 2 c_uv):

    Gamma^a_bc = (1/2) g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
    R^a_bcd    = d_c Gamma^a_db - d_d Gamma^a_cb
                 + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb
    Ricci_bd   = R^a_bad,   S = g^{bd} Ricci_bd,   E = Ricci - (S/4) g
    Weyl       = Riemann - (1/2) Kulkarni-Nomizu(g, Ricci)
                 + (S/6) (g_ac g_bd - g_ad g_bc)

The connection is the last jet: first-order jets of Gamma, from the
second-order metric jet.  The curvature tensors are values at the points,
with the point axis last, built from the values of Gamma, its first
partials and g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exprkit.ast import as_expr
from ..exprkit.jets import JetCache, deriv_coeffs, mul_coeffs
from .metric import MetricJet, MetricSpec, metric_jet


@dataclass
class CurvaturePack:
    mj: MetricJet
    gamma: np.ndarray  # (4,4,4,5,P) first-order jets of Gamma^a_bc
    riemann: Optional[np.ndarray] = None  # all indices down, (4,4,4,4,P)
    ricci: Optional[np.ndarray] = None  # (4,4,P)
    scalar: Optional[np.ndarray] = None  # (P,)
    efield: Optional[np.ndarray] = None  # trace-free Ricci, (4,4,P)
    weyl: Optional[np.ndarray] = None  # (4,4,4,4,P)

    @property
    def points(self) -> np.ndarray:
        return self.mj.points

    @property
    def gamma_val(self) -> np.ndarray:  # (P,4,4,4)
        return np.moveaxis(self.gamma[..., 0, :], -1, 0)

    @property
    def riemann_val(self) -> np.ndarray:
        return np.moveaxis(self.riemann, -1, 0)

    @property
    def ricci_val(self) -> np.ndarray:
        return np.moveaxis(self.ricci, -1, 0)

    @property
    def scalar_val(self) -> np.ndarray:  # (P,)
        return self.scalar

    @property
    def efield_val(self) -> np.ndarray:
        return np.moveaxis(self.efield, -1, 0)

    @property
    def weyl_val(self) -> np.ndarray:
        return np.moveaxis(self.weyl, -1, 0)

    def riemann_scale(self) -> np.ndarray:
        """Per-point max |R_abcd|: the natural relative-error scale."""
        return np.max(np.abs(self.riemann_val), axis=(1, 2, 3, 4))


def christoffel(mj: MetricJet) -> CurvaturePack:
    """Levi-Civita connection as first-order jets."""
    dg = deriv_coeffs(mj.g, 2)  # (4,4,4,5,P), dg[i,j,k] = d_k g_ij
    # sums[d,b,c] = d_b g_dc + d_c g_db - d_d g_bc
    sums = dg.transpose(0, 2, 1, 3, 4) + dg - dg.transpose(2, 0, 1, 3, 4)
    gamma = np.zeros_like(sums)
    for d in range(4):
        gamma = gamma + mul_coeffs(mj.g_inv[:, d][:, None, None], sums[d][None], 1, 1, 1)
    gamma = 0.5 * gamma
    return CurvaturePack(mj=mj, gamma=gamma)


def curvature(mj: MetricJet) -> CurvaturePack:
    """Full curvature pack (Riemann, Ricci, scalar, trace-free Ricci, Weyl)."""
    pack = christoffel(mj)
    dgam = deriv_coeffs(pack.gamma, 1)[..., 0, :]  # axes (a, d, b, c) with c the deriv
    t1 = dgam.transpose(0, 2, 3, 1, 4)  # [a,b,c,d] = dgam[a,d,b,c]
    t2 = dgam.transpose(0, 2, 1, 3, 4)  # [a,b,c,d] = dgam[a,c,b,d]
    gt = pack.gamma[..., 0, :]
    gg1 = np.zeros_like(t1)
    gg2 = np.zeros_like(t1)
    for e in range(4):
        a_ce = gt[:, :, e][:, None, :, None]  # (a,1,c,1)
        b_db = gt[e].transpose(1, 0, 2)[None, :, None, :]  # (1,b,1,d)
        gg1 = gg1 + a_ce * b_db
        a_de = gt[:, :, e][:, None, None, :]  # (a,1,1,d)
        b_cb = gt[e].transpose(1, 0, 2)[None, :, :, None]  # (1,b,c,1)
        gg2 = gg2 + a_de * b_cb
    r_up = t1 - t2 + gg1 - gg2

    g = mj.g[:, :, 0, :]
    ginv = mj.g_inv[:, :, 0, :]
    riem = np.zeros_like(r_up)
    for e in range(4):
        riem = riem + g[:, e][:, None, None, None] * r_up[e][None]

    ricci = np.einsum("abadp->bdp", r_up)
    scalar = (ginv * ricci).sum(axis=(0, 1))
    efield = ricci - 0.25 * (scalar[None, None] * g)

    p1 = g[:, None, :, None] * ricci[None, :, None, :]  # g_ac R_bd
    q1 = g[:, None, :, None] * g[None, :, None, :]  # g_ac g_bd
    kn = p1 - p1.transpose(0, 1, 3, 2, 4) - p1.transpose(1, 0, 2, 3, 4) + p1.transpose(1, 0, 3, 2, 4)
    gg = q1 - q1.transpose(0, 1, 3, 2, 4)
    weyl = riem - 0.5 * kn + (scalar[None, None, None, None] / 6.0) * gg

    pack.riemann = riem
    pack.ricci = ricci
    pack.scalar = scalar
    pack.efield = efield
    pack.weyl = weyl
    return pack


# ---------------------------------------------------------------------------
# the wave operator


def box_scalar(metric: MetricSpec | CurvaturePack, chi, p=None) -> float | np.ndarray:
    """Wave operator g^{ab} nabla_a nabla_b chi, computed from the generic
    connection (any metric kind).  metric is a MetricSpec, evaluated at the
    point(s) p, or a CurvaturePack, whose connection and jet cache are used."""
    chi = as_expr(chi)
    pack = metric if isinstance(metric, CurvaturePack) else christoffel(metric_jet(metric, p))
    mj = pack.mj
    cj = mj.cache.jet(chi, 2)
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
    cache = JetCache.of(p)
    aj, bj, cj = (cache.jet(as_expr(e), 1) for e in (a, b, c))
    xj = cache.jet(as_expr(chi), 2)
    da, db, dc = (deriv_coeffs(j, 1)[:, 0, :] for j in (aj, bj, cj))
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
    return float(out[0]) if cache.single else out
