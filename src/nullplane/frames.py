"""Walker null tetrad, null-plane distribution families, and the three
residuals (Frobenius, auto-parallel, parallel) that measure integrability
and parallelism of a distribution at a point.

Tetrad layout for a walker-kind metric (coordinates u, v, x, y):

    l  = d_u                          mt = d_v
    n  = d_x - (a/2) d_u - (c/2) d_v   m = -d_y + (c/2) d_u + (b/2) d_v

which satisfies g(l, n) = 1, g(m, mt) = -1, all other pairings zero, all
four vectors null.  The sign on m is forced by requiring the beta-plane
family span{t0 l + t1 mt, t0 m + t1 n} to be totally null.  For a
conformal_walker metric every vector is divided by the conformal factor.

Residuals are off-span components measured in the coordinate Euclidean
inner product (the metric is degenerate on null spans), normalized by
products of generator norms so that rescaling the projective parameter by
a positive function leaves every residual unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateParam, DomainError, KindError, RankDeficient
from .exprkit.ast import Expr, Num, as_expr
from .exprkit.calculus import add_, div_, mul_, neg_
from .exprkit.jets import JetCache, deriv_coeffs
from .tensor.curvature import christoffel
from .tensor.metric import CONFORMAL_WALKER, WALKER, MetricJet, MetricSpec, metric_jet


@dataclass(frozen=True)
class Tetrad:
    l: tuple
    n: tuple
    m: tuple
    mt: tuple

    def vectors(self):
        return {"l": self.l, "n": self.n, "m": self.m, "mt": self.mt}


@dataclass(frozen=True)
class ProjParam:
    """Homogeneous parameter pair; scale-equivalent pairs give equal spans."""

    t0: Expr
    t1: Expr

    @staticmethod
    def of(t0, t1) -> "ProjParam":
        return ProjParam(as_expr(t0), as_expr(t1))

    def values(self, p) -> np.ndarray:
        cache = JetCache.of(p)
        return _t_values(cache.jet(self.t0, 0)[0], cache.jet(self.t1, 0)[0], cache.points)


def _at_point(error: type, reason: str, pts: np.ndarray, row: int) -> Exception:
    """error naming pts[row] by its coordinates; it keeps the row and the
    reason, so that a caller can name the sample as well."""
    err = error(f"{reason} [at point {pts[row].tolist()}]")
    err.row, err.reason = row, reason
    return err


def _t_values(t0: np.ndarray, t1: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The t-field values (2, P); raises DegenerateParam where both vanish."""
    vals = np.stack([t0, t1])
    scale = np.max(np.abs(vals), axis=0)
    bad = np.flatnonzero(scale < 1e-12)
    if bad.size:
        raise _at_point(DegenerateParam, "both projective components vanish at a sampled point", pts, bad[0])
    return vals


@dataclass(frozen=True)
class Distribution:
    label: str
    generators: tuple  # k tuples of 4 Exprs

    @property
    def rank(self) -> int:
        return len(self.generators)


def _wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w = a[:, None] * b[None, :]
    return w - np.swapaxes(w, 0, 1)


def _bivector_bases(vecs: dict) -> dict:
    """Bases of the plane bivectors (see weylalg), values (4, 4, P): self-dual
    (l^mt, l^n + m^mt, m^n) and anti-self-dual (l^m, l^n - m^mt, mt^n)."""
    ln = _wedge(vecs["l"], vecs["n"])
    mmt = _wedge(vecs["m"], vecs["mt"])
    return {
        "SD": (_wedge(vecs["l"], vecs["mt"]), ln + mmt, _wedge(vecs["m"], vecs["n"])),
        "ASD": (_wedge(vecs["l"], vecs["m"]), ln - mmt, _wedge(vecs["mt"], vecs["n"])),
    }


@dataclass(frozen=True, eq=False)
class Frame:
    """A tetrad, and optionally a t-field, at a batch of points.

    Their component jets are evaluated at order 1 into ``cache``, where the
    generators read them again.  ``vecs`` holds the four tetrad vectors
    (4, 5, P), ``bases`` the values of the SD and ASD bivector bases.
    """

    tetrad: Tetrad
    t_field: Optional[ProjParam]
    cache: JetCache
    vecs: dict
    bases: dict

    @staticmethod
    def of(tet: Tetrad, p, t_field: Optional[ProjParam] = None) -> "Frame":
        """The frame at the point(s) p, which may be a JetCache."""
        cache = JetCache.of(p)
        vecs = {name: np.stack([cache.jet(comp, 1) for comp in vec]) for name, vec in tet.vectors().items()}
        for comp in () if t_field is None else (t_field.t0, t_field.t1):
            cache.jet(comp, 1)  # t_values and the generators read these
        bases = _bivector_bases({name: vec[:, 0, :] for name, vec in vecs.items()})
        return Frame(tet, t_field, cache, vecs, bases)

    def values(self, name: str) -> np.ndarray:
        """Values (4, P) of the tetrad vector ``name``."""
        return self.vecs[name][:, 0, :]

    def t_values(self) -> np.ndarray:
        """The t-field values (2, P), checked as ProjParam.values does."""
        return self.t_field.values(self.cache)


def _as_frame(tet, p) -> Frame:
    """tet itself if it is a Frame, else a new Frame of the Tetrad at p."""
    return tet if isinstance(tet, Frame) else Frame.of(tet, p)


def walker_tetrad(spec: MetricSpec) -> Tetrad:
    """Canonical null tetrad of a walker or conformal_walker metric."""
    if spec.kind not in (WALKER, CONFORMAL_WALKER):
        raise KindError("walker_tetrad needs a walker-family metric (supply a tetrad for general kinds)")
    a, b, c = spec.a, spec.b, spec.c
    half = Num(0.5)
    l = (Num(1.0), Num(0.0), Num(0.0), Num(0.0))
    mt = (Num(0.0), Num(1.0), Num(0.0), Num(0.0))
    n = (neg_(mul_(half, a)), neg_(mul_(half, c)), Num(1.0), Num(0.0))
    m = (mul_(half, c), mul_(half, b), Num(0.0), Num(-1.0))
    if spec.kind == CONFORMAL_WALKER:
        chi = spec.chi
        if chi == Num(0.0):  # also -0.0, which compares equal
            raise DomainError("the walker tetrad divides by the conformal factor chi, which is the constant 0")
        scale = lambda vec: tuple(div_(comp, chi) for comp in vec)
        l, n, m, mt = scale(l), scale(n), scale(m), scale(mt)
    return Tetrad(l=l, n=n, m=m, mt=mt)


def _combine(s0: Expr, va, s1: Expr, vb) -> tuple:
    return tuple(add_(mul_(s0, va[i]), mul_(s1, vb[i])) for i in range(4))


def alpha_dist(s: ProjParam, tet: Tetrad) -> Distribution:
    """Self-dual plane family: span{s0 l + s1 m, s0 mt + s1 n}."""
    return Distribution(
        label=f"alpha({s.t0}:{s.t1})",
        generators=(_combine(s.t0, tet.l, s.t1, tet.m), _combine(s.t0, tet.mt, s.t1, tet.n)),
    )


def beta_dist(t: ProjParam, tet: Tetrad) -> Distribution:
    """Anti-self-dual plane family: span{t0 l + t1 mt, t0 m + t1 n}."""
    return Distribution(
        label=f"beta({t.t0}:{t.t1})",
        generators=(_combine(t.t0, tet.l, t.t1, tet.mt), _combine(t.t0, tet.m, t.t1, tet.n)),
    )


def dist_D(t: ProjParam, tet: Tetrad) -> Distribution:
    """Null line field span{t0 l + t1 mt} (intersection of the alpha plane
    with the beta plane of the same parameter)."""
    return Distribution(label=f"D({t.t0}:{t.t1})", generators=(_combine(t.t0, tet.l, t.t1, tet.mt),))


def dist_H(t: ProjParam, tet: Tetrad) -> Distribution:
    """Orthogonal complement of D: span{l, mt, t0 m + t1 n}."""
    return Distribution(
        label=f"H({t.t0}:{t.t1})",
        generators=(tet.l, tet.mt, _combine(t.t0, tet.m, t.t1, tet.n)),
    )


# ---------------------------------------------------------------------------
# numeric validators


def _gram(g_val: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """g(X_i, X_j) from metric values (P,4,4) and vector values (k,4,P);
    shape (k,k,P)."""
    return np.einsum("iap,pab,jbp->ijp", vals, g_val, vals)


def metric_pairings(spec: MetricSpec, vectors: Sequence, p) -> np.ndarray:
    """Gram matrix g(X_i, X_j) of expression vector fields at the point(s)."""
    cache = JetCache.of(p)
    vals = np.stack([[cache.jet(comp, 0)[0] for comp in vec] for vec in vectors])
    gram = _gram(metric_jet(spec, cache).g_val, vals)
    return gram[..., 0] if cache.single else gram


def _tetrad_defects(mj: MetricJet, tet) -> np.ndarray:
    """Per-point max deviation of the ten tetrad pairings from their target
    values; shape (P,).  tet is a Tetrad or a Frame at the jet's points."""
    frame = _as_frame(tet, mj.cache)
    gram = _gram(mj.g_val, np.stack([frame.values(name) for name in ("l", "n", "m", "mt")]))
    target = np.zeros_like(gram)
    target[0, 1] = target[1, 0] = 1.0
    target[2, 3] = target[3, 2] = -1.0
    return np.max(np.abs(gram - target), axis=(0, 1))


def tetrad_max_defect(mj: MetricJet, tet) -> float:
    """Max deviation of the ten tetrad pairings from their target values."""
    return float(np.max(_tetrad_defects(mj, tet)))


# ---------------------------------------------------------------------------
# residual machinery


def _check_rank(vals: np.ndarray, pts: np.ndarray) -> None:
    """Raise RankDeficient at the first point where the generator values
    (k,4,P) do not span k dimensions."""
    k = vals.shape[0]
    sv = np.linalg.svd(vals.transpose(2, 1, 0), compute_uv=False)  # (P,k)
    bad = np.flatnonzero(sv[:, k - 1] < 1e-10 * np.maximum(sv[:, 0], 1e-300))
    if bad.size:
        raise _at_point(RankDeficient, f"generators have rank < {k}", pts, bad[0])


def _generators(dist: Distribution, p) -> tuple:
    """One evaluation of the generators at order 1, shared by all residuals:
    values (k,4,P), first partials (k, comp, deriv, P), Euclidean norms
    (k,P), and the projector (P,4,4) onto the Euclidean complement of the
    span, after a rank check.  p is the points or a JetCache."""
    cache = JetCache.of(p)
    jets = np.stack([[cache.jet(comp, 1) for comp in vec] for vec in dist.generators])
    vals = jets[..., 0, :]
    _check_rank(vals, cache.points)
    q, _ = np.linalg.qr(vals.transpose(2, 1, 0))  # (P,4,k)
    proj_off = np.eye(4) - q @ q.swapaxes(1, 2)
    return vals, deriv_coeffs(jets, 1)[..., 0, :], np.linalg.norm(vals, axis=1), proj_off


def _offspan_residuals(proj_off: np.ndarray, candidates: np.ndarray, denoms: np.ndarray) -> np.ndarray:
    """Per-point max over candidates of |off-span part| / denominator.

    candidates: (m,4,P); denoms: (m,P).
    Denominators are generator-norm products rather than candidate norms:
    the off-span component of brackets and covariant derivatives scales
    exactly like those products under positive rescaling of the
    generators, which makes the residual projective-parameter invariant.
    """
    off = np.linalg.norm(candidates.transpose(2, 0, 1) @ proj_off.swapaxes(1, 2), axis=2)  # (P,m)
    return np.max(off / np.maximum(denoms.T, 1e-300), axis=1)


def _frobenius_batch(gen: tuple) -> np.ndarray:
    vals, partials, norms, proj_off = gen
    k = vals.shape[0]
    if k == 1:
        return np.zeros(vals.shape[2])
    brackets, denoms = [], []
    for i in range(k):
        for j in range(i + 1, k):
            # [X_i, X_j]^a = X_i^b d_b X_j^a - X_j^b d_b X_i^a
            brackets.append(
                np.einsum("bp,abp->ap", vals[i], partials[j])
                - np.einsum("bp,abp->ap", vals[j], partials[i])
            )
            denoms.append(norms[i] * norms[j])
    return _offspan_residuals(proj_off, np.stack(brackets), np.stack(denoms))


def _autoparallel_batch(gen: tuple, gamma: np.ndarray) -> np.ndarray:
    """gamma: connection values Gamma^a_bc, shape (4,4,4,P)."""
    vals, partials, norms, proj_off = gen
    cands, denoms = [], []
    for i in range(vals.shape[0]):
        for j in range(vals.shape[0]):
            # (nabla_{X_i} X_j)^a = X_i^b d_b X_j^a + Gamma^a_bc X_i^b X_j^c
            cands.append(
                np.einsum("bp,abp->ap", vals[i], partials[j])
                + np.einsum("abcp,bp,cp->ap", gamma, vals[i], vals[j])
            )
            denoms.append(norms[i] * norms[j])
    return _offspan_residuals(proj_off, np.stack(cands), np.stack(denoms))


def _parallel_batch(gen: tuple, gamma: np.ndarray) -> np.ndarray:
    """gamma: connection values Gamma^a_bc, shape (4,4,4,P)."""
    vals, partials, norms, proj_off = gen
    cands, denoms = [], []
    for i in range(vals.shape[0]):
        for b in range(4):
            # (nabla_{e_b} X_i)^a = d_b X_i^a + Gamma^a_bc X_i^c
            cands.append(partials[i, :, b, :] + np.einsum("acp,cp->ap", gamma[:, b], vals[i]))
            denoms.append(norms[i])
    return _offspan_residuals(proj_off, np.stack(cands), np.stack(denoms))


def frobenius_residual(dist: Distribution, p) -> float:
    """0 iff the span is involutive (closed under Lie brackets) at p."""
    cache = JetCache.of(p)
    out = np.zeros(cache.points.shape[0]) if dist.rank == 1 else _frobenius_batch(_generators(dist, cache))
    return float(out[0]) if cache.single else out


def autoparallel_residual(spec: MetricSpec, dist: Distribution, p) -> float:
    """0 iff covariant derivatives along the span stay in the span at p."""
    cache = JetCache.of(p)
    gamma = christoffel(metric_jet(spec, cache)).gamma[..., 0, :]
    out = _autoparallel_batch(_generators(dist, cache), gamma)
    return float(out[0]) if cache.single else out


def parallel_residual(spec: MetricSpec, dist: Distribution, p) -> float:
    """0 iff covariant derivatives in every coordinate direction stay in
    the span at p."""
    cache = JetCache.of(p)
    gamma = christoffel(metric_jet(spec, cache)).gamma[..., 0, :]
    out = _parallel_batch(_generators(dist, cache), gamma)
    return float(out[0]) if cache.single else out
