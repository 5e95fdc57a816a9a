"""Byte oracle for the tensor formulas written as single contractions.

Each reference below is the loop form the contraction replaced: pair by
pair, term by term, summed from zero in index order.  The contractions must
give the same bits, signed zeros included (``tobytes()``, which
``np.array_equal`` would not see), on random inputs that hold exact zeros of
both signs and small integers, at batch sizes from a lone point to a full
chunk.
"""

import numpy as np
import pytest

from nullplane.exprkit.jets import JetCache, deriv_coeffs, mul_coeffs, truncate_coeffs
from nullplane.frames import Frame, _autoparallel_batch, _frobenius_batch, _offspan_residuals, _parallel_batch
from nullplane.tensor.curvature import CurvaturePack, christoffel, curvature
from nullplane.tensor.metric import MetricJet, det_and_adjugate
from nullplane.weylalg import weyl_quartic
from test_tensor import _entrywise_det_and_adjugate

SIZES = (1, 2, 13, 128, 250)


def _draw(rng, shape):
    """Normal draws with about a tenth small integers, a tenth 0.0 and a tenth -0.0."""
    out = rng.normal(size=shape)
    pick = rng.random(shape)
    out[pick < 0.1] = rng.integers(-3, 4, size=shape)[pick < 0.1]
    out[(pick >= 0.1) & (pick < 0.2)] = 0.0
    out[(pick >= 0.2) & (pick < 0.3)] = -0.0
    return out


def _metric_jet(rng, npts):
    g = _draw(rng, (4, 4, 15, npts))
    g_inv = _draw(rng, (4, 4, 5, npts))
    cache = JetCache(np.zeros((npts, 4)))
    return MetricJet(spec=None, cache=cache, g=g + g.swapaxes(0, 1), g_inv=g_inv + g_inv.swapaxes(0, 1), det=None)


def _generator_values(rng, k, npts):
    vals, partials = _draw(rng, (k, 4, npts)), _draw(rng, (k, 4, 4, npts))
    q, _ = np.linalg.qr(vals.transpose(2, 1, 0))
    return vals, partials, np.linalg.norm(vals, axis=1), np.eye(4) - q @ q.swapaxes(1, 2)


# ---------------------------------------------------------------------------
# the loop forms


def _frobenius_loops(gen):
    vals, partials, norms, proj_off = gen
    k = vals.shape[0]
    if k == 1:
        return np.zeros(vals.shape[2])
    brackets, denoms = [], []
    for i in range(k):
        for j in range(i + 1, k):
            brackets.append(
                np.einsum("bp,abp->ap", vals[i], partials[j]) - np.einsum("bp,abp->ap", vals[j], partials[i])
            )
            denoms.append(norms[i] * norms[j])
    return _offspan_residuals(proj_off, np.stack(brackets), np.stack(denoms))


def _autoparallel_loops(gen, gamma):
    vals, partials, norms, proj_off = gen
    cands, denoms = [], []
    for i in range(vals.shape[0]):
        for j in range(vals.shape[0]):
            cands.append(
                np.einsum("bp,abp->ap", vals[i], partials[j]) + np.einsum("abcp,bp,cp->ap", gamma, vals[i], vals[j])
            )
            denoms.append(norms[i] * norms[j])
    return _offspan_residuals(proj_off, np.stack(cands), np.stack(denoms))


def _parallel_loops(gen, gamma):
    vals, partials, norms, proj_off = gen
    cands, denoms = [], []
    for i in range(vals.shape[0]):
        for b in range(4):
            cands.append(partials[i, :, b, :] + np.einsum("acp,cp->ap", gamma[:, b], vals[i]))
            denoms.append(norms[i])
    return _offspan_residuals(proj_off, np.stack(cands), np.stack(denoms))


def _christoffel_loops(mj):
    dg = deriv_coeffs(mj.g, 2)
    sums = dg.transpose(0, 2, 1, 3, 4) + dg - dg.transpose(2, 0, 1, 3, 4)
    gamma = np.zeros_like(sums)
    for term in mul_coeffs(mj.g_inv.swapaxes(0, 1)[:, :, None, None], sums[:, None], 1, 1, 1):
        gamma = gamma + term
    return 0.5 * gamma


def _riemann_loops(mj, gamma):
    dgam = deriv_coeffs(gamma, 1)[..., 0, :]
    t1 = dgam.transpose(0, 2, 3, 1, 4)
    t2 = dgam.transpose(0, 2, 1, 3, 4)
    gt = gamma[..., 0, :]
    gg1 = np.zeros_like(t1)
    gg2 = np.zeros_like(t1)
    for e in range(4):
        gg1 = gg1 + gt[:, :, e][:, None, :, None] * gt[e].transpose(1, 0, 2)[None, :, None, :]
        gg2 = gg2 + gt[:, :, e][:, None, None, :] * gt[e].transpose(1, 0, 2)[None, :, :, None]
    r_up = t1 - t2 + gg1 - gg2
    g = mj.g[:, :, 0, :]
    riem = np.zeros_like(r_up)
    for e in range(4):
        riem = riem + g[:, e][:, None, None, None] * r_up[e][None]
    return riem


def _weyl_pairings_loops(weyl, bases):
    pairings = {}
    for side, basis in bases.items():
        t = [(weyl * b[:, :, None, None]).sum(axis=(0, 1)) for b in basis]
        pairings[side] = [(t[i] * basis[j]).sum(axis=(0, 1)) for i in range(3) for j in range(i, 3)]
    ref = np.max([np.abs(p) for side_pairings in pairings.values() for p in side_pairings], axis=0)
    return pairings, ref


# ---------------------------------------------------------------------------
# the oracle


@pytest.mark.parametrize("k", [1, 2, 3])
def test_residual_contractions_equal_pairwise_loops(k):
    """Frobenius, auto-parallel and parallel residuals of k generators."""
    for npts in SIZES:
        rng = np.random.default_rng(75_000 + 10 * npts + k)
        gen, gamma = _generator_values(rng, k, npts), _draw(rng, (4, 4, 4, npts))
        for got, want in (
            (_frobenius_batch(gen), _frobenius_loops(gen)),
            (_autoparallel_batch(gen, gamma), _autoparallel_loops(gen, gamma)),
            (_parallel_batch(gen, gamma), _parallel_loops(gen, gamma)),
        ):
            assert got.tobytes() == want.tobytes(), npts


def test_connection_and_riemann_contractions_equal_loops():
    """Gamma summed over d, and R_abcd = g_ae R^e_bcd summed over e."""
    for npts in SIZES:
        mj = _metric_jet(np.random.default_rng(75_100 + npts), npts)
        pack = curvature(mj)
        want_gamma = _christoffel_loops(mj)
        assert christoffel(mj).gamma.tobytes() == pack.gamma.tobytes() == want_gamma.tobytes(), npts
        assert pack.riemann.tobytes() == _riemann_loops(mj, want_gamma).tobytes(), npts


def test_determinant_contraction_equals_entrywise_expansion():
    """The row-0 determinant sum, on jets that hold signed zeros."""
    for npts in SIZES:
        g = _draw(np.random.default_rng(75_200 + npts), (4, 4, 15, npts))
        g = g + g.swapaxes(0, 1)
        for order in (1, 2):
            gk = truncate_coeffs(g, 2, order)
            (det, adj), (want_det, want_adj) = det_and_adjugate(gk, order), _entrywise_det_and_adjugate(gk, order)
            assert det.tobytes() == want_det.tobytes() and adj.tobytes() == want_adj.tobytes(), (npts, order)


def test_weyl_pairing_contractions_equal_loops():
    """C(b_i, b_j) for i <= j on both sides, and the reference scale."""
    for npts in SIZES:
        rng = np.random.default_rng(75_300 + npts)
        mj = _metric_jet(rng, npts)
        pack = CurvaturePack(mj=mj, gamma=None, weyl=_draw(rng, (4, 4, 4, 4, npts)))
        bases = {side: tuple(_draw(rng, (4, 4, npts)) for _ in range(3)) for side in ("SD", "ASD")}
        forms = weyl_quartic(pack, Frame(None, None, mj.cache, {}, bases))
        pairings, ref = _weyl_pairings_loops(pack.weyl, bases)
        for side, (p00, p01, p02, p11, p12, p22) in pairings.items():
            want = np.stack([p00, 2.0 * p01, 2.0 * p02 + p11, 2.0 * p12, p22]).T
            assert forms[side].coeffs.tobytes() == want.tobytes(), (npts, side)
            assert forms[side].ref_scale.tobytes() == ref.tobytes(), npts
