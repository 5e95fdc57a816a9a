"""Hodge duality on bivectors and the self-dual/anti-self-dual Weyl split.

The volume form is eps_abcd = s * sqrt(det g) * [abcd] in coordinate order
(u, v, x, y); the sign s is calibrated so that the bivector l ^ mt of the
walker tetrad is a +1 eigenvector of the star operator ("canonical
orientation").  In this neutral signature star o star = +1 on bivectors.

Everything here acts on values at the sampled points: tensors of shape
(P, 4, 4, 4, 4) and bivectors of shape (P, 4, 4).

The star acting on the left or on the right index pair of the Weyl tensor
must agree; ``weyl_split`` asserts this instead of silently choosing one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import CalibrationFailure, require


def _levi_civita4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    from itertools import permutations

    for perm in permutations(range(4)):
        sign = 1.0
        p = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    sign = -sign
        eps[perm] = sign
    return eps


_LC4 = _levi_civita4()


@dataclass
class DualOperator:
    """Star operator values at a point batch."""

    sign: float
    sqrt_det: np.ndarray  # sqrt(det g), (P,)
    g_inv: np.ndarray  # (P,4,4)

    @cached_property
    def eps_mixed(self) -> np.ndarray:
        """eps^{ef}_{cd} with first pair raised, (P,4,4,4,4); built when a star method first runs."""
        raised = np.einsum("pak,pbl,klcd->pabcd", self.g_inv, self.g_inv, _LC4)
        return self.sign * (self.sqrt_det[:, None, None, None, None] * raised)

    def star_bivector(self, biv: np.ndarray) -> np.ndarray:
        """Star of contravariant bivector values, shapes (4,4) or (P,4,4):
        (s/2) sqrt(det g) g^-1 ([klcd] B^cd) g^-T, without eps_mixed."""
        single = biv.ndim == 2
        b = biv[None] if single else biv
        eps_b = np.einsum("klcd,pcd->pkl", _LC4, b)
        out = (0.5 * self.sign) * self.sqrt_det[:, None, None] * (self.g_inv @ eps_b @ np.swapaxes(self.g_inv, 1, 2))
        return out[0] if single else out

    def star_right(self, tensor: np.ndarray) -> np.ndarray:
        """(T*)_abcd = (1/2) T_abef eps^{ef}_cd on (P,4,4,4,4) values."""
        return 0.5 * np.einsum("pabef,pefcd->pabcd", tensor, self.eps_mixed)

    def star_left(self, tensor: np.ndarray) -> np.ndarray:
        """(*T)_abcd = (1/2) eps^{ef}_ab T_efcd on (P,4,4,4,4) values."""
        return 0.5 * np.einsum("pefab,pefcd->pabcd", self.eps_mixed, tensor)


def volume_and_duals(mj, tetrad) -> DualOperator:
    """Orientation-calibrated dual operator at the metric jet's points.

    The sign is fixed by requiring star(l ^ mt) = +(l ^ mt) at every
    sampled point; a CalibrationFailure keeps the first row where it fails.
    The tetrad is a Tetrad or a frames.Frame at the jet's points.
    """
    from ..frames import _as_frame  # frames imports this package

    plus = DualOperator(sign=1.0, sqrt_det=np.sqrt(mj.det[0]), g_inv=mj.g_inv_val)
    frame = _as_frame(tetrad, mj.cache)
    biv = np.moveaxis(frame.bases["SD"][0], -1, 0)  # values of l ^ mt, (P, 4, 4)
    starred = plus.star_bivector(biv)
    norm = np.max(np.abs(biv), axis=(1, 2))
    require(~(norm <= 0.0), CalibrationFailure, "degenerate tetrad bivector l ^ mt", mj.cache.points)
    sign = 1.0 if np.max(np.abs(starred[0] - biv[0])) / norm[0] < 1e-8 else -1.0  # no point passes both signs
    passed = np.max(np.abs(sign * starred - biv), axis=(1, 2)) / norm < 1e-8  # a nan residual fails
    reason = "l ^ mt is not a star eigenvector; tetrad or metric is inconsistent"
    require(passed, CalibrationFailure, reason, mj.cache.points)
    return DualOperator(sign=sign, sqrt_det=plus.sqrt_det, g_inv=plus.g_inv)


def weyl_split(pack, dual: DualOperator):
    """Self-dual and anti-self-dual Weyl parts as (P,4,4,4,4) values.

    Asserts that the star acting on the left and on the right index pair
    produce the same split (tolerance relative to the Weyl scale).
    """
    c = pack.weyl_val
    c_star_r = dual.star_right(c)
    scale = max(np.max(np.abs(c)), 1e-30)
    if np.max(np.abs(c_star_r - dual.star_left(c))) > 1e-9 * scale:
        raise CalibrationFailure("left and right duals disagree on the Weyl tensor")
    return 0.5 * (c + c_star_r), 0.5 * (c - c_star_r)
