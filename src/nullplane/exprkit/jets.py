"""Truncated multivariate Taylor jets over the coordinates (u, v, x, y).

A jet of order K stores the raw partial derivatives D^alpha f for all
multi-indices |alpha| <= K (no factorial normalization, so a stored entry
reads directly as e.g. a_v).  Coefficients live in arrays of shape
(M, P): M monomials, P evaluation points, which lets one expression be
differentiated at a whole sample batch in single vectorized operations.

The low-level ``*_coeffs`` functions operate on arrays with arbitrary
leading axes ``(..., M, P)``; the tensor engine stacks whole 4x4x..
tensors of jets this way.  ``eval_jet`` returns a ``Jet``, which reads
values and partials out of one coefficient array.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from ..errors import DomainError
from .ast import COORDS, BinOp, Call, Expr, Neg, Num, Pow, Var

_NVARS = 4
_DIV_GUARD = 1e-12  # |denominator| below this times scale raises DomainError


@lru_cache(maxsize=None)
def monomials(order: int) -> tuple:
    """Multi-indices |alpha| <= order, grouped by total degree (prefix-stable)."""
    ms = []
    for total in range(order + 1):
        for iu in range(total, -1, -1):
            for iv in range(total - iu, -1, -1):
                for ix in range(total - iu - iv, -1, -1):
                    ms.append((iu, iv, ix, total - iu - iv - ix))
    return tuple(ms)


@lru_cache(maxsize=None)
def mono_index(order: int) -> dict:
    return {m: i for i, m in enumerate(monomials(order))}


def n_coeffs(order: int) -> int:
    return len(monomials(order))


@lru_cache(maxsize=None)
def _mul_table(order_a: int, order_b: int, order_out: int):
    """Gather/scatter table realizing the Leibniz rule on raw partials.

    D^g(fg) = sum over a+b=g of C(g, a) D^a f D^b g; returns (I, J, S)
    with I, J indexing the operands and the dense matrix S of shape
    (M_out, T) scattering weighted pair products into output slots.
    """
    out_idx = mono_index(order_out)
    I, J, K, W = [], [], [], []
    for a in monomials(order_a):
        ta = sum(a)
        if ta > order_out:
            continue
        ia = mono_index(order_a)[a]
        for b in monomials(order_b):
            if ta + sum(b) > order_out:
                continue
            g = tuple(ai + bi for ai, bi in zip(a, b))
            I.append(ia)
            J.append(mono_index(order_b)[b])
            K.append(out_idx[g])
            W.append(float(np.prod([math.comb(ai + bi, ai) for ai, bi in zip(a, b)])))
    I = np.asarray(I, dtype=np.intp)
    J = np.asarray(J, dtype=np.intp)
    S = np.zeros((len(out_idx), len(I)))
    S[np.asarray(K, dtype=np.intp), np.arange(len(I))] = W
    return I, J, S


@lru_cache(maxsize=None)
def _deriv_table(order: int) -> np.ndarray:
    """(4, M_{order-1}) gather: raw partials of d/dx_v are re-indexed partials."""
    src = mono_index(order)
    out = np.empty((_NVARS, n_coeffs(order - 1)), dtype=np.intp)
    for var in range(_NVARS):
        for i, m in enumerate(monomials(order - 1)):
            shifted = list(m)
            shifted[var] += 1
            out[var, i] = src[tuple(shifted)]
    return out


# ---------------------------------------------------------------------------
# coefficient-array operations; operands shaped (..., M, P)


def mul_coeffs(a: np.ndarray, b: np.ndarray, order_a: int, order_b: int, order_out: int) -> np.ndarray:
    I, J, S = _mul_table(order_a, order_b, order_out)
    prod = a[..., I, :] * b[..., J, :]
    if prod.shape[-1] == 1:
        # einsum sums a lone column in another order; a copy keeps a batch's
        return np.einsum("kt,...tp->...kp", S, np.repeat(prod, 2, axis=-1))[..., :1]
    return np.einsum("kt,...tp->...kp", S, prod)


def deriv_coeffs(a: np.ndarray, order: int) -> np.ndarray:
    """All four coordinate derivatives; appends an axis: (..., 4, M', P)."""
    G = _deriv_table(order)
    return a[..., G, :]


def truncate_coeffs(a: np.ndarray, order_in: int, order_out: int) -> np.ndarray:
    if order_out >= order_in:
        return a
    return a[..., : n_coeffs(order_out), :]


def const_coeffs(value, order: int, npoints: int) -> np.ndarray:
    out = np.zeros((n_coeffs(order), npoints))
    out[0] = value
    return out


def coord_coeffs(var: int, values: np.ndarray, order: int) -> np.ndarray:
    out = np.zeros((n_coeffs(order), len(values)))
    out[0] = values
    if order >= 1:
        e = [0, 0, 0, 0]
        e[var] = 1
        out[mono_index(order)[tuple(e)]] = 1.0
    return out


def compose_coeffs(f: np.ndarray, taylor: np.ndarray, order: int) -> np.ndarray:
    """Jet of phi(f) given taylor[k] = phi^(k)(f_value)/k!, shape (K+1, ...)."""
    delta = f.copy()
    delta[..., 0, :] = 0.0
    out = np.zeros_like(f)
    out[..., 0, :] = taylor[order]
    for k in range(order - 1, -1, -1):
        out = mul_coeffs(out, delta, order, order, order)
        out[..., 0, :] += taylor[k]
    return out


def recip_coeffs(f: np.ndarray, order: int, num_scale=1.0) -> np.ndarray:
    f0 = f[..., 0, :]
    if np.any(np.abs(f0) < _DIV_GUARD * np.maximum(1.0, num_scale)):
        raise DomainError("division by (near-)zero value")
    taylor = np.stack([(-1.0) ** k / f0 ** (k + 1) for k in range(order + 1)])
    return compose_coeffs(f, taylor, order)


def div_coeffs(a: np.ndarray, b: np.ndarray, order_a: int, order_b: int, order_out: int) -> np.ndarray:
    scale = np.max(np.abs(a[..., 0, :])) if a.size else 1.0
    rb = recip_coeffs(truncate_coeffs(b, order_b, order_out), order_out, num_scale=scale)
    return mul_coeffs(truncate_coeffs(a, order_a, order_out), rb, order_out, order_out, order_out)


def pow_coeffs(f: np.ndarray, n: int, order: int) -> np.ndarray:
    if n == 0:
        out = np.zeros_like(f)
        out[..., 0, :] = 1.0
        return out
    if n < 0:
        return recip_coeffs(pow_coeffs(f, -n, order), order)
    out = f
    for _ in range(n - 1):
        out = mul_coeffs(out, f, order, order, order)
    return out


_FUNC_TAYLOR = {
    "exp": lambda f0, K: np.stack([np.exp(f0) / math.factorial(k) for k in range(K + 1)]),
    "sin": lambda f0, K: np.stack(
        [[np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)][k % 4](f0) / math.factorial(k) for k in range(K + 1)]
    ),
    "cos": lambda f0, K: np.stack(
        [[np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), np.sin][k % 4](f0) / math.factorial(k) for k in range(K + 1)]
    ),
    "sinh": lambda f0, K: np.stack([(np.sinh(f0) if k % 2 == 0 else np.cosh(f0)) / math.factorial(k) for k in range(K + 1)]),
    "cosh": lambda f0, K: np.stack([(np.cosh(f0) if k % 2 == 0 else np.sinh(f0)) / math.factorial(k) for k in range(K + 1)]),
}


def func_coeffs(name: str, f: np.ndarray, order: int) -> np.ndarray:
    f0 = f[..., 0, :]
    if name == "ln":
        if np.any(f0 <= 0.0):
            raise DomainError("ln of non-positive value")
        taylor = np.stack([np.log(f0)] + [(-1.0) ** (k - 1) / (k * f0**k) for k in range(1, order + 1)])
    else:
        taylor = _FUNC_TAYLOR[name](f0, order)
    out = compose_coeffs(f, taylor, order)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{name} overflowed")
    return out


# ---------------------------------------------------------------------------
# points


def as_points(p) -> tuple[np.ndarray, bool]:
    """Normalize to (P, 4); returns (array, was_single_point)."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (_NVARS,):
            raise ValueError("a point has exactly four coordinates (u, v, x, y)")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == _NVARS:
        return arr, False
    raise ValueError("points must be shaped (4,) or (P, 4)")


def check_finite_points(pts: np.ndarray) -> None:
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")


# ---------------------------------------------------------------------------
# the read-side Jet


def _normalize_multi_index(multi_index) -> tuple:
    if isinstance(multi_index, str):
        counts = [0, 0, 0, 0]
        for ch in multi_index:
            if ch not in COORDS:
                raise ValueError(f"unknown coordinate {ch!r} in multi-index")
            counts[COORDS.index(ch)] += 1
        return tuple(counts)
    idx = tuple(int(k) for k in multi_index)
    if len(idx) != _NVARS or any(k < 0 for k in idx):
        raise ValueError("multi-index must be four non-negative counts")
    return idx


class Jet:
    """Raw partial derivatives of a scalar at one point (or a point batch),
    as returned by ``eval_jet``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: np.ndarray):
        self.order = order
        self.coeffs = coeffs

    def _squeeze(self, arr):
        return float(arr[..., 0]) if arr.shape[-1] == 1 and arr.ndim == 1 else arr

    @property
    def value(self):
        return self._squeeze(self.coeffs[0])

    def partial(self, multi_index):
        idx = _normalize_multi_index(multi_index)
        if sum(idx) > self.order:
            raise ValueError(f"multi-index order {sum(idx)} exceeds jet order {self.order}")
        return self._squeeze(self.coeffs[mono_index(self.order)[idx]])

    def __repr__(self):
        return f"Jet(order={self.order}, value={self.value})"


# ---------------------------------------------------------------------------
# evaluation of expressions


def eval_jet(e: Expr, p, order: int = 3) -> Jet:
    """All raw partials of the expression at the point(s), to the given order."""
    pts, _ = as_points(p)
    check_finite_points(pts)
    return Jet(order, _eval_coeffs(e, pts, order))


def _eval_coeffs(e: Expr, pts: np.ndarray, order: int, known=None) -> np.ndarray:
    """Jet (M, P) of the expression at the points.  ``known`` maps id(node)
    to that node's jet at ``order``, already evaluated at these points; such
    nodes are read, not evaluated again."""
    if known is not None and id(e) in known:
        return known[id(e)]
    npts = pts.shape[0]
    try:
        if isinstance(e, Num):
            return const_coeffs(e.value, order, npts)
        if isinstance(e, Var):
            i = COORDS.index(e.name)
            return coord_coeffs(i, pts[:, i], order)
        if isinstance(e, Neg):
            return -_eval_coeffs(e.arg, pts, order, known)
        if isinstance(e, BinOp):
            a = _eval_coeffs(e.lhs, pts, order, known)
            b = _eval_coeffs(e.rhs, pts, order, known)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return mul_coeffs(a, b, order, order, order)
            return div_coeffs(a, b, order, order, order)
        if isinstance(e, Pow):
            base = _eval_coeffs(e.base, pts, order, known)
            return pow_coeffs(base, e.exponent, order)
        if isinstance(e, Call):
            return func_coeffs(e.func, _eval_coeffs(e.arg, pts, order, known), order)
    except DomainError as err:
        if err.expr is None:
            raise DomainError(str(err), expr=e) from None
        raise
    raise TypeError(f"cannot evaluate {type(e).__name__}")


_NP_FUNCS = {"exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh}


def eval_scalar(e: Expr, p):
    """Plain values at the point(s); same domain guards as eval_jet."""
    pts, single = as_points(p)
    vals = _eval_values(e, pts)
    return float(vals[0]) if single else vals


def _eval_values(e: Expr, pts: np.ndarray) -> np.ndarray:
    try:
        if isinstance(e, Num):
            return np.full(pts.shape[0], e.value)
        if isinstance(e, Var):
            return pts[:, COORDS.index(e.name)].copy()
        if isinstance(e, Neg):
            return -_eval_values(e.arg, pts)
        if isinstance(e, BinOp):
            a = _eval_values(e.lhs, pts)
            b = _eval_values(e.rhs, pts)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if np.any(np.abs(b) < _DIV_GUARD * np.maximum(1.0, np.abs(a))):
                raise DomainError("division by (near-)zero value", expr=e)
            return a / b
        if isinstance(e, Pow):
            base = _eval_values(e.base, pts)
            if e.exponent < 0 and np.any(np.abs(base) < _DIV_GUARD):
                raise DomainError("negative power of (near-)zero value", expr=e)
            return base ** float(e.exponent)
        if isinstance(e, Call):
            arg = _eval_values(e.arg, pts)
            if e.func == "ln" and np.any(arg <= 0.0):
                raise DomainError("ln of non-positive value", expr=e)
            out = _NP_FUNCS[e.func](arg)
            if not np.all(np.isfinite(out)):
                raise DomainError(f"{e.func} overflowed", expr=e)
            return out
    except DomainError as err:
        if err.expr is None:
            raise DomainError(str(err), expr=e) from None
        raise
    raise TypeError(f"cannot evaluate {type(e).__name__}")


@lru_cache(maxsize=64)
def _fd_stencils(multi_indices: tuple, step: float) -> tuple:
    """The offsets (N, 4) of the stencil points of every multi-index,
    stacked, and per multi-index (start, end, sign weights, (2 step)^order)."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    offsets, parts, start = [], [], 0
    for idx in map(_normalize_multi_index, multi_indices):
        total = sum(idx)
        if total > 3:
            raise ValueError("finite differences support |multi_index| <= 3")
        # nested central first differences: the 2^total sign choices
        dirs = [i for i in range(_NVARS) for _ in range(idx[i])]
        signs = np.array(list(product((-1.0, 1.0), repeat=total))).reshape(2**total, total)
        offsets.append(step * (signs[:, :, None] * np.eye(_NVARS)[dirs][None, :, :]).sum(axis=1))
        parts.append((start, start + len(signs), np.prod(signs, axis=1), (2.0 * step) ** total))
        start += len(signs)
    return np.concatenate(offsets), parts


def fd_derivatives(e: Expr, p, multi_indices, step: float = 1e-3) -> np.ndarray:
    """Central finite-difference estimates of partial derivatives at one
    point, error O(step^2), from one evaluation of e over every stencil.

    Independent of the jet machinery: only evaluates e's values at shifted
    points.  Orders up to 3 (the jet default) are supported.
    """
    offsets, parts = _fd_stencils(tuple(multi_indices), float(step))
    pts, single = as_points(p)
    if not single:
        raise ValueError("finite differences evaluate one point at a time")
    vals = _eval_values(e, pts[0][None, :] + offsets)
    return np.array([(weights * vals[a:b]).sum() / scale for a, b, weights, scale in parts])


def fd_derivative(e: Expr, p, multi_index, step: float = 1e-3) -> float:
    """Central finite-difference estimate of one partial derivative; see
    fd_derivatives."""
    return float(fd_derivatives(e, p, [multi_index], step)[0])
