"""Symbolic differentiation, polynomial antiderivatives, and zero tests.

The zero test expands an expression into a normal form: a linear
combination of monomials in (u, v, x, y) times "atoms" (function calls and
reciprocals of non-constant subexpressions, keyed by a canonical string).
Structurally different but algebraically equal quotient forms may fail to
cancel, so ``is_zero_expr`` is sound when it answers True but incomplete;
the family builders only ever need it on polynomial-in-one-variable shapes
where it is exact.

The zero test and the antiderivative share that one expansion: ``poly_of``
records each atom in a table its caller passes, and ``antideriv_poly``
integrates the monomials whose atoms' arguments are free of the coordinate.
"""

from __future__ import annotations

from ..errors import NotPolynomial
from .ast import COORDS, BinOp, Call, Expr, Neg, Num, Pow, Var, to_string

# ---------------------------------------------------------------------------
# simplifying constructors (fold literals, elide 0/1) keep derivative trees
# small so that v-free inputs differentiate to the literal zero node


def add_(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Num) and l.value == 0.0:
        return r
    if isinstance(r, Num) and r.value == 0.0:
        return l
    if isinstance(l, Num) and isinstance(r, Num):
        return Num(l.value + r.value)
    return BinOp("+", l, r)


def sub_(l: Expr, r: Expr) -> Expr:
    if isinstance(r, Num) and r.value == 0.0:
        return l
    if isinstance(l, Num) and l.value == 0.0:
        return neg_(r)
    if isinstance(l, Num) and isinstance(r, Num):
        return Num(l.value - r.value)
    return BinOp("-", l, r)


def mul_(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Num):
        if l.value == 0.0:
            return Num(0.0)
        if l.value == 1.0:
            return r
    if isinstance(r, Num):
        if r.value == 0.0:
            return Num(0.0)
        if r.value == 1.0:
            return l
    if isinstance(l, Num) and isinstance(r, Num):
        return Num(l.value * r.value)
    return BinOp("*", l, r)


def div_(l: Expr, r: Expr) -> Expr:
    if isinstance(l, Num) and l.value == 0.0:
        return Num(0.0)
    if isinstance(r, Num):
        if r.value == 0.0:
            raise ZeroDivisionError("division by constant zero expression")
        if r.value == 1.0:
            return l
        if isinstance(l, Num):
            return Num(l.value / r.value)
    return BinOp("/", l, r)


def neg_(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def pow_(b: Expr, n: int) -> Expr:
    if n == 0:
        return Num(1.0)
    if n == 1:
        return b
    if isinstance(b, Num) and (n >= 0 or b.value != 0.0):
        return Num(b.value**n)
    return Pow(b, n)


# ---------------------------------------------------------------------------
# symbolic differentiation

_FUNC_DERIV = {
    "exp": lambda a: Call("exp", a),
    "ln": None,  # handled inline (quotient)
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: neg_(Call("sin", a)),
    "sinh": lambda a: Call("cosh", a),
    "cosh": lambda a: Call("sinh", a),
}


def diff_expr(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to a coordinate name."""
    if var not in COORDS:
        raise ValueError(f"unknown coordinate {var!r}")
    return _diff(e, var)


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.name == var else Num(0.0)
    if isinstance(e, Neg):
        return neg_(_diff(e.arg, var))
    if isinstance(e, BinOp):
        dl, dr = _diff(e.lhs, var), _diff(e.rhs, var)
        if e.op == "+":
            return add_(dl, dr)
        if e.op == "-":
            return sub_(dl, dr)
        if e.op == "*":
            return add_(mul_(dl, e.rhs), mul_(e.lhs, dr))
        # quotient rule
        num = sub_(mul_(dl, e.rhs), mul_(e.lhs, dr))
        return div_(num, pow_(e.rhs, 2))
    if isinstance(e, Pow):
        db = _diff(e.base, var)
        return mul_(mul_(Num(float(e.exponent)), pow_(e.base, e.exponent - 1)), db)
    if isinstance(e, Call):
        da = _diff(e.arg, var)
        if e.func == "ln":
            return div_(da, e.arg)
        return mul_(_FUNC_DERIV[e.func](e.arg), da)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


# ---------------------------------------------------------------------------
# expansion normal form: {(exps, atoms): coeff}

_ZERO_EXPS = (0, 0, 0, 0)
_VAR_INDEX = {name: i for i, name in enumerate(COORDS)}

_Poly = dict


def _padd(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0.0) + c
    return out


def _pscale(p, s):
    return {k: c * s for k, c in p.items()}


def _mono_mul(k1, k2):
    exps = tuple(a + b for a, b in zip(k1[0], k2[0]))
    atoms = dict(k1[1])
    for key, power in k2[1]:
        atoms[key] = atoms.get(key, 0) + power
    return (exps, tuple(sorted(atoms.items())))


def _pmul(p, q):
    out: _Poly = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = _mono_mul(k1, k2)
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


def _ppow(p, n):
    out = {(_ZERO_EXPS, ()): 1.0}
    for _ in range(n):
        out = _pmul(out, p)
    return out


def _pconst(p):
    """Value if the poly is a single constant monomial, else None."""
    if not p:
        return 0.0
    if len(p) == 1:
        (key, coeff), = p.items()
        if key == (_ZERO_EXPS, ()):
            return coeff
    return None


def _canon(p) -> str:
    parts = []
    for (exps, atoms), coeff in sorted(p.items()):
        mono = ["%r" % coeff]
        mono.extend(f"{COORDS[i]}^{e}" for i, e in enumerate(exps) if e)
        mono.extend(f"{key}^{power}" for key, power in atoms)
        parts.append("*".join(mono))
    return "+".join(parts)


def _atom_poly(atoms, func: str, arg_poly, atom: Expr, power: int = 1):
    """One atom to a power; ``atoms`` maps its key to (argument expansion, atom)."""
    key = f"{func}({_canon(arg_poly)})"
    atoms.setdefault(key, (arg_poly, atom))
    return {(_ZERO_EXPS, ((key, power),)): 1.0}


def poly_of(e: Expr, atoms: dict) -> _Poly:
    """Expansion {(exps, ((atom key, power), ...)): coeff} of an expression;
    every atom met is entered in the table ``atoms``."""
    if isinstance(e, Num):
        return {(_ZERO_EXPS, ()): e.value} if e.value != 0.0 else {}
    if isinstance(e, Var):
        exps = [0, 0, 0, 0]
        exps[_VAR_INDEX[e.name]] = 1
        return {(tuple(exps), ()): 1.0}
    if isinstance(e, Neg):
        return _pscale(poly_of(e.arg, atoms), -1.0)
    if isinstance(e, BinOp):
        pl = poly_of(e.lhs, atoms)
        if e.op == "+":
            return _padd(pl, poly_of(e.rhs, atoms))
        if e.op == "-":
            return _padd(pl, _pscale(poly_of(e.rhs, atoms), -1.0))
        pr = poly_of(e.rhs, atoms)
        if e.op == "*":
            return _pmul(pl, pr)
        const = _pconst(pr)
        if const is not None and const != 0.0:
            return _pscale(pl, 1.0 / const)
        return _pmul(pl, _atom_poly(atoms, "recip", pr, div_(Num(1.0), e.rhs)))
    if isinstance(e, Pow):
        pb = poly_of(e.base, atoms)
        if e.exponent >= 0:
            return _ppow(pb, e.exponent)
        const = _pconst(pb)
        if const is not None and const != 0.0:
            return {(_ZERO_EXPS, ()): const**e.exponent}
        return _atom_poly(atoms, "recip", pb, div_(Num(1.0), e.base), -e.exponent)
    if isinstance(e, Call):
        return _atom_poly(atoms, e.func, poly_of(e.arg, atoms), e)
    raise TypeError(f"cannot normalize {type(e).__name__}")


_ZERO_COEFF = 1e-10  # absolute coefficient tolerance of is_zero_expr


def is_zero_expr(e: Expr) -> bool:
    """Structural zero test after expansion (absolute coefficient tolerance)."""
    return all(abs(c) <= _ZERO_COEFF for c in poly_of(e, {}).values())


def depends_on(e: Expr, var: str) -> bool:
    """True when the expression varies with the coordinate (0*u does not)."""
    return not is_zero_expr(diff_expr(e, var))


# ---------------------------------------------------------------------------
# polynomial antiderivative in one coordinate


def _holds(p, i: int, atoms) -> bool:
    """True when an expansion varies with coordinate ``i``: a monomial the
    zero test keeps has a power of it or an atom whose argument holds it."""
    return any(
        abs(coeff) > _ZERO_COEFF and (exps[i] > 0 or any(_holds(atoms[key][0], i, atoms) for key, _ in mono_atoms))
        for (exps, mono_atoms), coeff in p.items()
    )


def antideriv_poly(e: Expr, var: str) -> Expr:
    """Antiderivative of an expression polynomial in ``var`` (zero constant),
    integrated monomial by monomial from its expansion.  A coefficient counts
    as zero at 1e-10 of the expansion's largest, so a small input keeps its
    terms."""
    atoms: dict = {}
    poly = poly_of(e, atoms)
    tol = _ZERO_COEFF * max(map(abs, poly.values()), default=0.0)
    if all(abs(c) <= tol for c in poly_of(diff_expr(e, var), {}).values()):  # free of var
        return mul_(e, Var(var))
    i = _VAR_INDEX[var]
    result: Expr = Num(0.0)
    for (exps, mono_atoms), coeff in sorted(poly.items()):
        if abs(coeff) <= tol:
            continue
        if any(_holds(atoms[key][0], i, atoms) for key, _ in mono_atoms):
            raise NotPolynomial(f"'{to_string(e)}' is not polynomial in {var}")
        term: Expr = Num(coeff / (exps[i] + 1))
        for j, name in enumerate(COORDS):
            term = mul_(term, pow_(Var(name), exps[j] + (j == i)))
        for key, power in mono_atoms:
            term = mul_(term, pow_(atoms[key][1], power))
        result = add_(result, term)
    return result
