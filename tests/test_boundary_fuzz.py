"""A fuzzed boundary: random spec files through the command line.

Every run must end with exit 0, 1 or 2, print no traceback and emit no
RuntimeWarning, and every analysis error (exit 1) must name the sample and
the stage it failed at.  The expressions follow ``random_expr`` with two
additions that reach float64's edges: constants of magnitude up to 1e±300
and integer powers up to ±400.
"""

import re
import warnings

import numpy as np

from nullplane.exprkit.ast import COORDS, BinOp, Call, Neg, Num, Pow, Var, to_string
from nullplane.lab.cli import main

_FUNCS = ("exp", "ln", "sin", "cos", "sinh", "cosh")

# holes of the boundary, each with the stage that now rejects it: a finite
# t-field whose generator norms overflow, tetrad components whose bivector
# wedges overflow, and an ln whose second Taylor coefficient divides by a
# power that underflows to 0, found first; then a tetrad that is normalized
# within its tolerance but whose l ^ mt is no star eigenvector, and two
# residual overflows, a t-field's (reduced from the 10th spec _random_spec
# draws from the generator seeded 10) and the Ricci discriminant's squared
# normalization (from the 536th drawn from seed 5); last, a curvature that
# overflows from finite metric jets (a_uu about 1.7e308), in a walker and in
# a general walker block without a tetrad
_WALKER_BLOCK = dict(uu=0, uv=0, ux=1, uy=0, vv=0, vx=0, vy=1, xx="u^2", xy="u", yy="v^2")


def _general_walker(yy="v^2", l2=0) -> str:
    """The walker block with g_yy = yy and its tetrad, l's x component l2."""
    return (
        "[metric]\nkind = general\n"
        + "".join(f"g_{key} = {value}\n" for key, value in {**_WALKER_BLOCK, "yy": yy}.items())
        + f"[tetrad]\nl0 = 1\nl1 = 0\nl2 = {l2}\nl3 = 0\nn0 = -u^2/2\nn1 = -u/2\nn2 = 1\nn3 = 0\n"
        + f"m0 = u/2\nm1 = ({yy})/2\nm2 = 0\nm3 = -1\nmt0 = 0\nmt1 = 1\nmt2 = 0\nmt3 = 0\n"
    )


_STEEP = "sin(1.31e154*u)"


FIXED = [
    ("generators", "[metric]\nkind = walker\na = u^2\nb = v^2\nc = u\n[lambda]\nt0 = 1e200\nt1 = 1e200\n"),
    (
        "tetrad",
        "[metric]\nkind = general\n"
        + "".join(f"g_{key} = {value}\n" for key, value in _WALKER_BLOCK.items())
        + "[tetrad]\nl0 = 1e200\nl1 = 0\nl2 = 0\nl3 = 0\nn0 = -u^2/2\nn1 = 1e200\nn2 = 1\nn3 = 0\n"
        + "m0 = u/2\nm1 = v^2/2\nm2 = 0\nm3 = -1\nmt0 = 0\nmt1 = 1\nmt2 = 0\nmt3 = 0\n",
    ),
    ("metric", "[metric]\nkind = walker\na = u^2\nb = v^2\nc = ln(1e-263)\n"),
    ("tetrad", _general_walker(l2="3e-8")),
    ("residuals", "[metric]\nkind = walker\na = u^2\nb = v^2\nc = u\n[lambda]\nt0 = cos(1e182*u)\nt1 = 1\n"),
    ("residuals", _general_walker(yy="cos(1e99*u)")),
    # quartic coefficients near 1e308: the direction defect must not overflow first
    ("residuals", "[metric]\nkind = walker\na = sin(6.958e153*u)\nb = v^2\nc = u\n"),
    ("curvature", f"[metric]\nkind = walker\na = {_STEEP}\nb = v^2\nc = u\n"),
    (
        "curvature",
        "[metric]\nkind = general\n" + "".join(f"g_{key} = {e}\n" for key, e in {**_WALKER_BLOCK, "xx": _STEEP}.items()),
    ),
]


def _wild_expr(rng, depth=4):
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.5:
            return Var(COORDS[rng.integers(4)])
        if pick < 0.8:
            return Num(round(float(rng.uniform(-2.0, 2.0)), 2))
        return Num(float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0)))
    kind, arg = rng.random(), lambda: _wild_expr(rng, depth - 1)
    if kind < 0.25:
        return BinOp("+", arg(), arg())
    if kind < 0.35:
        return BinOp("-", arg(), arg())
    if kind < 0.60:
        return BinOp("*", arg(), arg())
    if kind < 0.68:
        return BinOp("/", arg(), arg())
    if kind < 0.80:
        exponent = rng.integers(-400, 401) if rng.random() < 0.5 else rng.choice([-2, -1, 2, 3])
        return Pow(arg(), int(exponent))
    if kind < 0.87:
        return Neg(arg())
    return Call(_FUNCS[rng.integers(len(_FUNCS))], arg())


def _random_spec(rng) -> str:
    """A walker, conformal_walker or general spec, half of them with a
    [lambda] section.  A general spec is a walker block with its tetrad,
    up to two tetrad components replaced by random expressions."""
    expr = lambda: to_string(_wild_expr(rng))
    kind = ("walker", "conformal_walker", "general")[rng.integers(3)]
    if kind == "general":
        a, b, c = expr(), expr(), expr()
        metric = {**_WALKER_BLOCK, "xx": a, "xy": c, "yy": b}
        tetrad = {
            "l": [1, 0, 0, 0],
            "n": [f"-({a})/2", f"-({c})/2", 1, 0],
            "m": [f"({c})/2", f"({b})/2", 0, -1],
            "mt": [0, 1, 0, 0],
        }
        for _ in range(rng.integers(3)):
            tetrad[("l", "n", "m", "mt")[rng.integers(4)]][rng.integers(4)] = expr()
        text = "[metric]\nkind = general\n" + "".join(f"g_{key} = {value}\n" for key, value in metric.items())
        text += "[tetrad]\n" + "".join(f"{name}{i} = {e}\n" for name, vec in tetrad.items() for i, e in enumerate(vec))
    else:
        text = f"[metric]\nkind = {kind}\na = {expr()}\nb = {expr()}\nc = {expr()}\n"
        text += f"chi = {expr()}\n" if kind == "conformal_walker" else ""
    if rng.random() < 0.5:
        text += f"[lambda]\nt0 = {expr()}\nt1 = {expr()}\n"
    return text


def test_fuzzed_spec_files_end_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "spec.ini"
    for stage, text in FIXED + [(None, _random_spec(rng)) for _ in range(64)]:
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(["analyze", "--spec", str(path), "--points", "3"])
            except Exception as exc:  # a traceback, a RuntimeWarning included
                raise AssertionError(f"{exc!r} on the spec\n{text}") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 2), text
        if code == 1:
            assert re.search(r"\[at sample \d+, stage \w+\]", err), f"{err} on the spec\n{text}"
        if stage:
            assert code == 1 and f"[at sample 0, stage {stage}]" in err, err
