import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullplane.errors import (
    DomainError,
    ExprSyntaxError,
    NotPolynomial,
    UnknownIdentifier,
)
from nullplane.exprkit import (
    BinOp,
    Call,
    Neg,
    Num,
    Pow,
    Var,
    antideriv_poly,
    depends_on,
    diff_expr,
    eval_jet,
    eval_scalar,
    fd_derivative,
    is_zero_expr,
    parse_expr,
    random_expr,
    to_string,
)
from nullplane.families import random_polys

P0 = (1.0, 2.0, 3.0, 4.0)


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_basic_arithmetic():
    assert eval_scalar(parse_expr("2*u*x + v^2"), P0) == pytest.approx(10.0)


def test_parse_exp_literal():
    e = parse_expr("exp(0)")
    assert isinstance(e, Call)
    assert eval_scalar(e, P0) == pytest.approx(1.0)


def test_parse_negative_exponent():
    e = parse_expr("u^-2 * (2/3)")
    assert eval_scalar(e, (1.0, 9.0, 9.0, 9.0)) == pytest.approx(2.0 / 3.0)
    assert eval_scalar(e, (2.0, 9.0, 9.0, 9.0)) == pytest.approx(2.0 / 3.0 / 4.0)


def test_precedence_and_associativity():
    assert eval_scalar(parse_expr("-u^2"), P0) == pytest.approx(-1.0)
    assert eval_scalar(parse_expr("2 - 3 - 4"), P0) == pytest.approx(-5.0)
    assert eval_scalar(parse_expr("2^3^2"), P0) == pytest.approx(64.0)  # left-assoc
    assert eval_scalar(parse_expr("12 / 2 / 3"), P0) == pytest.approx(2.0)


def test_unicode_operator_aliases():
    assert eval_scalar(parse_expr("u × v − x"), P0) == pytest.approx(-1.0)


@pytest.mark.parametrize(
    "text",
    ["", "  ", "u +", "(u", "u^v", "u^2.5", "2*/3", "u$v"],
)
def test_syntax_errors(text):
    with pytest.raises(ExprSyntaxError):
        parse_expr(text)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("u + $")
    assert err.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse_expr("u + w")
    with pytest.raises(UnknownIdentifier):
        parse_expr("tan(u)")


def test_division_by_literal_zero_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("u / 0")
    with pytest.raises(ExprSyntaxError):
        parse_expr("u / -0")
    # a zero-valued denominator that is not the literal is a runtime error
    e = parse_expr("u / (v - v)")
    with pytest.raises(DomainError):
        eval_scalar(e, P0)


# zero literals excluded: the parser (correctly) rejects 'e / 0'
_leaf = st.one_of(
    st.sampled_from([Var("u"), Var("v"), Var("x"), Var("y")]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
    .map(lambda f: Num(round(f, 3)))
    .filter(lambda n: n.value != 0.0),
)


def _node(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: BinOp(*t)),
        children.map(Neg),
        st.tuples(children, st.integers(min_value=-3, max_value=4)).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(["exp", "ln", "sin", "cos", "sinh", "cosh"]), children).map(
            lambda t: Call(*t)
        ),
    )


expr_trees = st.recursive(_leaf, _node, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(expr_trees)
def test_print_parse_roundtrip(e):
    assert parse_expr(to_string(e)) == e


def test_print_parse_fixpoint_on_random_corpus():
    rng = np.random.default_rng(99)
    for _ in range(300):
        e = random_expr(rng, depth=5)
        once = parse_expr(to_string(e))
        twice = parse_expr(to_string(once))
        assert once == twice


# ---------------------------------------------------------------------------
# jets


def test_jet_product_partials():
    j = eval_jet(parse_expr("u*v"), (2.0, 3.0, 0.0, 0.0), order=2)
    assert j.value == pytest.approx(6.0)
    assert j.partial("u") == pytest.approx(3.0)
    assert j.partial("v") == pytest.approx(2.0)
    assert j.partial("uv") == pytest.approx(1.0)
    assert j.partial("uu") == pytest.approx(0.0)


def test_jet_exp_all_orders():
    j = eval_jet(parse_expr("exp(x)"), (0.0, 0.0, 0.0, 0.0), order=3)
    for idx in ("x", "xx", "xxx"):
        assert j.partial(idx) == pytest.approx(1.0)


def test_jet_reciprocal_partials():
    j = eval_jet(parse_expr("1/v"), (0.0, 1.0, 0.0, 0.0), order=2)
    assert j.partial("v") == pytest.approx(-1.0)
    assert j.partial("vv") == pytest.approx(2.0)


def test_jet_division_by_small_raises():
    with pytest.raises(DomainError):
        eval_jet(parse_expr("1/v"), (0.0, 1e-14, 0.0, 0.0), order=1)


def test_jet_ln_domain():
    with pytest.raises(DomainError) as err:
        eval_jet(parse_expr("ln(x - 5)"), P0, order=1)
    assert "ln" in str(err.value)


def test_jet_batch_matches_single():
    e = parse_expr("exp(u*v) + sin(x)/cosh(y)")
    pts = np.random.default_rng(3).uniform(0.5, 1.5, (7, 4))
    batch = eval_jet(e, pts, order=3)
    for i, p in enumerate(pts):
        single = eval_jet(e, p, order=3)
        assert np.allclose(batch.coeffs[:, i], single.coeffs[:, 0], rtol=1e-14)


def test_mul_coeffs_single_point_matches_batch():
    """A lone point's Leibniz products are summed in the order of a batch."""
    from nullplane.exprkit.jets import mul_coeffs

    a, b = np.random.default_rng(4).normal(size=(2, 35, 6))
    batch = mul_coeffs(a, b, 3, 3, 3)
    for i in range(6):
        np.testing.assert_array_equal(mul_coeffs(a[:, i : i + 1], b[:, i : i + 1], 3, 3, 3), batch[:, i : i + 1])


def test_jet_truncation_law_on_random_corpus():
    """Lower Leibniz coefficients do not depend on the order a jet is
    truncated at: the jet cache reads an order-0 or order-1 request from
    the first rows of a kept order-2 jet.  Each order here is evaluated on
    its own, and the rows must agree bit for bit."""
    rng = np.random.default_rng(2024)
    pts = rng.uniform(0.5, 1.5, (20, 4))
    evaluated = 0
    for _ in range(200):
        e = random_expr(rng)
        try:
            with np.errstate(all="ignore"):
                j0, j1, j2 = (eval_jet(e, pts, order).coeffs for order in (0, 1, 2))
        except DomainError:
            continue
        if not np.all(np.isfinite(j2)):
            continue
        evaluated += 1
        assert j2[:5].tobytes() == j1.tobytes(), to_string(e)
        assert j2[:1].tobytes() == j0.tobytes(), to_string(e)
    assert evaluated >= 100


def test_deep_expression_evaluates():
    """Keying and evaluating a node take one stack frame per tree level, so
    a sum of 900 terms, a tree 900 levels deep, evaluates."""
    jet = eval_jet(parse_expr(" + ".join(["u"] * 900)), P0, order=2)
    assert jet.value == 900.0 and jet.partial("u") == 900.0


def test_jet_cache_keeps_signed_zeros_apart():
    """Num(0.0) == Num(-0.0) and the two hash alike, but they are two keys
    in a jet cache.  The walker tetrad of a = 0 holds -0.0 in n next to the
    metric's 0.0, and a frame read from the metric's cache keeps its sign."""
    from nullplane.exprkit.jets import JetCache
    from nullplane.frames import Frame, walker_tetrad
    from nullplane.tensor import MetricSpec, metric_jet

    pts = np.random.default_rng(3).uniform(0.5, 1.5, (4, 4))
    cache = JetCache(pts)
    plus, minus = cache.jet(Num(0.0), 1), cache.jet(Num(-0.0), 1)
    assert not np.any(np.signbit(plus)) and np.all(np.signbit(minus[0]))

    spec = MetricSpec.walker(0, 2, 0)
    shared = JetCache(pts)
    metric_jet(spec, shared)
    n = Frame.of(walker_tetrad(spec), shared).vecs["n"]
    assert np.all(np.signbit(n[0, 0])) and not np.any(np.signbit(n[2]))
    assert n.tobytes() == Frame.of(walker_tetrad(spec), pts).vecs["n"].tobytes()


# ---------------------------------------------------------------------------
# symbolic differentiation


def test_diff_simple():
    d = diff_expr(parse_expr("u*v^2"), "v")
    for p in np.random.default_rng(0).uniform(0.5, 1.5, (5, 4)):
        assert eval_scalar(d, p) == pytest.approx(2 * p[0] * p[1])


def test_diff_of_v_free_expression_is_literal_zero():
    d = diff_expr(parse_expr("exp(4*x)*u^4/(3*v^2)"), "y")
    assert d == Num(0.0)


def test_diff_matches_jets_at_random_points():
    e = parse_expr("exp(4*x) * u^4 / (3*v^2)")
    d = diff_expr(e, "u")
    pts = np.random.default_rng(12).uniform(0.5, 1.5, (10, 4))
    jets = eval_jet(e, pts, 1)
    expected = eval_scalar(d, pts)
    assert np.allclose(jets.partial("u"), expected, rtol=1e-12)


def test_diff_commutes():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.5, 1.5, (4, 4))
    for _ in range(50):
        e = random_expr(rng, depth=4)
        duv = diff_expr(diff_expr(e, "u"), "v")
        dvu = diff_expr(diff_expr(e, "v"), "u")
        try:
            a = eval_scalar(duv, pts)
            b = eval_scalar(dvu, pts)
        except DomainError:
            continue
        scale = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# antiderivatives and zero tests


def test_antideriv_examples():
    x = Var("x")
    e = antideriv_poly(parse_expr("x"), "x")
    assert eval_scalar(e, (0, 0, 2.0, 0)) == pytest.approx(2.0)
    e2 = antideriv_poly(parse_expr("3*x^2 + y"), "x")
    assert eval_scalar(e2, (0, 0, 2.0, 3.0)) == pytest.approx(8.0 + 6.0)
    assert antideriv_poly(Num(0.0), "x") == Num(0.0)
    free = parse_expr("y*exp(x)*exp(-x)")  # free of x once expanded
    assert antideriv_poly(free, "x") == BinOp("*", free, x)


def test_antideriv_inverts_derivative():
    """d/dx of the antiderivative gives the input back, for a fixed case and
    for random polynomials in (x, y) times atoms free of x, each also scaled
    by a factor f far from 1: a small input is not judged by an absolute
    tolerance.  The worst error measured is 1.3e-14 of f max(1, |input|)
    at every f; the bound is 1e-13."""
    exp_y, recip = parse_expr("exp(y)"), parse_expr("1/(1 + y^2)")
    cases = [parse_expr("3*x^2*y + exp(y)*x + 2")]
    for seed in range(20):
        p0, p1, p2 = random_polys(seed, 4, ("x", "y"), 3)
        cases.append(p0 + p1 * exp_y + p2 * recip)
    pts = np.random.default_rng(1).uniform(0.5, 1.5, (6, 4))
    for factor in (1.0, 1e-11, 1e-30, 1e20):
        for e in cases:
            want = eval_scalar(e, pts)
            back = eval_scalar(diff_expr(antideriv_poly(Num(factor) * e, "x"), "x"), pts)
            assert np.all(np.abs(back - factor * want) <= 1e-13 * factor * np.maximum(1.0, np.abs(want))), factor


def test_antideriv_differentiates_once(monkeypatch):
    """The antiderivative integrates the monomials of one expansion; it
    differentiates only to tell whether the input is free of the coordinate."""
    import nullplane.exprkit.calculus as calculus

    calls = []
    diff = calculus.diff_expr
    monkeypatch.setattr(calculus, "diff_expr", lambda e, var: calls.append(var) or diff(e, var))
    poly = random_polys(7, 4, ("u", "v", "x", "y"), 1)[0]  # 70 terms
    antideriv_poly(poly, "x")
    assert len(calls) <= 1


def test_antideriv_rejects_nonpolynomial():
    for text in ("exp(x)", "1/x", "exp(x*y)", "1/(x + y)", "(1 + x)^-2"):
        with pytest.raises(NotPolynomial):
            antideriv_poly(parse_expr(text), "x")


def test_zero_and_dependence_checks():
    assert is_zero_expr(parse_expr("u*v - v*u"))
    assert not is_zero_expr(parse_expr("u - v"))
    assert depends_on(parse_expr("exp(4*x)*u"), "x")
    assert not depends_on(parse_expr("exp(4*x)*u"), "v")
    assert not depends_on(BinOp("*", Num(0.0), Var("u")), "u")


# ---------------------------------------------------------------------------
# finite differences


def test_fd_known_values():
    assert fd_derivative(parse_expr("u^2"), (1.0, 0, 0, 0), "u") == pytest.approx(2.0, abs=1e-6)
    assert fd_derivative(parse_expr("u*v"), (1.0, 1.0, 0, 0), "uv") == pytest.approx(1.0, abs=1e-5)
    assert fd_derivative(parse_expr("1/v"), (0, 2.0, 0, 0), "v") == pytest.approx(-0.25, abs=1e-6)


def test_fd_rejects_high_order():
    with pytest.raises(ValueError):
        fd_derivative(parse_expr("u"), P0, (2, 2, 0, 0))
    with pytest.raises(ValueError):
        fd_derivative(parse_expr("u"), P0, "u", step=0.0)


def test_jets_match_fd_small_corpus():
    rng = np.random.default_rng(77)
    indices = [(1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 1, 0), (0, 0, 3, 0), (2, 0, 0, 1)]
    accepted = 0
    while accepted < 40:
        e = random_expr(rng, depth=4)
        p = rng.uniform(0.5, 1.5, 4)
        try:
            jet = eval_jet(e, p, order=3)
            if np.max(np.abs(jet.coeffs)) > 1e2:
                continue
            fd = [fd_derivative(e, p, idx) for idx in indices]
        except DomainError:
            continue
        accepted += 1
        scale = max(1.0, float(np.max(np.abs(jet.coeffs))))
        for idx, fval in zip(indices, fd):
            assert abs(jet.partial(idx) - fval) <= 2e-5 * scale
