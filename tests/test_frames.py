import numpy as np
import pytest

from nullplane.errors import DegenerateParam, DomainError, KindError, RankDeficient
from nullplane.exprkit import Num, eval_scalar, parse_expr, u, v, x, y
from nullplane.frames import (
    Distribution,
    ProjParam,
    alpha_dist,
    autoparallel_residual,
    beta_dist,
    dist_D,
    dist_H,
    frobenius_residual,
    metric_pairings,
    parallel_residual,
    tetrad_max_defect,
    walker_tetrad,
)
from nullplane.tensor import MetricSpec, curvature, metric_jet
from nullplane.weylalg import ricci_null_residual
from conftest import sample_box

PTS = sample_box(200, 10)
T01 = ProjParam.of(0, 1)
T10 = ProjParam.of(1, 0)


def _span_matrix(dist, pts):
    return np.stack([[eval_scalar(c, pts) for c in gen] for gen in dist.generators])


def _same_span(dist_a, vectors, pts):
    """The distribution's generators and the reference vectors span the
    same subspace at every point (rank does not grow when combined)."""
    va = _span_matrix(dist_a, pts)
    vb = np.stack([[eval_scalar(comp, pts) for comp in gen] for gen in vectors])
    k = va.shape[0]
    for p in range(pts.shape[0]):
        combined = np.concatenate([va[:, :, p], vb[:, :, p]], axis=0)
        sv = np.linalg.svd(combined, compute_uv=False)
        rank = int(np.sum(sv > 1e-9 * sv[0]))
        assert rank == k
    return True


# ---------------------------------------------------------------------------
# tetrad


def test_tetrad_layout_flat():
    tet = walker_tetrad(MetricSpec.walker(0, 0, 0))
    assert [eval_scalar(c, PTS[0]) for c in tet.l] == [1.0, 0.0, 0.0, 0.0]
    assert [eval_scalar(c, PTS[0]) for c in tet.mt] == [0.0, 1.0, 0.0, 0.0]
    assert [eval_scalar(c, PTS[0]) for c in tet.n] == [0.0, 0.0, 1.0, 0.0]
    assert [eval_scalar(c, PTS[0]) for c in tet.m] == [0.0, 0.0, 0.0, -1.0]


def test_tetrad_pairings_on_corpus(walker_corpus):
    specs, pts = walker_corpus
    for spec in specs:
        assert tetrad_max_defect(metric_jet(spec, pts), walker_tetrad(spec)) < 1e-12


def test_tetrad_null_components():
    spec = MetricSpec.walker(u**2, v**2, u * v)
    gram = metric_pairings(spec, list(walker_tetrad(spec).vectors().values()), (1.0, 1.0, 1.0, 1.0))
    assert abs(gram[1, 1]) < 1e-12  # g(n, n)
    assert abs(gram[2, 2]) < 1e-12  # g(m, m)


def test_conformal_tetrad_normalized():
    a = parse_expr("u^4/(3*v^2)")
    c = parse_expr("2*u^3/(3*v)")
    b = parse_expr("u^2")
    h = MetricSpec.conformal_walker(parse_expr("1/v"), a, b, c)
    assert tetrad_max_defect(metric_jet(h, PTS), walker_tetrad(h)) < 1e-12


def test_tetrad_requires_walker_kind():
    general = MetricSpec.general([[Num(0.0)] * 4 for _ in range(4)])
    with pytest.raises(KindError):
        walker_tetrad(general)


@pytest.mark.parametrize("chi", [0.0, -0.0])
def test_conformal_tetrad_of_constant_zero_chi(chi):
    """The walker tetrad divides by chi: a constant zero is a DomainError
    that names chi, not a bare ZeroDivisionError."""
    with pytest.raises(DomainError, match="chi"):
        walker_tetrad(MetricSpec.conformal_walker(Num(chi), u**2, v**2, u))


# ---------------------------------------------------------------------------
# distribution spans


def test_alpha_10_is_z():
    tet = walker_tetrad(MetricSpec.walker(u**2, v**2, u))
    z = alpha_dist(T10, tet)
    du = (Num(1.0), Num(0.0), Num(0.0), Num(0.0))
    dv = (Num(0.0), Num(1.0), Num(0.0), Num(0.0))
    _same_span(z, (du, dv), PTS)


def test_beta_01_span():
    spec = MetricSpec.walker(u**2, v**2, u)
    tet = walker_tetrad(spec)
    w = beta_dist(T01, tet)
    from nullplane.exprkit.calculus import mul_, neg_

    dv = (Num(0.0), Num(1.0), Num(0.0), Num(0.0))
    second = (neg_(mul_(Num(0.5), spec.a)), Num(0.0), Num(1.0), Num(0.0))  # d_x - a/2 d_u mod d_v
    _same_span(w, (dv, second), PTS)


def test_beta_10_span():
    spec = MetricSpec.walker(u**2, v**2, u)
    tet = walker_tetrad(spec)
    w = beta_dist(T10, tet)
    from nullplane.exprkit.calculus import mul_, neg_

    du = (Num(1.0), Num(0.0), Num(0.0), Num(0.0))
    second = (Num(0.0), neg_(mul_(Num(0.5), spec.b)), Num(0.0), Num(1.0))  # d_y - b/2 d_v
    _same_span(w, (du, second), PTS)


def test_dist_d_and_h_spans():
    spec = MetricSpec.walker(u**2, v**2, u)
    tet = walker_tetrad(spec)
    d01 = dist_D(T01, tet)
    dv = (Num(0.0), Num(1.0), Num(0.0), Num(0.0))
    _same_span(d01, (dv,), PTS)
    d10 = dist_D(T10, tet)
    du = (Num(1.0), Num(0.0), Num(0.0), Num(0.0))
    _same_span(d10, (du,), PTS)
    h01 = dist_H(T01, tet)
    dx = (Num(0.0), Num(0.0), Num(1.0), Num(0.0))
    _same_span(h01, (du, dv, dx), PTS)


def test_dist_h_t_field_uv():
    spec = MetricSpec.walker(u**2, v**2, u)
    tet = walker_tetrad(spec)
    h = dist_H(ProjParam.of(u, v), tet)
    du = (Num(1.0), Num(0.0), Num(0.0), Num(0.0))
    dv = (Num(0.0), Num(1.0), Num(0.0), Num(0.0))
    from nullplane.exprkit.calculus import neg_

    third = (Num(0.0), Num(0.0), v, neg_(u))  # v d_x - u d_y
    _same_span(h, (du, dv, third), PTS)


def test_h_is_orthogonal_complement_of_d(walker_corpus):
    specs, pts = walker_corpus
    t = ProjParam.of(u, v)
    for spec in specs[:5]:
        tet = walker_tetrad(spec)
        d = dist_D(t, tet)
        h = dist_H(t, tet)
        gram = metric_pairings(spec, list(d.generators) + list(h.generators), pts)
        assert np.max(np.abs(gram[0, 1:])) < 1e-10


def test_d_equals_z_meet_beta(walker_corpus):
    specs, pts = walker_corpus
    spec = specs[0]
    tet = walker_tetrad(spec)
    t = ProjParam.of(u, v)
    d = dist_D(t, tet)
    z = alpha_dist(T10, tet)
    w = beta_dist(t, tet)
    # D's generator lies in both spans
    for container in (z, w):
        vals = _span_matrix(container, pts)
        dvals = _span_matrix(d, pts)
        for p in range(pts.shape[0]):
            combined = np.concatenate([vals[:, :, p], dvals[:, :, p]], axis=0)
            sv = np.linalg.svd(combined, compute_uv=False)
            assert int(np.sum(sv > 1e-9 * sv[0])) == 2


def test_totally_null_random_parameters(walker_corpus):
    specs, pts = walker_corpus
    rng = np.random.default_rng(17)
    spec = specs[1]
    tet = walker_tetrad(spec)
    for _ in range(20):
        t = ProjParam.of(round(float(rng.uniform(-2, 2)), 3), round(float(rng.uniform(-2, 2)), 3))
        try:
            t.values(pts)
        except DegenerateParam:
            continue
        for dist in (alpha_dist(t, tet), beta_dist(t, tet)):
            assert np.max(np.abs(metric_pairings(spec, dist.generators, pts))) < 1e-10


def test_degenerate_param():
    with pytest.raises(DegenerateParam):
        ProjParam.of(0, 0).values(PTS)
    # parameters that vanish somewhere in the box
    with pytest.raises(DegenerateParam):
        ProjParam.of(parse_expr("u - 1"), parse_expr("0")).values(np.array([[1.0, 1, 1, 1]]))


def test_degenerate_param_names_point():
    pts = np.array([[2.0, 0.5, 0.75, 1.25], [1.0, 0.5, 0.75, 1.25]])
    with pytest.raises(DegenerateParam, match=r"\[at point \[1\.0, 0\.5, 0\.75, 1\.25\]\]"):
        ProjParam.of(parse_expr("u - 1"), parse_expr("0")).values(pts)


# ---------------------------------------------------------------------------
# residuals


def test_coordinate_span_integrable():
    dist = Distribution(
        "coords", ((Num(1.0), Num(0.0), Num(0.0), Num(0.0)), (Num(0.0), Num(1.0), Num(0.0), Num(0.0)), (Num(0.0), Num(0.0), Num(1.0), Num(0.0)))
    )
    assert np.max(frobenius_residual(dist, PTS)) == 0.0


def test_frobenius_hand_oracle():
    spec = MetricSpec.walker(v, Num(0.0), Num(0.0))
    w = beta_dist(T01, walker_tetrad(spec))
    res = frobenius_residual(w, (1.0, 1.0, 1.0, 1.0))
    assert res > 0.1


def test_reference_h_not_integrable():
    a = parse_expr("u^4/(3*v^2)")
    c = parse_expr("2*u^3/(3*v)")
    b = parse_expr("u^2")
    spec = MetricSpec.walker(a, b, c)
    h = dist_H(ProjParam.of(u, v), walker_tetrad(spec))
    assert frobenius_residual(h, (1.0, 1.0, 1.0, 1.0)) > 1e-3


def test_autoparallel_cases(walker_corpus):
    specs, pts = walker_corpus
    for spec in specs[:4]:
        tet = walker_tetrad(spec)
        # D of the (0:1) family and Z are auto-parallel for any walker metric
        assert np.max(autoparallel_residual(spec, dist_D(T01, tet), pts)) < 1e-9
        assert np.max(autoparallel_residual(spec, alpha_dist(T10, tet), pts)) < 1e-9


def test_autoparallel_hand_oracle_flat():
    flat = MetricSpec.walker(0, 0, 0)
    dist = Distribution("probe", ((u, Num(0.0), Num(1.0), Num(0.0)),))
    assert autoparallel_residual(flat, dist, (1.0, 0.5, 0.5, 0.5)) > 0.1


def test_parallel_z_walker_theorem():
    for seed in range(50):
        from nullplane.families import random_polys

        a, b, c = random_polys(40_000 + seed, 2, ("u", "v", "x", "y"), 3)
        spec = MetricSpec.walker(a, b, c)
        z = alpha_dist(T10, walker_tetrad(spec))
        assert np.max(parallel_residual(spec, z, PTS[:4])) < 1e-9


def test_parallel_two_sided_and_mutation():
    from nullplane.families import random_polys

    a, c = random_polys(41_000, 2, ("u", "x", "y"), 2)
    b = random_polys(41_001, 2, ("u", "v", "x", "y"), 1)[0]
    spec = MetricSpec.walker(a, b, c)
    w = beta_dist(T01, walker_tetrad(spec))
    assert np.max(parallel_residual(spec, w, PTS)) < 1e-9
    from nullplane.exprkit.calculus import add_

    mutated = MetricSpec.walker(a, b, add_(c, v))
    w2 = beta_dist(T01, walker_tetrad(mutated))
    assert np.min(parallel_residual(mutated, w2, PTS)) > 1e-3


def test_parallel_implies_autoparallel_implies_frobenius(walker_corpus):
    specs, pts = walker_corpus
    tol = 1e-7
    for spec in specs:
        tet = walker_tetrad(spec)
        for dist in (alpha_dist(T10, tet), beta_dist(T01, tet), dist_D(T01, tet)):
            par = np.max(parallel_residual(spec, dist, pts))
            if par < tol:
                assert np.max(autoparallel_residual(spec, dist, pts)) < tol
                assert np.max(frobenius_residual(dist, pts)) < tol


def test_scale_invariance(walker_corpus):
    specs, pts = walker_corpus
    spec = specs[2]
    tet = walker_tetrad(spec)
    sigma = parse_expr("exp(x/5) + 1")
    from nullplane.exprkit.calculus import mul_

    t_plain = ProjParam.of(u, v)
    t_scaled = ProjParam(mul_(sigma, u), mul_(sigma, v))
    for maker in (alpha_dist, beta_dist, dist_D, dist_H):
        d1, d2 = maker(t_plain, tet), maker(t_scaled, tet)
        assert np.max(np.abs(frobenius_residual(d1, pts) - frobenius_residual(d2, pts))) < 1e-10
        assert np.max(np.abs(autoparallel_residual(spec, d1, pts) - autoparallel_residual(spec, d2, pts))) < 1e-10
        assert np.max(np.abs(parallel_residual(spec, d1, pts) - parallel_residual(spec, d2, pts))) < 1e-10


def test_rank_deficient_raises():
    dup = Distribution("dup", ((u, Num(0.0), Num(0.0), Num(0.0)), (u, Num(0.0), Num(0.0), Num(0.0))))
    with pytest.raises(RankDeficient):
        frobenius_residual(dup, PTS[:2])


def test_rank_deficient_names_point():
    """Both rank checks (residuals and the Ricci restriction) name the first
    deficient point by its coordinates, not by a chunk-local index."""
    pts = np.array([[2.0, 0.5, 0.75, 1.25], [1.0, 0.5, 0.75, 1.25], [1.5, 0.5, 0.75, 1.25]])
    one = Num(1.0)
    zero = Num(0.0)
    dist = Distribution("drops", ((one, zero, zero, zero), (zero, parse_expr("u - 1"), zero, zero)))
    where = r"\[at point \[1\.0, 0\.5, 0\.75, 1\.25\]\]$"
    with pytest.raises(RankDeficient, match=where):
        frobenius_residual(dist, pts)
    with pytest.raises(RankDeficient, match=where):
        parallel_residual(MetricSpec.walker(u**2, v**2, u), dist, pts)
    pack = curvature(metric_jet(MetricSpec.walker(u**2, v**2, u), pts))
    with pytest.raises(RankDeficient, match=where):
        ricci_null_residual(pack, dist)
