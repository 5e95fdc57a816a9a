import copy
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from nullplane.errors import CalibrationFailure, KindError
from nullplane.exprkit import BinOp, Call, Neg, Num, Pow, Var, eval_scalar, parse_expr, u, v, x, y
from nullplane.families import mk_cp_example
from nullplane.frames import Frame, ProjParam, Tetrad, alpha_dist, walker_tetrad
from nullplane.lab import load_spec_file
from nullplane.tensor import MetricSpec, conformal_rescale, curvature, metric_jet, volume_and_duals, weyl_split
from nullplane.weylalg import (
    _REF_FLOOR,
    ROOT_KINDS,
    QuarticForm,
    RootEntry,
    RootList,
    calibrate_kappa,
    default_kappa,
    einstein_residual,
    obstruction_residual,
    ricci_null_residual,
    root_structure,
    rps_discriminant,
    weyl_quartic,
)
from conftest import GENERAL_SPEC, sample_box

PTS = sample_box(300, 8)
T10 = ProjParam.of(1, 0)


def _reference_spec():
    return MetricSpec.walker(
        parse_expr("exp(4*x*y)*u^4/(3*v^2) + 4*u*y"),
        parse_expr("exp(4*x*y)*u^2 + 2*v*x"),
        parse_expr("2*exp(4*x*y)*u^3/(3*v) + 2*u*x"),
    )


# ---------------------------------------------------------------------------
# quartic extraction


def test_flat_quartics_type_o():
    spec = MetricSpec.walker(0, 0, 0)
    pack = curvature(metric_jet(spec, PTS))
    tet = walker_tetrad(spec)
    for q in weyl_quartic(pack, tet).values():
        assert all(rl.type_string == "O" for rl in root_structure(q))


def test_quartic_value_matches_plane_pairing(walker_corpus):
    """q(tau) equals the Weyl pairing of the plane bivector with itself."""
    specs, pts = walker_corpus
    spec = specs[0]
    pack = curvature(metric_jet(spec, pts))
    tet = walker_tetrad(spec)
    vecs = {k: np.stack([eval_scalar(c, pts) for c in comps]) for k, comps in tet.vectors().items()}
    cvals = pack.weyl_val

    def wedge(a_, b_):
        o = np.einsum("ip,jp->pij", a_, b_)
        return o - o.transpose(0, 2, 1)

    forms = weyl_quartic(pack, tet)
    for side in ("SD", "ASD"):
        for tau in (0.0, 0.7, -1.3):
            if side == "SD":
                gen1 = vecs["l"] + tau * vecs["m"]
                gen2 = vecs["mt"] + tau * vecs["n"]
            else:
                gen1 = vecs["l"] + tau * vecs["mt"]
                gen2 = vecs["m"] + tau * vecs["n"]
            biv = wedge(gen1, gen2)
            direct = np.einsum("pabcd,pab,pcd->p", cvals, biv, biv)
            from_coeffs = np.polyval(forms[side].coeffs.T[::-1], tau)
            scale = max(np.max(np.abs(direct)), 1e-30)
            assert np.max(np.abs(direct - from_coeffs)) < 1e-9 * scale


def test_quartic_purity(walker_corpus):
    """Quartic from the full Weyl tensor equals the quartic from the
    matching duality eigenpart; the opposite part contributes nothing."""
    specs, pts = walker_corpus
    for spec in specs[:3]:
        mj = metric_jet(spec, pts)
        pack = curvature(mj)
        dual = volume_and_duals(mj, walker_tetrad(spec))
        cp, cm = weyl_split(pack, dual)
        for side, part in (("SD", cp), ("ASD", cm)):
            pack_part = copy.copy(pack)
            pack_part.weyl = np.moveaxis(part, 0, -1)  # values, the point axis last
            full = weyl_quartic(pack, walker_tetrad(spec))[side]
            from_part = weyl_quartic(pack_part, walker_tetrad(spec))[side]
            defect = np.max(np.abs(full.coeffs - from_part.coeffs), axis=1)
            assert np.all(defect < 1e-9 * np.maximum(full.scale, 1e-30))


def test_asd_quartic_zero_iff_asd_weyl_zero(walker_corpus):
    specs, pts = walker_corpus
    # direction 1: a self-dual instance has ASD quartic type O everywhere
    from nullplane.families import mk_sd2015, random_polys

    inst = mk_sd2015(*random_polys(50_000, 2, ("x", "y"), 15))
    mj = metric_jet(inst.spec, pts)
    pack = curvature(mj)
    dual = volume_and_duals(mj, walker_tetrad(inst.spec))
    _, cm = weyl_split(pack, dual)
    assert np.max(np.abs(cm)) < 1e-7 * np.max(np.abs(pack.weyl_val))
    assert all(rl.type_string == "O" for rl in root_structure(weyl_quartic(pack, walker_tetrad(inst.spec))["ASD"]))
    # direction 2: a generic instance has nonzero ASD part and non-O quartic
    spec = specs[0]
    mj2 = metric_jet(spec, pts)
    pack2 = curvature(mj2)
    dual2 = volume_and_duals(mj2, walker_tetrad(spec))
    _, cm2 = weyl_split(pack2, dual2)
    assert np.max(np.abs(cm2)) > 1e-3 * np.max(np.abs(pack2.weyl_val))
    assert any(rl.type_string != "O" for rl in root_structure(weyl_quartic(pack2, walker_tetrad(spec))["ASD"]))


def test_coefficient_vanishing_implications():
    from nullplane.families import random_polys

    pts = PTS
    a_u = random_polys(51_000, 2, ("u", "x", "y"), 1)[0]
    b_any, c_any = random_polys(51_001, 2, ("u", "v", "x", "y"), 2)
    spec = MetricSpec.walker(a_u, b_any, c_any)
    q = weyl_quartic(curvature(metric_jet(spec, pts)), walker_tetrad(spec))["ASD"]
    assert np.all(np.abs(q.coeffs[:, 4]) < 1e-9 * np.maximum(q.scale, 1e-30))
    c_u = random_polys(51_002, 2, ("u", "x", "y"), 1)[0]
    spec2 = MetricSpec.walker(a_u, b_any, c_u)
    q2 = weyl_quartic(curvature(metric_jet(spec2, pts)), walker_tetrad(spec2))["ASD"]
    assert np.all(np.max(np.abs(q2.coeffs[:, 3:]), axis=1) < 1e-9 * np.maximum(q2.scale, 1e-30))


def _reference_ref_scale(pack, tet) -> np.ndarray:
    """The largest Weyl pairing over both sides' bivector bases, one einsum
    on values per pairing."""
    bases = Frame.of(tet, pack.points).bases
    ref = np.zeros(pack.points.shape[0])
    for side in ("SD", "ASD"):
        basis_vals = bases[side]
        for i in range(3):
            for j in range(i, 3):
                g = np.einsum("pabcd,abp,cdp->p", pack.weyl_val, basis_vals[i], basis_vals[j])
                ref = np.maximum(ref, np.abs(g))
    return ref


def test_ref_scale_is_the_largest_pairing_of_both_sides(walker_corpus, tmp_path):
    """On the walker corpus, the cp pair g and h, and a general-kind spec
    with its own tetrad."""
    specs, pts = walker_corpus
    cases = [(spec, walker_tetrad(spec)) for spec in specs]
    g_inst, h_inst, _ = mk_cp_example(x * y)
    cases += [(inst.spec, walker_tetrad(inst.spec)) for inst in (g_inst, h_inst)]
    path = tmp_path / "general.ini"
    path.write_text(GENERAL_SPEC)
    general = load_spec_file(str(path))
    cases.append((general.spec, general.tetrad))
    for spec, tet in cases:
        pack = curvature(metric_jet(spec, pts))
        forms = weyl_quartic(pack, tet)
        want = _reference_ref_scale(pack, tet)
        assert np.max(want) > 0.0
        for side in ("SD", "ASD"):
            np.testing.assert_allclose(forms[side].ref_scale, want, rtol=1e-12, atol=0.0)


def test_weyl_quartic_batch_and_single_point_shapes():
    spec = _reference_spec()
    tet = walker_tetrad(spec)
    batch = weyl_quartic(curvature(metric_jet(spec, PTS)), tet)
    assert list(batch) == ["SD", "ASD"]
    for side, q in batch.items():
        assert q.side == side
        assert q.coeffs.shape == (8, 5) and q.ref_scale.shape == (8,)
        assert np.array_equal(q.scale, np.max(np.abs(q.coeffs), axis=1))
        lone = weyl_quartic(curvature(metric_jet(spec, PTS[0])), tet)[side]
        assert lone.coeffs.shape == (5,) and np.ndim(lone.ref_scale) == 0
        np.testing.assert_allclose(lone.coeffs, q.coeffs[0], rtol=1e-12, atol=1e-12 * float(q.scale[0]))


def test_single_point_without_the_point_axis_matches_a_one_point_batch():
    """A point given as (4,) gives the pack values and the quartic forms of
    the batch (1, 4) holding it, bit for bit; the forms drop the point axis."""
    spec = _reference_spec()
    tet = walker_tetrad(spec)
    lone_pack = curvature(metric_jet(spec, PTS[3]))
    row_pack = curvature(metric_jet(spec, PTS[3:4]))
    assert lone_pack.mj.single and not row_pack.mj.single
    assert lone_pack.scalar_val.shape == (1,) and lone_pack.weyl_val.shape == (1, 4, 4, 4, 4)
    assert np.array_equal(lone_pack.scalar_val, row_pack.scalar_val)
    assert np.array_equal(lone_pack.weyl_val, row_pack.weyl_val)
    lone, row = weyl_quartic(lone_pack, tet), weyl_quartic(row_pack, tet)
    for side in ("SD", "ASD"):
        assert lone[side].coeffs.shape == (5,) and np.ndim(lone[side].ref_scale) == 0
        assert np.array_equal(lone[side].coeffs, row[side].coeffs[0])
        assert lone[side].ref_scale == row[side].ref_scale[0]
        assert root_structure(lone[side]) == root_structure(row[side])[0]


# ---------------------------------------------------------------------------
# root structure


def _form(coeffs, ref=10.0):
    return QuarticForm("ASD", np.asarray(coeffs, dtype=float), ref)


def _batch(forms: list) -> QuarticForm:
    """One batched form of single-point forms."""
    coeffs = np.array([f.coeffs for f in forms]).reshape(-1, 5)
    return QuarticForm("ASD", coeffs, np.array([f.ref_scale for f in forms]))


def test_root_structure_constructed():
    rl = root_structure(_form([-6.0, 13.0, -7.0, -1.0, 1.0]))
    assert rl.type_string == "{211}"
    values = sorted(e.value.real for e in rl.entries)
    assert values == pytest.approx([-3.0, 1.0, 2.0], abs=1e-8)
    double = [e for e in rl.entries if e.multiplicity == 2][0]
    assert double.value.real == pytest.approx(1.0, abs=1e-6)


def test_root_structure_infinity():
    rl = root_structure(_form([0.0, 0.0, 0.0, 1.0, 0.0]))
    assert rl.type_string == "{31}"
    kinds = {e.kind: e.multiplicity for e in rl.entries}
    assert kinds["inf"] == 1 and kinds["real"] == 3


def test_root_structure_complex_pairs():
    rl = root_structure(_form([1.0, 0.0, 2.0, 0.0, 1.0]))  # (t^2+1)^2
    assert rl.type_string == "{22}"
    entry = rl.entries[0]
    assert entry.kind == "complex_pair" and entry.value.imag == pytest.approx(1.0, abs=1e-8)


def test_root_structure_zero_form_marker():
    assert root_structure(_form([0.0] * 5)).type_string == "O"
    # tiny coefficients relative to a large curvature reference are zero
    assert root_structure(_form([1e-10, 0, 0, 0, 1e-11], ref=1.0)).type_string == "O"


def test_root_multiplicities_sum():
    rng = np.random.default_rng(6)
    for _ in range(50):
        rl = root_structure(_form(rng.uniform(-2, 2, 5)))
        assert sum(rl.multiplicities()) == 4


def test_reference_roots():
    spec = _reference_spec()
    pack = curvature(metric_jet(spec, PTS))
    tet = walker_tetrad(spec)
    roots_sd, roots_asd = (root_structure(q) for q in weyl_quartic(pack, tet).values())
    for p, (rs, ra) in enumerate(zip(roots_sd, roots_asd)):
        assert rs.type_string == "{4}"
        assert abs(rs.entries[0].value) < 1e-3
        assert ra.type_string == "{4}"
        expected = PTS[p, 1] / PTS[p, 0]
        assert ra.entries[0].value.real == pytest.approx(expected, rel=1e-3)


def test_root_invariance_under_rescaling():
    spec = _reference_spec()
    chi = parse_expr("exp(x/4)")
    rescaled = conformal_rescale(spec, chi)
    tet = walker_tetrad(spec)
    from nullplane.exprkit.calculus import div_

    tet_r = Tetrad(**{k: tuple(div_(c, chi) for c in vec) for k, vec in tet.vectors().items()})
    pack = curvature(metric_jet(spec, PTS))
    pack_r = curvature(metric_jet(rescaled, PTS))
    roots = root_structure(weyl_quartic(pack, tet)["ASD"])
    roots_r = root_structure(weyl_quartic(pack_r, tet_r)["ASD"])
    for r1, r2 in zip(roots, roots_r):
        assert r1.type_string == r2.type_string
        assert r1.entries[0].value.real == pytest.approx(r2.entries[0].value.real, rel=1e-6)


def test_conformal_law_on_the_whole_quartic():
    """Metamorphic oracle: a conformal_walker chi^2 g and its walker part g,
    each with its own tetrad, at the same points.  The lowered Weyl tensor
    scales by chi^2 and each bivector of the tetrad divided by chi by
    chi^-2, so chi^2 c_k(chi^2 g) = c_k(g) for every coefficient on both
    sides, and the root types agree."""
    from nullplane.families import random_polys

    chi = parse_expr("exp(0.3*u - 0.2*x*y + 0.1*v)")
    for i in range(8):
        a, b, c = random_polys(74_000 + i, 2, ("u", "v", "x", "y"), 3)
        g, h = MetricSpec.walker(a, b, c), MetricSpec.conformal_walker(chi, a, b, c)
        pts = sample_box(74_100 + i, 100)
        chi2 = eval_scalar(chi, pts) ** 2
        forms_g = weyl_quartic(curvature(metric_jet(g, pts)), walker_tetrad(g))
        forms_h = weyl_quartic(curvature(metric_jet(h, pts)), walker_tetrad(h))
        for side in ("SD", "ASD"):
            want, got = forms_g[side], forms_h[side]
            defect = np.max(np.abs(chi2[:, None] * got.coeffs - want.coeffs), axis=1)
            assert np.all(defect <= 1e-10 * want.scale), (i, side)
            assert np.array_equal(root_structure(got).type_code, root_structure(want).type_code), (i, side)


_RELABEL = {"u": v, "v": u, "x": y, "y": x}


def _substituted(e, image):
    """e with each coordinate replaced by its expression in image, walking
    the tree (a string replacement would rename the y in exp)."""
    if isinstance(e, Var):
        return image[e.name]
    if isinstance(e, Neg):
        return Neg(_substituted(e.arg, image))
    if isinstance(e, BinOp):
        return BinOp(e.op, _substituted(e.lhs, image), _substituted(e.rhs, image))
    if isinstance(e, Pow):
        return Pow(_substituted(e.base, image), e.exponent)
    if isinstance(e, Call):
        return Call(e.func, _substituted(e.arg, image))
    return e


def test_relabelling_law_on_the_whole_quartic():
    """Metamorphic oracle: sigma swaps u <-> v and x <-> y, which keeps the
    walker form and exchanges a and b, and reverses the orientation.  So
    g' = walker(sigma b, sigma a, sigma c) at the relabelled points has the
    same S, its SD coefficients are c_k(g) = (-1)^k c_k(g'), its ASD ones
    c_k(g) = c_{4-k}(g'), and its root types are the same.  Run on random
    walkers and on the constructed families."""
    from nullplane.families import (
        mk_left_flat,
        mk_sd2015,
        mk_sd_two_sided,
        mk_two_sided,
        random_polys,
    )

    specs = [MetricSpec.walker(*random_polys(76_000 + i, 2, ("u", "v", "x", "y"), 3)) for i in range(8)]
    a, c = random_polys(76_100, 2, ("u", "x", "y"), 2)
    specs += [
        mk_sd2015(*random_polys(76_200, 2, ("x", "y"), 13)).spec,
        mk_sd_two_sided(*random_polys(76_300, 2, ("x", "y"), 9)).spec,
        mk_two_sided(a, random_polys(76_400, 2, ("u", "v", "x", "y"), 1)[0], c).spec,
        mk_left_flat(X=x * y, Y=x + y**2, K5=x, K6=y, K7=x * y).spec,
        mk_cp_example(x * y)[0].spec,
    ]
    signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    for i, g in enumerate(specs):
        h = MetricSpec.walker(*(_substituted(e, _RELABEL) for e in (g.b, g.a, g.c)))
        pts = sample_box(76_500 + i, 100)
        pack_g, pack_h = curvature(metric_jet(g, pts)), curvature(metric_jet(h, pts[:, [1, 0, 3, 2]]))
        assert np.all(np.abs(pack_h.scalar_val - pack_g.scalar_val) <= 1e-12 * pack_g.riemann_scale()), i
        forms_g = weyl_quartic(pack_g, walker_tetrad(g))
        forms_h = weyl_quartic(pack_h, walker_tetrad(h))
        for side, law in (("SD", signs * forms_h["SD"].coeffs), ("ASD", forms_h["ASD"].coeffs[:, ::-1])):
            want = forms_g[side]
            defect = np.max(np.abs(law - want.coeffs), axis=1)
            assert np.all(defect <= 1e-10 * np.maximum(want.scale, want.ref_scale)), (i, side)
            got = root_structure(forms_h[side]).type_code
            assert np.array_equal(got, root_structure(want).type_code), (i, side)


def test_pullback_law_on_the_whole_quartic():
    """Metamorphic oracle for the general kind: a random walker g pulled
    back by x = A x' + b, with A = I + 0.3 N(0, 1), is the general spec
    g'(x') = A^T g(A x' + b) A, whose 16 cofactors are all nontrivial, and
    the walker tetrad pushed forward by A^-1 is a tetrad of g'.  S and the
    frame components of the Weyl tensor are scalars, so at x' the general
    path must give the walker's S, both quartics' coefficients and their
    root types at A x' + b.  Measured worst: S 2.1e-12 of the Riemann
    scale, SD 1.9e-12 and ASD 2.0e-12 of the form's scale."""
    from nullplane.exprkit import COORDS
    from nullplane.families import random_polys

    def total(terms):
        return sum(terms, Num(0.0))

    rng = np.random.default_rng(77_000)
    for i in range(8):
        g = MetricSpec.walker(*random_polys(77_100 + i, 2, COORDS, 3))
        A = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
        shift = rng.uniform(-0.2, 0.2, 4)
        a_inv = np.linalg.inv(A)
        image = {
            name: total([float(shift[k])] + [float(A[k, j]) * Var(c) for j, c in enumerate(COORDS)])
            for k, name in enumerate(COORDS)
        }
        rows = [[_substituted(e, image) for e in row] for row in g.component_exprs()]
        nonzero = [(k, l) for k in range(4) for l in range(4) if rows[k][l] != Num(0.0)]
        h = MetricSpec.general(
            [[total(float(A[k, p] * A[l, q]) * rows[k][l] for k, l in nonzero) for q in range(4)] for p in range(4)]
        )
        tet_g = walker_tetrad(g)
        tet_h = Tetrad(
            **{
                name: tuple(total(float(a_inv[j, k]) * _substituted(vec[k], image) for k in range(4)) for j in range(4))
                for name, vec in tet_g.vectors().items()
            }
        )
        pts = sample_box(77_200 + i, 20)
        pack_g, pack_h = curvature(metric_jet(g, pts)), curvature(metric_jet(h, (pts - shift) @ a_inv.T))
        assert np.all(np.abs(pack_h.scalar_val - pack_g.scalar_val) <= 1e-11 * pack_g.riemann_scale()), i
        forms_g, forms_h = weyl_quartic(pack_g, tet_g), weyl_quartic(pack_h, tet_h)
        for side in ("SD", "ASD"):
            want = forms_g[side]
            defect = np.max(np.abs(forms_h[side].coeffs - want.coeffs), axis=1)
            assert np.all(defect <= 1e-11 * np.maximum(want.scale, want.ref_scale)), (i, side)
            got = root_structure(forms_h[side]).type_code
            assert np.array_equal(got, root_structure(want).type_code), (i, side)


# ---------------------------------------------------------------------------
# batched root structure against a per-point reference and an invariant
# classifier


def _reference_cluster_roots(roots: np.ndarray, tol: float):
    remaining = list(roots)
    clusters = []
    while remaining:
        n = len(remaining)
        chosen = None
        for m in range(n, 0, -1):
            radius = tol ** (1.0 / m)
            for combo in combinations(range(n), m):
                group = [remaining[i] for i in combo]
                center = sum(group) / m
                r = radius * max(1.0, abs(center))
                if all(abs(z - center) <= r for z in group):
                    chosen = (combo, center, m, r)
                    break
            if chosen:
                break
        combo, center, m, r = chosen
        clusters.append((center, m, r))
        remaining = [z for i, z in enumerate(remaining) if i not in combo]
    return clusters


def _reference_root_structure(q: QuarticForm, tol: float = 1e-8) -> RootList:
    """The per-point classification: np.roots, then a greedy search over
    subsets of the remaining roots."""
    ref = max(q.ref_scale, _REF_FLOOR)
    if q.scale <= tol * ref:
        return RootList(entries=(), type_string="O")

    c = q.coeffs
    lead = 4
    m_inf = 0
    while lead >= 0 and abs(c[lead]) < tol * q.scale:
        m_inf += 1
        lead -= 1
    entries = []
    if lead >= 1:
        roots = np.roots(c[lead::-1])
        clusters = _reference_cluster_roots(roots, tol)
        complex_clusters = []
        for center, m, r in clusters:
            if abs(center.imag) <= r:
                entries.append(RootEntry("real", complex(center.real, 0.0), m))
            else:
                complex_clusters.append((center, m))
        used = [False] * len(complex_clusters)
        for i, (z, m) in enumerate(complex_clusters):
            if used[i]:
                continue
            used[i] = True
            best, bestd = None, np.inf
            for j in range(i + 1, len(complex_clusters)):
                if used[j] or complex_clusters[j][1] != m:
                    continue
                d = abs(np.conj(z) - complex_clusters[j][0])
                if d < bestd:
                    best, bestd = j, d
            if best is not None:
                used[best] = True
            rep = z if z.imag > 0 else np.conj(z)
            entries.append(RootEntry("complex_pair", complex(rep), m))
    if m_inf:
        entries.append(RootEntry("inf", None, m_inf))

    entries.sort(key=lambda e: (e.kind, -e.multiplicity, abs(e.value) if e.value is not None else 0.0))
    mults = []
    for e in entries:
        mults.extend([e.multiplicity] * (2 if e.kind == "complex_pair" else 1))
    type_string = "{" + "".join(str(m) for m in sorted(mults, reverse=True)) + "}"
    return RootList(entries=tuple(entries), type_string=type_string)


def _seeded_quartics(seed: int, count: int) -> list:
    """Uniform random quartics and quartics from roots of multiplicity 2, 3
    and 4 (real and double complex pairs), with leading coefficients below
    tol, exact-zero trailing coefficients, 1e-13 noise and zero forms."""
    rng = np.random.default_rng(seed)
    forms = []
    for i in range(count):
        kind = i % 10
        if kind == 0:
            c = rng.uniform(-2, 2, 5)
        elif kind in (1, 2, 3):  # one root of multiplicity kind + 1
            r = rng.uniform(-3, 3)
            c = np.poly([r] * (kind + 1) + list(rng.uniform(-3, 3, 3 - kind)))[::-1] * rng.uniform(0.5, 2)
        elif kind == 4:  # two double roots, real or a complex pair
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2) * rng.integers(0, 2))
            w = z.conjugate() if z.imag else rng.uniform(-2, 2)
            c = np.real(np.poly([z, z, w, w]))[::-1].copy()
        elif kind == 5:  # leading coefficients below tol
            c = rng.uniform(-2, 2, 5)
            c[4] = 1e-10 * rng.uniform(-1, 1)
            if rng.uniform() < 0.5:
                c[3] = 1e-11
        elif kind == 6:  # exact-zero trailing coefficients
            c = rng.uniform(-2, 2, 5)
            c[: rng.integers(1, 4)] = 0.0
        elif kind == 7:  # a triple root under noise
            r = rng.uniform(-2, 2)
            c = np.poly([r, r, r, rng.uniform(-2, 2)])[::-1] + 1e-13 * rng.standard_normal(5)
        elif kind == 8:  # a double root under noise, with a root at infinity
            r = rng.uniform(-2, 2)
            c = np.append(np.poly([r, r, rng.uniform(-2, 2)])[::-1], 0.0) + 1e-13 * rng.standard_normal(5)
        else:  # below the zero-form threshold of a larger curvature reference
            c = 1e-10 * rng.uniform(-1, 1, 5)
        c = np.asarray(c, dtype=float)
        forms.append(QuarticForm("ASD", c, float(rng.uniform(0.5, 20.0))))
    return forms


def test_root_structure_batch_matches_per_point_reference():
    """The table's arrays and the RootLists it gives on access both equal
    the per-point reference."""
    forms = _seeded_quartics(7, 6000)
    got = root_structure(_batch(forms))
    want = [_reference_root_structure(f) for f in forms]
    assert len(got) == len(want)
    mismatches = [i for i, (a, b) in enumerate(zip(got, want)) if a != b or repr(a) != repr(b)]
    assert mismatches == []

    def padded(rl, field, fill):
        return [field(e) for e in rl.entries] + [fill] * (4 - len(rl.entries))

    expected = {
        "type_code": [0 if rl.type_string == "O" else int(rl.type_string[1:-1]) for rl in want],
        "kind": [padded(rl, lambda e: ROOT_KINDS.index(e.kind), -1) for rl in want],
        "value": [padded(rl, lambda e: 0j if e.value is None else e.value, 0j) for rl in want],
        "multiplicity": [padded(rl, lambda e: e.multiplicity, 0) for rl in want],
    }
    for name, want_array in expected.items():
        array = getattr(got, name)
        assert array.dtype.kind == ("c" if name == "value" else "i"), name
        rows = np.flatnonzero(np.any(np.reshape(array != np.array(want_array), (len(want), -1)), axis=1))
        assert rows.tolist() == [], name
    assert {rl.type_string for rl in want} == {"O", "{1111}", "{211}", "{22}", "{31}", "{4}"}
    assert root_structure(_batch([])) == []


def test_root_structure_float_division_branch():
    """np.roots returns floats when every eigenvalue is real, and a cluster
    center of floats is a float division; a complex division of the same
    sum rounds this quartic's triple root differently in the last bit."""
    hexes = ["-0x1.1dcf6d1e1f1a5p-4", "0x1.aba252d54cbedp-3", "0x1.d81d446764c59p-2", "-0x1.0f28838d43f3dp+1", "0x1.d6b30f98e2b37p+0"]
    f = _form([float.fromhex(h) for h in hexes])
    want = _reference_root_structure(f)
    assert want.type_string == "{31}"
    assert root_structure(f) == want
    assert root_structure(_batch([f])) == [want]


def test_root_structure_single_form_is_one_element_batch():
    for f in _seeded_quartics(8, 40):
        assert root_structure(_batch([f])) == [root_structure(f)]


def _homogeneous_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _dx(p: list) -> list:  # p[k] multiplies x^k y^(d-k)
    return [k * p[k] for k in range(1, len(p))]


def _dy(p: list) -> list:
    d = len(p) - 1
    return [(d - k) * p[k] for k in range(d)]


def _invariant_type(c: list) -> str:
    """Root type of the nonzero binary quartic f(x, y) = sum_k c_k x^k y^(4-k)
    from its invariants I, J and Hessian H, in exact arithmetic."""
    f = [Fraction(ck) for ck in c]
    a = [f[k] / comb(4, k) for k in range(5)]
    i_inv = a[0] * a[4] - 4 * a[1] * a[3] + 3 * a[2] ** 2
    j_inv = a[0] * a[2] * a[4] + 2 * a[1] * a[2] * a[3] - a[2] ** 3 - a[0] * a[3] ** 2 - a[1] ** 2 * a[4]
    fxy = _dy(_dx(f))
    hessian = [
        s - t for s, t in zip(_homogeneous_mul(_dx(_dx(f)), _dy(_dy(f))), _homogeneous_mul(fxy, fxy))
    ]
    if i_inv**3 != 27 * j_inv**2:
        return "{1111}"
    if i_inv == 0 and j_inv == 0:
        return "{4}" if not any(hessian) else "{31}"
    proportional = all(hessian[j] * f[k] == hessian[k] * f[j] for j in range(5) for k in range(5))
    return "{22}" if proportional else "{211}"


def test_root_structure_agrees_with_invariant_classifier():
    """Quartics from small-integer roots, some at infinity (a lower degree),
    and complex pairs t^2 - 2 p t + p^2 + q^2, against the I, J, H rules."""
    rng = np.random.default_rng(11)
    pairs = [(0, 1), (1, 1), (-1, 2)]
    cases = []
    for _ in range(4000):
        poly = [int(rng.choice([-3, -2, -1, 1, 2, 3]))]  # c_0 first
        slots = 4
        while slots:
            if slots >= 2 and rng.uniform() < 0.25:
                p, q = pairs[rng.integers(len(pairs))]
                factor, slots = [p * p + q * q, -2 * p, 1], slots - 2
            elif rng.uniform() < 0.2:
                factor, slots = [1], slots - 1  # a root at infinity
            else:
                factor, slots = [-int(rng.integers(-2, 3)), 1], slots - 1
            poly = [int(coef) for coef in _homogeneous_mul(poly, factor)]
        cases.append(poly + [0] * (5 - len(poly)))
    forms = [_form(c, ref=float(max(abs(coef) for coef in c))) for c in cases]
    got = [rl.type_string for rl in root_structure(_batch(forms))]
    want = [_invariant_type(c) for c in cases]
    assert [i for i in range(len(cases)) if got[i] != want[i]] == []
    assert set(want) == {"{1111}", "{211}", "{22}", "{31}", "{4}"}


# ---------------------------------------------------------------------------
# calibration and components


def test_default_kappa_reused():
    k1 = default_kappa()
    k2 = default_kappa()
    assert k1 is k2
    assert k1.value == pytest.approx(-4.0, rel=1e-9)


def test_default_kappa_is_the_calibrated_constant():
    """The constant is what calibrate_kappa gives, bit for bit, on both of
    its instances, and 6 kappa is exactly -24."""
    pts = np.random.default_rng(0xC0FFEE).uniform(0.5, 1.5, (10, 4))
    value = default_kappa().value
    for c in (u, Num(0.0)):
        assert calibrate_kappa(MetricSpec.walker(u**2, v**2, c), pts).value.hex() == value.hex()
    assert 6.0 * value == -24.0


def test_calibrate_kappa_instances():
    pts = sample_box(52_000, 10)
    k1 = calibrate_kappa(MetricSpec.walker(u**2, v**2, u), pts)
    k2 = calibrate_kappa(MetricSpec.walker(u**2, v**2, Num(0.0)), pts)
    assert abs(k1.value - k2.value) < 1e-6 * abs(k1.value)
    assert k1.provenance["points"] == 10


def test_calibrate_kappa_failure_modes():
    pts = sample_box(52_100, 6)
    with pytest.raises(CalibrationFailure):
        calibrate_kappa(MetricSpec.walker(v, Num(0.0), Num(0.0)), pts)  # a_v != 0
    with pytest.raises(CalibrationFailure):
        calibrate_kappa(MetricSpec.walker(0, 0, 0), pts)  # S = 0 everywhere


# ---------------------------------------------------------------------------
# obstruction


def test_obstruction_examples():
    from nullplane.families import random_polys

    a, b = random_polys(53_000, 2, ("u", "v", "x", "y"), 2)
    zero = obstruction_residual(MetricSpec.walker(a, b, parse_expr("u + v")), PTS)
    pack = curvature(metric_jet(MetricSpec.walker(a, b, parse_expr("u + v")), PTS))
    assert np.max(np.abs(zero)) < 1e-7 * np.max(pack.riemann_scale())
    nonzero = obstruction_residual(MetricSpec.walker(a, b, parse_expr("u*v")), PTS)
    assert np.min(np.abs(nonzero)) > 1e-3


def test_obstruction_requires_walker_gauge():
    with pytest.raises(KindError):
        obstruction_residual(MetricSpec.general([[Num(0.0)] * 4] * 4), PTS)


# ---------------------------------------------------------------------------
# Ricci degeneracy residuals


def test_einstein_residuals_reference_pair():
    spec = _reference_spec()
    pack_g = curvature(metric_jet(spec, PTS))
    assert np.min(einstein_residual(pack_g)) > 1e-3
    h = MetricSpec.conformal_walker(parse_expr("1/v"), spec.a, spec.b, spec.c)
    pack_h = curvature(metric_jet(h, PTS))
    assert np.max(einstein_residual(pack_h)) < 1e-7


def test_ricci_null_and_discriminant(walker_corpus):
    specs, pts = walker_corpus
    for spec in specs[:5]:
        pack = curvature(metric_jet(spec, pts))
        z = alpha_dist(T10, walker_tetrad(spec))
        assert np.max(ricci_null_residual(pack, z)) < 1e-7
        assert np.max(rps_discriminant(pack, z)) <= 1e-9
