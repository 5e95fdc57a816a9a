"""The analysis pipeline: sample points, compute curvature and frame data,
classify, and assemble a Report."""

from __future__ import annotations

from itertools import accumulate
from math import comb

import numpy as np

from ..errors import DomainError, NullplaneError, at_point
from ..exprkit.jets import ExprKeys, JetCache
from ..frames import (
    Frame,
    ProjParam,
    alpha_dist,
    beta_dist,
    dist_D,
    dist_H,
    walker_tetrad,
    tetrad_max_defect,
    _tetrad_defects,
    _generators,
    _frobenius_batch,
    _autoparallel_batch,
    _parallel_batch,
)
from ..tensor.curvature import curvature, box_scalar, walker_box_closed_form
from ..tensor.metric import CONFORMAL_WALKER, WALKER, metric_jet
from ..weylalg import (
    RootTable,
    default_kappa,
    einstein_residual,
    root_structure,
    weyl_quartic,
    _e_restricted,
    _ricci_null_of,
    _rps_of,
)
from .config import TOL_ZERO, AnalysisConfig, sample_points
from .report import Report


# Most points per _chunk_arrays call, so memory is bounded in the point count.
# Chunks are balanced: numpy lays out curvature temporaries of batches under
# ~26 points otherwise, which changes last bits of conformal_walker sums.
_CHUNK_POINTS = 250


def _where(pts: np.ndarray, i: int, offset: int, stage: str) -> str:
    """Error suffix naming chunk row i by its global sample index and its
    coordinates; offset is the global index of pts[0]."""
    return f" [at sample {offset + i}, stage {stage}] [at point {pts[i].tolist()}]"


def _adapted_middle_coeff(coeffs: np.ndarray, tvals: np.ndarray) -> np.ndarray:
    """Middle coefficient of each quartic (P, 5) reparametrized by the
    unimodular dyad change that sends its direction (t0 : t1), tvals (2, P),
    to (0 : 1): the s^2 coefficient of sum_k c_k p0(s)^(4-k) p1(s)^k with
    p0 = a0 + b0 s and p1 = a1 + b1 s.  In this frame the middle component
    is geometric once the direction is a double root; (0 : 1) gives c_2.
    """
    b0, b1 = tvals / np.hypot(tvals[0], tvals[1])
    a0, a1 = b1, -b0  # det [[a0, b0], [a1, b1]] = +1
    total = np.zeros(coeffs.shape[0])
    for k in range(5):
        for i in range(max(0, 2 - k), min(2, 4 - k) + 1):
            j = 2 - i
            weight = comb(4 - k, i) * comb(k, j) * a0 ** (4 - k - i) * b0**i * a1 ** (k - j) * b1**j
            total += coeffs[:, k] * weight
    return total


def _double_root_defect(coeffs: np.ndarray, tvals: np.ndarray, zero_form: np.ndarray) -> np.ndarray:
    """Relative size of the homogeneous-quartic gradient at each direction,
    coeffs (P, 5) and tvals (2, P) or (2, 1); ~0 iff the direction is a root
    of multiplicity >= 2.  Zero forms (P,) bool give 0."""
    t0, t1 = tvals / np.hypot(tvals[0], tvals[1])
    dq0 = sum(coeffs[:, k] * (4 - k) * t0 ** (3 - k) * t1**k for k in range(4))
    dq1 = sum(coeffs[:, k] * k * t0 ** (4 - k) * t1 ** (k - 1) for k in range(1, 5))
    scale = 4.0 * np.maximum(np.max(np.abs(coeffs), axis=1), 1e-30)
    return np.where(zero_form, 0.0, np.maximum(np.abs(dq0), np.abs(dq1)) / scale)


def _analysis_exprs(cfg: AnalysisConfig) -> tuple:
    """What every chunk evaluates, built once per analysis: the tetrad (None
    without frames), its distributions, a conformal_walker's walker-part
    tetrad, and the structural keys of these and the metric (see ExprKeys)."""
    spec = cfg.spec
    walker_kind = spec.kind in (WALKER, CONFORMAL_WALKER)
    try:
        tet = walker_tetrad(spec) if walker_kind else cfg.tetrad
    except DomainError:  # chi is the constant 0, which the metric stage rejects at every point
        return None, {}, None, ExprKeys()
    wtet = walker_tetrad(spec.walker_part()) if spec.kind == CONFORMAL_WALKER else None
    t = cfg.t_field
    dists = {} if tet is None else {
        "D": dist_D(t, tet), "Z": alpha_dist(ProjParam.of(1, 0), tet), "W": beta_dist(t, tet), "H": dist_H(t, tet)
    }
    vectors = [vec for tetrad in (tet, wtet) if tetrad is not None for vec in tetrad.vectors().values()]
    vectors += [vec for dist in dists.values() for vec in dist.generators]
    rows = (spec.walker_part() if walker_kind else spec).component_exprs() + [[spec.chi, t.t0, t.t1]]
    return tet, dists, wtet, ExprKeys(e for vec in rows + vectors for e in vec if e is not None)


def _chunk_arrays(cfg: AnalysisConfig, pts: np.ndarray, kappa, offset: int = 0, exprs=None) -> dict:
    """Per-point columns of one chunk: each is an array or a list whose
    first axis is the point.  The residuals are keyed (distribution, kind).
    offset is the global sample index of pts[0]: an error that knows its
    chunk row names that row's sample and the stage that raised it.  exprs
    is _analysis_exprs(cfg); every consumer evaluates in one JetCache."""
    spec = cfg.spec
    tet, dists, wtet, keys = exprs or _analysis_exprs(cfg)
    cache = JetCache(pts, keys)
    stage = "metric"
    try:
        mj = metric_jet(spec, cache)
        stage = "curvature"
        pack = curvature(mj)

        out: dict = {
            "scalar": pack.scalar_val,
            "einstein": einstein_residual(pack),
            "ricci_scale": np.max(np.abs(pack.ricci_val), axis=(1, 2)),
            "riemann_scale": pack.riemann_scale(),
        }

        if tet is not None:
            stage = "frame"
            frame = Frame.of(tet, cache, cfg.t_field)
            stage = "tetrad"
            # each point's tolerance is at least TOL_ZERO, so a smaller maximum passes all
            if not tetrad_max_defect(mj, frame) <= TOL_ZERO:  # also when it is nan
                defects = _tetrad_defects(mj, frame)
                tol = TOL_ZERO * np.maximum(np.max(np.abs(mj.g_val), axis=(1, 2)), 1.0)
                worst = np.argmax(np.where(defects <= tol, -1.0, defects))  # a nan defect is the worst
                if not defects[worst] <= tol[worst]:
                    reason = f"tetrad normalization defect {defects[worst]:.2e} exceeds tolerance {tol[worst]:.2e}"
                    raise at_point(NullplaneError, reason, pts, worst)
            from ..tensor.dual import volume_and_duals

            volume_and_duals(mj, frame)  # orientation calibration check
            stage = "generators"
            tvals = frame.t_values()  # (2, P)
            gens = {name: _generators(dist, cache) for name, dist in dists.items()}
            stage = "quartic"
            forms = weyl_quartic(pack, frame)
            # the SD direction is (1 : 0), the ASD direction the t-field's
            for side, direction in (("SD", np.array([[1.0], [0.0]])), ("ASD", tvals)):
                coeffs, roots = forms[side].coeffs, root_structure(forms[side])
                out[f"{side}_coeffs"], out[f"{side}_roots"] = coeffs, roots
                zero_form = roots.type_code == 0
                out[f"{side}_dir_defect"] = _double_root_defect(coeffs, direction, zero_form)

            stage = "residuals"
            gamma = pack.gamma[..., 0, :]  # one connection for every residual
            for name, gen in gens.items():
                out[name, "frobenius"] = _frobenius_batch(gen)
                out[name, "autoparallel"] = _autoparallel_batch(gen, gamma)
                out[name, "parallel"] = _parallel_batch(gen, gamma)
            m, den = _e_restricted(pack, gens["Z"][0])  # one Ricci restriction for both outputs
            out["ricci_null"] = _ricci_null_of(m, den)
            out["rps_disc"] = _rps_of(m, den)

        if spec.kind in (WALKER, CONFORMAL_WALKER):
            # obstruction lives in the walker gauge; the flag/verdict use the
            # middle coefficient in the frame adapted to the t-field direction
            if spec.kind == WALKER:
                wpack = pack
                wasd_coeffs = out["ASD_coeffs"]
            else:
                stage = "walker_part"
                wp = spec.walker_part()
                wpack = curvature(metric_jet(wp, cache))
                wasd_coeffs = weyl_quartic(wpack, wtet)["ASD"].coeffs
                stage = "box"
                # the box of chi reads the walker part's connection from its pack
                out["box_chi_generic"] = box_scalar(wpack, spec.chi)
                out["box_chi_closed"] = walker_box_closed_form(wp.a, wp.b, wp.c, spec.chi, cache)
            c2_raw = wasd_coeffs[:, 2]
            c2_adapted = _adapted_middle_coeff(wasd_coeffs, tvals)
            out["obstruction"] = c2_raw / (6.0 * kappa.value) - wpack.scalar_val / 12.0
            out["obstruction_adapted"] = c2_adapted / (6.0 * kappa.value) - wpack.scalar_val / 12.0
            out["obstruction_scale"] = np.maximum(
                np.abs(wpack.scalar_val) / 12.0, 1e-2 * np.max(np.abs(wpack.riemann_val), axis=(1, 2, 3, 4))
            )
    except NullplaneError as err:
        if err.row is None:  # not a per-point check: nothing to name
            raise
        raise err.__class__(f"{err.reason}{_where(pts, err.row, offset, stage)}") from err
    return out


def _concat(parts: list):
    return RootTable.concatenate(parts) if isinstance(parts[0], RootTable) else np.concatenate(parts)


def run_analysis(cfg: AnalysisConfig) -> Report:
    """Analyze the configured metric at seeded sample points."""
    pts = sample_points(cfg)
    walker_kind = cfg.spec.kind in (WALKER, CONFORMAL_WALKER)
    kappa = default_kappa() if walker_kind else None

    exprs = _analysis_exprs(cfg)
    parts = np.array_split(pts, -(-pts.shape[0] // _CHUNK_POINTS))
    starts = accumulate(map(len, parts), initial=0)  # global index of each part's first sample
    # numpy sums a one-point batch in another order than a larger one, so a
    # lone point is analysed as two copies and keeps the first
    chunks = [
        _chunk_arrays(cfg, np.repeat(part, 2, axis=0) if len(part) == 1 else part, kappa, start, exprs)
        for part, start in zip(parts, starts)
    ]
    data = {key: _concat([chunk[key][: len(part)] for part, chunk in zip(parts, chunks)]) for key in chunks[0]}

    has_frames = "SD_roots" in data

    def below_tol(key) -> bool | None:
        """Whether the column's maximum is below TOL_ZERO; None if the run has no such column."""
        return bool(np.max(data[key]) < TOL_ZERO) if key in data else None

    # a flag of a run without frames is None, and `None and x` is None
    z_parallel = below_tol(("Z", "parallel"))
    w_integrable = below_tol(("W", "frobenius"))
    w_parallel = below_tol(("W", "parallel"))
    h_integrable = below_tol(("H", "frobenius"))
    sd_flag = bool(np.all(data["ASD_roots"].type_code == 0)) if has_frames else None
    ricci_small = bool(np.max(data["ricci_scale"] / np.maximum(data["riemann_scale"], 1e-30)) < TOL_ZERO)
    obstruction_zero = None
    if walker_kind:
        obs = np.abs(data["obstruction_adapted"]) / np.maximum(data["obstruction_scale"], 1e-30)
        obstruction_zero = bool(np.max(obs) < TOL_ZERO)
    flags = {
        "walker_form": z_parallel,
        "Z_parallel": z_parallel,
        "W_integrable": w_integrable,
        "W_parallel": w_parallel,
        "H_integrable": h_integrable,
        "sesquiWalker": z_parallel and w_integrable,
        "integrable_sesquiWalker": z_parallel and w_integrable and h_integrable,
        "two_sided": z_parallel and w_parallel,
        "SD": sd_flag,
        "ricci_null": below_tol("ricci_null"),
        "left_flat": sd_flag and ricci_small,
        "obstruction_zero": obstruction_zero,
    }

    if not walker_kind:
        verdict, reason = "inconclusive", "general-kind metric has no distinguished walker gauge"
    elif not h_integrable:
        verdict, reason = "no:H", "the 3-plane distribution is not integrable"
    elif not (below_tol("SD_dir_defect") and below_tol("ASD_dir_defect")):
        verdict, reason = "no:WPS", "a distinguished direction is not a double quartic root"
    elif not obstruction_zero:
        verdict, reason = "no:obstruction", "the middle component does not equal S/12 in the walker gauge"
    else:
        verdict, reason = "yes", "all conditions hold at every sampled point"

    data["point"] = pts
    return Report(
        config=cfg.echo(),
        kappa=kappa.value if kappa is not None else None,
        columns=data,
        flags=flags,
        verdict=verdict,
        verdict_reason=reason,
    )
