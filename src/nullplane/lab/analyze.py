"""The analysis pipeline: sample points, compute curvature and frame data,
classify, and assemble a Report."""

from __future__ import annotations

from math import comb

import numpy as np

from ..errors import DomainError, NullplaneError, SingularMetric
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
    default_kappa,
    einstein_residual,
    root_structure,
    weyl_quartic,
    _e_restricted,
    _ricci_null_of,
    _rps_of,
)
from .config import AnalysisConfig, sample_points
from .report import Report, _roots_to_dict


# Most points per _chunk_arrays call, so memory is bounded in the point count.
# Chunks are balanced: numpy lays out curvature temporaries of batches under
# ~26 points otherwise, which changes last bits of conformal_walker sums.
_CHUNK_POINTS = 250


def _attribute_point(evaluate, pts: np.ndarray):
    """evaluate(pts); if it fails with a DomainError or SingularMetric, it
    is re-run point by point and the error names the first failing sample."""
    try:
        return evaluate(pts)
    except (DomainError, SingularMetric) as err:
        for i in range(pts.shape[0]):
            try:
                evaluate(pts[i : i + 1])
            except (DomainError, SingularMetric) as single_err:
                raise err.__class__(f"{single_err} [at point {pts[i].tolist()}]") from err
        raise


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


def _chunk_arrays(cfg: AnalysisConfig, pts: np.ndarray, kappa) -> dict:
    if pts.shape[0] == 1:
        # numpy sums a one-point batch in another order than a larger one, so
        # a lone point is analysed as two copies to keep its batch bytes
        return _map_chunks([_chunk_arrays(cfg, np.repeat(pts, 2, axis=0), kappa)], lambda parts: parts[0][:1])
    spec = cfg.spec
    mj = _attribute_point(lambda p: metric_jet(spec, p, 2), pts)  # curvature needs second partials only
    pack = curvature(mj)

    out: dict = {
        "scalar": pack.scalar_val,
        "einstein": np.atleast_1d(einstein_residual(pack)),
        "ricci_scale": np.max(np.abs(pack.ricci_val), axis=(1, 2)),
        "riemann_scale": pack.riemann_scale(),
    }

    tet = cfg.tetrad
    if spec.kind in (WALKER, CONFORMAL_WALKER):
        tet = walker_tetrad(spec)
    out["has_frames"] = tet is not None

    if tet is not None:
        # the one evaluation of the tetrad and the t-field in this chunk
        frame = _attribute_point(lambda p: Frame.of(tet, p, cfg.t_field), pts)
        # each point's tolerance is at least 1e-7, so a smaller maximum passes all
        if tetrad_max_defect(mj, frame) > 1e-7:
            defects = _tetrad_defects(mj, frame)
            tol = 1e-7 * np.maximum(np.max(np.abs(mj.g_val), axis=(1, 2)), 1.0)
            worst = np.argmax(np.where(defects > tol, defects, -1.0))
            if defects[worst] > tol[worst]:
                raise NullplaneError(
                    f"tetrad normalization defect {defects[worst]:.2e} exceeds tolerance {tol[worst]:.2e}"
                    f" [at point {pts[worst].tolist()}]"
                )
        from ..tensor.dual import volume_and_duals

        volume_and_duals(mj, frame)  # orientation calibration check

        tvals = frame.t_values()  # (2, P)
        sd_forms = weyl_quartic(pack, frame, "SD")
        asd_forms = weyl_quartic(pack, frame, "ASD")
        sd_roots = [root_structure(f) for f in sd_forms]
        asd_roots = [root_structure(f) for f in asd_forms]
        out["sd_coeffs"] = np.stack([f.coeffs for f in sd_forms])
        out["asd_coeffs"] = np.stack([f.coeffs for f in asd_forms])
        out["sd_roots"] = sd_roots
        out["asd_roots"] = asd_roots
        out["sd_dir_defect"] = _double_root_defect(
            out["sd_coeffs"], np.array([[1.0], [0.0]]), np.array([rl.type_string == "O" for rl in sd_roots])
        )
        out["asd_dir_defect"] = _double_root_defect(
            out["asd_coeffs"], tvals, np.array([rl.type_string == "O" for rl in asd_roots])
        )

        zdist = alpha_dist(ProjParam.of(1, 0), tet)
        dists = {
            "D": dist_D(cfg.t_field, tet),
            "Z": zdist,
            "W": beta_dist(cfg.t_field, tet),
            "H": dist_H(cfg.t_field, tet),
        }
        gamma = pack.gamma[..., 0, :]  # one connection for every residual
        gens = {name: _generators(dist, pts, frame) for name, dist in dists.items()}
        out["residuals"] = {
            name: {
                "frobenius": _frobenius_batch(gen),
                "autoparallel": _autoparallel_batch(gen, gamma),
                "parallel": _parallel_batch(gen, gamma),
            }
            for name, gen in gens.items()
        }
        m, den = _e_restricted(pack, gens["Z"][0])  # one Ricci restriction for both outputs
        out["ricci_null"] = _ricci_null_of(m, den)
        out["rps_disc"] = _rps_of(m, den)

    if spec.kind in (WALKER, CONFORMAL_WALKER):
        # obstruction lives in the walker gauge; the flag/verdict use the
        # middle coefficient in the frame adapted to the t-field direction
        wp = spec.walker_part()
        if spec.kind == WALKER:
            wpack = pack
            wasd_coeffs = out["asd_coeffs"]
        else:
            wpack = curvature(metric_jet(wp, pts, 2))
            wasd_coeffs = np.stack(
                [f.coeffs for f in weyl_quartic(wpack, walker_tetrad(wp), "ASD")]
            )
        c2_raw = wasd_coeffs[:, 2]
        c2_adapted = _adapted_middle_coeff(wasd_coeffs, tvals)
        out["obstruction"] = c2_raw / (6.0 * kappa.value) - wpack.scalar_val / 12.0
        out["obstruction_adapted"] = c2_adapted / (6.0 * kappa.value) - wpack.scalar_val / 12.0
        out["obstruction_scale"] = np.maximum(
            np.abs(wpack.scalar_val) / 12.0, 1e-2 * np.max(np.abs(wpack.riemann_val), axis=(1, 2, 3, 4))
        )
        if spec.kind == CONFORMAL_WALKER:
            out["box_chi_generic"] = np.atleast_1d(box_scalar(wp, spec.chi, pts))
            out["box_chi_closed"] = np.atleast_1d(walker_box_closed_form(wp.a, wp.b, wp.c, spec.chi, pts))
    return out


def _map_chunks(chunks: list, join) -> dict:
    """Join the per-point entries (arrays, lists, residual tables) of the
    chunk dicts with join(parts); other entries come from the first chunk."""
    merged: dict = {}
    first = chunks[0]
    for key, value in first.items():
        if isinstance(value, (np.ndarray, list)):
            merged[key] = join([c[key] for c in chunks])
        elif key == "residuals":
            merged[key] = {
                name: {kind: join([c[key][name][kind] for c in chunks]) for kind in value[name]}
                for name in value
            }
        else:
            merged[key] = value
    return merged


def _concat(parts: list):
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    return [item for part in parts for item in part]


def run_analysis(cfg: AnalysisConfig) -> Report:
    """Analyze the configured metric at seeded sample points."""
    pts = sample_points(cfg)
    kappa = default_kappa() if cfg.spec.kind in (WALKER, CONFORMAL_WALKER) else None

    nchunks = -(-pts.shape[0] // _CHUNK_POINTS)
    data = _map_chunks([_chunk_arrays(cfg, chunk, kappa) for chunk in np.array_split(pts, nchunks)], _concat)

    tol0 = cfg.tol_zero
    flags: dict = {}
    has_frames = data["has_frames"]
    walker_kind = cfg.spec.kind in (WALKER, CONFORMAL_WALKER)

    if has_frames:
        res = data["residuals"]
        z_parallel = bool(np.max(res["Z"]["parallel"]) < tol0)
        w_integrable = bool(np.max(res["W"]["frobenius"]) < tol0)
        w_parallel = bool(np.max(res["W"]["parallel"]) < tol0)
        h_integrable = bool(np.max(res["H"]["frobenius"]) < tol0)
        sd_flag = bool(all(rl.type_string == "O" for rl in data["asd_roots"]))
        ricci_small = bool(np.max(data["ricci_scale"] / np.maximum(data["riemann_scale"], 1e-30)) < tol0)
        flags.update(
            {
                "walker_form": bool(walker_kind or cfg.tetrad is not None) and z_parallel,
                "Z_parallel": z_parallel,
                "W_integrable": w_integrable,
                "W_parallel": w_parallel,
                "H_integrable": h_integrable,
                "sesquiWalker": z_parallel and w_integrable,
                "integrable_sesquiWalker": z_parallel and w_integrable and h_integrable,
                "two_sided": z_parallel and w_parallel,
                "SD": sd_flag,
                "ricci_null": bool(np.max(data["ricci_null"]) < tol0),
                "left_flat": ricci_small and sd_flag,
            }
        )
    else:
        for key in (
            "walker_form",
            "Z_parallel",
            "W_integrable",
            "W_parallel",
            "H_integrable",
            "sesquiWalker",
            "integrable_sesquiWalker",
            "two_sided",
            "SD",
            "ricci_null",
            "left_flat",
        ):
            flags[key] = None

    if walker_kind:
        obs_ok = bool(
            np.max(np.abs(data["obstruction_adapted"]) / np.maximum(data["obstruction_scale"], 1e-30)) < tol0
        )
        flags["obstruction_zero"] = obs_ok
    else:
        flags["obstruction_zero"] = None

    if not walker_kind:
        verdict, reason = "inconclusive", "general-kind metric has no distinguished walker gauge"
    elif not flags["H_integrable"]:
        verdict, reason = "no:H", "the 3-plane distribution is not integrable"
    elif not (
        np.max(data["sd_dir_defect"]) < tol0 and np.max(data["asd_dir_defect"]) < tol0
    ):
        verdict, reason = "no:WPS", "a distinguished direction is not a double quartic root"
    elif not flags["obstruction_zero"]:
        verdict, reason = "no:obstruction", "the middle component does not equal S/12 in the walker gauge"
    else:
        verdict, reason = "yes", "all conditions hold at every sampled point"

    records = []
    for p in range(pts.shape[0]):
        rec: dict = {
            "point": [float(c) for c in pts[p]],
            "scalar_curvature": float(data["scalar"][p]),
            "einstein_residual": float(data["einstein"][p]),
        }
        if has_frames:
            rec["ricci_null_residual"] = float(data["ricci_null"][p])
            rec["rps_discriminant"] = float(data["rps_disc"][p])
            rec["quartic_sd"] = {
                "coeffs": [float(c) for c in data["sd_coeffs"][p]],
                "roots": _roots_to_dict(data["sd_roots"][p]),
            }
            rec["quartic_asd"] = {
                "coeffs": [float(c) for c in data["asd_coeffs"][p]],
                "roots": _roots_to_dict(data["asd_roots"][p]),
            }
            rec["residuals"] = {
                name: {kind: float(vals[p]) for kind, vals in kinds.items()}
                for name, kinds in data["residuals"].items()
            }
        if walker_kind:
            rec["obstruction"] = float(data["obstruction"][p])
        if "box_chi_generic" in data:
            rec["box_chi"] = {
                "generic": float(data["box_chi_generic"][p]),
                "closed_form": float(data["box_chi_closed"][p]),
            }
        records.append(rec)

    return Report(
        config=cfg.echo(),
        kappa=kappa.value if kappa is not None else None,
        point_records=records,
        flags=flags,
        verdict=verdict,
        verdict_reason=reason,
    )
