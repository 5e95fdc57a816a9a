"""Outside-in spans around nullplane's layers.

Each span wraps a module attribute exactly where the pipeline looks it up
(for example ``nullplane.lab.analyze.metric_jet``), so nullplane itself is
not changed.  Spans are kept in memory in flat arrays and written at exit;
per-name aggregates (calls, inclusive time, self time) are kept as they
close.  A target that no longer exists after a refactor is reported as
absent; it never stops the run.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import json
from time import perf_counter

# span name -> "module:attribute" lookup sites the pipeline calls through
SPANS = {
    "lab.cli_main": ["nullplane.lab.cli:main"],
    "lab.load_spec_file": ["nullplane.lab.cli:load_spec_file"],
    "exprkit.parse_expr": ["nullplane.lab.cli:parse_expr", "nullplane.lab.config:parse_expr"],
    "families.build": [
        f"nullplane.lab.cli:{name}"
        for name in (
            "mk_walker", "mk_two_sided", "mk_ricci_null", "mk_sd2015",
            "mk_sd_two_sided", "mk_left_flat", "mk_cp_example", "random_polys",
        )
    ],
    "lab.run_analysis": ["nullplane.lab.cli:run_analysis", "nullplane.lab.analyze:run_analysis"],
    "lab.to_json": ["nullplane.lab.report:Report.to_json"],
    "weylalg.default_kappa": ["nullplane.lab.analyze:default_kappa", "nullplane.weylalg:default_kappa"],
    "tensor.metric_jet": [
        "nullplane.lab.analyze:metric_jet",
        "nullplane.frames:metric_jet",
        "nullplane.tensor.curvature:metric_jet",
        "nullplane.weylalg:metric_jet",
    ],
    "tensor.curvature": ["nullplane.lab.analyze:curvature", "nullplane.weylalg:curvature"],
    "tensor.christoffel": ["nullplane.tensor.curvature:christoffel", "nullplane.frames:christoffel"],
    "tensor.box_scalar": ["nullplane.lab.analyze:box_scalar"],
    "tensor.volume_and_duals": ["nullplane.tensor.dual:volume_and_duals"],
    "frames.tetrad_max_defect": ["nullplane.lab.analyze:tetrad_max_defect"],
    "frames.residuals": [
        "nullplane.lab.analyze:_frobenius_batch",
        "nullplane.lab.analyze:_autoparallel_batch",
        "nullplane.lab.analyze:_parallel_batch",
    ],
    "weylalg.weyl_quartic": ["nullplane.lab.analyze:weyl_quartic", "nullplane.weylalg:weyl_quartic"],
    "weylalg.root_structure": ["nullplane.lab.analyze:root_structure"],
    "exprkit.mul_coeffs": [
        "nullplane.exprkit.jets:mul_coeffs",
        "nullplane.tensor.curvature:mul_coeffs",
        "nullplane.tensor.dual:mul_coeffs",
        "nullplane.tensor.metric:mul_coeffs",
        "nullplane.weylalg:mul_coeffs",
    ],
}

MUL_COEFFS = "exprkit.mul_coeffs"


_PAIRS = {}  # (order_a, order_b, order_out) -> number of Leibniz pairs T


def _mul_coeffs_cost(args, out):
    """Computed (not measured) bytes and flops of one mul_coeffs call.

    mul_coeffs(a, b, oa, ob, oo) gathers the T Leibniz pairs of a and b,
    multiplies them into (..., T, P) and scatters with a dense (K, T) matrix
    into (..., K, P).  Bytes: each gathered operand and the product written
    once and read once, the output written once.  Flops: T products plus
    2 K T for the scatter, per output column.
    """
    a, b, oa, ob, oo = args[:5]
    t = _PAIRS.get((oa, ob, oo))
    if t is None:
        from nullplane.exprkit.jets import _mul_table

        t = _PAIRS[oa, ob, oo] = len(_mul_table(oa, ob, oo)[0])
    k = out.shape[-2]
    prod = out.size // k * t
    gathered = a.size // a.shape[-2] * t + b.size // b.shape[-2] * t
    return 8 * (2 * gathered + 2 * prod + out.size), prod + 2 * k * prod


def _resolve(target: str):
    """(owner, attribute) of a "module:attr" or "module:Class.attr" target,
    or None when the module, class or attribute is gone."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    def __init__(self, spans: dict = SPANS):
        self.spans_by_name = spans
        self.names = list(spans)
        self.absent = set()
        self._installed = []
        self.job = -1
        # one row per span: job, name id, parent span index, start, end
        self.col_job = array.array("i")
        self.col_name = array.array("i")
        self.col_parent = array.array("i")
        self.col_t0 = array.array("d")
        self.col_t1 = array.array("d")
        self._stack = []
        self.reset_totals()

    def reset_totals(self):
        n = len(self.names)
        self.calls = [0] * n
        self.incl_s = [0.0] * n
        self.self_s = [0.0] * n
        self._depth = [0] * n
        self.mul_bytes = 0
        self.mul_flop = 0
        self.cost_failed = False

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        self.absent = set()
        for nid, name in enumerate(self.names):
            found = False
            for target in self.spans_by_name[name]:
                site = _resolve(target)
                if site is None:
                    continue
                owner, attr = site
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(nid, original, name == MUL_COEFFS))
                self._installed.append((owner, attr, original))
                found = True
            if not found:
                self.absent.add(name)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, nid, fn, with_cost):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(nid, fn, args, kwargs, with_cost)

        return wrapper

    # -- recording -------------------------------------------------------------

    def _call(self, nid, fn, args, kwargs, with_cost):
        stack = self._stack
        idx = len(self.col_t0)
        self.col_job.append(self.job)
        self.col_name.append(nid)
        self.col_parent.append(stack[-1][0] if stack else -1)
        frame = [idx, 0.0]
        stack.append(frame)
        self._depth[nid] += 1
        t0 = perf_counter()
        self.col_t0.append(t0)
        self.col_t1.append(t0)
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.col_t1[idx] = t1
            self._depth[nid] -= 1
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[1]
            if self._depth[nid] == 0:
                self.incl_s[nid] += dur
            if stack:
                stack[-1][1] += dur
        if with_cost and not self.cost_failed:
            try:
                nbytes, flop = _mul_coeffs_cost(args, out)
            except Exception:  # the kernel's signature or tables changed
                self.cost_failed = True
            else:
                self.mul_bytes += nbytes
                self.mul_flop += flop
        return out

    # -- results ---------------------------------------------------------------

    def totals(self, name: str) -> dict:
        nid = self.names.index(name)
        return {
            "calls": self.calls[nid],
            "ms": 1e3 * self.incl_s[nid],
            "self_ms": 1e3 * self.self_s[nid],
            "absent": name in self.absent,
        }

    def write(self, path: str, job_keys) -> None:
        """Write every recorded span (times in microseconds from the first)."""
        base = self.col_t0[0] if self.col_t0 else 0.0
        doc = {
            "names": self.names,
            "absent": sorted(self.absent),
            "jobs": list(job_keys),
            "columns": ["job", "name", "parent", "start_us", "end_us"],
            "spans": [
                list(self.col_job),
                list(self.col_name),
                list(self.col_parent),
                [round(1e6 * (t - base), 1) for t in self.col_t0],
                [round(1e6 * (t - base), 1) for t in self.col_t1],
            ],
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh)
