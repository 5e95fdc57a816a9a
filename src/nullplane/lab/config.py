"""Analysis configuration and the INI spec-file loader.

Spec files are flat INI text (see README for the full schema):

    [metric]
    kind = walker            ; walker | conformal_walker | general
    a = u^2                  ; walker kinds: a, b, c (+ chi for conformal)
    b = v^2
    c = u

    [lambda]                 ; optional projective parameter (default 0 : 1)
    t0 = 0
    t1 = 1

    [domain]                 ; optional sample box and excluded loci
    box = 0.5, 1.5           ; applies to all four coordinates
    box_v = 0.75, 1.25       ; per-coordinate override
    exclude = v=0            ; semicolon-separated var=value loci

General metrics list ten components g_uu .. g_yy and may supply a tetrad
([tetrad] section, keys l0..l3, n0..n3, m0..m3, mt0..mt3).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from math import isfinite
from typing import Optional

import numpy as np

from ..errors import ConfigError, ExprSyntaxError
from ..exprkit.ast import COORDS
from ..exprkit.parser import parse_expr
from ..frames import ProjParam, Tetrad
from ..tensor.metric import CONFORMAL_WALKER, GENERAL, WALKER, MetricSpec

_GENERAL_KEYS = [f"g_{COORDS[i]}{COORDS[j]}" for i in range(4) for j in range(i, 4)]


@dataclass
class AnalysisConfig:
    spec: MetricSpec
    t_field: ProjParam = field(default_factory=lambda: ProjParam.of(0, 1))
    box: tuple = ((0.5, 1.5),) * 4
    points: int = 20
    seed: int = 0
    tol_zero: float = 1e-7
    tol_nonzero: float = 1e-3
    exclude: tuple = ()  # (coordinate_name, value) pairs
    tetrad: Optional[Tetrad] = None
    source: str = "api"

    def echo(self) -> dict:
        spec = self.spec
        metric: dict = {"kind": spec.kind}
        if spec.kind in (WALKER, CONFORMAL_WALKER):
            metric.update({"a": str(spec.a), "b": str(spec.b), "c": str(spec.c)})
            if spec.kind == CONFORMAL_WALKER:
                metric["chi"] = str(spec.chi)
        else:
            comps = spec.component_exprs()
            for i in range(4):
                for j in range(i, 4):
                    metric[f"g_{COORDS[i]}{COORDS[j]}"] = str(comps[i][j])
        return {
            "source": self.source,
            "metric": metric,
            "lambda": {"t0": str(self.t_field.t0), "t1": str(self.t_field.t1)},
            "box": [list(b) for b in self.box],
            "points": self.points,
            "seed": self.seed,
            "order": 3,  # report-format field, kept so reports stay byte-identical
            "tolerances": {"zero": self.tol_zero, "nonzero": self.tol_nonzero},
            "exclude": [f"{name}={value}" for name, value in self.exclude],
        }


def _parse(text: str, where: str):
    try:
        return parse_expr(text)
    except ExprSyntaxError as err:
        raise ConfigError(f"bad expression for {where}: {err}") from err


def parse_exclude(text: str) -> tuple:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"exclude entries look like 'v=0', got {part!r}")
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in COORDS:
            raise ConfigError(f"exclude coordinate {name!r} unknown")
        try:
            value = float(value)
        except ValueError as err:
            raise ConfigError(f"exclude value in {part!r} is not a number") from err
        if not isfinite(value):
            raise ConfigError(f"exclude value in {part!r} is not finite")
        out.append((name, value))
    return tuple(out)


def load_spec_file(path: str) -> AnalysisConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read spec file {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed spec file {path}: {err}") from err

    if "metric" not in parser:
        raise ConfigError("spec file needs a [metric] section")
    metric = parser["metric"]
    kind = metric.get("kind", "").strip()
    if kind == WALKER or kind == CONFORMAL_WALKER:
        missing = [k for k in ("a", "b", "c") if k not in metric]
        if missing:
            raise ConfigError(f"walker metric needs components {missing}")
        a = _parse(metric["a"], "a")
        b = _parse(metric["b"], "b")
        c = _parse(metric["c"], "c")
        if kind == WALKER:
            spec = MetricSpec.walker(a, b, c)
        else:
            if "chi" not in metric:
                raise ConfigError("conformal_walker metric needs chi")
            spec = MetricSpec.conformal_walker(_parse(metric["chi"], "chi"), a, b, c)
    elif kind == GENERAL:
        rows = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                key = f"g_{COORDS[i]}{COORDS[j]}"
                if key not in metric:
                    raise ConfigError(f"general metric needs component {key}")
                rows[i][j] = rows[j][i] = _parse(metric[key], key)
        spec = MetricSpec.general(rows)
    else:
        raise ConfigError(f"metric kind must be walker, conformal_walker, or general (got {kind!r})")

    t_field = ProjParam.of(0, 1)
    if "lambda" in parser:
        lam = parser["lambda"]
        t_field = ProjParam(
            _parse(lam.get("t0", "0"), "t0"),
            _parse(lam.get("t1", "1"), "t1"),
        )

    box = [(0.5, 1.5)] * 4
    exclude: tuple = ()
    if "domain" in parser:
        dom = parser["domain"]
        if "box" in dom:
            box = [_parse_interval(dom["box"])] * 4
        for i, name in enumerate(COORDS):
            key = f"box_{name}"
            if key in dom:
                box[i] = _parse_interval(dom[key])
        if "exclude" in dom:
            exclude = parse_exclude(dom["exclude"])

    tetrad = None
    if "tetrad" in parser:
        sect = parser["tetrad"]
        vecs = {}
        for name in ("l", "n", "m", "mt"):
            comps = []
            for i in range(4):
                key = f"{name}{i}"
                if key not in sect:
                    raise ConfigError(f"tetrad section needs component {key}")
                comps.append(_parse(sect[key], key))
            vecs[name] = tuple(comps)
        tetrad = Tetrad(**vecs)

    return AnalysisConfig(spec=spec, t_field=t_field, box=tuple(box), exclude=exclude, tetrad=tetrad, source=path)


def _parse_interval(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"interval must be 'lo, hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as err:
        raise ConfigError(f"interval bounds in {text!r} are not numbers") from err
    if not isfinite(hi - lo):  # an infinite or NaN bound, or a width that overflows
        raise ConfigError(f"interval {text!r} is not finite")
    if not lo < hi:
        raise ConfigError(f"interval {text!r} is empty")
    return (lo, hi)


def sample_points(cfg: AnalysisConfig) -> np.ndarray:
    """Deterministic uniform sample of the box, avoiding excluded loci."""
    if cfg.points < 1:
        raise ConfigError("point count must be positive")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative (got {cfg.seed})")
    rng = np.random.default_rng(cfg.seed)
    lo = np.array([b[0] for b in cfg.box])
    hi = np.array([b[1] for b in cfg.box])
    pts = rng.uniform(lo, hi, (cfg.points, 4))
    if cfg.exclude:
        margin = 0.02 * (hi - lo)
        for _ in range(100):
            bad = np.zeros(cfg.points, dtype=bool)
            for name, value in cfg.exclude:
                i = COORDS.index(name)
                bad |= np.abs(pts[:, i] - value) < margin[i]
            if not bad.any():
                break
            pts[bad] = rng.uniform(lo, hi, (int(bad.sum()), 4))
        else:
            raise ConfigError("could not sample the box away from excluded loci")
    return pts
