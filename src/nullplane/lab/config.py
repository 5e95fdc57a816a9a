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
([tetrad] section, keys l0..l3, n0..n3, m0..m3, mt0..mt3).  Any other
section or key, a [tetrad] on a walker kind included, is a ConfigError.
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

# The documented thresholds: "zero" is below TOL_ZERO relative to the natural
# scale of the compared quantity, "nonzero" is above TOL_NONZERO.
TOL_ZERO = 1e-7
TOL_NONZERO = 1e-3

# the [metric] components each kind reads, besides kind itself
_METRIC_KEYS = {
    WALKER: ("a", "b", "c"),
    CONFORMAL_WALKER: ("a", "b", "c", "chi"),
    GENERAL: tuple(f"g_{COORDS[i]}{COORDS[j]}" for i in range(4) for j in range(i, 4)),
}
# the keys of the other sections; [tetrad] is read for the general kind only
_SECTION_KEYS = {
    "lambda": ("t0", "t1"),
    "domain": ("box", *(f"box_{name}" for name in COORDS), "exclude"),
    "tetrad": tuple(f"{name}{i}" for name in ("l", "n", "m", "mt") for i in range(4)),
}


@dataclass
class AnalysisConfig:
    spec: MetricSpec
    t_field: ProjParam = field(default_factory=lambda: ProjParam.of(0, 1))
    box: tuple = ((0.5, 1.5),) * 4
    points: int = 20
    seed: int = 0
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
            "tolerances": {"zero": TOL_ZERO, "nonzero": TOL_NONZERO},
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
    if kind not in _METRIC_KEYS:
        raise ConfigError(f"metric kind must be walker, conformal_walker, or general (got {kind!r})")
    _check_keys(parser, kind)
    missing = [key for key in _METRIC_KEYS[kind] if key not in metric]
    if missing:
        raise ConfigError(f"{kind} metric needs components {missing}")
    comps = {key: _parse(metric[key], key) for key in _METRIC_KEYS[kind]}
    if kind == WALKER:
        spec = MetricSpec.walker(comps["a"], comps["b"], comps["c"])
    elif kind == CONFORMAL_WALKER:
        spec = MetricSpec.conformal_walker(comps["chi"], comps["a"], comps["b"], comps["c"])
    else:
        rows = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                rows[i][j] = rows[j][i] = comps[f"g_{COORDS[i]}{COORDS[j]}"]
        spec = MetricSpec.general(rows)

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
        keys = _SECTION_KEYS["tetrad"]
        missing = [key for key in keys if key not in sect]
        if missing:
            raise ConfigError(f"tetrad section needs component {missing[0]}")
        parts = [_parse(sect[key], key) for key in keys]
        tetrad = Tetrad(*(tuple(parts[i : i + 4]) for i in range(0, 16, 4)))  # l, n, m, mt

    return AnalysisConfig(spec=spec, t_field=t_field, box=tuple(box), exclude=exclude, tetrad=tetrad, source=path)


def _check_keys(parser: configparser.ConfigParser, kind: str) -> None:
    """Reject every section and key the loader would not read, so a typo
    cannot silently analyse another metric than the one written."""
    allowed = {parser.default_section: (), "metric": ("kind", *_METRIC_KEYS[kind]), **_SECTION_KEYS}
    if kind != GENERAL and "tetrad" in parser:
        raise ConfigError(f"section [tetrad] is for the general kind only; a {kind} metric uses the walker tetrad")
    for section in parser:
        if section not in allowed:
            raise ConfigError(f"unknown spec-file section [{section}]")
        for key in parser[section]:  # the default section's keys come first
            if key not in allowed[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of a {kind} spec file")


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
