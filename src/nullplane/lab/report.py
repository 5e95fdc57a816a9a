"""Report assembly: per-point records, aggregate flags, and the
locally-conformally-two-sided verdict."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

from .. import __version__
from ..weylalg import RootList


_escape = json.encoder.encode_basestring_ascii  # the string encoder of json.dumps
_float_repr = float.__repr__
_CONTAINERS = (list, tuple, dict)


def _atom(o) -> str:
    """A scalar or an empty container as json.dumps writes it."""
    if isinstance(o, float):  # np.float64 too
        text = _float_repr(o)
        if "n" in text:  # nan, inf, -inf
            return "NaN" if o != o else ("Infinity" if o > 0 else "-Infinity")
        return text
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, _CONTAINERS):  # write() takes the non-empty ones
        return "{}" if isinstance(o, dict) else "[]"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    """A dict key that is not a str, as json.dumps writes it."""
    if isinstance(k, _CONTAINERS):
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return _escape(_atom(k))


def dumps_json(obj) -> str:
    """The one JSON layout of every report and listing nullplane prints: the
    bytes json.dumps writes with sorted keys and an indent of two spaces.
    With an indent, json.dumps runs its pure-Python encoder; this writer
    keeps one string per line break and depth, writes a scalar with its key
    and a list of floats in one str.join, and joins all pieces once."""
    out: list = []
    put = out.append
    breaks = ["\n"]  # "\n" and two spaces per depth
    seps = [",\n"]

    def write(o, depth: int) -> None:  # o is a non-empty container
        if depth + 1 == len(breaks):
            breaks.append(breaks[-1] + "  ")
            seps.append(seps[-1] + "  ")
        inner, sep = breaks[depth + 1], seps[depth + 1]
        if isinstance(o, dict):
            lead = "{" + inner
            for key, value in sorted(o.items()):
                head = lead + (_escape(key) if isinstance(key, str) else _key(key)) + ": "
                if isinstance(value, _CONTAINERS) and value:
                    put(head)
                    write(value, depth + 1)
                else:
                    put(head + _atom(value))
                lead = sep
            put(breaks[depth] + "}")
            return
        try:
            text = sep.join(map(_float_repr, o))
        except TypeError:  # not all floats: ints, bools, None, strings or containers
            text = "n"
        if "n" not in text:  # else not all floats, or nan, inf, -inf
            put("[" + inner + text + breaks[depth] + "]")
            return
        lead = "[" + inner
        for value in o:
            if isinstance(value, _CONTAINERS) and value:
                put(lead)
                write(value, depth + 1)
            else:
                put(lead + _atom(value))
            lead = sep
        put(breaks[depth] + "]")

    if not (isinstance(obj, _CONTAINERS) and obj):
        return _atom(obj)
    write(obj, 0)
    return "".join(out)


def _roots_to_dict(rl: RootList) -> dict:
    entries = []
    for e in rl.entries:
        if e.kind == "real":
            value = e.value.real
        elif e.kind == "complex_pair":
            value = [e.value.real, e.value.imag]
        else:
            value = None
        entries.append({"kind": e.kind, "value": value, "multiplicity": e.multiplicity})
    return {"type": rl.type_string, "roots": entries}


@dataclass
class Report:
    config: dict
    kappa: Optional[float]
    point_records: list
    flags: dict
    verdict: str
    verdict_reason: str

    def to_dict(self, with_timestamp: bool = True) -> dict:
        out = {
            "tool": {"name": "nullplane", "version": __version__},
            "config": self.config,
            "kappa_cal": self.kappa,
            "points": self.point_records,
            "flags": self.flags,
            "verdict": self.verdict,
            "verdict_reason": self.verdict_reason,
        }
        if with_timestamp:
            out["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return out

    def to_json(self, with_timestamp: bool = True) -> str:
        return dumps_json(self.to_dict(with_timestamp))

    def to_text(self) -> str:
        lines = [f"nullplane {__version__} analysis of {self.config.get('source', '?')}"]
        lines.append(f"  points: {self.config['points']}  seed: {self.config['seed']}")
        if self.kappa is not None:
            lines.append(f"  calibration constant: {self.kappa:.12g}")
        lines.append("  flags:")
        width = max(len(k) for k in self.flags)
        for key in sorted(self.flags):
            lines.append(f"    {key:<{width}}  {self.flags[key]}")
        lines.append(f"  verdict: {self.verdict}   ({self.verdict_reason})")
        if self.point_records:
            rec = self.point_records[0]
            lines.append("  first sampled point:")
            lines.append(f"    point: {rec['point']}")
            lines.append(f"    scalar_curvature: {rec['scalar_curvature']:.6g}")
            if rec.get("quartic_sd"):
                lines.append(f"    SD quartic type: {rec['quartic_sd']['roots']['type']}")
                lines.append(f"    ASD quartic type: {rec['quartic_asd']['roots']['type']}")
        return "\n".join(lines)
