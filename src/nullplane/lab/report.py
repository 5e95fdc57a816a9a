"""Report assembly: per-point records, aggregate flags, and the
locally-conformally-two-sided verdict."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

from .. import __version__
from ..weylalg import RootList


def dumps_json(obj) -> str:
    """The one JSON layout of every report and listing nullplane prints."""
    return json.dumps(obj, sort_keys=True, indent=2)


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
