"""Report assembly: per-point records, aggregate flags, and the
locally-conformally-two-sided verdict."""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .. import __version__
from ..weylalg import ROOT_KINDS, RootTable, root_type_string


# Most values per run of a record's text, a roots part counting as one.  A
# run of numbers stays in Python's small-object allocator (512 bytes); one
# with a roots part can pass it (2 of a walker record's 6 runs, up to 812
# bytes); walker_bulk's peak RSS read 76.5-77.7 MB over 5 runs.  1000 record
# strings of 2 kB each raised it by 3-5 MB.
_RUN = 6
_SLOT_BASE = 10**20
# slot i of a template, -(_SLOT_BASE + i), as json.dumps writes it: a raw
# newline follows it and is in no JSON string, so no string can imitate it;
# an integer can (see _filled)
_SLOT = re.compile(r"-(1\d{20})(?=,?\n)")


def _record(keys, at) -> dict:
    """The record of one point, the one place its schema is written down:
    keys are the report's column keys, at(key) is the point's value in
    column key.  Residual columns are keyed (distribution, kind)."""
    rec = {"point": at("point"), "scalar_curvature": at("scalar"), "einstein_residual": at("einstein")}
    if "SD_roots" in keys:
        rec["ricci_null_residual"] = at("ricci_null")
        rec["rps_discriminant"] = at("rps_disc")
        for side in ("SD", "ASD"):
            rec[f"quartic_{side.lower()}"] = {"coeffs": at(f"{side}_coeffs"), "roots": at(f"{side}_roots")}
        rec["residuals"] = {}
        for key in keys:
            if isinstance(key, tuple):
                rec["residuals"].setdefault(key[0], {})[key[1]] = at(key)
    if "obstruction" in keys:
        rec["obstruction"] = at("obstruction")
    if "box_chi_generic" in keys:
        rec["box_chi"] = {"generic": at("box_chi_generic"), "closed_form": at("box_chi_closed")}
    return rec


def _roots_record(code: int, kinds: list, mults: list, real: list, imag: list) -> dict:
    """The roots part of a record from one row of a RootTable: its type
    code, and its entries' kind codes, multiplicities and value parts."""
    entries = []
    for k, m, x, y in zip(kinds, mults, real, imag):
        if k >= 0:
            kind = ROOT_KINDS[k]
            value = x if kind == "real" else [x, y] if kind == "complex_pair" else None
            entries.append({"kind": kind, "value": value, "multiplicity": m})
    return {"type": root_type_string(code), "roots": entries}


def _root_records(table: RootTable) -> list:
    rows = (table.type_code, table.kind, table.multiplicity, table.value.real, table.value.imag)
    return [_roots_record(*row) for row in zip(*(a.tolist() for a in rows))]


def _slot(i: int) -> int:
    """Placeholder i of a template: a negative integer.  The record and
    roots templates hold no other integer below zero; a config echo can
    (an integer box bound), which _filled checks for."""
    return -(_SLOT_BASE + i)


def _split(doc, depth: int) -> tuple:
    """(pieces, order) of doc in the layout of every report, json.dumps with
    sorted keys and an indent of two spaces, nested depth levels deep: doc
    holds _slot(i) placeholders; pieces are the text around them and order
    lists their i as the text meets them.  A JSON string holds no raw
    newline, so shifting each line break shifts only the layout."""
    text = json.dumps(doc, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)
    parts = _SLOT.split(text)
    return parts[0::2], [int(i) - _SLOT_BASE for i in parts[1::2]]


def _layout(doc, depth: int) -> tuple:
    """_split(doc, depth) with the pieces escaped for %-formatting."""
    pieces, order = _split(doc, depth)
    return [piece.replace("%", "%%") for piece in pieces], order


def _as_written(col: np.ndarray) -> list:
    """The float array col's values as floats if %s writes each as json.dumps
    does (all are finite), else each as json.dumps writes it."""
    if np.isfinite(col).all():
        return col.tolist()
    return list(map(json.dumps, col.tolist()))


def _roots_json(table: RootTable, depth: int) -> list:
    """Each point's roots part as json.dumps lays it out at depth: one
    template per pattern of entry kinds and multiplicities."""
    texts = [""] * len(table)
    slots = [_slot(i) for i in range(8)]
    parts = np.stack([table.value.real, table.value.imag], axis=2).reshape(-1, 8)  # slot 2j + 1: entry j's imag
    pattern = ((table.kind + 1) * 5 + table.multiplicity) @ np.array([8000, 400, 20, 1])
    patterns, which = np.unique(pattern, return_inverse=True)
    for n in range(len(patterns)):
        rows = np.flatnonzero(which == n)
        r = rows[0]
        doc = _roots_record(
            int(table.type_code[r]), table.kind[r].tolist(), table.multiplicity[r].tolist(), slots[0::2], slots[1::2]
        )
        pieces, order = _layout(doc, depth)
        template = "%s".join(pieces)
        values = parts[np.ix_(rows, order)]
        values = values.tolist() if np.all(np.isfinite(values)) else [list(map(json.dumps, v)) for v in values.tolist()]
        for p, row in zip(rows.tolist(), values):
            texts[p] = template % tuple(row)
    return texts


@dataclass
class Report:
    """An analysis's configuration echo, calibration constant, per-point
    columns, flags and verdict.  A column is a float array with the point on
    axis 0 (the residuals keyed (distribution, kind)), or a RootTable per
    side; to_json writes the points from them directly."""

    config: dict
    kappa: Optional[float]
    columns: dict
    flags: dict
    verdict: str
    verdict_reason: str

    @cached_property
    def point_records(self) -> list:
        """One record per point, built from the columns when first read."""
        cols = {
            key: _root_records(col) if isinstance(col, RootTable) else np.asarray(col, dtype=float).tolist()
            for key, col in self.columns.items()
        }
        return [_record(cols, lambda key: cols[key][p]) for p in range(len(cols["point"]))]

    def _document(self, points, with_timestamp: bool) -> dict:
        out = {
            "tool": {"name": "nullplane", "version": __version__},
            "config": self.config,
            "kappa_cal": self.kappa,
            "points": points,
            "flags": self.flags,
            "verdict": self.verdict,
            "verdict_reason": self.verdict_reason,
        }
        if with_timestamp:
            out["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return out

    def to_dict(self, with_timestamp: bool = True) -> dict:
        return self._document(self.point_records, with_timestamp)

    def to_json(self, with_timestamp: bool = True) -> str:
        doc = self._document(_slot(0), with_timestamp)
        return _filled(doc, [self._points_pieces(1)], lambda: self.to_dict(with_timestamp))

    def _points_pieces(self, depth: int) -> list:
        """The points list as json.dumps lays it out at depth, from the
        columns, as pieces of text: each record in runs of at most _RUN
        values, each run from one template, a roots part (see _roots_json)
        being one value."""
        cols = self.columns
        if not len(cols["point"]):
            return ["[]"]
        streams = []  # slot i -> its value in every record, as %s writes it

        def placeholder(key):  # a slot for the value, or one per item of a row
            col = cols[key]
            if isinstance(col, RootTable):
                streams.append(_roots_json(col, depth + 3))  # record, quartic, roots
                return _slot(len(streams) - 1)
            col = np.asarray(col, dtype=float)
            first = len(streams)
            streams.extend(map(_as_written, col.T if col.ndim == 2 else [col]))
            slots = [_slot(i) for i in range(first, len(streams))]
            return slots if col.ndim == 2 else slots[0]

        pieces, order = _layout(_record(cols, placeholder), depth + 1)
        runs = []  # a piece of every record each
        for r in range(0, len(order), _RUN):
            template = "%s".join([pieces[0] if r == 0 else ""] + pieces[r + 1 : r + _RUN + 1])
            runs.append(list(map(template.__mod__, zip(*(streams[i] for i in order[r : r + _RUN])))))
        (head, sep, tail), _ = _split([_slot(0)] * 2, depth)
        out = [head]
        for record in zip(*runs):
            out.extend(record)
            out.append(sep)
        out[-1] = tail  # the last record's separator
        return out

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
        cols = self.columns
        if len(cols["point"]):  # read from the columns: point_records would build every record
            lines.append("  first sampled point:")
            lines.append(f"    point: {np.asarray(cols['point'][0], dtype=float).tolist()}")
            lines.append(f"    scalar_curvature: {float(cols['scalar'][0]):.6g}")
            if "SD_roots" in cols:
                lines.append(f"    SD quartic type: {root_type_string(int(cols['SD_roots'].type_code[0]))}")
                lines.append(f"    ASD quartic type: {root_type_string(int(cols['ASD_roots'].type_code[0]))}")
        return "\n".join(lines)


def dumps_reports(reports: dict) -> str:
    """{name: report} as json.dumps lays out {name: report.to_dict()}, with
    each report's points written from its columns."""
    docs = {name: r._document(_slot(i), True) for i, (name, r) in enumerate(reports.items())}
    parts = [r._points_pieces(2) for r in reports.values()]
    return _filled(docs, parts, lambda: {name: r.to_dict() for name, r in reports.items()})


def _filled(doc, parts: list, whole) -> str:
    """doc laid out by json.dumps, with the pieces of text parts[i] in place
    of _slot(i).  Each slot is in the text once, so more slots found than
    placed means a value of doc reads as one; then whole(), doc with the
    records in place of the slots, is laid out instead."""
    pieces, order = _split(doc, 0)
    if len(order) != len(parts):
        return json.dumps(whole(), sort_keys=True, indent=2)
    out = [pieces[0]]
    for i, literal in zip(order, pieces[1:]):
        out.extend(parts[i])
        out.append(literal)
    return "".join(out)
