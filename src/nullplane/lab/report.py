"""Report assembly: per-point records, aggregate flags, and the
locally-conformally-two-sided verdict."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .. import __version__
from ..weylalg import ROOT_KINDS, RootTable, root_type_string


_escape = json.encoder.encode_basestring_ascii  # the string encoder of json.dumps
_float_repr = float.__repr__
_CONTAINERS = (list, tuple, dict)
# Most values per piece of a record's text.  Pieces this short stay in
# Python's small-object allocator, so the one large string a report makes is
# its text, as with dumps_json; 1000 record strings of 2 kB each raised the
# benchmark's peak RSS by 3-5 MB.
_RUN = 6


class _Text:
    """A value that dumps_json writes as it stands: text already laid out."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


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
    if isinstance(o, _Text):
        return o.text
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    """A dict key that is not a str, as json.dumps writes it."""
    if isinstance(k, _CONTAINERS):
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return _escape(_atom(k))


def dumps_json(obj, depth: int = 0) -> str:
    """The one JSON layout of every report and listing nullplane prints: the
    bytes json.dumps writes with sorted keys and an indent of two spaces,
    for obj nested depth levels deep.  With an indent, json.dumps runs its
    pure-Python encoder; this writer keeps one string per line break and
    depth, writes a scalar with its key and a list of floats in one
    str.join, and joins all pieces once."""
    out: list = []
    put = out.append
    breaks = ["\n" + "  " * d for d in range(depth + 1)]  # "\n" and two spaces per depth
    seps = ["," + b for b in breaks]

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
    write(obj, depth)
    return "".join(out)


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


def _roots_record(code: int, kinds: list, mults: list, re: list, im: list) -> dict:
    """The roots part of a record from one row of a RootTable: its type
    code, and its entries' kind codes, multiplicities and value parts."""
    entries = []
    for k, m, x, y in zip(kinds, mults, re, im):
        if k >= 0:
            kind = ROOT_KINDS[k]
            value = x if kind == "real" else [x, y] if kind == "complex_pair" else None
            entries.append({"kind": kind, "value": value, "multiplicity": m})
    return {"type": root_type_string(code), "roots": entries}


def _root_records(table: RootTable) -> list:
    rows = (table.type_code, table.kind, table.multiplicity, table.value.real, table.value.imag)
    return [_roots_record(*row) for row in zip(*(a.tolist() for a in rows))]


def _slot(i: int) -> _Text:
    """Placeholder i of a template; dumps_json writes a NUL nowhere else, as
    it escapes control characters."""
    return _Text(f"\x00{i}\x00")


def _layout(doc, depth: int) -> tuple:
    """(pieces, order) of doc as dumps_json writes it at depth: doc holds
    _slot(i) placeholders; pieces are the text around them, escaped for
    %-formatting, and order lists their i as the text meets them."""
    parts = dumps_json(doc, depth).split("\x00")
    return [piece.replace("%", "%%") for piece in parts[0::2]], [int(i) for i in parts[1::2]]


def _as_written(col) -> list:
    """col itself if %s writes each value as dumps_json does (all are
    finite floats), else each value as dumps_json writes it."""
    if set(map(type, col)) <= {float} and math.isfinite(sum(col)):
        return col
    return [_atom(v) for v in col]


def _roots_json(table: RootTable, depth: int) -> list:
    """Each point's roots part as dumps_json writes it at depth: one
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
        values = values.tolist() if np.all(np.isfinite(values)) else [list(map(_atom, v)) for v in values.tolist()]
        for p, row in zip(rows.tolist(), values):
            texts[p] = template % tuple(row)
    return texts


@dataclass
class Report:
    """An analysis's configuration echo, calibration constant, per-point
    columns, flags and verdict.  The columns are lists whose i-th item
    belongs to point i (the residuals keyed (distribution, kind)), and a
    RootTable per side; to_json writes the points from them directly."""

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
            key: _root_records(col) if isinstance(col, RootTable) else col for key, col in self.columns.items()
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
        return _filled(self._document(_slot(0), with_timestamp), [self._points_pieces(1)])

    def _points_pieces(self, depth: int) -> list:
        """The points list as dumps_json writes it at depth, from the
        columns, as pieces of text: each record's fixed part in runs of at
        most _RUN values, each run from one template, and its roots parts
        (see _roots_json)."""
        cols = self.columns
        count = len(cols["point"])
        if not count:
            return ["[]"]
        sources = []  # slot i -> (column key, item of a list value or None)

        def placeholder(key):  # a slot for the value, or one per item of a list
            first = cols[key][0]
            items = range(len(first)) if isinstance(first, list) else [None]
            slots = []
            for item in items:
                slots.append(_slot(len(sources)))
                sources.append((key, item))
            return slots if isinstance(first, list) else slots[0]

        pieces, order = _layout(_record(cols, placeholder), depth + 1)
        flat = {}
        for key in dict.fromkeys(key for key, _ in sources):
            col = cols[key]
            if isinstance(col, RootTable):
                flat[key, None] = _roots_json(col, depth + 3)  # record, quartic, roots
            elif isinstance(col[0], list):
                flat.update(((key, j), _as_written(c)) for j, c in enumerate(zip(*col)))
            else:
                flat[key, None] = _as_written(col)
        streams, template, run = [], pieces[0], []  # streams: a piece of every record each

        def close():
            if run or template:
                streams.append(list(map(template.__mod__, zip(*run))) if run else [template % ()] * count)

        for i, piece in zip(order, pieces[1:]):
            key, item = sources[i]
            if isinstance(cols[key], RootTable):
                close()
                streams.append(flat[key, None])
                template, run = piece, []
            else:
                template += "%s" + piece
                run.append(flat[key, item])
                if len(run) == _RUN:
                    close()
                    template, run = "", []
        close()
        head, sep, tail = dumps_json([_slot(0)] * 2, depth).split("\x000\x00")
        out = [head]
        for p, record in enumerate(zip(*streams)):
            if p:
                out.append(sep)
            out.extend(record)
        out.append(tail)
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
        if cols["point"]:  # read from the columns: point_records would build every record
            lines.append("  first sampled point:")
            lines.append(f"    point: {cols['point'][0]}")
            lines.append(f"    scalar_curvature: {cols['scalar'][0]:.6g}")
            if "SD_roots" in cols:
                lines.append(f"    SD quartic type: {root_type_string(int(cols['SD_roots'].type_code[0]))}")
                lines.append(f"    ASD quartic type: {root_type_string(int(cols['ASD_roots'].type_code[0]))}")
        return "\n".join(lines)


def dumps_reports(reports: dict) -> str:
    """{name: report} as dumps_json writes {name: report.to_dict()}, with
    each report's points written from its columns."""
    docs = {name: r._document(_slot(i), True) for i, (name, r) in enumerate(reports.items())}
    return _filled(docs, [r._points_pieces(2) for r in reports.values()])


def _filled(doc, parts: list) -> str:
    """dumps_json(doc) with the pieces of text parts[i] in place of _slot(i)."""
    text = dumps_json(doc).split("\x00")
    out = [text[0]]
    for i, literal in zip(text[1::2], text[2::2]):
        out.extend(parts[int(i)])
        out.append(literal)
    return "".join(out)
