"""Reference outputs and the check of a job's output against them.

A job's output is the JSON a user gets: one report, or for ``family --name
cp`` an object of two reports keyed by instance name.  For each job the
reference holds the SHA-256 of its timestamp-free JSON, its verdicts, flags
and root type strings, and every number in it (in a fixed walk order) in an
``.npz`` file.

A job fails the check if its verdict, a flag, a root type or the shape of its
numbers differs, or if any number x differs from its reference r by more than
1e-9 * max(1, |r|).  It is identical only if the digests are equal.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# Keys that carry no analysis result: the timestamp, and the diagnostics
# block that ROADMAP item A adds and excludes from byte identity.
VOLATILE_KEYS = ("generated_at", "diagnostics")
RTOL = 1e-9

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def reports(doc: dict) -> dict:
    """The reports in one job output, by instance name ('' for a single one)."""
    if "verdict" in doc:
        return {"": doc}
    return dict(doc)


def timestamp_free(doc: dict) -> str:
    stripped = {
        name: {k: v for k, v in rep.items() if k not in VOLATILE_KEYS} for name, rep in reports(doc).items()
    }
    body = stripped[""] if list(stripped) == [""] else stripped
    return json.dumps(body, sort_keys=True, indent=2)


def digest(doc: dict) -> str:
    return hashlib.sha256(timestamp_free(doc).encode()).hexdigest()


def numbers(doc: dict):
    """(path, value) of every number in the timestamp-free output."""
    out = []

    def walk(node, path):
        if isinstance(node, bool) or node is None or isinstance(node, str):
            return
        if isinstance(node, (int, float)):
            out.append((path, float(node)))
        elif isinstance(node, dict):
            for key in sorted(node):
                if key not in VOLATILE_KEYS:
                    walk(node[key], f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, f"{path}[{i}]")

    for name, rep in sorted(reports(doc).items()):
        walk(rep, name)
    return out


def summary(doc: dict) -> dict:
    """Verdicts, flags and root type strings, by report name."""
    out = {"verdicts": {}, "flags": {}, "root_types": {}}
    for name, rep in reports(doc).items():
        out["verdicts"][name] = rep.get("verdict")
        out["flags"][name] = rep.get("flags")
        types = []
        for rec in rep.get("points", []):
            for side in ("quartic_sd", "quartic_asd"):
                if side in rec:
                    types.append(rec[side]["roots"]["type"])
        out["root_types"][name] = " ".join(types)
    return out


def refs_stem(workload: str, tiny: bool) -> str:
    return os.path.join(REFS_DIR, workload + ("-tiny" if tiny else ""))


def save(workload: str, tiny: bool, meta: dict, entries: dict) -> None:
    """entries: key -> parsed job output."""
    jobs, arrays = {}, {}
    for key, doc in entries.items():
        jobs[key] = {"digest": digest(doc), **summary(doc)}
        arrays[key] = np.array([v for _, v in numbers(doc)], dtype=np.float64)
    stem = refs_stem(workload, tiny)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**meta, "jobs": jobs}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    np.savez_compressed(stem + ".npz", **arrays)


class References:
    def __init__(self, workload: str, tiny: bool):
        stem = refs_stem(workload, tiny)
        with open(stem + ".json", encoding="utf-8") as fh:
            self.meta = json.load(fh)
        self.jobs = self.meta.pop("jobs")
        with np.load(stem + ".npz") as npz:
            self.values = {key: npz[key] for key in npz.files}

    def check(self, key: str, doc: dict):
        """(passed, identical, first mismatch or None) of one job output."""
        if key not in self.jobs:
            return False, False, f"{key}: no reference for this job"
        ref = self.jobs[key]
        if digest(doc) == ref["digest"]:
            return True, True, None
        got = summary(doc)
        for field in ("verdicts", "flags", "root_types"):
            for name, want in ref[field].items():
                have = got[field].get(name)
                if have != want:
                    detail = _first_diff(have, want) if field != "verdicts" else f"{have!r} != {want!r}"
                    return False, False, f"{key}: {field}[{name!r}] differs: {detail}"
        nums = numbers(doc)
        want = self.values[key]
        if len(nums) != len(want):
            return False, False, f"{key}: {len(nums)} numbers, reference has {len(want)}"
        have = np.array([v for _, v in nums])
        bad = np.abs(have - want) > RTOL * np.maximum(1.0, np.abs(want))
        bad &= ~(np.isnan(have) & np.isnan(want))
        bad |= np.isnan(have) != np.isnan(want)
        if bad.any():
            i = int(np.argmax(bad))
            return False, False, f"{key}: {nums[i][0]} = {have[i]!r}, reference {want[i]!r}"
        return True, False, None


def _first_diff(have, want) -> str:
    if isinstance(want, dict) and isinstance(have, dict):
        for k in sorted(set(want) | set(have)):
            if have.get(k) != want.get(k):
                return f"{k}: {have.get(k)!r} != {want.get(k)!r}"
    if isinstance(want, str) and isinstance(have, str):
        a, b = have.split(), want.split()
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return f"entry {i}: {x!r} != {y!r}"
        return f"{len(a)} entries != {len(b)}"
    return f"{have!r} != {want!r}"
