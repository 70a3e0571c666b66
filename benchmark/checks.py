"""Checks on the CLI's outputs.  Each returns a list of problems; an empty
list means the output passed.

Reference outputs are compared value by value: strings and structure must
match exactly, numbers to a relative 1e-9 (so a change that only reorders
floating-point arithmetic still passes, while a wrong result does not).
Byte-identity is checked separately, between two runs of one config.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12
# provenance fields that legitimately change between versions of the program
IGNORED_JSON_KEYS = {("provenance", "tool_version")}


def read_csv(data: bytes) -> tuple:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows:
        raise ValueError("empty CSV")
    header, body = rows[0], rows[1:]
    cols = {name: [float(r[i]) for r in body] for i, name in enumerate(header)}
    return header, cols


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def _compare_json(ref, out, path: tuple, problems: list) -> None:
    if path in IGNORED_JSON_KEYS:
        return
    where = ".".join(path) or "<root>"
    if isinstance(ref, dict) and isinstance(out, dict):
        if set(ref) != set(out):
            problems.append(f"{where}: keys {sorted(out)} != reference {sorted(ref)}")
            return
        for k in ref:
            _compare_json(ref[k], out[k], path + (k,), problems)
    elif isinstance(ref, list) and isinstance(out, list):
        if len(ref) != len(out):
            problems.append(f"{where}: length {len(out)} != reference {len(ref)}")
            return
        for i, (a, b) in enumerate(zip(ref, out)):
            _compare_json(a, b, path + (str(i),), problems)
    elif (isinstance(ref, (int, float)) and isinstance(out, (int, float))
          and not isinstance(ref, bool) and not isinstance(out, bool)):
        if not _close(float(ref), float(out)):
            problems.append(f"{where}: {out!r} != reference {ref!r}")
    elif ref != out:
        problems.append(f"{where}: {out!r} != reference {ref!r}")


def compare_to_reference(name: str, ref: bytes, out: bytes) -> list:
    """Problems found comparing one output file with its reference."""
    problems = []
    if name.endswith(".json"):
        _compare_json(json.loads(ref), json.loads(out), (), problems)
    else:
        ref_header, ref_cols = read_csv(ref)
        header, cols = read_csv(out)
        if header != ref_header:
            return [f"header {header} != reference {ref_header}"]
        for col in header:
            a, b = ref_cols[col], cols[col]
            if len(a) != len(b):
                return [f"{len(b)} rows != reference {len(a)}"]
            bad = [i for i, (x, y) in enumerate(zip(a, b)) if not _close(x, y)]
            if bad:
                i = bad[0]
                problems.append(f"column {col}: {len(bad)} values differ, first at "
                                f"row {i}: {b[i]!r} != reference {a[i]!r}")
    return [f"{name}: {p}" for p in problems]


def sanity(verb: str, outputs: dict) -> list:
    """Invariants that hold for any seed: finite curves, TV and bounds in
    [0, 2], save times increasing, and (compare) every envelope above the
    measured TV at every save."""
    problems = []
    if "curves.csv" in outputs:
        try:
            header, cols = read_csv(outputs["curves.csv"])
        except ValueError as exc:
            return [f"curves.csv: {exc}"]
        for name, vals in cols.items():
            if not all(math.isfinite(v) for v in vals):
                problems.append(f"curves.csv: column {name} is not finite")
            elif (name == "tv" or name.startswith("bound_")) and not all(
                    -1e-12 <= v <= 2.0 for v in vals):
                problems.append(f"curves.csv: column {name} leaves [0, 2]")
        t = cols.get("t", [])
        if not t or any(b <= a for a, b in zip(t, t[1:])):
            problems.append("curves.csv: t is empty or not increasing")
    if verb == "compare":
        summary = json.loads(outputs["summary.json"])
        for env, rec in summary["envelopes"].items():
            if rec["domination_fraction"] != 1.0:
                problems.append(f"summary.json: {env} dominates TV at only "
                                f"{rec['domination_fraction']:.4f} of saves")
    if verb == "analyze":
        json.loads(outputs["constants.json"])
    return problems


def tv_at(curves: bytes, times: tuple) -> list:
    """TV column of a curves.csv at the given save times."""
    _, cols = read_csv(curves)
    out = []
    for t in times:
        i = min(range(len(cols["t"])), key=lambda k: abs(cols["t"][k] - t))
        if abs(cols["t"][i] - t) > 1e-9:
            raise ValueError(f"no save at t = {t}")
        out.append((cols["t"][i], cols["tv"][i]))
    return out
