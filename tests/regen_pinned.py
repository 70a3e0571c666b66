"""Report how the pinned outputs move under the current code, writing none.

Reruns every `tests/test_golden.py` case and every seed-0 command of the
benchmark workloads through `cli.main` into a scratch directory, and checks
each output file against its pinned copy by the rule the tier-1 tests apply:
byte for byte for a golden, `checks.compare_to_reference` (numbers to 1e-9
relative) for `benchmark/reference/`.  Prints Markdown: for each file whose
values moved, one row per CSV column or JSON key with the number of values
changed, the largest absolute and relative change, and the first t at which
a value changed.  Exits 1 when some file fails its rule, else 0.

    PYTHONPATH=src python tests/regen_pinned.py [SCRATCH_DIR]

Regenerating stays with `python tests/test_golden.py tests/golden` and
`python3 benchmark/run.py --write-reference`.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import test_golden
from conftest import load_benchmark_module
from tvdecay.cli import main

checks = load_benchmark_module("checks")
workloads = load_benchmark_module("workloads")
REFERENCE = Path(__file__).parents[1] / "benchmark" / "reference"


def _leaves(doc, path=""):
    """(key, value) of each JSON leaf; a list's entries share its key + '[]'."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(doc, list):
        for v in doc:
            yield from _leaves(v, path + "[]")
    else:
        yield path, doc


def _series(name: str, data: bytes) -> dict:
    """{CSV column or JSON key: [(t or None, value), ...]} of one output."""
    if name.endswith(".json"):
        out = {}
        for key, v in _leaves(json.loads(data)):
            out.setdefault(key, []).append((None, v))
        return out
    _, cols = checks.read_csv(data)
    t = cols.get("t", [None] * len(next(iter(cols.values()), [])))
    return {col: list(zip(t, vals)) for col, vals in cols.items()}


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _moved(a, b) -> bool:
    both_nan = _number(a) and _number(b) and math.isnan(a) and math.isnan(b)
    return not both_nan and (type(a) is not type(b) or a != b)


def _row(key: str, ref: list, new: list) -> str:
    """The Markdown row of one column or key, '' when nothing moved."""
    if len(ref) != len(new):
        return f"| {key} | {len(ref)} -> {len(new)} values | | | |\n"
    moved = [(t, a, b) for (t, a), (_, b) in zip(ref, new) if _moved(a, b)]
    if not moved:
        return ""
    num = [(abs(b - a), max(abs(a), abs(b))) for _, a, b in moved if _number(a) and _number(b)]
    big = f"{max(d for d, _ in num):.3g}" if num else ""
    rel = f"{max(d / m for d, m in num if m > 0):.3g}" if num else ""
    first = "" if moved[0][0] is None else f"{moved[0][0]:.17g}"
    return f"| {key} | {len(moved)} | {big} | {rel} | {first} |\n"


def _table(name: str, ref: bytes, new: bytes) -> str:
    """The per-column or per-key rows of one file, '' when no value moved."""
    a, b = _series(name, ref), _series(name, new)
    rows = "".join(_row(k, a.get(k, []), b.get(k, [])) for k in dict.fromkeys([*a, *b]))
    if not rows:
        return ""
    return ("| column or key | changed | max abs | max rel | first t |\n"
            "|---|---|---|---|---|\n" + rows)


def _report(title: str, runs: list, passes) -> bool:
    """Print one section; runs holds (label, code, [(file, pinned, new)]).
    Returns True when every file passes `passes(file, pinned, new)`."""
    ok, lines = True, []
    for label, code, files in runs:
        if code != 0:
            ok = False
            lines.append(f"### {label}: exited {code}\n")
            continue
        for fname, ref, new in files:
            good = new is not None and passes(fname, ref, new)
            ok &= good
            table = "" if new is None else _table(fname, ref, new)
            if not good or table:
                verdict = "missing" if new is None else "passes" if good else "fails"
                lines.append(f"### {label}/{fname}: {verdict}\n\n{table}")
    n = sum(len(files) for _, _, files in runs)
    print(f"## {title}: {'every file passes' if ok else 'some file fails'} "
          f"({n} files, {len(lines)} listed)\n")
    print("\n".join(lines))
    return ok


def _read(path: Path):
    return path.read_bytes() if path.exists() else None


def main_report(scratch: Path) -> int:
    golden = []
    for case in sorted(test_golden.CASES):
        out = scratch / "golden" / case
        code = test_golden.run_case(case, out)
        golden.append((case, code, [(f, (test_golden.GOLDEN / case / f).read_bytes(),
                                     _read(out / f))
                                    for f in test_golden.OUTPUTS[test_golden.CASES[case][0]]]))
    reference = []
    for name in sorted(workloads.WORKLOADS):
        for cmd in workloads.build(name, 0).commands:
            out = scratch / "reference" / name / cmd.id
            out.mkdir(parents=True, exist_ok=True)
            (out / "scenario.cfg").write_text(workloads.render(cmd.config))
            code = main(cmd.argv(str(out / "scenario.cfg"), str(out / "out")))
            reference.append((f"{name}/{cmd.id}", code, [
                (f, (REFERENCE / name / cmd.id / f).read_bytes(), _read(out / "out" / f))
                for f in cmd.outputs]))
    print("# Pinned outputs against the current code\n")
    ok = _report("Goldens, byte for byte", golden, lambda f, ref, new: ref == new)
    ok &= _report("Seed-0 benchmark reference, numbers to 1e-9 relative", reference,
                  lambda f, ref, new: not checks.compare_to_reference(f, ref, new))
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(main_report(Path(sys.argv[1])))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(main_report(Path(tmp)))
