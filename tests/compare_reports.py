"""Print the checks and fits that moved between two directories of reports.

    python tests/compare_reports.py DIR_A DIR_B

A report is a ``*.json`` file with a ``body``, at any depth under each
directory.  For each report both directories hold, at the same relative
path, one line is printed per check id whose ``lhs``, ``rhs``, ``err_est``
or a numeric ``constants_used`` entry differs, naming the field with the
largest relative move and the move; one line per fit whose ``C1`` or
``C2`` moved, named the same way, or whose ``binding``, ``feasible``,
``corpus`` or ``grid`` differs, naming each; and one line per check id,
fit or report that only one side holds.  The move is |a - b| / max(|a|,
|b|), and inf where a value is missing or non-finite on one side only.  No
output, and exit status 0, means nothing moved; otherwise the status is 1.

Verdicts are held by the ledger (``tests/data/verdicts.json``); this lists
the values behind them, for the moved-check records a change writes.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

FIELDS = ("lhs", "rhs", "err_est")


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def relative_move(a, b) -> float:
    """0 for equal values (the report's "inf" strings among them),
    |a - b| / max(|a|, |b|) for two finite numbers, inf otherwise."""
    if a == b:
        return 0.0
    if _number(a) and _number(b) and math.isfinite(a) and math.isfinite(b):
        return abs(a - b) / max(abs(a), abs(b))
    return math.inf


def _values(check: dict) -> dict:
    values = {name: check.get(name) for name in FIELDS}
    values.update((f"constants_used.{key}", value)
                  for key, value in check.get("constants_used", {}).items() if _number(value))
    return values


def _largest_move(a: dict, b: dict, keys) -> list[str]:
    """The key whose values in a and b moved most, and its relative move,
    if any moved."""
    move, name = max((relative_move(a.get(key), b.get(key)), key) for key in keys)
    return [f"{name} moved {move:.3g} relative"] if move > 0.0 else []


def _check_moves(a: dict, b: dict) -> list[str]:
    va, vb = _values(a), _values(b)
    return _largest_move(va, vb, va.keys() | vb.keys())


def _fit_moves(a: dict, b: dict) -> list[str]:
    return _largest_move(a, b, ("C1", "C2")) + [
        f"{key} differs" for key in ("binding", "feasible", "corpus", "grid")
        if a.get(key) != b.get(key)]


def _reports(root: Path) -> dict:
    """relative path -> {"checks": {check id: check}, "fits": {fit id: fit}}
    of each report under root."""
    reports = {}
    for path in sorted(root.rglob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and "checks" in doc.get("body", {}):
            body = doc["body"]
            reports[path.relative_to(root).as_posix()] = {
                "checks": {check["check_id"]: check for check in body["checks"]},
                "fits": body.get("fits", {})}
    return reports


def compare(dir_a, dir_b) -> list[str]:
    """The lines `main` prints for dir_a against dir_b."""
    a_reports, b_reports = _reports(Path(dir_a)), _reports(Path(dir_b))
    lines = []
    for rel in sorted(a_reports.keys() | b_reports.keys()):
        if rel not in b_reports or rel not in a_reports:
            lines.append(f"{rel}: only in {dir_a if rel in a_reports else dir_b}")
            continue
        for kind, prefix, moves in (("checks", "", _check_moves), ("fits", "fit ", _fit_moves)):
            a, b = a_reports[rel][kind], b_reports[rel][kind]
            for key in sorted(a.keys() | b.keys()):
                if key not in b or key not in a:
                    lines.append(f"{rel} {prefix}{key}: only in {dir_a if key in a else dir_b}")
                elif moved := moves(a[key], b[key]):
                    lines.append(f"{rel} {prefix}{key}: {'; '.join(moved)}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tests/compare_reports.py DIR_A DIR_B", file=sys.stderr)
        return 2
    lines = compare(*args)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
