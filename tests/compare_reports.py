"""Print the checks whose numbers moved between two directories of reports.

    python tests/compare_reports.py DIR_A DIR_B

A report is a ``*.json`` file with a ``body``, at any depth under each
directory.  For each report both directories hold, at the same relative
path, one line is printed per check id whose ``lhs``, ``rhs``, ``err_est``
or a numeric ``constants_used`` entry differs, naming the field with the
largest relative move and the move; and one line per check id, or report,
that only one side holds.  The move is |a - b| / max(|a|, |b|), and inf
where a value is missing or non-finite on one side only.  No output, and
exit status 0, means no check moved; otherwise the status is 1.

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


def _reports(root: Path) -> dict:
    """relative path -> {check id: check} of each report under root."""
    reports = {}
    for path in sorted(root.rglob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and "checks" in doc.get("body", {}):
            reports[path.relative_to(root).as_posix()] = {
                check["check_id"]: check for check in doc["body"]["checks"]}
    return reports


def compare(dir_a, dir_b) -> list[str]:
    """The lines `main` prints for dir_a against dir_b."""
    a_reports, b_reports = _reports(Path(dir_a)), _reports(Path(dir_b))
    lines = []
    for rel in sorted(a_reports.keys() | b_reports.keys()):
        if rel not in b_reports or rel not in a_reports:
            lines.append(f"{rel}: only in {dir_a if rel in a_reports else dir_b}")
            continue
        a, b = a_reports[rel], b_reports[rel]
        for check_id in sorted(a.keys() | b.keys()):
            if check_id not in b or check_id not in a:
                lines.append(f"{rel} {check_id}: only in {dir_a if check_id in a else dir_b}")
                continue
            va, vb = _values(a[check_id]), _values(b[check_id])
            move, name = max((relative_move(va.get(key), vb.get(key)), key)
                             for key in va.keys() | vb.keys())
            if move > 0.0:
                lines.append(f"{rel} {check_id}: {name} moved {move:.3g} relative")
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
