"""Machine-readable run reports with reproducible canonical serialisation.

Report files carry two top-level sections: `meta` (timestamps, argv; free to
vary between runs) and `body` (everything the verification produced).  The
body is written once, in canonical form -- sorted keys, no spaces, floats in
Python's shortest round-trip repr, non-finite floats as the strings "nan",
"inf" and "-inf" -- so identical runs produce byte-identical bodies.  json's
C encoder writes that form itself whenever the body has nothing to
canonicalise (`canonical_json`), which is the common case.  The file is one
line, and its body bytes are exactly what `meta.body_sha256` hashes.

Every battery reports its outcomes as `Check` records, and every comparison
of a left-hand side against a right-hand side gets its verdict from
`verdict`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

__all__ = ["Check", "verdict", "canonicalize", "canonical_json", "body_digest",
           "write_report", "summarize_verdicts"]

TOOL_VERSION = "0.1.0"
TINY = 1e-300  # sides at or below this magnitude count as zero


def verdict(lhs: float, rhs: float, err_est: float, tol: float) -> str:
    """Does lhs <= rhs hold?  `indeterminate` whenever the error band
    err_est straddles the decision boundary, never coerced to a pass."""
    slack = rhs - lhs
    if abs(lhs) <= TINY and abs(rhs) <= TINY:
        return "holds"
    if err_est > 0.0 and abs(slack) <= err_est:
        return "indeterminate"
    return "holds" if slack >= -tol else "fails"


@dataclass
class Check:
    """One check of a report; the fields are the check items of
    `docs/report-schema.json`."""

    id: str
    verdict: str
    check_id: str = ""
    lhs: float | None = None
    rhs: float | None = None
    slack: float | None = None
    tolerance: float | None = None
    err_est: float | None = None
    constants_used: dict = field(default_factory=dict)
    nfunc_label: str = ""
    subject_label: str = ""
    n: int | None = None
    normalization: str | None = None
    theta: float | None = None
    rhs_terms: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @classmethod
    def compare(cls, id: str, lhs: float, rhs: float, err_est: float, tol: float,
                **fields) -> "Check":
        """The check of lhs <= rhs, with its slack and `verdict`."""
        return cls(id, verdict(lhs, rhs, err_est, tol), lhs=lhs, rhs=rhs,
                   slack=rhs - lhs, tolerance=tol, err_est=err_est, **fields)

    def require_converged(self, converged: bool, reason: str) -> "Check":
        """The check itself, made `indeterminate` with details.reason when an
        integral it rests on did not converge."""
        if not converged:
            self.verdict = "indeterminate"
            self.details["reason"] = reason
        return self

    def as_dict(self) -> dict:
        """The report body's form: fields that are None or empty left out.
        The values are the check's own, not copies."""
        return {name: v for name in _CHECK_FIELDS
                if (v := getattr(self, name)) not in (None, "", {})}


_CHECK_FIELDS = tuple(f.name for f in fields(Check))


def canonicalize(obj):
    """Recursively normalise a JSON-ish structure for byte-stable dumps."""
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if is_dataclass(obj):
        return canonicalize(asdict(obj))
    return canonicalize(str(obj))


# json's C encoder: it writes a `_plain` body as canonicalize has it written
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
_SCALARS = frozenset({str, int, bool, type(None)})


def _plain(obj) -> bool:
    """Whether obj is built of dicts with str keys, lists and tuples, down to
    str, int, bool, None and finite floats, each of exactly that type: what
    json writes as canonicalize has it written (json writes an int key as
    canonicalize does, but sorts it by number, not by its string)."""
    stack = [obj]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is float:
            if not math.isfinite(item):
                return False
        elif kind is dict:
            for key in item:
                if type(key) is not str:
                    return False
            stack.extend(item.values())
        elif kind is list or kind is tuple:
            stack.extend(item)
        elif kind not in _SCALARS:
            return False
    return True


def canonical_json(body) -> str:
    """json.dumps(canonicalize(body), sort_keys=True, separators=(",", ":")):
    from json's C encoder when the body is `_plain`, through `canonicalize`
    when it holds a non-str key, a non-finite float, a numpy scalar, a
    dataclass or anything else json would write differently."""
    if _plain(body):
        return _ENCODE(body)
    return json.dumps(canonicalize(body), sort_keys=True, separators=(",", ":"))


def body_digest(body) -> str:
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def summarize_verdicts(checks) -> dict:
    counts = {"holds": 0, "fails": 0, "indeterminate": 0, "trivial": 0}
    for check in checks:
        counts[check.verdict] = counts.get(check.verdict, 0) + 1
    return counts


def write_report(path, body: dict, extra_meta: dict | None = None) -> None:
    """Write the one-line JSON document {"body": ..., "meta": ...}.  The body
    is serialised once, as its canonical JSON, and `meta.body_sha256` is the
    digest of exactly those bytes; extra_meta (argv, say) joins the meta."""
    text = canonical_json(body)
    meta = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "body_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    if extra_meta:
        meta.update(extra_meta)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{{"body":{text},"meta":{json.dumps(meta, sort_keys=True)}}}\n')
