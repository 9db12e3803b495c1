import hashlib
import json
import math
import shutil
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from orlicz_hardy import reporting
from orlicz_hardy.cli import main
from orlicz_hardy.reporting import (
    Check,
    canonical_json,
    canonicalize,
    verdict,
    write_report,
)


@pytest.mark.parametrize("lhs, rhs, err_est, tol, expected", [
    (0.0, 0.0, 0.0, 1e-12, "holds"),                      # both sides zero
    (0.0, 1e-301, 1.0, 1e-12, "holds"),                   # both below TINY
    (1.0, 1.0 + 1e-9, 1e-8, 1e-12, "indeterminate"),      # band straddles
    (1.0 + 1e-9, 1.0, 1e-8, 1e-12, "indeterminate"),
    (2.0, math.inf, math.inf, 1e-12, "indeterminate"),    # err_est = inf
    (2.0, 1.0, math.inf, 1e-12, "indeterminate"),
    (1.0 + 1e-13, 1.0, 0.0, 1e-12, "holds"),              # slack within tol
    (1.0 + 1e-11, 1.0, 0.0, 1e-12, "fails"),
    (2.0, 1.0, 1e-3, 1e-12, "fails"),                     # clear fail
])
def test_verdict(lhs, rhs, err_est, tol, expected):
    assert verdict(lhs, rhs, err_est, tol) == expected


def test_check_body_leaves_out_empty_fields():
    check = Check.compare("x", 0.0, 0.0, 0.0, 1e-12, check_id="x:1")
    assert check.as_dict() == {
        "id": "x", "verdict": "holds", "check_id": "x:1", "lhs": 0.0,
        "rhs": 0.0, "slack": 0.0, "tolerance": 1e-12, "err_est": 0.0}


@pytest.mark.parametrize("x", [0.0, -0.0, 0.1, 1.0 / 3.0, -2.5e-308, 5e-324,
                               1.7976931348623157e308, np.float64(0.1)])
def test_canonicalize_returns_finite_floats_bit_for_bit(x):
    out = canonicalize(x)
    assert type(out) is float
    assert struct.pack("<d", out) == struct.pack("<d", x)


@pytest.mark.parametrize("x, expected", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
    (np.float64("nan"), "nan"), (np.float64("-inf"), "-inf"),
])
def test_canonicalize_names_non_finite_floats(x, expected):
    assert canonicalize(x) == expected


def test_report_file_body_bytes_are_what_the_digest_covers(tmp_path):
    body = {"checks": [Check.compare("x", 1.0 / 3.0, math.inf, 0.0, 1e-12,
                                     check_id="x:1").as_dict()],
            "series": {"s": [{"r": 5e-324, "objective": math.nan}]},
            "z": (-0.0, np.float64(2.0) ** 0.5), "a": None}
    path = tmp_path / "report.json"
    write_report(path, body, {"battery_s": {"x": 0.25}})
    raw = path.read_bytes()
    assert raw.startswith(b'{"body":') and raw.endswith(b"}\n") and raw.count(b"\n") == 1
    text = raw[len(b'{"body":'):raw.index(b',"meta":')]
    doc = json.loads(raw)
    assert hashlib.sha256(text).hexdigest() == doc["meta"]["body_sha256"]
    assert text.decode() == canonical_json(body)
    assert doc["body"] == canonicalize(body)
    assert doc["meta"]["battery_s"] == {"x": 0.25}


@dataclass
class Pair:
    a: float
    b: tuple


def slow_canonical_json(body) -> str:
    return json.dumps(canonicalize(body), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("body", [
    {"x": [math.nan, math.inf, -math.inf], "y": 1.0, "z": [-0.0, 5e-324]},
    {"t": (1, (2.5, "s"), ()), "u": [(), None, True, False]},
    {"d": Pair(0.1, (math.nan, 2)), "e": [Pair(-1.0, ())]},
    {"n": {10: "ten", 9: "nine"}, "m": [{11: 1.5, 2: {}}]},
    {"mixed": {10: "a", 9.5: "b", -1: "c"}, "flags": {True: 1, False: 2}, "none": {None: 0.5}},
    {"np": [np.float64(0.1), np.float64("nan"), np.int64(-7), np.bool_(False),
            np.uint8(255)]},
    {"checks": [Check.compare("x", 1.0 / 3.0, 2.0, 0.0, 1e-12, check_id="x:1",
                              details={"k": (1, 2)}).as_dict()]},
    [1, "two", 3.0],
    "just a string",
], ids=["non-finite", "tuples", "dataclass", "int-keys", "mixed-keys", "numpy",
        "check", "list", "str"])
def test_canonical_json_is_json_of_canonicalize(body):
    assert canonical_json(body) == slow_canonical_json(body)


def test_str_and_int_keys_together_cannot_be_sorted_either_way():
    body = {"a": 1, 2: "b"}
    with pytest.raises(TypeError):
        slow_canonical_json(body)
    with pytest.raises(TypeError):
        canonical_json(body)


def test_numpy_integers_and_bools_are_written_as_numbers_and_bools():
    assert canonical_json({"a": np.int64(3), "b": np.bool_(True)}) == '{"a":3,"b":true}'


def test_numpy_floats_are_written_as_numbers_and_non_finite_ones_as_strings():
    body = {"a": np.float32(0.5), "b": np.float16(-2.0), "c": np.float32("nan"),
            "d": np.float16("inf"), "e": np.longdouble("-inf")}
    assert canonical_json(body) == '{"a":0.5,"b":-2.0,"c":"nan","d":"inf","e":"-inf"}'


def test_a_plain_body_is_written_without_canonicalize(monkeypatch):
    body = {"b": [1.0 / 3.0, {"z": None, "a": (True, "s")}], "a": -0.0}
    expected = slow_canonical_json(body)

    def refused(obj):
        raise AssertionError("canonicalize called")

    monkeypatch.setattr(reporting, "canonicalize", refused)
    assert canonical_json(body) == expected


def compare_reports(dir_a, dir_b) -> tuple[int, list]:
    """The exit status and output lines of tests/compare_reports.py."""
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("compare_reports.py")),
                           str(dir_a), str(dir_b)], capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def test_compare_reports_names_each_moved_check(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), "sharpness", "--p", "2.5", "--n", "3",
                 "--alphas", "0,0.5,0.9,0.99"]) == 0
    shutil.copytree(a, b)
    assert compare_reports(a, b) == (0, [])
    # one lhs nudged by 1 ulp, and one check dropped from the copy
    path = b / "sharpness.json"
    doc = json.loads(path.read_text())
    checks = doc["body"]["checks"]
    nudged = next(c for c in checks if isinstance(c["lhs"], float) and c["lhs"] > 0.0)
    lhs = nudged["lhs"]
    nudged["lhs"] = math.nextafter(lhs, math.inf)
    dropped = checks.pop(-1 if checks[-1] is not nudged else 0)
    path.write_text(json.dumps(doc))
    move = (nudged["lhs"] - lhs) / nudged["lhs"]
    status, lines = compare_reports(a, b)
    assert status == 1
    assert sorted(lines) == sorted([
        f"sharpness.json {nudged['check_id']}: lhs moved {move:.3g} relative",
        f"sharpness.json {dropped['check_id']}: only in {a}"])
    # and the fits of an lk report: one fit's binding edited, another's C1
    # doubled and its feasible flipped, a third dropped from the copy
    c, d = tmp_path / "c", tmp_path / "d"
    assert main(["--out", str(c), "lk", "--nfunc", "p2", "--dim", "1..2"]) == 0
    shutil.copytree(c, d)
    assert compare_reports(c, d) == (0, [])
    path = d / "lk.json"
    doc = json.loads(path.read_text())
    fits = doc["body"]["fits"]
    edited, doubled, dropped = sorted(fits)[:3]
    fits[edited]["binding"] = "edited"
    fits[doubled]["C1"] *= 2.0
    fits[doubled]["feasible"] = not fits[doubled]["feasible"]
    del fits[dropped]
    path.write_text(json.dumps(doc))
    assert compare_reports(c, d) == (1, [
        f"lk.json fit {edited}: binding differs",
        f"lk.json fit {doubled}: C1 moved 0.5 relative; feasible differs",
        f"lk.json fit {dropped}: only in {c}"])
