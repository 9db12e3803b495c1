import math

import pytest

from orlicz_hardy.reporting import Check, verdict


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
