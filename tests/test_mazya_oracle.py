"""Maz'ya's constant of the Gaussian pair against its closed form.

For dmu = r^p dmu_n and dnu = dmu_n on (0, oo), with q = p > n, m = p + n - 1,
a = (n - 1)/(p - 1) and c = 1/(2(p - 1)):

    mu([r, oo)) = int_r^oo x^m e^(-x^2/2) dx = 2^((m-1)/2) Gamma((m+1)/2, r^2/2),
    I(r) = int_0^r x^(-a) e^(c x^2) dx = r^(1-a)/(1-a) M((1-a)/2, (3-a)/2, c r^2),

M being Kummer's function 1F1 (termwise: M(s, s+1, z) = sum_k s/(s+k) z^k/k!).
B = sup_r mu([r, oo))^(1/p) I(r)^((p-1)/p) is taken at 30 digits: a scan of
the grid `mazya_B` sweeps, then `mpmath.findroot` on the objective's
log-derivative between the grid neighbours of the scan's best point.
"""

import math

import mpmath
import pytest

from orlicz_hardy import mazya as mazya_mod
from orlicz_hardy.mazya import gaussian_pair, mazya_B
from orlicz_hardy.quadrature import MAX_RADIUS

# p > n, from p = 1.5 to 300; the large-p pairs' grids end at MAX_RADIUS
PAIRS = [(1.5, 1), (2.0, 1), (3.0, 1), (10.0, 1), (150.0, 1), (300.0, 1),
         (2.5, 2), (4.0, 2), (250.0, 2), (3.5, 3), (6.0, 3), (150.0, 3)]


def closed_form_B(p, n, rs):
    """(B, argmax) of the Gaussian pair at 30 digits, the maximum bracketed by
    the neighbours of the best point of the grid rs."""
    with mpmath.workdps(30):
        p, n = mpmath.mpf(p), mpmath.mpf(n)
        m, a, c = p + n - 1, (n - 1) / (p - 1), 1 / (2 * (p - 1))

        def tail(r):
            return 2 ** ((m - 1) / 2) * mpmath.gammainc((m + 1) / 2, r * r / 2)

        def inner(r):
            return r ** (1 - a) / (1 - a) * mpmath.hyp1f1((1 - a) / 2, (3 - a) / 2, c * r * r)

        def log_objective(r):
            return mpmath.log(tail(r)) / p + (p - 1) / p * mpmath.log(inner(r))

        def slope(r):
            return (-r ** m * mpmath.exp(-r * r / 2) / (p * tail(r))
                    + (p - 1) / p * r ** -a * mpmath.exp(c * r * r) / inner(r))

        grid = [mpmath.mpf(r) for r in rs]
        i = max(range(len(grid)), key=lambda k: log_objective(grid[k]))
        assert 0 < i < len(grid) - 1, "the maximum must lie inside the grid"
        r = mpmath.findroot(slope, (grid[i - 1], grid[i + 1]), solver="anderson")
        return float(mpmath.exp(log_objective(r))), float(r)


@pytest.mark.parametrize("p, n", PAIRS, ids=[f"p{p:g}-n{n}" for p, n in PAIRS])
def test_B_and_its_argmax_match_the_closed_form(p, n):
    pair = gaussian_pair(p, n)
    _, rs = mazya_mod._log_grid(pair, 240)
    B, argmax = closed_form_B(p, n, rs.tolist())
    res = mazya_B(pair)
    assert not res.divergent and res.converged, res.reason
    assert math.isclose(res.B, B, rel_tol=1e-14, abs_tol=0.0), (res.B, B)
    assert math.isclose(res.argmax_r, argmax, rel_tol=1e-6, abs_tol=0.0), (res.argmax_r, argmax)


def test_the_pairs_include_grids_capped_at_max_radius():
    capped = [(p, n) for p, n in PAIRS if gaussian_pair(p, n).grid_hi == MAX_RADIUS]
    assert len(capped) >= 3 and len(capped) < len(PAIRS)
