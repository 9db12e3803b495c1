import math

import pytest

from orlicz_hardy.errors import EvaluationError, PreconditionError
from orlicz_hardy.functionals import modular_triple_radial
from orlicz_hardy.nfunc import power_nfunction
from orlicz_hardy.sharpness import (
    ExtremalParams,
    c1_lower_bound,
    c2_infeasibility_scan,
    extremal_function,
    extremal_moments,
    stirling_ratio,
)


class TestExtremalFunction:
    def test_alpha_zero_is_one(self):
        u = extremal_function(ExtremalParams(0.0, 2, 1))
        assert float(u.u(3.7)) == 1.0
        assert float(u.du(3.7)) == 0.0

    def test_point_value(self):
        u = extremal_function(ExtremalParams(0.5, 2, 1))
        assert float(u.u(1.0)) == pytest.approx(math.exp(1.0 / 8.0))

    def test_alpha_at_one_rejected(self):
        with pytest.raises(PreconditionError):
            ExtremalParams(1.0, 2, 1)

    @pytest.mark.parametrize("p", [math.nan, math.inf, 1.5])
    def test_p_outside_finite_at_least_two_rejected(self, p):
        with pytest.raises(PreconditionError, match="finite and >= 2"):
            ExtremalParams(0.5, p, 1)


class TestExtremalMoments:
    def test_alpha_zero_p2_n2(self):
        cf = extremal_moments(ExtremalParams(0.0, 2, 2))
        assert cf.K.value == pytest.approx(2.0)
        assert cf.L.value == pytest.approx(1.0)
        assert cf.G.value == 0.0

    def test_overflowing_closed_form_is_an_evaluation_error(self):
        with pytest.raises(EvaluationError, match="overflow"):
            extremal_moments(ExtremalParams(0.0, 400.0, 1))

    def test_p2_identity(self):
        for alpha in (0.0, 0.3, 0.9, 0.99):
            for n in (1, 2, 4):
                cf = extremal_moments(ExtremalParams(alpha, 2, n))
                assert (cf.K.value - 4.0 * cf.G.value) / cf.L.value == pytest.approx(
                    n * (1.0 + alpha), abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quadrature_agrees(self, alpha, p, n, spec):
        params = ExtremalParams(alpha, p, n)
        cf = extremal_moments(params)
        tri = modular_triple_radial(extremal_function(params),
                                    power_nfunction(p), n, spec)
        assert tri.K.value == pytest.approx(cf.K.value, rel=1e-7)
        assert tri.L.value == pytest.approx(cf.L.value, rel=1e-7)
        if cf.G.value > 0:
            assert tri.G.value == pytest.approx(cf.G.value, rel=1e-7)
        else:
            assert tri.G.value == 0.0


class TestC1LowerBound:
    def test_quartic(self):
        assert c1_lower_bound(4, 2) == pytest.approx(8.0)

    def test_quadratic_equals_dimension(self):
        assert c1_lower_bound(2, 1) == pytest.approx(1.0)
        for n in range(1, 8):
            assert c1_lower_bound(2, n) == pytest.approx(float(n))

    def test_equals_measured_ratio_at_alpha_zero(self, spec):
        for p, n in ((3, 1), (4, 2)):
            tri = modular_triple_radial(
                extremal_function(ExtremalParams(0.0, p, n)),
                power_nfunction(p), n, spec)
            assert tri.K.value / tri.L.value == pytest.approx(c1_lower_bound(p, n), rel=1e-8)


class TestInfeasibilityScan:
    def test_alpha_zero_reduces_to_lower_bound(self):
        req = c2_infeasibility_scan(4, 1, [0.0])
        assert req[0] == pytest.approx(c1_lower_bound(4, 1))

    def test_frozen_value(self):
        # 3 * (1 - 0.99^4) / 0.01^2, computed independently
        expected = 3.0 * (1.0 - 0.99 ** 4) / 1e-4
        req = c2_infeasibility_scan(4, 1, [0.99])
        assert req[0] == pytest.approx(expected, rel=1e-12)
        assert req[0] == pytest.approx(1182.1197, rel=1e-7)

    def test_monotone_divergence(self):
        req = c2_infeasibility_scan(4, 1, [0.9, 0.99, 0.999])
        assert req[0] < req[1] < req[2]
        assert req[2] > 1e3 * c1_lower_bound(4, 1)

    def test_p_two_rejected(self):
        with pytest.raises(PreconditionError):
            c2_infeasibility_scan(2, 1, [0.5])


class TestStirling:
    def test_quartic_closed_form(self):
        # for p = 4 the ratio reduces to n / (n + 2); log-gamma rounding
        # grows with n, so the comparison is at 1e-9
        for n in (10, 100, 10 ** 4):
            assert stirling_ratio(4, n) == pytest.approx(n / (n + 2.0), rel=1e-9)

    def test_within_tolerances(self):
        assert abs(stirling_ratio(4, 100) - 1.0) < 0.05
        assert abs(stirling_ratio(4, 10 ** 4) - 1.0) < 5e-4

    def test_monotone_approach(self):
        vals = [stirling_ratio(4, n) for n in (10, 10 ** 2, 10 ** 3, 10 ** 4)]
        assert vals == sorted(vals)
        diffs = [abs(v - 1.0) for v in vals]
        assert diffs == sorted(diffs, reverse=True)

    def test_large_n_via_log_gamma(self):
        # no overflow at n = 10^6
        assert stirling_ratio(3, 10 ** 6) == pytest.approx(1.0, abs=1e-5)
