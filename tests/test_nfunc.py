import math

import numpy as np
import pytest

from orlicz_hardy.errors import CertificationError, DivergenceError, PreconditionError
from orlicz_hardy.nfunc import (
    GridSpec,
    NFunction,
    certify_delta2,
    certify_growth,
    check_lemma_split,
    check_lemma_young,
    power_log_nfunction,
    power_nfunction,
    table_nfunction,
)


def dense_chord_slopes(fn, r_min, r_max, points=5000):
    """Independent oracle: chord slopes of log M vs log r on a dense grid.

    Extreme chords over all pairs coincide with extremes over consecutive
    pairs (any chord is a convex combination of consecutive chords)."""
    r = np.logspace(math.log10(r_min), math.log10(r_max), points)
    m = np.asarray(fn(r), dtype=float)
    slopes = np.diff(np.log(m)) / np.diff(np.log(r))
    return float(slopes.min()), float(slopes.max())


class TestCertifyGrowth:
    @pytest.mark.parametrize("p", [2, 2.5, 3, 4, 7])
    def test_pure_power(self, p):
        d, D, violations = certify_growth(power_nfunction(p))
        assert abs(d - p) < 1e-9
        assert abs(D - p) < 1e-9
        assert violations == []

    def test_power_log_matches_grid_oracle(self):
        nf = power_log_nfunction(2.0)
        grid = GridSpec()
        d_est, D_est, violations = certify_growth(nf, grid)
        assert violations == []
        d_oracle, D_oracle = dense_chord_slopes(nf.eval, grid.r_min, grid.r_max,
                                                points=grid.points)
        assert abs(D_est - D_oracle) < 1e-9
        assert abs(d_est - d_oracle) < 1e-9
        # upper slope approaches p+1 = 3 at small radii
        assert abs(D_est - 3.0) < 1e-6
        # lower slope approaches p = 2 from above as the grid extends
        assert d_est > 2.0
        d_wide, _, _ = certify_growth(nf, GridSpec(1e-6, 1e12, 600))
        assert 2.0 < d_wide < d_est

    def test_declared_exponent_violation_reported(self):
        nf = power_nfunction(3)
        nf.D_exp = 2.5  # too small: slopes equal 3
        _, _, violations = certify_growth(nf)
        assert violations and "D_exp" in violations[0]

    @pytest.mark.parametrize("nf", [power_nfunction(2.5), power_log_nfunction(2.0),
                                    table_nfunction([0, 1, 2, 3], [0, 1, 5, 6])],
                             ids=["power", "power-log", "table"])
    def test_extremes_equal_the_all_pairs_chord_extremes(self, nf):
        # brute force over every pair r1 < r2 of a small grid
        grid = GridSpec(1e-3, 1e3, 60)
        logr, logm = np.log(grid.nodes()), np.log(nf.eval(grid.nodes()))
        j, k = np.triu_indices(logr.size, 1)
        chords = (logm[k] - logm[j]) / (logr[k] - logr[j])
        d, D, _ = certify_growth(nf, grid)
        assert d == pytest.approx(chords.min(), rel=1e-12, abs=1e-12)
        assert D == pytest.approx(chords.max(), rel=1e-12)

    def test_violation_names_the_pair_of_its_slope(self):
        # the table's steepest and flattest slopes lie between different
        # nodes than its first offending ones
        nf = table_nfunction([0, 1, 2, 3], [0, 1, 5, 6])
        nf.d_exp, nf.D_exp = 1.5, 2.0
        _, _, violations = certify_growth(nf)
        assert len(violations) == 2
        for text in violations:
            slope = float(text.split("slope ")[1].split(" ")[0])
            r1, r2 = (float(text.split(f"{name}=")[1].split(",")[0].rstrip(")"))
                      for name in ("r1", "r2"))
            m1, m2 = nf.eval(r1), nf.eval(r2)
            assert math.log(m2 / m1) / math.log(r2 / r1) == pytest.approx(slope, rel=1e-4)

    def test_constant_rejected(self):
        nf = NFunction(eval=lambda r: np.ones_like(np.asarray(r, float)),
                       label="const")
        with pytest.raises(CertificationError, match="nonconstant"):
            certify_growth(nf)

    def test_non_monotone_rejected(self):
        nf = NFunction(eval=lambda r: np.sin(np.asarray(r, float)) + 1.1,
                       label="wiggle")
        with pytest.raises(CertificationError, match="non-decreasing"):
            certify_growth(nf, GridSpec(0.1, 10.0, 100))


class TestCertifyDelta2:
    def test_cubic(self):
        assert abs(certify_delta2(power_nfunction(3)) - 8.0) < 1e-9

    def test_quadratic(self):
        assert abs(certify_delta2(power_nfunction(2)) - 4.0) < 1e-9

    def test_exponential_flagged_divergent(self):
        nf = NFunction(eval=lambda r: np.expm1(np.asarray(r, float))
                       - np.asarray(r, float), label="exp")
        with pytest.raises(DivergenceError, match="cap"):
            certify_delta2(nf, GridSpec(1e-3, 100.0, 200))


class TestLemmaSplit:
    def test_equality_case(self):
        lhs, rhs, holds = check_lemma_split(power_nfunction(3), 1.0, 1.0,
                                            1.0 / 3.0, alpha=2)
        assert holds
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_zero_s(self):
        lhs, rhs, holds = check_lemma_split(power_nfunction(3), 1.0, 0.0,
                                            0.5, alpha=1)
        assert holds and lhs == 0.0 and rhs > 0.0

    def test_quartic_example(self):
        # direct evaluation of both sides: lhs = 2^{-1} * 16 * 1 = 8,
        # rhs = (3/4)(1)^(-1/3) * 16 + (1/4) * 1 = 12.25
        lhs, rhs, holds = check_lemma_split(power_nfunction(4), 2.0, 1.0,
                                            0.25, alpha=1)
        assert holds
        assert lhs == pytest.approx(8.0)
        assert rhs == pytest.approx(12.25)

    def test_lambda_below_threshold_rejected(self):
        with pytest.raises(PreconditionError, match="lambda"):
            check_lemma_split(power_nfunction(3), 1.0, 1.0, 0.2, alpha=2)

    def test_zero_r_uses_continuous_extension(self):
        lhs, rhs, holds = check_lemma_split(power_nfunction(2.5), 0.0, 1.0,
                                            0.5, alpha=1)
        assert lhs == 0.0 and holds


class TestLemmaYoung:
    def test_b_equal_one(self):
        lhs, rhs, holds = check_lemma_young(power_nfunction(2), 1.0, 1.0, 1.0)
        assert holds and lhs == pytest.approx(1.0) and rhs == pytest.approx(2.0)

    def test_b_zero(self):
        lhs, rhs, holds = check_lemma_young(power_nfunction(2), 2.0, 0.0, 0.5)
        assert holds and lhs == 0.0
        assert rhs == pytest.approx(0.5 * 4.0)

    def test_cubic_point(self):
        lhs, rhs, holds = check_lemma_young(power_nfunction(3), 1.0, 0.5, 0.25)
        assert holds
        assert lhs == pytest.approx(0.5)
        assert rhs == pytest.approx(0.25 + 4.0 ** 3 * 0.125)

    def test_eps_out_of_range(self):
        with pytest.raises(PreconditionError, match="eps"):
            check_lemma_young(power_nfunction(2), 1.0, 1.0, 1.5)


class TestTable:
    def test_roundtrip(self):
        # certify at the table's own knots, where interpolation is exact
        rs = np.logspace(-2, 2, 50)
        nf = table_nfunction(rs, rs ** 3, label="tab3")
        d, D, _ = certify_growth(nf, GridSpec(rs[0], rs[-1], 50))
        assert d == pytest.approx(3.0, abs=1e-9)
        assert D == pytest.approx(3.0, abs=1e-9)

    def test_decreasing_rejected(self):
        with pytest.raises(CertificationError, match="non-decreasing"):
            table_nfunction([1.0, 2.0, 3.0], [1.0, 0.5, 2.0])
