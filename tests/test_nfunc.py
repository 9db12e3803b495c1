import math

import numpy as np
import pytest

from orlicz_hardy.corpus import load_manifest
from orlicz_hardy.errors import CertificationError, DivergenceError, PreconditionError
from orlicz_hardy.nfunc import (
    GridSpec,
    NFunction,
    certify,
    certify_delta2,
    certify_growth,
    check_lemma_split,
    check_lemma_young,
    power_log_nfunction,
    power_nfunction,
)


def all_pairs_chord_slopes(fn, r_min, r_max, points):
    """Independent oracle: the least and the greatest chord slope of log M
    against log r, by brute force over every pair r1 < r2 of a log grid."""
    r = np.logspace(math.log10(r_min), math.log10(r_max), points)
    logr, logm = np.log(r), np.log(np.asarray(fn(r), dtype=float))
    j, k = np.triu_indices(r.size, 1)
    chords = (logm[k] - logm[j]) / (logr[k] - logr[j])
    return float(chords.min()), float(chords.max())


def piecewise_linear(rs, ms, label="piecewise"):
    """An NFunction through the samples (rs, ms), linear between them."""
    return NFunction(eval=lambda r: np.interp(r, rs, ms), label=label)


class TestCertifyGrowth:
    @pytest.mark.parametrize("p", [2, 2.5, 3, 4, 7])
    def test_pure_power(self, p):
        grid = GridSpec()
        d, D, violations = certify_growth(power_nfunction(p), grid)
        assert abs(d - p) < 1e-9
        assert abs(D - p) < 1e-9
        assert violations == []
        d_oracle, D_oracle = all_pairs_chord_slopes(power_nfunction(p).eval, grid.r_min,
                                                    grid.r_max, grid.points)
        assert d == pytest.approx(d_oracle, rel=1e-12, abs=1e-12)
        assert D == pytest.approx(D_oracle, rel=1e-12)

    def test_power_log_matches_grid_oracle(self):
        nf = power_log_nfunction(2.0)
        grid = GridSpec()
        d_est, D_est, violations = certify_growth(nf, grid)
        assert violations == []
        d_oracle, D_oracle = all_pairs_chord_slopes(nf.eval, grid.r_min, grid.r_max,
                                                    grid.points)
        assert d_est == pytest.approx(d_oracle, rel=1e-12, abs=1e-12)
        assert D_est == pytest.approx(D_oracle, rel=1e-12)
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

    def test_violation_names_the_pair_of_its_slope(self):
        # its steepest and flattest slopes lie between different nodes than
        # its first offending ones
        nf = piecewise_linear([0, 1, 2, 3], [0, 1, 5, 6])
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


class TestCertify:
    @pytest.mark.parametrize("undeclared", ["d_exp", "D_exp", "delta2_const"])
    def test_undeclared_metadata_rejected(self, undeclared):
        # certify confirms declared indices; it estimates none from the grid
        nf = power_nfunction(3)
        setattr(nf, undeclared, None)
        with pytest.raises(PreconditionError, match="declared"):
            certify(nf)

    def test_contradicted_exponent_rejected(self):
        nf = power_log_nfunction(2.0)
        nf.D_exp = 2.5
        with pytest.raises(CertificationError, match="D_exp=2.5"):
            certify(nf)

    def test_understated_doubling_constant_rejected(self):
        # r^2 log(1 + r) doubles by up to 8 near 0; a declared 1.5 is named
        # with the measured ratio and its node
        nf = power_log_nfunction(2.0)
        nf.delta2_const = 1.5
        with pytest.raises(CertificationError,
                           match=r"delta2_const=1.5: doubling ratio 7.99999\d* > "
                                 r"delta2_const at r=1e-06"):
            certify(nf)

    def test_packaged_nfunctions_certify_their_doubling_constants(self):
        nfs = load_manifest().nfunctions
        assert sorted(nfs) == ["p2", "p2.5", "p2log", "p3", "p4"]
        for nf in nfs.values():
            assert certify(nf).delta2_const == nf.delta2_const
            assert certify_delta2(nf) <= nf.delta2_const + 1e-9


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
