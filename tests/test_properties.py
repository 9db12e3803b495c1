"""Grid and property suites for the pointwise inequalities and norm layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_hardy.functionals import ScalarProfile, _modular_family, luxemburg_norm
from orlicz_hardy.nfunc import check_lemma_split, check_lemma_young
from orlicz_hardy.quadrature import QuadratureSpec, RadialMeasure

GRID = np.logspace(-3, 1, 50)
SPLIT_MEMBERS = ("p2.5", "p3", "p4", "p2log")  # d >= 2, D > 2


class TestSplitLemmaGrid:
    @pytest.mark.parametrize("nf_label", SPLIT_MEMBERS)
    def test_full_grid_zero_violations(self, manifest, nf_label):
        nf = manifest.nfunc(nf_label)
        lambdas = (1.0 / nf.d_exp, 1.0, 10.0)
        violations = []
        for alpha in (1, 2):
            for lam in lambdas:
                for r in GRID:
                    for s in GRID:
                        lhs, rhs, holds = check_lemma_split(nf, r, s, lam, alpha)
                        if not holds:
                            violations.append((nf_label, alpha, lam, r, s,
                                               lhs - rhs))
        assert violations == []

    def test_equality_attained(self, manifest):
        lhs, rhs, holds = check_lemma_split(manifest.nfunc("p3"), 1.0, 1.0,
                                            1.0 / 3.0, alpha=2)
        assert holds and lhs == rhs == 1.0


class TestYoungLemmaGrid:
    @pytest.mark.parametrize("nf_label", ["p2", "p2.5", "p3", "p4", "p2log"])
    def test_full_grid_zero_violations(self, manifest, nf_label):
        nf = manifest.nfunc(nf_label)
        violations = []
        for eps in (1e-3, 0.1, 1.0):
            for a in GRID:
                for b in GRID:
                    lhs, rhs, holds = check_lemma_young(nf, a, b, eps)
                    if not holds:
                        violations.append((nf_label, eps, a, b, lhs - rhs))
        assert violations == []


class TestNFunctionShape:
    @given(x=st.floats(1e-4, 1e3), y=st.floats(1e-4, 1e3))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_midpoint_convexity(self, manifest, x, y):
        for nf in manifest.nfunctions.values():
            mid = float(nf.eval(0.5 * (x + y)))
            avg = 0.5 * (float(nf.eval(x)) + float(nf.eval(y)))
            assert mid <= avg + 1e-9 * max(avg, 1.0)

    @given(x=st.floats(1e-4, 1e3), a=st.floats(1.0, 50.0))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_monotone_and_upper_growth(self, manifest, x, a):
        for nf in manifest.nfunctions.values():
            assert float(nf.eval(a * x)) >= float(nf.eval(x)) * (1.0 - 1e-12)
            bound = a ** nf.D_exp * float(nf.eval(x))
            assert float(nf.eval(a * x)) <= bound * (1.0 + 1e-9)


class TestNormLayer:
    @given(c=st.floats(0.05, 40.0))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_homogeneity_random_scale(self, manifest, c):
        nf = manifest.nfunc("p3")
        u = manifest.radial_functions["bump_mid"]
        meas = RadialMeasure(1)
        def norm(f):
            m1, = _modular_family([(f, nf)], meas, QuadratureSpec())
            return luxemburg_norm([(f, m1)], nf, meas)[0].value

        base = norm(u.parts().L)
        scaled = ScalarProfile(lambda r: c * np.asarray(u.u(r), float),
                               u.hint, u.breakpoints)
        assert norm(scaled) == pytest.approx(c * base, rel=1e-8)
