import dataclasses
import math

import mpmath
import numpy as np
import pytest
from conftest import radial_profile

from orlicz_hardy.errors import PreconditionError
from orlicz_hardy.functionals import (
    ModularTriple,
    modular_triple_nd,
    modular_triple_radial,
)
from orlicz_hardy.hardy import (
    check_alternative,
    check_convex_case,
    check_hn1,
    check_linear,
    check_norm_form,
    check_p2_exact,
    check_wwww,
    convex_constants,
    linear_constants,
)
from orlicz_hardy.nfunc import power_nfunction
from orlicz_hardy.quadrature import (
    GaussianMeasure,
    IntegralResult,
    RadialMeasure,
    surface_area,
)
from orlicz_hardy.sharpness import ExtremalParams, extremal_function, extremal_moments

ZERO = ModularTriple(*(IntegralResult(0.0, 0.0),) * 3)


class TestLinearConstants:
    def test_quartic_one_dim(self):
        c1, c2 = linear_constants(4.0, 4.0, 1)
        assert c1 == pytest.approx(72.0)
        assert c2 == pytest.approx(2048.0)

    def test_cubic_two_dim(self):
        c1, c2 = linear_constants(3.0, 3.0, 2)
        assert c1 == pytest.approx(4.0 * 3.0 ** 1.5)
        assert c2 == pytest.approx(108.0)

    def test_out_of_regime(self):
        with pytest.raises(PreconditionError, match="e \\+ 2"):
            linear_constants(2.5, 2.5, 1)


class TestCheckLinear:
    def test_zero_triple(self):
        rep = check_linear(ZERO, 1.0, 1.0)
        assert rep.verdict == "holds" and rep.slack == 0.0

    def test_p2_constants_on_corpus(self, manifest, admissible_triples):
        for (nf_label, u_label, n), tri in admissible_triples.items():
            if nf_label != "p2":
                continue
            rep = check_linear(tri, 2.0 * n, 4.0)
            assert rep.verdict in ("holds", "indeterminate"), (u_label, n, rep.slack)

    def test_slack_identity_quadratic_family(self, spec):
        # alpha = 0.5, p = 2, n = 2 with C1 = 2n, C2 = 4:
        # slack / L = 2n - n(1 + alpha) = 1
        tri = modular_triple_radial(
            extremal_function(ExtremalParams(0.5, 2, 2)), power_nfunction(2),
            2, spec)
        rep = check_linear(tri, 4.0, 4.0)
        assert rep.slack / tri.L.value == pytest.approx(1.0, abs=1e-7)

    def test_explicit_constants_on_corpus(self, manifest, admissible_triples):
        for nf_label in ("p3", "p4", "p2log"):
            nf = manifest.nfunc(nf_label)
            d, D = nf.require_exponents()
            for n in (1, 2, 3):
                if D + n < math.e + 2.0:
                    with pytest.raises(PreconditionError):
                        linear_constants(D, d, n)
                    continue
                c1, c2 = linear_constants(D, d, n)
                for (label, u_label, nn), tri in admissible_triples.items():
                    if label != nf_label or nn != n:
                        continue
                    rep = check_linear(tri, c1, c2)
                    assert rep.verdict in ("holds", "indeterminate"), \
                        (nf_label, u_label, n, rep.slack)


class TestAlternative:
    def test_zero(self):
        rep = check_alternative(ZERO, 3.0, 3.0, 1)
        assert rep.verdict == "holds"

    def test_growth_family_cubic(self):
        for alpha in (0.0, 0.5, 0.9):
            tri = extremal_moments(ExtremalParams(alpha, 3, 3))
            rep = check_alternative(tri, 3.0, 3.0, 3)
            assert rep.verdict == "holds" and rep.slack > 0.0
            assert rep.details["term2_unconditional"]

    def test_low_dim_disjunction_reports_branch(self):
        # D + n = 4 < e + 2: the disjunction form applies
        tri = extremal_moments(ExtremalParams(0.5, 3, 1))
        rep = check_alternative(tri, 3.0, 3.0, 1)
        assert not rep.details["term2_unconditional"]
        assert rep.verdict in ("holds", "indeterminate")
        assert rep.details["branch_held"] in ("term1", "term2")

    def test_full_admissible_corpus(self, manifest, admissible_triples):
        for (nf_label, u_label, n), tri in admissible_triples.items():
            nf = manifest.nfunc(nf_label)
            d, D = nf.require_exponents()
            if d < 2.0 or D <= 2.0:
                continue
            rep = check_alternative(tri, d, D, n)
            assert rep.verdict != "fails", (nf_label, u_label, n, rep.slack)
            if D + n >= math.e + 2.0:
                assert rep.details["term2_verdict"] != "fails"

    def test_term2_error_is_the_exact_rise(self, admissible_triples):
        # here L + eL rounds to L, and the rise once read 0, which bounds
        # nothing; in 60-digit arithmetic L + eL is exact
        tri = admissible_triples[("p4", "trunc_mild", 1)]
        D, n = 4, 1
        with mpmath.workdps(60):
            def term2(L, G):
                root = mpmath.sqrt(D * D / 4 * G ** (mpmath.mpf(2) / D)
                                   + (D + n - 2) * L ** (mpmath.mpf(2) / D))
                return (mpmath.mpf(D) / 2 * G ** (mpmath.mpf(1) / D) + root) ** D
            L, G = mpmath.mpf(tri.L.value), mpmath.mpf(tri.G.value)
            rise = float(term2(L + tri.L.err_est, G + tri.G.err_est) - term2(L, G))
        rep = check_alternative(tri, 4.0, 4.0, n)
        assert rep.id == "term2"
        assert rep.err_est == pytest.approx(tri.K.err_est + rise, rel=1e-12, abs=0.0)

    def test_invalid_exponents(self):
        with pytest.raises(PreconditionError):
            check_alternative(ZERO, 1.5, 3.0, 1)


class TestP2Exact:
    def test_closed_form_family(self):
        for n in (1, 2, 3, 5):
            for alpha in (0.0, 0.5, 0.9, 0.99):
                tri = extremal_moments(ExtremalParams(alpha, 2, n))
                rep = check_p2_exact(tri, n)
                assert rep.verdict == "holds", (n, alpha, rep.slack)

    def test_corpus(self, admissible_triples):
        for (nf_label, u_label, n), tri in admissible_triples.items():
            if nf_label != "p2":
                continue
            rep = check_p2_exact(tri, n)
            assert rep.verdict in ("holds", "indeterminate"), (u_label, n)

    def test_tightness_as_alpha_grows(self):
        # (K - 4G)/L = n(1+alpha): the needed C1 approaches 2n
        for n in (1, 3):
            vals = [(extremal_moments(ExtremalParams(a, 2, n)).K.value
                     - 4.0 * extremal_moments(ExtremalParams(a, 2, n)).G.value)
                    / extremal_moments(ExtremalParams(a, 2, n)).L.value
                    for a in (0.9, 0.99, 0.999)]
            assert vals == sorted(vals)
            assert vals[-1] == pytest.approx(n * 1.999, rel=1e-9)


class TestConvexCase:
    def test_constants_formula(self):
        c1, c2, proof = convex_constants(2.0, 1)
        kappa = 2.0 * math.sqrt(3.0)
        bulk = 4.0 * math.exp(2.0 * kappa ** 2) * kappa
        assert proof["kappa"] == pytest.approx(kappa)
        assert proof["eps"] == pytest.approx(1.0 / 8.0)
        assert c1 == pytest.approx(2.0 * (kappa ** 2 + bulk))
        assert c2 == pytest.approx(2.0 * (bulk + 2.0 * 8.0 ** 2))

    def test_quadratic_corpus(self, manifest, admissible_triples):
        for (nf_label, u_label, n), tri in admissible_triples.items():
            if nf_label != "p2" or n > 2:
                continue
            rep = check_convex_case(tri, 2.0, n)
            assert rep.verdict == "holds"
            assert {"eps", "kappa", "C1", "C2"} <= set(rep.constants_used)

    def test_power_log_two_dim(self, manifest, admissible_triples):
        nf = manifest.nfunc("p2log")
        for (nf_label, u_label, n), tri in admissible_triples.items():
            if nf_label != "p2log" or n != 2:
                continue
            rep = check_convex_case(tri, nf.D_exp, n)
            assert rep.verdict == "holds"


class TestNormFormRadial:
    def test_zero_trivial(self, manifest, spec):
        import orlicz_hardy.functionals as fmod
        zero = fmod.RadialTestFunction(
            u=lambda r: np.zeros_like(np.asarray(r, float)),
            du=lambda r: np.zeros_like(np.asarray(r, float)),
            hint=fmod.SupportHint.decaying(0.0, 0.0), label="zero")
        nf = manifest.nfunc("p3")
        rep = check_norm_form(zero, modular_triple_radial(zero, nf, 2, spec), nf,
                              RadialMeasure(2), spec)
        assert rep.verdict == "trivial"

    def test_corpus_ratio_below_constant(self, manifest, spec):
        nf = manifest.nfunc("p3")
        for label in ("bump_mid", "pg_decay"):
            u = manifest.radial_functions[label]
            rep = check_norm_form(
                u, modular_triple_radial(u, nf, 2, spec), nf, RadialMeasure(2), spec)
            assert rep.verdict == "holds"
            assert rep.details["ratio"] < rep.constants_used["C"]

    def test_scaling_invariance(self, manifest, spec):
        import dataclasses
        nf = manifest.nfunc("p3")
        u = manifest.radial_functions["pg_decay"]
        scaled = dataclasses.replace(
            u, u=lambda r: 7.0 * np.asarray(u.u(r), float),
            du=lambda r: 7.0 * np.asarray(u.du(r), float), label="7x")
        r1 = check_norm_form(u, modular_triple_radial(u, nf, 2, spec), nf,
                             RadialMeasure(2), spec)
        r2 = check_norm_form(scaled, modular_triple_radial(scaled, nf, 2, spec), nf,
                             RadialMeasure(2), spec)
        assert r1.details["ratio"] == pytest.approx(r2.details["ratio"], rel=1e-8)


class TestCheckNd:
    def test_radial_consistency_wwww(self, manifest, spec):
        nf = manifest.nfunc("p3")
        d, D = nf.require_exponents()
        factory = manifest.field_functions["fr_smooth"]
        for n in (2, 3):
            field = factory.instantiate(n)
            rep_nd = check_wwww(modular_triple_nd(field, nf, spec), nf, n)
            tri_rad = modular_triple_radial(radial_profile(factory), nf, n, spec)
            rep_rad = check_alternative(tri_rad, d, D, n)
            area = surface_area(n)
            assert rep_nd.verdict == rep_rad.verdict
            assert rep_nd.slack == pytest.approx(area * rep_rad.slack, rel=1e-6)

    def test_radial_consistency_hn1(self, manifest, spec):
        nf = manifest.nfunc("p2")
        factory = manifest.field_functions["fr_wide"]
        field = factory.instantiate(2)
        rep_nd = check_hn1(modular_triple_nd(field, nf, spec), nf, 2)
        tri_rad = modular_triple_radial(radial_profile(factory), nf, 2, spec)
        rep_rad = check_convex_case(tri_rad, 2.0, 2)
        assert rep_nd.verdict == rep_rad.verdict == "holds"
        assert rep_nd.slack == pytest.approx(
            surface_area(2) * rep_rad.slack, rel=1e-6)

    def test_nonradial_passes(self, manifest, spec):
        nf4 = manifest.nfunc("p4")
        for label in ("fx_lin", "fx_quad", "fx_cut"):
            field = manifest.field_functions[label].instantiate(2)
            rep = check_wwww(modular_triple_nd(field, nf4, spec), nf4, 2)
            assert rep.verdict in ("holds", "indeterminate"), (label, rep.slack)
            p2 = manifest.nfunc("p2")
            rep = check_hn1(modular_triple_nd(field, p2, spec), p2, 2)
            assert rep.verdict == "holds", (label, rep.slack)

    @pytest.mark.parametrize("nf_label", ["p3", "p4"])
    def test_term2_error_is_stable_under_one_ulp(self, manifest, spec, nf_label):
        # the rise of term2 over the modular errors once came from a
        # difference of two nearly equal values: one ulp of L and G moved
        # the err_est of fr_smooth at n=2 by 6.1e-5 (p3) and 1.6e-5 (p4)
        nf = manifest.nfunc(nf_label)
        d, D = nf.require_exponents()
        tri = modular_triple_nd(manifest.field_functions["fr_smooth"].instantiate(2),
                                nf, spec)
        nudged = ModularTriple(tri.K, *(
            dataclasses.replace(m, value=math.nextafter(m.value, math.inf))
            for m in (tri.L, tri.G)))
        for check in (lambda t: check_wwww(t, nf, 2),
                      lambda t: check_alternative(t, d, D, 2)):
            before, after = check(tri), check(nudged)
            assert before.id in ("wwww", "term2")
            assert abs(after.err_est - before.err_est) <= 1e-12 * before.err_est

    def test_norm_form_nd(self, manifest, spec):
        field, nf = manifest.field_functions["fx_lin"].instantiate(2), manifest.nfunc("p2")
        rep = check_norm_form(field, modular_triple_nd(field, nf, spec), nf,
                              GaussianMeasure(2), spec)
        assert rep.verdict == "holds"
        assert rep.details["ratio"] < rep.constants_used["C"]

    def test_normalization_invariance(self, manifest, spec):
        nf = manifest.nfunc("p3")
        field = manifest.field_functions["fx_quad"].instantiate(2)
        plain = check_wwww(modular_triple_nd(field, nf, spec), nf, 2)
        norm = check_wwww(modular_triple_nd(field, nf, spec, normalized=True), nf, 2,
                          normalization="normalized")
        factor = (2.0 * math.pi) ** (-1.0)
        assert norm.verdict == plain.verdict
        assert norm.slack == pytest.approx(factor * plain.slack, rel=1e-9)
