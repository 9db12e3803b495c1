import dataclasses
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest
from conftest import radial_profile, retirement_sweep

from orlicz_hardy import cli, functionals, quadrature
from orlicz_hardy import hardy as hardy_mod
from orlicz_hardy.cli import run_hardy
from orlicz_hardy.errors import DivergenceError, PreconditionError
from orlicz_hardy.functionals import (
    FieldFunction,
    RadialTestFunction,
    ScalarProfile,
    SupportHint,
    hessian_hs_norm,
    luxemburg_norm,
    modular_triple_nd,
    modular_triple_radial,
    modular_value,
    truncate,
    validate_field,
    validate_radial,
)
from orlicz_hardy.nfunc import power_nfunction
from orlicz_hardy.landau_kolmogorov import lk_modular_terms, lk_norm_triple
from orlicz_hardy.quadrature import (
    GaussianMeasure,
    QuadratureSpec,
    RadialMeasure,
    integrate_gaussian_nd,
    integrate_radial,
    surface_area,
)
from orlicz_hardy.reporting import canonical_json
from orlicz_hardy.sharpness import ExtremalParams, extremal_function, extremal_moments


def fresh_norm(f, nf, measure, spec=None, norm_tol=1e-9):
    """The Luxemburg norm of f, its modular at K = 1 integrated afresh as
    the family of f alone."""
    m1, = functionals._modular_family([(f, nf)], measure, spec or QuadratureSpec())
    norm, = luxemburg_norm([(f, m1)], nf, measure, spec, norm_tol)
    return norm.value


def constant_profile(c=1.0):
    return RadialTestFunction(
        u=lambda r: c * np.ones_like(np.asarray(r, float)),
        du=lambda r: np.zeros_like(np.asarray(r, float)),
        hint=SupportHint.decaying(0.0, 0.0), label=f"const{c:g}")


class TestModularTripleRadial:
    def test_zero(self):
        zero = RadialTestFunction(
            u=lambda r: np.zeros_like(np.asarray(r, float)),
            du=lambda r: np.zeros_like(np.asarray(r, float)),
            hint=SupportHint.decaying(0.0, 0.0))
        tri = modular_triple_radial(zero, power_nfunction(2), 3)
        assert [m.value for m in tri] == [0.0, 0.0, 0.0]

    def test_constant_profile_moments(self):
        # u == 1, M = r^2, n = 2: K = moment(2, 2) = 2, L = moment(2, 0) = 1
        tri = modular_triple_radial(constant_profile(), power_nfunction(2), 2)
        assert tri.K.value == pytest.approx(2.0, rel=1e-9)
        assert tri.L.value == pytest.approx(1.0, rel=1e-9)
        assert tri.G.value == 0.0

    def test_growth_family_closed_forms(self):
        # u(r) = exp(0.45 r^2 / 2) is the alpha = 0.9, p = 2 member
        params = ExtremalParams(0.9, 2, 1)
        tri = modular_triple_radial(extremal_function(params),
                                    power_nfunction(2), 1)
        cf = extremal_moments(params)
        assert cf.K.value == pytest.approx(39.633272976060115, rel=1e-12)
        assert cf.L.value == pytest.approx(3.9633272976060114, rel=1e-12)
        assert cf.G.value == pytest.approx(8.025737777652173, rel=1e-12)
        assert tri.K.value == pytest.approx(cf.K.value, rel=1e-8)
        assert tri.L.value == pytest.approx(cf.L.value, rel=1e-8)
        assert tri.G.value == pytest.approx(cf.G.value, rel=1e-8)

    def test_divergent_flagged(self):
        # exp(r^2/4) squared grows like exp(r^2/2): the weight cannot absorb it
        hot = RadialTestFunction(
            u=lambda r: np.exp(0.25 * np.asarray(r, float) ** 2),
            du=lambda r: 0.5 * np.asarray(r, float)
            * np.exp(0.25 * np.asarray(r, float) ** 2),
            hint=SupportHint.decaying(0.0, -0.5))
        tri = modular_triple_radial(hot, power_nfunction(2), 1)
        assert tri == (None, None, None)
        assert not tri.valid


class TestLuxemburg:
    def test_constant_closed_form(self):
        # modular(K) = K^-2 sqrt(pi/2) = 1  =>  K = (pi/2)^(1/4)
        val = fresh_norm(constant_profile().parts().L, power_nfunction(2), RadialMeasure(1))
        assert val == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-9)
        assert val == pytest.approx(1.1195151349202477, rel=1e-9)

    def test_zero(self):
        zero = RadialTestFunction(
            u=lambda r: np.zeros_like(np.asarray(r, float)),
            du=lambda r: np.zeros_like(np.asarray(r, float)),
            hint=SupportHint.decaying(0.0, 0.0))
        assert fresh_norm(zero.parts().L, power_nfunction(2), RadialMeasure(1)) == 0.0

    @pytest.mark.parametrize("p", [2, 3])
    def test_power_norm_is_lp_norm(self, manifest, p):
        nf = manifest.nfunc(f"p{p}")
        for label in ("bump_mid", "pg_decay", "ga_p3"):
            u = manifest.radial_functions[label]
            for n in (1, 2):
                lp, = integrate_radial([(lambda r: np.abs(u.u(r)) ** p, None)], n,
                                       envelopes=[u.hint], breakpoints=u.breakpoints)
                lp = lp.value ** (1.0 / p)
                lux = fresh_norm(u.parts().L, nf, RadialMeasure(n))
                assert lux == pytest.approx(lp, rel=1e-8)

    @pytest.mark.parametrize("p", [2, 3])
    def test_gaussian_power_norm_is_lp_norm(self, manifest, spec, p):
        nf = manifest.nfunc(f"p{p}")
        for label, factory in sorted(manifest.field_functions.items()):
            for n in (1, 2):
                if not factory.compatible(n):
                    continue
                u = factory.instantiate(n)
                lp, = integrate_gaussian_nd([(lambda x: np.abs(u.u(x)) ** p, None)], n,
                                            spec, envelopes=[u.hint])
                lp = lp.value ** (1.0 / p)
                lux = fresh_norm(u.parts().L, nf, GaussianMeasure(n), spec)
                assert lux == pytest.approx(lp, rel=1e-8), (label, n)

    def test_norm_bounded_by_modular_plus_one(self, manifest, admissible_triples):
        for (nf_label, u_label, n), tri in admissible_triples.items():
            if n > 2:
                continue
            nf = manifest.nfunc(nf_label)
            u = manifest.radial_functions[u_label]
            lux = fresh_norm(u.parts().L, nf, RadialMeasure(n))
            assert lux <= tri.L.value + 1.0 + 1e-8

    def test_delta2_saturation(self, manifest):
        nf = manifest.nfunc("p2log")
        u = manifest.radial_functions["pg_decay"]
        lux = fresh_norm(u.parts().L, nf, RadialMeasure(2))
        mod = modular_value(u.parts().L, nf, RadialMeasure(2), scale=lux)
        assert mod == pytest.approx(1.0, abs=1e-7)

    def test_homogeneity(self, manifest):
        nf = manifest.nfunc("p2log")
        u = manifest.radial_functions["bump_mid"]
        base = fresh_norm(u.parts().L, nf, RadialMeasure(1))
        for c in (0.1, 2.0, 17.0):
            scaled = ScalarProfile(lambda r, c=c: c * np.asarray(u.u(r), float),
                                   u.hint, u.breakpoints)
            val = fresh_norm(scaled, nf, RadialMeasure(1))
            assert val == pytest.approx(c * base, rel=1e-8)

    def test_divergent_norm_raises(self):
        hot = ScalarProfile(lambda r: np.exp(0.25 * np.asarray(r, float) ** 2),
                            SupportHint.decaying(0.0, -0.5))
        with pytest.raises(DivergenceError):
            fresh_norm(hot, power_nfunction(2), RadialMeasure(1))


class TestTruncate:
    def test_pointwise_formula(self):
        tr = truncate(constant_profile(), 1.0)
        assert float(tr.u(1.5)) == pytest.approx(0.5)
        assert float(tr.du(1.5)) == pytest.approx(-1.0)
        assert float(tr.u(0.5)) == 1.0
        assert float(tr.u(2.5)) == 0.0
        assert set(tr.breakpoints) >= {1.0, 2.0}

    def test_pointwise_convergence(self, manifest):
        u = manifest.radial_functions["pg_decay"]
        for r in (0.5, 1.7, 3.0):
            vals = [float(truncate(u, N).u(r)) for N in (4.0, 8.0, 16.0)]
            assert vals[-1] == pytest.approx(float(u.u(r)), rel=1e-12)

    def test_weighted_modular_monotone_convergence(self, manifest, spec):
        nf = manifest.nfunc("p3")
        u = manifest.radial_functions["pg_decay"]
        full = modular_triple_radial(u, nf, 2, spec).K.value
        ks = []
        for N in (2.0, 4.0, 8.0, 16.0):
            ks.append(modular_triple_radial(truncate(u, N), nf, 2, spec).K.value)
        assert all(ks[i] <= ks[i + 1] + 1e-10 for i in range(len(ks) - 1))
        assert ks[-1] == pytest.approx(full, rel=1e-8)

    def test_derivative_modular_bound(self, manifest, spec):
        # G(u_N) <= (1 + N^(-1/2))^D G(u) + (2/sqrt(N))^D L(u) + tolerance
        nf = manifest.nfunc("p3")
        D = nf.D_exp
        for label in ("pg_decay", "ga_p3"):
            u = manifest.radial_functions[label]
            tri = modular_triple_radial(u, nf, 1, spec)
            for N in (4.0, 16.0):
                tri_n = modular_triple_radial(truncate(u, N), nf, 1, spec)
                bound = ((1.0 + N ** -0.5) ** D * tri.G.value
                         + (2.0 / math.sqrt(N)) ** D * tri.L.value)
                errs = sum(m.err_est for m in (*tri, *tri_n))
                assert tri_n.G.value <= bound + errs + 1e-10

    def test_cutoff_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            truncate(constant_profile(), 0.5)


class TestValidation:
    def test_derivative_mismatch_reported(self):
        broken = RadialTestFunction(
            u=lambda r: np.asarray(r, float) ** 2,
            du=lambda r: 3.0 * np.asarray(r, float),  # wrong slope
            hint=SupportHint.decaying(2.0, 0.0))
        problems = validate_radial(broken)
        assert problems and "derivative mismatch" in problems[0]

    def test_field_gradient_mismatch_reported(self):
        bad = FieldFunction(
            u=lambda X: X[..., 0] ** 2,
            grad=lambda X: np.stack([3.0 * X[..., 0]] + [np.zeros_like(X[..., 0])]
                                    * (X.shape[-1] - 1), axis=-1),
            n=2, hint=SupportHint.decaying(2.0, 0.0), label="bad")
        problems = validate_field(bad)
        assert problems and "gradient mismatch" in problems[0]

    def test_a_field_declared_radial_that_is_not_is_reported(self, manifest):
        # fx_lin is even, so only its radial checks miss: u and |grad u| at
        # x differ from theirs at |x| e_1
        field = manifest.field_functions["fx_lin"].instantiate(2)
        assert field.symmetry == "even" and validate_field(field) == []
        problems = validate_field(dataclasses.replace(field, symmetry="radial"))
        assert [p.split(" differs")[0] for p in problems] == [
            "'fx_lin': declared radial, but u", "'fx_lin': declared radial, but |grad u|"]

    def test_an_unknown_symmetry_is_reported(self, manifest):
        field = manifest.field_functions["fr_smooth"].instantiate(2)
        assert field.symmetry == "radial" and validate_field(field) == []
        assert validate_field(dataclasses.replace(field, symmetry="odd")) == [
            "'fr_smooth': unknown symmetry 'odd' (one of none, even, radial)"]

    def test_corpus_members_validate(self, manifest):
        for u in manifest.radial_functions.values():
            assert validate_radial(u) == []
        for factory in manifest.field_functions.values():
            assert validate_field(factory.instantiate(2)) == []


class TestModularTripleNd:
    def test_zero_field(self):
        zero = FieldFunction(
            u=lambda X: np.zeros(X.shape[:-1]),
            grad=lambda X: np.zeros(X.shape),
            n=2, hint=SupportHint.decaying(0.0, 0.0))
        tri = modular_triple_nd(zero, power_nfunction(2))
        assert [m.value for m in tri] == [0.0, 0.0, 0.0]

    def test_radial_field_reduces_to_profile(self, manifest, spec):
        nf = manifest.nfunc("p3")
        factory = manifest.field_functions["fr_smooth"]
        for n in (1, 2, 3):
            field = factory.instantiate(n)
            tri_nd = modular_triple_nd(field, nf, spec)
            tri_rad = modular_triple_radial(radial_profile(factory), nf, n, spec)
            area = surface_area(n)
            assert tri_nd.K.value == pytest.approx(area * tri_rad.K.value, rel=1e-8)
            assert tri_nd.L.value == pytest.approx(area * tri_rad.L.value, rel=1e-8)
            assert tri_nd.G.value == pytest.approx(area * tri_rad.G.value, rel=1e-8)

    def test_gaussian_field_closed_form(self, spec):
        # u = exp(-|x|^2/4), M = r^2, n = 2: every component is a moment with
        # a shifted Gaussian rate
        field = FieldFunction(
            u=lambda X: np.exp(-0.25 * (X * X).sum(axis=-1)),
            grad=lambda X: -0.5 * X * np.exp(-0.25 * (X * X).sum(axis=-1))[..., None],
            n=2, hint=SupportHint.decaying(0.0, 0.5))
        tri = modular_triple_nd(field, power_nfunction(2), spec)
        area = surface_area(2)
        # |u|^2 dgamma: rate 2 Gaussian: int r e^(-r^2) dr = 1/2
        assert tri.L.value == pytest.approx(area * 0.5, rel=1e-8)
        # (r|u|)^2: int r^3 e^(-r^2) dr = 1/2
        assert tri.K.value == pytest.approx(area * 0.5, rel=1e-8)
        # |grad u|^2 = r^2/4 e^(-r^2/2): int r^3/4 e^(-r^2) = 1/8
        assert tri.G.value == pytest.approx(area * 0.125, rel=1e-8)

    def test_k_l_and_g_are_the_results_their_family_gave(self, manifest, spec):
        # nothing is copied out of the family's results: each modular keeps
        # the family's finite truncation radius, its panels and its flag
        u, nf = manifest.field_functions["fx_lin"].instantiate(2), manifest.nfunc("p2")
        triple = modular_triple_nd(u, nf, spec)
        family = functionals._modular_family([(part, nf) for part in u.parts()[:3]],
                                             GaussianMeasure(2), spec)
        assert triple == tuple(family)
        for m, res in zip(triple, family):
            assert math.isfinite(m.radius) and m.radius == res.radius
            assert m.converged is res.converged is True
            # each modular's panels are its own part's, on the family's directions
            assert m.panels[2] is triple.K.panels[2]
            assert all(np.array_equal(a, b) for a, b in zip(m.panels, res.panels))

    def test_missing_gradient_rejected(self):
        none_grad = FieldFunction(u=lambda X: np.zeros(X.shape[:-1]), grad=None,
                                  n=2, hint=SupportHint.decaying(0.0, 0.0))
        with pytest.raises(PreconditionError, match="gradient"):
            modular_triple_nd(none_grad, power_nfunction(2))


class TestSphereRuleOfTheSymmetry:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_even_fields_on_the_drawn_directions_equal_the_full_sphere(
            self, manifest, spec, n, monkeypatch):
        # every packaged field is even or radial; declared even, a field's
        # family integrates the drawn half of the sphere directions, and its
        # modulars are, bit for bit, those of the family on all of them
        rows, family = [], quadrature.integrate_radial_family

        def counted(fs, n, spec=None, *, envelopes, **kwargs):
            rows.append(len(envelopes) * kwargs.get("rows", 1))
            return family(fs, n, spec, envelopes=envelopes, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_radial_family", counted)
        directions = quadrature.sphere_directions(n)
        meas = GaussianMeasure(n)
        for label, factory in sorted(manifest.field_functions.items()):
            if not factory.compatible(n):
                continue
            even = dataclasses.replace(factory.instantiate(n), symmetry="even")
            reference = dataclasses.replace(even, symmetry="none")
            assert (even.symmetry, reference.symmetry) == ("even", "none")
            for nf_label, nf in sorted(manifest.nfunctions.items()):
                where = (label, nf_label, n)
                rows.clear()
                triple = modular_triple_nd(even, nf, spec)
                hess = lone_or_none(even.parts().H, nf, meas, spec)
                assert rows == [3 * len(directions) // 2, len(directions) // 2], where
                assert triple.K.panels[2] is directions
                assert triple == modular_triple_nd(reference, nf, spec), where
                assert hess == lone_or_none(reference.parts().H, nf, meas, spec), where

    @pytest.mark.parametrize("normalized", [False, True])
    def test_radial_fields_integrate_one_direction(self, manifest, spec, normalized):
        # K, L and G of a radial field on e_1 alone are the surface area
        # times those of its radial profile, built as the radial poly_gauss
        # kind, within the field's err_est
        for label in ("fr_smooth", "fr_wide"):
            for n in (1, 2, 3):
                field = manifest.field_functions[label].instantiate(n)
                scale = surface_area(n) * ((2.0 * math.pi) ** (-n / 2.0) if normalized else 1.0)
                for nf_label, nf in sorted(manifest.nfunctions.items()):
                    triple = modular_triple_nd(field, nf, spec, normalized)
                    radial = modular_triple_radial(
                        radial_profile(manifest.field_functions[label]), nf, n, spec)
                    assert np.array_equal(triple.K.panels[2], np.eye(1, n))
                    for a, b in zip(triple, radial):
                        assert abs(a.value - scale * b.value) <= a.err_est, (label, nf_label, n)


def lone_or_none(profile, nf, measure, spec):
    """The modular of one part integrated alone, or None if it diverges."""
    return functionals._modular_family([(profile, nf)], measure, spec)[0]


def assert_family_agrees_with_lone(rows, where):
    """Each result of a family and the same modular integrated alone, on
    panels of its own, agree within their two error estimates summed; a
    modular that diverges alone diverges in the family."""
    for res, lone in rows:
        if lone is None:
            assert res is None, where
        else:
            assert abs(res.value - lone.value) <= res.err_est + lone.err_est, where


class TestModularFamilies:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_radial_triples_agree_with_lone_modulars(self, manifest, spec, n):
        meas = RadialMeasure(n)
        for nf_label, nf in sorted(manifest.nfunctions.items()):
            for label, u in sorted(manifest.radial_functions.items()):
                triple = modular_triple_radial(u, nf, n, spec)
                lone = [lone_or_none(part, nf, meas, spec) for part in u.parts()[:3]]
                assert_family_agrees_with_lone(zip(triple, lone), (nf_label, label, n))

    @pytest.mark.parametrize("n", [1, 2])
    def test_field_triples_and_lk_terms_agree_with_lone_modulars(self, manifest, spec, n):
        meas = GaussianMeasure(n)
        for nf_label in ("p2", "p3"):
            nf = manifest.nfunc(nf_label)
            for label, factory in sorted(manifest.field_functions.items()):
                if not factory.compatible(n):
                    continue
                u = factory.instantiate(n)
                parts = u.parts()
                triple = modular_triple_nd(u, nf, spec)
                lone = [lone_or_none(part, nf, meas, spec) for part in parts[:3]]
                assert_family_agrees_with_lone(zip(triple, lone), (nf_label, label, n))
                terms = lk_modular_terms(u, nf, triple, spec)
                lone = [lone_or_none(part, nf, meas, spec) for part in (parts.H, parts.L)]
                assert_family_agrees_with_lone(zip(terms[1:], lone), (nf_label, label, n))


def assert_spanning_agrees_with_single(spanning, single, where):
    """A triple from the family spanning several N-functions and the one
    from that N-function's own family diverge in the same modulars, and
    each other of K, L, G agrees within the two error estimates summed."""
    for a, b in zip(spanning, single):
        if a is None or b is None:
            assert a is b, where
        else:
            assert abs(a.value - b.value) <= a.err_est + b.err_est, where


class TestFamiliesSpanningNFunctions:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_radial_triples_agree_with_single_n_function_triples(self, manifest, spec, n):
        nfs = sorted(manifest.nfunctions.items())
        for label, u in sorted(manifest.radial_functions.items()):
            spanning = modular_triple_radial(u, [nf for _, nf in nfs], n, spec)
            for (nf_label, nf), triple in zip(nfs, spanning):
                assert_spanning_agrees_with_single(
                    triple, modular_triple_radial(u, nf, n, spec), (label, nf_label, n))

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_field_triples_agree_with_single_n_function_triples(self, manifest, spec, n,
                                                                normalized):
        nfs = sorted(manifest.nfunctions.items())
        for label, factory in sorted(manifest.field_functions.items()):
            if not factory.compatible(n):
                continue
            u = factory.instantiate(n)
            spanning = modular_triple_nd(u, [nf for _, nf in nfs], spec, normalized)
            for (nf_label, nf), triple in zip(nfs, spanning):
                assert_spanning_agrees_with_single(
                    triple, modular_triple_nd(u, nf, spec, normalized),
                    (label, nf_label, n, normalized))

    @pytest.mark.parametrize("subject", ["bump_mid", "fx_cross"])
    def test_the_k_argument_is_computed_once_per_sweep(self, manifest, spec, subject,
                                                      monkeypatch):
        # K's r |u| (|x| |u| of a field) is one argument under every
        # N-function: the family spanning all five transforms |u| once a
        # sweep, in each sweep in which a K part has not yet retired
        if subject in manifest.radial_functions:
            parts, measure = manifest.radial_functions[subject].parts()[:3], RadialMeasure(2)
        else:
            parts = manifest.field_functions[subject].instantiate(2).parts()[:3]
            measure = GaussianMeasure(2)
        transforms, sweeps, plain = [], [], quadrature._gk_panels

        def counted_transform(a, x):
            transforms.append(a.shape)
            return parts[0].transform(a, x)

        def counted_sweep(f, lo, hi):
            sweeps.append(lo.size)
            return plain(f, lo, hi)

        nfs = [nf for _, nf in sorted(manifest.nfunctions.items())]
        counted = (dataclasses.replace(parts[0], transform=counted_transform), *parts[1:])
        monkeypatch.setattr(quadrature, "_gk_panels", counted_sweep)
        triples = functionals._modular_triple(counted, nfs, measure, spec)
        monkeypatch.undo()
        assert len(nfs) == 5 and len(sweeps) > 1
        k_sweeps = 1 + max(retirement_sweep(sweeps, t.K.panels) for t in triples)
        assert len(transforms) == k_sweeps
        assert triples == functionals._modular_triple(parts, nfs, measure, spec)

    def test_radial_triples_across_dimensions_agree_with_each_dimension_s_own(
            self, manifest, spec):
        # one family spanning every (N-function, n) for n = 1..3 gives, for
        # each, what that dimension's own family spanning the N-functions
        # gives, within their two error estimates, and diverges where it does
        nfs = sorted(manifest.nfunctions.items())
        dims = [1, 2, 3]
        for label, u in sorted(manifest.radial_functions.items()):
            across = modular_triple_radial(u, [nf for _ in dims for _, nf in nfs],
                                           [n for n in dims for _ in nfs], spec)
            for i, n in enumerate(dims):
                own = modular_triple_radial(u, [nf for _, nf in nfs], n, spec)
                for (nf_label, _), a, b in zip(nfs, across[i * len(nfs):], own):
                    assert_spanning_agrees_with_single(a, b, (label, nf_label, n))

    def test_n_functions_pair_with_a_lone_dimension_or_a_list_as_long(self, manifest, spec):
        u, p2, p3 = (manifest.radial_functions["bump_mid"], manifest.nfunc("p2"),
                     manifest.nfunc("p3"))
        assert (modular_triple_radial(u, [p2, p3], [2, 2], spec)
                == modular_triple_radial(u, [p2, p3], 2, spec))
        with pytest.raises(PreconditionError, match="2 N-functions and 3 measures"):
            modular_triple_radial(u, [p2, p3], [1, 2, 3], spec)
        with pytest.raises(PreconditionError, match="1 N-functions and 2 measures"):
            modular_triple_radial(u, p2, [1, 2], spec)

    def test_each_m_is_evaluated_once_a_sweep_across_dimensions(self, manifest, spec,
                                                                 monkeypatch):
        # the family spanning p2 and p3 at n = 1..3 evaluates each
        # N-function's M of each of K's, L's and G's arguments once a sweep,
        # in each sweep in which its row at some dimension is live, not once
        # per dimension
        u, dims = manifest.radial_functions["bump_mid"], [1, 2, 3]
        nfs = [manifest.nfunc(label) for label in ("p2", "p3")]
        sweeps, evals, plain = [], [], quadrature._gk_panels

        def counted_sweep(f, lo, hi):
            sweeps.append(lo.size)
            return plain(f, lo, hi)

        def counted(nf):
            def evaluate(a):
                evals.append((nf.label, len(sweeps) - 1))
                return nf.eval(a)
            return dataclasses.replace(nf, eval=evaluate)

        counted_nfs = [counted(nf) for nf in nfs]
        monkeypatch.setattr(quadrature, "_gk_panels", counted_sweep)
        triples = modular_triple_radial(u, [nf for nf in counted_nfs for _ in dims],
                                        [n for _ in nfs for n in dims], spec)
        monkeypatch.undo()
        assert triples == modular_triple_radial(u, [nf for nf in nfs for _ in dims],
                                                [n for _ in nfs for n in dims], spec)
        # the sweep after which each (N-function, modular, n) row retired
        retired = {(nf.label, j, n): retirement_sweep(sweeps, triple[j].panels)
                   for i, nf in enumerate(nfs) for d, n in enumerate(dims)
                   for triple in [triples[i * len(dims) + d]] for j in range(3)}
        expected = Counter((nf.label, s) for nf in nfs for j in range(3)
                           for s in range(1 + max(retired[nf.label, j, n] for n in dims)))
        assert Counter(evals) == expected
        # a row per dimension would have evaluated M more often
        assert len(evals) < sum(1 + s for s in retired.values())

    def test_run_hardy_spans_only_the_admitted_pairs(self, manifest, spec, monkeypatch):
        # one family per radial member, spanning the (N-function, n) pairs
        # that some radial row admits: under liniowe, p2.5 at n = 3 alone
        calls = []
        original = functionals.modular_triple_radial

        def counted(u, nfs, dims, *args, **kwargs):
            calls.append((u.label, tuple(zip((nf.label for nf in nfs), dims))))
            return original(u, nfs, dims, *args, **kwargs)

        monkeypatch.setattr(cli, "modular_triple_radial", counted)
        checks = []
        run_hardy(manifest, spec, [1, 2, 3], checks, form="liniowe")
        row, = (row for row in hardy_mod.FORMS if row.name == "liniowe")
        admitted = tuple((nf_label, n) for n in (1, 2, 3)
                         for nf_label, nf in sorted(manifest.nfunctions.items())
                         if row.admits(nf.d_exp, nf.D_exp, n))
        assert sorted(calls) == [(label, admitted)
                                 for label in sorted(manifest.radial_functions)]
        assert [n for nf_label, n in admitted if nf_label == "p2.5"] == [3]
        assert {(c.nfunc_label, c.n) for c in checks} == set(admitted)

    def test_a_single_n_function_is_the_family_of_one(self, manifest, spec):
        u, nf = manifest.radial_functions["bump_mid"], manifest.nfunc("p3")
        assert modular_triple_radial(u, [nf], 2, spec) == [modular_triple_radial(u, nf, 2, spec)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_divergent_n_function_leaves_the_live_ones_alone(self, manifest, spec, n,
                                                               monkeypatch):
        # ga_mild grows like exp(r^2 / 8): under p4 each of its modulars
        # diverges against dmu_n, under p2 and p3 none does
        u = manifest.radial_functions["ga_mild"]
        p2, p3, p4 = (manifest.nfunc(label) for label in ("p2", "p3", "p4"))
        mixed = modular_triple_radial(u, [p2, p4, p3], n, spec)
        assert [[m is None for m in t] for t in mixed] == [[False] * 3, [True] * 3, [False] * 3]
        # divergent parts take no part in the refinement: the live triples
        # are, bit for bit, those of the family without p4
        assert [mixed[0], mixed[2]] == modular_triple_radial(u, [p2, p3], n, spec)

        def integrator(*args, **kwargs):
            raise AssertionError("a family of divergent parts integrated something")

        monkeypatch.setattr(functionals, "integrate_radial", integrator)
        alone, = modular_triple_radial(u, [p4], n, spec)
        assert alone == (None,) * 3 and alone.converged


# ---------------------------------------------------------------------------
# Luxemburg norms from the growth indices
# ---------------------------------------------------------------------------

def reference_norm(f, nf, measure, norm_tol=1e-9, abs_tol=1e-40):
    """Test-only reference: the index-free root-finder (a doubling/halving
    search for a bracket from K = 1, then clipped log-secant steps), by
    default with every modular at abs_tol 1e-40, so that none sits on the
    absolute tolerance floor."""
    spec = QuadratureSpec(abs_tol=abs_tol)

    def modular(k):
        return modular_value(f, nf, measure, spec, scale=k)

    m1 = modular(1.0)
    if m1 <= 0.0:
        return 0.0
    lo = hi = 1.0
    m_lo = m_hi = m1
    step = 2.0 if m1 > 1.0 else 0.5
    while (m_hi > 1.0) if step > 1.0 else (m_lo < 1.0):
        if step > 1.0:
            lo, m_lo, hi = hi, m_hi, hi * step
            m_hi = modular(hi)
        else:
            hi, m_hi, lo = lo, m_lo, lo * step
            m_lo = modular(lo)
    for _ in range(200):
        for k, m in ((hi, m_hi), (lo, m_lo)):
            if abs(m - 1.0) <= norm_tol:
                return k
        llo, lhi = math.log(lo), math.log(hi)
        t = math.log(m_lo) / (math.log(m_lo) - math.log(m_hi))
        k = math.exp(llo + min(max(t, 0.05), 0.95) * (lhi - llo))
        mk = modular(k)
        if mk > 1.0:
            lo, m_lo = k, mk
        else:
            hi, m_hi = k, mk
    raise AssertionError("reference Luxemburg search did not converge")


def hessian_profile(u):
    return ScalarProfile(lambda pts: hessian_hs_norm(u, pts), u.hint.times_power(2.0))


# ga_sharp's p4 modular decays like exp(-r^2 / 20): at abs_tol 1e-40 its
# truncation radius is so large that M(u) overflows, so its reference runs at
# the default floor, which its O(1) modular at K = 1 is far above
REFERENCE_ABS_TOL = {("p4", "ga_sharp"): QuadratureSpec().abs_tol}


class TestLuxemburgIndices:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_hessian_norm_below_abs_tol_floor(self, manifest, spec, p, n):
        # fx_cut's Hessian lives on 8 <= |x| <= 10: its modular at K = 1 is
        # ~1e-14, on the abs_tol floor, so m1^(1/p) alone is wrong by ~40%
        u = manifest.field_functions["fx_cut"].instantiate(n)
        nf = manifest.nfunc(f"p{p}")
        lux = fresh_norm(hessian_profile(u), nf, GaussianMeasure(n), spec)
        ref = reference_norm(hessian_profile(u), nf, GaussianMeasure(n))
        assert lux == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_radial_members_match_reference(self, manifest, spec, n):
        # p2log is the case d != D
        meas = RadialMeasure(n)
        for nf_label, nf in sorted(manifest.nfunctions.items()):
            for label, u in sorted(manifest.radial_functions.items()):
                if not modular_triple_radial(u, nf, n, spec).valid:
                    continue
                self.assert_matches_reference(
                    u.parts().L, nf, meas, spec, (nf_label, label),
                    abs_tol=REFERENCE_ABS_TOL.get((nf_label, label), 1e-40))

    @pytest.mark.parametrize("n", [1, 2])
    def test_field_members_match_reference(self, manifest, spec, n):
        meas = GaussianMeasure(n)
        for nf_label, nf in sorted(manifest.nfunctions.items()):
            for label, factory in sorted(manifest.field_functions.items()):
                if factory.compatible(n):
                    self.assert_matches_reference(factory.instantiate(n).parts().L, nf,
                                                  meas, spec, (nf_label, label))

    @staticmethod
    def assert_matches_reference(u, nf, meas, spec, where, norm_tol=1e-9,
                                 abs_tol=1e-40):
        lux = fresh_norm(u, nf, meas, spec, norm_tol)
        ref = reference_norm(u, nf, meas, norm_tol, abs_tol)
        assert lux == pytest.approx(ref, rel=norm_tol), where
        if nf.d_exp != nf.D_exp:
            assert modular_value(u, nf, meas, spec, scale=lux) == pytest.approx(
                1.0, abs=norm_tol), where

    def test_tiny_hessian_norm_takes_a_second_verifying_round(self, manifest, spec,
                                                               monkeypatch):
        # fx_cut's Hessian norm under p2log is ~1.4e-6 at n = 1: the first
        # verifying family puts its modular 3e-7 from 1, so the root is found
        # again on that family's panels and verified by a second family
        u = manifest.field_functions["fx_cut"].instantiate(1)
        nf = manifest.nfunc("p2log")
        terms = lk_modular_terms(u, nf, modular_triple_nd(u, nf, spec), spec)
        families = []
        original = functionals._modular_family

        def recorded(parts, measure, spec):
            results = original(parts, measure, spec)
            families.append([m.value for m in results])
            return results

        monkeypatch.setattr(functionals, "_modular_family", recorded)
        norm_tol = 1e-9  # luxemburg_norm's default
        lk_norm_triple(u, nf, terms, spec)
        assert len(families) >= 2
        # the first family verifies G, H and L; H alone misses 1
        assert [abs(m - 1.0) > norm_tol for m in families[0]] == [False, True, False]
        assert families[-1][-1] == pytest.approx(1.0, abs=norm_tol)

    def test_power_norm_takes_at_most_two_modulars(self, manifest, spec,
                                                   monkeypatch):
        # the caller's modular at K = 1, and at most one more inside the norm
        calls = count_modulars(monkeypatch)
        for nf_label in ("p2", "p2.5", "p3", "p4"):
            nf = manifest.nfunc(nf_label)
            for n in (1, 2):
                u = manifest.field_functions["fx_cut"].instantiate(n)
                profiles = [(f, GaussianMeasure(n)) for f in (u.parts().L, hessian_profile(u))]
                profiles += [(r.parts().L, RadialMeasure(n))
                             for r in manifest.radial_functions.values()
                             if modular_triple_radial(r, nf, n, spec).valid]
                for f, meas in profiles:
                    calls.clear()
                    fresh_norm(f, nf, meas, spec)
                    assert len(calls) <= 1, (nf_label, n)

    def test_power_log_norms_of_run_hardy_take_fewer_modulars(
            self, manifest, spec, monkeypatch):
        # the index-free search took 9.44 modulars per p2log norm here
        calls = count_modulars(monkeypatch)
        norms = []

        def counted_norm(*args, **kwargs):
            norms.append(args[1].label)
            return luxemburg_norm(*args, **kwargs)

        monkeypatch.setattr(hardy_mod, "luxemburg_norm", counted_norm)
        run_hardy(manifest, spec, [1, 2, 3], [], nfunc_label="p2log")
        assert norms and set(norms) == {"p2log"}
        assert len(calls) / len(norms) < 9.44
        # one verifying family per check
        assert len(calls) <= len(norms)


def count_modulars(monkeypatch):
    """The modular families integrated from here on inside calls of
    `luxemburg_norm` (not the triples that run_hardy also integrates)."""
    calls = []
    original = functionals._modular_family

    def counted(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not luxemburg_norm.__code__:
            frame = frame.f_back
        if frame is not None:
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(functionals, "_modular_family", counted)
    return calls


class TestNormsFromTheTriple:
    @pytest.mark.parametrize("form, normalized", [
        ("www", False), ("hn11", False), ("hn11", True)])
    def test_norm_forms_equal_norms_of_fresh_modulars(self, manifest, spec,
                                                      monkeypatch, form, normalized):
        # www and hn11 hand each norm its modular from the member's triple,
        # taken from the family spanning the run's N-functions (and, for a
        # radial member, the run's dimensions): every check must equal, bit
        # for bit, the one whose norms take their modulars at K = 1 from a
        # fresh family of the norms' own parts (r f, f, f'), integrated
        # afresh as (K, L, G) under every N-function, and on a radial
        # member's side at every dimension, of the run
        nfs = [nf for _, nf in sorted(manifest.nfunctions.items())]
        dims = [1, 2, 3]

        def run():
            checks = []
            run_hardy(manifest, spec, dims, checks, form=form,
                      normalized=normalized)
            return [canonical_json(c.as_dict()) for c in checks]

        def afresh_modulars(norms, nf, measure, *args, **kwargs):
            (L, _), (G, _), (K, _) = norms
            if isinstance(measure, GaussianMeasure):
                fresh = functionals._modular_triple((K, L, G), nfs, measure, spec)
                m_K, m_L, m_G = fresh[nfs.index(nf)]
            else:
                fresh = functionals._modular_triple(
                    (K, L, G), [m for _ in dims for m in nfs],
                    [RadialMeasure(n) for n in dims for _ in nfs], spec)
                m_K, m_L, m_G = fresh[dims.index(measure.n) * len(nfs) + nfs.index(nf)]
            return original([(L, m_L), (G, m_G), (K, m_K)], nf, measure,
                            *args, **kwargs)

        handed = run()
        original = hardy_mod.luxemburg_norm
        monkeypatch.setattr(hardy_mod, "luxemburg_norm", afresh_modulars)
        afresh = run()
        assert len(handed) > 0
        assert {json.loads(c)["nfunc_label"] for c in handed} == set(manifest.nfunctions)
        assert handed == afresh

    def test_www_norms_integrate_no_modular_at_k_one(self, manifest, spec,
                                                     monkeypatch):
        # a norm integrates only to verify its root, at that root, never at
        # K = 1, whose modular the triple holds (`root` scales a profile to
        # evaluate it on a rule, which integrates nothing)
        scales = []
        original = functionals._scaled

        def recorded(profile, k):
            caller = sys._getframe(1).f_code.co_qualname
            if caller.startswith("luxemburg_norm") and not caller.endswith(".root"):
                scales.append(k)
            return original(profile, k)

        monkeypatch.setattr(functionals, "_scaled", recorded)
        checks = []
        run_hardy(manifest, spec, [1, 2, 3], checks, form="www")
        assert {c.id for c in checks} == {"www"}
        assert scales, "the p2log norms verify their roots"
        assert 1.0 not in scales

    @pytest.mark.parametrize("nf_label", ["p2log", "p3"])
    def test_weighted_part_reads_the_explicit_weighted_profile(self, manifest, spec,
                                                               nf_label):
        # the norm of K's part, |u| under the transform r a (|x| a on R^n),
        # equals bit for bit the norm of the profile r |u| (|x| |u|) built
        # out in full, with the part's symmetry, from the same modular at
        # K = 1: p2log takes the secant search, p3 the power path
        nf = manifest.nfunc(nf_label)
        cases = [(u, RadialMeasure(n), modular_triple_radial(u, nf, n, spec),
                  ScalarProfile(lambda r, u=u: np.asarray(r, dtype=float) * np.abs(u.u(r)),
                                u.hint.times_power(1.0), u.breakpoints))
                 for _, u in sorted(manifest.radial_functions.items()) for n in (1, 2)]
        cases += [(u, GaussianMeasure(2), modular_triple_nd(u, nf, spec),
                   ScalarProfile(lambda x, u=u: np.linalg.norm(x, axis=-1) * np.abs(u.u(x)),
                                 u.hint.times_power(1.0), u.breakpoints,
                                 symmetry=u.parts().K.symmetry))
                  for u in (factory.instantiate(2)
                            for _, factory in sorted(manifest.field_functions.items())
                            if factory.compatible(2))]
        compared = 0
        for u, meas, triple, explicit in cases:
            m_K = triple.K
            if m_K is None:
                continue
            via_part = luxemburg_norm([(u.parts().K, m_K)], nf, meas, spec)
            assert via_part == luxemburg_norm([(explicit, m_K)], nf, meas, spec), (
                u.label, meas)
            compared += 1
        assert compared > len(manifest.field_functions)
