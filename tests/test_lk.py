import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from orlicz_hardy import functionals
from orlicz_hardy import landau_kolmogorov as lk_mod
from orlicz_hardy import quadrature
from orlicz_hardy.cli import run_lk
from orlicz_hardy.corpus import FieldFactory
from orlicz_hardy.errors import PreconditionError
from orlicz_hardy.functionals import (
    FieldFunction,
    ModularTriple,
    Norm,
    SupportHint,
    hessian_hs_norm,
    modular_triple_nd,
)
from orlicz_hardy.landau_kolmogorov import (
    LKTerms,
    check_lk_modular,
    check_lk_norm,
    fit_envelope,
    fit_lk_modular_envelope,
    fit_lk_norm_envelope,
    hardy_provenance,
    lk_modular_terms,
    lk_norm_triple,
    uniform_bound,
)
from orlicz_hardy.nfunc import power_nfunction
from orlicz_hardy.quadrature import IntegralResult
from orlicz_hardy.reporting import canonical_json


def terms_of(u, nf, spec=None):
    """`lk_modular_terms` of (u, nf), on a fresh modular triple."""
    return lk_modular_terms(u, nf, modular_triple_nd(u, nf, spec), spec)


def norm_triple(u, nf, spec=None):
    """`lk_norm_triple` of (u, nf), on fresh terms."""
    return lk_norm_triple(u, nf, terms_of(u, nf, spec), spec)


def exact_terms(lhs, hess, func, errs=(0.0, 0.0, 0.0)):
    """LKTerms of the given values, each with its error from errs."""
    return LKTerms(*(IntegralResult(v, e) for v, e in zip((lhs, hess, func), errs)))


def unit_terms(fields, nf, spec=None):
    """The label -> terms map of the fields."""
    return {u.label: terms_of(u, nf, spec) for u in fields}


def unit_norms(fields, nf, spec=None):
    """The label -> norm triple map of the fields."""
    return {u.label: norm_triple(u, nf, spec) for u in fields}


def lk_fields(manifest, n):
    return [f.instantiate(n) for _, f in sorted(manifest.field_functions.items())
            if f.compatible(n)]


def zero_field(n=2):
    return FieldFunction(
        u=lambda X: np.zeros(X.shape[:-1]),
        grad=lambda X: np.zeros(X.shape),
        hess=lambda X: np.zeros(X.shape + (n,)),
        n=n, hint=SupportHint.decaying(0.0, 0.0), label="zero")


class TestHypotheses:
    def test_missing_hessian_rejected(self, manifest):
        f = FieldFunction(u=lambda X: np.zeros(X.shape[:-1]),
                          grad=lambda X: np.zeros(X.shape),
                          n=2, hint=SupportHint.decaying(0.0, 0.0))
        with pytest.raises(PreconditionError, match="Hessian"):
            terms_of(f, manifest.nfunc("p2"))

    def test_slow_growth_rejected(self, manifest, spec):
        # lower exponent 1.5 < 2: M(r)/r^2 is decreasing
        field = manifest.field_functions["fx_lin"].instantiate(2)
        with pytest.raises(PreconditionError, match="non-decreasing"):
            hardy_provenance(field, power_nfunction(1.5), 2,
                             ModularTriple(*(IntegralResult(0.0, 0.0),) * 3))


class TestHessianNorm:
    def test_symmetry_exact(self, manifest):
        field = manifest.field_functions["fx_cross"].instantiate(3)
        pts = np.random.default_rng(3).standard_normal((12, 3))
        h = np.asarray(field.hess(pts))
        assert np.array_equal(
            np.sqrt((h ** 2).sum(axis=(-2, -1))),
            np.sqrt((np.swapaxes(h, -1, -2) ** 2).sum(axis=(-2, -1))))
        assert hessian_hs_norm(field, pts).shape == (12,)


class TestModularCheck:
    @pytest.mark.parametrize("nf_label", ["p2", "p2log"])
    def test_zero_field_holds(self, manifest, spec, nf_label):
        # u = 0: L1 = 0 and H1 = 0, so theta* = 1 and both sides vanish
        nf = manifest.nfunc(nf_label)
        terms = terms_of(zero_field(), nf, spec)
        assert (terms.func_term.value, terms.hess_term.value) == (0.0, 0.0)
        rep = check_lk_modular(terms, nf, 2.0, 2.0)
        assert rep.verdict == "holds" and rep.lhs == 0.0 and rep.theta == 1.0

    def test_a_zero_function_term_does_not_fail(self):
        # L1 = 0 beside H1 > 0: the infimum is 0, approached as theta -> 0;
        # with lhs = 0 the check holds, and an lhs above 0 is left open by
        # any error on L1, which theta^-d scales without bound
        nf = power_nfunction(2.0)
        rep = check_lk_modular(exact_terms(0.0, 1.0, 0.0), nf, 1.0, 1.0)
        assert (rep.verdict, rep.theta, rep.rhs) == ("holds", 0.0, 0.0)
        rep = check_lk_modular(exact_terms(1.0, 1.0, 0.0, (0.0, 0.0, 1e-12)),
                               nf, 1.0, 1.0)
        assert (rep.verdict, rep.theta, rep.err_est) == ("indeterminate", 0.0, math.inf)

    def test_truncated_linear_function_dominated_by_function_term(
            self, manifest, spec):
        # u = x1 inside radius 8: the Hessian vanishes there, so the bound
        # must come from the function term, at theta* = 1
        field = manifest.field_functions["fx_cut"].instantiate(1)
        nf = manifest.nfunc("p2")
        lhs_rep = check_lk_modular(terms_of(field, nf, spec), nf, 1.0, 1.0)
        assert lhs_rep.rhs_terms["hessian"] < 1e-6 * lhs_rep.rhs_terms["function"]
        assert lhs_rep.theta == 1.0
        assert lhs_rep.verdict in ("holds", "indeterminate")

    def test_a_miss_fails_only_under_a_power(self, manifest):
        # the bound is the exact minimum for a power and only a lower bound
        # of the right side for any other M
        terms = exact_terms(3.0, 1.0, 1.0)
        assert check_lk_modular(terms, manifest.nfunc("p2"), 1.0, 1.0).verdict == "fails"
        rep = check_lk_modular(terms, manifest.nfunc("p2log"), 1.0, 1.0)
        assert rep.verdict == "indeterminate" and "growth-index bound" in rep.details["reason"]


class TestUniformBound:
    @pytest.mark.parametrize("nf_label", ["p2", "p3"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("c1, c2", [(0.125, 2.0), (1.0, 1.0), (8.0, 0.5), (64.0, 0.125)])
    def test_a_power_bound_is_the_minimum_of_a_dense_scan(self, manifest, spec,
                                                          nf_label, n, c1, c2):
        # for M = r^p the terms at theta are theta^p H1 and theta^-p L1
        # exactly: the closed form is their least sum over (0, 1]
        nf = manifest.nfunc(nf_label)
        p = nf.D_exp
        thetas = np.linspace(1.0, 0.0, 10 ** 4, endpoint=False)
        for u in lk_fields(manifest, n):
            terms = terms_of(u, nf, spec)
            theta, hess, func, _ = uniform_bound(terms, c1, c2, p, p)
            scan = (c1 * thetas ** p * terms.hess_term.value
                    + c2 * thetas ** -p * terms.func_term.value)
            assert 0.0 < theta <= 1.0
            assert hess + func <= scan.min() * (1.0 + 1e-12), (u.label, theta)
            assert scan.min() == pytest.approx(hess + func, rel=1e-6), (u.label, theta)
            assert abs(thetas[scan.argmin()] - theta) <= 2e-4 or theta == 1.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_p2log_bound_lies_below_the_integrated_right_side(self, manifest, spec, n):
        # under p2log (d = 2, D = 3) each summand of the bound lies below its
        # term integrated at theta, M(theta |hess u|) and M(|u| / theta) in
        # one Gaussian family, and the bound's minimum below their sum
        nf = manifest.nfunc("p2log")
        d, D = nf.require_exponents()
        assert d < D
        c1, c2 = 0.5, 1.0
        scaled = (0.25, 0.5)
        for u in lk_fields(manifest, n):
            _, func_profile, _, hess_profile = u.parts()
            terms = terms_of(u, nf, spec)
            direct = quadrature.integrate_gaussian_nd(
                [(hess_profile.fn, lambda v, x, t=theta: nf.eval(t * v)) for theta in scaled]
                + [(func_profile.fn, lambda v, x, t=theta: nf.eval(np.abs(v) / t))
                   for theta in scaled],
                n, spec,
                envelopes=[functionals._compose_hint(u.hint.times_power(2.0), nf)] * 2
                + [functionals._compose_hint(u.hint, nf)] * 2,
                breakpoints=u.breakpoints)
            _, hess, func, _ = uniform_bound(terms, c1, c2, d, D)
            for theta, h, f in zip(scaled, direct, direct[2:]):
                slack = h.err_est + f.err_est + terms.hess_term.err_est + terms.func_term.err_est
                assert theta ** D * terms.hess_term.value <= h.value + slack, (u.label, theta)
                assert theta ** -d * terms.func_term.value <= f.value + slack, (u.label, theta)
                assert hess + func <= c1 * h.value + c2 * f.value + slack, (u.label, theta)


class TestNormTriple:
    def test_zero_norms(self, manifest, spec):
        r, s, t = norm_triple(zero_field(), manifest.nfunc("p2"), spec)
        assert (r.value, s.value, t.value) == (0.0, 0.0, 0.0)

    def test_scaling(self, manifest, spec):
        import dataclasses
        field = manifest.field_functions["fx_lin"].instantiate(2)
        c = 7.0
        scaled = dataclasses.replace(
            field,
            u=lambda X: c * np.asarray(field.u(X), float),
            grad=lambda X: c * np.asarray(field.grad(X), float),
            hess=lambda X: c * np.asarray(field.hess(X), float),
            label="7x")
        nf = manifest.nfunc("p3")
        r1, s1, t1 = norm_triple(field, nf, spec)
        r2, s2, t2 = norm_triple(scaled, nf, spec)
        assert r2.value == pytest.approx(c * r1.value, rel=1e-8)
        assert s2.value == pytest.approx(c * s1.value, rel=1e-8)
        assert t2.value == pytest.approx(c * t1.value, rel=1e-8)


def linear(lhs, x, y, label="a"):
    """A fit item whose right side is C1 x + C2 y."""
    return (label, lhs, lambda c1, c2: c1 * x + c2 * y)


class TestEnvelopeFit:
    def test_fit_minimises_sum(self, monkeypatch):
        items = [linear(1.0, 1.0, 0.0, "a"), linear(2.0, 0.0, 1.0, "b")]
        monkeypatch.setattr(lk_mod, "DEFAULT_FIT_GRID", (0.5, 1.0, 2.0, 4.0))
        c1, c2, binding, ok = fit_envelope(items)
        assert ok
        assert (c1, c2) == (1.0, 2.0)
        assert binding in ("a", "b")

    def test_tie_goes_to_smaller_c1_whatever_the_grid_order(self, monkeypatch):
        items = [linear(3.0, 1.0, 1.0)]
        for grid in ((1.0, 2.0), (2.0, 1.0)):
            monkeypatch.setattr(lk_mod, "DEFAULT_FIT_GRID", grid)
            c1, c2, binding, ok = fit_envelope(items)
            assert ok and (c1, c2, binding) == (1.0, 2.0, "a"), grid

    def test_infeasible_grid(self, monkeypatch):
        items = [linear(100.0, 1e-9, 1e-9)]
        monkeypatch.setattr(lk_mod, "DEFAULT_FIT_GRID", (0.5, 1.0))
        c1, c2, _, ok = fit_envelope(items)
        assert not ok and math.isinf(c1)

    def test_infinite_lhs_is_infeasible(self, monkeypatch):
        # against an infinite right side the tolerance is inf too, which
        # must not let an infinite lhs pass
        items = [linear(math.inf, 1.0, 1.0), linear(math.inf, math.inf, 1.0, "b")]
        monkeypatch.setattr(lk_mod, "DEFAULT_FIT_GRID", (1.0,))
        assert fit_envelope(items) == (math.inf, math.inf, "", False)

    def test_modular_fit_moves_past_a_pair_that_fails_below_theta_one(
            self, manifest, monkeypatch):
        # at theta = 1 the cheapest pair is (1, 0.5); under p2 the least
        # right side over (0, 1] is 2 sqrt(C1 C2 H1 L1) = 0.71 < 1 there, at
        # theta* = 0.59, so the fit takes the next pair, (1, 1)
        terms = exact_terms(1.0, 1.0, 0.25)
        monkeypatch.setattr(lk_mod, "DEFAULT_FIT_GRID", (0.5, 1.0, 2.0))
        assert fit_envelope([linear(1.0, 1.0, 0.25)]) == (1.0, 0.5, "a", True)
        fit = fit_lk_modular_envelope({"a": terms}, manifest.nfunc("p2"))
        assert fit.feasible and (fit.c1, fit.c2, fit.binding) == (1.0, 1.0, "a")
        assert fit == (1.0, 1.0, "a", True)

    def test_a_fit_admits_no_pair_at_which_a_member_check_fails(self, manifest):
        # lhs exceeds the right side at the cheapest pair by 5e-10, more than
        # the checks' tolerance 1e-12 max(1, |rhs|): each fit takes the next
        # pair, at which its member's check holds, and binds on the member
        lhs, half = 1.0000000005, Norm(0.5, 0.5, 0.5)
        norms = {"a": (Norm(lhs, lhs, lhs), half, half)}
        assert check_lk_norm(norms["a"], 1.0, 1.0).verdict == "fails"
        fit = fit_lk_norm_envelope(norms)
        assert fit == (0.125, 2.0, "a", True)
        assert check_lk_norm(norms["a"], fit.c1, fit.c2).verdict == "holds"
        nf = manifest.nfunc("p2")
        terms = {"a": exact_terms(lhs, 0.0, 1.0)}  # right side C2, at theta = 1
        assert check_lk_modular(terms["a"], nf, 0.125, 1.0).verdict == "fails"
        fit = fit_lk_modular_envelope(terms, nf)
        assert fit == (0.125, 2.0, "a", True)
        assert check_lk_modular(terms["a"], nf, fit.c1, fit.c2).verdict == "holds"

    @pytest.mark.parametrize("nf_label", ["p2", "p3"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_norm_envelope_exists(self, manifest, spec, nf_label, n):
        nf = manifest.nfunc(nf_label)
        fields = [f.instantiate(n) for f in manifest.field_functions.values()
                  if f.compatible(n)]
        norms = unit_norms(fields, nf, spec)
        fit = fit_lk_norm_envelope(norms)
        assert fit.feasible
        assert math.isfinite(fit.c1) and math.isfinite(fit.c2)
        assert fit.binding in {f.label for f in fields}
        for u, (label, triple) in zip(fields, norms.items()):
            assert label == u.label
            assert tuple(triple) == norm_triple(u, nf, spec)
            rep = check_lk_norm(triple, fit.c1, fit.c2)
            assert rep.verdict in ("holds", "indeterminate", "trivial"), \
                (label, rep.slack)

    def test_envelope_monotone_under_corpus_union(self, manifest, spec):
        nf = manifest.nfunc("p2")
        all_fields = [f.instantiate(2) for f in manifest.field_functions.values()
                      if f.compatible(2)]
        norms = unit_norms(all_fields, nf, spec)
        fit_small = fit_lk_norm_envelope(dict(list(norms.items())[:2]))
        fit_all = fit_lk_norm_envelope(norms)
        assert fit_all.c1 + fit_all.c2 >= fit_small.c1 + fit_small.c2 - 1e-12

    def test_modular_envelope(self, manifest, spec):
        nf = manifest.nfunc("p2")
        fields = lk_fields(manifest, 2)
        triples = {u.label: modular_triple_nd(u, nf, spec) for u in fields}
        terms = {u.label: lk_modular_terms(u, nf, triples[u.label], spec) for u in fields}
        fit = fit_lk_modular_envelope(terms, nf)
        assert fit.feasible
        for u in fields:
            # the fit's terms are one fresh call of (u, nf), bit for bit
            fresh = lk_modular_terms(u, nf, triples[u.label], spec)
            assert terms[u.label] == fresh
            rep = check_lk_modular(terms[u.label], nf, fit.c1, fit.c2)
            assert rep.verdict in ("holds", "indeterminate"), (u.label, rep.slack)
            assert 0.0 < rep.theta <= 1.0

    def test_the_fits_integrate_nothing(self, manifest, spec, monkeypatch):
        # on the members' precomputed terms and norms, with every modular
        # family, Luxemburg search and panel kernel raising, both fits give
        # the (C1, C2, binding, feasible) that run_lk records
        fits = {}
        run_lk(manifest, spec, [1, 2], [], fits, nfunc_labels=("p2",))
        nf = manifest.nfunc("p2")
        members = {n: (unit_terms(lk_fields(manifest, n), nf, spec),
                       unit_norms(lk_fields(manifest, n), nf, spec)) for n in (1, 2)}

        def integrates(*args, **kwargs):
            raise AssertionError("an envelope fit integrated")

        for module, name in ((lk_mod, "_modular_family"), (lk_mod, "luxemburg_norm"),
                             (functionals, "_modular_family"),
                             (functionals, "luxemburg_norm"), (quadrature, "_gk_panels")):
            monkeypatch.setattr(module, name, integrates)
        for n, (terms, norms) in members.items():
            for form, fit in (("statB1gauss", fit_lk_modular_envelope(terms, nf)),
                              ("statB2gauss", fit_lk_norm_envelope(norms))):
                recorded = fits[f"{form}:p2:n={n}"]
                assert fit == (recorded["C1"], recorded["C2"], recorded["binding"],
                               recorded["feasible"]), (form, n)


class TestProvenanceChain:
    def test_hardy_gate_recorded(self, manifest, spec):
        field = manifest.field_functions["fr_wide"].instantiate(2)
        nf = manifest.nfunc("p2")
        provenance = hardy_provenance(field, nf, 2, modular_triple_nd(field, nf, spec))
        assert provenance["hardy_form"] == "hn1"
        assert provenance["hardy_verdict"] == "holds"
        assert set(provenance) == {"hardy_form", "hardy_verdict", "hardy_slack",
                                   "hardy_constants"}

    def test_boundary_growth_quadratic_runs(self, manifest, spec):
        # M = r^2 sits exactly at the d = 2 boundary and must be accepted
        field = manifest.field_functions["fx_quad"].instantiate(2)
        nf = manifest.nfunc("p2")
        triple = modular_triple_nd(field, nf, spec)
        rep = check_lk_modular(lk_modular_terms(field, nf, triple, spec), nf, 64.0, 64.0,
                               provenance=hardy_provenance(field, nf, 2, triple))
        assert rep.verdict in ("holds", "indeterminate")
        assert rep.provenance["hardy_form"] == "hn1"

    def test_every_modular_check_carries_the_gate(self, manifest, spec):
        # one statB1 check per member, at its theta*, and each carries the
        # hn1 provenance
        checks = []
        run_lk(manifest, spec, [1], checks, {}, nfunc_labels=("p2",))
        labels = [u.label for u in lk_fields(manifest, 1)]
        modular = [c for c in checks if c.check_id.startswith("statB1:")]
        assert sorted(c.check_id for c in modular) == sorted(
            f"statB1:p2:{label}:n=1" for label in labels)
        for check in modular:
            assert check.id == "statB1gauss" and 0.0 < check.theta <= 1.0
            assert check.provenance["hardy_form"] == "hn1"
            assert check.provenance["hardy_verdict"] != "fails"

    def test_finiteness_propagation(self, manifest, spec):
        # finite right-hand modulars force a finite left-hand side
        nf = manifest.nfunc("p3")
        for factory in manifest.field_functions.values():
            if not factory.compatible(2):
                continue
            u = factory.instantiate(2)
            lhs, a, b = (term.value for term in terms_of(u, nf, spec))
            if math.isfinite(a) and math.isfinite(b):
                assert math.isfinite(lhs)


class TestRunLkComputesOnce:
    def test_one_call_per_distinct_argument(self, manifest, spec, monkeypatch):
        calls = {"norm": [], "modular": []}

        def counted(kind, fn, key):
            def wrapper(u, nf, *args, **kwargs):
                calls[kind].append(key(u, nf, *args, **kwargs))
                return fn(u, nf, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(lk_mod, "lk_norm_triple", counted(
            "norm", lk_mod.lk_norm_triple, lambda u, nf, *a, **k: (u.label, nf.label, u.n)))
        monkeypatch.setattr(lk_mod, "lk_modular_terms", counted(
            "modular", lk_mod.lk_modular_terms,
            lambda u, nf, *a, **k: (u.label, nf.label, u.n)))
        run_lk(manifest, spec, [1, 2], [], {})
        expected_norm = {(label, nf_label, n)
                         for nf_label in ("p2", "p3") for n in (1, 2)
                         for label, factory in manifest.field_functions.items()
                         if factory.compatible(n)}
        assert sorted(calls["norm"]) == sorted(expected_norm)
        assert sorted(calls["modular"]) == sorted(expected_norm)


class TestModularTermsFromTheTriple:
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("nf_label", ["p2", "p3", "p2log"])
    def test_terms_equal_their_own_integrals(self, manifest, spec, nf_label,
                                             normalized):
        # the lhs and the function term are read from the triple; the
        # Hessian term must equal, bit for bit, a fresh Gaussian family of
        # that integral alone, on the sphere directions of the field's
        # symmetry
        nf = manifest.nfunc(nf_label)
        for n in (1, 2, 3):
            for u in lk_fields(manifest, n):
                hess_profile = u.parts().H
                triple = modular_triple_nd(u, nf, spec, normalized)
                hess, = quadrature.integrate_gaussian_nd(
                    [(hess_profile.fn, lambda v, x: nf.eval(v))], n, spec,
                    envelopes=[functionals._compose_hint(u.hint.times_power(2.0), nf)],
                    normalized=normalized, breakpoints=u.breakpoints,
                    symmetry=hess_profile.symmetry)
                terms = lk_modular_terms(u, nf, triple, spec, normalized)
                assert terms == LKTerms(triple.G, hess, triple.L), (u.label, n)
                assert terms.lhs is triple.G and terms.func_term is triple.L


class TestRunLkIntegratesOnce:
    @pytest.mark.parametrize("nf_label", ["p2", "p2log"])
    def test_gaussian_modulars_per_field_beyond_its_norms(
            self, manifest, spec, monkeypatch, nf_label):
        # K, L, G once and M(|hess u|), in two families: the triple and the
        # Hessian term, whatever the N-function; every other theta is
        # bounded from these.  Every family is one radial family, one
        # `_adaptive` call
        families, modulars = Counter(), Counter()
        in_norm = []
        norm, family = lk_mod.luxemburg_norm, quadrature.integrate_radial_family
        gaussian = functionals.integrate_gaussian_nd

        def counted_norm(*args, **kwargs):
            in_norm.append(True)
            try:
                return norm(*args, **kwargs)
            finally:
                in_norm.pop()

        def counted_family(*args, **kwargs):
            families["norm" if in_norm else "modular"] += 1
            return family(*args, **kwargs)

        def counted_gaussian(parts, *args, **kwargs):
            modulars["norm" if in_norm else "modular"] += len(parts)
            return gaussian(parts, *args, **kwargs)

        monkeypatch.setattr(lk_mod, "luxemburg_norm", counted_norm)
        monkeypatch.setattr(quadrature, "integrate_radial_family", counted_family)
        monkeypatch.setattr(functionals, "integrate_gaussian_nd", counted_gaussian)
        run_lk(manifest, spec, [2], [], {}, nfunc_labels=(nf_label,))
        fields = [f for f in manifest.field_functions.values() if f.compatible(2)]
        assert modulars["modular"] == 4 * len(fields)
        assert families["modular"] == 2 * len(fields)
        if nf_label == "p2":
            # a power norm's modular at K = 1 is a term: at most one more inside
            assert families["norm"] == modulars["norm"] <= 3 * len(fields)


class TestRunLkSamplesOnce:
    def test_no_profile_evaluated_twice_at_a_radius(self, manifest, spec, monkeypatch):
        # within one Gaussian integral (one family) no profile is evaluated
        # twice at a radius; different families evaluate their own radii
        evaluations = Counter()
        integral = itertools.count()
        current = [None]
        original, gaussian = FieldFactory.instantiate, functionals.integrate_gaussian_nd

        def recorded(name, fn):
            def wrapper(pts):
                assert pts.ndim == 3  # (directions, radii, n): one column per radius
                evaluations.update((current[0], name, col.tobytes())
                                   for col in pts.swapaxes(0, 1))
                return fn(pts)
            return wrapper

        def instantiate(factory, n):
            u = original(factory, n)
            return dataclasses.replace(
                u, u=recorded((u.label, "u"), u.u), grad=recorded((u.label, "grad"), u.grad),
                hess=recorded((u.label, "hess"), u.hess))

        def counted_gaussian(*args, **kwargs):
            current[0] = next(integral)
            return gaussian(*args, **kwargs)

        monkeypatch.setattr(FieldFactory, "instantiate", instantiate)
        monkeypatch.setattr(functionals, "integrate_gaussian_nd", counted_gaussian)
        run_lk(manifest, spec, [1, 2], [], {})
        assert {name[1] for _, name, _ in evaluations} == {"u", "grad", "hess"}
        repeated = [key for key, count in evaluations.items() if count > 1]
        assert repeated == []


class TestNormsFromTheTerms:
    @pytest.mark.parametrize("normalized", [False, True])
    def test_norms_equal_norms_of_fresh_modulars(self, manifest, spec, monkeypatch,
                                                 normalized):
        # the norm triple takes its three modulars at K = 1 from the terms:
        # every norm check and fit must equal, bit for bit, those whose norms
        # take them from a fresh triple and fresh terms, integrated afresh
        def run():
            checks, fits = [], {}
            run_lk(manifest, spec, [1, 2], checks, fits, normalized=normalized)
            return ([canonical_json(c.as_dict()) for c in checks
                     if c.id == "statB2gauss"], canonical_json(fits))

        def afresh_terms(u, nf, terms, spec=None, normalized=False):
            triple = modular_triple_nd(u, nf, spec, normalized)
            fresh = lk_modular_terms(u, nf, triple, spec, normalized)
            return original(u, nf, fresh, spec, normalized)

        handed = run()
        original = lk_mod.lk_norm_triple
        monkeypatch.setattr(lk_mod, "lk_norm_triple", afresh_terms)
        afresh = run()
        assert len(handed[0]) > 0
        assert handed == afresh
