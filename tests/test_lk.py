import dataclasses
import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from orlicz_hardy import functionals
from orlicz_hardy import landau_kolmogorov as lk_mod
from orlicz_hardy import quadrature
from orlicz_hardy.cli import DEFAULT_THETAS, run_lk
from orlicz_hardy.corpus import FieldFactory
from orlicz_hardy.errors import EvaluationError, PreconditionError
from orlicz_hardy.functionals import (
    FieldFunction,
    ModularTriple,
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
)
from orlicz_hardy.nfunc import comparison_tol, power_nfunction
from orlicz_hardy.reporting import canonical_json


def theta_terms(u, nf, theta, spec=None):
    """`lk_modular_terms` of (u, nf) at theta alone, on a fresh modular
    triple."""
    return lk_modular_terms(u, nf, (theta,), modular_triple_nd(u, nf, spec), spec)[theta]


def norm_triple(u, nf, spec=None):
    """`lk_norm_triple` of (u, nf), on fresh theta = 1 terms."""
    return lk_norm_triple(u, nf, theta_terms(u, nf, 1.0, spec), spec)


def unit_terms(fields, nf, spec=None):
    """The label -> theta -> terms map of the fields at theta = 1 only."""
    return {u.label: {1.0: theta_terms(u, nf, 1.0, spec)} for u in fields}


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
            theta_terms(f, manifest.nfunc("p2"), 1.0)

    def test_slow_growth_rejected(self, manifest, spec):
        # lower exponent 1.5 < 2: M(r)/r^2 is decreasing
        field = manifest.field_functions["fx_lin"].instantiate(2)
        with pytest.raises(PreconditionError, match="non-decreasing"):
            hardy_provenance(field, power_nfunction(1.5), 2,
                             ModularTriple(0.0, 0.0, 0.0))

    def test_theta_out_of_range(self, manifest):
        field = manifest.field_functions["fx_lin"].instantiate(2)
        with pytest.raises(PreconditionError, match="theta"):
            theta_terms(field, manifest.nfunc("p2"), 1.5)


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
    def test_zero_field_holds(self, manifest, spec):
        terms = theta_terms(zero_field(), manifest.nfunc("p2"), 1.0, spec)
        rep = check_lk_modular(terms, 2.0, 2.0)
        assert rep.verdict == "holds" and rep.lhs == 0.0

    def test_truncated_linear_function_dominated_by_function_term(
            self, manifest, spec):
        # u = x1 inside radius 8: the Hessian vanishes there, so the bound
        # must come from the function term
        field = manifest.field_functions["fx_cut"].instantiate(1)
        terms = theta_terms(field, manifest.nfunc("p2"), 1.0, spec)
        lhs_rep = check_lk_modular(terms, 1.0, 1.0, 1.0)
        assert lhs_rep.rhs_terms["hessian"] < 1e-6 * lhs_rep.rhs_terms["function"]
        assert lhs_rep.verdict in ("holds", "indeterminate")

    @pytest.mark.parametrize("theta", [1e-300, 1e-150])
    def test_a_power_term_that_overflows_is_an_evaluation_error(self, manifest, spec,
                                                                 theta):
        # theta^-2 overflows at 1e-300; at 1e-150 it is 1e300, and its
        # product with L = 1e10 overflows
        field = manifest.field_functions["fr_smooth"].instantiate(1)
        with pytest.raises(EvaluationError, match=f"theta={theta:g}"):
            lk_modular_terms(field, manifest.nfunc("p2"), (theta,),
                             ModularTriple(1.0, 1e10, 1.0), spec)


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


class TestEnvelopeFit:
    def test_fit_minimises_sum(self):
        items = [("a", 1.0, 1.0, 0.0, 1e-12), ("b", 2.0, 0.0, 1.0, 1e-12)]
        c1, c2, binding, ok = fit_envelope(items, grid=(0.5, 1.0, 2.0, 4.0))
        assert ok
        assert (c1, c2) == (1.0, 2.0)
        assert binding in ("a", "b")

    def test_tie_goes_to_smaller_c1_whatever_the_grid_order(self):
        items = [("a", 3.0, 1.0, 1.0, 0.0)]
        for grid in ((1.0, 2.0), (2.0, 1.0)):
            c1, c2, binding, ok = fit_envelope(items, grid=grid)
            assert ok and (c1, c2, binding) == (1.0, 2.0, "a"), grid

    def test_infeasible_grid(self):
        items = [("a", 100.0, 1e-9, 1e-9, 0.0)]
        c1, c2, _, ok = fit_envelope(items, grid=(0.5, 1.0))
        assert not ok and math.isinf(c1)

    def test_infinite_lhs_is_infeasible(self):
        # the tol both LK fits take from the lhs is inf here, which must not
        # let inf <= C1 x + C2 y + tol pass
        items = [("a", math.inf, 1.0, 1.0, comparison_tol(math.inf, 1e-9))]
        assert fit_envelope(items, grid=(1.0,)) == (math.inf, math.inf, "", False)

    def test_modular_fit_moves_past_a_pair_that_fails_below_theta_one(
            self, monkeypatch):
        # at theta = 1 the cheapest pair is (1, 0.5); at theta = 0.25 the
        # function term needs C2 >= 1, so the fit takes the next pair (1, 1)
        terms = {1.0: (1.0, 1.0, 0.0, (0.0, 0.0, 0.0)),
                 0.25: (1.0, 0.0, 1.0, (0.0, 0.0, 0.0))}
        monkeypatch.setattr(lk_mod, "lk_modular_terms",
                            lambda u, nf, thetas, *args: {t: terms[t] for t in thetas})
        grid = (0.5, 1.0, 2.0)
        assert fit_envelope([("a", *terms[1.0][:3], 1e-9)], grid) == (1.0, 0.5, "a", True)
        fit, fitted = fit_lk_modular_envelope([SimpleNamespace(label="a")], None,
                                              {"a": None}, grid=grid,
                                              theta_grid=(0.25,))
        assert fit.feasible and (fit.c1, fit.c2, fit.binding_label) == (1.0, 1.0, "a")
        assert fitted == {"a": terms}

    @pytest.mark.parametrize("nf_label", ["p2", "p3"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_norm_envelope_exists(self, manifest, spec, nf_label, n):
        nf = manifest.nfunc(nf_label)
        fields = [f.instantiate(n) for f in manifest.field_functions.values()
                  if f.compatible(n)]
        fit, rows = fit_lk_norm_envelope(fields, nf, unit_terms(fields, nf, spec), spec)
        assert fit.feasible
        assert math.isfinite(fit.c1) and math.isfinite(fit.c2)
        assert fit.binding_label in {f.label for f in fields}
        for u, (label, *triple) in zip(fields, rows):
            assert label == u.label
            assert tuple(triple) == norm_triple(u, nf, spec)
            rep = check_lk_norm(triple, fit.c1, fit.c2)
            assert rep.verdict in ("holds", "indeterminate", "trivial"), \
                (label, rep.slack)

    def test_envelope_monotone_under_corpus_union(self, manifest, spec):
        nf = manifest.nfunc("p2")
        all_fields = [f.instantiate(2) for f in manifest.field_functions.values()
                      if f.compatible(2)]
        terms = unit_terms(all_fields, nf, spec)
        fit_small, _ = fit_lk_norm_envelope(all_fields[:2], nf, terms, spec)
        fit_all, _ = fit_lk_norm_envelope(all_fields, nf, terms, spec)
        assert fit_all.c1 + fit_all.c2 >= fit_small.c1 + fit_small.c2 - 1e-12

    def test_modular_envelope_and_theta_sweep(self, manifest, spec):
        nf = manifest.nfunc("p2")
        fields = [f.instantiate(2) for f in manifest.field_functions.values()
                  if f.compatible(2)]
        triples = {u.label: modular_triple_nd(u, nf, spec) for u in fields}
        fit, terms = fit_lk_modular_envelope(fields, nf, triples, spec,
                                             theta_grid=(0.25, 0.5, 1.0))
        assert fit.feasible
        for u in fields:
            # the fit's terms are one fresh family call of (u, nf), bit for bit
            fresh = lk_modular_terms(u, nf, (0.25, 0.5, 1.0), triples[u.label], spec)
            assert {theta: t[:5] for theta, t in terms[u.label].items()} == {
                theta: t[:5] for theta, t in fresh.items()}
            for theta in (0.25, 0.5, 1.0):
                rep = check_lk_modular(terms[u.label][theta], fit.c1, fit.c2, theta)
                assert rep.verdict in ("holds", "indeterminate"), \
                    (u.label, theta, rep.slack)


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
        rep = check_lk_modular(lk_modular_terms(field, nf, (1.0,), triple, spec)[1.0],
                               64.0, 64.0,
                               provenance=hardy_provenance(field, nf, 2, triple))
        assert rep.verdict in ("holds", "indeterminate")
        assert rep.provenance["hardy_form"] == "hn1"

    def test_theta_one_check_carries_the_gate_outside_the_theta_grid(
            self, manifest, spec):
        # theta = 1 is not in the grid: its check is still emitted, once,
        # under a statB1:theta=1 id, and it alone carries the hn1 provenance
        checks = []
        run_lk(manifest, spec, [1], checks, {}, {}, nfunc_labels=("p2",),
               theta_grid=(0.5,))
        labels = [label for label, factory in sorted(manifest.field_functions.items())
                  if factory.compatible(1)]
        ids = [c.check_id for c in checks]
        assert not [i for i in ids if i.startswith("statB1gauss_from_hardy")]
        assert len(ids) == len(set(ids))
        for label in labels:
            for theta in ("0.5", "1"):
                assert f"statB1:theta={theta}:p2:{label}:n=1" in ids
        for check in checks:
            if check.check_id.startswith("statB1:"):
                assert (check.id == "statB1gauss") == (check.theta == 1.0)
                if check.theta == 1.0:
                    assert check.provenance["hardy_form"] == "hn1"
                    assert check.provenance["hardy_verdict"] != "fails"
                else:
                    assert check.provenance == {}

    def test_finiteness_propagation(self, manifest, spec):
        # finite right-hand modulars force a finite left-hand side
        nf = manifest.nfunc("p3")
        for factory in manifest.field_functions.values():
            if not factory.compatible(2):
                continue
            u = factory.instantiate(2)
            lhs, a, b, errs, *_ = theta_terms(u, nf, 1.0, spec)
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
            lambda u, nf, thetas, *a, **k: (u.label, nf.label, u.n, tuple(thetas))))
        run_lk(manifest, spec, [1, 2], [], {}, {})
        expected_norm = {(label, nf_label, n)
                         for nf_label in ("p2", "p3") for n in (1, 2)
                         for label, factory in manifest.field_functions.items()
                         if factory.compatible(n)}
        # one family of every theta per (field, N-function, n)
        expected_modular = {key + (DEFAULT_THETAS,) for key in expected_norm}
        assert sorted(calls["norm"]) == sorted(expected_norm)
        assert sorted(calls["modular"]) == sorted(expected_modular)


class TestModularTermsFromTheTriple:
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("nf_label", ["p2", "p3", "p2log"])
    def test_terms_equal_their_own_integrals(self, manifest, spec, nf_label,
                                             normalized):
        # the lhs and the theta = 1 function term are read from the triple;
        # the theta = 1 Hessian term must equal, bit for bit, a fresh
        # Gaussian family of that integral alone.  Under a power M = r^p the
        # Hessian and function terms at each theta != 1 are theta^p and
        # theta^-p times the theta = 1 terms, bit for bit, and lie within
        # both error estimates of a fresh family of exactly those; under
        # any other M they equal that fresh family bit for bit
        nf = manifest.nfunc(nf_label)
        p = None if nf_label == "p2log" else nf.D_exp
        thetas = DEFAULT_THETAS
        scaled = [theta for theta in thetas if theta != 1.0]
        for n in (1, 2, 3):
            for label, factory in sorted(manifest.field_functions.items()):
                if not factory.compatible(n):
                    continue
                u = factory.instantiate(n)
                _, func_profile, _, hess_profile = u.parts()
                triple = modular_triple_nd(u, nf, spec, normalized)
                hess_env = functionals._compose_hint(u.hint.times_power(2.0), nf)
                func_env = functionals._compose_hint(u.hint, nf)

                def family(parts, envelopes):
                    return quadrature.integrate_gaussian_nd(
                        parts, n, spec, envelopes=envelopes, normalized=normalized,
                        breakpoints=u.breakpoints)

                hess_one, = family([(hess_profile.fn, lambda v, x: nf.eval(v))], [hess_env])
                direct = family(
                    [(hess_profile.fn, lambda v, x, t=theta: nf.eval(t * v)) for theta in scaled]
                    + [(func_profile.fn, lambda v, x, t=theta: nf.eval(np.abs(v) / t))
                       for theta in scaled],
                    [hess_env] * len(scaled) + [func_env] * len(scaled))
                expected = {1.0: (hess_one.value, hess_one.err_est, triple.L, triple.errs[1])}
                for theta, hess, func in zip(scaled, direct, direct[len(scaled):]):
                    expected[theta] = (
                        (hess.value, hess.err_est, func.value, func.err_est) if p is None
                        else (theta ** p * hess_one.value, theta ** p * hess_one.err_est,
                              theta ** -p * triple.L, theta ** -p * triple.errs[1]))
                terms = lk_modular_terms(u, nf, thetas, triple, spec, normalized)
                assert list(terms) == list(thetas)
                for theta, (hess, hess_err, func, func_err) in expected.items():
                    assert terms[theta][:5] == LKTerms(
                        triple.G, hess, func, (triple.errs[2], hess_err, func_err),
                        True)[:5], (label, n, theta)
                    assert terms[theta].panels[0] is triple.panels
                for theta, hess, func in zip(scaled, direct, direct[len(scaled):]):
                    _, hess_term, func_term, (_, hess_err, func_err), *_ = terms[theta]
                    assert abs(hess_term - hess.value) <= hess_err + hess.err_est, \
                        (label, n, theta)
                    assert abs(func_term - func.value) <= func_err + func.err_est, \
                        (label, n, theta)


class TestRunLkIntegratesOnce:
    @pytest.mark.parametrize("nf_label, per_field, families_per_field",
                             [("p2", 4, 2), ("p2log", 8, 3)])
    def test_gaussian_modulars_per_field_beyond_its_norms(
            self, manifest, spec, monkeypatch, nf_label, per_field, families_per_field):
        # K, L, G once and M(|hess u|) at theta = 1, in two families: the
        # triple and the theta = 1 Hessian term.  Under a power M the terms
        # at theta != 1 are rescaled from those; under any other M,
        # M(theta |hess u|) and M(|u|/theta) at each theta != 1 are a third
        # family.  Every family is one radial family, one `_adaptive` call
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
        run_lk(manifest, spec, [2], [], {}, {}, nfunc_labels=(nf_label,))
        fields = [f for f in manifest.field_functions.values() if f.compatible(2)]
        assert modulars["modular"] == per_field * len(fields)
        assert families["modular"] == families_per_field * len(fields)
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
        run_lk(manifest, spec, [1, 2], [], {}, {})
        assert {name[1] for _, name, _ in evaluations} == {"u", "grad", "hess"}
        repeated = [key for key, count in evaluations.items() if count > 1]
        assert repeated == []


class TestNormsFromTheTerms:
    @pytest.mark.parametrize("normalized", [False, True])
    def test_norms_equal_norms_of_fresh_modulars(self, manifest, spec, monkeypatch,
                                                 normalized):
        # the norm triple takes its three modulars at K = 1 from the
        # theta = 1 terms: every norm check and fit must equal, bit for bit,
        # those whose norms take them from a fresh triple and fresh theta = 1
        # terms, integrated afresh
        def run():
            checks, fits = [], {}
            run_lk(manifest, spec, [1, 2], checks, {}, fits, normalized=normalized)
            return ([canonical_json(c.as_dict()) for c in checks
                     if c.id == "statB2gauss"], canonical_json(fits))

        def afresh_terms(u, nf, terms, spec=None, normalized=False):
            triple = modular_triple_nd(u, nf, spec, normalized)
            fresh = lk_modular_terms(u, nf, (1.0,), triple, spec, normalized)
            return original(u, nf, fresh[1.0], spec, normalized)

        handed = run()
        original = lk_mod.lk_norm_triple
        monkeypatch.setattr(lk_mod, "lk_norm_triple", afresh_terms)
        afresh = run()
        assert len(handed[0]) > 0
        assert handed == afresh

    def test_norms_do_not_move_with_the_theta_grid(self, manifest, spec):
        # m1 of ||hess u|| is the theta = 1 Hessian term, a family of its
        # own: the other thetas must not move a norm check or the norm fit
        def run(theta_grid):
            checks, fits = [], {}
            run_lk(manifest, spec, [1, 2], checks, {}, fits, theta_grid=theta_grid)
            return ([canonical_json(c.as_dict()) for c in checks if c.id == "statB2gauss"],
                    canonical_json({key: fit for key, fit in fits.items()
                                    if key.startswith("statB2gauss:")}))

        default = run(DEFAULT_THETAS)
        assert len(default[0]) > 0 and "C1" in default[1]
        assert default == run((0.5,)) == run((1.0,))
