"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.
"""

import json
import math

import numpy as np
from conftest import radial_profile

from orlicz_hardy.cli import main as cli_main
from orlicz_hardy.functionals import (
    ScalarProfile,
    _modular_family,
    luxemburg_norm,
    modular_triple_nd,
    modular_triple_radial,
    modular_value,
)
from orlicz_hardy.hardy import (
    check_alternative,
    check_hn1,
    check_linear,
    check_p2_exact,
    check_wwww,
    linear_constants,
)
from orlicz_hardy.landau_kolmogorov import (
    check_lk_modular,
    fit_lk_modular_envelope,
    fit_lk_norm_envelope,
    lk_modular_terms,
    lk_norm_triple,
)
from orlicz_hardy.mazya import classical_pair, gaussian_hardy_pq, mazya_B
from orlicz_hardy.nfunc import check_lemma_split, check_lemma_young, power_nfunction
from orlicz_hardy.quadrature import RadialMeasure, surface_area
from orlicz_hardy.sharpness import (
    ExtremalParams,
    c1_lower_bound,
    c2_infeasibility_scan,
    extremal_function,
    extremal_moments,
    stirling_ratio,
)
from orlicz_hardy.errors import PreconditionError


def _criterion(num: int, name: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {name} {detail}"


def test_01_closed_form_reproduction(spec):
    worst = 0.0
    for alpha in (0.0, 0.5, 0.9):
        for p in (2, 3, 4):
            for n in (1, 2, 3):
                params = ExtremalParams(alpha, p, n)
                cf = extremal_moments(params)
                tri = modular_triple_radial(extremal_function(params),
                                            power_nfunction(p), n, spec)
                for got, want in ((q.value, e.value) for q, e in zip(tri, cf)):
                    rel = abs(got - want) / want if want > 0 else abs(got)
                    worst = max(worst, rel)
    _criterion(1, "quadrature reproduces the closed-form modulars",
               worst <= 1e-7, f"worst rel err {worst:.2e}")


def test_02_quadratic_exact_constants(manifest, admissible_triples):
    ok = True
    for (nf_label, u_label, n), tri in admissible_triples.items():
        if nf_label != "p2":
            continue
        rep = check_p2_exact(tri, n)
        ok &= rep.verdict in ("holds", "indeterminate")
    worst_identity = 0.0
    for alpha in (0.0, 0.5, 0.9, 0.99):
        for n in (1, 2, 3, 4, 5):
            cf = extremal_moments(ExtremalParams(alpha, 2, n))
            worst_identity = max(worst_identity, abs(
                (cf.K.value - 4.0 * cf.G.value) / cf.L.value - n * (1.0 + alpha)))
    tight = all(
        abs((lambda cf: (cf.K.value - 4.0 * cf.G.value) / cf.L.value)(
            extremal_moments(ExtremalParams(0.99, 2, n))) - 1.99 * n) <= 1e-6
        for n in (1, 2, 3, 4, 5))
    _criterion(2, "quadratic case: K <= 2n L + 4 G with tight identity",
               ok and worst_identity <= 1e-8 and tight,
               f"identity dev {worst_identity:.2e}")


def test_03_explicit_constant_linear(manifest, admissible_triples):
    ok = True
    checked = 0
    for nf_label in ("p3", "p4", "p2log"):
        nf = manifest.nfunc(nf_label)
        d, D = nf.require_exponents()
        for n in (1, 2, 3):
            if D + n < math.e + 2.0:
                try:
                    linear_constants(D, d, n)
                    ok = False
                except PreconditionError:
                    pass
                continue
            c1, c2 = linear_constants(D, d, n)
            for (label, u_label, nn), tri in admissible_triples.items():
                if label != nf_label or nn != n:
                    continue
                rep = check_linear(tri, c1, c2)
                checked += 1
                ok &= rep.verdict in ("holds", "indeterminate")
    _criterion(3, "explicit-constant linear inequality over the corpus",
               ok and checked > 0, f"{checked} checks")


def test_04_two_branch_alternative(manifest, admissible_triples):
    ok = True
    checked = 0
    for (nf_label, u_label, n), tri in admissible_triples.items():
        nf = manifest.nfunc(nf_label)
        d, D = nf.require_exponents()
        if d < 2.0 or D <= 2.0:
            continue
        rep = check_alternative(tri, d, D, n)
        checked += 1
        ok &= rep.verdict != "fails"
        if D + n >= math.e + 2.0:
            ok &= rep.details["term2_verdict"] != "fails"
    _criterion(4, "two-branch bound holds on the admissible corpus",
               ok and checked > 0, f"{checked} checks")


def test_05_c2_infeasibility():
    req = c2_infeasibility_scan(4, 1, [0.9, 0.99, 0.999])
    increasing = req[0] < req[1] < req[2]
    exceeds = req[2] > 1e3 * c1_lower_bound(4, 1)
    _criterion(5, "no finite C1 rescues C2 <= p^p",
               increasing and exceeds,
               f"C1_req(0.999) = {req[2]:.4g}")


def test_06_c1_lower_bound_and_stirling(spec):
    worst = 0.0
    for p, n in ((3, 1), (4, 2), (3, 3), (2, 1)):
        tri = modular_triple_radial(
            extremal_function(ExtremalParams(0.0, p, n)),
            power_nfunction(p), n, spec)
        rel = abs(tri.K.value / tri.L.value - c1_lower_bound(p, n)) / c1_lower_bound(p, n)
        worst = max(worst, rel)
    stirling_gap = abs(stirling_ratio(4, 10 ** 4) - 1.0)
    _criterion(6, "alpha = 0 ratio equals the C1 lower bound; Stirling limit",
               worst <= 1e-8 and stirling_gap <= 5e-4,
               f"ratio dev {worst:.2e}, stirling gap {stirling_gap:.2e}")


def test_07_mazya_gaussian_verdicts():
    ok = True
    for p in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
        for n in (1, 2, 3):
            verdict, _ = gaussian_hardy_pq(p, n)
            ok &= verdict == ("finite" if p > n else "divergent")
    classical = mazya_B(classical_pair())
    ok &= (not classical.divergent) and abs(classical.B - 1.0) <= 1e-6
    _criterion(7, "Maz'ya criterion matches p > n; classical B = 1",
               ok, f"classical B = {classical.B:.9f}")


def test_08_lemma_suites(manifest):
    grid = np.logspace(-3, 1, 50)
    violations = 0
    for nf_label in ("p2.5", "p3", "p4", "p2log"):
        nf = manifest.nfunc(nf_label)
        for alpha in (1, 2):
            for lam in (1.0 / nf.d_exp, 1.0, 10.0):
                for r in grid:
                    for s in grid:
                        if not check_lemma_split(nf, r, s, lam, alpha)[2]:
                            violations += 1
    for nf_label in ("p2", "p2.5", "p3", "p4", "p2log"):
        nf = manifest.nfunc(nf_label)
        for eps in (1e-3, 0.1, 1.0):
            for a in grid:
                for b in grid:
                    if not check_lemma_young(nf, a, b, eps)[2]:
                        violations += 1
    lhs, rhs, eq_holds = check_lemma_split(manifest.nfunc("p3"), 1.0, 1.0,
                                           1.0 / 3.0, alpha=2)
    _criterion(8, "pointwise lemma grids with zero violations",
               violations == 0 and eq_holds and lhs == rhs,
               f"{violations} violations; equality case lhs = rhs = {lhs}")


def test_09_nd_consistency(manifest, spec):
    nf3 = manifest.nfunc("p3")
    d, D = nf3.require_exponents()
    factory = manifest.field_functions["fr_smooth"]
    rep_nd = check_wwww(modular_triple_nd(factory.instantiate(2), nf3, spec), nf3, 2)
    rep_rad = check_alternative(
        modular_triple_radial(radial_profile(factory), nf3, 2, spec), d, D, 2)
    scale = surface_area(2)
    agree = (rep_nd.verdict == rep_rad.verdict
             and abs(rep_nd.slack - scale * rep_rad.slack)
             <= 1e-6 * abs(scale * rep_rad.slack) + rep_nd.err_est)
    nonradial_ok = True
    for label in ("fx_lin", "fx_quad", "fx_cross", "fx_cut"):
        f2 = manifest.field_functions[label].instantiate(2)
        p4, p2 = manifest.nfunc("p4"), manifest.nfunc("p2")
        rep_p4 = check_wwww(modular_triple_nd(f2, p4, spec), p4, 2)
        rep_p2 = check_hn1(modular_triple_nd(f2, p2, spec), p2, 2)
        nonradial_ok &= rep_p4.verdict in ("holds", "indeterminate")
        nonradial_ok &= rep_p2.verdict == "holds"
    _criterion(9, "spherical reduction consistency and non-radial transfer",
               agree and nonradial_ok,
               f"radial slack agreement within {rep_nd.err_est:.2e}")


def test_10_lk_envelopes(manifest, spec):
    ok = True
    details = []
    for nf_label in ("p2", "p3"):
        nf = manifest.nfunc(nf_label)
        for n in (1, 2):
            fields = [f.instantiate(n) for f in manifest.field_functions.values()
                      if f.compatible(n)]
            terms = {u.label: lk_modular_terms(u, nf, modular_triple_nd(u, nf, spec), spec)
                     for u in fields}
            norms = {u.label: lk_norm_triple(u, nf, terms[u.label], spec) for u in fields}
            fit_mod = fit_lk_modular_envelope(terms, nf)
            ok &= fit_mod.feasible
            fit_norm = fit_lk_norm_envelope(norms)
            ok &= fit_norm.feasible and math.isfinite(fit_norm.c1 + fit_norm.c2)
            ok &= fit_norm.binding in {f.label for f in fields}
            for u in fields:
                # one check per member, uniform over theta in (0, 1]
                rep = check_lk_modular(terms[u.label], nf, fit_mod.c1, fit_mod.c2)
                ok &= rep.verdict in ("holds", "indeterminate") and 0.0 < rep.theta <= 1.0
            # stability: a larger corpus cannot shrink the envelope
            fit_small = fit_lk_norm_envelope(dict(list(norms.items())[:2]))
            ok &= fit_norm.c1 + fit_norm.c2 >= fit_small.c1 + fit_small.c2 - 1e-12
            details.append(f"{nf_label}/n={n}: ({fit_norm.c1:g},{fit_norm.c2:g})")
    _criterion(10, "finite fitted Landau-Kolmogorov envelopes, uniform over theta",
               ok, "; ".join(details))


def fresh_norm(f, nf, measure, spec):
    """The Luxemburg norm of f, its modular at K = 1 integrated afresh as
    the family of f alone."""
    m1, = _modular_family([(f, nf)], measure, spec)
    norm, = luxemburg_norm([(f, m1)], nf, measure, spec)
    return norm.value


def test_11_norm_layer(manifest, admissible_triples, spec):
    nf = manifest.nfunc("p3")
    homog_ok = True
    for u_label in ("bump_mid", "pg_decay"):
        u = manifest.radial_functions[u_label]
        base = fresh_norm(u.parts().L, nf, RadialMeasure(1), spec)
        for c in (0.1, 2.0, 17.0):
            scaled = ScalarProfile(lambda r, c=c: c * np.asarray(u.u(r), float),
                                   u.hint, u.breakpoints)
            val = fresh_norm(scaled, nf, RadialMeasure(1), spec)
            homog_ok &= abs(val - c * base) <= 1e-8 * max(1.0, c * base)
    bound_ok = True
    saturate_ok = True
    for (nf_label, u_label, n), tri in admissible_triples.items():
        if n > 2:
            continue
        nfun = manifest.nfunc(nf_label)
        u = manifest.radial_functions[u_label]
        lux = fresh_norm(u.parts().L, nfun, RadialMeasure(n), spec)
        bound_ok &= lux <= tri.L.value + 1.0 + 1e-8
        if lux > 0:
            mod = modular_value(u.parts().L, nfun, RadialMeasure(n), spec, scale=lux)
            saturate_ok &= abs(mod - 1.0) <= 1e-7
    _criterion(11, "Luxemburg homogeneity, norm-modular bound, saturation",
               homog_ok and bound_ok and saturate_ok)


def test_12_determinism(tmp_path):
    rc1 = cli_main(["--out", str(tmp_path / "a"), "all", "--dim", "1..2"])
    rc2 = cli_main(["--out", str(tmp_path / "b"), "all", "--dim", "1..2"])
    doc_a = json.loads((tmp_path / "a" / "all.json").read_text())
    doc_b = json.loads((tmp_path / "b" / "all.json").read_text())
    same = doc_a["meta"]["body_sha256"] == doc_b["meta"]["body_sha256"]
    no_fails = doc_a["body"]["summary"]["fails"] == 0
    _criterion(12, "repeated full runs are canonically identical",
               rc1 == 0 and rc2 == 0 and same and no_fails,
               f"digest {doc_a['meta']['body_sha256'][:16]}")
