"""Exact-value oracle for the modulars the batteries integrate.

Every modular the verifier reports carries an error estimate.  These tests
hold each estimate to the true error, with no extra allowance:
|value - exact| <= err_est.  The exact values come from numpy and mpmath
only, never from the package's quadrature:

- radial members, and packaged fields at n = 1 (where the two-direction
  sphere is exact), by `mpmath.quad` on pieces split at the breakpoints and
  at the sign changes of u, u' and u'', where M(|.|) has a kink;
- K and L of the monomial fields u = x^k exp(-a|x|^2/2) at n = 2 and 3 in
  closed form: with s = sum k_i and c = 1 + p a, the sphere moment
  A = 2 prod Gamma((p k_i + 1)/2) / Gamma((p s + n)/2) and the radial
  moment R(m) = 2^((m-1)/2) Gamma((m+1)/2) / c^((m+1)/2) give
  L = A R(p s + n - 1) and K = A R(p s + p + n - 1);
- G of the monomial and radial Gaussian-polynomial fields at n = 2 and 3
  for even p: grad u = w(x) exp(-a|x|^2/2) with w polynomial, so |w|^p is
  a polynomial against exp(-c|x|^2/2), and tensor Gauss-Hermite on
  x = t / sqrt(c) integrates it exactly.

Each member is rebuilt here from its manifest entry as a polynomial times a
Gaussian, piece by piece, so the oracle shares no code with the builders.
"""

import functools
import json
import math

import mpmath
import numpy as np
import pytest

from orlicz_hardy.corpus import default_manifest_path, load_manifest
from orlicz_hardy.functionals import (
    ScalarProfile,
    _modular_family,
    luxemburg_norm,
    modular_triple_nd,
    modular_triple_radial,
)
from orlicz_hardy.landau_kolmogorov import lk_modular_terms, uniform_bound
from orlicz_hardy.quadrature import GaussianMeasure, QuadratureSpec, RadialMeasure

P = np.polynomial.polynomial
DPS = 20
MANIFEST = load_manifest()
ENTRIES = json.loads(default_manifest_path().read_text())
RADIAL = {e["label"]: e for e in ENTRIES["radial_functions"]}
FIELDS = {e["label"]: e for e in ENTRIES["field_functions"]}
NFUNCS = {e["label"]: e for e in ENTRIES["nfunctions"]}
SPEC = QuadratureSpec()


def n_function(label):
    """(p, log_factor) with M(x) = x^p, times log(1 + x) if log_factor."""
    entry = NFUNCS[label]
    assert entry["kind"] in ("power", "power_log")
    return mpmath.mpf(entry["params"]["p"]), entry["kind"] == "power_log"


# -- members as pieces (lo, hi, q, a): on [lo, hi] the member is the
# polynomial q (ascending coefficients) times exp(-a r^2 / 2), so its
# derivatives are taken on the coefficients.

def _gauss_poly(coefs, a):
    return [(0.0, math.inf, np.asarray(coefs, dtype=float), float(a))]


def radial_pieces(entry):
    kind, params = entry["kind"], entry["params"]
    if kind == "gaussian_power":
        return _gauss_poly([1.0], -params["alpha"] / params["p"])
    if kind == "poly_gauss":
        return _gauss_poly(params["coefficients"], params["rate"])
    if kind == "bump":
        c, w, k = params["center"], params["width"], params.get("degree", 2)
        # (1 - ((r - c)/w)^2)^k = ((w^2 - c^2 + 2 c r - r^2) / w^2)^k
        base = np.array([w * w - c * c, 2.0 * c, -1.0]) / (w * w)
        return [(0.0, c - w, np.zeros(1), 0.0),
                (c - w, c + w, P.polypow(base, k), 0.0)]
    if kind == "truncated":
        big_n = params["N"]
        inner = radial_pieces(params["inner"])
        assert len(inner) == 1
        _, _, q, a = inner[0]
        taper = np.array([2.0, -1.0 / big_n])   # (2N - r) / N
        return [(0.0, big_n, q, a), (big_n, 2.0 * big_n, P.polymul(taper, q), a)]
    raise AssertionError(kind)


def derivative(q, a):
    """(q exp(-a r^2/2))' = (q' - a r q) exp(-a r^2/2)."""
    return P.polysub(P.polyder(q), a * P.polymulx(q))


def _roots(q, lo, hi):
    """The real roots of q inside (lo, hi): where |q| may have a kink."""
    q = P.polytrim(q)
    if q.size < 2:
        return []
    return [float(z.real) for z in P.polyroots(q)
            if abs(z.imag) <= 1e-9 * max(1.0, abs(z)) and lo < z.real < hi]


def exact_modular(pieces, nf_label, n, which, scale=1.0):
    """int M(scale |f|) r^(n-1) exp(-r^2/2) dr over [0, oo) for f = r u (K),
    u (L), u' (G) or u'' (H), split at the roots of f inside each piece."""
    total = mpmath.mpf(0)
    with mpmath.workdps(DPS):
        p, log_factor = n_function(nf_label)
        for lo, hi, q, a in pieces:
            dq = derivative(q, a)
            f = {"K": P.polymulx(q), "L": q, "G": dq, "H": derivative(dq, a)}[which]
            if not np.any(f):
                continue
            coefs = [mpmath.mpf(float(c)) for c in f[::-1]]
            half_a, k = mpmath.mpf(a) / 2, mpmath.mpf(scale)

            def integrand(r):
                # M(x) r^(n-1) exp(-r^2/2) with x = k |f(r)| exp(-a r^2/2),
                # its power and the weight folded into one exponential
                r2 = r * r
                base = k * abs(mpmath.polyval(coefs, r))
                power = base ** p * r ** (n - 1) * mpmath.exp(-(p * half_a + 0.5) * r2)
                if not log_factor:
                    return power
                return power * mpmath.log1p(base * mpmath.exp(-half_a * r2))

            edges = sorted({lo, hi, *_roots(f, lo, hi)})
            total += mpmath.quad(integrand, [mpmath.mpf(e) if math.isfinite(e)
                                             else mpmath.inf for e in edges])
    return float(total)


def _compose(outer, inner):
    """Coefficients of outer(inner(x)), both ascending."""
    out = np.zeros(1)
    for c in outer[::-1]:
        out = P.polyadd(P.polymul(out, inner), [c])
    return out


def field_pieces(entry):
    """A packaged field on x >= 0 of R^1, as pieces.  |u|, |u'| and |u''|
    are even in x for every packaged kind, so the integral over R is twice
    the one over x >= 0."""
    kind, params = entry["kind"], entry["params"]
    if kind == "gauss_poly_radial":
        coefs = np.zeros(2 * len(params["even_coefficients"]) - 1)
        coefs[::2] = params["even_coefficients"]            # P(x^2)
        return _gauss_poly(coefs, params["rate"])
    if kind == "monomial_gauss":
        k = params["exponents"][0]
        return _gauss_poly(np.eye(k + 1)[k], params["rate"])
    if kind == "cutoff":
        (_, _, q, a), = field_pieces(params["inner"])
        r1, r2 = params["r1"], params["r2"]
        t = np.array([-r1, 1.0]) / (r2 - r1)               # (r - r1) / (r2 - r1)
        chi = _compose(np.array([1.0, 0.0, 0.0, -10.0, 15.0, -6.0]), t)
        return [(0.0, r1, q, a), (r1, r2, P.polymul(q, chi), a)]
    raise AssertionError(kind)


# -- the checks ---------------------------------------------------------------

def assert_honest(value, err, exact, what):
    assert abs(value - exact) <= err, (
        f"{what}: |{value!r} - {exact!r}| = {abs(value - exact):.3g} "
        f"> err_est {err:.3g}")


@functools.cache
def radial_triple(label, nf_label, n):
    return modular_triple_radial(MANIFEST.radial_functions[label],
                                 MANIFEST.nfunc(nf_label), n, SPEC)


@functools.cache
def field(label, n):
    return MANIFEST.field_functions[label].instantiate(n)


@functools.cache
def field_triple(label, nf_label, n):
    return modular_triple_nd(field(label, n), MANIFEST.nfunc(nf_label), SPEC)


@functools.cache
def radial_exact(label, nf_label, n, which):
    return exact_modular(radial_pieces(RADIAL[label]), nf_label, n, which)


@functools.cache
def field_exact_n1(label, nf_label, which):
    """The exact modular of a field at n = 1, twice the one over x >= 0."""
    return 2.0 * exact_modular(field_pieces(FIELDS[label]), nf_label, 1, which)


def assert_radial_triple_honest(triple, label, nf_label, n):
    # a modular the truncation policy calls divergent has no value to check
    for which, m in zip("KLG", triple):
        if m is not None:
            assert_honest(m.value, m.err_est, radial_exact(label, nf_label, n, which),
                          f"{label} {nf_label} n={n} {which}")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nf_label", sorted(NFUNCS))
@pytest.mark.parametrize("label", sorted(RADIAL))
def test_radial_modulars_within_their_error_estimates(label, nf_label, n):
    assert_radial_triple_honest(radial_triple(label, nf_label, n), label, nf_label, n)


N1_FIELDS = sorted(label for label, f in MANIFEST.field_functions.items()
                   if f.compatible(1))


@pytest.mark.parametrize("nf_label", sorted(NFUNCS))
@pytest.mark.parametrize("label", N1_FIELDS)
def test_field_modulars_at_n_one_within_their_error_estimates(label, nf_label):
    assert_field_triple_honest_at_n_one(field_triple(label, nf_label, 1), label, nf_label)


def assert_field_triple_honest_at_n_one(triple, label, nf_label):
    for which, m in zip("KLG", triple):
        assert_honest(m.value, m.err_est, field_exact_n1(label, nf_label, which),
                      f"{label} {nf_label} n=1 {which}")


@pytest.mark.parametrize("nf_label", ["p2", "p3"])
@pytest.mark.parametrize("label", N1_FIELDS)
def test_lk_terms_at_n_one_within_their_error_estimates(label, nf_label):
    # the Hessian term at theta = 1, and under a power the uniform bound's
    # right side at theta*, which is the right side there exactly: within
    # the bound's error less that of the lhs
    nf = MANIFEST.nfunc(nf_label)
    terms = lk_modular_terms(field(label, 1), nf, field_triple(label, nf_label, 1), SPEC)
    pieces = field_pieces(FIELDS[label])
    exact = 2.0 * exact_modular(pieces, nf_label, 1, "H", 1.0)
    assert_honest(terms.hess_term.value, terms.hess_term.err_est, exact,
                  f"{label} {nf_label} hess")
    for c1, c2 in ((0.5, 1.0), (8.0, 0.5)):
        theta, hess, func, err = uniform_bound(terms, c1, c2, *nf.require_exponents())
        exact = 2.0 * (c1 * exact_modular(pieces, nf_label, 1, "H", theta)
                       + c2 * exact_modular(pieces, nf_label, 1, "L", 1.0 / theta))
        assert_honest(hess + func, err - terms.lhs.err_est, exact,
                      f"{label} {nf_label} C=({c1:g},{c2:g}) theta*={theta:g}")


def monomial_exact(entry, p, n, which):
    """K or L of x^k exp(-a|x|^2/2) for M(r) = r^p in closed form."""
    k = entry["params"]["exponents"] + [0] * (n - len(entry["params"]["exponents"]))
    s, c = sum(k), 1.0 + p * entry["params"]["rate"]
    log_a = (math.log(2.0) + sum(math.lgamma((p * ki + 1.0) / 2.0) for ki in k)
             - math.lgamma((p * s + n) / 2.0))
    m = p * s + n - 1.0 + (p if which == "K" else 0.0)
    log_r = ((m - 1.0) / 2.0 * math.log(2.0) + math.lgamma((m + 1.0) / 2.0)
             - (m + 1.0) / 2.0 * math.log(c))
    return math.exp(log_a + log_r)


# The 32-direction Monte Carlo sphere misses these 16 at n = 3: their bars
# are the standard error of 16 antithetic pair means, which undercounts the
# angular error (fx_quad p4 K reads 0.526 +- 0.290 against 1.354).  A
# deterministic sphere rule must flip them.
SPHERE_MISSES = {(label, nf_label, 3, which) for label in ("fx_lin", "fx_quad")
                 for nf_label in ("p2", "p2.5", "p3", "p4") for which in "KL"}

MONOMIAL_CASES = [
    pytest.param(label, nf_label, n, which,
                 marks=[pytest.mark.xfail(strict=True, reason="Monte Carlo sphere bar")]
                 if (label, nf_label, n, which) in SPHERE_MISSES else [])
    for label in sorted(label for label, e in FIELDS.items() if e["kind"] == "monomial_gauss")
    for nf_label in sorted(label for label, e in NFUNCS.items() if e["kind"] == "power")
    for n in (2, 3) for which in "KL"]


@pytest.mark.parametrize("label, nf_label, n, which", MONOMIAL_CASES)
def test_monomial_k_and_l_within_their_error_estimates(label, nf_label, n, which):
    assert_monomial_honest(field_triple(label, nf_label, n), label, nf_label, n, which)


def assert_monomial_honest(triple, label, nf_label, n, which):
    m = triple.K if which == "K" else triple.L
    exact = monomial_exact(FIELDS[label], float(NFUNCS[nf_label]["params"]["p"]), n, which)
    assert_honest(m.value, m.err_est, exact, f"{label} {nf_label} n={n} {which}")


def gradient_factor(entry, x):
    """w(x) with grad u = w(x) exp(-a|x|^2/2), and a, at points x (..., n)."""
    params = entry["params"]
    a = params["rate"]
    if entry["kind"] == "monomial_gauss":
        k = np.array(params["exponents"] + [0] * (x.shape[-1] - len(params["exponents"])))
        mono = np.prod(x ** k, axis=-1)
        # d/dx_i x^k = k_i x^(k - e_i), zero where k_i = 0
        lowered = [np.prod(x ** (k - np.eye(k.size, dtype=int)[i]), axis=-1) * k[i]
                   for i in range(k.size)]
        return np.stack(lowered, axis=-1) - a * mono[..., None] * x, a
    assert entry["kind"] == "gauss_poly_radial"
    coefs = np.asarray(params["even_coefficients"], dtype=float)
    s = (x * x).sum(axis=-1)
    # u = P(s) exp(-a s/2): grad u = (2 P'(s) - a P(s)) x exp(-a s/2)
    slope = 2.0 * P.polyval(s, P.polyder(coefs)) - a * P.polyval(s, coefs)
    return slope[..., None] * x, a


def gauss_hermite_g(entry, p, n, nodes=60):
    """int |grad u|^p exp(-|x|^2/2) dx on R^n for an even integer p."""
    t, w = np.polynomial.hermite_e.hermegauss(nodes)   # weight exp(-t^2/2)
    grid = np.stack(np.meshgrid(*[t] * n, indexing="ij"), axis=-1).reshape(-1, n)
    weights = np.prod(np.stack(np.meshgrid(*[w] * n, indexing="ij"), axis=-1)
                      .reshape(-1, n), axis=-1)
    _, a = gradient_factor(entry, grid)
    c = 1.0 + p * a
    factor, _ = gradient_factor(entry, grid / math.sqrt(c))
    norm2 = (factor * factor).sum(axis=-1)
    return float((weights * norm2 ** (p // 2)).sum()) / c ** (n / 2.0)


# The same sphere bar misses these three G at n = 3 (by 1.21, 1.44 and 1.07
# times err_est); every G at n = 2 lies within its bar.
G_MISSES = {("fx_lin", "p2"), ("fx_cross", "p2"), ("fx_cross", "p4")}
SPHERE_MISSES |= {(label, nf_label, 3, "G") for label, nf_label in G_MISSES}

GAUSSIAN_G_CASES = [
    pytest.param(label, nf_label, n,
                 marks=[pytest.mark.xfail(strict=True, reason="Monte Carlo sphere bar")]
                 if (label, nf_label, n, "G") in SPHERE_MISSES else [])
    for label in ("fx_lin", "fx_quad", "fx_cross", "fr_smooth", "fr_wide")
    for nf_label in ("p2", "p4") for n in (2, 3)]


@pytest.mark.parametrize("label, nf_label, n", GAUSSIAN_G_CASES)
def test_gaussian_polynomial_g_within_its_error_estimate(label, nf_label, n):
    assert_gauss_hermite_honest(field_triple(label, nf_label, n), label, nf_label, n)


@functools.cache
def gauss_hermite_exact(label, nf_label, n):
    return gauss_hermite_g(FIELDS[label], int(NFUNCS[nf_label]["params"]["p"]), n)


def assert_gauss_hermite_honest(triple, label, nf_label, n):
    exact = gauss_hermite_exact(label, nf_label, n)
    assert_honest(triple.G.value, triple.G.err_est, exact, f"{label} {nf_label} n={n} G")


# -- the family spanning every N-function ---------------------------------------
# The hardy battery integrates a subject's K, L and G under every N-function
# it checks as one family on shared panels.  Those values, from the family
# spanning all packaged N-functions, are held to the same exact values with
# no allowance, and the sphere bar misses the same cases.

SPANNED = sorted(NFUNCS)


@functools.cache
def spanning_radial_triples(label, n):
    return dict(zip(SPANNED, modular_triple_radial(
        MANIFEST.radial_functions[label], [MANIFEST.nfunc(nf) for nf in SPANNED], n, SPEC)))


@functools.cache
def spanning_field_triples(label, n):
    return dict(zip(SPANNED, modular_triple_nd(
        field(label, n), [MANIFEST.nfunc(nf) for nf in SPANNED], SPEC)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nf_label", SPANNED)
@pytest.mark.parametrize("label", sorted(RADIAL))
def test_spanning_radial_modulars_within_their_error_estimates(label, nf_label, n):
    assert_radial_triple_honest(spanning_radial_triples(label, n)[nf_label],
                                label, nf_label, n)


@pytest.mark.parametrize("nf_label", SPANNED)
@pytest.mark.parametrize("label", N1_FIELDS)
def test_spanning_field_modulars_at_n_one_within_their_error_estimates(label, nf_label):
    assert_field_triple_honest_at_n_one(spanning_field_triples(label, 1)[nf_label],
                                        label, nf_label)


@pytest.mark.parametrize("label, nf_label, n, which", MONOMIAL_CASES)
def test_spanning_monomial_k_and_l_within_their_error_estimates(label, nf_label, n, which):
    assert_monomial_honest(spanning_field_triples(label, n)[nf_label],
                           label, nf_label, n, which)


@pytest.mark.parametrize("label, nf_label, n", GAUSSIAN_G_CASES)
def test_spanning_gaussian_polynomial_g_within_its_error_estimate(label, nf_label, n):
    assert_gauss_hermite_honest(spanning_field_triples(label, n)[nf_label],
                                label, nf_label, n)


# -- Luxemburg norms ------------------------------------------------------------
# A norm comes with the bracket [lo, hi] its modulars and the growth indices
# give it: for M(r) = r^p the image of [m1 - err_est, m1 + err_est] under
# t -> t^(1/p) when m1 was resolved to relative accuracy, else the image of
# the modular at k1 = m1^(1/p), integrated afresh, under t -> k1 t^(1/p);
# for M(r) = r^2 log(1 + r) (indices 2 and 3) the bracket the modular at
# the norm's root, integrated afresh, gives it.  The exact norm must lie in
# the bracket, with no extra allowance: for a power it is the exact m1 to
# the power 1/p, for r^2 log(1 + r) the root of the exact modular.

POWERS = sorted(label for label, e in NFUNCS.items() if e["kind"] == "power")


def assert_bracket_holds(profile, nf_label, measure, m1, exact, what):
    """The norm of the profile from its modular m1 (an IntegralResult) has a
    bracket holding the exact norm."""
    norm, = luxemburg_norm([(profile, m1)], MANIFEST.nfunc(nf_label), measure, SPEC)
    assert norm.lo <= norm.value <= norm.hi, (what, norm)
    assert norm.lo <= exact <= norm.hi, (
        f"{what}: exact {exact!r} outside [{norm.lo!r}, {norm.hi!r}] around {norm.value!r}")


def power_norm(nf_label, exact_m1):
    return exact_m1 ** (1.0 / float(NFUNCS[nf_label]["params"]["p"]))


def exact_root(exact_at, start):
    """The K > 0 with exact_at(1 / K) = 1, by secant steps in log K from
    start to 1e-14 of 1 in the modular."""
    x0, x1 = math.log(start), math.log(start) + 1e-6
    y0, y1 = (math.log(exact_at(math.exp(-x))) for x in (x0, x1))
    for _ in range(20):
        if abs(y1) <= 1e-14:
            return math.exp(x1)
        x0, x1 = x1, x1 - y1 * (x1 - x0) / (y1 - y0)
        y0, y1 = y1, math.log(exact_at(math.exp(-x1)))
    raise AssertionError("the exact root did not converge")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nf_label", POWERS)
@pytest.mark.parametrize("label", sorted(RADIAL))
def test_radial_power_norms_within_their_modulars_bars(label, nf_label, n):
    u = MANIFEST.radial_functions[label]
    triple = radial_triple(label, nf_label, n)
    for which, profile, m1 in zip("KLG", u.parts(), triple):
        if m1 is not None:
            assert_bracket_holds(
                profile, nf_label, RadialMeasure(n), m1,
                power_norm(nf_label, radial_exact(label, nf_label, n, which)),
                f"{label} {nf_label} n={n} ||{which}||")


@pytest.mark.parametrize("label", sorted(RADIAL))
def test_radial_power_log_norms_at_n_one_bracket_the_exact_root(label):
    # the triples the hardy battery integrates: one family spanning every
    # N-function, whose panels the roots are found on
    u = MANIFEST.radial_functions[label]
    triple = spanning_radial_triples(label, 1)["p2log"]
    pieces = radial_pieces(RADIAL[label])
    for which, profile, m1 in zip("KLG", u.parts(), triple):
        if m1 is None:
            continue
        norm, = luxemburg_norm([(profile, m1)], MANIFEST.nfunc("p2log"), RadialMeasure(1),
                               SPEC)
        exact = 0.0 if m1.value == 0.0 else exact_root(
            lambda scale: exact_modular(pieces, "p2log", 1, which, scale), norm.value)
        assert_bracket_holds(profile, "p2log", RadialMeasure(1), m1, exact,
                             f"{label} p2log n=1 ||{which}||")


def field_norm_profiles(u):
    """The profiles whose modulars are a field's K, L, G and H."""
    return u.parts()._asdict()


@pytest.mark.parametrize("nf_label", POWERS)
@pytest.mark.parametrize("label", N1_FIELDS)
def test_field_power_norms_at_n_one_within_their_modulars_bars(label, nf_label):
    triple = field_triple(label, nf_label, 1)
    pieces = field_pieces(FIELDS[label])
    profiles = field_norm_profiles(field(label, 1))
    modulars = triple._asdict()
    if nf_label in ("p2", "p3"):  # the oracle's LK terms: H at theta = 1
        terms = lk_modular_terms(field(label, 1), MANIFEST.nfunc(nf_label), triple, SPEC)
        modulars["H"] = terms.hess_term
    for which, m1 in modulars.items():
        assert_bracket_holds(
            profiles[which], nf_label, GaussianMeasure(1), m1,
            power_norm(nf_label, 2.0 * exact_modular(pieces, nf_label, 1, which)),
            f"{label} {nf_label} n=1 ||{which}||")


# the n = 2 cases of the monomial K, L and Gauss-Hermite G oracles
N2_POWER_CASES = (
    [(label, nf_label, which) for label, nf_label, n, which in
     (case.values for case in MONOMIAL_CASES) if n == 2]
    + [(label, nf_label, "G") for label, nf_label, n in
       (case.values for case in GAUSSIAN_G_CASES) if n == 2])


@pytest.mark.parametrize("label, nf_label, which", N2_POWER_CASES)
def test_field_power_norms_at_n_two_within_their_modulars_bars(label, nf_label, which):
    triple = field_triple(label, nf_label, 2)
    p = float(NFUNCS[nf_label]["params"]["p"])
    exact = (gauss_hermite_g(FIELDS[label], int(p), 2) if which == "G"
             else monomial_exact(FIELDS[label], p, 2, which))
    assert_bracket_holds(field_norm_profiles(field(label, 2))[which], nf_label,
                         GaussianMeasure(2), triple._asdict()[which],
                         power_norm(nf_label, exact), f"{label} {nf_label} n=2 ||{which}||")


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("nf_label", POWERS)
def test_unresolved_power_norms_within_the_rescaled_bar(nf_label, n):
    # no packaged modular is below abs_tol / rel_tol; 1e-3 u is, at every power
    u = MANIFEST.radial_functions["pg_decay"]
    small = ScalarProfile(lambda r: 1e-3 * u.u(r), u.hint, u.breakpoints)
    m1, = _modular_family([(small, MANIFEST.nfunc(nf_label))], RadialMeasure(n), SPEC)
    assert m1.value * SPEC.rel_tol < SPEC.abs_tol
    exact = exact_modular(radial_pieces(RADIAL["pg_decay"]), nf_label, n, "L", 1e-3)
    assert_bracket_holds(small, nf_label, RadialMeasure(n), m1, power_norm(nf_label, exact),
                         f"1e-3 pg_decay {nf_label} n={n} ||L||")
