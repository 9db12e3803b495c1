"""Hardy-type inequality checks on the radial and the Gaussian measure, and
`FORMS`, the table of the forms the `hardy` battery runs: which forms
exist, when each applies and how each is checked.

Every check compares a left-hand modular against an explicit right-hand
combination of modulars and reports the outcome with its slack, the
constants used, and a verdict that is tolerance- and quadrature-error-aware:
`indeterminate` is reported whenever the numeric error band straddles the
decision boundary, never coerced to a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import PreconditionError
from .functionals import ModularTriple, luxemburg_norm
from .nfunc import NFunction, comparison_tol
from .quadrature import GaussianMeasure, QuadratureSpec
from .reporting import Check, verdict

__all__ = [
    "check_alternative",
    "linear_constants",
    "check_linear",
    "check_p2_exact",
    "convex_constants",
    "check_convex_case",
    "check_hn1",
    "check_wwww",
    "check_norm_form",
    "Form",
    "FORMS",
]

def _check(inequality_id: str, lhs: float, rhs: float, constants: dict,
           err_est: float, triple: ModularTriple, **meta) -> Check:
    """The check of lhs <= rhs, indeterminate unless every integral of the
    modular triple it rests on converged."""
    meta.setdefault("normalization", "unnormalized")
    return Check.compare(inequality_id, lhs, rhs, err_est, comparison_tol(rhs),
                         constants_used=constants, **meta).require_converged(
        triple.converged, "a quadrature behind the modular triple did not converge")


def _require_valid(triple: ModularTriple):
    if not triple.valid:
        raise PreconditionError("modular triple is divergent or non-finite")


# ---------------------------------------------------------------------------
# The alternative bound and its linear weakenings
# ---------------------------------------------------------------------------

def _rise(x: float, e: float, k: float) -> float:
    """(x + e)^k - x^k for x, e >= 0; for e < x, where the two powers
    nearly cancel, through log1p/expm1."""
    return x ** k * math.expm1(k * math.log1p(e / x)) if e < x else (x + e) ** k - x ** k


def _term2(L: float, G: float, eL: float, eG: float, D: float,
           n: int) -> tuple[float, float]:
    """term2(L, G) and its rise term2(L + eL, G + eG) - term2(L, G).

    term2 increases in L and G, so the rise bounds the error that eL, eG
    carry into it (a first-order derivative would not).  Each power's rise
    comes from `_rise` and the root's from (X' - X)/(sqrt X' + sqrt X), so
    no two nearly equal values are subtracted."""
    X = 0.25 * D * D * G ** (2.0 / D) + (D + n - 2.0) * L ** (2.0 / D)
    root = math.sqrt(X)
    base = 0.5 * D * G ** (1.0 / D) + root
    d_X = 0.25 * D * D * _rise(G, eG, 2.0 / D) + (D + n - 2.0) * _rise(L, eL, 2.0 / D)
    d_root = d_X / (math.sqrt(X + d_X) + root) if d_X else 0.0
    return base ** D, _rise(base, 0.5 * D * _rise(G, eG, 1.0 / D) + d_root, D)


def check_alternative(triple: ModularTriple, d: float, D: float, n: int,
                      **meta) -> Check:
    """Check the two-branch bound K <= (D/d)^(D/(D-2)) L  or  K <= term2(L, G).

    term2(L, G) = ((D/2) G^(1/D) + sqrt(D^2/4 G^(2/D) + (D+n-2) L^(2/D)))^D.
    When D + n >= e + 2 the term2 branch alone is asserted (it dominates the
    first branch in that regime); the report records which branch held.
    """
    _BY_NAME["alternative"].require(d, D, n)
    _require_valid(triple)
    K, L, G = (m.value for m in triple)
    eK, eL, eG = (m.err_est for m in triple)
    t1 = (D / d) ** (D / (D - 2.0)) * L
    t2, e_t2 = _term2(L, G, eL, eG, D, n)
    # error propagation by one-sided perturbation of the inputs
    e_t1 = (D / d) ** (D / (D - 2.0)) * eL
    unconditional = (D + n) >= math.e + 2.0

    v1 = verdict(K, t1, eK + e_t1, comparison_tol(t1))
    v2 = verdict(K, t2, eK + e_t2, comparison_tol(t2))
    # the report carries the branch being asserted: term2 when it held or is
    # unconditional in this regime, otherwise the disjunction's other branch
    if unconditional or v2 in ("holds", "indeterminate"):
        rhs, err, branch, held = t2, eK + e_t2, "term2", v2
    else:
        rhs, err, branch, held = t1, eK + e_t1, "term1", v1
    constants = {"d": d, "D": D, "term1_rhs": t1, "term2_rhs": t2,
                 "term1_coef": (D / d) ** (D / (D - 2.0))}
    details = {"branch_held": branch if held != "fails" else "none",
               "term1_verdict": v1, "term2_verdict": v2,
               "term2_unconditional": unconditional}
    return _check(branch, K, rhs, constants, err, triple, n=n, details=details, **meta)


def check_wwww(triple: ModularTriple, nf: NFunction, n: int, **meta) -> Check:
    """Form wwww on R^n: K <= term2(L, G) for the `modular_triple_nd` of a
    field, with the radial case's term2; meta may name its normalization."""
    d, D = nf.d_exp, nf.D_exp
    _BY_NAME["wwww"].require(d, D, n)
    _require_valid(triple)
    K, L, G = triple
    rhs, e_rhs = _term2(L.value, G.value, L.err_est, G.err_est, D, n)
    return _check("wwww", K.value, rhs, {"d": d, "D": D}, K.err_est + e_rhs,
                  triple, n=n, **meta)


def linear_constants(D: float, d: float, n: int) -> tuple[float, float]:
    """Explicit linear constants C1 = 2^(D-1) (D+n-2)^(D/2), C2 = 2^(D-1) D^D
    of form liniowe, under its hypothesis (its row of `FORMS`); outside it
    the two-branch bound (`check_alternative`) and the doubling-only
    constants (`check_convex_case`, form ww) may still apply.
    """
    _BY_NAME["liniowe"].require(d, D, n)
    c1 = 2.0 ** (D - 1.0) * (D + n - 2.0) ** (D / 2.0)
    c2 = 2.0 ** (D - 1.0) * D ** D
    return c1, c2


def check_linear(triple: ModularTriple, c1: float, c2: float,
                 inequality_id: str = "liniowe", **meta) -> Check:
    """Check K <= C1 L + C2 G with combined quadrature tolerance."""
    _require_valid(triple)
    K, L, G = (m.value for m in triple)
    eK, eL, eG = (m.err_est for m in triple)
    rhs = c1 * L + c2 * G
    err = eK + c1 * eL + c2 * eG
    return _check(inequality_id, K, rhs, {"C1": c1, "C2": c2}, err, triple, **meta)


def check_p2_exact(triple: ModularTriple, n: int, **meta) -> Check:
    """The quadratic-case bound with its exact constants: K <= 2n L + 4 G."""
    return check_linear(triple, 2.0 * n, 4.0, inequality_id="p2_exact", n=n, **meta)


# ---------------------------------------------------------------------------
# Convex (doubling-only) case
# ---------------------------------------------------------------------------

def convex_constants(D: float, n: int) -> tuple[float, float, dict]:
    """Materialised constants for the doubling-only linear bound.

    Instantiating the split radius kappa = 2 sqrt(D+n) and the Young weight
    eps = 1/(4D) turns the integration-by-parts estimate into

        K <= kappa^D L + 2^D e^(2 kappa^2) kappa^(D+n-2) (L+G) + K/4 + K/4
             + D (4D)^D G,

    so after absorbing K/2:

        C1 = 2 (kappa^D + 2^D e^(2 kappa^2) kappa^(D+n-2))
        C2 = 2 (2^D e^(2 kappa^2) kappa^(D+n-2) + D (4D)^D).

    The constants are astronomically generous; their point is existence with
    doubling alone (no lower growth exponent required).
    """
    if D < 1.0:
        raise PreconditionError(f"doubling exponent must be >= 1, got {D}")
    eps = 1.0 / (4.0 * D)
    kappa = 2.0 * math.sqrt(D + n)
    bulk = 2.0 ** D * math.exp(2.0 * kappa * kappa) * kappa ** (D + n - 2.0)
    c1 = 2.0 * (kappa ** D + bulk)
    c2 = 2.0 * (bulk + D * (4.0 * D) ** D)
    return c1, c2, {"eps": eps, "kappa": kappa}


def check_convex_case(triple: ModularTriple, D: float, n: int, **meta) -> Check:
    """Doubling-only linear bound with the materialised constants."""
    c1, c2, proof = convex_constants(D, n)
    check = check_linear(triple, c1, c2, inequality_id="ww", n=n, **meta)
    check.constants_used.update(proof)
    check.constants_used["D"] = D
    return check


def check_hn1(triple: ModularTriple, nf: NFunction, n: int, **meta) -> Check:
    """Form hn1 on R^n: the doubling-only linear bound for the
    `modular_triple_nd` of a field; meta may name its normalization (default
    unnormalized).  The constants transfer unchanged from the radial case:
    the spherical slicing applies the radial bound direction by direction."""
    _, D = nf.require_exponents()
    c1, c2, proof = convex_constants(D, n)
    check = check_linear(triple, c1, c2, inequality_id="hn1", n=n, **meta)
    check.constants_used.update(proof)
    return check


# ---------------------------------------------------------------------------
# Norm forms
# ---------------------------------------------------------------------------

def check_norm_form(u, triple: ModularTriple, nf: NFunction, measure,
                    spec: QuadratureSpec | None = None, **meta) -> Check:
    """Norm form ||w u|| <= C (||u|| + ||u'||) with C = C1 + C2 + 1: form
    www on a `RadialMeasure` (w = r), form hn11 on a `GaussianMeasure`
    (w = |x|, u' the gradient).  The norms are those of the `parts()` of u,
    whose modulars at K = 1 are the K, L and G of u's modular triple on the
    measure; meta may name its normalization.  The ratio's error is the
    widest it moves within the brackets of the three norms.

    C1, C2 are the doubling-case constants; the norm argument applies the
    modular bound to u scaled by ||u|| + ||u'|| and uses that the modular
    equals 1 at the Luxemburg norm under doubling.
    """
    n = measure.n
    if getattr(u, "n", n) != n:
        raise PreconditionError(f"field '{u.label}' has dimension {u.n}, not {n}")
    _require_valid(triple)
    form = "hn11" if isinstance(measure, GaussianMeasure) else "www"
    _, D = nf.require_exponents()
    c1, c2, proof = convex_constants(D, n)
    c = c1 + c2 + 1.0
    parts = u.parts()
    norms = luxemburg_norm([(parts.L, triple.L), (parts.G, triple.G), (parts.K, triple.K)],
                           nf, measure, spec)
    norm_u, norm_du, norm_ru = norms
    denom = norm_u.value + norm_du.value
    constants = {"C": c, "C1": c1, "C2": c2, **proof,
                 "norm_u": norm_u.value, "norm_du": norm_du.value}
    if denom == 0.0:  # nothing to compare, unless a modular did not converge
        check = _check(form, 0.0, 0.0, constants, 0.0, triple, n=n, **meta)
        if triple.converged:
            check.verdict = "trivial"
        return check
    constants["norm_ru"] = norm_ru.value
    ratio = norm_ru.value / denom
    low = norm_ru.lo / (norm_u.hi + norm_du.hi)
    high = (norm_ru.hi / (norm_u.lo + norm_du.lo) if norm_u.lo + norm_du.lo > 0.0
            else math.inf)
    return _check(form, ratio, c, constants, max(high - ratio, ratio - low), triple,
                  n=n, details={"ratio": ratio}, **meta).require_converged(
        all(norm.converged for norm in norms),
        "a quadrature verifying a Luxemburg norm did not converge")


# ---------------------------------------------------------------------------
# The table of forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Form:
    """One Hardy inequality of the `hardy` battery, a row of `FORMS`.

    `nd` is its side: fields on R^n, checked on the `GaussianMeasure` of
    their `modular_triple_nd` (True), or radial members on the
    `RadialMeasure` of their `modular_triple_radial` (False).  `selectors`
    are the `--form` values that run it.  `admits(d, D, n)` is its
    hypothesis on the growth indices and the dimension, which `hypothesis`
    states in words, and `rule(u, triple, nf, measure, spec, **meta)` its
    check.  Without --form it runs on the subjects `default` names (None:
    every one; empty: it runs only when --form selects it).
    """

    name: str
    nd: bool
    selectors: tuple
    hypothesis: str
    admits: Callable
    rule: Callable
    default: tuple | None = None

    def require(self, d, D, n: int):
        """Raise PreconditionError, naming the form and its hypothesis,
        unless the growth indices d, D are declared and (d, D, n) meets it."""
        if d is None or D is None or not self.admits(d, D, n):
            raise PreconditionError(
                f"form {self.name} needs {self.hypothesis}, got d={d}, D={D}, n={n}")

    def check(self, u, triple: ModularTriple, nf: NFunction, measure,
              spec: QuadratureSpec | None = None, **meta) -> Check:
        """The form's check of u's modular triple under nf on the measure,
        which names the check's normalization."""
        self.require(nf.d_exp, nf.D_exp, measure.n)
        return self.rule(u, triple, nf, measure, spec, normalization=(
            "normalized" if getattr(measure, "normalized", False) else "unnormalized"),
            **meta)


# the hypothesis of the doubling-only forms: nothing beyond declared growth indices
_DOUBLING = ("declared growth indices d, D", lambda d, D, n: True)

FORMS = (
    Form("alternative", False, ("term1", "term2"), "d >= 2 and D > 2",
         lambda d, D, n: d >= 2.0 and D > 2.0,
         lambda u, t, nf, m, spec, **kw: check_alternative(t, nf.d_exp, nf.D_exp, m.n, **kw)),
    Form("liniowe", False, ("liniowe",), "d >= 2, D > 2 and D + n >= e + 2",
         lambda d, D, n: d >= 2.0 and D > 2.0 and D + n >= math.e + 2.0,
         lambda u, t, nf, m, spec, **kw: check_linear(
             t, *linear_constants(nf.D_exp, nf.d_exp, m.n), n=m.n, **kw)),
    Form("ww", False, ("ww",), *_DOUBLING,
         lambda u, t, nf, m, spec, **kw: check_convex_case(t, nf.D_exp, m.n, **kw)),
    Form("p2_exact", False, ("p2_exact",), "d = D = 2",
         lambda d, D, n: abs(D - 2.0) < 1e-12 and abs(d - 2.0) < 1e-12,
         lambda u, t, nf, m, spec, **kw: check_p2_exact(t, m.n, **kw)),
    # without --form, www runs on three radial members only
    Form("www", False, ("www",), *_DOUBLING, check_norm_form,
         default=("ga_mild", "bump_mid", "pg_decay")),
    Form("hn1", True, ("hn1",), *_DOUBLING,
         lambda u, t, nf, m, spec, **kw: check_hn1(t, nf, m.n, **kw)),
    Form("wwww", True, ("wwww",), "d >= 2 and D > max(2, e + 2 - n)",
         lambda d, D, n: d >= 2.0 and D > max(2.0, math.e + 2.0 - n),
         lambda u, t, nf, m, spec, **kw: check_wwww(t, nf, m.n, **kw)),
    Form("hn11", True, ("hn11",), *_DOUBLING, check_norm_form, default=()),
)

_BY_NAME = {row.name: row for row in FORMS}
