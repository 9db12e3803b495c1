"""Hardy-type inequality checks for the radial Gaussian measure.

Every check compares a left-hand modular against an explicit right-hand
combination of modulars and reports the outcome with its slack, the
constants used, and a verdict that is tolerance- and quadrature-error-aware:
`indeterminate` is reported whenever the numeric error band straddles the
decision boundary, never coerced to a pass.
"""

from __future__ import annotations

import math

from .errors import PreconditionError
from .functionals import (
    FieldFunction,
    ModularTriple,
    Parts,
    RadialTestFunction,
    luxemburg_norm,
)
from .nfunc import NFunction, comparison_tol
from .quadrature import GaussianMeasure, QuadratureSpec, RadialMeasure
from .reporting import Check, verdict

__all__ = [
    "check_alternative",
    "linear_constants",
    "check_linear",
    "check_p2_exact",
    "convex_constants",
    "check_convex_case",
    "check_norm_form_radial",
    "check_nd",
    "check_norm_form_nd",
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
    _require_valid(triple)
    if d < 2.0 - 1e-12 or D <= 2.0:
        raise PreconditionError(f"requires d >= 2 and D > 2, got d={d}, D={D}")
    K, L, G = triple.K, triple.L, triple.G
    eK, eL, eG = triple.errs
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


def linear_constants(D: float, d: float, n: int) -> tuple[float, float]:
    """Explicit linear constants C1 = 2^(D-1) (D+n-2)^(D/2), C2 = 2^(D-1) D^D.

    Valid in the regime D + n >= e + 2; outside it the two-branch bound
    (`check_alternative`) and the doubling-only constants (`check_convex_case`,
    form ww) still apply.
    """
    if D <= 2.0 or d < 2.0 - 1e-12:
        raise PreconditionError(f"requires D > 2 and d >= 2, got D={D}, d={d}")
    if D + n < math.e + 2.0:
        raise PreconditionError(
            f"explicit constants need D + n >= e + 2 ({D + n:.3f} < {math.e + 2.0:.3f}); "
            "outside it use the two-branch bound or the doubling-only form ww")
    c1 = 2.0 ** (D - 1.0) * (D + n - 2.0) ** (D / 2.0)
    c2 = 2.0 ** (D - 1.0) * D ** D
    return c1, c2


def check_linear(triple: ModularTriple, c1: float, c2: float,
                 inequality_id: str = "liniowe", **meta) -> Check:
    """Check K <= C1 L + C2 G with combined quadrature tolerance."""
    _require_valid(triple)
    K, L, G = triple.K, triple.L, triple.G
    eK, eL, eG = triple.errs
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


def _check_norm_form(form: str, parts: Parts, triple: ModularTriple,
                     nf: NFunction, measure, n: int, spec: QuadratureSpec | None,
                     **meta) -> Check:
    """Norm form ||r f|| <= C (||f|| + ||f'||) with C = C1 + C2 + 1, from the
    `parts()` of f on the measure, whose modulars at K = 1 are the L, G and
    K of f's modular triple.  The ratio's error is the widest it moves
    within the brackets of the three norms.

    C1, C2 are the doubling-case constants; the norm argument applies the
    modular bound to f scaled by ||f|| + ||f'|| and uses that the modular
    equals 1 at the Luxemburg norm under doubling.
    """
    _require_valid(triple)
    _, D = nf.require_exponents()
    c1, c2, proof = convex_constants(D, n)
    c = c1 + c2 + 1.0
    m_K, m_L, m_G = triple.modulars()
    norms = luxemburg_norm([(parts.L, m_L), (parts.G, m_G), (parts.K, m_K)],
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


def check_norm_form_radial(u: RadialTestFunction, nf: NFunction, n: int,
                           triple: ModularTriple,
                           spec: QuadratureSpec | None = None,
                           **meta) -> Check:
    """Norm form www: ||r u|| <= C (||u|| + ||u'||) on the radial measure,
    from the `modular_triple_radial` of (u, nf, n)."""
    if nf.delta2_const is None:
        raise PreconditionError(f"'{nf.label}' must be doubling-certified")
    return _check_norm_form("www", u.parts(), triple, nf, RadialMeasure(n), n, spec, **meta)


# ---------------------------------------------------------------------------
# n-dimensional forms
# ---------------------------------------------------------------------------

def check_nd(triple: ModularTriple, nf: NFunction, n: int, form: str,
             **meta) -> Check:
    """Gaussian-measure modular inequality on R^n for the `modular_triple_nd`
    of a field; meta may name its normalization (default unnormalized).

    form="wwww": the term2-type bound, requires d >= 2 and D > max(2, e+2-n).
    form="hn1":  linear bound with the doubling-case constants.

    The constants transfer unchanged from the radial case: the spherical
    slicing applies the radial bound direction by direction.
    """
    d, D = nf.require_exponents()
    meta = {**meta, "n": n}

    if form == "wwww":
        if d < 2.0 - 1e-12:
            raise PreconditionError(
                f"form wwww needs lower exponent >= 2, got d={d} for '{nf.label}'")
        if D <= max(2.0, math.e + 2.0 - n):
            raise PreconditionError(
                f"form wwww needs D > max(2, e+2-n) = {max(2.0, math.e + 2.0 - n):.3f}, "
                f"got D={D} for '{nf.label}'")
        _require_valid(triple)
        rhs, e_rhs = _term2(triple.L, triple.G, *triple.errs[1:], D, n)
        return _check("wwww", triple.K, rhs, {"d": d, "D": D},
                      triple.errs[0] + e_rhs, triple, **meta)

    if form == "hn1":
        if nf.delta2_const is None:
            raise PreconditionError(
                f"form hn1 needs a doubling N-function, got '{nf.label}'")
        _require_valid(triple)
        c1, c2, proof = convex_constants(D, n)
        check = check_linear(triple, c1, c2, inequality_id="hn1", **meta)
        check.constants_used.update(proof)
        return check

    raise PreconditionError(f"unknown n-dimensional modular form {form!r}")


def check_norm_form_nd(u: FieldFunction, nf: NFunction, n: int,
                       triple: ModularTriple,
                       spec: QuadratureSpec | None = None,
                       normalized: bool = False, **meta) -> Check:
    """Norm form hn11 on R^n: ||.|x| u|| <= C (||u|| + ||grad u||), the
    norms of the field's profiles u and |grad u| and of |x| |u|, from the
    `modular_triple_nd` of (u, nf) on the measure `normalized` names."""
    if n != u.n:
        raise PreconditionError(f"field '{u.label}' has dimension {u.n}, not {n}")
    if nf.delta2_const is None:
        raise PreconditionError(
            f"form hn11 needs a doubling N-function, got '{nf.label}'")
    return _check_norm_form(
        "hn11", u.parts(), triple, nf, GaussianMeasure(n, normalized), n, spec,
        normalization="normalized" if normalized else "unnormalized", **meta)
