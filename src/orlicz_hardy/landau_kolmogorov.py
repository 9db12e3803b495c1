"""Gaussian Landau-Kolmogorov checks in modular and norm form.

The additive modular form bounds the gradient modular by Hessian and
function modulars,

    int M(|grad u|) dgamma_n <= C1 int M(theta |hess u|_HS) dgamma_n
                                + C2 int M(|u| / theta) dgamma_n,

with constants uniform over theta in (0, 1]; the norm form is

    ||grad u|| <= C1~ sqrt(||hess u|| ||u||) + C2~ ||u||.

No closed-form constants exist at this generality, so both are certified as
fitted envelopes over a declared corpus and constant grid: the report names
the selected pair, the grid, and the binding corpus member, and never claims
universality beyond the corpus.  Each member's terms (`lk_modular_terms`)
and norms (`lk_norm_triple`) are computed once; the fits
(`fit_lk_modular_envelope`, `fit_lk_norm_envelope`) read them and integrate
nothing, and the checks test each member at the fitted pair.

The modular form is checked for every theta in (0, 1] at once, from the
theta = 1 terms alone: the growth indices d <= D of M bound its right side
below by C1 theta^D H1 + C2 theta^-d L1, whose minimum over theta is in
closed form (`uniform_bound`).  For a power (d = D) that is the right
side's exact minimum.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DivergenceError, PreconditionError
from .functionals import (
    FieldFunction,
    ModularTriple,
    Norm,
    _modular_family,
    luxemburg_norm,
)
from .hardy import check_hn1
from .nfunc import NFunction, comparison_tol
from .quadrature import GaussianMeasure, IntegralResult, QuadratureSpec
from .reporting import TINY, Check, verdict

__all__ = [
    "EnvelopeFit",
    "LKTerms",
    "lk_modular_terms",
    "uniform_bound",
    "check_lk_modular",
    "lk_norm_triple",
    "check_lk_norm",
    "fit_envelope",
    "fit_lk_norm_envelope",
    "fit_lk_modular_envelope",
    "hardy_provenance",
    "DEFAULT_FIT_GRID",
]

DEFAULT_FIT_GRID = tuple(2.0 ** k for k in range(-3, 15))


class LKTerms(NamedTuple):
    """The theta-form modular inequality's terms at theta = 1, each the
    `IntegralResult` its family gave: lhs int M(|grad u|) and the function
    term int M(|u|), the G and L of u's modular triple, and the Hessian
    term int M(|hess u|_HS) of its own family."""

    lhs: IntegralResult
    hess_term: IntegralResult
    func_term: IntegralResult

    @property
    def converged(self) -> bool:
        """False when an integral behind the terms did not converge."""
        return all(term.converged for term in self)


class EnvelopeFit(NamedTuple):
    """`fit_envelope`'s selection: the pair, the binding member's label, and
    whether any grid pair holds for every member (inf, inf and "" if not)."""

    c1: float
    c2: float
    binding: str
    feasible: bool


def _require_lk_hypotheses(u: FieldFunction, nf: NFunction):
    if u.hess is None:
        raise PreconditionError(f"field '{u.label}' has no Hessian")
    if not nf.differentiable:
        raise PreconditionError(f"'{nf.label}' is not a differentiable N-function")
    if nf.delta2_const is None:
        raise PreconditionError(f"'{nf.label}' is not doubling-certified")
    d, _ = nf.require_exponents()
    if d < 2.0 - 1e-9:
        raise PreconditionError(
            f"'{nf.label}': M(r)/r^2 must be non-decreasing "
            f"(certified lower exponent {d:.6g} < 2)")


def lk_modular_terms(u: FieldFunction, nf: NFunction, triple: ModularTriple,
                     spec: QuadratureSpec | None = None,
                     normalized: bool = False) -> LKTerms:
    """The `LKTerms` of (u, nf) at theta = 1.  `triple` is the
    `modular_triple_nd` of (u, nf): its G is the lhs int M(|grad u|) and its
    L the function term.  The Hessian term H1 = int M(|hess u|_HS), m1 of
    ||hess u|| in `lk_norm_triple`, is one `_modular_family` of the field's H
    part.  A term that diverges raises DivergenceError.  Every other theta
    is bounded from these by `uniform_bound`."""
    _require_lk_hypotheses(u, nf)
    hess, = _modular_family([(u.parts().H, nf)], GaussianMeasure(u.n, normalized),
                            spec or QuadratureSpec())
    terms = LKTerms(triple.G, hess, triple.L)
    if None in terms:
        raise DivergenceError("modular diverges under the truncation policy")
    return terms


def uniform_bound(terms: LKTerms, c1: float, c2: float, d: float,
                  D: float) -> tuple[float, float, float, float]:
    """(theta*, hessian part, function part, err) of the least right side
    the growth indices d <= D of M allow over theta in (0, 1].

    For theta <= 1, M(theta a) >= theta^D M(a) and M(a / theta) >=
    theta^-d M(a), so the right side at theta is at least
    C1 theta^D H1 + C2 theta^-d L1, with H1 and L1 the theta = 1 terms.
    That bound is least at theta* = min(1, (d C2 L1 / (D C1 H1))^(1/(d+D))),
    where the parts are its two summands and err is err_G plus theta*^D C1
    err_H1 plus theta*^-d C2 err_L1.  For a power (d = D) it is the exact
    minimum of the right side.  A zero (or non-finite) Hessian part puts
    theta* at 1; a zero function part beside a positive Hessian part makes
    the infimum 0, approached as theta -> 0, which is reported as theta* = 0.
    """
    err_g, err_h, err_l = (term.err_est for term in terms)
    a, b = c1 * terms.hess_term.value, c2 * terms.func_term.value
    ratio = d * b / (D * a) if a > 0.0 and math.isfinite(a + b) else math.inf
    if not ratio < 1.0:
        return 1.0, a, b, err_g + c1 * err_h + c2 * err_l
    if ratio > 0.0:
        # theta*^-d = ratio^(-d/(d+D)) with d/(d+D) <= 1/2: no overflow
        theta = ratio ** (1.0 / (d + D))
        up, down = theta ** D, theta ** -d
        return theta, a * up, b * down, err_g + c1 * err_h * up + c2 * err_l * down
    return 0.0, 0.0, 0.0, err_g + (math.inf if c2 * err_l > 0.0 else 0.0)


def check_lk_modular(terms: LKTerms, nf: NFunction, c1: float, c2: float,
                     **meta) -> Check:
    """Check lhs <= C1 int M(theta |hess u|) + C2 int M(|u| / theta) for
    every theta in (0, 1] at once, against the `uniform_bound` of the
    theta = 1 `LKTerms` of `lk_modular_terms`, evaluated at its theta*.

    Under a power the bound is the right side's minimum, so it decides both
    ways.  Under any other M it only suffices: a bound that misses is
    indeterminate, not a failure.  Indeterminate unless the terms
    converged."""
    d, D = nf.require_exponents()
    theta, hess, func, err = uniform_bound(terms, c1, c2, d, D)
    rhs = hess + func
    check = Check.compare(
        "statB1gauss", terms.lhs.value, rhs, err, comparison_tol(rhs),
        rhs_terms={"hessian": hess, "function": func},
        constants_used={"C1": c1, "C2": c2, "hess_modular": terms.hess_term.value,
                        "func_modular": terms.func_term.value},
        theta=theta, **meta)
    if check.verdict == "fails" and d != D:
        check.verdict = "indeterminate"
        check.details["reason"] = (
            "the growth-index bound lies below the right side when d < D: "
            "missing it refutes nothing")
    return check.require_converged(
        terms.converged, "a quadrature behind the LK modular terms did not converge")


def lk_norm_triple(u: FieldFunction, nf: NFunction, terms: LKTerms,
                   spec: QuadratureSpec | None = None,
                   normalized: bool = False) -> tuple[Norm, Norm, Norm]:
    """(r, s, t) = (||grad u||, sqrt(||hess u|| ||u||), ||u||) in Luxemburg
    norms of the field's G, H and L parts, each a `Norm` with its bracket
    (s's from the brackets of ||hess u|| and ||u||), from one
    `luxemburg_norm` call.  The `lk_modular_terms` of (u, nf) hold the
    norms' modulars at K = 1: lhs, Hessian and function term."""
    _require_lk_hypotheses(u, nf)
    parts = u.parts()
    norm_grad, norm_hess, norm_u = luxemburg_norm(
        list(zip((parts.G, parts.H, parts.L), terms)), nf,
        GaussianMeasure(u.n, normalized), spec)
    geometric = Norm(*(math.sqrt(h * t) for h, t in zip(norm_hess[:3], norm_u[:3])),
                     norm_hess.converged and norm_u.converged)
    return norm_grad, geometric, norm_u


def check_lk_norm(triple: tuple, c1: float, c2: float, **meta) -> Check:
    """Check ||grad u|| <= C1~ sqrt(||hess u|| ||u||) + C2~ ||u|| for the
    (r, s, t) of `lk_norm_triple`.  The error is the widest the slack moves
    within the three brackets; the check is indeterminate unless the
    integrals verifying the norms converged."""
    r, s, t = triple
    rhs = c1 * s.value + c2 * t.value
    err = max(rhs - (c1 * s.lo + c2 * t.lo) + r.hi - r.value,
              c1 * s.hi + c2 * t.hi - rhs + r.value - r.lo)
    check = Check.compare(
        "statB2gauss", r.value, rhs, err, comparison_tol(rhs),
        rhs_terms={"geometric_mean": c1 * s.value, "function_norm": c2 * t.value},
        constants_used={"C1": c1, "C2": c2, "r": r.value, "s": s.value, "t": t.value},
        **meta)
    if r.value <= TINY and rhs <= TINY:  # nothing to compare
        check.verdict = "trivial"
    return check.require_converged(all(norm.converged for norm in triple),
                                   "a quadrature verifying a Luxemburg norm did not converge")


# ---------------------------------------------------------------------------
# Envelope fitting
# ---------------------------------------------------------------------------

def fit_envelope(items) -> EnvelopeFit:
    """Smallest (C1, C2) on `DEFAULT_FIT_GRID` at which no item fails the
    rule of the member checks, `verdict(lhs, rhs, 0, comparison_tol(rhs))`.

    items: iterable of (label, lhs, rhs), rhs the item's right side as a
    function of (C1, C2).  Selection minimises C1 + C2 with ties broken
    toward smaller C1, whatever the grid order.  The binding item is the one
    with least rhs + comparison_tol(rhs) - lhs at the selection.  An item
    with a non-finite lhs makes every grid pair infeasible.
    """
    items = list(items)
    if not items:
        raise PreconditionError("cannot fit an envelope over an empty corpus")
    if not all(math.isfinite(lhs) for _, lhs, _ in items):
        return EnvelopeFit(math.inf, math.inf, "", False)

    def at(c1, c2):
        """Each item's (label, lhs, rhs) at (C1, C2) = (c1, c2)."""
        return ((label, lhs, rhs(c1, c2)) for label, lhs, rhs in items)

    best = None
    for c1 in DEFAULT_FIT_GRID:
        for c2 in DEFAULT_FIT_GRID:
            if best is not None and (c1 + c2, c1) >= best[:2]:
                continue
            if all(verdict(lhs, rhs, 0.0, comparison_tol(rhs)) != "fails"
                   for _, lhs, rhs in at(c1, c2)):
                best = (c1 + c2, c1, c2)
    if best is None:
        return EnvelopeFit(math.inf, math.inf, "", False)
    _, c1, c2 = best
    binding = min(at(c1, c2), key=lambda it: it[2] + comparison_tol(it[2]) - it[1])
    return EnvelopeFit(c1, c2, binding[0], True)


def fit_lk_norm_envelope(norms: dict) -> EnvelopeFit:
    """Fit the norm-form envelope over the members' (r, s, t) of
    `lk_norm_triple`, keyed by label; a member with r = t = 0 constrains
    nothing."""
    return fit_envelope(
        (label, r.value, lambda c1, c2, s=s.value, t=t.value: c1 * s + c2 * t)
        for label, (r, s, t) in norms.items() if not (t.value <= 0.0 and r.value <= 0.0))


def fit_lk_modular_envelope(terms: dict, nf: NFunction) -> EnvelopeFit:
    """Fit (C1, C2) for the modular form, uniform over theta in (0, 1], over
    the members' theta = 1 `LKTerms` of `lk_modular_terms`, keyed by label:
    each member's right side is its `uniform_bound` at (C1, C2)."""
    d, D = nf.require_exponents()
    return fit_envelope(
        (label, t.lhs.value, lambda c1, c2, t=t: sum(uniform_bound(t, c1, c2, d, D)[1:3]))
        for label, t in terms.items())


def hardy_provenance(u: FieldFunction, nf: NFunction, n: int,
                     triple: ModularTriple) -> dict:
    """The Gaussian Hardy inequality (form hn1) the LK derivation assumes,
    checked for (u, nf, n) on u's `modular_triple_nd`, as the provenance
    of the modular check.  Raises PreconditionError when the
    Hardy check fails."""
    _require_lk_hypotheses(u, nf)
    hardy_check = check_hn1(triple, nf, n)
    if hardy_check.verdict == "fails":
        raise PreconditionError(
            f"Hardy hypothesis fails for ('{u.label}', '{nf.label}', n={n})")
    return {
        "hardy_form": "hn1",
        "hardy_verdict": hardy_check.verdict,
        "hardy_slack": hardy_check.slack,
        "hardy_constants": dict(hardy_check.constants_used),
    }
