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
universality beyond the corpus.

For a power M(r) = r^p, theta factors out of the modular form's terms
exactly, M(theta a) = theta^p M(a), so `lk_modular_terms` rescales the
theta = 1 terms rather than integrating them again at each theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import DivergenceError, EvaluationError, PreconditionError
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
from .reporting import TINY, Check

__all__ = [
    "LKFit",
    "LKTerms",
    "lk_modular_terms",
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
    """The theta-form modular inequality's terms at one theta: lhs
    int M(|grad u|), the Hessian term int M(theta |hess u|_HS), the function
    term int M(|u| / theta), their errors, whether every integral behind
    them converged, and the panels (lo, hi) each term's family converged
    on."""

    lhs: float
    hess_term: float
    func_term: float
    errs: tuple
    converged: bool
    panels: tuple = (None, None, None)


@dataclass(frozen=True)
class LKFit:
    """A fitted (C1, C2) envelope with its provenance."""

    c1: float
    c2: float
    binding_label: str
    grid: tuple
    corpus_labels: tuple
    form: str
    feasible: bool = True


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


def lk_modular_terms(u: FieldFunction, nf: NFunction, thetas,
                     triple: ModularTriple,
                     spec: QuadratureSpec | None = None,
                     normalized: bool = False) -> dict:
    """theta -> `LKTerms` of the theta-form modular inequality, for each
    theta in thetas.  `triple` is the `modular_triple_nd` of (u, nf): its G
    is the lhs int M(|grad u|) and its L the theta = 1 function term.  The
    theta = 1 Hessian term H1, m1 of ||hess u|| in `lk_norm_triple`, is a
    family of its own, so it does not move with the other thetas.

    Under a power M (certified d = D = p, as `luxemburg_norm` tests it),
    M(theta a) = theta^p M(a) pointwise, so the terms at theta != 1 are
    theta^p H1 and theta^-p L, their errors scaled alike, and integrate
    nothing; a scaled term that is not finite raises EvaluationError.
    Under any other M the Hessian and function terms at every theta != 1
    are one `_modular_family` of the field's H and L parts, each scaled by
    theta through its transform, so the Hessian parts share one profile of
    the field, as its function parts do."""
    _require_lk_hypotheses(u, nf)
    thetas = tuple(dict.fromkeys(thetas))
    for theta in thetas:
        if not (0.0 < theta <= 1.0):
            raise PreconditionError(f"theta must lie in (0, 1], got {theta}")
    spec = spec or QuadratureSpec()
    meas = GaussianMeasure(u.n, normalized)
    parts = u.parts()
    d, D = nf.require_exponents()
    scaled = [theta for theta in thetas if theta != 1.0]

    def family(parts):
        results = _modular_family(parts, meas, spec)
        if None in results:
            raise DivergenceError("modular diverges under the truncation policy")
        return results

    hess_terms = {}
    funcs = {1.0: IntegralResult(triple.L, triple.errs[1], converged=triple.converged,
                                 panels=triple.panels)}
    if 1.0 in thetas or (d == D and scaled):
        hess_terms[1.0], = family([(parts.H, nf)])
    if d == D:
        for theta in scaled:
            hess_terms[theta] = _rescaled(hess_terms[1.0], theta, D)
            funcs[theta] = _rescaled(funcs[1.0], theta, -D)
    elif scaled:
        found = family(
            [(replace(parts.H, transform=lambda a, x, theta=theta: theta * a), nf)
             for theta in scaled]
            + [(replace(parts.L, transform=lambda a, x, theta=theta: a / theta), nf)
               for theta in scaled])
        hess_terms.update(zip(scaled, found))
        funcs.update(zip(scaled, found[len(scaled):]))
    return {theta: LKTerms(triple.G, hess_terms[theta].value, funcs[theta].value,
                           (triple.errs[2], hess_terms[theta].err_est, funcs[theta].err_est),
                           triple.converged and hess_terms[theta].converged
                           and funcs[theta].converged,
                           (triple.panels, hess_terms[theta].panels, funcs[theta].panels))
            for theta in thetas}


def _rescaled(term: IntegralResult, theta: float, power: float) -> IntegralResult:
    """The term of a power M at theta: theta^power times the term at theta
    = 1 and its error, on that term's panels."""
    try:
        scale = theta ** power
    except OverflowError:
        scale = math.inf
    value, err = scale * term.value, scale * term.err_est
    if not (math.isfinite(value) and math.isfinite(err)):
        raise EvaluationError(
            f"LK term non-finite at theta={theta:g}: theta^{power:g} times its "
            f"theta = 1 value overflows")
    return replace(term, value=value, err_est=err)


def check_lk_modular(terms: LKTerms, c1: float, c2: float, theta: float = 1.0,
                     **meta) -> Check:
    """Check lhs <= C1 * hess_term + C2 * func_term for the `LKTerms` of
    `lk_modular_terms` at theta; indeterminate unless they converged."""
    lhs, a, b, errs, converged, _ = terms
    rhs = c1 * a + c2 * b
    err = errs[0] + c1 * errs[1] + c2 * errs[2]
    return Check.compare(
        "statB1gauss" if theta == 1.0 else "statB1_theta", lhs, rhs, err,
        comparison_tol(rhs), rhs_terms={"hessian": c1 * a, "function": c2 * b},
        constants_used={"C1": c1, "C2": c2, "hess_modular": a, "func_modular": b},
        theta=theta, **meta).require_converged(
            converged, "a quadrature behind the LK modular terms did not converge")


def lk_norm_triple(u: FieldFunction, nf: NFunction, terms: LKTerms,
                   spec: QuadratureSpec | None = None,
                   normalized: bool = False) -> tuple[Norm, Norm, Norm]:
    """(r, s, t) = (||grad u||, sqrt(||hess u|| ||u||), ||u||) in Luxemburg
    norms of the field's G, H and L parts, each a `Norm` with its bracket
    (s's from the brackets of ||hess u|| and ||u||), from one
    `luxemburg_norm` call.  The theta = 1 `lk_modular_terms` of (u, nf)
    hold the norms' modulars at K = 1: lhs, Hessian and function term."""
    _require_lk_hypotheses(u, nf)
    parts = u.parts()
    modulars = [IntegralResult(value, err, panels=panels)
                for value, err, panels in zip(terms[:3], terms.errs, terms.panels)]
    norm_grad, norm_hess, norm_u = luxemburg_norm(
        list(zip((parts.G, parts.H, parts.L), modulars)), nf,
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

def fit_envelope(items, grid=DEFAULT_FIT_GRID) -> tuple[float, float, str, bool]:
    """Smallest (C1, C2) on the grid with lhs <= C1 x + C2 y + tol for every
    item.

    items: iterable of (label, lhs, x, y, tol).  Selection minimises C1 + C2
    with ties broken toward smaller C1, whatever the grid order; returns
    (c1, c2, binding_label, feasible).  The binding item is the one with
    least slack at the selection.  An item with a non-finite lhs makes every
    grid pair infeasible.  A grid that is empty or holds a constant that is
    not finite and positive raises PreconditionError.
    """
    grid = tuple(grid)
    if not grid or not all(0.0 < c < math.inf for c in grid):
        raise PreconditionError(
            f"the constant grid must be non-empty, finite and positive, got {list(grid)}")
    items = list(items)
    if not items:
        raise PreconditionError("cannot fit an envelope over an empty corpus")
    if not all(math.isfinite(lhs) for _, lhs, *_ in items):
        return math.inf, math.inf, "", False
    best = None
    for c1 in grid:
        for c2 in grid:
            if best is not None and (c1 + c2, c1) >= best[:2]:
                continue
            if all(lhs <= c1 * x + c2 * y + tol for _, lhs, x, y, tol in items):
                best = (c1 + c2, c1, c2)
    if best is None:
        return math.inf, math.inf, "", False
    _, c1, c2 = best
    binding = min(items, key=lambda it: c1 * it[2] + c2 * it[3] + it[4] - it[1])
    return c1, c2, binding[0], True


def fit_lk_norm_envelope(corpus, nf: NFunction, terms: dict,
                         spec: QuadratureSpec | None = None,
                         grid=DEFAULT_FIT_GRID,
                         normalized: bool = False) -> tuple[LKFit, list]:
    """Fit the norm-form envelope over a corpus of fields; returns the fit
    plus per-member (label, r, s, t) rows, r, s and t the `Norm`s of
    `lk_norm_triple`.  terms is the label -> theta -> terms map of
    `fit_lk_modular_envelope` (its theta = 1 terms are the norms' modulars
    at K = 1)."""
    rows = []
    items = []
    for u in corpus:
        r, s, t = lk_norm_triple(u, nf, terms[u.label][1.0], spec, normalized)
        rows.append((u.label, r, s, t))
        if t.value <= 0.0 and r.value <= 0.0:
            continue
        items.append((u.label, r.value, s.value, t.value, comparison_tol(r.value, 1e-9)))
    c1, c2, binding, feasible = fit_envelope(items, grid)
    fit = LKFit(c1=c1, c2=c2, binding_label=binding, grid=tuple(grid),
                corpus_labels=tuple(u.label for u in corpus),
                form="statB2gauss", feasible=feasible)
    return fit, rows


def fit_lk_modular_envelope(corpus, nf: NFunction, triples: dict,
                            spec: QuadratureSpec | None = None,
                            grid=DEFAULT_FIT_GRID,
                            theta_grid=(0.25, 0.5, 1.0),
                            normalized: bool = False) -> tuple[LKFit, dict]:
    """Fit (C1, C2) for the modular form, uniform over the declared theta
    grid and theta = 1.

    One `fit_envelope` runs over every (member, theta): the selected pair is
    the cheapest grid pair feasible at every theta, and the binding member
    the one with least slack at any theta.  Returns the fit and, feasible or
    not, the terms it was fitted on: member label -> theta -> `LKTerms`,
    thetas in increasing order and theta = 1 always among them.  triples
    maps a member's label to its `modular_triple_nd`.
    """
    thetas = sorted(set(theta_grid) | {1.0})
    terms = {u.label: lk_modular_terms(u, nf, thetas, triples[u.label], spec,
                                       normalized)
             for u in corpus}
    items = [(label, lhs, a, b, comparison_tol(lhs, 1e-9))
             for label, by_theta in terms.items()
             for lhs, a, b, *_ in by_theta.values()]
    c1, c2, binding, feasible = fit_envelope(items, grid)
    fit = LKFit(c1=c1, c2=c2, binding_label=binding, grid=tuple(grid),
                corpus_labels=tuple(terms.keys()), form="statB1gauss",
                feasible=feasible)
    return fit, terms


def hardy_provenance(u: FieldFunction, nf: NFunction, n: int,
                     triple: ModularTriple) -> dict:
    """The Gaussian Hardy inequality (form hn1) the LK derivation assumes,
    checked for (u, nf, n) on u's `modular_triple_nd`, as the provenance
    of the theta = 1 modular check.  Raises PreconditionError when the
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
