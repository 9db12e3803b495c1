"""Modular functionals, Luxemburg norms, and the taper truncation operator.

For a radial profile u and an N-function M the three modulars are

    K = int M(r |u(r)|) dmu_n,   L = int M(|u(r)|) dmu_n,
    G = int M(|u'(r)|) dmu_n,

with the n-dimensional counterparts integrating M(|x| |u|), M(|u|) and
M(|grad u|) against exp(-|x|^2/2) dx.  Each subject names the profiles of
these modulars once, as its `parts()`: K's is |u| under the pointwise
transform r a (|x| a on R^n), so K and L read one function of u, and a
field adds H, its ||hess u||_HS.  The modulars one battery needs of one
subject -- a radial member's triples under every (N-function, n) pair the
Hardy battery checks it at, a field's under every N-function at one n, or
its Landau-Kolmogorov terms under one -- are one `_modular_family` call of
(part, N-function) pairs: one adaptive refinement, out to the largest of
the parts' truncation radii, with each part's own envelope tail from
there, in which each part retires once it meets its tolerance and keeps
the panels it retired on.  A part's envelope of M(|f|) is derived from its
decay hint and its N-function's certified exponents.  A triple under one
N-function is the family of one N-function, and a lone modular
(`modular_value`) the family of one part.  The Luxemburg norms of one check are found
from the modulars at K = 1 that its caller integrated: a power's in closed
form, any other's as the root of its modular on the Kronrod rule of the
panels its part retired on.  One family of the parts at their roots,
each scale composed onto the part's transform, verifies them, and the
growth indices turn each verified modular into a bracket on its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DivergenceError, PreconditionError
from .nfunc import NFunction
from .quadrature import (
    SYMMETRIES,
    GaussianMeasure,
    IntegralResult,
    QuadratureSpec,
    RadialMeasure,
    SupportHint,
    gk_rule,
    integrate_gaussian_nd,
    integrate_radial,
    sum_sq,
)

__all__ = [
    "SupportHint",
    "RadialTestFunction",
    "FieldFunction",
    "ModularTriple",
    "ScalarProfile",
    "Parts",
    "Norm",
    "modular_triple_radial",
    "modular_triple_nd",
    "modular_value",
    "luxemburg_norm",
    "truncate",
    "validate_radial",
    "validate_field",
    "hessian_hs_norm",
]


@dataclass(frozen=True)
class ScalarProfile:
    """A scalar-valued integrand with its decay hint (radial or on R^n).

    transform(|f|, x), when set, maps |f| at the points x (the radii r, or
    the points of R^n) to the integrand's argument pointwise, and the hint
    bounds that argument; profiles that share fn share one |f| per sweep.
    symmetry, one of `quadrature.SYMMETRIES`, is what the argument keeps
    under the Gaussian measure's symmetries on R^n; it sets the sphere
    directions a Gaussian family of the profile integrates.
    """

    fn: Callable
    hint: SupportHint
    breakpoints: tuple = ()
    transform: Optional[Callable] = None
    symmetry: str = "none"


class Parts(NamedTuple):
    """The profiles of a subject's modulars K, L, G and H (a field's
    ||hess u||_HS; None for a radial profile or a field without a Hessian)."""

    K: ScalarProfile
    L: ScalarProfile
    G: ScalarProfile
    H: Optional[ScalarProfile] = None


@dataclass
class RadialTestFunction:
    """Continuous, piecewise-C1 profile on [0, oo) with analytic derivative.

    `du` is the a.e. derivative; radii where C1 fails are listed in
    breakpoints and become mandatory panel boundaries in quadrature.
    """

    u: Callable
    du: Callable
    breakpoints: tuple = ()
    hint: SupportHint = field(default_factory=lambda: SupportHint.decaying(0.0, 1.0))
    label: str = ""

    def parts(self) -> Parts:
        """The profiles of K = int M(r |u|), L = int M(|u|), G = int M(|u'|)."""
        bps, weighted = self.breakpoints, self.hint.times_power(1.0)
        return Parts(ScalarProfile(self.u, weighted, bps, lambda a, r: r * a),
                     ScalarProfile(self.u, self.hint, bps),
                     ScalarProfile(self.du, weighted, bps))


@dataclass
class FieldFunction:
    """C1 (optionally C2) scalar field on R^n with analytic gradient/Hessian.

    Callables are vectorised over leading axes: u maps (..., n) -> (...),
    grad maps (..., n) -> (..., n), hess maps (..., n) -> (..., n, n).
    symmetry, one of `quadrature.SYMMETRIES`, is the field's declaration,
    which `validate_field` checks and the field's parts carry: "even" that
    |u|, |grad u| and ||hess u||_HS are unchanged under x -> -x, and
    "radial" that, besides, u and |grad u| depend on |x| alone.
    breakpoints are radii where the field's profiles along rays may change
    sign or fail to be smooth; every Gaussian integral of the field makes
    them panel edges.
    """

    u: Callable
    grad: Callable
    n: int
    hess: Optional[Callable] = None
    hint: SupportHint = field(default_factory=lambda: SupportHint.decaying(0.0, 1.0))
    label: str = ""
    breakpoints: tuple = ()
    symmetry: str = "none"

    def parts(self) -> Parts:
        """The profiles of K = int M(|x| |u|), L = int M(|u|),
        G = int M(|grad u|) and H = int M(||hess u||_HS), as point
        functions with the field's breakpoints and symmetry; H is None
        without a Hessian."""
        def grad_norm(pts):
            return np.sqrt(sum_sq(self.grad(pts)))

        bps, weighted, sym = self.breakpoints, self.hint.times_power(1.0), self.symmetry
        hess = (ScalarProfile(lambda pts: hessian_hs_norm(self, pts),
                              self.hint.times_power(2.0), bps, symmetry=sym)
                if self.hess is not None else None)
        return Parts(ScalarProfile(self.u, weighted, bps,
                                   lambda a, x: np.sqrt(sum_sq(x)) * a,
                                   symmetry=sym),
                     ScalarProfile(self.u, self.hint, bps, symmetry=sym),
                     ScalarProfile(grad_norm, weighted, bps, symmetry=sym), hess)


class ModularTriple(NamedTuple):
    """The modulars K, L and G as their family gave them: each the
    `IntegralResult` of its part, with the panels that part retired on and
    the family's truncation radius, or None where the modular diverges."""

    K: Optional[IntegralResult]
    L: Optional[IntegralResult]
    G: Optional[IntegralResult]

    @property
    def valid(self) -> bool:
        return all(m is not None and math.isfinite(m.value) and m.value >= 0.0
                   for m in self)

    @property
    def converged(self) -> bool:
        """False when an integral behind the triple did not converge."""
        return all(m.converged for m in self if m is not None)


def _compose_hint(arg_hint: SupportHint, nf: NFunction) -> SupportHint:
    """Envelope of M(|f|) given the envelope of f.

    Decaying arguments are eventually < 1 where M(x) <= M(1) x^d governs the
    tail; growing arguments use the upper exponent D.
    """
    d, D = nf.require_exponents()
    if arg_hint.kind == "compact":
        return arg_hint
    rate = arg_hint.rate
    e = d if rate > 0.0 else D
    return SupportHint.decaying(D * arg_hint.degree, e * rate)


def _modular_family(parts, measure, spec: QuadratureSpec) -> list[IntegralResult | None]:
    """int M(|f|) dmu, or int M(transform(|f|, x)) dmu, for each part
    (profile f with its transform, N-function M), in one `_adaptive` call,
    in which each part retires once it meets its tolerance.

    On a radial measure x is the radii r, |f| is |f(r)|, and the parts are
    one `integrate_radial`; measure may also be a sequence of radial
    measures, one per part, so that one family spans several dimensions,
    each part weighted by its own.  On a Gaussian measure f is a point
    function, x the sweep's (directions x radii x n) points, |f| its values
    there, and the parts are one `integrate_gaussian_nd` on the sphere
    directions of the weakest symmetry among them.  Each distinct profile
    function is called, and its absolute value taken, once per sweep while
    a live part reads it, and so is each distinct transform of it, so the
    parts that read one argument -- under one N-function or several, at one
    dimension or several -- share it; so is each N-function's M of each
    argument, so the parts that differ only in dimension share their
    integrand, and each takes its own weight.  Every part's envelope is
    composed from its profile's hint and its own N-function's exponents,
    and adds its own tail beyond the shared radius; the panel edges include
    every part's breakpoints.  A part whose envelope does not decay against
    the measure diverges: its entry is None and it takes no part in the
    refinement, so a family whose parts all diverge integrates nothing.
    """
    envs = [_compose_hint(profile.hint, nf) for profile, nf in parts]
    results: list[IntegralResult | None] = [None] * len(parts)
    live = [i for i, env in enumerate(envs)
            if env.kind == "compact" or 1.0 + env.rate > 0.0]
    if not live:
        return results
    breakpoints = sorted({float(b) for i in live for b in parts[i][0].breakpoints})
    magnitudes, ms = {}, {}  # one |f| per distinct profile function, one M per N-function

    def magnitude(fn):
        return magnitudes.setdefault(id(fn), lambda x: np.abs(fn(x)))

    def m_of(nf):
        return ms.setdefault(id(nf), lambda a, x: nf.eval(a))

    # (|f|, transform, M): the integrator evaluates each distinct argument
    # transform(|f|, x) once per sweep, whatever the N-functions that read
    # it, and each distinct M of it once, whatever the dimensions that do
    rows = [(magnitude(profile.fn), profile.transform, m_of(nf))
            for profile, nf in (parts[i] for i in live)]
    envelopes = [envs[i] for i in live]
    if not isinstance(measure, GaussianMeasure):
        dims = measure.n if isinstance(measure, RadialMeasure) else [measure[i].n for i in live]
        found = integrate_radial(rows, dims, spec, envelopes=envelopes,
                                 breakpoints=breakpoints)
    else:
        found = integrate_gaussian_nd(
            rows, measure.n, spec, envelopes=envelopes, normalized=measure.normalized,
            breakpoints=breakpoints,
            symmetry=min((parts[i][0].symmetry for i in live), key=SYMMETRIES.index))
    for i, res in zip(live, found):
        results[i] = res
    return results


def _modular_triple(parts, nf: NFunction | Sequence[NFunction], measure,
                    spec: QuadratureSpec) -> ModularTriple | list[ModularTriple]:
    """K, L, G from the profile of each, as one family: under the
    N-function nf on the measure, a ModularTriple; under each N-function of
    the sequence nf on the measure, or, on the radial side, on the radial
    measure of a sequence of the same length paired with it in order, one
    per N-function in order.  A modular whose envelope does not decay
    against the measure is None."""
    nfs = [nf] if isinstance(nf, NFunction) else list(nf)
    if not isinstance(measure, (RadialMeasure, GaussianMeasure)):
        measures = list(measure)
        if isinstance(nf, NFunction) or len(nfs) != len(measures):
            raise PreconditionError(
                f"{len(nfs)} N-functions and {len(measures)} measures do not pair up")
        measure = [m for m in measures for _ in parts]
    results = _modular_family([(profile, m) for m in nfs for profile in parts], measure, spec)
    triples = [ModularTriple(*results[i:i + len(parts)])
               for i in range(0, len(results), len(parts))]
    return triples[0] if isinstance(nf, NFunction) else triples


def modular_triple_radial(u: RadialTestFunction, nf: NFunction | Sequence[NFunction],
                          n: int | Sequence[int], spec: QuadratureSpec | None = None
                          ) -> ModularTriple | list[ModularTriple]:
    """K, L, G of a radial profile against dmu_n, as one family: the
    ModularTriple under the NFunction nf at the dimension n or, when nf is
    a sequence of N-functions, the list of the triples of each, at n or,
    when n is a sequence of dimensions as long as nf, at the dimension
    paired with it in order.  The integrands M(r |u|), M(|u|) and M(|u'|)
    do not depend on n: each sweep evaluates each of them once, while some
    dimension's row of it is live, and weights it once per live dimension."""
    measure = RadialMeasure(n) if np.ndim(n) == 0 else [RadialMeasure(d) for d in n]
    return _modular_triple(u.parts()[:3], nf, measure, spec or QuadratureSpec())


def hessian_hs_norm(u: FieldFunction, pts: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt magnitude of the Hessian, sqrt(sum_ij H_ij^2)."""
    if u.hess is None:
        raise PreconditionError(f"field '{u.label}' has no Hessian")
    h = np.asarray(u.hess(pts), dtype=float)
    return np.sqrt(sum_sq(h.reshape(h.shape[:-2] + (-1,))))


def modular_triple_nd(u: FieldFunction, nf: NFunction | Sequence[NFunction],
                      spec: QuadratureSpec | None = None,
                      normalized: bool = False) -> ModularTriple | list[ModularTriple]:
    """K, L, G of a field against the Gaussian measure on R^n, as one
    family in which K and L read one profile of u: the ModularTriple under
    the NFunction nf, or, for a sequence of N-functions, the list of their
    triples from one family spanning all of them."""
    if u.grad is None:
        raise PreconditionError(f"field '{u.label}' has no gradient")
    return _modular_triple(u.parts()[:3], nf, GaussianMeasure(u.n, normalized),
                           spec or QuadratureSpec())


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------

def _scaled(profile: ScalarProfile, k: float) -> ScalarProfile:
    """The profile whose integrand's argument is the profile's over k (its
    symmetry too)."""
    transform = profile.transform or (lambda a, x: a)
    return replace(profile, transform=lambda a, x: transform(a, x) / k)


def modular_value(profile: ScalarProfile, nf: NFunction, measure,
                  spec: QuadratureSpec | None = None, scale: float = 1.0) -> float:
    """int M(f / scale) dmu of the profile's argument f (|f| or its
    transform), as the family of one part.  One whose envelope does not
    decay against the measure raises DivergenceError."""
    res, = _modular_family(((_scaled(profile, scale), nf),), measure,
                           spec or QuadratureSpec())
    if res is None:
        raise DivergenceError("modular diverges under the truncation policy")
    return res.value


class Norm(NamedTuple):
    """A Luxemburg norm and the bracket [lo, hi] that holds the exact norm;
    converged is False when the integral that verified it did not converge."""

    value: float
    lo: float
    hi: float
    converged: bool = True


def _bracket(k: float, m: float, err: float, d: float, D: float) -> tuple[float, float]:
    """The norm's bracket from the modular m +- err at the scale k.  The
    growth indices d <= D of M give k^d M(r) <= M(k r) <= k^D M(r) for
    k >= 1, so a modular m' at k puts the norm in k [m'^(1/D), m'^(1/d)],
    ends swapped when m' < 1; both ends grow with m'."""
    low, high = max(m - err, 0.0), m + err
    return (k * min(low ** (1.0 / D), low ** (1.0 / d)),
            k * max(high ** (1.0 / D), high ** (1.0 / d)))


def _on_rule(profile: ScalarProfile, nf: NFunction, measure, panels):
    """k -> sum_i w_i M(a_i / k), the modular at K = k of the profile's
    argument a (|f| or its transform) by the Kronrod rule (`gk_rule`) of
    the panels its part retired on; a is evaluated once."""
    if panels is None:
        raise PreconditionError("the modular at K = 1 carries no panels to find a norm on")
    points, weights = gk_rule(panels, measure)
    a = np.abs(profile.fn(points))
    if profile.transform is not None:
        a = profile.transform(a, points)
    return lambda k: float(np.sum(weights * nf.eval(a / k)))


# a root on a rule is found to RULE_TOL * norm_tol, leaving the rest of
# norm_tol for the rule's own error; MAX_ROUNDS bounds the verifying families
RULE_TOL = 0.01
MAX_ROUNDS = 4


def luxemburg_norm(norms, nf: NFunction, measure, spec: QuadratureSpec | None = None,
                   norm_tol: float = 1e-9) -> list[Norm]:
    """The Luxemburg norm inf{K > 0 : int M(f/K) dmu <= 1} of each profile's
    argument f (|f|, or its transform), as a `Norm`, for the (profile,
    modular) pairs of one check.  The modular is int M(f) dmu at K = 1, the
    IntegralResult that a battery integrated as a triple's K, L or G or an
    LK term, with the panels its part retired on.

    Under the doubling condition the modular is exactly 1 at the norm, and
    the growth indices d <= D of M bracket the norm by the modular at any
    scale (`_bracket`).  A modular of 0 gives the norm 0.  For a power
    (d = D = p) the norm is m1^(1/p), bracketed by the image of
    [m1 - err, m1 + err], when m1 was resolved to relative accuracy
    (m1 * rel_tol >= abs_tol); else it is that value k rescaled exactly by
    the modular m at k, where it is O(1), and bracketed from m.  Otherwise
    k is the root of the modular on the Kronrod rule of its part's
    panels (`_on_rule`), which `_log_secant` finds without integrating,
    and the modular m at k brackets the norm; the norm is k m^(2/(d+D)),
    inside that bracket (the power's rescale is the case d = D).  The
    modulars at every such k are one `_modular_family`, integrated from
    the default panels.  A root whose m misses 1 by more than norm_tol
    (the rule did not resolve M at that scale) is found again on the rule
    of the panels its verifying modular retired on, and verified again:
    under p2log, fx_cut's Hessian norm (k ~ 1e-6) takes this second round
    at n = 1 and 2.
    """
    spec = spec or QuadratureSpec()
    if nf.delta2_const is None:
        raise PreconditionError(
            f"N-function '{nf.label}' is not doubling-certified")
    d, D = nf.require_exponents()

    def resolved(m: float) -> bool:
        return m * spec.rel_tol >= spec.abs_tol

    def root(profile: ScalarProfile, k: float, m: IntegralResult) -> float:
        """The scale at which the modular is 1, from the modular m at k."""
        if d == D:
            return k * m.value ** (1.0 / D)
        return k * _log_secant(_on_rule(_scaled(profile, k), nf, measure, m.panels),
                               m.value, d, D, RULE_TOL * norm_tol, resolved)

    def norm(k: float, m: IntegralResult, converged: bool = True) -> Norm:
        """The norm from the modular m at the scale k, inside its bracket."""
        return Norm(k * m.value ** (2.0 / (d + D)), *_bracket(k, m.value, m.err_est, d, D),
                    converged)

    found: list[Norm | None] = []
    pending = []  # (index, profile, k, modular at k) of the norms not yet settled
    for profile, m1 in norms:
        if m1 is None:
            raise DivergenceError("modular diverges under the truncation policy")
        if not (0.0 <= m1.value < math.inf):
            raise PreconditionError(
                f"the modular at K = 1 must be finite and >= 0, got {m1.value}")
        if m1.value == 0.0 or (d == D and resolved(m1.value)):
            found.append(norm(1.0, m1))
        else:
            pending.append((len(found), profile, 1.0, m1))
            found.append(None)
    for _ in range(MAX_ROUNDS):
        if not pending:
            break
        scales = [root(profile, k, m) for _, profile, k, m in pending]
        verified = _modular_family([(_scaled(profile, k), nf)
                                    for (_, profile, *_), k in zip(pending, scales)],
                                   measure, spec)
        if None in verified:
            raise DivergenceError("modular diverges under the truncation policy")
        unsettled = []
        for (i, profile, *_), k, m in zip(pending, scales, verified):
            found[i] = norm(k, m, m.converged)
            if d != D and abs(m.value - 1.0) > norm_tol:
                unsettled.append((i, profile, k, m))
        pending = unsettled
    return found


_LN2 = math.log(2.0)


def _log_secant(modular, m1: float, d: float, D: float, norm_tol: float,
                resolved) -> float:
    """The root K of modular(K) = 1 by log-log secant steps that keep a
    bracket around it, from the modular m1 at K = 1.  `luxemburg_norm`
    hands it the modular on a family's Kronrod rule, so a step integrates
    nothing.

    In x = log K, y = log modular every evaluated point narrows the bracket
    by the sign of y, as the modular decreases in K.  A point whose
    modular is resolved to relative accuracy also narrows it to
    [x + y/D, x + y/d] (ends swapped when y < 0), by the declared growth
    indices 1 <= d <= D.  A step that stalls or underflows bisects the
    bracket, or doubles towards its open side.
    """
    lo, hi = -math.inf, math.inf
    x, m, y = 0.0, m1, math.log(m1)
    x_new = 2.0 * y / (d + D)
    for _ in range(200):
        if m > 1.0:
            lo = max(lo, x)
        else:
            hi = min(hi, x)
        if m > 0.0 and resolved(m):
            lo = max(lo, x + min(y / D, y / d))
            hi = min(hi, x + max(y / D, y / d))
        if math.isfinite(x_new):
            x_new = min(max(x_new, lo), hi)
        else:
            x_new = (hi - _LN2 if lo == -math.inf
                     else lo + _LN2 if hi == math.inf else 0.5 * (lo + hi))
        m_new = modular(math.exp(x_new))
        if abs(m_new - 1.0) <= norm_tol:
            return math.exp(x_new)
        y_new = math.log(m_new) if m_new > 0.0 else math.nan
        step = y_new * (x_new - x) / (y_new - y) if y_new != y else math.nan
        x, x_new, m, y = x_new, x_new - step, m_new, y_new
    raise DivergenceError("Luxemburg iteration failed to converge")


# ---------------------------------------------------------------------------
# Truncation operator
# ---------------------------------------------------------------------------

def _sign_changes(g, lo: float, hi: float) -> list[float]:
    """The radii in (lo, hi) where g changes sign between consecutive
    nonzero values of 256 equally spaced samples, each bisected until no
    float lies inside its bracket or g is 0 at the midpoint."""
    r = np.linspace(lo, hi, 258)[1:-1]
    v = np.asarray(g(r), dtype=float)
    nonzero = np.flatnonzero(v)
    roots = []
    for i, j in zip(nonzero[:-1], nonzero[1:]):
        if (v[i] > 0.0) == (v[j] > 0.0):
            continue
        a, b = float(r[i]), float(r[j])
        m = 0.5 * (a + b)
        while a < m < b and (vm := float(g(np.array([m]))[0])) != 0.0:
            a, b = (m, b) if (vm > 0.0) == (v[i] > 0.0) else (a, m)
            m = 0.5 * (a + b)
        roots.append(m)
    return roots


def truncate(u: RadialTestFunction, cutoff: float) -> RadialTestFunction:
    """Taper u to compact support: u on [0, N], ((2N-r)/N) u on [N, 2N], 0 beyond.

    The derivative on (N, 2N) follows the product rule:
    u_N'(r) = ((2N-r)/N) u'(r) - u(r)/N.  Where it changes sign there,
    |u_N'| has a kink that the inner profile's breakpoints do not name, so
    those radii, found by scan and bisection, are breakpoints too; u_N
    changes sign on (N, 2N) only where u does.
    """
    if cutoff < 1.0:
        raise PreconditionError(f"truncation cutoff must be >= 1, got {cutoff}")
    big_n = float(cutoff)

    def u_fn(r):
        r = np.asarray(r, dtype=float)
        base = np.asarray(u.u(r), dtype=float)
        taper = (2.0 * big_n - r) / big_n
        return np.where(r <= big_n, base,
                        np.where(r < 2.0 * big_n, taper * base, 0.0))

    def du_fn(r):
        r = np.asarray(r, dtype=float)
        base = np.asarray(u.u(r), dtype=float)
        dbase = np.asarray(u.du(r), dtype=float)
        taper = (2.0 * big_n - r) / big_n
        return np.where(r <= big_n, dbase,
                        np.where(r < 2.0 * big_n, taper * dbase - base / big_n, 0.0))

    bps = sorted({float(b) for b in u.breakpoints if b < 2.0 * big_n}
                 | {big_n, 2.0 * big_n} | set(_sign_changes(du_fn, big_n, 2.0 * big_n)))
    return RadialTestFunction(
        u=u_fn, du=du_fn, breakpoints=tuple(bps),
        hint=SupportHint.compact(2.0 * big_n),
        label=f"{u.label}|trunc{big_n:g}")


# ---------------------------------------------------------------------------
# Validators (used at corpus load)
# ---------------------------------------------------------------------------

def _sample_radii(u: RadialTestFunction) -> np.ndarray:
    if u.hint.kind == "compact":
        hi = u.hint.radius * 0.995
    else:
        hi = 6.0
    r = np.linspace(0.02, hi, 160)
    if u.breakpoints:
        bps = np.asarray(u.breakpoints)
        dist = np.abs(r[:, None] - bps[None, :]).min(axis=1)
        r = r[dist > 1e-3]
    return r


def validate_radial(u: RadialTestFunction) -> list[str]:
    """Continuity at breakpoints and derivative-vs-central-difference checks."""
    problems: list[str] = []
    for b in u.breakpoints:
        if b <= 0:
            continue
        left = float(u.u(max(b - 1e-8, 0.0)))
        right = float(u.u(b + 1e-8))
        # a continuous kink still moves by ~ slope * probe width across b
        slope = abs(float(u.du(max(b - 1e-8, 0.0)))) + abs(float(u.du(b + 1e-8)))
        allowed = 1e-7 * (slope + 1.0) + 1e-9 * max(1.0, abs(left), abs(right))
        if abs(left - right) > allowed:
            problems.append(
                f"'{u.label}': discontinuous at breakpoint r={b:.6g} "
                f"(jump {abs(left - right):.3g})")
    r = _sample_radii(u)
    if r.size == 0:
        return problems
    h = 1e-6 * np.maximum(1.0, r)
    fd = (np.asarray(u.u(r + h), dtype=float)
          - np.asarray(u.u(r - h), dtype=float)) / (2.0 * h)
    du = np.asarray(u.du(r), dtype=float)
    scale = np.abs(du) + 1e-6 * np.max(np.abs(np.asarray(u.u(r), dtype=float)) + 1.0)
    dev = np.abs(fd - du) / scale
    worst = int(np.argmax(dev))
    if dev[worst] > 1e-4:  # central differences carry O(h^2) + cancellation noise
        problems.append(
            f"'{u.label}': derivative mismatch at r={r[worst]:.6g}: "
            f"max relative deviation {dev[worst]:.3g}")
    return problems


def validate_field(u: FieldFunction) -> list[str]:
    """Finite-difference gradient check, exact Hessian symmetry, and the
    declared symmetry, one of `quadrature.SYMMETRIES`: an "even" or
    "radial" field's |u|, |grad u| and ||hess u||_HS agree at x and -x, and
    a "radial" field's u and |grad u| at x equal theirs at |x| e_1, to
    within rounding on every test point."""
    problems: list[str] = []
    radius = u.hint.radius * 0.9 if u.hint.kind == "compact" else 3.0
    # 24 points at |x| / radius evenly from 0.05 to 1, in the directions of
    # Roberts' R sequence on [-1, 1]^n: frac(1/2 + k g^-i), g the root above
    # 1 of g^(n+1) = g + 1
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (u.n + 1))
    pts = 2.0 * ((0.5 + np.outer(np.arange(1, 25), g ** -np.arange(1.0, u.n + 1))) % 1.0) - 1.0
    pts *= (radius * np.linspace(0.05, 1.0, 24)[:, None]
            / np.linalg.norm(pts, axis=1, keepdims=True))
    g = np.asarray(u.grad(pts), dtype=float)
    fd = np.empty_like(g)
    for i in range(u.n):
        e = np.zeros(u.n)
        e[i] = 1e-5
        fd[:, i] = (np.asarray(u.u(pts + e), dtype=float)
                    - np.asarray(u.u(pts - e), dtype=float)) / 2e-5
    scale = np.abs(g) + 1e-3 * (np.abs(np.asarray(u.u(pts), dtype=float))[:, None] + 1.0)
    dev = np.abs(fd - g) / scale
    if dev.max() > 1e-3:
        j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        problems.append(
            f"'{u.label}': gradient mismatch (max rel dev {dev.max():.3g} "
            f"at point #{j[0]}, axis {j[1]})")
    if u.hess is not None:
        h = np.asarray(u.hess(pts), dtype=float)
        asym = np.abs(h - np.swapaxes(h, -2, -1)).max()
        if asym > 1e-12 * (1.0 + np.abs(h).max()):
            problems.append(f"'{u.label}': Hessian not symmetric (max dev {asym:.3g})")
    if u.symmetry not in SYMMETRIES:
        return problems + [f"'{u.label}': unknown symmetry {u.symmetry!r} "
                           f"(one of {', '.join(SYMMETRIES)})"]
    pairs = []  # (what, value at the test points, what it must equal)
    if u.symmetry != "none":
        both = np.stack([pts, -pts])
        pairs += [("|u|", *np.abs(u.u(both))), ("|grad u|", *np.sqrt(sum_sq(u.grad(both))))]
        if u.hess is not None:
            pairs.append(("||hess u||_HS", *hessian_hs_norm(u, both)))
    if u.symmetry == "radial":
        on_axis = np.zeros_like(pts)
        on_axis[:, 0] = np.sqrt(sum_sq(pts))
        pairs += [("u", u.u(pts), u.u(on_axis)),
                  ("|grad u|", np.sqrt(sum_sq(g)), np.sqrt(sum_sq(u.grad(on_axis))))]
    for what, a, b in pairs:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        dev = np.abs(a - b).max()
        if not dev <= 1e-12 * (1.0 + np.abs(b).max()):
            problems.append(f"'{u.label}': declared {u.symmetry}, but {what} differs "
                            f"by up to {dev:.3g}")
    return problems
