"""Quadrature against the radial weight r^(n-1) exp(-r^2/2) on [0, oo) and
against the Gaussian weight exp(-|x|^2/2) dx on R^n via spherical sampling.

The 1-d rule is adaptive panel subdivision with an embedded Gauss-Kronrod
15(7) pair per panel.  Integrands are evaluated in vectorised batches (one
numpy call per refinement sweep), which also lets a whole family of radial
profiles -- several modulars of one subject, each on the sphere directions
its symmetry leaves distinct -- share one refinement: one `_adaptive` call,
in which every row keeps its own tolerance test.  A panel's error is at least QUADPACK qk15's roundoff
floor, 50 eps times the Kronrod sum of |f| (Piessens et al., QUADPACK, 1983).

Truncation of the semi-infinite interval is driven by caller-declared
polynomial/Gaussian envelopes, one per row: a row is assumed to be bounded by
r^degree * exp(-rate * r^2 / 2).  Each envelope gives a cut radius at which
its exact Gaussian tail falls below the absolute tolerance; a family's
panels run to the largest of these, and each row's error adds its own
envelope's exact tail from that shared radius.

That tail, and the closed-form moments, need only Gamma functions: ln Gamma
is `math.lgamma`, and the regularised upper incomplete gamma Q(s, x) is
computed here in full double precision -- from the power series of
P = 1 - Q below x = max(1, s), and from Legendre's continued fraction,
evaluated bottom-up, above it (see Numerical Recipes, 3rd ed., section 6.2,
and DiDonato & Morris, ACM TOMS 12 (1986)).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
# numpy imports it on first use; load it with the package, not inside a
# battery pass
import numpy.random  # noqa: F401

from .errors import DivergenceError, EvaluationError, PreconditionError

__all__ = [
    "SupportHint",
    "RadialMeasure",
    "GaussianMeasure",
    "QuadratureSpec",
    "IntegralResult",
    "moment",
    "surface_area",
    "truncation_radius",
    "integrate_interval",
    "integrate_pieces",
    "integrate_runs",
    "integrate_radial",
    "integrate_gaussian_nd",
    "sphere_directions",
    "SYMMETRIES",
    "gk_rule",
    "brent_max",
    "sum_sq",
]

# The sphere rule: SPHERE_NODES directions on S^(n-1), in antithetic pairs
# drawn from SPHERE_SEED, so every run samples the same directions.
SPHERE_NODES = 32
SPHERE_SEED = 20260809
# What a Gaussian family's integrands keep under the symmetries of the
# Gaussian measure, weakest first: nothing; their value under x -> -x
# ("even"); their value under every rotation ("radial").
SYMMETRIES = ("none", "even", "radial")
# where exp(-r^2/2) falls to the smallest normal double, about 37.6
MAX_RADIUS = math.sqrt(-2.0 * math.log(np.finfo(float).tiny))
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)
# QUADPACK qk15's roundoff floor on a panel's error, relative to the Kronrod
# sum of |f|.  A nonnegative integrand's summed floor is ROUNDOFF * |value|,
# so a rel_tol at the floor cannot be met; the smallest accepted one leaves
# as much again for |K15 - G7|.
ROUNDOFF = 50.0 * _EPS
MIN_REL_TOL = 2.0 * ROUNDOFF


@dataclass(frozen=True)
class SupportHint:
    """Decay metadata used by the truncation policy.

    compact(R): the function vanishes beyond radius R.
    decaying(degree, rate): bounded by r^degree * exp(-rate * r^2 / 2);
    rate may be negative (growth) as long as the measure absorbs it.
    """

    kind: str
    radius: float | None = None
    degree: float = 0.0
    rate: float = 1.0

    @classmethod
    def compact(cls, radius: float) -> "SupportHint":
        return cls("compact", radius=float(radius))

    @classmethod
    def decaying(cls, degree: float, rate: float) -> "SupportHint":
        return cls("decaying", degree=float(degree), rate=float(rate))

    def times_power(self, k: float) -> "SupportHint":
        """The envelope of r^k f for f within this one (the rule the decay
        hints of derivatives follow too)."""
        if self.kind == "compact":
            return self
        return SupportHint.decaying(self.degree + k, self.rate)


@dataclass(frozen=True)
class RadialMeasure:
    """The measure r^(n-1) exp(-r^2/2) dr on (0, oo)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError(f"dimension must be >= 1, got {self.n}")


@dataclass(frozen=True)
class GaussianMeasure:
    """exp(-|x|^2/2) dx on R^n; `normalized` multiplies by (2*pi)^(-n/2)."""

    n: int
    normalized: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError(f"dimension must be >= 1, got {self.n}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy policy for all integrations: each integral is refined until
    its error is within max(abs_tol, rel_tol * |value|), and the truncation
    radius is chosen from the integrand envelope and abs_tol.  rel_tol may
    not go below `MIN_REL_TOL`, twice the panels' roundoff floor.  The
    sphere rule is fixed (`SPHERE_NODES`, `SPHERE_SEED`).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self):
        if not (MIN_REL_TOL <= self.rel_tol <= 1e-2):
            raise PreconditionError(
                f"rel_tol must lie in [100 eps = {MIN_REL_TOL:.3g}, 1e-2], got {self.rel_tol}")
        if not (0.0 <= self.abs_tol < math.inf):
            raise PreconditionError(
                f"abs_tol must be finite and >= 0, got {self.abs_tol}")


@dataclass(slots=True)  # not frozen: a frozen constructor costs ~3x as much
class IntegralResult:
    value: float
    err_est: float
    radius: float = math.inf
    angular_sem: float = 0.0
    converged: bool = True  # the 1-d refiner `_adaptive` met its tolerance
    # the panels (lo, hi) its family converged on, one pair shared by the family
    panels: tuple | None = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15(7) rule (QUADPACK abscissae/weights)
# ---------------------------------------------------------------------------

_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])            # 15 ascending
_KRON_W = np.concatenate([_WGK[:-1], _WGK[::-1]])            # 15
_GAUSS_W = np.zeros(15)
_GAUSS_W[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])     # embedded G7
_FLOOR_W = ROUNDOFF * _KRON_W                                # qk15's floor


def _gk_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the GK15 pair on each [lo_i, hi_i].

    f maps a flat array of abscissae to values of shape (k,) or (m, k) for a
    vector of m integrands sharing the panels.  Returns (vals, errs), each of
    shape (m, P); a panel's error is |K15 - G7|, floored at `ROUNDOFF` times
    the Kronrod sum of |f| on it, as QUADPACK's qk15 does.  A non-finite
    value raises EvaluationError; numpy's overflow and invalid-value
    warnings on the way to it are not printed.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.asarray(f(x), dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    yy = y.reshape(y.shape[0], lo.size, 15)
    floor = (np.abs(yy) @ _FLOOR_W) * half
    # the sum of |f| is finite unless some value is (or the sum overflows)
    if not np.isfinite(floor).all() and not np.isfinite(y).all():
        i, j = np.argwhere(~np.isfinite(y))[0]
        raise EvaluationError(f"integrand non-finite at r={x[j]:.6g} (component {i})")
    kron = (yy * _KRON_W).sum(axis=-1) * half
    gauss = (yy * _GAUSS_W).sum(axis=-1) * half
    return kron, np.maximum(np.abs(kron - gauss), floor)


def sum_sq(x: np.ndarray) -> np.ndarray:
    """(x * x).sum(axis=-1), bit for bit, at a fraction of its cost on a
    short last axis: numpy adds fewer than 8 components one at a time, in
    order, and so does this; from 8 on, numpy's pairwise sum is taken.
    np.sqrt(sum_sq(x)) is np.linalg.norm(x, axis=-1), bit for bit."""
    x = np.asarray(x, dtype=float)
    if not 0 < x.shape[-1] < 8:
        return (x * x).sum(axis=-1)
    total = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        total += x[..., i] * x[..., i]
    return total


def _median(x: np.ndarray):
    """np.median of a 1-d array, bit for bit, without its per-call overhead."""
    if x.size == 1:
        return x[0]
    h = x.size // 2
    if x.size % 2:
        return np.partition(x, h)[h]
    part = np.partition(x, (h - 1, h))
    return (part[h - 1] + part[h]) / 2.0


def _adaptive(f, edges: np.ndarray, rel_tol: float, abs_tol: float, first=None, splits=64):
    """Adaptive panel subdivision, at most `splits` rounds of it, until every
    component meets its tolerance.

    first is the (vals, errs) that `_gk_panels` gives on the edges' panels,
    when `integrate_pieces` has already evaluated them.
    Returns (values (m,), errors (m,), converged bool, panels): panels is
    (lo, hi), the ends of the final panels in the order the values sum
    their `_gk_panels` totals."""
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)
    vals, errs = _gk_panels(f, lo, hi) if first is None else first
    for _ in range(splits):
        tot = vals.sum(axis=1)
        tot_err = errs.sum(axis=1)
        need = np.maximum(abs_tol, rel_tol * np.abs(tot))
        if np.all(tot_err <= need):
            return tot, tot_err, True, (lo, hi)
        if lo.size >= 4096:
            return tot, tot_err, False, (lo, hi)
        score = (errs / need[:, None]).max(axis=0)
        top = score.max()
        split = score >= min(max(top * 0.25, _median(score)), top)
        keep = ~split
        slo, shi = lo[split], hi[split]
        smid = 0.5 * (slo + shi)
        nlo = np.concatenate([lo[keep], slo, smid])
        nhi = np.concatenate([hi[keep], smid, shi])
        new_vals, new_errs = _gk_panels(f, np.concatenate([slo, smid]),
                                        np.concatenate([smid, shi]))
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        errs = np.concatenate([errs[:, keep], new_errs], axis=1)
        lo, hi = nlo, nhi
    return vals.sum(axis=1), errs.sum(axis=1), False, (lo, hi)


def integrate_interval(f, a: float, b: float, rel_tol: float = 1e-10,
                       abs_tol: float = 1e-14) -> IntegralResult:
    """Plain adaptive integral of f over [a, b]: the one run of a one-piece
    `integrate_runs`, as `integrate_pieces` gives it."""
    (value,), (err,), (ok,) = next(integrate_runs(f, [a], [b], rel_tol, abs_tol))
    return IntegralResult(value, err, float(b), converged=ok)


def integrate_pieces(f, los, his, rel_tol: float = 1e-10, abs_tol: float = 1e-14):
    """Yield, for each piece [lo_i, hi_i] in order, the integral of the scalar
    f that `_adaptive` gives on it: the same value and converged flag, bit
    for bit, and the same error estimate except where it is the panels'
    roundoff floor, whose last bit depends on how many panels share the
    `_gk_panels` call (f = 1 + x on [0, 0.25] reads 3.1225022567582524e-15
    alone and 3.1225022567582528e-15 in a batch of 2, 4 or 8).

    The pieces are `integrate_runs`', one `IntegralResult` at a time, so a
    piece is refined, or its error raised, only when the caller reaches it.
    """
    ends = iter(np.asarray(his, dtype=float).tolist())
    for values, errors, converged in integrate_runs(f, los, his, rel_tol, abs_tol):
        for value, err, ok in zip(values, errors, converged):
            yield IntegralResult(value, err, next(ends), converged=ok)


def integrate_runs(f, los, his, rel_tol: float = 1e-10, abs_tol: float = 1e-14):
    """Yield the integrals of the scalar f over the pieces [lo_i, hi_i], in
    order, as runs of consecutive pieces: three lists (values, errors,
    converged), one entry per piece of the run.

    Every piece of positive width gets one GK15 panel, all in one
    `_gk_panels` call, and the test `_adaptive` makes after its first sweep.
    The pieces that miss it are halved, all in one more call (the first of
    the 64 splits `_adaptive` makes halves a lone panel), and tested again.
    A piece its halves do not resolve starts a run: it is `_adaptive`'s from
    them, with the 63 splits left, when the caller asks for that run.  A
    zero-width piece is 0 without evaluating f.  If a call raises, the batch
    is halved, and each half is tried as a batch of its own when the caller
    asks for its first run, so a piece's error surfaces only at the run that
    would hold it.
    """
    los, his = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    wide = his > los
    lo, hi = los[wide], his[wide]
    try:
        vals, errs = _gk_panels(f, lo, hi) if lo.size else (np.empty((1, 0)),) * 2
        values, errors = vals[0].tolist(), errs[0].tolist()
        missed = [i for i, (v, e) in enumerate(zip(values, errors))
                  if not e <= max(abs_tol, rel_tol * abs(v))]
        if missed:
            mlo, mhi = lo[missed], hi[missed]
            mid = 0.5 * (mlo + mhi)
            hvals, herrs = _gk_panels(f, np.concatenate([mlo, mid]), np.concatenate([mid, mhi]))
            # _adaptive's sum of two panels, which reads -0.0 + -0.0 as 0.0
            tots, tot_errs = ((h[0] + h[1] + 0.0).tolist()
                              for h in (hvals.reshape(2, -1), herrs.reshape(2, -1)))
    except Exception:
        if los.size == 1:  # _adaptive raises the same from the same panels
            raise
        h = los.size // 2
        yield from integrate_runs(f, los[:h], his[:h], rel_tol, abs_tol)
        yield from integrate_runs(f, los[h:], his[h:], rel_tol, abs_tol)
        return
    # (place among the missed, place among the pieces) of each piece its halves miss
    refine = [(k, i) for k, i in enumerate(missed)
              if not tot_errs[k] <= max(abs_tol, rel_tol * abs(tots[k]))]
    for k, i in enumerate(missed):
        values[i], errors[i] = tots[k], tot_errs[k]
    if lo.size < los.size:  # a zero-width piece is 0, and f is not evaluated on it
        spread = np.zeros((2, los.size))
        spread[:, wide] = values, errors
        values, errors = spread.tolist()
        at = np.flatnonzero(wide).tolist()
        refine = [(k, at[i]) for k, i in refine]
    converged = [True] * los.size
    bounds = [i for _, i in refine] + [los.size]
    if bounds[0]:
        yield values[:bounds[0]], errors[:bounds[0]], converged[:bounds[0]]
    for (k, i), stop in zip(refine, bounds[1:]):
        halves = [k, k + len(missed)]
        val, err, conv, _ = _adaptive(f, np.array([mlo[k], mid[k], mhi[k]]), rel_tol, abs_tol,
                                      (hvals[:, halves], herrs[:, halves]), splits=63)
        values[i], errors[i], converged[i] = float(val[0]), float(err[0]), conv
        yield values[i:stop], errors[i:stop], converged[i:stop]


def brent_max(fn, lo: float, hi: float, x: float, fx: float) -> tuple[float, float]:
    """Brent's parabolic/golden-section ascent of fn on [lo, hi] from x in it,
    whose value fx is known, until the bracket is shorter than
    sqrt(eps) * max(1, hi), at most 80 evaluations (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5).

    sqrt(eps) is the floor Brent gives for locating a smooth maximum in
    double precision: within about sqrt(eps) relative of it, fn differs from
    its maximum by about eps relative, so the steps of a narrower bracket
    compare rounding, not fn.

    A parabola through the best three points gives the step where it lies
    inside the bracket and shrinks it fast enough; otherwise the step is a
    golden section of the larger side.  No step is shorter than a third of
    the stopping width, so the bracket can close.  Returns the best
    (x, fn(x)) seen, the latest on a tie.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    w = v = x
    fw = fv = fx
    d = e = 0.0
    for _ in range(80):
        width = _SQRT_EPS * max(1.0, b)
        if b - a < width:
            break
        tol = width / 3.0
        m = 0.5 * (a + b)
        parabolic = False
        if abs(e) > tol:
            # vertex of the parabola through (x, fx), (w, fw), (v, fv)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
            if parabolic:
                e, d = d, p / q
                if (x + d) - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = tol if x < m else -tol
        if not parabolic:
            e = (b - x) if x < m else (a - x)
            d = golden * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = fn(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


# ---------------------------------------------------------------------------
# Closed-form moments and truncation policy
# ---------------------------------------------------------------------------

def moment(n: int, k: float) -> float:
    """Exact value of the k-th radial moment: 2^((n+k-2)/2) * Gamma((n+k)/2)."""
    if n < 1 or k < 0:
        raise PreconditionError(f"moment requires n >= 1 and k >= 0, got n={n}, k={k}")
    return math.exp(0.5 * (n + k - 2.0) * math.log(2.0) + math.lgamma(0.5 * (n + k)))


def surface_area(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1): 2 pi^(n/2) / Gamma(n/2)."""
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


def gaussian_tail(degree: float, rate: float, radius: float) -> float:
    """Exact tail integral of r^degree exp(-rate r^2/2) dr over [radius, oo)."""
    return gaussian_tail_fn(degree, rate)(radius)


def gaussian_tail_fn(degree: float, rate: float):
    """radius -> gaussian_tail(degree, rate, radius), with the Gamma scale
    computed once.  Given an array of radii (rate > 0), it returns the array
    of their tails from one call, each the scalar tail's bits: the loop over
    the radii runs inside it.

    The tail is 2^((degree-1)/2) rate^(-s) Gamma(s, rate radius^2 / 2) with
    s = (degree + 1)/2.  It needs degree > -1 (s > 0), which every
    envelope a corpus member declares has; a degree <= -1 raises
    PreconditionError, and a scale past the float range EvaluationError."""
    if rate <= 0.0:
        return lambda radius: math.inf
    s = 0.5 * (degree + 1.0)
    if s <= 0.0:
        raise PreconditionError(
            f"the Gaussian tail needs an envelope degree > -1, got {degree:g}")
    log_scale = 0.5 * (degree - 1.0) * math.log(2.0) - s * math.log(rate)
    lgamma_s = math.lgamma(s)
    try:
        scale = math.exp(log_scale + lgamma_s)
    except OverflowError:
        raise EvaluationError(f"the Gaussian tail of degree {degree:g} and rate {rate:g} "
                              "overflows the float range") from None

    def tail(radius):
        if isinstance(radius, np.ndarray):
            return np.array([scale * _gammaincc(s, 0.5 * rate * r * r, lgamma_s)
                             for r in radius.tolist()])
        return scale * _gammaincc(s, 0.5 * rate * radius * radius, lgamma_s)

    return tail


def _gammaincc(s: float, x: float, lgamma_s: float) -> float:
    """Regularised upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s)
    for s > 0 and x >= 0, given lgamma_s = ln Gamma(s)."""
    if x <= 0.0:
        return 1.0
    front = math.exp(s * math.log(x) - x - lgamma_s)     # x^s e^-x / Gamma(s)
    if x >= max(1.0, s):
        return front * _gamma_fraction(s, x)
    # Q = 1 - P with the series P = front * sum_k x^k / (s (s+1) ... (s+k))
    term = total = 1.0 / s
    a = s
    while term > total * _EPS:
        a += 1.0
        term *= x / a
        total += term
    return 1.0 - front * total


def _gamma_fraction(s: float, x: float) -> float:
    """h with Gamma(s, x) = x^s e^-x h, for x >= max(1, s): Legendre's
    continued fraction 1/(x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(x+5-s - ...))),
    evaluated bottom-up from a fixed depth.

    The depth reaches full double precision over 0 < s <= 60 (checked
    against a 3000-deep evaluation).  Bottom-up evaluation keeps the error
    within an ulp or two; a top-down (Lentz) one gathers up to about 20 ulps
    near x = 1."""
    depth = int(10.0 + 120.0 / x + 3.0 * math.sqrt(abs(s)))
    t = x + (2 * depth + 1 - s)
    for i in range(depth, 0, -1):
        t = x + (2 * i - 1 - s) - i * (i - s) / t
    return 1.0 / t


def truncation_radius(degree: float, rate: float, abs_tol: float) -> float:
    """Smallest R (up to iteration slack) with R^degree exp(-rate R^2/2) < abs_tol."""
    if rate <= 0.0:
        raise DivergenceError(
            f"integrand envelope does not decay (net Gaussian rate {rate:.3g} <= 0)")
    m = max(degree, 0.0)
    target = -math.log(max(abs_tol, 1e-300))
    r = max(3.0, math.sqrt(2.0 * target / rate), math.sqrt((m + 2.0) / rate) + 1.0)
    for _ in range(40):
        r_new = math.sqrt(2.0 * (m * math.log(r) + target) / rate)
        r_new = max(r_new, math.sqrt((m + 2.0) / rate) + 1.0)
        if abs(r_new - r) < 1e-9 * r:
            r = r_new
            break
        r = r_new
    return min(r * 1.05, 1e6)


# ---------------------------------------------------------------------------
# Radial and n-dimensional integration
# ---------------------------------------------------------------------------

def _build_edges(a: float, b: float, points) -> np.ndarray:
    pts = {a, b}
    for p in points:
        if a < p < b:
            pts.add(float(p))
    return np.array(sorted(pts))


def _resolve_radius(n: int, spec: QuadratureSpec, envelope) -> tuple[float, float, float]:
    """Returns (R, envelope degree incl. measure, total Gaussian rate).  R is
    at most MAX_RADIUS, past which the weight exp(-r^2/2) is subnormal while
    f may overflow; the envelope's exact tail from R stays in the error."""
    if envelope is None:
        envelope = SupportHint.decaying(8.0, 1.0)
    if envelope.kind == "compact":
        return float(envelope.radius), 0.0, math.inf
    deg = envelope.degree + (n - 1)
    rate = 1.0 + envelope.rate
    if rate <= 0.0:
        raise DivergenceError(
            f"integrand envelope does not decay (net Gaussian rate {rate:.3g} <= 0)")
    return min(truncation_radius(deg, rate, spec.abs_tol), MAX_RADIUS), deg, rate


def _radial_seeds(radius: float, resolved) -> list[float]:
    """Interior edges: halvings of the shared radius, and the peak
    sqrt(degree / rate) of each decaying envelope."""
    seeds = [radius * 2.0 ** (-j) for j in range(1, 7)]
    for _, deg, rate in resolved:
        if math.isfinite(rate) and rate > 0 and deg > 0:
            seeds.append(math.sqrt(deg / rate))
    return seeds


def _stacked(parts, rows: int, at=None):
    """The (len(parts) * rows, k) integrand of parts (source, *transforms) at
    radii r (k,).  The source is called on x = r or, given `at`, on
    x = at(r), and gives a block of `rows` rows (or a vector for one row);
    each transform in turn, unless None, maps the block to the next
    pointwise, transform(block, x), and the last block is the part's rows.
    Each distinct source, and each distinct chain of transforms after it,
    is evaluated once per sweep: a block that more than one part reads is
    kept for the sweep, any other is written out and dropped."""
    plans, reads = [], Counter()  # each part's steps (chain key, function)
    for src, *transforms in parts:
        key, steps = (), []
        for fn in (src, *(t for t in transforms if t is not None)):
            key += (id(fn),)
            steps.append((key, fn))
        plans.append(steps)
        reads.update(key for key, _ in steps)

    def fs(r):
        x = r if at is None else at(r)
        kept = {}
        out = np.empty((len(parts) * rows, r.size))
        for i, steps in enumerate(plans):
            for j, (key, fn) in enumerate(steps):
                if key in kept:
                    block = kept[key]
                    continue
                block = fn(x) if j == 0 else fn(block, x)
                if reads[key] > 1:
                    kept[key] = block
            out[i * rows:(i + 1) * rows] = block
        return out

    return fs


def integrate_radial(parts, n: int, spec: QuadratureSpec | None = None, *,
                     envelopes, breakpoints=()) -> list[IntegralResult]:
    """Integrals of f(r) r^(n-1) exp(-r^2/2) dr over [0, oo), one per part,
    all on shared panels in one `_adaptive` call.

    Each part is (f, *transforms): f maps an array of radii to values
    (vectorised), and each transform(values, r) in turn, unless None, maps
    them pointwise to the next, the last to the part's integrand; each
    distinct f, and each distinct chain of transforms after it, is
    evaluated once per sweep.  envelopes holds one envelope per part.  A
    part's reported error combines its panel estimates with its envelope's
    exact Gaussian tail beyond the family's truncation radius.
    """
    vals, errs, radius, ok, panels = integrate_radial_family(
        _stacked(parts, 1), n, spec, envelopes=envelopes, breakpoints=breakpoints)
    return [IntegralResult(float(v), float(e), radius, converged=ok, panels=panels)
            for v, e in zip(vals, errs)]


def integrate_radial_family(fs, n: int, spec: QuadratureSpec | None = None, *,
                            envelopes, breakpoints=()):
    """Shared-panel integration of a family of radial profiles in one
    `_adaptive` call.

    fs maps an array of radii (k,) to a matrix (m, k), and envelopes holds
    one envelope per row (None is the default decaying(8, 1)).  The panels
    run to the largest of the envelopes' truncation radii, and each row's
    error adds its own envelope's exact tail from that radius.  Returns
    (values (m,), errors (m,), radius, converged, panels), panels the
    (lo, hi) `_adaptive` converged on."""
    spec = spec or QuadratureSpec()
    if n < 1:
        raise PreconditionError(f"dimension must be >= 1, got {n}")
    envelopes = tuple(envelopes)
    # rows that share an envelope object (a Gaussian part's directions) are
    # told apart by identity, and each distinct envelope is resolved once
    distinct = {id(env): env for env in envelopes}
    resolved = {env: _resolve_radius(n, spec, env)
                for env in dict.fromkeys(distinct.values())}
    radius = max(r for r, _, _ in resolved.values())

    def weighted(r):
        vals = np.asarray(fs(r), dtype=float)
        if vals.shape[0] != len(envelopes):
            raise PreconditionError(
                f"{len(envelopes)} envelopes for a family of {vals.shape[0]} profiles")
        w = np.power(r, n - 1) * np.exp(-0.5 * r * r)
        return vals * w[None, :]

    edges = _build_edges(0.0, radius,
                         (*breakpoints, *_radial_seeds(radius, resolved.values())))
    vals, errs, ok, panels = _adaptive(weighted, edges, spec.rel_tol, spec.abs_tol)
    tails = {env: 0.0 if not math.isfinite(rate) else gaussian_tail(deg, rate, radius)
             for env, (_, deg, rate) in resolved.items()}
    tail_of = {key: tails[env] for key, env in distinct.items()}
    return vals, errs + np.array([tail_of[id(env)] for env in envelopes]), radius, ok, panels


@functools.cache
def sphere_directions(n: int) -> np.ndarray:
    """The sphere rule on S^(n-1): SPHERE_NODES / 2 directions y drawn from
    SPHERE_SEED, then their antipodes -y; for n=1 the two unit vectors.
    Drawn once per dimension and shared, so the array is read-only."""
    if n < 1:
        raise PreconditionError(f"dimension must be >= 1, got {n}")
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        rng = np.random.default_rng(SPHERE_SEED)
        raw = rng.standard_normal((SPHERE_NODES // 2, n))
        norms = np.linalg.norm(raw, axis=1)
        while np.any(norms < 1e-12):  # pragma: no cover - measure-zero event
            raw[norms < 1e-12] = rng.standard_normal((int((norms < 1e-12).sum()), n))
            norms = np.linalg.norm(raw, axis=1)
        y = raw / norms[:, None]
        dirs = np.concatenate([y, -y], axis=0)
    dirs.flags.writeable = False
    return dirs


def integrate_gaussian_nd(parts, n: int, spec: QuadratureSpec | None = None, *,
                          envelopes, normalized: bool = False,
                          breakpoints=(), symmetry: str = "none") -> list[IntegralResult]:
    """Integrals against exp(-|x|^2/2) dx on R^n by spherical reduction, one
    per part, all on shared panels in one `_adaptive` call.

    Each part is (g, *transforms): g is a point function mapping an array of
    points of shape (..., n) to one value per point.  On each sweep the
    points x = r y_j at the sweep's radii r and the sphere directions y_j,
    of shape (directions, k, n), are built once, and each distinct g is
    called once on them.  Each transform(values, x) in turn, unless None,
    maps g's (directions x k) values at x pointwise to the next, the last to
    the part's integrand, and each distinct chain of them after g is
    evaluated once per sweep; one that reads |x| takes np.sqrt(sum_sq(x)).
    A part is a block of rows, one per sphere direction, of one
    `integrate_radial_family`; envelopes holds one envelope per part.  A
    part's angular average is scaled by the sphere surface area;
    `normalized` switches to the (2 pi)^(-n/2)-normalised Gaussian.  Its
    error estimate adds the angular standard error of the antithetic-pair
    means to the mean radial quadrature error.

    symmetry, one of `SYMMETRIES`, is what every part's integrand keeps,
    and it sets the rows the family integrates (Stroud, Approximate
    Calculation of Multiple Integrals, 1971).  "none" integrates every
    sphere direction.  "even" integrates the drawn directions y and copies
    each row to its antipode -y; where the parts read the same values at
    -y as at y, bit for bit, the value, error and angular error are those
    of every direction, bit for bit.  "radial" integrates e_1 alone,
    weighted by the whole surface area, with no angular error.
    Each result's panels are (lo, hi, directions, copies), for `gk_rule`:
    the directions the family averaged over, and how many of them each
    integrated row stands for (2 for "even", else 1).
    """
    spec = spec or QuadratureSpec()
    envelopes = tuple(envelopes)
    if len(envelopes) != len(parts):
        raise PreconditionError(f"{len(envelopes)} envelopes for {len(parts)} parts")
    if symmetry not in SYMMETRIES:
        raise PreconditionError(f"symmetry must be one of {SYMMETRIES}, got {symmetry!r}")
    dirs = np.eye(1, n) if symmetry == "radial" else sphere_directions(n)
    m = dirs.shape[0]
    drawn = dirs[:m // 2] if symmetry == "even" else dirs
    rows = drawn.shape[0]

    def one_value_per_point(g):
        def values(x):
            vals = np.asarray(g(x), dtype=float)
            if vals.shape != x.shape[:-1]:
                raise PreconditionError(
                    f"point function returned shape {vals.shape}, "
                    f"not one value per point {x.shape[:-1]}")
            return vals
        return values

    checked = {id(g): one_value_per_point(g) for g, *_ in parts}
    family = _stacked([(checked[id(g)], *transforms) for g, *transforms in parts], rows,
                      lambda r: r[None, :, None] * drawn[:, None, :])
    vals, errs, radius, ok, (lo, hi) = integrate_radial_family(
        family, n, spec, envelopes=[env for env in envelopes for _ in range(rows)],
        breakpoints=breakpoints)
    vals, errs = vals.reshape(len(parts), rows), errs.reshape(len(parts), rows)
    if rows < m:  # each antipode's row is its drawn direction's
        vals, errs = np.tile(vals, 2), np.tile(errs, 2)
    panels = (lo, hi, dirs, m // rows)
    area = surface_area(n)
    factor = (2.0 * math.pi) ** (-n / 2.0) if normalized else 1.0
    half = m // 2
    # every part's mean and antithetic standard error, one reduction each
    sems = (np.std(0.5 * (vals[:, :half] + vals[:, half:]), axis=1, ddof=1)
            / math.sqrt(half) if half >= 2 else np.zeros(len(parts)))
    values = area * vals.mean(axis=1) * factor
    errors = (area * errs.mean(axis=1) + area * sems) * factor
    return [IntegralResult(value, err, radius, angular_sem=sem, converged=ok, panels=panels)
            for value, err, sem in zip(values.tolist(), errors.tolist(),
                                       (sems * factor).tolist())]


def gk_rule(panels, measure) -> tuple[np.ndarray, np.ndarray]:
    """The Kronrod rule of a family's panels against the measure: (points,
    weights) with sum(weights * f(points)) the Kronrod sum that
    `integrate_radial` or `integrate_gaussian_nd` takes of int f dmu on
    those panels.  On a RadialMeasure the panels are (lo, hi), the points
    are the abscissae r (k,) and the weights carry r^(n-1) exp(-r^2/2).  On
    a GaussianMeasure the panels are (lo, hi, directions, copies), the
    points are r y_j for the directions y_j the family integrated -- the
    first 1/copies of those it averaged over -- (rows, k, n), and the
    weights (rows, k) also carry the angular mean, each row counted copies
    times, the sphere's surface area and, when normalized, (2 pi)^(-n/2).
    An even family's rule is so its drawn half, as the family took it."""
    lo, hi = panels[:2]
    half = 0.5 * (hi - lo)
    r = (0.5 * (lo + hi)[:, None] + half[:, None] * _NODES).ravel()
    n = measure.n
    w = (half[:, None] * _KRON_W).ravel() * np.power(r, n - 1) * np.exp(-0.5 * r * r)
    if isinstance(measure, RadialMeasure):
        return r, w
    dirs, copies = panels[2:]
    rows = dirs[:dirs.shape[0] // copies]
    scale = surface_area(n) * copies / dirs.shape[0]
    if measure.normalized:
        scale *= (2.0 * math.pi) ** (-n / 2.0)
    return (r[None, :, None] * rows[:, None, :],
            np.broadcast_to(scale * w, (rows.shape[0], r.size)))
