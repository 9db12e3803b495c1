"""Maz'ya characterization constant for weighted Hardy transforms on (a, oo).

For measures mu, nu with nu* the absolutely continuous part of nu, the
transform inequality

    ( int_a^oo |int_a^x f|^q dmu )^(1/q) <= C ( int_a^oo |f|^p dnu )^(1/p)

holds for all Borel f iff

    B = sup_{r>a} mu([r, oo))^(1/q) *
        ( int_a^r (dnu*/dx)^(-1/(p-1)) dx )^((p-1)/p)  < oo.

The Gaussian application takes dmu = r^p dmu_n and dnu = dmu_n; there the
inner integral converges at 0 iff p > n, so the transform inequality can
hold only for p > n.

`mazya_B` takes the supremum on a log grid.  The inner integral near a is
probed once on a decade ladder (`_endpoint_probe`): ratios of neighbouring
rungs below 0.9 mean an integrable endpoint, anything larger a divergent
one (the rule assumes a power-law endpoint).  Each rung is five geometric
sub-pieces.  One sweep up the grid (`_sweep`) returns the objective and
the inner integral, the probe plus one running sum of the pieces between
neighbouring grid points, at each point.  The probe's sub-pieces and the
sweep's pieces up to the first zero mu tail are each one
`quadrature.integrate_runs` batch, read as runs of (value, converged)
pieces: one Gauss-Kronrod panel per piece in a single vectorised call,
the pieces those miss halved in one more, and a piece its halves miss
refined from them when its run is reached.  Around the grid maximum,
Brent's search (`quadrature.brent_max`) steps from those values, each
step one piece from the grid point below it, to its sqrt(eps) floor.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .quadrature import (
    MAX_RADIUS,
    brent_max,
    gaussian_tail_fn,
    integrate_interval,
    integrate_runs,
    truncation_radius,
)

__all__ = [
    "MeasurePair",
    "MazyaResult",
    "mazya_B",
    "gaussian_hardy_pq",
    "classical_pair",
    "gaussian_pair",
    "table_pair",
]

INNER_CAP = 1e12
OBJECTIVE_CAP = 1e12
PROBE_WIDTH = 1e-3  # the endpoint probe covers (a, a + PROBE_WIDTH]
PROBE_RUNGS = 10  # decades of the endpoint ladder
PROBE_SPLIT = 5  # geometric sub-pieces per rung, each 10^(1/5) wide
# Tolerances of the supremum search; the run's QuadratureSpec does not apply.
PROBE_REL_TOL, PROBE_ABS_TOL = 1e-10, 1e-300  # each sub-piece of the endpoint probe
PIECE_REL_TOL, PIECE_ABS_TOL = 1e-9, 1e-16  # each grid piece and Brent step


@dataclass(frozen=True)
class MeasurePair:
    """(mu, nu) with exponents 1 < p <= q < oo on (a, oo).

    mu_tail maps an array of radii r, or one float, to their tails
    mu([r, oo)), non-negative and never increasing, as every packaged
    pair's does; the sweep calls it once on its grid and each Brent step
    on its one radius, and a tail that does not take the array is a
    PreconditionError.  nu_density is dnu*/dx, on an array of abscissae.
    """

    a: float
    mu_tail: Callable
    nu_density: Callable
    p: float
    q: float
    label: str = ""
    grid_hi: float = 100.0

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            if not math.isfinite(value):
                raise PreconditionError(f"{name} must be finite, got {name}={value}")
        if self.p <= 1.0:
            raise PreconditionError(
                "p = 1 degenerates the (p-1)-root of the inner integral; "
                f"requires p > 1, got p={self.p}")
        if not self.p <= self.q:
            raise PreconditionError(f"requires p <= q, got p={self.p}, q={self.q}")


@dataclass(frozen=True)
class MazyaResult:
    """converged is False when a quadrature behind B did not converge.
    series holds the (r, objective) points of the grid sweep, up to the
    point where the search stopped."""

    B: float
    argmax_r: float
    divergent: bool
    reason: str = ""
    converged: bool = True
    series: tuple = ()


def _nu_integrand(pair: MeasurePair):
    expo = -1.0 / (pair.p - 1.0)

    def integrand(x):
        dens = np.asarray(pair.nu_density(x), dtype=float)
        # a density that is not positive gives inf, and no power is taken there
        return np.power(dens, expo, out=np.full(dens.shape, np.inf), where=dens > 0.0)

    return integrand


def _endpoint_probe(pair: MeasurePair) -> tuple[float, bool, bool]:
    """int over (a, a+PROBE_WIDTH] of nu_density^(-1/(p-1)), on its own scale.

    The endpoint is approached through a decade ladder.  For an integrand
    ~ x^(-e) near a, successive ladder rungs form a geometric sequence with
    ratio 10^(e-1): ratios below 1 mean an integrable endpoint (the remaining
    tail is recovered by geometric extrapolation, exact for pure powers),
    ratios at or above ~1 mean logarithmic or power blow-up.  The rule
    assumes a power-law endpoint and counts a ratio of 0.9 or more as 1.
    Each rung sums, in order, PROBE_SPLIT geometric sub-pieces, each short
    enough for one Gauss-Kronrod panel at a power-law endpoint; all 50 are
    one `integrate_runs` batch, read as (value, converged) pairs, whose next
    run is asked for only while the total stays within INNER_CAP.

    Returns (value, finite, converged); converged is False when a sub-piece's
    quadrature did not converge.
    """
    ends = [pair.a + PROBE_WIDTH * 10.0 ** (-m / PROBE_SPLIT)
            for m in range(PROBE_RUNGS * PROBE_SPLIT + 1)]
    rungs, total, converged = [], 0.0, True
    try:
        runs = integrate_runs(_nu_integrand(pair), ends[1:], ends[:-1],
                              PROBE_REL_TOL, PROBE_ABS_TOL)
        pieces = itertools.chain.from_iterable(zip(values, oks) for values, _, oks in runs)
        for _ in range(PROBE_RUNGS):
            rung = 0.0
            for value, ok in itertools.islice(pieces, PROBE_SPLIT):
                converged = converged and ok
                rung += value
            rungs.append(rung)
            total += rung
            if not math.isfinite(total) or total > INNER_CAP:
                return math.inf, False, converged
    except Exception:
        return math.inf, False, converged
    floor = 1e-13 * max(abs(total), 1e-30)
    if abs(rungs[-1]) <= floor:
        return total, True, converged
    ratios = [rungs[j + 1] / rungs[j] for j in range(len(rungs) - 3, len(rungs) - 1)
              if rungs[j] > 0.0]
    if not ratios or max(ratios) >= 0.9:
        return math.inf, False, converged
    rho = max(ratios)
    return total + rungs[-1] * rho / (1.0 - rho), True, converged


def _sweep(pair: MeasurePair, integrand, score, probe: float,
           rs: np.ndarray) -> tuple[list, list, bool]:
    """The objective at each point of the increasing grid rs, up to the
    first value past OBJECTIVE_CAP if there is one.

    rs[0] is a + PROBE_WIDTH, so the inner integral I there is the probe.
    The grid's mu tails come from one call on rs (a TypeError, ValueError
    or other shape is a PreconditionError naming the pair); they never
    increase, so the pieces [r_(i-1), r_i] before the first zero tail are
    one `integrate_runs` batch.  Each run extends I by a running sum in
    grid order and is scored in one pass; the next run is asked for only
    while no score has passed the cap.  A zero tail scores 0 without
    integrating; a piece that raises scores inf and ends the sweep.

    Returns (scores, inner, converged): I at rs[0] and at each point scored
    from a piece, and whether every piece the sweep read converged.
    """
    try:
        tails = np.asarray(pair.mu_tail(rs), dtype=float)
        if tails.shape != rs.shape:
            raise ValueError(f"it gave shape {tails.shape} for {rs.shape} radii")
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"the mu_tail of pair {pair.label!r} does not "
                                f"map an array of radii to their tails: {exc}") from None
    positive = tails > 0.0
    live = rs.size if positive.all() else int(positive.argmin())
    grid, tails = rs.tolist(), tails.tolist()
    scores = [score(tail, probe) for tail in tails[:min(live, 1)]]
    inner, converged = [probe], True
    runs = integrate_runs(integrand, grid[:max(live - 1, 0)], grid[1:live],
                          PIECE_REL_TOL, PIECE_ABS_TOL)
    while len(scores) < live and not scores[-1] > OBJECTIVE_CAP:
        i = len(scores)
        try:
            values, _, oks = next(runs)
        except Exception:
            scores.append(math.inf)  # the piece [r_(i-1), r_i] cannot be integrated
            break
        run = list(itertools.accumulate(values, initial=inner[-1]))[1:]
        new = list(map(score, tails[i:i + len(run)], run))
        read = next((j + 1 for j, v in enumerate(new) if v > OBJECTIVE_CAP), len(new))
        inner += run[:read]
        converged = converged and all(oks[:read])
        scores += new[:read]
    if not (scores and scores[-1] > OBJECTIVE_CAP):
        scores += [0.0] * (rs.size - live)
    return scores, inner, converged


def _log_grid(pair: MeasurePair, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.logspace(-3.0, math.log10(pair.grid_hi), grid_points)
    return offsets, pair.a + offsets


def mazya_B(pair: MeasurePair, grid_points: int = 240) -> MazyaResult:
    """Supremum of the Maz'ya objective over a log grid with local refinement.

    The sweep (`_sweep`) gives the objective and the inner integral at the
    grid points, the series of a walk piece by piece, bit for bit.  Brent's
    search (`brent_max`) between the grid points either side of the grid
    maximum starts from it; each step adds one piece to the inner integral
    at the grid point at or below it, and the grid value stands unless a
    step beats it.  It stops at its sqrt(eps) floor, so B is within about
    eps of the maximum and its argmax within about sqrt(eps) relative.

    Divergence is flagged when the endpoint probe's decade ratios reach 0.9
    (the inner integral blows up at the left endpoint), when the objective
    exceeds its cap or a piece cannot be integrated, or when it keeps
    growing across the last decade of the grid.  On each exit, `converged`
    is False when a piece read up to it did not converge: a probe
    sub-piece, a grid piece up to where the sweep stopped, or a Brent step.
    A divergent endpoint gives a series that is inf at every grid point.
    """
    offsets, rs = _log_grid(pair, grid_points)

    # left-endpoint convergence is shared by every grid point; probe it once
    probe, ok0, probe_ok = _endpoint_probe(pair)
    if not ok0:
        return MazyaResult(math.inf, float(rs[0]), True,
                           "inner integral diverges at the left endpoint",
                           probe_ok, tuple((r, math.inf) for r in rs.tolist()))

    integrand = _nu_integrand(pair)
    tail_power, inner_power = 1.0 / pair.q, (pair.p - 1.0) / pair.p

    def score(tail: float, inner: float) -> float:
        return 0.0 if tail <= 0.0 else tail ** tail_power * inner ** inner_power

    vals, inner, sweep_ok = _sweep(pair, integrand, score, probe, rs)
    converged = probe_ok and sweep_ok
    series = tuple(zip(rs.tolist(), vals))
    if vals[-1] > OBJECTIVE_CAP:
        r = series[-1][0]
        return MazyaResult(math.inf, r, True, f"objective exceeds cap at r={r:.6g}",
                           converged, series)
    vals = np.array(vals)

    i = int(np.argmax(vals))
    # growth across the last decade of the grid
    if i == rs.size - 1:
        first = vals[offsets >= offsets[-1] / 10.0][0]
        if first > 0 and vals[-1] > first * 1.01:
            return MazyaResult(float(vals[-1]), float(rs[-1]), True,
                               "objective still growing at the grid boundary",
                               converged, series)

    knots, steps_ok = rs[:len(inner)].tolist(), []

    def step(r: float) -> float:
        # the objective at r, one piece from the scored grid point at or below it
        tail = float(pair.mu_tail(r))
        j = bisect.bisect_right(knots, r) - 1
        if not (tail > 0.0 and r > knots[j]):
            return score(tail, inner[j])
        try:
            piece = integrate_interval(integrand, knots[j], r, PIECE_REL_TOL, PIECE_ABS_TOL)
        except Exception:
            return math.inf  # the piece cannot be integrated
        steps_ok.append(piece.converged)
        return score(tail, inner[j] + piece.value)

    best_r, best_v = float(rs[i]), float(vals[i])
    r, v = brent_max(step, float(rs[max(i - 1, 0)]), float(rs[min(i + 1, rs.size - 1)]),
                     best_r, best_v)
    if v > best_v:
        best_r, best_v = r, v
    return MazyaResult(best_v, best_r, False, converged=converged and all(steps_ok),
                       series=series)


# ---------------------------------------------------------------------------
# Concrete pairs
# ---------------------------------------------------------------------------

def classical_pair() -> MeasurePair:
    """dmu = x^(-2) dx (tail 1/r), dnu = dx, p = q = 2 on (0, oo)."""
    return MeasurePair(
        a=0.0,
        mu_tail=lambda r: 1.0 / r,
        nu_density=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        p=2.0, q=2.0, label="classical", grid_hi=1e3)


def gaussian_pair(p: float, n: int) -> MeasurePair:
    """dmu = r^p dmu_n, dnu = dmu_n, a = 0, exponents p = q."""
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    m = p + n - 1.0  # power of r in the mu-density
    tail = gaussian_tail_fn(m, 1.0)

    def nu_density(x):
        x = np.asarray(x, dtype=float)
        return np.power(x, n - 1.0) * np.exp(-0.5 * x * x)

    # keep exp(r^2 / (2(p-1))) finite and e^(-x^2/2) positive along the grid
    hi = min(truncation_radius(m, 1.0, 1e-16) + 10.0,
             math.sqrt(900.0 * (p - 1.0)), MAX_RADIUS)
    return MeasurePair(a=0.0, mu_tail=tail, nu_density=nu_density, p=float(p), q=float(p),
                       label=f"gaussian[p={p:g},n={n}]", grid_hi=hi)


def table_pair(xs, mu_density_vals, nu_density_vals, p: float, q: float,
               label: str = "table") -> MeasurePair:
    """Pair from tabulated densities on [xs[0], xs[-1]] (linear interpolation)."""
    xs = np.asarray(xs, dtype=float)
    mu_v = np.asarray(mu_density_vals, dtype=float)
    nu_v = np.asarray(nu_density_vals, dtype=float)
    if xs.ndim != 1 or xs.shape != mu_v.shape or xs.shape != nu_v.shape:
        raise PreconditionError("table arrays must share one shape")
    if xs.size < 2:
        raise PreconditionError(f"table x needs at least 2 abscissae, got {xs.size}")
    if not (np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0)):
        raise PreconditionError("table x must be finite and increasing")
    for name, vals in (("mu_density", mu_v), ("nu_density", nu_v)):
        if not np.all(np.isfinite(vals) & (vals >= 0.0)):
            raise PreconditionError(f"table {name} must be finite and non-negative")

    # right-continuous tail by cumulative trapezoid from the right
    cum = np.concatenate([[0.0], np.cumsum(np.diff(xs) * 0.5 * (mu_v[1:] + mu_v[:-1]))])
    total = cum[-1]

    def mu_tail(r):
        return total - np.interp(r, xs, cum, left=0.0, right=total)

    def nu_density(x):
        return np.interp(x, xs, nu_v, left=0.0, right=0.0)

    return MeasurePair(a=float(xs[0]), mu_tail=mu_tail, nu_density=nu_density,
                       p=float(p), q=float(q), label=label, grid_hi=float(xs[-1] - xs[0]))


def gaussian_hardy_pq(p: float, n: int) -> tuple[str, MazyaResult]:
    """Finiteness verdict for the Gaussian Hardy transform pair.

    Returns ("finite" | "divergent", MazyaResult).  Analytically the inner
    integrand behaves like x^(-(n-1)/(p-1)) near 0, so B is finite iff p > n.
    The verdict here is produced by the numeric detector, not the criterion.
    """
    if p <= 1.0:
        raise PreconditionError(f"requires p > 1, got p={p}")
    res = mazya_B(gaussian_pair(p, n))
    return ("divergent" if res.divergent else "finite"), res

