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
sub-pieces.  Beyond the probe the inner integral is one running sum, in
grid order, of the pieces between neighbouring grid points (`_Objective`),
and the grid's mu tails come from one call on the grid.  The probe's
sub-pieces and the sweep's pieces up to the first zero mu tail are each
one `quadrature.integrate_runs` batch, read as runs of (value, converged)
pieces: one Gauss-Kronrod panel per piece in a single vectorised call,
the pieces those miss halved in one more, and a piece its halves miss
refined from them when its run is reached.  Around the grid maximum,
Brent's search (`quadrature.brent_max`) starts from the grid value and
stops at its sqrt(eps) floor.
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
PIECE_REL_TOL, PIECE_ABS_TOL = 1e-9, 1e-16  # each piece between knots


@dataclass(frozen=True)
class MeasurePair:
    """(mu, nu) with exponents 1 < p <= q < oo on (a, oo).

    mu_tail maps an array of radii r, or one float, to their tails
    mu([r, oo)), non-negative and never increasing, as every packaged
    pair's does; the sweep calls it once on its grid, and a tail that does
    not take the array is a PreconditionError.  nu_density is dnu*/dx, on
    an array of abscissae.
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


class _Objective:
    """The Maz'ya objective r -> mu([r,oo))^(1/q) I(r)^((p-1)/p).

    The inner integral I(r) = int_a^r nu_density^(-1/(p-1)) is the endpoint
    probe up to the first knot a + PROBE_WIDTH plus pieces between knots.
    The sweep makes each grid point with a positive mu tail a knot, so it
    integrates each piece [r_(i-1), r_i] once; any other r costs one piece
    from the largest knot at or below it.  Pieces are positive, so each I(r)
    keeps the relative accuracy of its pieces.  A point whose mu tail is 0
    scores 0 without integrating; an integration error scores inf, and so
    does every later knot.
    """

    def __init__(self, pair: MeasurePair, probe: float, converged: bool):
        self.pair = pair
        self.converged = converged
        self._integrand = _nu_integrand(pair)
        self._knots = [pair.a + PROBE_WIDTH]
        self._inner = [probe]
        self._tail_power, self._inner_power = 1.0 / pair.q, (pair.p - 1.0) / pair.p

    def _score(self, tail: float, inner: float) -> float:
        if tail <= 0.0:
            return 0.0
        return tail ** self._tail_power * inner ** self._inner_power

    def __call__(self, r: float) -> float:
        tail = float(self.pair.mu_tail(r))
        j = bisect.bisect_right(self._knots, r) - 1
        lo, inner = self._knots[j], self._inner[j]
        if tail > 0.0 and r > lo:
            try:
                piece = integrate_interval(self._integrand, lo, r, PIECE_REL_TOL, PIECE_ABS_TOL)
            except Exception:
                inner = math.inf
            else:
                self.converged = self.converged and piece.converged
                inner += piece.value
        return self._score(tail, inner)

    def sweep(self, rs: np.ndarray) -> list:
        """The objective at each r of the increasing grid rs from the first
        knot on, up to the first value past OBJECTIVE_CAP if there is one.

        The grid's mu tails come from one call on rs (a TypeError, ValueError
        or other shape is a PreconditionError naming the pair).  mu tails
        never increase, so exactly the pieces [r_(i-1), r_i] before the first
        zero tail are one `integrate_runs` batch.  Each run of it extends the
        inner integrals as one running sum in grid order, the adds of a walk
        piece by piece, and is scored in one pass; the next run, and the
        refinement it starts with, is asked for only while no score has
        passed the cap.
        """
        try:
            tails = np.asarray(self.pair.mu_tail(rs), dtype=float)
            if tails.shape != rs.shape:
                raise ValueError(f"it gave shape {tails.shape} for {rs.shape} radii")
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"the mu_tail of pair {self.pair.label!r} does not "
                                    f"map an array of radii to their tails: {exc}") from None
        positive = tails > 0.0
        live = rs.size if positive.all() else int(positive.argmin())
        grid, tails = rs.tolist(), tails.tolist()
        scores = [self._score(tail, self._inner[0]) for tail in tails[:min(live, 1)]]
        runs = integrate_runs(self._integrand, grid[:max(live - 1, 0)], grid[1:live],
                              PIECE_REL_TOL, PIECE_ABS_TOL)
        while len(scores) < live and not scores[-1] > OBJECTIVE_CAP:
            i = len(scores)
            try:
                values, _, converged = next(runs)
            except Exception:
                # the piece [r_(i-1), r_i] cannot be integrated
                self._knots.append(grid[i])
                self._inner.append(math.inf)
                return scores + [self._score(tails[i], math.inf)]
            inner = list(itertools.accumulate(values, initial=self._inner[-1]))[1:]
            new = list(map(self._score, tails[i:i + len(inner)], inner))
            read = next((j + 1 for j, v in enumerate(new) if v > OBJECTIVE_CAP), len(new))
            self._knots += grid[i:i + read]
            self._inner += inner[:read]
            self.converged = self.converged and all(converged[:read])
            scores += new[:read]
        if scores and scores[-1] > OBJECTIVE_CAP:
            return scores
        return scores + [0.0] * (rs.size - live)


def _log_grid(pair: MeasurePair, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.logspace(-3.0, math.log10(pair.grid_hi), grid_points)
    return offsets, pair.a + offsets


def mazya_B(pair: MeasurePair, grid_points: int = 240) -> MazyaResult:
    """Supremum of the Maz'ya objective over a log grid with local refinement.

    One sweep up the grid (`_Objective.sweep`) takes the grid's mu tails
    from one call and sums the inner integral's pieces between neighbouring
    grid points in grid order, all read from one `integrate_runs` batch, so
    the series is that of a walk piece by piece, bit for bit.  Brent's
    search (`brent_max`) on the grid points either side of the grid maximum
    starts from it, and each step adds one piece to the stored value at the
    grid point below; the grid value stands unless a step beats it.  It
    stops at its sqrt(eps) floor, so B is within about eps of the maximum
    and its argmax within about sqrt(eps) relative.

    Divergence is flagged when the endpoint probe's decade ratios reach 0.9
    (the inner integral blows up at the left endpoint), when the objective
    exceeds its cap or a piece cannot be integrated, or when it keeps
    growing across the last decade of the grid.  `converged` is False when
    a probe sub-piece, or a piece up to where the sweep stopped, did not
    converge.  A divergent endpoint gives a series that is inf at every
    grid point.
    """
    offsets, rs = _log_grid(pair, grid_points)

    # left-endpoint convergence is shared by every grid point; probe it once
    probe, ok0, converged = _endpoint_probe(pair)
    if not ok0:
        return MazyaResult(math.inf, float(rs[0]), True,
                           "inner integral diverges at the left endpoint",
                           converged, tuple((r, math.inf) for r in rs.tolist()))

    objective = _Objective(pair, probe, converged)
    vals = objective.sweep(rs)
    series = tuple(zip(rs.tolist(), vals))
    if vals[-1] > OBJECTIVE_CAP:
        r = series[-1][0]
        return MazyaResult(math.inf, r, True, f"objective exceeds cap at r={r:.6g}",
                           objective.converged, series)
    vals = np.array(vals)

    i = int(np.argmax(vals))
    # growth across the last decade of the grid
    if i == rs.size - 1:
        decade = offsets >= offsets[-1] / 10.0
        first = vals[decade][0]
        if first > 0 and vals[-1] > first * 1.01:
            return MazyaResult(float(vals[-1]), float(rs[-1]), True,
                               "objective still growing at the grid boundary",
                               objective.converged, series)

    best_r, best_v = float(rs[i]), float(vals[i])
    r, v = brent_max(objective, float(rs[max(i - 1, 0)]),
                     float(rs[min(i + 1, rs.size - 1)]), best_r, best_v)
    if v > best_v:
        best_r, best_v = r, v
    return MazyaResult(best_v, best_r, False, converged=objective.converged,
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

