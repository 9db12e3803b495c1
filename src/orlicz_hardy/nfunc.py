"""Young-type N-functions with numerically certified growth exponents.

An N-function M is convex, vanishes at 0, and grows superlinearly.  The
toolkit works with the two-sided power bounds

    M(a r) <= a^D_exp * M(r)   for a >= 1,
    M(a r) <= a^d_exp * M(r)   for a in (0, 1),

and the doubling constant M(2r) <= delta2_const * M(r).  Each family's
constructor (powers, power-log) declares them in closed form; since they
are assumptions about all r rather than computable properties, `certify`
tests the declared exponents on a grid and rejects any that the grid
contradicts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import CertificationError, DivergenceError, PreconditionError

__all__ = [
    "NFunction",
    "GridSpec",
    "certify_growth",
    "certify_delta2",
    "check_lemma_split",
    "check_lemma_young",
    "power_nfunction",
    "power_log_nfunction",
]

DEFAULT_GRID_BOUNDS = (1e-6, 1e6)
DEFAULT_GRID_POINTS = 400


def comparison_tol(rhs: float) -> float:
    """Additive tolerance for inequality comparisons: 1e-12 max(1, |rhs|)."""
    return 1e-12 * max(1.0, abs(rhs))


@dataclass
class NFunction:
    """An evaluable N-function with its declared growth metadata.

    eval must accept scalars and numpy arrays of r >= 0.  d_exp / D_exp /
    delta2_const are declared by a constructor (None when undeclared);
    grid_fingerprint records the grid `certify` confirmed them on.
    """

    eval: Callable
    d_exp: Optional[float] = None
    D_exp: Optional[float] = None
    delta2_const: Optional[float] = None
    label: str = ""
    differentiable: bool = False
    grid_fingerprint: Optional[str] = None

    def require_exponents(self) -> tuple[float, float]:
        if self.d_exp is None or self.D_exp is None:
            raise PreconditionError(
                f"N-function '{self.label}' has no certified growth exponents")
        return self.d_exp, self.D_exp


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced evaluation grid for certification on [r_min, r_max]."""

    r_min: float = DEFAULT_GRID_BOUNDS[0]
    r_max: float = DEFAULT_GRID_BOUNDS[1]
    points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if self.points < 2:
            raise PreconditionError("grid needs at least 2 points")
        if not (0.0 < self.r_min < self.r_max):
            raise PreconditionError("grid requires 0 < r_min < r_max")

    def nodes(self) -> np.ndarray:
        return np.logspace(math.log10(self.r_min), math.log10(self.r_max),
                           self.points)

    def fingerprint(self) -> str:
        # "|log" keeps the fingerprints that reports recorded when the spacing was selectable
        key = f"{self.r_min!r}|{self.r_max!r}|{self.points}|log"
        return hashlib.sha256(key.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def _grid_values(nf: NFunction, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    r = grid.nodes()
    m = np.asarray(nf.eval(r), dtype=float)
    if not np.all(np.isfinite(m)):
        bad = r[~np.isfinite(m)][0]
        raise CertificationError(f"'{nf.label}': non-finite value at r={bad:.6g}")
    if np.any(m < 0):
        bad = r[m < 0][0]
        raise CertificationError(f"'{nf.label}': negative value at r={bad:.6g}")
    if np.any(np.diff(m) < -1e-12 * np.maximum(m[:-1], 1.0)):
        i = int(np.argmax(np.diff(m) < -1e-12 * np.maximum(m[:-1], 1.0)))
        raise CertificationError(
            f"'{nf.label}': not non-decreasing between r={r[i]:.6g} and r={r[i+1]:.6g}")
    return r, m


def certify_growth(nf: NFunction, grid: GridSpec | None = None):
    """Estimate growth exponents from log-log chord slopes over all grid pairs.

    Returns (d_est, D_est, violations): d_est is the infimum and D_est the
    supremum of log(M(r2)/M(r1)) / log(r2/r1) over grid pairs r1 < r2.  A
    chord's slope is the log r-weighted mean of the adjacent slopes it
    spans, so those are the least and greatest slope between neighbouring
    nodes.  When declared exponents are present, each is tested against
    the extreme slope on its side, and one more than 1e-9 past it is
    reported in `violations` with that slope's pair of nodes.
    """
    grid = grid or GridSpec()
    r, m = _grid_values(nf, grid)
    if m[-1] <= m[0] * (1.0 + 1e-12):
        raise CertificationError(f"'{nf.label}': nonconstant growth required")
    pos = m > 0
    r, m = r[pos], m[pos]
    if r.size < 2:
        raise CertificationError(f"'{nf.label}': no positive values on grid interior")
    slopes = np.diff(np.log(m)) / np.diff(np.log(r))
    lo, hi = int(np.argmin(slopes)), int(np.argmax(slopes))

    violations: list[str] = []
    if nf.d_exp is not None and slopes[lo] < nf.d_exp - 1e-9:
        violations.append(
            f"d_exp={nf.d_exp}: slope {slopes[lo]:.12g} < d_exp at "
            f"pair (r1={r[lo]:.6g}, r2={r[lo + 1]:.6g})")
    if nf.D_exp is not None and slopes[hi] > nf.D_exp + 1e-9:
        violations.append(
            f"D_exp={nf.D_exp}: slope {slopes[hi]:.12g} > D_exp at "
            f"pair (r1={r[hi]:.6g}, r2={r[hi + 1]:.6g})")
    return float(slopes[lo]), float(slopes[hi]), violations


def certify_delta2(nf: NFunction, grid: GridSpec | None = None) -> float:
    """Supremum of M(2r)/M(r) over the grid; raises DivergenceError past
    1e12, and CertificationError, naming the ratio and its r, when it is
    more than 1e-9 above a declared delta2_const."""
    grid = grid or GridSpec()
    r, m = _grid_values(nf, grid)
    pos = m > 0
    r, m = r[pos], m[pos]
    if r.size == 0:
        raise CertificationError(f"'{nf.label}': no positive values on grid interior")
    with np.errstate(over="ignore"):
        m2 = np.asarray(nf.eval(2.0 * r), dtype=float)
    ratio = m2 / m
    top = int(np.argmax(ratio))
    c_est = float(ratio[top])
    if not math.isfinite(c_est) or c_est > 1e12:
        raise DivergenceError(
            f"'{nf.label}': doubling ratio {c_est:.3g} exceeds cap 1e+12 "
            f"at grid max r={r[-1]:.6g}")
    if nf.delta2_const is not None and c_est > nf.delta2_const + 1e-9:
        raise CertificationError(
            f"'{nf.label}': delta2_const={nf.delta2_const}: doubling ratio "
            f"{c_est:.12g} > delta2_const at r={r[top]:.6g}")
    return c_est


def certify(nf: NFunction, grid: GridSpec | None = None) -> NFunction:
    """Return a copy whose declared exponents and doubling constant the grid
    has confirmed.

    d_exp, D_exp and delta2_const must be declared; a grid slope past
    either exponent raises, and so does a doubling ratio that
    `certify_delta2` finds past its cap or above delta2_const.  Nothing is
    filled in from the grid.
    """
    if None in (nf.d_exp, nf.D_exp, nf.delta2_const):
        raise PreconditionError(
            f"'{nf.label}': certify needs declared d_exp, D_exp and delta2_const")
    grid = grid or GridSpec()
    _, _, violations = certify_growth(nf, grid)
    if violations:
        raise CertificationError(f"'{nf.label}': " + "; ".join(violations))
    certify_delta2(nf, grid)
    return replace(nf, grid_fingerprint=grid.fingerprint())


# ---------------------------------------------------------------------------
# Pointwise inequality checks
# ---------------------------------------------------------------------------

def _ratio_power(nf: NFunction, r, alpha: int):
    """M(r)/r^alpha with the continuous extension at r=0.

    alpha=1 extends by 0; alpha=2 extends by the small-r limit, which exists
    when d_exp >= 2 (evaluated at r=1e-8)."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    zero = r == 0.0
    if np.any(zero):
        out[zero] = 0.0 if alpha == 1 else float(nf.eval(1e-8)) / 1e-16
    nz = ~zero
    out[nz] = np.asarray(nf.eval(r[nz]), dtype=float) / r[nz] ** alpha
    return out if out.ndim else float(out)


def check_lemma_split(nf: NFunction, r: float, s: float, lam: float, alpha: int):
    """Check the split bound r^(-alpha) M(r) s^alpha <= c(alpha) M(r) + alpha*lam*M(s).

    c(1) = (1 - 1/D)(lam D)^(-1/(D-1)) and c(2) = (1 - 2/D)(lam D)^(-2/(D-2)).
    Requires lam >= 1/d_exp and alpha in {1, 2}.  Returns (lhs, rhs, holds).
    """
    d, D = nf.require_exponents()
    if alpha not in (1, 2):
        raise PreconditionError(f"alpha must be 1 or 2, got {alpha}")
    if d < 2.0 - 1e-12:
        raise PreconditionError(f"'{nf.label}': requires d_exp >= 2, got {d}")
    if alpha == 2 and D <= 2.0:
        raise PreconditionError(f"'{nf.label}': alpha=2 requires D_exp > 2, got {D}")
    if alpha == 1 and D <= 1.0:
        raise PreconditionError(f"'{nf.label}': alpha=1 requires D_exp > 1, got {D}")
    if lam < 1.0 / d - 1e-15:
        raise PreconditionError(f"lambda={lam} below 1/d_exp={1.0 / d}")
    lhs = float(_ratio_power(nf, r, alpha)) * s ** alpha
    coef = (1.0 - alpha / D) * (lam * D) ** (-alpha / (D - alpha))
    rhs = coef * float(nf.eval(r)) + alpha * lam * float(nf.eval(s))
    return lhs, rhs, lhs <= rhs + comparison_tol(rhs)


def check_lemma_young(nf: NFunction, a: float, b: float, eps: float):
    """Check M(a) b <= eps M(a) + eps^(-D_exp) M(a b) for eps in (0, 1]."""
    _, D = nf.require_exponents()
    if not (0.0 < eps <= 1.0):
        raise PreconditionError(f"eps must lie in (0, 1], got {eps}")
    ma = float(nf.eval(a))
    lhs = ma * b
    rhs = eps * ma + eps ** (-D) * float(nf.eval(a * b))
    return lhs, rhs, lhs <= rhs + comparison_tol(rhs)


# ---------------------------------------------------------------------------
# Standard families
# ---------------------------------------------------------------------------

def power_nfunction(p: float) -> NFunction:
    """M(r) = r^p with exact exponents d = D = p and doubling constant 2^p."""
    if p <= 1.0:
        raise PreconditionError(f"power N-function needs p > 1, got {p}")

    def m(r):
        return np.power(r, p)

    return NFunction(eval=m, d_exp=p, D_exp=p, delta2_const=2.0 ** p,
                     label=f"r^{p:g}", differentiable=True)


def power_log_nfunction(p: float = 2.0) -> NFunction:
    """M(r) = r^p log(1+r); d = p and D = p+1 (log(1+ar) <= a log(1+r), a >= 1)."""
    if p < 2.0:
        raise PreconditionError(f"power-log N-function needs p >= 2, got {p}")

    def m(r):
        return np.power(r, p) * np.log1p(r)

    return NFunction(eval=m, d_exp=p, D_exp=p + 1.0,
                     delta2_const=2.0 ** (p + 1.0),
                     label=f"r^{p:g}*log(1+r)", differentiable=True)
