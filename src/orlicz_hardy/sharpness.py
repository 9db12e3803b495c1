"""Sharpness analysis of the linear Hardy constants via the extremal family.

The family u_alpha(r) = exp(alpha r^2 / (2p)) has closed-form modulars for
M(r) = r^p:

    K = (1-alpha)^(-(n+p)/2) 2^((n+p-2)/2) Gamma((n+p)/2)
    L = (1-alpha)^(-n/2)     2^((n-2)/2)   Gamma(n/2)
    G = (alpha/p)^p K

Driving alpha -> 1 shows the linear inequality K <= C1 L + C2 G cannot hold
with C2 <= p^p, and alpha = 0 gives the lower bound
C1 >= 2^(p/2) Gamma((n+p)/2) / Gamma(n/2), which approaches (n+p-2)^(p/2)
as n grows (Stirling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, PreconditionError
from .functionals import ModularTriple, RadialTestFunction
from .quadrature import IntegralResult, SupportHint

__all__ = [
    "ExtremalParams",
    "extremal_function",
    "extremal_moments",
    "c1_lower_bound",
    "c2_infeasibility_scan",
    "stirling_ratio",
]


@dataclass(frozen=True)
class ExtremalParams:
    """Rate parameter alpha in [0,1), power p >= 2, dimension n >= 1."""

    alpha: float
    p: float
    n: int

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise PreconditionError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not (2.0 <= self.p < math.inf):
            raise PreconditionError(f"p must be finite and >= 2, got {self.p}")
        if self.n < 1:
            raise PreconditionError(f"n must be >= 1, got {self.n}")


def extremal_function(params: ExtremalParams) -> RadialTestFunction:
    """u_alpha(r) = exp(alpha r^2 / (2p)) with u' = (alpha r / p) u."""
    a, p = params.alpha, params.p
    coef = a / p

    def u(r):
        r = np.asarray(r, dtype=float)
        return np.exp(0.5 * coef * r * r)

    def du(r):
        r = np.asarray(r, dtype=float)
        return coef * r * np.exp(0.5 * coef * r * r)

    return RadialTestFunction(
        u=u, du=du, breakpoints=(),
        hint=SupportHint.decaying(0.0, -coef),
        label=f"u_alpha[a={a:g},p={p:g}]")


def extremal_moments(params: ExtremalParams) -> ModularTriple:
    """Closed-form (K, L, G) of u_alpha for M(r) = r^p, each exact: an
    `IntegralResult` with err_est 0."""
    a, p, n = params.alpha, params.p, params.n
    try:
        k = math.exp(-(n + p) / 2.0 * math.log1p(-a)
                     + (n + p - 2.0) / 2.0 * math.log(2.0) + math.lgamma((n + p) / 2.0))
        ell = math.exp(-n / 2.0 * math.log1p(-a)
                       + (n - 2.0) / 2.0 * math.log(2.0) + math.lgamma(n / 2.0))
    except OverflowError:
        raise EvaluationError(
            f"the closed-form moments of u_alpha overflow at alpha={a:g}, p={p:g}, n={n}")
    g = (a / p) ** p * k
    return ModularTriple(*(IntegralResult(value, 0.0) for value in (k, ell, g)))


def c1_lower_bound(p: float, n: int) -> float:
    """2^(p/2) Gamma((n+p)/2) / Gamma(n/2), the alpha=0 ratio K/L."""
    if p < 2.0 or n < 1:
        raise PreconditionError(f"requires p >= 2 and n >= 1, got p={p}, n={n}")
    return math.exp(0.5 * p * math.log(2.0) + math.lgamma((n + p) / 2.0)
                    - math.lgamma(n / 2.0))


def c2_infeasibility_scan(p: float, n: int, alphas) -> np.ndarray:
    """Required C1 values when C2 is pinned at p^p:

        C1_req(alpha) = c1_lower_bound(p, n) * (1 - alpha^p) / (1 - alpha)^(p/2).

    The series diverges as alpha -> 1, so no finite C1 can rescue C2 <= p^p.
    """
    if p <= 2.0:
        raise PreconditionError(f"scan requires p > 2, got {p}")
    alphas = np.asarray(alphas, dtype=float)
    if np.any((alphas < 0.0) | (alphas >= 1.0)):
        raise PreconditionError("alphas must lie in [0, 1)")
    base = c1_lower_bound(p, n)
    return base * (1.0 - alphas ** p) / (1.0 - alphas) ** (p / 2.0)


def stirling_ratio(p: float, n: int) -> float:
    """2^(p/2) Gamma((n+p)/2) / ((n+p-2)^(p/2) Gamma(n/2)); tends to 1 as n grows."""
    if p <= 2.0 or n < 1:
        raise PreconditionError(f"requires p > 2 and n >= 1, got p={p}, n={n}")
    return math.exp(0.5 * p * math.log(2.0) + math.lgamma((n + p) / 2.0)
                    - 0.5 * p * math.log(n + p - 2.0) - math.lgamma(n / 2.0))
