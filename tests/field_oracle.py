"""The field kinds' derivatives, one formula per derivative and element.

`oracle(entry, n)` gives (u, grad, hess) of a `monomial_gauss`,
`gauss_poly_radial` or `cutoff` field entry, each callable recomputing
from X alone every quantity it needs: |x|^2, the Gaussian envelope, each
monomial and partial per (i, j), and, for a cutoff, all three window
derivatives and one inner evaluation per derivative.  `corpus` evaluates
the same formulas from intermediates shared within a call; its values must
equal these bit for bit.
"""

import numpy as np

from orlicz_hardy.quadrature import sum_sq


def _monomial(X, exps):
    out = np.ones(X.shape[:-1])
    for i, e in enumerate(exps):
        if e:
            out = out * X[..., i] ** e
    return out


def _monomial_partial(X, exps, i):
    if exps[i] == 0:
        return np.zeros(X.shape[:-1])
    lowered = exps.copy()
    lowered[i] -= 1
    return exps[i] * _monomial(X, lowered)


def monomial_gauss(exponents, rate, n):
    exps = np.zeros(n, dtype=int)
    exps[:len(exponents)] = [int(k) for k in exponents]
    a = float(rate)

    def u(X):
        X = np.asarray(X, dtype=float)
        s = sum_sq(X)
        return _monomial(X, exps) * np.exp(-0.5 * a * s)

    def grad(X):
        X = np.asarray(X, dtype=float)
        s = sum_sq(X)
        env = np.exp(-0.5 * a * s)
        m = _monomial(X, exps)
        out = np.empty(X.shape)
        for i in range(n):
            out[..., i] = (_monomial_partial(X, exps, i) - a * m * X[..., i]) * env
        return out

    def hess(X):
        X = np.asarray(X, dtype=float)
        s = sum_sq(X)
        env = np.exp(-0.5 * a * s)
        m = _monomial(X, exps)
        out = np.empty(X.shape + (n,))
        for i in range(n):
            di = _monomial_partial(X, exps, i)
            for j in range(i, n):
                dj = _monomial_partial(X, exps, j)
                if exps[j] == 0 or (i == j and exps[i] <= 1):
                    dij = np.zeros(X.shape[:-1])
                else:
                    lowered = exps.copy()
                    lowered[j] -= 1
                    dij = exps[j] * _monomial_partial(X, lowered, i)
                val = (dij - a * (X[..., i] * dj + X[..., j] * di)
                       - a * m * (1.0 if i == j else 0.0)
                       + a * a * m * X[..., i] * X[..., j]) * env
                out[..., i, j] = val
                out[..., j, i] = val
        return out

    return u, grad, hess


def gauss_poly_radial(even_coefficients, rate, n):
    coefs = np.asarray(even_coefficients, dtype=float)
    a = float(rate)
    dcoefs = coefs[1:] * np.arange(1, coefs.size)
    polyval = np.polynomial.polynomial.polyval

    def parts(X):
        X = np.asarray(X, dtype=float)
        s = sum_sq(X)
        env = np.exp(-0.5 * a * s)
        p = polyval(s, coefs)
        dp = polyval(s, dcoefs) if dcoefs.size else np.zeros_like(s)
        return s, env, p, dp

    def u(X):
        _, env, p, _ = parts(X)
        return p * env

    def grad(X):
        X = np.asarray(X, dtype=float)
        _, env, p, dp = parts(X)
        q = 2.0 * dp - a * p
        return (q * env)[..., None] * X

    def hess(X):
        X = np.asarray(X, dtype=float)
        s, env, p, dp = parts(X)
        ddp = (polyval(s, dcoefs[1:] * np.arange(1, dcoefs.size))
               if dcoefs.size > 1 else np.zeros_like(s))
        q = 2.0 * dp - a * p
        dq = 2.0 * ddp - a * dp
        r_term = 2.0 * dq - a * q
        eye = np.eye(n)
        return env[..., None, None] * (
            r_term[..., None, None] * X[..., :, None] * X[..., None, :]
            + q[..., None, None] * eye)

    return u, grad, hess


def cutoff(inner, r1, r2, n):
    inner_u, inner_grad, inner_hess = inner
    width = r2 - r1

    def window(r):
        t = np.clip((r - r1) / width, 0.0, 1.0)
        step = np.array(t)
        inside = (step > 0.0) & (step < 1.0)
        ti = step[inside]
        step[inside] = 10.0 * ti ** 3 - 15.0 * ti ** 4 + 6.0 * ti ** 5
        chi = 1.0 - step
        dchi = -30.0 * t * t * (1.0 - t) ** 2 / width
        ddchi = -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / width ** 2
        return chi, dchi, ddchi

    def u(X):
        X = np.asarray(X, dtype=float)
        r = np.sqrt(sum_sq(X))
        chi, _, _ = window(r)
        return inner_u(X) * chi

    def grad(X):
        X = np.asarray(X, dtype=float)
        r = np.sqrt(sum_sq(X))
        chi, dchi, _ = window(r)
        gv = np.asarray(inner_grad(X), dtype=float)
        safe_r = np.where(r > 0.0, r, 1.0)
        xhat = X / safe_r[..., None]
        return chi[..., None] * gv + (inner_u(X) * dchi)[..., None] * xhat

    def hess(X):
        X = np.asarray(X, dtype=float)
        r = np.sqrt(sum_sq(X))
        chi, dchi, ddchi = window(r)
        v = np.asarray(inner_u(X), dtype=float)
        gv = np.asarray(inner_grad(X), dtype=float)
        hv = np.asarray(inner_hess(X), dtype=float)
        safe_r = np.where(r > 0.0, r, 1.0)
        xhat = X / safe_r[..., None]
        outer = xhat[..., :, None] * xhat[..., None, :]
        eye = np.eye(n)
        sym = xhat[..., :, None] * gv[..., None, :] + gv[..., :, None] * xhat[..., None, :]
        return (chi[..., None, None] * hv
                + dchi[..., None, None] * sym
                + (v * ddchi)[..., None, None] * outer
                + (v * dchi / safe_r)[..., None, None] * (eye - outer))

    return u, grad, hess


def oracle(entry: dict, n: int):
    """(u, grad, hess) of the field entry at dimension n."""
    kind, params = entry["kind"], entry["params"]
    if kind == "monomial_gauss":
        return monomial_gauss(params["exponents"], params["rate"], n)
    if kind == "gauss_poly_radial":
        return gauss_poly_radial(params["even_coefficients"], params["rate"], n)
    if kind == "cutoff":
        return cutoff(oracle(params["inner"], n), float(params["r1"]), float(params["r2"]), n)
    raise KeyError(kind)
