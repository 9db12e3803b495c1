"""Declarative corpus of N-functions and test functions.

Manifests are JSON with a required schema version.  Every member is built
from a (kind, params) declaration, re-validated at load (growth and doubling
certification for N-functions, derivative and continuity checks for test
functions), and addressed by label plus a content fingerprint.  Field
functions are dimension-generic factories instantiated per n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
# numpy imports it on first use; load it with the package, not inside a
# battery pass
import numpy.polynomial  # noqa: F401

from .errors import ManifestError, PreconditionError
from .functionals import (
    FieldFunction,
    RadialTestFunction,
    truncate,
    validate_field,
    validate_radial,
)
from .nfunc import (
    GridSpec,
    NFunction,
    certify,
    power_log_nfunction,
    power_nfunction,
)
from .quadrature import SupportHint, sum_sq
from .reporting import body_digest as fingerprint
from .sharpness import ExtremalParams, extremal_function

__all__ = [
    "CorpusManifest",
    "FieldFactory",
    "load_manifest",
    "default_manifest_path",
    "build_nfunction",
    "build_radial_function",
    "build_field_function",
    "fingerprint",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_nfunction(entry: dict) -> NFunction:
    kind = entry.get("kind")
    params = entry.get("params", {})
    label = entry.get("label", kind)
    if kind == "power":
        nf = power_nfunction(float(params["p"]))
    elif kind == "power_log":
        nf = power_log_nfunction(float(params.get("p", 2.0)))
    else:
        raise ManifestError(f"unknown N-function kind {kind!r} for '{label}'")
    nf.label = label
    return nf


def _positive_roots(*polynomials) -> tuple:
    """The positive real roots, ascending and distinct, of polynomials given
    by ascending coefficients: where they may change sign on r > 0."""
    roots = set()
    for coefs in polynomials:
        coefs = np.polynomial.polynomial.polytrim(coefs)
        if coefs.size > 1:
            roots.update(float(z.real) for z in np.polynomial.polynomial.polyroots(coefs)
                         if z.real > 0.0 and abs(z.imag) <= 1e-9 * abs(z))
    return tuple(sorted(roots))


def _whole(value, what: str, label: str) -> int:
    """A declared integer parameter: a non-negative whole number, such as
    2 or 2.0, as an int."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer() or value < 0):
        raise ManifestError(
            f"'{label}' needs a non-negative integer {what}, got {value!r}")
    return int(value)


def _bump_function(center: float, width: float, degree,
                   label: str) -> RadialTestFunction:
    """u(r) = (1 - ((r-c)/w)^2)_+^degree, compactly supported on [c-w, c+w];
    u' changes sign at the centre c."""
    k = _whole(degree, "degree", label)
    if k < 2:
        raise ManifestError(f"bump '{label}' needs degree >= 2 for C1")
    if center < width:
        raise ManifestError(f"bump '{label}' must satisfy center >= width")
    c, w = float(center), float(width)

    def u(r):
        r = np.asarray(r, dtype=float)
        t = (r - c) / w
        core = np.clip(1.0 - t * t, 0.0, None)
        return core ** k

    def du(r):
        r = np.asarray(r, dtype=float)
        t = (r - c) / w
        core = np.clip(1.0 - t * t, 0.0, None)
        return -2.0 * k * t / w * core ** (k - 1)

    return RadialTestFunction(
        u=u, du=du, breakpoints=(c - w, c, c + w),
        hint=SupportHint.compact(c + w), label=label)


def _poly_gauss_function(coefficients, rate: float,
                         label: str) -> RadialTestFunction:
    """u(r) = P(r) exp(-rate r^2 / 2) with P given by ascending coefficients.
    u changes sign at the positive roots of P, and u' = (P' - rate r P)
    exp(-rate r^2 / 2) at those of P' - rate r P: the breakpoints."""
    coefs = np.asarray(coefficients, dtype=float)
    a = float(rate)
    dcoefs = coefs[1:] * np.arange(1, coefs.size)
    poly = np.polynomial.polynomial
    slope = poly.polysub(poly.polyder(coefs), a * poly.polymulx(coefs))

    def u(r):
        r = np.asarray(r, dtype=float)
        return np.polynomial.polynomial.polyval(r, coefs) * np.exp(-0.5 * a * r * r)

    def du(r):
        r = np.asarray(r, dtype=float)
        p = np.polynomial.polynomial.polyval(r, coefs)
        dp = np.polynomial.polynomial.polyval(r, dcoefs) if dcoefs.size else 0.0
        return (dp - a * r * p) * np.exp(-0.5 * a * r * r)

    return RadialTestFunction(
        u=u, du=du, breakpoints=_positive_roots(coefs, slope),
        hint=SupportHint.decaying(float(coefs.size - 1), a), label=label)


def build_radial_function(entry: dict) -> RadialTestFunction:
    kind = entry.get("kind")
    params = entry.get("params", {})
    label = entry.get("label", kind)
    if kind == "gaussian_power":
        fn = extremal_function(
            ExtremalParams(float(params["alpha"]), float(params["p"]),
                           int(params.get("n", 1))))
        fn.label = label
        return fn
    if kind == "bump":
        return _bump_function(params["center"], params["width"],
                              params.get("degree", 2), label)
    if kind == "poly_gauss":
        return _poly_gauss_function(params["coefficients"], params["rate"], label)
    if kind == "truncated":
        inner = build_radial_function({**params["inner"],
                                       "label": label + "|inner"})
        out = truncate(inner, float(params["N"]))
        out.label = label
        return out
    raise ManifestError(f"unknown radial kind {kind!r} for '{label}'")


# -- field kinds -------------------------------------------------------------
#
# Each field kind is a jet: jet(X, s, orders) maps points X (..., n), their
# |x|^2 s, and the derivative orders a caller reads (0 for u, 1 for grad u,
# 2 for hess u) to {order: value}, computing what the orders share -- the
# envelope, each monomial, partial and window derivative -- once per call.

def _monomial_gauss_jet(exponents, rate: float, n: int, label: str):
    """u(x) = x^k exp(-rate |x|^2 / 2), k a multi-index of non-negative
    integers.  Its partial derivative along x_i
    changes sign at |x_i| = sqrt(k_i / rate): the breakpoints.  u, its
    gradient and its Hessian change at most their sign under x -> -x, so
    the field is even."""
    exps = np.zeros(n, dtype=int)
    given = np.array([_whole(k, "exponent", label) for k in exponents], dtype=int)
    if given.size > n:
        raise ManifestError(
            f"field '{label}' needs dimension >= {given.size}, got n={n}")
    exps[:given.size] = given
    a = float(rate)
    deg = int(exps.sum())
    # the exponents of each first partial, k - e_i, and of each second
    # partial on or above the diagonal, k - e_j - e_i, where it is not 0
    first, second = {}, {}
    for i in range(n):
        if exps[i]:
            first[i] = exps.copy()
            first[i][i] -= 1
    for i in range(n):
        for j in range(i, n):
            if j in first and first[j][i]:
                second[i, j] = first[j].copy()
                second[i, j][i] -= 1

    def jet(X, s, orders):
        top = max(orders)
        env = np.exp(-0.5 * a * s)
        xs = [X[..., i] for i in range(n)]
        power = {}  # (i, e) -> x_i ** e

        def monomial(es):
            """prod_i x_i ** es[i] in order of i, or the float 1.0 if es is 0."""
            out = None
            for i, e in enumerate(es):
                if e:
                    if (i, e) not in power:
                        power[i, e] = xs[i] ** e
                    out = power[i, e] if out is None else out * power[i, e]
            return 1.0 if out is None else out

        m = monomial(exps)
        got = {0: m * env} if 0 in orders else {}
        if top == 0:
            return got
        am = a * m
        # d[i] = the partial of x^k along x_i, a float where it is constant
        d = [exps[i] * monomial(first[i]) if i in first else 0.0 for i in range(n)]
        if 1 in orders:
            g = np.empty(X.shape)
            for i in range(n):
                g[..., i] = (d[i] - am * xs[i]) * env
            got[1] = g
        if top == 1:
            return got
        aam = a * a * m
        off = am * 0.0  # the a m delta_ij term off the diagonal
        h = np.empty(X.shape + (n,))
        for i in range(n):
            aam_i = aam * xs[i]
            for j in range(i, n):
                dij = (exps[j] * (first[j][i] * monomial(second[i, j]))
                       if (i, j) in second else 0.0)
                val = (dij - a * (xs[i] * d[j] + xs[j] * d[i])
                       - (am if i == j else off) + aam_i * xs[j]) * env
                h[..., i, j] = val
                h[..., j, i] = val
        got[2] = h
        return got

    hint = (SupportHint.decaying(float(deg), a) if a > 0.0
            else SupportHint.decaying(float(deg), 0.0))
    bps = (tuple(sorted({math.sqrt(k / a) for k in exps.tolist() if k > 0}))
           if a > 0.0 else ())
    return jet, dict(hint=hint, breakpoints=bps, symmetry="even")


def _gauss_poly_radial_jet(even_coefficients, rate: float, n: int):
    """Radial field u(x) = P(|x|^2) exp(-rate |x|^2 / 2), P by ascending coefs.
    With s = |x|^2, u changes sign where P(s) does and its radial derivative
    where 2 P'(s) - rate P(s) does: the breakpoints are the square roots of
    their positive roots.  It is radial."""
    coefs = np.asarray(even_coefficients, dtype=float)
    a = float(rate)
    dcoefs = coefs[1:] * np.arange(1, coefs.size)
    ddcoefs = dcoefs[1:] * np.arange(1, dcoefs.size)
    polyval = np.polynomial.polynomial.polyval
    slope = np.polynomial.polynomial.polysub(
        2.0 * np.polynomial.polynomial.polyder(coefs), a * coefs)
    bps = tuple(math.sqrt(s) for s in _positive_roots(coefs, slope))

    def jet(X, s, orders):
        env = np.exp(-0.5 * a * s)
        p = polyval(s, coefs)
        got = {0: p * env} if 0 in orders else {}
        if max(orders) == 0:
            return got
        dp = polyval(s, dcoefs) if dcoefs.size else np.zeros_like(s)
        q = 2.0 * dp - a * p
        if 1 in orders:
            got[1] = (q * env)[..., None] * X
        if 2 in orders:
            ddp = polyval(s, ddcoefs) if ddcoefs.size else np.zeros_like(s)
            dq = 2.0 * ddp - a * dp
            r_term = 2.0 * dq - a * q
            # env (r_term x_i x_j + q delta_ij), entry by entry
            xs = [X[..., i] for i in range(n)]
            rx = [r_term * x for x in xs]
            q_off = q * 0.0
            h = np.empty(X.shape + (n,))
            for i in range(n):
                for j in range(n):
                    h[..., i, j] = env * (rx[i] * xs[j] + (q if i == j else q_off))
            got[2] = h
        return got

    return jet, dict(hint=SupportHint.decaying(2.0 * (coefs.size - 1.0), a),
                     breakpoints=bps, symmetry="radial")


def _window(r: np.ndarray, r1: float, width: float, top: int) -> list:
    """[chi, chi', chi''][:top + 1] at radii r of the C2 window that is 1 on
    [0, r1] and 0 beyond r1 + width: 1 minus the smoothstep
    10 t^3 - 15 t^4 + 6 t^5 of t = (r - r1) / width clipped to [0, 1]."""
    t = np.clip((r - r1) / width, 0.0, 1.0)
    # the smoothstep is t itself at t = 0 and 1
    step = np.array(t)
    inside = (step > 0.0) & (step < 1.0)
    ti = step[inside]
    step[inside] = 10.0 * ti ** 3 - 15.0 * ti ** 4 + 6.0 * ti ** 5
    out = [1.0 - step]
    if top >= 1:
        rest = 1.0 - t
        out.append(-30.0 * t * t * rest ** 2 / width)
        if top >= 2:
            out.append(-60.0 * t * rest * (1.0 - 2.0 * t) / width ** 2)
    return out


def _cutoff_jet(inner, r1: float, r2: float, n: int, label: str):
    """Multiply a field, given as (jet, declared), by a C2 radial cutoff: 1
    on [0, r1], 0 beyond r2.  Each call evaluates the inner field once and
    only the window derivatives its orders read.  The breakpoints are the
    inner field's below r2, and r1 and r2; the window is radial, so the
    product keeps the inner field's symmetry."""
    if not (0.0 < r1 < r2):
        raise ManifestError(f"cutoff '{label}' needs 0 < r1 < r2")
    inner_jet, declared = inner
    width = r2 - r1

    def jet(X, s, orders):
        top = max(orders)
        r = np.sqrt(s)
        w = _window(r, r1, width, top)
        inner_got = inner_jet(X, s, range(top + 1))
        v = inner_got[0]
        got = {0: v * w[0]} if 0 in orders else {}
        if top == 0:
            return got
        gv = inner_got[1]
        safe_r = np.where(r > 0.0, r, 1.0)
        xhat = [X[..., i] / safe_r for i in range(n)]  # x / |x|
        gs = [gv[..., i] for i in range(n)]
        v_dchi = v * w[1]
        if 1 in orders:
            g = np.empty(X.shape)
            for i in range(n):
                g[..., i] = w[0] * gs[i] + v_dchi * xhat[i]
            got[1] = g
        if 2 in orders:
            # chi H + chi' (xhat g^T + g xhat^T) + v chi'' xhat xhat^T
            # + (v chi' / r) (I - xhat xhat^T), entry by entry
            hv = inner_got[2]
            v_ddchi = v * w[2]
            v_dchi_r = v_dchi / safe_r
            h = np.empty(X.shape + (n,))
            for i in range(n):
                for j in range(n):
                    outer = xhat[i] * xhat[j]
                    h[..., i, j] = (w[0] * hv[..., i, j] + w[1] * (xhat[i] * gs[j] + gs[i] * xhat[j])
                                    + v_ddchi * outer
                                    + v_dchi_r * ((1.0 if i == j else 0.0) - outer))
            got[2] = h
        return got

    bps = tuple(sorted({b for b in declared["breakpoints"] if b < r2} | {r1, r2}))
    return jet, dict(hint=SupportHint.compact(r2), breakpoints=bps,
                     symmetry=declared["symmetry"])


def _field_jet(entry: dict, n: int):
    """(jet, declared) of a field entry at dimension n: declared holds the
    FieldFunction's hint, breakpoints and symmetry."""
    kind = entry.get("kind")
    params = entry.get("params", {})
    label = entry.get("label", kind)
    if kind == "monomial_gauss":
        return _monomial_gauss_jet(params["exponents"], params["rate"], n, label)
    if kind == "gauss_poly_radial":
        return _gauss_poly_radial_jet(params["even_coefficients"], params["rate"], n)
    if kind == "cutoff":
        inner = _field_jet({**params["inner"], "label": label + "|inner"}, n)
        return _cutoff_jet(inner, float(params["r1"]), float(params["r2"]), n, label)
    raise ManifestError(f"unknown field kind {kind!r} for '{label}'")


def build_field_function(entry: dict, n: int) -> FieldFunction:
    """The field of an entry at dimension n, whose u, grad and hess each
    read one order of the kind's jet."""
    jet, declared = _field_jet(entry, n)

    def derivative(order):
        def value(X):
            X = np.asarray(X, dtype=float)
            return jet(X, sum_sq(X), (order,))[order]
        return value

    return FieldFunction(u=derivative(0), grad=derivative(1), hess=derivative(2), n=n,
                         label=entry.get("label", entry.get("kind")), **declared)


@dataclass
class FieldFactory:
    """Dimension-generic field declaration, instantiated and cached per n."""

    entry: dict
    label: str
    min_n: int = 1
    _cache: dict = field(default_factory=dict, repr=False)

    def compatible(self, n: int) -> bool:
        return n >= self.min_n

    def instantiate(self, n: int) -> FieldFunction:
        if not self.compatible(n):
            raise PreconditionError(
                f"field '{self.label}' needs dimension >= {self.min_n}, got {n}")
        if n not in self._cache:
            self._cache[n] = build_field_function(self.entry, n)
        return self._cache[n]


def _field_min_n(entry: dict) -> int:
    kind = entry.get("kind")
    params = entry.get("params", {})
    if kind == "monomial_gauss":
        return max(1, len(params.get("exponents", [])))
    if kind == "cutoff":
        return _field_min_n(params["inner"])
    return 1


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

@dataclass
class CorpusManifest:
    nfunctions: dict
    radial_functions: dict
    field_functions: dict
    fingerprint: str
    member_fingerprints: dict

    def nfunc(self, label: str) -> NFunction:
        try:
            return self.nfunctions[label]
        except KeyError:
            raise ManifestError(f"no N-function '{label}' in manifest "
                                f"(have {sorted(self.nfunctions)})") from None


def default_manifest_path() -> Path:
    return Path(str(resources.files("orlicz_hardy").joinpath(
        "data/default_manifest.json")))


def load_manifest(path=None) -> CorpusManifest:
    """Load, build, and validate a corpus manifest.

    Declared exponents are re-certified on the grid; test functions pass
    derivative and continuity validation, and fields their declared
    symmetry.  Any violation, or a label two top-level members share,
    rejects the manifest with a named reason.
    """
    path = Path(path) if path is not None else default_manifest_path()
    grid = GridSpec()
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: parse error at line {exc.lineno}: {exc.msg}")
    except (OSError, ValueError) as exc:
        raise ManifestError(f"{path}: cannot read the manifest: {exc}")
    schema = raw.get("schema") if isinstance(raw, dict) else None
    if schema != SCHEMA_VERSION:
        raise ManifestError(
            f"{path}: manifest schema must be {SCHEMA_VERSION}, got {schema!r}")

    member_fps = {}
    problems = []

    def members(section: str):
        """(label, entry) of each top-level entry of the section, skipping,
        as a problem, a section that is not a list, an entry that is not an
        object, and one whose label an earlier member carries."""
        entries = raw.get(section, [])
        if not isinstance(entries, list):
            problems.append(f"section '{section}' must be a list of objects, "
                            f"got {type(entries).__name__}")
            return
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                problems.append(f"section '{section}' entry {i} must be an object, got {entry!r}")
                continue
            label = entry.get("label", "?")
            if label in member_fps:
                problems.append(f"two members are labelled '{label}'")
                continue
            member_fps[label] = fingerprint(entry)
            yield label, entry

    nfunctions = {}
    for label, entry in members("nfunctions"):
        try:
            nf = certify(build_nfunction(entry), grid)
            _check_nfunction_shape(nf, grid, problems)
            nfunctions[label] = nf
        except Exception as exc:
            problems.append(f"nfunction '{label}': {exc}")

    radial = {}
    for label, entry in members("radial_functions"):
        try:
            fn = build_radial_function(entry)
            radial_problems = validate_radial(fn)
            if radial_problems:
                problems.extend(radial_problems)
            else:
                radial[label] = fn
        except Exception as exc:
            problems.append(f"radial '{label}': {exc}")

    fields = {}
    for label, entry in members("field_functions"):
        try:
            factory = FieldFactory(entry=entry, label=label,
                                   min_n=_field_min_n(entry))
            probe_n = max(2, factory.min_n)
            field_problems = validate_field(factory.instantiate(probe_n))
            if field_problems:
                problems.extend(field_problems)
            else:
                fields[label] = factory
        except Exception as exc:
            problems.append(f"field '{label}': {exc}")

    if problems:
        raise ManifestError(f"{path}: " + "; ".join(problems))
    return CorpusManifest(
        nfunctions=nfunctions, radial_functions=radial, field_functions=fields,
        fingerprint=fingerprint(raw), member_fingerprints=member_fps)


def _check_nfunction_shape(nf: NFunction, grid: GridSpec, problems: list):
    """N-function shape checks: M(0) = 0, M(r)/r -> 0 at 0, midpoint convexity
    on [1e-3, 100] and on the certification grid, and a certified lower
    index d >= 1, which every convex M with M(0) = 0 has."""
    if abs(float(nf.eval(0.0))) > 1e-12:
        problems.append(f"'{nf.label}': M(0) = {float(nf.eval(0.0)):.3g} != 0")
    small = float(nf.eval(1e-8)) / 1e-8
    if small > 1e-3:
        problems.append(f"'{nf.label}': M(r)/r does not vanish at 0 ({small:.3g})")
    # np.union1d, without the numpy.ma it imports: sorted, duplicates dropped
    r = np.sort(np.concatenate([np.logspace(-3, 2, 120), grid.nodes()]))
    r = r[np.concatenate(([True], r[1:] != r[:-1]))]
    x, y = r[:-1], r[1:]
    mid = np.asarray(nf.eval(0.5 * (x + y)), dtype=float)
    avg = 0.5 * (np.asarray(nf.eval(x), dtype=float)
                 + np.asarray(nf.eval(y), dtype=float))
    bad = mid > avg + 1e-9 * np.maximum(avg, 1.0)
    if np.any(bad):
        problems.append(f"'{nf.label}': midpoint convexity fails near "
                        f"r={x[bad][0]:.4g}")
    if nf.d_exp < 1.0:
        problems.append(f"'{nf.label}': certified lower index d = {nf.d_exp:.4g} "
                        "< 1, which no convex M with M(0) = 0 has")
