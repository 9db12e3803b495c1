"""Command-line entry point.

The subcommands are the rows of `BATTERIES`: certify, hardy, sharpness,
mazya, lk, and all, which runs every other row once with fixed arguments.
Every run writes a JSON report whose body is canonical (byte-identical
across repeated runs with the same flags and manifest).  Exit status
is nonzero iff any non-trivial check fails.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import corpus as corpus_mod
from . import hardy as hardy_mod
from . import landau_kolmogorov as lk_mod
from . import mazya as mazya_mod
from . import sharpness as sharp_mod
from .errors import ManifestError, OrliczHardyError, PreconditionError
from .functionals import modular_triple_nd, modular_triple_radial
from .quadrature import (
    SPHERE_NODES,
    SPHERE_SEED,
    GaussianMeasure,
    QuadratureSpec,
    RadialMeasure,
)
from .reporting import (
    TOOL_VERSION,
    Check,
    summarize_verdicts,
    write_report,
)

DEFAULT_ALPHAS = (0.0, 0.5, 0.9, 0.99, 0.999)


def _parse_dims(text: str) -> list[int]:
    """'2' | '1,2,3' | '1..3' -> list of dimensions, repeats dropped in
    order; an empty or descending range, or a dimension below 1, is an
    argument error."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        dims = list(range(int(lo), int(hi) + 1))
    else:
        dims = list(dict.fromkeys(int(t) for t in text.split(",") if t))
    if not dims or min(dims) < 1:
        raise argparse.ArgumentTypeError(
            f"need dimensions >= 1 in a non-empty list or an ascending range, got {text!r}")
    return dims


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t)


# ---------------------------------------------------------------------------
# Batteries
# ---------------------------------------------------------------------------

def run_certify(manifest, checks: list):
    for label, nf in manifest.nfunctions.items():
        checks.append(Check(
            "certify", "holds", check_id=f"certify:{label}", nfunc_label=label,
            constants_used={"d_exp": nf.d_exp, "D_exp": nf.D_exp,
                            "delta2_const": nf.delta2_const},
            details={"grid_fingerprint": nf.grid_fingerprint}))


def run_hardy(manifest, spec, dims, checks: list, nfunc_label=None, form=None,
              normalized=False):
    """The rows of `hardy.FORMS` over the corpus: the row whose selectors
    hold `form`, or without one every row on its default subjects.

    Each radial member is one modular family across every dimension: it
    spans each (N-function, n) pair that some radial row admits, and only
    those, so its integrands are evaluated once a sweep for all of them and
    weighted once per dimension.  At each dimension each field is one
    modular family spanning each N-function that some row on R^n admits.
    A run in which no row admits any (N-function, dimension) is a
    PreconditionError."""
    if nfunc_label == "":
        raise PreconditionError("--nfunc names no N-function")
    nfuncs = dict(sorted(({nfunc_label: manifest.nfunc(nfunc_label)} if nfunc_label
                          else manifest.nfunctions).items()))
    rows = [row for row in hardy_mod.FORMS
            if (form in row.selectors if form else row.default != ())]
    admitted = {(nf_label, n): [row for row in rows if row.admits(*nf.require_exponents(), n)]
                for n in dims for nf_label, nf in nfuncs.items()}
    if not any(admitted.values()):
        raise PreconditionError(
            "no (N-function, dimension) of this run meets the hypothesis of "
            + "; ".join(f"form {row.name} (--form {'|'.join(row.selectors)}): "
                        f"{row.hypothesis}" for row in rows))

    def under(nd: bool, pairs):
        """The pairs at which some row of the side admits the N-function."""
        return [pair for pair in pairs if any(row.nd == nd for row in admitted[pair])]

    # each side: label -> (subject, {(N-function label, n): triple})
    pairs = under(False, admitted)
    nfs, ns = [nfuncs[nf_label] for nf_label, _ in pairs], [n for _, n in pairs]
    radial = {label: (u, dict(zip(pairs, modular_triple_radial(u, nfs, ns, spec))))
              for label, u in sorted(manifest.radial_functions.items()) if pairs}
    for n in dims:
        pairs = under(True, [(nf_label, n) for nf_label in nfuncs])
        nfs = [nfuncs[nf_label] for nf_label, _ in pairs]
        fields = {}
        for label, factory in sorted(manifest.field_functions.items()):
            if pairs and factory.compatible(n):
                u = factory.instantiate(n)
                fields[label] = u, dict(zip(pairs, modular_triple_nd(
                    u, nfs, spec, normalized=normalized)))
        for nf_label, nf in nfuncs.items():
            for row in admitted[nf_label, n]:
                measure = GaussianMeasure(n, normalized) if row.nd else RadialMeasure(n)
                # the admissible corpus: subjects whose modulars are finite for nf
                for u_label, (u, by_pair) in (fields if row.nd else radial).items():
                    triple = by_pair[nf_label, n]
                    if triple.valid and (form or row.default is None or u_label in row.default):
                        checks.append(row.check(
                            u, triple, nf, measure, spec,
                            check_id=f"{row.name}:{nf_label}:{u_label}:n={n}",
                            nfunc_label=nf_label, subject_label=u_label))


def _error_ratio(value: float, exact: float, err_est: float) -> float:
    """|value - exact| / err_est, 0 for an exact value and inf for an inexact
    one with no error estimate."""
    miss = abs(value - exact)
    return miss / err_est if err_est > 0.0 else (0.0 if miss == 0.0 else math.inf)


def run_sharpness(p: float, n: int, alphas, spec, checks: list, series: dict):
    """The extremal family's checks: the closed form at each alpha <= 0.9,
    and for p > 2 the divergence scan over two or more positive alphas.  A
    run that would add no check, so that nothing checks p and n, is a
    PreconditionError."""
    if not alphas:
        raise PreconditionError("--alphas names no alpha")
    rows = []
    for alpha in alphas:
        params = sharp_mod.ExtremalParams(alpha, p, n)
        cf = sharp_mod.extremal_moments(params)
        exact = {"K": cf.K.value, "L": cf.L.value, "G": cf.G.value}
        c1_req = float(sharp_mod.c2_infeasibility_scan(p, n, [alpha])[0]) \
            if p > 2.0 else float("nan")
        rows.append({"alpha": alpha, **exact, "C1_req": c1_req})
        if alpha <= 0.9:
            u = sharp_mod.extremal_function(params)
            nf = corpus_mod.build_nfunction(
                {"label": f"r^{p:g}", "kind": "power", "params": {"p": p}})
            tri = modular_triple_radial(u, nf, n, spec)
            # the quadrature is honest iff each of K, L, G lies within its
            # err_est of the closed form: the worst |q - exact| / err_est <= 1
            worst = max(_error_ratio(q.value, e.value, q.err_est) for q, e in zip(tri, cf))
            checks.append(Check.compare(
                "alfa_closed_form", worst, 1.0, 0.0, 0.0,
                check_id=f"alfa_closed_form:r^{p:g}:alpha={alpha:g}:n={n}",
                constants_used=exact,
                nfunc_label=f"r^{p:g}", subject_label=f"alpha={alpha:g}", n=n,
            ).require_converged(tri.converged, "a quadrature of the triple did not converge"))
    scan_alphas = [a for a in alphas if a > 0.0]
    if min(alphas) > 0.9 and not (p > 2.0 and len(scan_alphas) >= 2):
        raise PreconditionError(
            f"no check at p={p:g}, n={n}: the closed form is checked only at alphas "
            "<= 0.9, and the divergence scan needs p > 2 and two positive alphas")
    series[f"sharpness_p{p:g}_n{n}"] = rows
    if p > 2.0 and len(scan_alphas) >= 2:
        req = sharp_mod.c2_infeasibility_scan(p, n, scan_alphas)
        increasing = bool(np.all(np.diff(req) > 0.0))
        checks.append(Check(
            "c1_required_divergence", "holds" if increasing else "fails",
            check_id=f"c1_required_divergence:r^{p:g}:scan:n={n}",
            constants_used={"alphas": list(scan_alphas),
                            "C1_required": [float(v) for v in req],
                            "c1_lower_bound": sharp_mod.c1_lower_bound(p, n)},
            n=n))


def load_pair_config(path) -> "mazya_mod.MeasurePair":
    """The measure pair of a --pair config.  An unreadable file, a missing
    or malformed parameter (a bool, or a Gaussian n that is not a whole
    number >= 1, among them), or a table label that cannot name its series
    file (empty, not a string, or holding a path separator) raises
    PreconditionError naming the path and the key."""
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise PreconditionError(f"{path}: cannot read the measure-pair config: {exc}")
    params = cfg.get("params", {}) if isinstance(cfg, dict) else None
    if not isinstance(params, dict):
        raise PreconditionError(
            f"{path}: a measure-pair config must be a JSON object with object params")
    kind = cfg.get("kind")

    def param(key, convert=float):
        if key not in params:
            raise PreconditionError(f"{path}: a {kind} pair needs params.{key}")
        if isinstance(params[key], bool):  # float(True) would read it as 1
            raise PreconditionError(f"{path}: params.{key} is malformed: "
                                    f"a number is needed, got {params[key]!r}")
        try:
            return convert(params[key])
        except (TypeError, ValueError) as exc:
            raise PreconditionError(f"{path}: params.{key} is malformed: {exc}")

    array = functools.partial(np.asarray, dtype=float)
    if kind == "classical":
        return mazya_mod.classical_pair()
    if kind == "gaussian":
        n = params.get("n")  # a whole number, such as 2 or 2.0, and not a bool
        if isinstance(n, bool) or not isinstance(n, (int, float)) or n % 1 or n < 1:
            raise PreconditionError(f"{path}: params.n must be a whole number >= 1, got {n!r}")
        return mazya_mod.gaussian_pair(param("p"), int(n))
    if kind == "table":
        label = cfg.get("label", "table")
        if not isinstance(label, str) or not label or {"/", "\\"} & set(label):
            raise PreconditionError(f"{path}: label must be a non-empty string with no "
                                    f"path separator, got {label!r}")
        return mazya_mod.table_pair(
            param("x", array), param("mu_density", array), param("nu_density", array),
            param("p"), param("q"), label=label)
    raise PreconditionError(f"unknown measure-pair kind {kind!r}")


def _mazya_check(res, outcome: str, **fields) -> Check:
    """A Maz'ya check recording the search's own tolerances; a non-converged
    integral makes it indeterminate."""
    return Check("mazjacond", outcome, details={
        "probe_rel_tol": mazya_mod.PROBE_REL_TOL,
        "probe_abs_tol": mazya_mod.PROBE_ABS_TOL,
        "piece_rel_tol": mazya_mod.PIECE_REL_TOL,
        "piece_abs_tol": mazya_mod.PIECE_ABS_TOL}, **fields).require_converged(
        res.converged, "a quadrature behind B did not converge")


def run_mazya(checks: list, series: dict, gaussian=None, classical=False,
              pair=None):
    if pair is not None:
        res = mazya_mod.mazya_B(pair)
        checks.append(_mazya_check(
            res, "holds" if not res.divergent else "indeterminate",
            check_id=f"mazya:pair:{pair.label}",
            constants_used={"B": res.B, "argmax_r": res.argmax_r,
                            "divergent": res.divergent, "reason": res.reason},
            subject_label=pair.label))
        series[f"mazya_{pair.label}"] = [
            {"r": r, "objective": v} for r, v in res.series]
    if classical:
        pair = mazya_mod.classical_pair()
        res = mazya_mod.mazya_B(pair)
        ok = (not res.divergent) and abs(res.B - 1.0) <= 1e-6
        checks.append(_mazya_check(
            res, "holds" if ok else "fails",
            check_id="mazya:classical", lhs=res.B, rhs=1.0,
            constants_used={"B": res.B, "argmax_r": res.argmax_r},
            subject_label="classical"))
        series["mazya_classical"] = [
            {"r": r, "objective": v} for r, v in res.series]
    for p, n in (gaussian or []):
        numeric, res = mazya_mod.gaussian_hardy_pq(p, n)
        expected = "finite" if p > n else "divergent"
        checks.append(_mazya_check(
            res, "holds" if numeric == expected else "fails",
            check_id=f"mazya:gaussian:p={p:g}:n={n}",
            constants_used={
                "p": p, "n": n, "B": res.B, "argmax_r": res.argmax_r,
                "verdict_numeric": numeric, "verdict_expected": expected,
                "reason": res.reason,
            },
            subject_label=f"gaussian[p={p:g},n={n}]"))


def _record_fit(form: str, fit, labels: list, nf_label: str, n: int, checks: list,
                fits: dict, normalization=None, converged=True):
    """Record the `form` envelope `fit` over the members `labels` and its
    check, which an infeasible fit fails, and which is indeterminate unless
    the fitted terms converged."""
    fits[f"{form}:{nf_label}:n={n}"] = {
        "C1": fit.c1, "C2": fit.c2, "binding": fit.binding, "corpus": labels,
        "grid": list(lk_mod.DEFAULT_FIT_GRID), "feasible": fit.feasible,
    }
    checks.append(Check(
        form, "holds" if fit.feasible else "fails",
        check_id=f"{form}_envelope:{nf_label}:corpus:n={n}",
        constants_used={"C1": fit.c1, "C2": fit.c2, "binding": fit.binding},
        nfunc_label=nf_label, n=n, normalization=normalization,
    ).require_converged(converged, "a quadrature behind the fitted terms did not converge"))


def run_lk(manifest, spec, dims, checks: list, fits: dict,
           nfunc_labels=("p2", "p3"), normalized=False):
    if not nfunc_labels:
        raise PreconditionError("--nfunc names no N-function")
    for nf_label in nfunc_labels:
        nf = manifest.nfunc(nf_label)
        for n in dims:
            fields = [factory.instantiate(n)
                      for label, factory in sorted(manifest.field_functions.items())
                      if factory.compatible(n)]
            _run_lk_case(nf_label, nf, n, fields, spec, checks, fits, normalized)


def _run_lk_case(nf_label, nf, n, fields, spec, checks, fits, normalized):
    """The LK battery for one (N-function, n): each member's theta = 1 terms
    and norm triple once, in member order, then both envelope fits and every
    member's checks against them.  Every check and fit rests on the terms,
    whose values are also the norms' modulars at K = 1: each is
    indeterminate unless those converged."""
    # LK checks name only the normalized measure; the unnormalized default
    # is left to the report's own `normalization`, as before
    norm = "normalized" if normalized else None
    triples = {u.label: modular_triple_nd(u, nf, spec, normalized) for u in fields}
    terms = {u.label: lk_mod.lk_modular_terms(u, nf, triples[u.label], spec, normalized)
             for u in fields}
    norms = {u.label: lk_mod.lk_norm_triple(u, nf, terms[u.label], spec, normalized)
             for u in fields}
    labels = list(terms)
    converged = {label: t.converged for label, t in terms.items()}
    fit_norm = lk_mod.fit_lk_norm_envelope(norms)
    _record_fit("statB2gauss", fit_norm, labels, nf_label, n, checks, fits, norm,
                all(converged.values()))
    for label, triple in norms.items():
        checks.append(lk_mod.check_lk_norm(
            triple, fit_norm.c1, fit_norm.c2,
            check_id=f"statB2gauss:{nf_label}:{label}:n={n}",
            nfunc_label=nf.label, subject_label=label, n=n, normalization=norm,
        ).require_converged(
            converged[label],
            "a quadrature behind the norms' modulars did not converge"))

    fit_mod = lk_mod.fit_lk_modular_envelope(terms, nf)
    _record_fit("statB1gauss", fit_mod, labels, nf_label, n, checks, fits, norm,
                all(converged.values()))
    for u in fields:
        # each check carries the Hardy hypothesis it rests on
        checks.append(lk_mod.check_lk_modular(
            terms[u.label], nf, fit_mod.c1, fit_mod.c2,
            check_id=f"statB1:{nf_label}:{u.label}:n={n}",
            nfunc_label=nf.label, subject_label=u.label, n=n, normalization=norm,
            provenance=lk_mod.hardy_provenance(u, nf, n, triples[u.label])))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _write_series_csv(out_dir: Path, series: dict):
    for name, rows in series.items():
        if rows:
            with (out_dir / (name.replace(":", "_") + ".csv")).open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)


# ---------------------------------------------------------------------------
# The battery table
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """What the batteries of one invocation share and fill in."""

    spec: QuadratureSpec
    normalized: bool = False
    manifest: object = None
    checks: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    battery_s: dict = field(default_factory=dict)  # wall seconds per battery


@dataclass(frozen=True)
class Battery:
    """One subcommand.  `flags` are its own (flag, argparse keywords) pairs;
    `from_args` turns the parsed flags into keywords of `run(run, **kw)`, and
    `in_all` turns the --dim list of `all` into the keywords `all` runs the
    row with (None: not part of `all`)."""

    name: str
    help: str
    run: Callable
    flags: tuple = ()
    needs_manifest: bool = True
    from_args: Callable = lambda args: {}
    in_all: Callable | None = None


def _mazya_kwargs(args) -> dict:
    """--gaussian (with --p, --n, which need it), --classical and --pair,
    each optional; with none of them the classical pair and a (p, n) grid."""
    pair = load_pair_config(args.pair) if args.pair else None
    gaussian = []
    if not args.gaussian and (args.p is not None or args.n is not None):
        raise PreconditionError("--p and --n apply only with --gaussian")
    if args.gaussian:
        if args.p is None or args.n is None:
            raise PreconditionError("--gaussian requires --p and --n")
        gaussian = [(args.p, args.n)]
    if not gaussian and not args.classical and pair is None:
        return {"classical": True, "gaussian": [
            (p, n) for p in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0) for n in (1, 2, 3)]}
    return {"gaussian": gaussian, "classical": args.classical, "pair": pair}


def _run_all(run: Run, dims):
    for battery in BATTERIES:
        if battery.in_all is not None:
            start = time.perf_counter()
            battery.run(run, **battery.in_all(dims))
            run.battery_s[battery.name] = time.perf_counter() - start


_DIM = ("--dim", {"type": _parse_dims, "default": [1, 2]})

BATTERIES = (
    Battery("certify", "certify corpus N-functions",
            lambda run: run_certify(run.manifest, run.checks),
            in_all=lambda dims: {}),
    Battery("hardy", "Hardy inequality battery",
            lambda run, **kw: run_hardy(run.manifest, run.spec, checks=run.checks,
                                        normalized=run.normalized, **kw),
            flags=(("--nfunc", {"default": None}), _DIM,
                   ("--form", {"default": None, "choices": [
                       selector for row in hardy_mod.FORMS for selector in row.selectors]})),
            from_args=lambda args: {"dims": args.dim, "nfunc_label": args.nfunc,
                                    "form": args.form},
            in_all=lambda dims: {"dims": dims}),
    Battery("sharpness", "extremal-family sharpness scan",
            lambda run, cases, alphas: [
                run_sharpness(p, n, alphas, run.spec, run.checks, run.series)
                for p, n in cases],
            flags=(("--p", {"type": float, "required": True}),
                   ("--n", {"type": int, "required": True}),
                   ("--alphas", {"type": _floats, "default": DEFAULT_ALPHAS})),
            needs_manifest=False,
            # the divergence scan reads the alphas in increasing order
            from_args=lambda args: {"cases": [(args.p, args.n)],
                                    "alphas": tuple(sorted(set(args.alphas)))},
            in_all=lambda dims: {"cases": [(p, n) for p in (3.0, 4.0) for n in dims[:2]],
                                 "alphas": DEFAULT_ALPHAS}),
    Battery("mazya", "Maz'ya criterion",
            lambda run, **kw: run_mazya(run.checks, run.series, **kw),
            flags=(("--gaussian", {"action": "store_true"}),
                   ("--classical", {"action": "store_true"}),
                   ("--p", {"type": float, "default": None}),
                   ("--n", {"type": int, "default": None}),
                   ("--pair", {"default": None, "help": (
                       "measure-pair config JSON (kind: classical | gaussian "
                       "{p, n} | table {x, mu_density, nu_density, p, q}), "
                       "e.g. docs/examples/pair_table.json")})),
            needs_manifest=False, from_args=_mazya_kwargs,
            in_all=lambda dims: {"classical": True, "gaussian": [
                (p, n) for p in (1.5, 2.0, 3.0, 4.0) for n in (1, 2, 3)]}),
    Battery("lk", "Landau-Kolmogorov envelope fits",
            lambda run, **kw: run_lk(run.manifest, run.spec, checks=run.checks,
                                     fits=run.fits, normalized=run.normalized, **kw),
            flags=(("--nfunc", {
                       "type": lambda s: list(dict.fromkeys(t for t in s.split(",") if t)),
                       "default": ("p2", "p3")}), _DIM),
            from_args=lambda args: {"dims": args.dim, "nfunc_labels": args.nfunc},
            in_all=lambda dims: {"dims": [n for n in dims if n <= 2]}),
    Battery("all", "full verification battery", _run_all, flags=(_DIM,),
            from_args=lambda args: {"dims": args.dim}),
)


# ---------------------------------------------------------------------------
# Argument parsing and reports
# ---------------------------------------------------------------------------

def _shared_flags(suppress: bool = False) -> argparse.ArgumentParser:
    """The flags every subcommand accepts, before or after its name.

    The subcommands' copies default to SUPPRESS, so a flag given only before
    the subcommand is not overwritten by the subcommand's default."""
    def default(value):
        return argparse.SUPPRESS if suppress else value

    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--corpus", default=default(None), help="manifest JSON path")
    flags.add_argument("--out", default=default("reports"), help="output directory")
    flags.add_argument("--report", default=default(None), help="report JSON path")
    flags.add_argument("--rel-tol", type=float, default=default(1e-10))
    flags.add_argument("--abs-tol", type=float, default=default(1e-14))
    flags.add_argument("--normalized", action="store_true", default=default(False),
                       help="use the (2 pi)^(-n/2)-normalized Gaussian measure")
    return flags


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every row of `BATTERIES`, built once per process."""
    parser = argparse.ArgumentParser(
        prog="orlicz-hardy",
        description="Numerical verification of Gaussian-measure Orlicz "
                    "Hardy and Landau-Kolmogorov inequalities.",
        parents=[_shared_flags()])
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    shared = _shared_flags(suppress=True)
    for battery in BATTERIES:
        sub = subparsers.add_parser(battery.name, parents=[shared], help=battery.help)
        for flag, kwargs in battery.flags:
            sub.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)  # the report's meta.argv
    args = build_parser().parse_args(argv)
    battery = next(b for b in BATTERIES if b.name == args.subcommand)
    out_dir = Path(args.out)
    report_path = Path(args.report) if args.report else \
        out_dir / f"{args.subcommand}.json"
    try:
        run = Run(QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol),
                  args.normalized)
        if battery.needs_manifest:
            run.manifest = corpus_mod.load_manifest(args.corpus)
        start = time.perf_counter()
        battery.run(run, **battery.from_args(args))
        # `all` has timed each of its rows; any other battery is one total
        run.battery_s = run.battery_s or {battery.name: time.perf_counter() - start}
    except (ManifestError, OrliczHardyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checks = sorted(run.checks, key=lambda c: c.check_id)
    summary = summarize_verdicts(checks)
    manifest, spec = run.manifest, run.spec
    body = {
        "tool_version": TOOL_VERSION,
        "subcommand": args.subcommand,
        "manifest_fingerprint": manifest.fingerprint if manifest else None,
        "corpus": manifest.member_fingerprints if manifest else {},
        "quadrature_spec": {
            "rel_tol": spec.rel_tol, "abs_tol": spec.abs_tol,
            "sphere_nodes": SPHERE_NODES, "seed": SPHERE_SEED,
        },
        "normalization": "normalized" if args.normalized else "unnormalized",
        "checks": [c.as_dict() for c in checks],
        "fits": run.fits,
        "series": run.series,
        "summary": summary,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(report_path, body, {"argv": argv, "battery_s": run.battery_s})
    _write_series_csv(out_dir, run.series)
    print(f"{args.subcommand}: {summary['holds']} holds, {summary['fails']} fails, "
          f"{summary['indeterminate']} indeterminate, {summary['trivial']} trivial "
          f"-> {report_path}")
    return 0 if summary["fails"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
