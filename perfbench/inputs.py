"""Seeded inputs for the verifier benchmark.

Every workload's inputs come from one integer seed: a schema-1 corpus
manifest (the packaged N-function set, the packaged member labels and kinds,
parameters drawn from narrow ranges around the packaged values, all inside
the ranges `docs/corpus.md` documents) and, for `mazya_scan`, a list of
(p, n) pairs.  The same seed gives byte-identical files.

The ranges are narrow on purpose.  The benchmark compares runs made with
different seeds, so a draw must not change how much work a battery does:
no draw moves a member across the boundary where one of its modulars
diverges for some N-function (for `gaussian_power` that boundary is
D * alpha / p = 1), and no draw changes an integer the battery loops over.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SCHEMA_VERSION = 1

# The N-function set packaged in orlicz_hardy/data/default_manifest.json.
# The `lk` battery addresses p2 and p3 by label, and `hardy` chooses its
# norm-form subset by the radial labels below, so labels never change.
NFUNCTIONS = (
    {"label": "p2", "kind": "power", "params": {"p": 2}},
    {"label": "p2.5", "kind": "power", "params": {"p": 2.5}},
    {"label": "p3", "kind": "power", "params": {"p": 3}},
    {"label": "p4", "kind": "power", "params": {"p": 4}},
    {"label": "p2log", "kind": "power_log", "params": {"p": 2}},
)

# Mazya pairs: p in (1.5, 4.0] at two decimals, n in {1, 2, 3}.  For each n
# one p is drawn uniformly from each of ten strata 0.25 wide.  The strata
# edges fall on 2.0 and 3.0, so every seed has the same number of pairs with
# p <= n (B infinite) and p > n (B finite), and a draw cannot change the
# work of the scan by moving a pair across p = n.
MAZYA_STRATA = [(151 + 25 * k, 175 + 25 * k) for k in range(10)]   # hundredths
MAZYA_DIMS = (1, 2, 3)


def _u(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def make_manifest(seed: int) -> dict:
    """A corpus manifest whose member parameters are drawn from `seed`."""
    rng = random.Random(f"manifest:{seed}")

    def gaussian_power(alpha_lo, alpha_hi, p):
        return {"kind": "gaussian_power",
                "params": {"alpha": _u(rng, alpha_lo, alpha_hi), "p": p}}

    def bump(c_lo, c_hi, w_lo, w_hi, degrees):
        return {"kind": "bump",
                "params": {"center": _u(rng, c_lo, c_hi),
                           "width": _u(rng, w_lo, w_hi),
                           "degree": rng.choice(degrees)}}

    def poly_gauss(coefficients, rate):
        return {"kind": "poly_gauss",
                "params": {"coefficients": [_u(rng, 0.9 * c, 1.1 * c) if c else 0.0
                                            for c in coefficients],
                           "rate": _u(rng, 0.9 * rate, 1.1 * rate)}}

    def monomial(exponents, rate_lo, rate_hi):
        return {"kind": "monomial_gauss",
                "params": {"exponents": list(exponents),
                           "rate": _u(rng, rate_lo, rate_hi)}}

    def radial_poly(coefficients, rate):
        return {"kind": "gauss_poly_radial",
                "params": {"even_coefficients": [_u(rng, 0.9 * c, 1.1 * c)
                                                 for c in coefficients],
                           "rate": _u(rng, 0.9 * rate, 1.1 * rate)}}

    radial = [
        # `one` is the constant function: alpha stays 0.
        ("one", {"kind": "gaussian_power", "params": {"alpha": 0.0, "p": 2}}),
        # alpha = 0.5 is the divergence boundary of (ga_mild, p4); stay on
        # the divergent side, as the packaged member does.
        ("ga_mild", gaussian_power(0.50, 0.52, 2)),
        ("ga_p3", gaussian_power(0.45, 0.55, 3)),
        ("ga_sharp", gaussian_power(0.89, 0.91, 4)),
        ("bump_mid", bump(1.9, 2.1, 0.9, 1.1, (3,))),
        ("bump_near", bump(0.7, 0.8, 0.45, 0.55, (2,))),
        ("pg_decay", poly_gauss((1.0, 0.0, 0.5), 1.0)),
        ("pg_slow", poly_gauss((0.0, 1.0), 0.5)),
        ("trunc_mild", {"kind": "truncated",
                        "params": {"N": _u(rng, 3.8, 4.2),
                                   "inner": gaussian_power(0.45, 0.55, 2)}}),
    ]
    fields = [
        ("fr_smooth", radial_poly((1.0, 0.5), 1.0)),
        ("fr_wide", radial_poly((1.0,), 0.5)),
        ("fx_lin", monomial((1,), 0.45, 0.55)),
        ("fx_quad", monomial((2,), 0.9, 1.1)),
        ("fx_cross", monomial((1, 1), 0.45, 0.55)),
        ("fx_cut", {"kind": "cutoff",
                    "params": {"r1": _u(rng, 7.8, 8.2), "r2": _u(rng, 9.8, 10.2),
                               "inner": monomial((1,), 0.0, 0.0)}}),
    ]
    return {
        "schema": SCHEMA_VERSION,
        "nfunctions": [dict(entry) for entry in NFUNCTIONS],
        "radial_functions": [{"label": label, **decl} for label, decl in radial],
        "field_functions": [{"label": label, **decl} for label, decl in fields],
    }


def make_mazya_pairs(seed: int) -> list[tuple[float, int]]:
    """Stratified (p, n) draws for `mazya --gaussian`; no pair is filtered."""
    rng = random.Random(f"mazya:{seed}")
    return [(rng.randint(lo, hi) / 100.0, n) for n in MAZYA_DIMS for lo, hi in MAZYA_STRATA]


def _cli_args(out_dir: Path, report: str, *rest: str) -> list[str]:
    return ["--out", str(out_dir), "--report", str(out_dir / report), *rest]


def write_inputs(workload: str, seed: int, run_dir: Path, out_dir: Path) -> list[list[str]]:
    """Write the workload's input files under `run_dir` and return the
    `orlicz_hardy.cli.main` argument lists one battery pass runs, in order.

    Reports go to `out_dir`, one file per invocation.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    if workload in ("hardy_sweep", "lk_envelope"):
        manifest = run_dir / "manifest.json"
        manifest.write_text(json.dumps(make_manifest(seed), indent=1, sort_keys=True) + "\n")
        corpus = ["--corpus", str(manifest)]
        if workload == "hardy_sweep":
            return [corpus + _cli_args(out_dir, "hardy.json", "hardy", "--dim", "1..3")]
        return [corpus + _cli_args(out_dir, "lk.json", "lk", "--dim", "1..2")]
    if workload == "mazya_scan":
        pairs = make_mazya_pairs(seed)
        (run_dir / "mazya_pairs.json").write_text(json.dumps(pairs) + "\n")
        invocations = [_cli_args(out_dir, "mazya-classical.json", "mazya", "--classical")]
        for i, (p, n) in enumerate(pairs):
            invocations.append(_cli_args(
                out_dir, f"mazya-{i:02d}.json", "mazya", "--gaussian",
                "--p", f"{p:.2f}", "--n", str(n)))
        return invocations
    raise KeyError(workload)


WORKLOADS = ("hardy_sweep", "lk_envelope", "mazya_scan")
