import bisect
import dataclasses
import json
import math

import numpy as np
import pytest

from orlicz_hardy import mazya as mazya_mod
from orlicz_hardy import quadrature
from orlicz_hardy.cli import main
from orlicz_hardy.errors import PreconditionError
from orlicz_hardy.mazya import (
    OBJECTIVE_CAP,
    MeasurePair,
    classical_pair,
    gaussian_hardy_pq,
    gaussian_pair,
    mazya_B,
    table_pair,
)
from orlicz_hardy.quadrature import integrate_interval


class TestMazyaB:
    def test_classical_is_one(self):
        res = mazya_B(classical_pair())
        assert not res.divergent
        assert res.B == pytest.approx(1.0, abs=1e-6)

    def test_classical_grid_refinement_invariant(self):
        coarse = mazya_B(classical_pair(), grid_points=240)
        fine = mazya_B(classical_pair(), grid_points=960)
        assert abs(coarse.B - fine.B) < 1e-6

    def test_logarithmic_endpoint_divergent(self):
        # nu^(-1) = 1/(x ln(1/x)) is not integrable at 0; its ladder ratios
        # ln((k+4)/(k+3)) / ln((k+3)/(k+2)) are about 0.92, above 0.9
        def nu(x):
            x = np.asarray(x, float)
            return np.where(x < 0.5, x * np.log(1.0 / np.minimum(x, 0.5)), 1.0)

        pair = dataclasses.replace(classical_pair(), nu_density=nu, label="log")
        res = mazya_B(pair)
        assert res.divergent
        assert "endpoint" in res.reason

    @pytest.mark.parametrize("where, reason", [
        (0.0, "diverges at the left endpoint"), (0.5, "exceeds cap at r=")])
    def test_density_error_flags_divergence(self, where, reason):
        def nu(x):
            x = np.asarray(x, float)
            if np.any(x > where):
                raise ValueError("density undefined")
            return np.ones_like(x)

        pair = dataclasses.replace(classical_pair(), nu_density=nu, label="raises")
        res = mazya_B(pair)
        assert res.divergent and res.B == math.inf
        assert reason in res.reason

    def test_vanishing_density_interval_divergent(self):
        res = mazya_B(vanishing_density_pair())
        assert res.divergent

    def test_growth_at_the_grid_boundary_flags_divergence(self):
        # the objective r^(1/4) still grows at the grid's end, r = 1000
        res = mazya_B(growing_pair())
        assert res.divergent and res.converged
        assert res.reason == "objective still growing at the grid boundary"
        assert res.argmax_r == 1000.0
        assert res.B == pytest.approx(1000.0 ** 0.25, rel=1e-12)

    def test_p_equal_one_rejected(self):
        with pytest.raises(PreconditionError, match="p"):
            MeasurePair(a=0.0, mu_tail=lambda r: 1.0 / r,
                        nu_density=lambda x: np.ones_like(np.asarray(x, float)),
                        p=1.0, q=2.0)

    def test_q_below_p_rejected(self):
        with pytest.raises(PreconditionError):
            MeasurePair(a=0.0, mu_tail=lambda r: 1.0 / r,
                        nu_density=lambda x: np.ones_like(np.asarray(x, float)),
                        p=3.0, q=2.0)


def vanishing_density_pair():
    def nu(x):
        x = np.asarray(x, float)
        return np.where((x > 0.3) & (x < 0.6), 0.0, 1.0)

    return dataclasses.replace(classical_pair(), nu_density=nu, label="vanishing")


def growing_pair():
    """mu([r, oo)) = r^(-1/2), nu = dx, p = q = 2: the objective is r^(1/4)."""
    return MeasurePair(a=0.0, mu_tail=lambda r: np.asarray(r, float) ** -0.5,
                       nu_density=lambda x: np.ones_like(np.asarray(x, float)),
                       p=2.0, q=2.0, label="growing", grid_hi=1e3)


def overflowing_pair():
    """The classical pair with nu = e^(-x): the objective passes the cap near
    r = 62, and the inner integrand e^x overflows past r = 709."""
    return dataclasses.replace(classical_pair(), label="overflows",
                               nu_density=lambda x: np.exp(-np.asarray(x, float)))


def exp_table_pair():
    xs = np.linspace(0.0, 10.0, 400)
    return table_pair(xs, np.exp(-xs), np.ones_like(xs), p=2.0, q=2.0)


GAUSSIAN_GRID = [(p, n) for p in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0) for n in (1, 2, 3)]


class TestGaussianVerdicts:
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_p_greater_than_n(self, p, n):
        verdict, res = gaussian_hardy_pq(p, n)
        assert verdict == ("finite" if p > n else "divergent"), (p, n, res)

    def test_boundary_case_logarithmic(self):
        # p = n: the inner integrand behaves like 1/x near 0
        verdict, res = gaussian_hardy_pq(2.0, 2)
        assert verdict == "divergent"
        assert "endpoint" in res.reason

    @pytest.mark.parametrize("p, n", [(1.01, 1), (2.05, 2), (3.1, 3)])
    def test_ladder_ratio_just_below_cutoff_is_finite(self, p, n):
        # the endpoint ladder ratio 10^((n-1)/(p-1)-1) is just below 0.9 here
        verdict, res = gaussian_hardy_pq(p, n)
        assert verdict == "finite", (p, n, res)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("hundredths", [0, 1, 2, 5, 11])
    def test_endpoint_band_at_or_below_n_is_divergent(self, n, hundredths):
        p = round(n - hundredths / 100.0, 2)
        verdict, res = gaussian_hardy_pq(p, n)
        assert verdict == "divergent", (p, n, res)
        assert "endpoint" in res.reason

    @pytest.mark.parametrize("p, n, B", [
        (100, 1, 121.4769135721286), (150, 1, 185.14638173182837),
        (200, 1, 248.9868245711675), (300, 1, 376.9094239765027),
        (250, 2, 313.574400494103), (150, 3, 186.4554945142222)])
    def test_large_p_grid_ends_where_the_density_underflows(self, p, n, B):
        # e^(-x^2/2) is 0 past MAX_RADIUS, where the inner integrand was inf:
        # these pairs read "objective exceeds cap" (p = 100: a piece that did
        # not converge) while their grid ran past it
        assert gaussian_pair(p, n).grid_hi == quadrature.MAX_RADIUS
        verdict, res = gaussian_hardy_pq(p, n)
        assert verdict == "finite" and res.converged, res
        assert res.B == pytest.approx(B, rel=1e-12)

    @pytest.mark.parametrize("p, n", GAUSSIAN_GRID + [(50, 1), (80, 1), (80, 3)])
    def test_grids_short_of_max_radius_keep_their_end(self, p, n):
        assert gaussian_pair(p, n).grid_hi < quadrature.MAX_RADIUS

    def test_finite_value_stable(self):
        _, res1 = gaussian_hardy_pq(3.0, 2)
        _, res2 = gaussian_hardy_pq(3.0, 2)
        assert res1.B == res2.B


class TestSeriesAndTable:
    def test_classical_objective_flat(self):
        rows = mazya_B(classical_pair(), grid_points=24).series
        vals = [v for _, v in rows]
        assert max(vals) - min(vals) < 1e-9

    def test_table_pair_roundtrip(self):
        xs = np.linspace(0.0, 10.0, 400)
        pair = table_pair(xs, np.exp(-xs), np.ones_like(xs), p=2.0, q=2.0)
        res = mazya_B(pair)
        assert not res.divergent
        # sup_r sqrt(e^-r) * sqrt(r) at r = 1 equals sqrt(1/e)
        assert res.B == pytest.approx(math.exp(-0.5), rel=1e-2)

    def test_table_far_from_zero_has_the_same_B(self):
        # on [1000, 2000] the probe's sub-pieces below about 1e-12 round to
        # zero width, and those are 0: B and argmax_r are the table's on
        # [0, 1000], the argmax shifted by 1000
        xs = np.linspace(0.0, 1000.0, 400)
        near, far = (mazya_B(table_pair(xs + a, np.exp(-xs / 100.0), np.ones_like(xs),
                                        p=2.0, q=2.0)) for a in (0.0, 1000.0))
        ends = [1000.0 + mazya_mod.PROBE_WIDTH * 10.0 ** (-m / mazya_mod.PROBE_SPLIT)
                for m in range(mazya_mod.PROBE_RUNGS * mazya_mod.PROBE_SPLIT + 1)]
        assert len(set(ends)) < len(ends)
        assert math.isfinite(far.B) and not far.divergent and far.converged
        assert close(far.B, near.B, 1e-12), (far.B, near.B)
        assert abs(far.argmax_r - (near.argmax_r + 1000.0)) < 1e-4


class TestTailContract:
    @pytest.mark.parametrize("tail", [
        lambda r: max(1.0 / r, 0.0),
        lambda r: math.exp(-r),
        lambda r: 0.5,
    ], ids=["max", "math", "constant"])
    def test_a_tail_that_does_not_map_the_grid_is_rejected_by_name(self, tail):
        pair = dataclasses.replace(classical_pair(), mu_tail=tail, label="scalar-only")
        with pytest.raises(PreconditionError, match="mu_tail of pair 'scalar-only'"):
            mazya_B(pair)

    @pytest.mark.parametrize("make", [classical_pair, exp_table_pair,
                                      lambda: gaussian_pair(2.5, 2)],
                             ids=["classical", "table", "gaussian"])
    def test_packaged_tails_map_the_grid_and_a_float_alike(self, make):
        pair = make()
        _, rs = mazya_mod._log_grid(pair, 240)
        tails = np.asarray(pair.mu_tail(rs))
        assert tails.shape == rs.shape == (240,)
        assert tails.tolist() == [float(pair.mu_tail(r)) for r in rs.tolist()]


class TestTablePairValidation:
    @pytest.mark.parametrize("xs, mu, nu, reason", [
        ([0.0], [1.0], [1.0], "table x needs at least 2 abscissae"),
        ([0.0, 1.0, 1.0], [1.0] * 3, [1.0] * 3, "table x must be finite and increasing"),
        ([0.0, math.nan, 2.0], [1.0] * 3, [1.0] * 3, "table x must be finite"),
        ([0.0, 1.0, 2.0], [1.0, math.nan, 1.0], [1.0] * 3, "table mu_density"),
        ([0.0, 1.0, 2.0], [1.0] * 3, [1.0, math.inf, 1.0], "table nu_density"),
        ([0.0, 1.0, 2.0], [-1.0] * 3, [1.0] * 3, "table mu_density"),
        ([0.0, 1.0, 2.0], [1.0] * 3, [1.0, -1e-300, 1.0], "table nu_density"),
    ], ids=["one-point", "repeated-x", "nan-x", "nan-mu", "inf-nu", "negative-mu",
            "negative-nu"])
    def test_rejects_a_table_that_is_not_a_measure_pair(self, xs, mu, nu, reason):
        with pytest.raises(PreconditionError, match=reason):
            table_pair(xs, mu, nu, p=2.0, q=2.0)

    def test_table_tail_is_a_measure_tail(self):
        pair = exp_table_pair()
        _, rs = mazya_mod._log_grid(pair, 240)
        tails = [pair.mu_tail(float(r)) for r in rs]
        assert min(tails) >= 0.0 and tails == sorted(tails, reverse=True)


# ---------------------------------------------------------------------------
# Oracle: the fresh-integral search that the cumulative sweep replaced
# ---------------------------------------------------------------------------

def reference_objective(pair, r, probe, rel_tol=1e-9, probe_width=1e-3):
    """Objective at r with the inner integral taken afresh from a + width."""
    tail = float(pair.mu_tail(r))
    if tail <= 0.0:
        return 0.0, True
    inner = probe
    if r > pair.a + probe_width:
        try:
            bulk = integrate_interval(mazya_mod._nu_integrand(pair), pair.a + probe_width,
                                      r, rel_tol=rel_tol, abs_tol=1e-16)
        except Exception:
            return math.inf, False
        inner = probe + bulk.value
    if not math.isfinite(inner):
        return math.inf, False
    return tail ** (1.0 / pair.q) * inner ** ((pair.p - 1.0) / pair.p), True


def reference_mazya_B(pair, grid_points=240, searched=None):
    """mazya_B with a fresh inner integral at every point, and the
    golden-section search that Brent's replaced; the search's points are
    appended to `searched`."""
    offsets = np.logspace(-3.0, math.log10(pair.grid_hi), grid_points)
    rs = pair.a + offsets
    probe, ok0, _ = mazya_mod._endpoint_probe(pair)
    if not ok0:
        return mazya_mod.MazyaResult(math.inf, float(rs[0]), True,
                                     "inner integral diverges at the left endpoint")
    vals = np.empty(rs.size)
    for i, r in enumerate(rs):
        v, ok = reference_objective(pair, float(r), probe)
        if not ok or v > OBJECTIVE_CAP:
            return mazya_mod.MazyaResult(math.inf, float(r), True,
                                         f"objective exceeds cap at r={r:.6g}")
        vals[i] = v
    i = int(np.argmax(vals))
    if i == rs.size - 1:
        decade = offsets >= offsets[-1] / 10.0
        first = vals[decade][0]
        if first > 0 and vals[-1] > first * 1.01:
            return mazya_mod.MazyaResult(float(vals[-1]), float(rs[-1]), True,
                                         "objective still growing at the grid boundary")
    best_r, best_v = float(rs[i]), float(vals[i])

    def golden(r):
        if searched is not None:
            searched.append(r)
        return reference_objective(pair, r, probe)[0]

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = float(rs[max(i - 1, 0)]), float(rs[min(i + 1, rs.size - 1)])
    c_ = b_ - phi * (b_ - a_)
    d_ = a_ + phi * (b_ - a_)
    fc, fd = golden(c_), golden(d_)
    for _ in range(80):
        if b_ - a_ < 1e-10 * max(1.0, b_):
            break
        if fc >= fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - phi * (b_ - a_)
            fc = golden(c_)
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + phi * (b_ - a_)
            fd = golden(d_)
    for r, v in ((c_, fc), (d_, fd)):
        if v > best_v:
            best_r, best_v = r, v
    return mazya_mod.MazyaResult(best_v, best_r, False)


def reference_series(pair, rel_tol, grid_points=240):
    rs = pair.a + np.logspace(-3.0, math.log10(pair.grid_hi), grid_points)
    probe, ok, _ = mazya_mod._endpoint_probe(pair)
    rows = []
    for r in rs:
        v, ok_r = (reference_objective(pair, float(r), probe, rel_tol) if ok
                   else (math.inf, False))
        rows.append((float(r), v if ok_r else math.inf))
    return rows


def close(a, b, rel):
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


ORACLE_PAIRS = {"classical": classical_pair, "table": exp_table_pair,
                "vanishing": vanishing_density_pair}
ORACLE_PAIRS.update({f"gaussian-p{p:g}-n{n}": (lambda p=p, n=n: gaussian_pair(p, n))
                     for p, n in GAUSSIAN_GRID})


class TestCumulativeSearchOracle:
    @pytest.mark.parametrize("name", ORACLE_PAIRS)
    def test_B_matches_fresh_integral_search(self, name):
        pair = ORACLE_PAIRS[name]()
        new, ref = mazya_B(pair), reference_mazya_B(pair)
        assert (new.divergent, new.reason) == (ref.divergent, ref.reason)
        assert close(new.B, ref.B, 1e-13), (new, ref)
        assert close(new.argmax_r, ref.argmax_r, 1e-7), (new, ref)
        assert new.converged

    @pytest.mark.parametrize("name", [k for k in ORACLE_PAIRS if k != "vanishing"])
    def test_series_matches_fresh_integrals(self, name):
        # A fresh integral at the search's 1e-9 drifts from the true value
        # over the wide spans of the grid, so the reference series is taken
        # at 1e-14; the short pieces match it.
        pair = ORACLE_PAIRS[name]()
        series, ref = mazya_B(pair).series, reference_series(pair, 1e-14)
        assert [r for r, _ in series] == [r for r, _ in ref]
        for (r, v), (_, w) in zip(series, ref):
            assert close(v, w, 1e-13), (r, v, w)

    def test_series_infinite_past_a_vanishing_density(self):
        # nu vanishes on (0.3, 0.6), so the inner integral is infinite from
        # there on, and the search stops at its first infinite point; a
        # fresh integral that steps over the gap reads finite
        series = mazya_B(vanishing_density_pair()).series
        ref = reference_series(vanishing_density_pair(), 1e-9)
        first = next(i for i, (_, v) in enumerate(series) if v == math.inf)
        assert 0.3 < series[first][0] < 0.6
        assert all(v == math.inf for _, v in series[first:])
        assert len(series) == first + 1
        assert ref[first][1] == math.inf
        for (_, v), (_, w) in zip(series[:first], ref[:first]):
            assert close(v, w, 1e-13)

    def test_fewer_panel_sweeps_than_fresh_integrals(self, monkeypatch):
        calls = {"n": 0}
        real = quadrature._gk_panels

        def counting(f, lo, hi):
            calls["n"] += 1
            return real(f, lo, hi)

        monkeypatch.setattr(quadrature, "_gk_panels", counting)
        pair = gaussian_pair(3.0, 2)
        mazya_B(pair)
        cumulative, calls["n"] = calls["n"], 0
        reference_mazya_B(pair)
        assert calls["n"] >= 3 * cumulative, (calls["n"], cumulative)


# ---------------------------------------------------------------------------
# Oracle: the per-piece sweep that the batched first panels replaced
# ---------------------------------------------------------------------------

def ladder_verdict(rungs, total, converged):
    """The decade ladder's 0.9 rule and geometric extrapolation."""
    if abs(rungs[-1]) <= 1e-13 * max(abs(total), 1e-30):
        return total, True, converged
    ratios = [rungs[j + 1] / rungs[j] for j in range(len(rungs) - 3, len(rungs) - 1)
              if rungs[j] > 0.0]
    if not ratios or max(ratios) >= 0.9:
        return math.inf, False, converged
    rho = max(ratios)
    return total + rungs[-1] * rho / (1.0 - rho), True, converged


def per_piece_probe(pair):
    """The endpoint ladder with one integrate_interval call per sub-piece."""
    integrand = mazya_mod._nu_integrand(pair)
    ends = [pair.a + mazya_mod.PROBE_WIDTH * 10.0 ** (-m / mazya_mod.PROBE_SPLIT)
            for m in range(mazya_mod.PROBE_RUNGS * mazya_mod.PROBE_SPLIT + 1)]
    rungs, total, converged = [], 0.0, True
    for k in range(mazya_mod.PROBE_RUNGS):
        rung = 0.0
        for j in range(k * mazya_mod.PROBE_SPLIT, (k + 1) * mazya_mod.PROBE_SPLIT):
            try:
                piece = integrate_interval(integrand, ends[j + 1], ends[j],
                                           rel_tol=mazya_mod.PROBE_REL_TOL,
                                           abs_tol=mazya_mod.PROBE_ABS_TOL)
            except Exception:
                return math.inf, False, converged
            converged = converged and piece.converged
            rung += piece.value
        rungs.append(rung)
        total += rung
        if not math.isfinite(total) or total > mazya_mod.INNER_CAP:
            return math.inf, False, converged
    return ladder_verdict(rungs, total, converged)


def decade_ladder_probe(pair):
    """The endpoint ladder that the sub-pieces replaced: one integrate_interval
    call per decade rung."""
    integrand = mazya_mod._nu_integrand(pair)
    rungs, total, converged = [], 0.0, True
    hi = pair.a + mazya_mod.PROBE_WIDTH
    for k in range(1, mazya_mod.PROBE_RUNGS + 1):
        lo = pair.a + mazya_mod.PROBE_WIDTH * 10.0 ** (-k)
        try:
            rung = integrate_interval(integrand, lo, hi, rel_tol=mazya_mod.PROBE_REL_TOL,
                                      abs_tol=mazya_mod.PROBE_ABS_TOL)
        except Exception:
            return math.inf, False, converged
        converged = converged and rung.converged
        rungs.append(rung.value)
        total += rung.value
        if not math.isfinite(total) or total > mazya_mod.INNER_CAP:
            return math.inf, False, converged
        hi = lo
    return ladder_verdict(rungs, total, converged)


class PerPieceObjective:
    """The Maz'ya objective with one integrate_interval call per piece, from
    the largest knot at or below r; knot=True makes r a knot."""

    def __init__(self, pair, probe, converged):
        self.pair, self.converged = pair, converged
        self.integrand = mazya_mod._nu_integrand(pair)
        self.knots, self.inner = [pair.a + mazya_mod.PROBE_WIDTH], [probe]

    def __call__(self, r, knot=False):
        tail = float(self.pair.mu_tail(r))
        if tail <= 0.0:
            return 0.0
        j = max(bisect.bisect_right(self.knots, r) - 1, 0)
        inner = self.inner[j]
        if r > self.knots[j] and math.isfinite(inner):
            try:
                piece = integrate_interval(self.integrand, self.knots[j], r,
                                           rel_tol=mazya_mod.PIECE_REL_TOL,
                                           abs_tol=mazya_mod.PIECE_ABS_TOL)
            except Exception:
                inner = math.inf
            else:
                self.converged = self.converged and piece.converged
                inner += piece.value
        if knot and r > self.knots[-1]:
            self.knots.append(r)
            self.inner.append(inner)
        if not math.isfinite(inner):
            return math.inf
        return tail ** (1.0 / self.pair.q) * inner ** ((self.pair.p - 1.0) / self.pair.p)


def per_piece_mazya_B(pair, grid_points=240):
    """mazya_B with one integrate_interval call per grid piece and probe
    sub-piece."""
    offsets, rs = mazya_mod._log_grid(pair, grid_points)
    probe, ok0, converged = per_piece_probe(pair)
    if not ok0:
        return mazya_mod.MazyaResult(math.inf, float(rs[0]), True,
                                     "inner integral diverges at the left endpoint",
                                     converged, tuple((float(r), math.inf) for r in rs))
    objective = PerPieceObjective(pair, probe, converged)
    vals = np.empty(rs.size)
    for i, r in enumerate(rs):
        vals[i] = v = objective(float(r), knot=True)
        if v > OBJECTIVE_CAP:
            return mazya_mod.MazyaResult(math.inf, float(r), True,
                                         f"objective exceeds cap at r={r:.6g}",
                                         objective.converged,
                                         tuple(zip(rs[:i + 1].tolist(), vals[:i + 1].tolist())))
    series = tuple(zip(rs.tolist(), vals.tolist()))
    i = int(np.argmax(vals))
    if i == rs.size - 1:
        decade = offsets >= offsets[-1] / 10.0
        first = vals[decade][0]
        if first > 0 and vals[-1] > first * 1.01:
            return mazya_mod.MazyaResult(float(vals[-1]), float(rs[-1]), True,
                                         "objective still growing at the grid boundary",
                                         objective.converged, series)
    best_r, best_v = float(rs[i]), float(vals[i])
    r, v = quadrature.brent_max(objective, float(rs[max(i - 1, 0)]),
                                float(rs[min(i + 1, rs.size - 1)]), best_r, best_v)
    if v > best_v:
        best_r, best_v = r, v
    return mazya_mod.MazyaResult(best_v, best_r, False, converged=objective.converged,
                                 series=series)


def count_interval_calls(monkeypatch):
    """Record the (lo, hi) of every piece that is refined past its first
    panel, the step every adaptive integral takes."""
    calls = []
    real = quadrature._adaptive

    def counting(f, edges, *args, **kwargs):
        calls.append((float(edges[0]), float(edges[-1])))
        return real(f, edges, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_adaptive", counting)
    return calls


def unresolved_grid_pieces(pair):
    """The grid pieces of pair's sweep that one Gauss-Kronrod panel does not
    resolve at the piece tolerances, and those of them that its two halves
    do not resolve either, each piece integrated alone."""
    _, rs = mazya_mod._log_grid(pair, 240)
    f = mazya_mod._nu_integrand(pair)

    def resolved(lo, hi):
        vals, errs = quadrature._gk_panels(f, np.array(lo), np.array(hi))
        val, err = vals.sum(), errs.sum()
        return err <= max(mazya_mod.PIECE_ABS_TOL, mazya_mod.PIECE_REL_TOL * abs(val))

    one = [(lo, hi) for lo, hi in zip(rs[:-1].tolist(), rs[1:].tolist())
           if not resolved([lo], [hi])]
    mid = [0.5 * (lo + hi) for lo, hi in one]
    return one, [(lo, hi) for (lo, hi), m in zip(one, mid) if not resolved([lo, m], [m, hi])]


def count_panel_sweeps(monkeypatch):
    """Count `_gk_panels` and `_adaptive` calls."""
    calls = {"gk": 0, "adaptive": 0}
    real_gk, real_adaptive = quadrature._gk_panels, quadrature._adaptive

    def gk(*args, **kwargs):
        calls["gk"] += 1
        return real_gk(*args, **kwargs)

    def adaptive(*args, **kwargs):
        calls["adaptive"] += 1
        return real_adaptive(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_gk_panels", gk)
    monkeypatch.setattr(quadrature, "_adaptive", adaptive)
    return calls


class TestBatchedSweepOracle:
    @pytest.mark.parametrize("name", ORACLE_PAIRS)
    def test_equals_per_piece_sweep(self, name):
        pair = ORACLE_PAIRS[name]()
        assert mazya_B(pair) == per_piece_mazya_B(pair)
        assert mazya_mod._endpoint_probe(pair) == per_piece_probe(pair)
        assert mazya_B(pair).series == per_piece_mazya_B(pair).series

    def test_multi_panel_pieces_reach_integrate_interval(self, monkeypatch):
        # the grid pieces one panel does not resolve are exactly those whose
        # halves the sweep evaluates
        pair = gaussian_pair(2.2, 2)
        missed, _ = unresolved_grid_pieces(pair)
        panels = []
        real_gk = quadrature._gk_panels

        def recording(f, lo, hi):
            panels.extend(zip(lo.tolist(), hi.tolist()))
            return real_gk(f, lo, hi)

        monkeypatch.setattr(quadrature, "_gk_panels", recording)
        res = mazya_B(pair)
        evaluated = set(panels)
        halved = [(lo, hi) for lo, hi in missed if (lo, 0.5 * (lo + hi)) in evaluated]
        assert 5 <= len(halved) == len(missed) < 40
        assert res == per_piece_mazya_B(pair)

    def test_density_raising_past_the_cap_is_never_reached(self):
        # the inner integrand e^x drives the objective past the cap near
        # r = 59; the density raises only from r = 100 on, which the batch
        # reaches but the walk does not
        def nu(x):
            x = np.asarray(x, float)
            if np.any(x > 100.0):
                raise ValueError("density undefined")
            return np.exp(-x)

        pair = dataclasses.replace(classical_pair(), nu_density=nu, label="raises-late")
        res = mazya_B(pair)
        assert res == per_piece_mazya_B(pair)
        assert res.divergent and res.converged
        assert "exceeds cap at r=" in res.reason
        assert float(res.reason.rsplit("=", 1)[1]) < 100.0

    def test_integral_count(self, monkeypatch):
        calls = count_interval_calls(monkeypatch)
        mazya_B(gaussian_pair(3, 2))
        # the 5 grid pieces one panel misses are resolved by their halves,
        # and no search step needs more than one panel; the per-piece sweep
        # makes 299 adaptive integrals
        assert calls == []

    def test_n1_probe_rungs_resolve_in_one_batch(self, monkeypatch):
        calls = count_interval_calls(monkeypatch)
        value, finite, converged = mazya_mod._endpoint_probe(gaussian_pair(3.0, 1))
        assert calls == [] and finite and converged
        assert value == per_piece_probe(gaussian_pair(3.0, 1))[0]

    def test_density_zero_at_the_first_knot_keeps_one_batch(self, monkeypatch):
        # nu vanishes only at a + PROBE_WIDTH, the knot the sweep starts
        # from; no grid piece evaluates there, so the batch holds (a
        # zero-width first piece made it raise: 274 _gk_panels calls)
        def nu(x):
            x = np.asarray(x, float)
            return np.where(x == mazya_mod.PROBE_WIDTH, 0.0, 1.0)

        pair = dataclasses.replace(classical_pair(), nu_density=nu, label="zero-at-knot")
        calls = {"n": 0}
        real = quadrature._gk_panels

        def counting(f, lo, hi):
            calls["n"] += 1
            return real(f, lo, hi)

        monkeypatch.setattr(quadrature, "_gk_panels", counting)
        res = mazya_B(pair)
        assert calls["n"] <= 40, calls
        assert res.B == pytest.approx(1.0, abs=1e-6) and res.converged
        assert res == per_piece_mazya_B(pair)

    def test_sweep_integrates_nothing_past_the_first_zero_tail(self, monkeypatch):
        # mu([r, oo)) = max(1 - r, 0); nu^(-1) = e^x overflows far past r = 1
        def nu(x):
            x = np.asarray(x, float)
            if np.any(x > 50.0):
                raise ValueError("density undefined")
            return np.exp(-x)

        pair = dataclasses.replace(classical_pair(), mu_tail=lambda r: np.maximum(1.0 - r, 0.0),
                                   nu_density=nu, label="finite-mu")
        calls = count_interval_calls(monkeypatch)
        panel_ends = []
        real_gk = quadrature._gk_panels

        def recording(f, lo, hi):
            panel_ends.extend(hi.tolist())
            return real_gk(f, lo, hi)

        monkeypatch.setattr(quadrature, "_gk_panels", recording)
        res = mazya_B(pair)
        assert not res.divergent and res.converged
        assert all(lo < 1.0 for lo, _ in calls), calls
        # not even a first panel reaches the first zero tail
        assert max(panel_ends) < 1.0
        assert res == per_piece_mazya_B(pair)
        assert mazya_B(pair).series == per_piece_mazya_B(pair).series

    def test_overflowing_batch_is_halved_to_its_first_failing_piece(self, monkeypatch):
        # the inner integrand e^x overflows past r = 709, far beyond the cap
        # exit near r = 62; the grid batch raises, and its halves are tried
        # as batches when the walk reaches them (each piece on its own: 193).
        # The last batch, whose panels do not raise, also halves the pieces
        # they miss, in an eighth call, before the walk stops at the cap.
        pair = overflowing_pair()
        calls = count_panel_sweeps(monkeypatch)
        res = mazya_B(pair)
        assert calls == {"gk": 8, "adaptive": 0}
        assert res.divergent and res.converged and "exceeds cap at r=62.37" in res.reason
        assert res == per_piece_mazya_B(pair)

    def test_gaussian_mu_tail_equals_gaussian_tail_fn(self):
        for p, n in GAUSSIAN_GRID:
            pair = gaussian_pair(p, n)
            _, rs = mazya_mod._log_grid(pair, 240)
            m = p + n - 1.0
            assert [pair.mu_tail(r) for r in rs] == [
                quadrature.gaussian_tail_fn(m, 1.0)(float(r)) for r in rs]


class TestEndpointSubPieces:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_the_decade_ladder_in_one_panel_sweep(self, monkeypatch, n):
        # over p in [1.51, 4.0]: the ladder's exponents (n-1)/(p-1) run from
        # 0 to 3.9, through both sides of the 0.9 rule at n = 2, 3
        calls = count_panel_sweeps(monkeypatch)
        for hundredths in range(151, 401):
            pair = gaussian_pair(hundredths / 100.0, n)
            calls.update(gk=0, adaptive=0)
            value, finite, converged = mazya_mod._endpoint_probe(pair)
            assert calls == {"gk": 1, "adaptive": 0}, (hundredths, calls)
            ref_value, ref_finite, ref_converged = decade_ladder_probe(pair)
            assert (finite, converged) == (ref_finite, ref_converged), hundredths
            assert close(value, ref_value, 1e-14), (hundredths, value, ref_value)


class TestBrentSearch:
    def test_B_of_the_golden_section_search_in_half_its_evaluations(self, monkeypatch):
        pair = gaussian_pair(3, 2)
        golden = []
        ref = reference_mazya_B(pair, searched=golden)
        brent = []
        real = mazya_mod.brent_max

        def counting(fn, *args):
            return real(lambda r: brent.append(r) or fn(r), *args)

        monkeypatch.setattr(mazya_mod, "brent_max", counting)
        res = mazya_B(pair)
        assert close(res.B, ref.B, 1e-15), (res.B, ref.B)
        assert 0 < len(brent) <= len(golden) // 2, (len(brent), len(golden))

    @pytest.mark.parametrize("peak", [0.3, 1.0 / 3.0, 0.7])
    def test_finds_a_smooth_maximum_inside_the_stopping_width(self, peak):
        def fn(x):
            return math.exp(-(x - peak) ** 2) + 0.1 * (x - peak) ** 3

        seen = {0.5: fn(0.5)}

        def recorded(x):
            seen[x] = fn(x)
            return seen[x]

        x, fx = quadrature.brent_max(recorded, 0.0, 1.0, 0.5, seen[0.5])
        # fn is flat to rounding within about sqrt(eps) of the peak
        assert abs(x - peak) < 1e-7 and fx == max(seen.values()) == fn(x)
        assert len(seen) < 30

    def test_keeps_the_start_when_nothing_beats_it(self):
        # a maximum at the start, on the bracket's end: every step is worse
        x, fx = quadrature.brent_max(lambda r: -r, 1.0, 2.0, 1.0, -1.0)
        assert (x, fx) == (1.0, -1.0)


# ---------------------------------------------------------------------------
# Non-converged quadrature is never silent
# ---------------------------------------------------------------------------

def force_nonconverged(monkeypatch, flagged_tol):
    """Mark every probe sub-piece and grid piece Maz'ya integrates at rel_tol
    == flagged_tol non-converged, at the `integrate_runs` batches both are
    read from."""
    real_runs = mazya_mod.integrate_runs

    def flagged_runs(f, los, his, rel_tol, abs_tol):
        for values, errors, converged in real_runs(f, los, his, rel_tol, abs_tol):
            yield values, errors, ([False] * len(values) if rel_tol == flagged_tol
                                   else converged)

    monkeypatch.setattr(mazya_mod, "integrate_runs", flagged_runs)


class TestNonConvergence:
    def test_converged_by_default(self):
        assert mazya_B(classical_pair()).converged

    @pytest.mark.parametrize("rel_tol, make, reason", [
        (1e-9, classical_pair, ""),
        (1e-10, classical_pair, ""),
        (1e-9, overflowing_pair, "objective exceeds cap at r=62.3705"),
        (1e-10, overflowing_pair, "objective exceeds cap at r=62.3705"),
        (1e-9, growing_pair, "objective still growing at the grid boundary"),
        (1e-10, growing_pair, "objective still growing at the grid boundary"),
    ], ids=["piece", "probe-rung", "piece-cap", "probe-rung-cap",
            "piece-growing", "probe-rung-growing"])
    def test_flag_reaches_result(self, monkeypatch, rel_tol, make, reason):
        # a flagged grid piece or probe sub-piece clears the flag on the
        # Brent exit, the cap exit and the growing exit, and moves nothing else
        clean = mazya_B(make())
        assert clean.converged and clean.reason == reason
        force_nonconverged(monkeypatch, rel_tol)
        res = mazya_B(make())
        assert not res.converged
        assert dataclasses.replace(res, converged=True) == clean

    def test_flagged_brent_step_reaches_result(self, monkeypatch):
        # the Brent steps' pieces are the only integrate_interval calls
        clean = mazya_B(classical_pair())
        steps, real = [], mazya_mod.integrate_interval

        def flagged(f, lo, hi, *tols):
            steps.append((lo, hi))
            return dataclasses.replace(real(f, lo, hi, *tols), converged=False)

        monkeypatch.setattr(mazya_mod, "integrate_interval", flagged)
        res = mazya_B(classical_pair())
        assert steps and not res.converged
        assert dataclasses.replace(res, converged=True) == clean

    def test_flagged_grid_fallback_piece_reaches_result(self, monkeypatch):
        # gaussian(2.2, 2) has grid pieces that neither one panel nor its
        # halves resolve, and exactly those reach _adaptive; flag them, not
        # the search steps or the probe sub-pieces
        pair = gaussian_pair(2.2, 2)
        _, rs = mazya_mod._log_grid(pair, 240)
        grid_pieces = set(zip(rs[:-1].tolist(), rs[1:].tolist()))
        seen = []
        real = quadrature._adaptive

        def flagged(f, edges, *args, **kwargs):
            val, err, ok, panels = real(f, edges, *args, **kwargs)
            if (float(edges[0]), float(edges[-1])) in grid_pieces:
                seen.append((edges[0], edges[-1]))
                ok = False
            return val, err, ok, panels

        monkeypatch.setattr(quadrature, "_adaptive", flagged)
        res = mazya_B(pair)
        assert seen == unresolved_grid_pieces(pair)[1] != []
        assert not res.converged and not res.divergent
        assert res.B == mazya_B(gaussian_pair(2.2, 2)).B

    @pytest.mark.parametrize("argv", [
        ["mazya", "--classical"],
        ["mazya", "--gaussian", "--p", "3", "--n", "2"],
        ["mazya", "--gaussian", "--p", "2", "--n", "3"],
    ], ids=["classical", "gaussian-finite", "gaussian-divergent"])
    def test_cli_verdict_indeterminate(self, monkeypatch, tmp_path, argv):
        # probe rungs run for every pair, so flag those
        force_nonconverged(monkeypatch, 1e-10)
        main(["--out", str(tmp_path)] + argv)
        doc = json.loads((tmp_path / "mazya.json").read_text())
        (check,) = doc["body"]["checks"]
        assert check["verdict"] == "indeterminate"
        assert "did not converge" in check["details"]["reason"]


class TestSearchTolerances:
    def test_rel_tol_flag_leaves_B_and_reports_search_tolerances(self, tmp_path):
        argv = ["mazya", "--gaussian", "--p", "3", "--n", "2"]
        main(["--out", str(tmp_path / "default")] + argv)
        main(["--out", str(tmp_path / "loose"), "--rel-tol", "1e-4"] + argv)
        (default,) = json.loads(
            (tmp_path / "default" / "mazya.json").read_text())["body"]["checks"]
        doc = json.loads((tmp_path / "loose" / "mazya.json").read_text())["body"]
        (loose,) = doc["checks"]
        assert doc["quadrature_spec"]["rel_tol"] == 1e-4
        assert loose["constants_used"]["B"] == default["constants_used"]["B"]
        assert loose["details"] == {
            "probe_rel_tol": 1e-10, "probe_abs_tol": 1e-300,
            "piece_rel_tol": 1e-9, "piece_abs_tol": 1e-16}
        assert (mazya_mod.PROBE_REL_TOL, mazya_mod.PIECE_REL_TOL,
                mazya_mod.PIECE_ABS_TOL) == (1e-10, 1e-9, 1e-16)
