import math

import mpmath
import numpy as np
import pytest
from conftest import retirement_sweep

from orlicz_hardy import quadrature
from orlicz_hardy.errors import DivergenceError, EvaluationError, PreconditionError
from orlicz_hardy.quadrature import (
    MAX_RADIUS,
    MIN_REL_TOL,
    ROUNDOFF,
    SYMMETRIES,
    GaussianMeasure,
    QuadratureSpec,
    RadialMeasure,
    IntegralResult,
    SupportHint,
    gaussian_tail_fn,
    gk_rule,
    integrate_gaussian_nd,
    integrate_interval,
    integrate_radial,
    integrate_radial_family,
    integrate_runs,
    moment,
    sphere_directions,
    sum_sq,
    surface_area,
    truncation_radius,
)
from orlicz_hardy.quadrature import _NODES, _gammaincc, _gk_panels, _median
from orlicz_hardy.sharpness import c1_lower_bound, stirling_ratio


class TestMoment:
    def test_half_gaussian_mass(self):
        assert moment(1, 0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)

    def test_two_dim_mass(self):
        assert moment(2, 0) == pytest.approx(1.0, rel=1e-14)

    def test_second_moment_three_dim(self):
        # 2^(3/2) Gamma(5/2) = 2^(3/2) * 3 sqrt(pi) / 4
        assert moment(3, 2) == pytest.approx(
            2.0 ** 1.5 * 0.75 * math.sqrt(math.pi), rel=1e-14)
        assert moment(3, 2) == pytest.approx(3.7599424119465006, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(PreconditionError):
            moment(0, 1)


EPS = np.finfo(float).eps
# s = (p + n)/2 of the Maz'ya mu tail, p at two decimals as mazya_scan draws it
MAZYA_S = sorted({(p + n) / 2.0 for p in (1.51, 1.76, 2.03, 2.37, 2.99, 3.05,
                                         3.47, 3.74, 4.0) for n in (1, 2, 3)})


class TestGammaOracle:
    """The package's Gamma functions against mpmath at 40 digits."""

    def test_gammaincc_full_accuracy(self):
        # exp(s ln x - x - ln Gamma(s)) carries eps * (1 + x) by itself
        s_values = [0.5 * k for k in range(1, 16)] + [0.75, 1.25, 2.75] + MAZYA_S
        xs = list(np.geomspace(1e-7, 250.0, 36))
        worst = (0.0, None)
        with mpmath.workdps(40):
            for s in s_values:
                lgamma_s = math.lgamma(s)
                assert _gammaincc(s, 0.0, lgamma_s) == 1.0
                # both sides of each switch between the series and the fraction
                edges = [1.0, s, s + 1.0, math.nextafter(s, 0.0)]
                for x in xs + edges:
                    exact = mpmath.gammainc(s, x, mpmath.inf, regularized=True)
                    rel = float(abs(_gammaincc(s, x, lgamma_s) - exact) / exact)
                    worst = max(worst, (rel / (EPS * (1.0 + x)), (s, x)))
        assert worst[0] <= 8.0, worst

    @pytest.mark.parametrize("degree", [-1.0, -1.5, -3.0])
    def test_tail_at_or_below_degree_minus_one_rejected(self, degree):
        # s = (degree + 1)/2 <= 0: no corpus member declares such an envelope
        with pytest.raises(PreconditionError, match="degree > -1"):
            gaussian_tail_fn(degree, 1.0)

    @pytest.mark.parametrize("rate", [0.0, -0.5])
    def test_tail_at_or_below_rate_zero_rejected(self, rate):
        # no decay: the tail of every radius is infinite
        with pytest.raises(PreconditionError, match="rate > 0"):
            gaussian_tail_fn(2.0, rate)

    def test_tail_maps_an_array_and_a_float_alike(self):
        # each element is the scalar formula's bits at its radius; a float
        # gives a 0-d array
        degree, rate = 2.5, 0.8
        s, lgamma_s = 0.5 * (degree + 1.0), math.lgamma(0.5 * (degree + 1.0))
        scale = math.exp(0.5 * (degree - 1.0) * math.log(2.0) - s * math.log(rate) + lgamma_s)
        radii = np.linspace(0.0, 12.0, 240)
        tail = gaussian_tail_fn(degree, rate)
        assert tail(radii).tolist() == [scale * _gammaincc(s, 0.5 * rate * r * r, lgamma_s)
                                        for r in radii.tolist()]
        assert tail(3.0).shape == () and float(tail(float(radii[60]))) == tail(radii)[60]
        assert tail(radii.reshape(12, 20)).tolist() == tail(radii).reshape(12, 20).tolist()

    def test_closed_forms_match_loggamma(self):
        # exp of a sum of logs is good to a few ulps of the largest log term
        def close(got, log_terms):
            exact = mpmath.exp(mpmath.fsum(log_terms))
            scale = 1.0 + float(mpmath.fsum(abs(t) for t in log_terms))
            return float(abs(got - exact) / exact) <= 2.0 * EPS * scale

        with mpmath.workdps(40):
            half, log2 = mpmath.mpf(1) / 2, mpmath.log(2)
            for n in range(1, 6):
                for k in np.arange(0.0, 16.25, 0.25):
                    assert close(moment(n, k), [(n + k - 2) * half * log2,
                                                mpmath.loggamma((n + k) * half)]), (n, k)
            for n in range(1, 30):
                assert close(surface_area(n), [log2, n * half * mpmath.log(mpmath.pi),
                                               -mpmath.loggamma(n * half)]), n
            for p in (2.0, 2.5, 3.0, 3.5, 4.0, 6.0):
                for n in (*range(1, 13), 20, 100):
                    terms = [p * half * log2, mpmath.loggamma((n + p) * half),
                             -mpmath.loggamma(n * half)]
                    assert close(c1_lower_bound(p, n), terms), (p, n)
                    if p > 2.0:
                        terms.append(-p * half * mpmath.log(n + p - 2))
                        assert close(stirling_ratio(p, n), terms), (p, n)


class TestRadial:
    def test_zero_function(self):
        res = radial(lambda r: np.zeros_like(r), 3)
        assert res.value == 0.0

    @pytest.mark.parametrize("k", [0, 1, 2, 4, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_powers_match_moments(self, n, k):
        res = radial(lambda r: r ** k, n,
                     envelope=SupportHint.decaying(k, 0.0))
        assert abs(res.value - moment(n, k)) <= 1e-8 * moment(n, k)
        assert abs(res.value - moment(n, k)) <= max(res.err_est, 1e-13)

    def test_linearity(self):
        f = lambda r: r ** 2
        g = lambda r: np.exp(-r)
        env = SupportHint.decaying(2, 0.0)
        a, b = 3.0, -0.5
        combo = radial(lambda r: a * f(r) + b * g(r), 2, envelope=env)
        fa = radial(f, 2, envelope=env)
        gb = radial(g, 2, envelope=env)
        assert combo.value == pytest.approx(a * fa.value + b * gb.value,
                                            abs=3.0 * (combo.err_est + fa.err_est + gb.err_est) + 1e-12)

    def test_nonfinite_integrand_reports_node(self):
        def bad(r):
            return np.where(np.abs(r - 1.0) < 0.05, np.nan, 1.0)
        with pytest.raises(EvaluationError, match="r="):
            radial(bad, 1)

    def test_divergent_envelope_rejected(self):
        with pytest.raises(DivergenceError, match="rate"):
            radial(lambda r: np.exp(r ** 2), 1,
                   envelope=SupportHint.decaying(0.0, -1.5))

    def test_breakpoint_kink(self):
        res = radial(lambda r: np.abs(r - 1.0), 1, breakpoints=(1.0,),
                     envelope=SupportHint.decaying(1, 0.0))
        left = integrate_interval(
            lambda r: (1.0 - r) * np.exp(-0.5 * r * r), 0.0, 1.0)
        # second piece: int_1^oo (r-1) e^(-r^2/2) dr via complement
        full = radial(lambda r: r - 1.0, 1,
                      envelope=SupportHint.decaying(1, 0.0))
        expected = left.value + (full.value - integrate_interval(
            lambda r: (r - 1.0) * np.exp(-0.5 * r * r), 0.0, 1.0).value)
        assert res.value == pytest.approx(expected, rel=1e-9)

    def test_truncation_radius_meets_tolerance(self):
        for deg, rate, tol in ((4, 1.0, 1e-14), (10, 0.1, 1e-12), (0, 2.0, 1e-10)):
            radius = truncation_radius(deg, rate, tol)
            assert radius ** deg * math.exp(-0.5 * rate * radius * radius) < tol
            assert gaussian_tail_fn(deg, rate)(radius) < tol * 10

    def test_radius_capped_where_the_weight_underflows(self):
        # exp(0.45 r^2) overflows near r = 40, where an abs_tol of 1e-30
        # would put the radius; the capped integral keeps the exact tail of
        # its envelope; int_0^oo exp(-0.05 r^2) dr = sqrt(5 pi)
        env = SupportHint.decaying(0.0, -0.9)
        res = radial(lambda r: np.exp(0.45 * r * r), 1,
                     QuadratureSpec(abs_tol=1e-30), envelope=env)
        assert res.radius == MAX_RADIUS
        assert math.exp(-0.5 * MAX_RADIUS ** 2) == pytest.approx(
            np.finfo(float).tiny, rel=1e-12)
        assert res.err_est >= gaussian_tail_fn(0.0, 0.1)(MAX_RADIUS) > 0.0
        exact = math.sqrt(5.0 * math.pi)
        assert abs(res.value - exact) <= res.err_est


def radial(f, n, spec=None, envelope=None, **kwargs):
    """`integrate_radial` of the one part (f, None)."""
    res, = integrate_radial([(f, None)], n, spec, envelopes=[envelope], **kwargs)
    return res


def gaussian(g, n, spec=None, envelope=None, transform=None, **kwargs):
    """`integrate_gaussian_nd` of the one part (g, transform)."""
    res, = integrate_gaussian_nd([(g, transform)], n, spec, envelopes=[envelope], **kwargs)
    return res


class TestGaussianNd:
    def test_constant_two_dim(self):
        res = gaussian(lambda x: np.ones(x.shape[:-1]), 2)
        assert res.value == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_normalized_flag(self):
        res = gaussian(lambda x: np.ones(x.shape[:-1]), 3,
                                    normalized=True)
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_radial_profile_matches_radial_any_seed(self):
        def g(x):
            s = (x * x).sum(axis=-1)
            return np.exp(-0.25 * s)
        target = surface_area(3) * radial(lambda r: np.exp(-0.25 * r * r), 3).value
        res = gaussian(g, 3)
        assert res.value == pytest.approx(target, rel=1e-9)
        assert res.angular_sem < 1e-12 * abs(target)

    def test_coordinate_square_within_error(self):
        res = gaussian(lambda x: x[..., 0] ** 2, 2,
                                    envelope=SupportHint.decaying(2, 0.0))
        assert abs(res.value - 2.0 * math.pi) <= 4.0 * res.err_est

    def test_one_dim_exact_directions(self):
        # S^0 = {+1, -1}: integral of (x + 1) against exp(-x^2/2) is sqrt(2 pi)
        res = gaussian(lambda x: x[..., 0] + 1.0, 1,
                                  envelope=SupportHint.decaying(1, 0.0))
        assert res.value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-10)

    def test_directions_antithetic(self):
        dirs = sphere_directions(4)
        assert dirs.shape == (32, 4)
        np.testing.assert_allclose(dirs[:16], -dirs[16:], atol=0)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_directions_are_the_fixed_rule(self, n):
        # 16 antithetic pairs from the fixed seed, bit for bit, drawn once
        raw = np.random.default_rng(20260809).standard_normal((16, n))
        y = raw / np.linalg.norm(raw, axis=1)[:, None]
        dirs = sphere_directions(n)
        assert np.array_equal(dirs, np.concatenate([y, -y]))
        assert not dirs.flags.writeable
        assert sphere_directions(n) is dirs

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_an_even_family_on_the_drawn_directions_equals_the_full_sphere(self, n):
        # each antipode's row is a copy of its drawn direction's, so value,
        # error and angular error are those of every direction, bit for bit,
        # for an integrand that reads the same values at x and -x (numpy's
        # x ** 3 and x ** 4 of a negative x need not mirror a positive one's)
        def g(x):
            s = (x * x).sum(axis=-1)
            return x[..., 0] ** 2 * (1.0 + x[..., -1] ** 2) ** 2 * np.exp(-0.3 * s)

        env = SupportHint.decaying(6.0, 0.6)
        parts = [(g, None), (g, lambda v, x: np.linalg.norm(x, axis=-1) * v)]
        even = integrate_gaussian_nd(parts, n, envelopes=[env] * 2, symmetry="even")
        assert even == integrate_gaussian_nd(parts, n, envelopes=[env] * 2)
        assert n == 1 or even[0].angular_sem > 0.0

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_radial_family_integrates_e1_alone(self, n, normalized):
        def g(x):
            s = (x * x).sum(axis=-1)
            return (1.0 + s) * np.exp(-0.25 * s)

        env = SupportHint.decaying(2.0, 0.5)
        res = gaussian(g, n, envelope=env, normalized=normalized, symmetry="radial")
        one, = integrate_radial([(lambda r: (1.0 + r * r) * np.exp(-0.25 * r * r), None)],
                                n, envelopes=[env])
        factor = (2.0 * math.pi) ** (-n / 2.0) if normalized else 1.0
        assert (res.value, res.err_est, res.angular_sem) == (
            surface_area(n) * one.value * factor, surface_area(n) * one.err_est * factor, 0.0)

    def test_an_unknown_symmetry_is_rejected(self):
        with pytest.raises(PreconditionError, match="symmetry must be one of"):
            gaussian(lambda x: np.ones(x.shape[:-1]), 2, symmetry="odd")

    def test_zero_dimension_rejected(self):
        # formerly the direction re-draw loop spun forever for n = 0
        with pytest.raises(PreconditionError, match="dimension"):
            gaussian(lambda x: 1.0 + 0.0 * x[..., 0], 0)
        with pytest.raises(PreconditionError, match="dimension"):
            sphere_directions(-1)

    def test_spec_validation(self):
        with pytest.raises(PreconditionError):
            QuadratureSpec(rel_tol=0.5)
        # at the panels' roundoff floor no tolerance can be met
        for low in (1e-15, ROUNDOFF, np.nextafter(MIN_REL_TOL, 0.0)):
            with pytest.raises(PreconditionError, match="100 eps"):
                QuadratureSpec(rel_tol=low)
        assert QuadratureSpec(rel_tol=MIN_REL_TOL).rel_tol == MIN_REL_TOL
        for bad in (math.inf, math.nan, -1.0):
            with pytest.raises(PreconditionError, match="abs_tol"):
                QuadratureSpec(abs_tol=bad)
        assert QuadratureSpec(abs_tol=0.0).abs_tol == 0.0
        with pytest.raises(PreconditionError):
            GaussianMeasure(0)


def bump(x):
    s = (x * x).sum(axis=-1)
    return (1.0 + x[..., 0] ** 3) * np.exp(-0.3 * s)


class TestSampleStore:
    """The contract of a point function that `integrate_gaussian_nd` samples."""

    def test_one_value_per_point_required(self):
        # a scalar once gave a NaN error estimate with no warning
        with pytest.raises(PreconditionError, match="one value per point"):
            gaussian(lambda x: 1.0, 2)


class TestRoundoffFloor:
    def test_panel_error_is_at_least_fifty_eps_of_its_abs_sum(self):
        # a polynomial of degree 5 is exact under G7: |K15 - G7| is rounding
        lo, hi = np.array([0.0, 1.0]), np.array([1.0, 3.0])
        vals, errs = _gk_panels(lambda x: np.stack([x ** 5, -x ** 5]), lo, hi)
        exact = (hi ** 6 - lo ** 6) / 6.0
        np.testing.assert_allclose(vals, [exact, -exact], rtol=1e-14)
        np.testing.assert_allclose(errs, ROUNDOFF * np.array([exact, exact]), rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_smallest_accepted_rel_tol_is_met(self, n):
        # a nonnegative row's summed floor is ROUNDOFF * |value|, half the
        # budget MIN_REL_TOL * |value| leaves
        spec = QuadratureSpec(rel_tol=MIN_REL_TOL, abs_tol=0.0)
        found = integrate_radial(
            [(lambda r: r ** 4 * np.exp(-r), None), (lambda r: 1.0 / (1.0 + r * r), None)],
            n, spec, envelopes=[SupportHint.decaying(4, 0.0), SupportHint.decaying(0, 0.0)])
        found.append(gaussian(lambda x: np.exp(-0.25 * (x * x).sum(axis=-1)), n, spec))
        assert all(res.converged for res in found)


class TestFamilies:
    def test_each_row_adds_its_own_tail_from_the_shared_radius(self):
        # a slowly decaying row sets the radius; a fast one is integrated
        # out to it too, and its tail from there is far below its own cut
        slow, fast = SupportHint.decaying(0.0, -0.5), SupportHint.decaying(0.0, 1.0)
        vals, errs, radius, ok, _ = integrate_radial_family(
            lambda r, live: np.stack([np.exp(0.25 * r * r), np.exp(-0.5 * r * r)])[live], 1,
            envelopes=(slow, fast))
        assert ok
        alone = [radial(lambda r: np.exp(0.25 * r * r), 1, envelope=slow),
                 radial(lambda r: np.exp(-0.5 * r * r), 1, envelope=fast)]
        assert radius == alone[0].radius > alone[1].radius
        exact = [math.sqrt(math.pi), math.sqrt(math.pi) / 2.0]
        for value, err, single, ref in zip(vals, errs, alone, exact):
            assert abs(value - ref) <= err
            assert abs(value - single.value) <= err + single.err_est
        assert errs[1] >= gaussian_tail_fn(0.0, 2.0)(radius)

    def test_one_envelope_per_row(self):
        with pytest.raises(PreconditionError, match="3 envelopes for a family of 2"):
            integrate_radial_family(lambda r, live: np.stack([r, r]), 1,
                                    envelopes=(None, None, None))
        with pytest.raises(PreconditionError, match="2 envelopes for 1 parts"):
            integrate_gaussian_nd([(bump, None)], 2, envelopes=(None, None))

    def test_gaussian_parts_read_each_store_once_per_sweep(self, monkeypatch):
        # each distinct point function is called exactly once per sweep in
        # which a part that reads it has not retired, on that sweep's points
        # r y_j: the GK15 abscissae of its panels times the sphere directions
        sweeps, calls = [], []
        plain = quadrature._gk_panels

        def counted(f, lo, hi):
            sweeps.append((lo, hi))
            return plain(f, lo, hi)

        def recorded(g):
            def fn(x):
                calls.append((g, len(sweeps) - 1, x))
                return g(x)
            return fn

        monkeypatch.setattr(quadrature, "_gk_panels", counted)

        def cross(x):
            return x[..., 0] * bump(x)

        g, other = recorded(bump), recorded(cross)
        env = SupportHint.decaying(3.0, 0.6)
        family = integrate_gaussian_nd(
            [(g, None), (g, lambda v, x: v * v), (other, None),
             (g, lambda v, x: 2.0 * v)], 2, envelopes=[env] * 4)
        monkeypatch.undo()
        assert len(sweeps) > 1
        # bump is read by parts 0, 1 and 3, cross by part 2
        last = [retirement_sweep([lo.size for lo, _ in sweeps], res.panels) for res in family]
        live = {bump: max(last[i] for i in (0, 1, 3)), cross: last[2]}
        assert [(fn, s) for fn, s, _ in calls] == [
            (fn, s) for s in range(len(sweeps)) for fn in (bump, cross) if s <= live[fn]]
        dirs = sphere_directions(2)
        for _, s, x in calls:
            lo, hi = sweeps[s]
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            r = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
            assert np.array_equal(x, r[None, :, None] * dirs[:, None, :])
        alone = [gaussian(bump, 2, envelope=env),
                 gaussian(bump, 2, envelope=env, transform=lambda v, x: v * v)]
        for res, single in zip(family, alone):
            assert abs(res.value - single.value) <= res.err_est + single.err_est
        assert family[3].value == pytest.approx(2.0 * family[0].value, rel=1e-15)

    def test_radial_parts_read_each_profile_once_per_sweep(self, monkeypatch):
        sweeps, reads = count_sweeps(monkeypatch), []

        def f(r):
            reads.append(r.size)
            return np.exp(-0.5 * r * r) * np.cos(r)

        env = SupportHint.decaying(0.0, 1.0)
        family = integrate_radial(
            [(f, lambda v, r: np.abs(v)), (f, lambda v, r: v * v), (f, None)], 2,
            envelopes=[env] * 3)
        monkeypatch.undo()
        assert len(sweeps) > 1 and reads == [15 * p for p in sweeps]
        single, = integrate_radial([(f, lambda v, r: v * v)], 2, envelopes=[env])
        assert abs(family[1].value - single.value) <= family[1].err_est + single.err_est


def count_sweeps(monkeypatch):
    """The panel count of every `_gk_panels` sweep from here on."""
    sweeps, plain = [], quadrature._gk_panels

    def counted(f, lo, hi):
        sweeps.append(lo.size)
        return plain(f, lo, hi)

    monkeypatch.setattr(quadrature, "_gk_panels", counted)
    return sweeps


def gauss_bump(x):
    return np.exp(-50.0 * (np.asarray(x, float) - 0.3) ** 2)


class TestReturnedPanels:
    @pytest.mark.parametrize("rows", [1, 3])
    def test_gk_panels_on_the_returned_panels_reproduce_the_totals(self, rows):
        # the panels `_adaptive` returns, in its order, give its totals bit
        # for bit when the GK15 pair runs on them again
        def f(x):
            return np.stack([np.cos(k * x) * np.exp(-x * x) for k in range(1, rows + 1)])

        vals, errs, ok, (panels,) = quadrature._adaptive(
            lambda x, live: f(x), np.array([0.0, 1.0, 6.0]), 1e-12, 1e-15, parts=(1, rows))
        lo, hi = panels
        assert ok and lo.size > 2 and np.all(hi > lo)
        assert np.array_equal(np.sort(lo)[1:], np.sort(hi)[:-1])  # they tile [0, 6]
        again, again_errs = _gk_panels(f, lo, hi)
        assert np.array_equal(again.sum(axis=1), vals)
        assert np.array_equal(again_errs.sum(axis=1), errs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_rule_of_the_panels_sums_to_the_family_value(self, n):
        # `gk_rule` of a family's panels is the Kronrod sum the family took;
        # the reported error adds only the tail beyond the panels
        radial, = integrate_radial([(gauss_bump, None)], n,
                                   envelopes=[SupportHint.decaying(0.0, 1.0)])
        r, w = gk_rule(radial.panels, RadialMeasure(n))
        assert np.sum(w * gauss_bump(r)) == pytest.approx(radial.value, rel=1e-14)
        for normalized in (False, True):
            gaussian, = integrate_gaussian_nd([(bump, None)], n,
                                              envelopes=[SupportHint.decaying(3.0, 0.6)],
                                              normalized=normalized)
            x, w = gk_rule(gaussian.panels, GaussianMeasure(n, normalized))
            assert x.shape == w.shape + (n,)
            assert np.sum(w * bump(x)) == pytest.approx(gaussian.value, rel=1e-14)


    @pytest.mark.parametrize("symmetry", SYMMETRIES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_part_is_the_mean_and_sem_of_its_own_rows(self, n, symmetry, monkeypatch):
        # the family's reduction over (parts, directions) gives each part what
        # the part's own rows give alone, bit for bit
        found, family = [], quadrature.integrate_radial_family

        def recorded(*args, **kwargs):
            found.append(family(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(quadrature, "integrate_radial_family", recorded)

        def g(x):
            s = (x * x).sum(axis=-1)
            return (1.0 + s) * np.exp(-0.3 * s)

        env = SupportHint.decaying(3.0, 0.6)
        parts = [(g, None), (g, lambda v, x: v * v), (bump, None)]
        for normalized in (False, True):
            found.clear()
            results = integrate_gaussian_nd(parts, n, envelopes=[env] * 3,
                                            normalized=normalized, symmetry=symmetry)
            (vals, errs, radius, ok, _), = found
            m = len(results[0].panels[2])
            rows = vals.size // len(parts)
            area = surface_area(n)
            factor = (2.0 * math.pi) ** (-n / 2.0) if normalized else 1.0
            for i, res in enumerate(results):
                v, e = (np.tile(a[i * rows:(i + 1) * rows], m // rows) for a in (vals, errs))
                half = m // 2
                sem = (float(np.std(0.5 * (v[:half] + v[half:]), ddof=1) / math.sqrt(half))
                       if half >= 2 else 0.0)
                assert res.value == area * float(v.mean()) * factor
                assert res.err_est == (area * float(e.mean()) + area * sem) * factor
                assert res.angular_sem == sem * factor
                assert (res.radius, res.converged) == (radius, ok)

    @pytest.mark.parametrize("symmetry", SYMMETRIES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_rule_of_the_panels_is_the_one_the_symmetry_took(self, n, symmetry):
        # a radial family's rule is e_1 with the whole surface area, an even
        # one's the drawn half of the sphere directions with doubled weights;
        # the others average over every sphere direction
        def g(x):
            s = (x * x).sum(axis=-1)
            return (1.0 + s) * np.exp(-0.3 * s)

        res, = integrate_gaussian_nd([(g, None)], n, envelopes=[SupportHint.decaying(2.0, 0.6)],
                                     symmetry=symmetry)
        x, w = gk_rule(res.panels, GaussianMeasure(n))
        rows = {"none": len(sphere_directions(n)), "even": len(sphere_directions(n)) // 2,
                "radial": 1}
        assert x.shape[0] == rows[symmetry]
        assert np.sum(w * g(x)) == pytest.approx(res.value, rel=1e-14)


def flat_pieces(f, los, his, rel_tol=1e-10, abs_tol=1e-14):
    """`integrate_runs` flattened: one IntegralResult per piece, in order,
    each run asked for when its first piece is reached."""
    ends = iter(np.asarray(his, dtype=float).tolist())
    for values, errors, converged in integrate_runs(f, los, his, rel_tol, abs_tol):
        for value, err, ok in zip(values, errors, converged):
            yield IntegralResult(value, err, next(ends), converged=ok)


class TestIntegrateRuns:
    # pieces one panel resolves, pieces that need refining, and a zero-width one
    LOS = [0.0, 0.1, 0.1, 0.2, 1.0, 1.0]
    HIS = [0.1, 0.1, 0.2, 1.0, 3.0, 1.0 + 1e-3]

    def test_each_piece_is_integrate_interval(self):
        pieces = list(flat_pieces(gauss_bump, self.LOS, self.HIS, 1e-10, 1e-14))
        assert pieces == [integrate_interval(gauss_bump, lo, hi, 1e-10, 1e-14)
                          for lo, hi in zip(self.LOS, self.HIS)]
        assert any(p.err_est < 1e-14 for p in pieces)

    def test_one_batched_panel_then_refinement_on_demand(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return gauss_bump(x)

        pieces = flat_pieces(f, self.LOS, self.HIS, 1e-10, 1e-14)
        assert calls == []
        next(pieces)
        # one panel per piece, the zero-width one left out; then the halves
        # of the two pieces those panels miss, [0.2, 1] and [1, 3], together
        assert calls == [15 * 5, 15 * 4]
        next(pieces), next(pieces)
        assert len(calls) == 2
        next(pieces)  # [0.2, 1.0] holds the bump: its halves do not resolve it
        assert len(calls) > 2

    def test_zero_width_piece_yields_zero_without_evaluating(self):
        def f(x):
            raise AssertionError("evaluated")

        (piece,) = flat_pieces(f, [2.0], [2.0])
        assert (piece.value, piece.err_est, piece.radius) == (0.0, 0.0, 2.0)

    def test_error_raised_only_at_its_piece(self):
        def f(x):
            x = np.asarray(x, float)
            return np.where(x < 1.0, 1.0, np.inf)

        pieces = flat_pieces(f, [0.0, 0.5, 1.0], [0.5, 1.0, 2.0])
        assert next(pieces).value == pytest.approx(0.5, rel=1e-14)
        assert next(pieces).value == pytest.approx(0.5, rel=1e-14)
        with pytest.raises(EvaluationError):
            next(pieces)


    def test_a_raising_batch_is_halved_when_reached(self):
        # pieces from x = 1 on are non-finite: the batch of 8 raises, the
        # first half is one batch, and the second is halved down to [1, 1.25]
        sizes = []

        def f(x):
            sizes.append(x.size // 15)
            return np.where(x < 1.0, 1.0 + x, np.inf)

        edges = np.linspace(0.0, 2.0, 9).tolist()
        pieces = flat_pieces(f, edges[:-1], edges[1:], 1e-10, 1e-14)
        got = [next(pieces) for _ in range(4)]
        assert sizes == [8, 4]
        for piece, lo, hi in zip(got, edges[:4], edges[1:5]):
            ref = integrate_interval(lambda x: 1.0 + x, lo, hi, 1e-10, 1e-14)
            assert (piece.value, piece.radius, piece.converged) == (
                ref.value, ref.radius, ref.converged)
            # a linear f's error is the roundoff floor, a matrix product
            # whose last bit depends on how many panels share the call
            assert piece.err_est == pytest.approx(ref.err_est, rel=1e-15)
        with pytest.raises(EvaluationError):
            next(pieces)
        assert sizes == [8, 4, 4, 2, 1]


# (f, a, b, rel_tol, abs_tol, value, err_est, converged) of one _adaptive
# call from [a, b], the floats in hex
INTERVALS_BEFORE = [
    ("bump", 0.0, 0.1, 1e-10, 1e-14, "0x1.5f8d10dcbae42p-8", "0x1.a000000000000p-53", True),
    ("bump", 0.2, 1.0, 1e-10, 1e-14, "0x1.afe91dc9c4142p-3", "0x1.0cce916b2d818p-38", True),
    ("bump", 0.0, 3.0, 1e-10, 1e-14, "0x1.00550e0587995p-2", "0x1.ec3595ac3f32ep-37", True),
    ("bump", 0.0, 3.0, 1e-2, 1e-14, "0x1.00550de184413p-2", "0x1.950f510ab9d4fp-12", True),
    ("singular", 0.0, 1.0, 1e-12, 1e-300, "0x1.3e2389fd58b84p+3", "0x1.833358aac0255p-7",
     False),
    ("oscillating", 1e-3, 1.0, 1e-12, 1e-300, "0x1.02150106c93f4p-1",
     "0x1.3637368f109e4p-42", True),
]
INTERVAL_FS = {
    "bump": gauss_bump,
    "singular": lambda x: np.asarray(x, float) ** -0.9,
    "oscillating": lambda x: np.sin(1.0 / np.asarray(x, float)),
}


class TestIntegrateIntervalBitForBit:
    @pytest.mark.parametrize("name, a, b, rel_tol, abs_tol, value, err_est, converged",
                             INTERVALS_BEFORE)
    def test_value_error_and_flag_of_one_adaptive_call(self, name, a, b, rel_tol, abs_tol,
                                                       value, err_est, converged):
        # one panel ([0, 0.1]), one split, many splits, and a singular
        # integrand that runs out of splits
        f = INTERVAL_FS[name]
        res = integrate_interval(f, a, b, rel_tol, abs_tol)
        assert (res.value.hex(), res.err_est.hex(), res.converged) == (
            value, err_est, converged)
        val, err, ok, _ = quadrature._adaptive(lambda x, live: f(x), np.array([a, b]),
                                               rel_tol, abs_tol, parts=(1, 1))
        assert (res.value, res.err_est, res.converged) == (float(val[0]), float(err[0]), ok)

    def test_missed_pieces_are_halved_in_one_call(self):
        # pieces across the bump that one panel, two halves and more splits
        # resolve: one call for a panel each, one for the halves of every
        # piece those panels miss, then one per further split of a piece its
        # halves do not resolve
        edges = [0.0, 0.05, 0.1, 0.5, 0.9, 1.0, 3.0]
        sweeps = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            alone = []
            quadrature._adaptive(lambda x, live: alone.append(1) or gauss_bump(x),
                                 np.array([lo, hi]), 1e-10, 1e-14, parts=(1, 1))
            sweeps.append(len(alone))
        assert sum(s > 1 for s in sweeps) > 1 and sum(s > 2 for s in sweeps) > 0
        calls = []
        pieces = list(flat_pieces(lambda x: calls.append(1) or gauss_bump(x),
                                  edges[:-1], edges[1:], 1e-10, 1e-14))
        assert len(calls) == 2 + sum(max(s - 2, 0) for s in sweeps) < sum(sweeps)
        assert [(p.value, p.converged) for p in pieces] == [
            (r.value, r.converged) for r in (integrate_interval(gauss_bump, lo, hi, 1e-10, 1e-14)
                                             for lo, hi in zip(edges[:-1], edges[1:]))]


def awkward_components(rng, shape):
    """Normal draws over many magnitudes, with zeros, negative zeros,
    subnormals, infinities and nans among them."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-200, 200, size=shape)
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1e200])
    where = rng.random(shape) < 0.2
    x[where] = rng.choice(specials, size=int(where.sum()))
    return x


class TestSumSq:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9])
    def test_the_sum_of_squares_is_numpys_bit_for_bit(self, n):
        # field magnitudes, |x| and |grad u| must not move by a bit
        x = awkward_components(np.random.default_rng(n), (16, 195, n))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(sum_sq(x), (x * x).sum(axis=-1), equal_nan=True)
            assert np.array_equal(np.sqrt(sum_sq(x)), np.linalg.norm(x, axis=-1),
                                  equal_nan=True)
            assert sum_sq(x[0, 0]).shape == ()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_flattened_hessian_gives_its_hs_norm_bit_for_bit(self, n):
        h = awkward_components(np.random.default_rng(10 + n), (16, 195, n, n))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(sum_sq(h.reshape(16, 195, n * n)),
                                  (h * h).sum(axis=(-2, -1)), equal_nan=True)


class TestMedian:
    def test_bit_identical_to_numpy(self):
        # the refiner's split threshold must not move: compare bits, ties included
        rng = np.random.default_rng(7)
        for i in range(2000):
            x = rng.random(int(rng.integers(1, 40))) * 10.0 ** int(rng.integers(-6, 6))
            if i % 3 == 0:
                x = np.round(x, 1)
            if i % 5 == 0:
                x[rng.integers(0, x.size)] = x[0]
            expected = np.median(x)
            got = _median(x)
            assert got == expected and type(got) is type(expected), x


def kinked(x):
    return np.abs(np.sin(7.0 * x)) * np.exp(-0.5 * x * x)


class TestRetiredParts:
    def test_a_part_retires_on_panels_that_give_its_totals(self):
        # two parts of two rows each: a part's own panels, run through the
        # GK15 pair again, give its rows' totals bit for bit, each within
        # its tolerance, and the smooth part retires on fewer panels
        blocks = [[lambda x: np.exp(-x * x), lambda x: np.cos(x) * np.exp(-x * x)],
                  [kinked, lambda x: np.exp(-x)]]

        def f(x, live):
            return np.stack([row(x) for part in live for row in blocks[part]])

        vals, errs, ok, panels = quadrature._adaptive(f, np.array([0.0, 1.0, 6.0]),
                                                      1e-12, 1e-15, parts=(2, 2))
        assert ok and len(panels) == 2
        for i, (lo, hi) in enumerate(panels):
            again, again_errs = _gk_panels(lambda x: f(x, [i]), lo, hi)
            assert np.array_equal(again.sum(axis=1), vals[2 * i:2 * i + 2])
            assert np.array_equal(again_errs.sum(axis=1), errs[2 * i:2 * i + 2])
            assert np.all(errs[2 * i:2 * i + 2]
                          <= np.maximum(1e-15, 1e-12 * np.abs(vals[2 * i:2 * i + 2])))
        assert panels[0][0].size < panels[1][0].size

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_retired_part_is_evaluated_in_no_later_sweep(self, n, monkeypatch):
        # each source and transform is called once a sweep, in every sweep
        # up to the one after which the last part that reads it retired, and
        # in none after; gk_rule of a part's panels is its Kronrod sum
        sweeps, calls = count_sweeps(monkeypatch), []

        def recorded(name, fn):
            def wrapper(*args):
                calls.append((name, len(sweeps) - 1))
                return fn(*args)
            return wrapper

        smooth = recorded("smooth", lambda r: np.exp(-0.25 * r * r))
        sharp = recorded("kinked", kinked)
        square = recorded("square", lambda v, r: v * v)
        env = SupportHint.decaying(0.0, 1.0)
        parts = [(smooth, None), (sharp, None), (sharp, square)]
        family = integrate_radial(parts, n, envelopes=[env] * 3)
        monkeypatch.undo()
        last = [retirement_sweep(sweeps, res.panels) for res in family]
        assert last[0] < min(last[1:]) and max(last) == len(sweeps) - 1
        live = {"smooth": last[0], "kinked": max(last[1:]), "square": last[2]}
        for name, until in live.items():
            assert [s for fn, s in calls if fn == name] == list(range(until + 1)), name
        for (src, transform), res in zip(parts, family):
            r, w = gk_rule(res.panels, RadialMeasure(n))
            v = src(r) if transform is None else transform(src(r), r)
            assert np.sum(w * v) == pytest.approx(res.value, rel=1e-14)

    def test_each_gaussian_part_keeps_its_own_panels(self):
        # the sphere-direction rows of one modular are one part: its own
        # (lo, hi, directions, copies) give its value through gk_rule
        def wide(x):
            return np.exp(-0.1 * sum_sq(x))

        env = SupportHint.decaying(3.0, 0.6)
        found = integrate_gaussian_nd([(bump, None), (wide, None)], 2, envelopes=[env] * 2)
        assert found[0].panels[0].size != found[1].panels[0].size
        for res, g in zip(found, (bump, wide)):
            x, w = gk_rule(res.panels, GaussianMeasure(2))
            assert np.sum(w * g(x)) == pytest.approx(res.value, rel=1e-14)

    def test_a_family_across_dimensions_weights_each_part_by_its_own(self):
        # one source at n = 1, 2 and 3 is read once a sweep, and each result
        # is its own dimension's moment, within its err_est
        sweeps, reads = [], []
        plain = quadrature._gk_panels

        def f(r):
            reads.append(r.size)
            return np.ones_like(r)

        def counted(fs, lo, hi):
            sweeps.append(lo.size)
            return plain(fs, lo, hi)

        env = SupportHint.decaying(0.0, 0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_gk_panels", counted)
            found = integrate_radial([(f, None)] * 3, [1, 2, 3], envelopes=[env] * 3)
        assert reads == [15 * p for p in sweeps]
        for n, res in zip((1, 2, 3), found):
            assert abs(res.value - moment(n, 0)) <= res.err_est
            assert res.radius == found[0].radius
        with pytest.raises(PreconditionError, match="2 dimensions for a family of 3 parts"):
            integrate_radial([(f, None)] * 3, [1, 2], envelopes=[env] * 3)
