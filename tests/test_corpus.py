import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import radial_profile
from field_oracle import oracle

from orlicz_hardy import corpus
from orlicz_hardy.corpus import (
    FieldFactory,
    build_field_function,
    build_radial_function,
    default_manifest_path,
    fingerprint,
    load_manifest,
)
from orlicz_hardy.errors import CertificationError, ManifestError, PreconditionError
from orlicz_hardy.functionals import modular_triple_nd
from orlicz_hardy.hardy import check_hn1
from orlicz_hardy.nfunc import GridSpec, NFunction, certify


# every packaged or example manifest that declares radial members
MANIFESTS = [default_manifest_path()] + [
    path for path in sorted((Path(__file__).parent.parent / "docs" / "examples").glob("*.json"))
    if "radial_functions" in json.loads(path.read_text())]


def write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestDefaultManifest:
    def test_loads_clean(self, manifest):
        assert set(manifest.nfunctions) == {"p2", "p2.5", "p3", "p4", "p2log"}
        assert len(manifest.radial_functions) == 9
        assert len(manifest.field_functions) == 6

    def test_exponents_pinned(self, manifest):
        assert manifest.nfunc("p3").d_exp == 3.0
        assert manifest.nfunc("p3").D_exp == 3.0
        assert manifest.nfunc("p2log").d_exp == 2.0
        assert manifest.nfunc("p2log").D_exp == 3.0
        assert manifest.nfunc("p2log").delta2_const == 8.0

    def test_reload_identical(self, manifest):
        again = load_manifest()
        assert again.fingerprint == manifest.fingerprint
        assert again.member_fingerprints == manifest.member_fingerprints
        for label, nf in manifest.nfunctions.items():
            other = again.nfunctions[label]
            assert (nf.d_exp, nf.D_exp, nf.delta2_const) == \
                (other.d_exp, other.D_exp, other.delta2_const)

    def test_members_have_fingerprints(self, manifest):
        for label in list(manifest.nfunctions) + list(manifest.radial_functions) \
                + list(manifest.field_functions):
            assert label in manifest.member_fingerprints

    def test_unknown_label_helpful(self, manifest):
        with pytest.raises(ManifestError, match="p9"):
            manifest.nfunc("p9")


class TestRejection:
    def test_schema_required(self, tmp_path):
        path = write_manifest(tmp_path, {"nfunctions": []})
        with pytest.raises(ManifestError, match="schema"):
            load_manifest(path)

    def test_parse_error_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,\n  "nfunctions": [}')
        with pytest.raises(ManifestError, match="line"):
            load_manifest(path)

    def test_constant_nfunction_rejected(self):
        flat = NFunction(eval=lambda r: np.interp(r, [0.1, 1.0, 10.0], [1.0, 1.0, 1.0]),
                         d_exp=2.0, D_exp=2.0, delta2_const=4.0, label="flat")
        with pytest.raises(CertificationError, match="nonconstant"):
            certify(flat, GridSpec(0.1, 10.0))

    def test_lower_index_below_one_rejected(self):
        # constant past r = 1000: not convex there, and its lower index is 0
        flat_tail = NFunction(
            eval=lambda r: np.interp(r, [0, 0.001, 100, 1000, 2000], [0, 1e-6, 1e4, 1e6, 1e6]),
            d_exp=0.0, label="flat_tail")
        problems = []
        corpus._check_nfunction_shape(flat_tail, GridSpec(1e-6, 2000.0), problems)
        assert "'flat_tail': certified lower index d = 0 < 1" in " ".join(problems)
        assert "'flat_tail': midpoint convexity fails near r=995" in " ".join(problems)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_manifest(tmp_path, {
            "schema": 1,
            "nfunctions": [{"label": "x", "kind": "mystery", "params": {}}],
        })
        with pytest.raises(ManifestError, match="unknown"):
            load_manifest(path)

    def test_table_is_an_unknown_kind(self, tmp_path):
        # N-functions declare their growth indices; a table could only
        # estimate them from its samples
        path = write_manifest(tmp_path, {
            "schema": 1,
            "nfunctions": [{"label": "tab3", "kind": "table",
                            "params": {"r": [0.0, 1.0, 2.0], "m": [0.0, 1.0, 8.0]}}],
        })
        with pytest.raises(ManifestError,
                           match="unknown N-function kind 'table' for 'tab3'"):
            load_manifest(path)

    @pytest.mark.parametrize("section, entry", [
        ("field_functions", {"kind": "monomial_gauss",
                             "params": {"exponents": [-1], "rate": 1.0}}),
        ("field_functions", {"kind": "monomial_gauss",
                             "params": {"exponents": [1.5], "rate": 1.0}}),
        ("field_functions", {"kind": "monomial_gauss",
                             "params": {"exponents": [1, 0.5], "rate": 1.0}}),
        ("radial_functions", {"kind": "bump",
                              "params": {"center": 2.0, "width": 1.0, "degree": 2.5}}),
    ], ids=["negative-exponent", "fractional-exponent", "second-exponent",
            "fractional-degree"])
    def test_non_integral_or_negative_integer_parameter_rejected(self, tmp_path,
                                                                 section, entry):
        path = write_manifest(tmp_path, {
            "schema": 1, section: [{"label": "odd", **entry}]})
        with pytest.raises(ManifestError, match="'odd' needs a non-negative integer"):
            load_manifest(path)

    def test_whole_float_integer_parameters_load(self, tmp_path):
        path = write_manifest(tmp_path, {
            "schema": 1,
            "radial_functions": [{"label": "b", "kind": "bump",
                                  "params": {"center": 2.0, "width": 1.0, "degree": 3.0}}],
            "field_functions": [{"label": "m", "kind": "monomial_gauss",
                                 "params": {"exponents": [2.0, 1], "rate": 1.0}}],
        })
        manifest = load_manifest(path)
        u = manifest.field_functions["m"].instantiate(2)
        x = np.array([[0.5, 2.0]])
        assert u.u(x)[0] == pytest.approx(0.25 * 2.0 * np.exp(-0.5 * 4.25), rel=1e-15)
        assert manifest.radial_functions["b"].u(2.5) == pytest.approx(0.75 ** 3, rel=1e-15)

    def test_derivative_mismatch_rejected(self):
        # a bump declared with the wrong width in du shows up as a mismatch
        bad = build_radial_function({
            "label": "ok", "kind": "bump",
            "params": {"center": 2.0, "width": 1.0, "degree": 3}})
        from orlicz_hardy.functionals import validate_radial
        import dataclasses
        broken = dataclasses.replace(
            bad, du=lambda r: 2.0 * np.asarray(bad.du(r), float))
        problems = validate_radial(broken)
        assert problems and "max relative deviation" in problems[0]


    def test_a_field_declared_even_that_is_not_rejects_the_member(self, tmp_path,
                                                                  monkeypatch):
        # no packaged kind builds one, so a monomial_gauss member builds
        # u = (x_1 + 1) exp(-|x|^2 / 2), declared even as the kind is
        plain = corpus._monomial_gauss_jet

        def shifted(exponents, rate, n, label):
            (a, declared), (b, _) = plain(exponents, rate, n, label), plain([0], rate, n, label)

            def jet(X, s, orders):
                got_a, got_b = a(X, s, orders), b(X, s, orders)
                return {order: got_a[order] + got_b[order] for order in got_a}

            return jet, declared

        monkeypatch.setattr(corpus, "_monomial_gauss_jet", shifted)
        path = write_manifest(tmp_path, {"schema": 1, "field_functions": [
            {"label": "odd", "kind": "monomial_gauss",
             "params": {"exponents": [1], "rate": 1.0}}]})
        with pytest.raises(ManifestError, match=re.escape("'odd': declared even, but |u|")):
            load_manifest(path)


    @pytest.mark.parametrize("section, entry", [
        ("nfunctions", {"label": "p2", "kind": "power", "params": {"p": 3}}),
        ("field_functions", {"label": "p2", "kind": "monomial_gauss",
                             "params": {"exponents": [1], "rate": 1.0}}),
    ], ids=["two-nfunctions", "a-field-and-an-nfunction"])
    def test_a_label_two_members_share_rejects_the_manifest(self, tmp_path, section,
                                                            entry):
        # members, and the body's corpus fingerprints, are keyed by label, so
        # the later member would silently replace the earlier
        packaged = json.loads(default_manifest_path().read_text())
        path = write_manifest(tmp_path, {**packaged, section: packaged[section] + [entry]})
        with pytest.raises(ManifestError, match="two members are labelled 'p2'"):
            load_manifest(path)

    def test_an_inner_entry_is_not_a_member(self, tmp_path):
        # a cutoff's inner entry may carry any label: only top-level entries count
        packaged = json.loads(default_manifest_path().read_text())
        fields = [dict(entry) for entry in packaged["field_functions"]]
        cut = next(entry for entry in fields if entry["label"] == "fx_cut")
        cut["params"] = {**cut["params"], "inner": {**cut["params"]["inner"],
                                                    "label": "fx_lin"}}
        loaded = load_manifest(write_manifest(tmp_path, {**packaged, "field_functions": fields}))
        assert sorted(loaded.field_functions) == sorted(e["label"] for e in fields)


class TestBuilders:
    def test_truncated_composition(self):
        fn = build_radial_function({
            "label": "t", "kind": "truncated",
            "params": {"N": 2.0,
                       "inner": {"kind": "gaussian_power",
                                 "params": {"alpha": 0.5, "p": 2}}}})
        assert float(fn.u(5.0)) == 0.0
        assert 2.0 in fn.breakpoints and 4.0 in fn.breakpoints
        assert fn.hint.kind == "compact"

    def test_field_dimension_guard(self, manifest):
        factory = manifest.field_functions["fx_cross"]
        assert not factory.compatible(1)
        with pytest.raises(PreconditionError, match="dimension"):
            factory.instantiate(1)

    def test_cutoff_compact_support(self):
        field = build_field_function({
            "label": "c", "kind": "cutoff",
            "params": {"r1": 2.0, "r2": 3.0,
                       "inner": {"kind": "monomial_gauss",
                                 "params": {"exponents": [1], "rate": 0.0}}}}, 2)
        pts = np.array([[4.0, 0.0], [0.0, 5.0]])
        assert np.all(field.u(pts) == 0.0)
        assert np.all(field.grad(pts) == 0.0)
        inner_pt = np.array([[1.0, 0.5]])
        assert field.u(inner_pt)[0] == pytest.approx(1.0)

    def test_a_cutoff_keeps_its_inner_fields_symmetry(self, tmp_path, manifest, spec):
        # the window is radial, so a cutoff of a radial field loads as
        # radial: its families integrate e_1 alone, and its hn1 checks reach
        # the verdicts of the even rule's drawn half, with values within err_est
        entry = {"label": "fr_cut", "kind": "cutoff", "params": {
            "r1": 2.0, "r2": 3.0, "inner": {"kind": "gauss_poly_radial", "params": {
                "even_coefficients": [1.0, 0.5], "rate": 1.0}}}}
        loaded = load_manifest(write_manifest(tmp_path, {"schema": 1,
                                                         "field_functions": [entry]}))
        compared = 0
        for n in (1, 2, 3):
            field = loaded.field_functions["fr_cut"].instantiate(n)
            assert field.symmetry == "radial"
            even = dataclasses.replace(field, symmetry="even")
            for nf_label, nf in sorted(manifest.nfunctions.items()):
                radial_check = check_hn1(modular_triple_nd(field, nf, spec), nf, n)
                even_check = check_hn1(modular_triple_nd(even, nf, spec), nf, n)
                where = (nf_label, n)
                assert radial_check.verdict == even_check.verdict, where
                err = radial_check.err_est + even_check.err_est
                assert abs(radial_check.lhs - even_check.lhs) <= err, where
                assert abs(radial_check.rhs - even_check.rhs) <= err, where
                compared += 1
        assert compared == 15

    def test_kinks_are_declared_breakpoints(self, manifest):
        # M(|f|) has a kink where f changes sign: every interior sign change
        # of u and u' is a panel edge
        radial = manifest.radial_functions
        assert radial["bump_mid"].breakpoints == (1.0, 2.0, 3.0)
        assert radial["pg_slow"].breakpoints == pytest.approx((np.sqrt(2.0),))
        assert radial["pg_decay"].breakpoints == ()
        fn = build_radial_function({
            "label": "pg", "kind": "poly_gauss",
            "params": {"coefficients": [-1.0, 0.0, 1.0], "rate": 1.0}})
        # u = (r^2 - 1) exp(-r^2/2): u at 1; u' = r (3 - r^2) exp(-r^2/2) at sqrt 3
        assert fn.breakpoints == pytest.approx((1.0, np.sqrt(3.0)))
        for label, n in (("fx_lin", 1), ("fx_quad", 2), ("fx_cross", 3)):
            field = manifest.field_functions[label].instantiate(n)
            assert field.breakpoints == pytest.approx((np.sqrt(2.0),)), label
        assert manifest.field_functions["fx_cut"].instantiate(1).breakpoints == (8.0, 10.0)
        assert manifest.field_functions["fr_smooth"].instantiate(2).breakpoints == ()
        radial_field = build_field_function({
            "label": "fr", "kind": "gauss_poly_radial",
            "params": {"even_coefficients": [-1.0, 1.0], "rate": 1.0}}, 2)
        # u = (s - 1) exp(-s/2), s = |x|^2: u at s = 1; 2 - (s - 1) at s = 3
        assert radial_field.breakpoints == pytest.approx((1.0, np.sqrt(3.0)))
        # and the radial poly_gauss kind finds them in r from (r^2 - 1) e^(-r^2/2)
        assert radial_profile(FieldFactory(
            {"kind": "gauss_poly_radial",
             "params": {"even_coefficients": [-1.0, 1.0], "rate": 1.0}}, "fr"),
        ).breakpoints == pytest.approx(radial_field.breakpoints)

    @pytest.mark.parametrize("path", MANIFESTS, ids=lambda p: p.name)
    def test_every_sign_change_of_a_radial_member_is_a_breakpoint(self, path):
        # between consecutive nonzero samples of opposite sign on a grid of
        # step at most 1e-3, u or u' has a root: a declared breakpoint lies
        # in that bracket; trunc_mild's u' changes sign at 4 + sqrt(12)
        found, radial = 0, load_manifest(path).radial_functions
        for label, fn in radial.items():
            hi = fn.hint.radius if fn.hint.kind == "compact" else 12.0
            r = np.linspace(0.0, hi, int(hi * 1000) + 1)[1:]
            bps = np.asarray(fn.breakpoints)
            for name, g in (("u", fn.u), ("du", fn.du)):
                v = np.asarray(g(r), dtype=float)
                nonzero = np.flatnonzero(v)
                for i, j in zip(nonzero[:-1], nonzero[1:]):
                    if (v[i] > 0.0) != (v[j] > 0.0):
                        assert np.any((r[i] <= bps) & (bps <= r[j])), (label, name, r[i])
                        found += 1
        assert found == 4
        assert radial["trunc_mild"].breakpoints[1] == pytest.approx(4.0 + np.sqrt(12.0),
                                                                   rel=1e-15)

    def test_fingerprint_stable(self):
        entry = {"label": "p3", "kind": "power", "params": {"p": 3}}
        assert fingerprint(entry) == fingerprint(json.loads(json.dumps(entry)))


# Field kinds whose jets must reproduce the per-derivative formulas of
# `field_oracle`: monomials at rates 0 and 0.5 (x^0 among them, the empty
# product), a radial polynomial, and a cutoff of each, its ramp on
# 2 < |x| < 3.
MONOMIALS = [{"kind": "monomial_gauss", "params": {"exponents": list(k), "rate": rate}}
             for k in ((0,), (1,), (2,), (1, 1), (0, 3)) for rate in (0.0, 0.5)]
RADIAL = {"kind": "gauss_poly_radial",
          "params": {"even_coefficients": [1.0, 0.5, -0.25], "rate": 1.0}}
KERNEL_KINDS = MONOMIALS + [RADIAL] + [
    {"kind": "cutoff", "params": {"r1": 2.0, "r2": 3.0, "inner": inner}}
    for inner in MONOMIALS + [RADIAL]]


def _kind_id(entry):
    params = entry["params"]
    if entry["kind"] == "cutoff":
        return "cutoff-" + _kind_id(params["inner"])
    if entry["kind"] == "monomial_gauss":
        return f"x{params['exponents']}-rate{params['rate']}".replace(" ", "")
    return "radial"


def roberts_points(n):
    """The origin, and Roberts' R sequence directions at radii inside the
    window (|x| < 2), on its ramp (2 < |x| < 3) and beyond it (|x| >= 3),
    as a (4, 16, n) block."""
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (n + 1))
    dirs = 2.0 * ((0.5 + np.outer(np.arange(1, 65), g ** -np.arange(1.0, n + 1))) % 1.0) - 1.0
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.resize([0.3, 1.1, 1.9, 2.05, 2.4, 2.5, 2.75, 2.95, 3.0, 4.2, 7.5], 64)
    radii[0] = 0.0
    return (dirs * radii[:, None]).reshape(4, 16, n)


class TestFieldKernels:
    @pytest.mark.parametrize("entry, n", [
        pytest.param(entry, n, id=f"{_kind_id(entry)}-n{n}")
        for entry in KERNEL_KINDS for n in (1, 2, 3) if n >= corpus._field_min_n(entry)])
    def test_u_grad_and_hess_are_the_oracles_bit_for_bit(self, entry, n):
        # each kind evaluates its derivatives from intermediates it shares
        # within a call; every element keeps the oracle's arithmetic, signed
        # zeros included
        X = roberts_points(n)
        r = np.linalg.norm(X, axis=-1)
        assert (r == 0.0).any() and ((2.0 < r) & (r < 3.0)).any() and (r >= 3.0).any()
        field = build_field_function(entry, n)
        for name, got, want in zip(("u", "grad", "hess"), (field.u, field.grad, field.hess),
                                   oracle(entry, n)):
            a, b = got(X), want(X)
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


class TestCutoffReadsItsInnerFieldOnce:
    @pytest.mark.parametrize("inner", [
        {"kind": "monomial_gauss", "params": {"exponents": [1, 1], "rate": 0.5}}, RADIAL],
        ids=_kind_id)
    def test_each_derivative_evaluates_the_inner_field_once(self, monkeypatch, inner):
        # u evaluates the inner value and the window alone; grad and hess
        # each read the inner field's jet once, and the window's
        # derivatives up to their own order
        inner_calls, windows = [], []
        plain_jet, plain_window = corpus._field_jet, corpus._window

        def field_jet(entry, n):
            jet, declared = plain_jet(entry, n)
            if entry["label"].endswith("|inner"):
                def counted(X, s, orders):
                    inner_calls.append(tuple(orders))
                    return jet(X, s, orders)
                return counted, declared
            return jet, declared

        def window(r, r1, width, top):
            got = plain_window(r, r1, width, top)
            windows.append(len(got))
            return got

        monkeypatch.setattr(corpus, "_field_jet", field_jet)
        monkeypatch.setattr(corpus, "_window", window)
        field = build_field_function(
            {"label": "c", "kind": "cutoff", "params": {"r1": 2.0, "r2": 3.0, "inner": inner}}, 2)
        X = roberts_points(2)
        for derivative, orders in (("u", (0,)), ("grad", (0, 1)), ("hess", (0, 1, 2))):
            inner_calls.clear()
            windows.clear()
            getattr(field, derivative)(X)
            assert inner_calls == [orders], derivative
            assert windows == [len(orders)], derivative
