import csv
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from conftest import from_the_root, full_battery_commands

from orlicz_hardy import cli, functionals, quadrature, reporting
from orlicz_hardy import hardy as hardy_mod
from orlicz_hardy import landau_kolmogorov as lk_mod
from orlicz_hardy import mazya as mazya_mod
from orlicz_hardy.cli import main, run_hardy, run_lk
from orlicz_hardy.errors import PreconditionError
from orlicz_hardy.functionals import ModularTriple
from orlicz_hardy.nfunc import NFunction
from orlicz_hardy.quadrature import GaussianMeasure, IntegralResult, RadialMeasure
from orlicz_hardy.reporting import canonical_json

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report-schema.json").read_text())


def load_report(path):
    return json.loads(path.read_text())


class TestSubcommands:
    def test_certify(self, tmp_path):
        rc = main(["--out", str(tmp_path), "certify"])
        assert rc == 0
        doc = load_report(tmp_path / "certify.json")
        assert doc["body"]["summary"]["fails"] == 0
        ids = {c["check_id"] for c in doc["body"]["checks"]}
        assert "certify:p3" in ids

    def test_sharpness_csv_columns(self, tmp_path):
        rc = main(["--out", str(tmp_path), "sharpness", "--p", "4", "--n", "1"])
        assert rc == 0
        csv_path = tmp_path / "sharpness_p4_n1.csv"
        with csv_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"alpha", "K", "L", "G", "C1_req"}
        assert len(rows) == 5
        # the required-C1 series diverges along the alpha grid
        req = [float(r["C1_req"]) for r in rows if float(r["alpha"]) > 0]
        assert req == sorted(req)

    def test_alfa_closed_form_decides_on_err_est(self, tmp_path, monkeypatch):
        # each of K, L and G within its err_est of the closed form holds; a
        # K moved to twice its err_est away fails, with no other allowance
        rc = main(["--out", str(tmp_path), "sharpness", "--p", "3", "--n", "1"])
        assert rc == 0
        checks = [c for c in load_report(tmp_path / "sharpness.json")["body"]["checks"]
                  if c["id"] == "alfa_closed_form"]
        assert len(checks) == 3
        assert all(c["verdict"] == "holds" and 0.0 <= c["lhs"] <= 1.0 == c["rhs"]
                   for c in checks)
        triple = functionals.modular_triple_radial

        def moved(*args, **kwargs):
            tri = triple(*args, **kwargs)
            return tri._replace(K=dataclasses.replace(
                tri.K, value=tri.K.value + 2.0 * tri.K.err_est))

        monkeypatch.setattr(cli, "modular_triple_radial", moved)
        assert main(["--out", str(tmp_path), "sharpness", "--p", "3", "--n", "1"]) == 1
        checks = [c for c in load_report(tmp_path / "sharpness.json")["body"]["checks"]
                  if c["id"] == "alfa_closed_form"]
        assert [c["verdict"] for c in checks] == ["fails"] * 3
        assert all(c["lhs"] == pytest.approx(2.0, abs=0.01) for c in checks)

    def test_mazya_expected_divergence_exits_zero(self, tmp_path):
        rc = main(["--out", str(tmp_path), "mazya", "--gaussian",
                   "--p", "2", "--n", "3"])
        assert rc == 0
        doc = load_report(tmp_path / "mazya.json")
        check = doc["body"]["checks"][0]
        assert check["constants_used"]["verdict_numeric"] == "divergent"
        assert check["verdict"] == "holds"

    def test_hardy_single_form(self, tmp_path):
        rc = main(["--out", str(tmp_path), "hardy", "--nfunc", "p3",
                   "--dim", "2", "--form", "liniowe"])
        assert rc == 0
        doc = load_report(tmp_path / "hardy.json")
        assert doc["body"]["summary"]["fails"] == 0
        assert all(c["id"] == "liniowe" for c in doc["body"]["checks"])

    def test_lk_report_names_binding_member(self, tmp_path):
        rc = main(["--out", str(tmp_path), "lk", "--nfunc", "p2", "--dim", "1"])
        assert rc == 0
        doc = load_report(tmp_path / "lk.json")
        fits = doc["body"]["fits"]
        assert any(k.startswith("statB2gauss") for k in fits)
        for fit in fits.values():
            assert fit["feasible"]
            assert fit["binding"] in fit["corpus"]

    def test_lk_checks_carry_rhs_and_slack(self, tmp_path):
        rc = main(["--out", str(tmp_path), "lk", "--nfunc", "p2", "--dim", "1"])
        assert rc == 0
        doc = load_report(tmp_path / "lk.json")
        lk_checks = [c for c in doc["body"]["checks"] if "rhs_terms" in c]
        assert lk_checks
        for check in lk_checks:
            assert isinstance(check["rhs"], float), check["check_id"]
            assert check["rhs"] == sum(check["rhs_terms"].values())
            assert check["slack"] == check["rhs"] - check["lhs"]

    def test_lk_normalized_reaches_the_battery(self, tmp_path):
        bodies = []
        for flags in ([], ["--normalized"]):
            out = tmp_path / str(len(flags))
            assert main(["--out", str(out), *flags, "lk", "--nfunc", "p2",
                         "--dim", "1"]) == 0
            bodies.append(load_report(out / "lk.json")["body"])
        plain, normalized = bodies
        factor = (2.0 * math.pi) ** -0.5

        def modular(body):
            return [c for c in body["checks"] if c["check_id"].startswith("statB1:")]

        assert len(modular(plain)) == len(modular(normalized)) > 0
        for a, b in zip(modular(plain), modular(normalized)):
            pairs = [(a["lhs"], b["lhs"])] + [
                (a["constants_used"][term], b["constants_used"][term])
                for term in ("hess_modular", "func_modular")]
            for x, y in pairs:
                assert y != x
                assert y == pytest.approx(factor * x, rel=1e-14)

        def verdicts(body):
            return {c["check_id"]: c["verdict"] for c in body["checks"]}

        assert verdicts(normalized) == verdicts(plain)
        assert all(c["normalization"] == "normalized" for c in normalized["checks"])
        assert all("normalization" not in c for c in plain["checks"])

    @pytest.mark.parametrize("flag, field, value", [
        (["--normalized"], "normalization", "normalized"),
        (["--rel-tol", "1e-8"], "quadrature_spec", {
            "rel_tol": 1e-8, "abs_tol": 1e-14, "sphere_nodes": 32,
            "seed": quadrature.SPHERE_SEED}),
    ])
    def test_shared_flags_after_the_subcommand(self, tmp_path, flag, field, value):
        battery = ["lk", "--nfunc", "p2", "--dim", "1"]
        bodies = []
        for where in ("before", "after"):
            shared = ["--out", str(tmp_path / where), *flag]
            argv = [*shared, *battery] if where == "before" else [*battery, *shared]
            assert main(argv) == 0
            bodies.append(load_report(tmp_path / where / "lk.json")["body"])
        assert bodies[0] == bodies[1]
        assert bodies[0][field] == value

    def test_infeasible_fits_fail(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lk_mod, "DEFAULT_FIT_GRID", (0.001, 0.002))
        rc = main(["--out", str(tmp_path), "lk", "--nfunc", "p3", "--dim", "1..2"])
        assert rc == 1
        body = load_report(tmp_path / "lk.json")["body"]
        assert body["summary"]["fails"] == 4
        assert {c["check_id"] for c in body["checks"] if c["verdict"] == "fails"} == {
            f"{form}_envelope:p3:corpus:n={n}"
            for form in ("statB1gauss", "statB2gauss") for n in (1, 2)}

    def test_infeasible_modular_fit_alone_exits_nonzero(self, tmp_path, monkeypatch):
        fit = lk_mod.fit_lk_modular_envelope

        def infeasible(*args, **kwargs):
            fitted, terms = fit(*args, **kwargs)
            return dataclasses.replace(fitted, c1=math.inf, c2=math.inf,
                                       binding_label="", feasible=False), terms

        monkeypatch.setattr(lk_mod, "fit_lk_modular_envelope", infeasible)
        rc = main(["--out", str(tmp_path), "lk", "--nfunc", "p2", "--dim", "1"])
        assert rc == 1
        checks = load_report(tmp_path / "lk.json")["body"]["checks"]
        assert [c["check_id"] for c in checks if c["verdict"] == "fails"] == [
            "statB1gauss_envelope:p2:corpus:n=1"]

    def test_console_script_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "orlicz_hardy.cli", "--out", str(tmp_path),
             "certify"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "certify" in proc.stdout

    def test_overflowing_integrand_exits_two_without_a_numpy_warning(self, tmp_path):
        # M(u) = u^300 of the p = 300 extremal function overflows on the
        # quadrature's panels: the non-finite value is the error, and the
        # overflow on the way to it prints no RuntimeWarning
        proc = subprocess.run(
            [sys.executable, "-m", "orlicz_hardy.cli", "--out", str(tmp_path),
             "sharpness", "--p", "300", "--n", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: integrand non-finite at r="), proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not list(tmp_path.iterdir())

    def test_batteries_load_no_numpy_or_scipy_module(self, tmp_path):
        # numpy imports np.random and np.polynomial on first use; a battery
        # pass must not pay for that
        code = f"""if True:
            import json, sys
            from orlicz_hardy.cli import main
            loaded = set(sys.modules)
            codes = [main(["--out", {str(tmp_path)!r}, *argv]) for argv in (
                ["hardy", "--dim", "1"], ["lk", "--dim", "1"],
                ["mazya", "--gaussian", "--p", "3.5", "--n", "2"])]
            late = set(sys.modules) - loaded
            print(json.dumps({{
                "codes": codes,
                "scipy": sorted(m for m in loaded if m.startswith("scipy")),
                "late": sorted(m for m in late if m.startswith(("numpy", "scipy")))}}))
            """
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["codes"] == [0, 0, 0]
        assert out["scipy"] == []
        assert out["late"] == []

    def test_all_never_imports_numpy_ma(self, tmp_path):
        # np.unique and np.union1d import numpy.ma, about a tenth of the
        # package's import time; no battery needs it
        code = f"""if True:
            import sys
            from orlicz_hardy.cli import main
            status = main(["--out", {str(tmp_path)!r}, "all", "--dim", "1..3"])
            print(status, "numpy.ma" in sys.modules)
            """
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["0", "False"]


class TestDeterminism:
    @pytest.fixture(scope="class")
    def all_runs(self, tmp_path_factory):
        """Two runs of `all --dim 1`: (exit codes, report documents)."""
        out = tmp_path_factory.mktemp("all")
        rcs = [main(["--out", str(out / run), "all", "--dim", "1"]) for run in "ab"]
        return rcs, [load_report(out / run / "all.json") for run in "ab"]

    def test_all_runs_byte_identical(self, all_runs):
        (rc1, rc2), (doc_a, doc_b) = all_runs
        assert rc1 == 0 and rc2 == 0
        assert doc_a["meta"]["body_sha256"] == doc_b["meta"]["body_sha256"]
        assert canonical_json(doc_a["body"]) == canonical_json(doc_b["body"])

    def test_all_meta_times_each_battery_outside_the_body(self, all_runs):
        _, (doc_a, doc_b) = all_runs
        assert canonical_json(doc_a["body"]) == canonical_json(doc_b["body"])
        names = [battery.name for battery in cli.BATTERIES if battery.in_all is not None]
        for doc in (doc_a, doc_b):
            assert list(doc["meta"]["battery_s"]) == sorted(names)
            assert all(s >= 0.0 for s in doc["meta"]["battery_s"].values())
            assert "battery_s" not in canonical_json(doc["body"])

    def test_subcommand_meta_records_its_own_total(self, tmp_path):
        main(["--out", str(tmp_path), "mazya", "--classical"])
        (name,) = load_report(tmp_path / "mazya.json")["meta"]["battery_s"]
        assert name == "mazya"

    def test_all_report_matches_schema(self, all_runs):
        _, (doc, _) = all_runs
        jsonschema.validate(doc, SCHEMA)

    def test_all_checks_have_no_empty_values(self, all_runs):
        _, (doc, _) = all_runs
        for check in doc["body"]["checks"]:
            for key, value in check.items():
                assert value not in (None, "", {}, []), (check["check_id"], key)

    def test_reports_carry_corpus_fingerprints(self, tmp_path):
        main(["--out", str(tmp_path), "hardy", "--nfunc", "p2", "--dim", "1",
              "--form", "p2_exact"])
        doc = load_report(tmp_path / "hardy.json")
        body = doc["body"]
        assert body["manifest_fingerprint"]
        for check in body["checks"]:
            label = check.get("subject_label")
            if label:
                assert label in body["corpus"]


@pytest.mark.parametrize("argv", [
    ["certify"],
    ["hardy", "--dim", "1"],
    ["sharpness", "--p", "3", "--n", "1"],
    ["mazya", "--classical"],
    ["lk", "--nfunc", "p2", "--dim", "1"],
    pytest.param(["hardy", "--form", "hn11", "--dim", "2"], id="hardy-hn11"),
    pytest.param(["hardy", "--form", "www", "--dim", "1"], id="hardy-www"),
], ids=lambda argv: argv[0])
def test_report_matches_schema(tmp_path, argv):
    main(["--out", str(tmp_path), "--report", str(tmp_path / "r.json")] + argv)
    jsonschema.validate(load_report(tmp_path / "r.json"), SCHEMA)


def fail_first_family(monkeypatch, rows: int) -> list:
    """Make the first `_adaptive` call on a family of `rows` rows report
    non-convergence, as a refinement that runs out of panels does; returns
    the list that records that it happened."""
    plain, failed = quadrature._adaptive, []

    def adaptive(*args, **kwargs):
        vals, errs, ok, panels = plain(*args, **kwargs)
        if vals.shape[0] == rows and not failed:
            failed.append(True)
            return vals, errs, False, panels
        return vals, errs, ok, panels

    monkeypatch.setattr(quadrature, "_adaptive", adaptive)
    return failed


def changed_checks(before: list, after: list) -> dict:
    """check_id -> check dict of the checks that differ between two runs."""
    assert [c.check_id for c in before] == [c.check_id for c in after]
    return {b.check_id: b.as_dict() for a, b in zip(before, after)
            if canonical_json(a.as_dict()) != canonical_json(b.as_dict())}


class TestNonConvergedQuadrature:
    def test_hardy_check_on_an_unconverged_triple_is_indeterminate(
            self, manifest, spec, monkeypatch):
        # the first field's triple at n = 2 (3 modulars x 1 direction: the
        # field is radial, so its family integrates e_1 alone)
        before, after = [], []
        run_hardy(manifest, spec, [2], before, nfunc_label="p2", form="hn1")
        failed = fail_first_family(monkeypatch, 3 * 1)
        run_hardy(manifest, spec, [2], after, nfunc_label="p2", form="hn1")
        assert failed
        changed = changed_checks(before, after)
        assert list(changed) == ["hn1:p2:fr_smooth:n=2"]
        check = changed["hn1:p2:fr_smooth:n=2"]
        assert check["verdict"] == "indeterminate"
        assert check["details"] == {
            "reason": "a quadrature behind the modular triple did not converge"}
        assert all("reason" not in c.details for c in before)

    def test_lk_checks_on_an_unconverged_triple_are_indeterminate(
            self, manifest, spec, monkeypatch):
        # under p2log, the first field's triple at n = 1 (3 modulars x 1
        # direction, as the field is radial): its G and L are the modular
        # check's lhs and function
        # term and two of its norms' modulars, so both of its checks and
        # both fits rest on it
        def run():
            checks = []
            run_lk(manifest, spec, [1], checks, {}, nfunc_labels=("p2log",))
            return checks

        before = run()
        failed = fail_first_family(monkeypatch, 3 * 1)
        after = run()
        assert failed
        changed = changed_checks(before, after)
        fitted = "a quadrature behind the fitted terms did not converge"
        assert {check_id: (c["verdict"], c["details"]["reason"])
                for check_id, c in changed.items()} == {
            "statB1:p2log:fr_smooth:n=1": (
                "indeterminate", "a quadrature behind the LK modular terms did not converge"),
            "statB2gauss:p2log:fr_smooth:n=1": (
                "indeterminate", "a quadrature behind the norms' modulars did not converge"),
            "statB1gauss_envelope:p2log:corpus:n=1": ("indeterminate", fitted),
            "statB2gauss_envelope:p2log:corpus:n=1": ("indeterminate", fitted)}

    def test_lk_norm_checks_rest_on_the_hessian_term(self, manifest, spec,
                                                     monkeypatch):
        # the first field's Hessian term at n = 1 (1 modular x 1 direction,
        # as the field is radial) is the norm's m1 and the modular check's
        # H1, so the checks of both forms rest on it
        def run():
            checks = []
            run_lk(manifest, spec, [1], checks, {}, nfunc_labels=("p2",))
            return checks

        before = run()
        failed = fail_first_family(monkeypatch, 1 * 1)
        after = run()
        assert failed
        changed = changed_checks(before, after)
        assert {check_id: c["verdict"] for check_id, c in changed.items()} == dict.fromkeys(
            ["statB1:p2:fr_smooth:n=1", "statB1gauss_envelope:p2:corpus:n=1",
             "statB2gauss:p2:fr_smooth:n=1", "statB2gauss_envelope:p2:corpus:n=1"],
            "indeterminate")
        assert changed["statB2gauss:p2:fr_smooth:n=1"]["details"] == {
            "reason": "a quadrature behind the norms' modulars did not converge"}


def test_run_hardy_computes_each_nd_triple_once(manifest, spec, monkeypatch):
    # one family per (field, n), spanning every N-function of the manifest
    calls = []

    def counted(u, nfs, *args, **kwargs):
        calls.append((u.label, tuple(nf.label for nf in nfs), u.n))
        return original(u, nfs, *args, **kwargs)

    original = functionals.modular_triple_nd
    for module in (cli, hardy_mod):
        monkeypatch.setattr(module, "modular_triple_nd", counted, raising=False)
    run_hardy(manifest, spec, [1, 2], [])
    expected = [(label, tuple(sorted(manifest.nfunctions)), n) for n in (1, 2)
                for label, factory in manifest.field_functions.items()
                if factory.compatible(n)]
    assert sorted(calls) == sorted(expected)


def test_run_hardy_integrates_no_radial_triple_for_a_form_on_r_n(manifest, spec,
                                                                 monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = functionals.modular_triple_radial
    monkeypatch.setattr(cli, "modular_triple_radial", counted)
    checks = []
    run_hardy(manifest, spec, [1, 2, 3], checks, form="hn1")
    assert checks and {c.id for c in checks} == {"hn1"}
    assert calls == []


def test_every_battery_is_a_subcommand_and_all_runs_each_once(tmp_path, monkeypatch):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    names = [battery.name for battery in cli.BATTERIES]
    assert "{" + ",".join(names) + "}" in parser.format_help()
    calls = []

    def recording(battery):
        def run(run, **kwargs):
            calls.append((battery.name, kwargs))
            if battery.name == "all":
                battery.run(run, **kwargs)
        return dataclasses.replace(battery, run=run)

    monkeypatch.setattr(cli, "BATTERIES", tuple(map(recording, cli.BATTERIES)))
    assert main(["--out", str(tmp_path), "all", "--dim", "1..3"]) == 0
    assert [name for name, _ in calls] == names[-1:] + names[:-1]
    kwargs = dict(calls)
    assert kwargs["hardy"] == {"dims": [1, 2, 3]}
    assert kwargs["sharpness"]["cases"] == [(3.0, 1), (3.0, 2), (4.0, 1), (4.0, 2)]
    assert kwargs["mazya"]["classical"] and len(kwargs["mazya"]["gaussian"]) == 12
    assert kwargs["lk"] == {"dims": [1, 2]}


def test_tight_abs_tol_hardy_runs(tmp_path, manifest):
    # at abs_tol 1e-30 the uncapped radius for ga_sharp under p4 lay where
    # M(u) = exp(0.45 r^2) overflows, and the battery exited 2
    assert main(["--out", str(tmp_path), "--abs-tol", "1e-30", "hardy",
                 "--nfunc", "p4", "--dim", "1"]) == 0
    assert load_report(tmp_path / "hardy.json")["body"]["summary"]["holds"] == 36
    u, nf = manifest.radial_functions["ga_sharp"], manifest.nfunc("p4")
    tight = functionals.modular_triple_radial(u, nf, 1, cli.QuadratureSpec(abs_tol=1e-30))
    loose = functionals.modular_triple_radial(u, nf, 1, cli.QuadratureSpec())
    assert tight.valid
    for a, b in zip(tight, loose):
        assert abs(a.value - b.value) <= a.err_est + b.err_est


@pytest.mark.parametrize("doubled, single", [
    (["lk", "--nfunc", "p2,p2", "--dim", "1"], ["lk", "--nfunc", "p2", "--dim", "1"]),
    (["hardy", "--dim", "1,1"], ["hardy", "--dim", "1"]),
], ids=["lk-nfunc", "hardy-dim"])
def test_a_repeated_flag_value_runs_once(tmp_path, doubled, single):
    checks = []
    for name, argv in (("doubled", doubled), ("single", single)):
        path = tmp_path / f"{name}.json"
        assert main(["--out", str(tmp_path), "--report", str(path), *argv]) == 0
        checks.append(load_report(path)["body"]["checks"])
    assert checks[0] == checks[1]


@pytest.mark.parametrize("alphas", ["0.9,0.5", "0.5,0.5"], ids=["descending", "repeated"])
def test_sharpness_alphas_run_sorted_and_once(tmp_path, alphas):
    # the c1 divergence scan needs increasing alphas, and a repeated alpha
    # must not emit its check twice
    checks = []
    for name, given in (("given", alphas), ("sorted", ",".join(
            str(a) for a in sorted({float(t) for t in alphas.split(",")})))):
        path = tmp_path / f"{name}.json"
        argv = ["sharpness", "--p", "3", "--n", "1", "--alphas", given]
        assert main(["--out", str(tmp_path), "--report", str(path), *argv]) == 0
        checks.append(load_report(path)["body"]["checks"])
    ids = [c["check_id"] for c in checks[0]]
    assert len(ids) == len(set(ids))
    assert "fails" not in {c["verdict"] for c in checks[0]}
    assert checks[0] == checks[1]


FULL_BATTERY = full_battery_commands()


def test_the_full_battery_step_is_read():
    assert ["all", "--dim", "1..3"] in FULL_BATTERY
    assert ["hardy", "--form", "www", "--dim", "1..3"] in FULL_BATTERY


@pytest.fixture(scope="module", params=FULL_BATTERY, ids=" ".join)
def full_battery_report(request, tmp_path_factory):
    """The report file of one full-battery command, and every body, as the
    command built it, that `canonical_json` serialised: the corpus
    members' fingerprints, then the report's body."""
    out = tmp_path_factory.mktemp("full")
    path, bodies, serialise = out / "r.json", [], reporting.canonical_json

    def recorded(body):
        bodies.append(body)
        return serialise(body)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reporting, "canonical_json", recorded)
        assert main(["--out", str(out), "--report", str(path),
                     *from_the_root(request.param)]) == 0
    return path, bodies


def test_every_full_battery_report_has_unique_check_ids(full_battery_report):
    path, _ = full_battery_report
    ids = [check["check_id"] for check in load_report(path)["body"]["checks"]]
    assert ids and len(ids) == len(set(ids))


def test_every_full_battery_body_is_written_as_canonicalize_has_it(full_battery_report):
    # json's C encoder writes the bodies; it must write what canonicalize
    # gives, byte for byte, on the bodies the batteries really build
    path, bodies = full_battery_report
    texts = [reporting.canonical_json(body) for body in bodies]
    assert texts == [json.dumps(reporting.canonicalize(body), sort_keys=True,
                                separators=(",", ":")) for body in bodies]
    raw = path.read_text()
    assert raw[len('{"body":'):raw.rindex(',"meta":')] == texts[-1]


# Each full-battery command's verdicts and fits, keyed by the command as the
# workflow writes it.  A change that moves one edits this file in the same
# diff and names the move; values and digests stay out of it.
VERDICTS = json.loads((Path(__file__).parent / "data" / "verdicts.json").read_text())


def verdict_ledger(body) -> dict:
    """Every check id with its verdict, and every fit's [C1, C2, binding, feasible]."""
    return {"checks": {check["check_id"]: check["verdict"] for check in body["checks"]},
            "fits": {fit_id: [fit["C1"], fit["C2"], fit["binding"], fit["feasible"]]
                     for fit_id, fit in body.get("fits", {}).items()}}


def test_the_verdict_ledger_holds_the_full_battery():
    assert sorted(VERDICTS) == sorted(" ".join(argv) for argv in FULL_BATTERY)


def test_every_full_battery_verdict_and_fit_is_the_ledgers(full_battery_report, request):
    path, _ = full_battery_report
    command = " ".join(request.node.callspec.params["full_battery_report"])
    assert verdict_ledger(load_report(path)["body"]) == VERDICTS[command]


# ---------------------------------------------------------------------------
# mazya --pair
# ---------------------------------------------------------------------------

EXAMPLE_PAIR = Path(__file__).parent.parent / "docs" / "examples" / "pair_table.json"


def write_pair(tmp_path, cfg):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(cfg))
    return path


def table_cfg(x, mu, nu):
    return {"kind": "table", "label": "t",
            "params": {"x": x, "mu_density": mu, "nu_density": nu, "p": 2, "q": 2}}


class TestMazyaPair:
    @pytest.mark.parametrize("cfg", [
        {"kind": "classical"},
        {"kind": "gaussian", "params": {"p": 3, "n": 2}},
        json.loads(EXAMPLE_PAIR.read_text()),
    ], ids=["classical", "gaussian", "table"])
    def test_pair_config_reads_mazya_B(self, tmp_path, cfg):
        path = write_pair(tmp_path, cfg)
        assert main(["--out", str(tmp_path), "mazya", "--pair", str(path)]) == 0
        (check,) = load_report(tmp_path / "mazya.json")["body"]["checks"]
        res = mazya_mod.mazya_B(cli.load_pair_config(path))
        assert check["verdict"] == "holds" and not res.divergent
        assert check["constants_used"]["B"] == res.B
        assert check["check_id"] == f"mazya:pair:{cli.load_pair_config(path).label}"

    def test_unknown_kind_exits_two(self, tmp_path, capsys):
        path = write_pair(tmp_path, {"kind": "weibull"})
        assert main(["--out", str(tmp_path), "mazya", "--pair", str(path)]) == 2
        assert "unknown measure-pair kind 'weibull'" in capsys.readouterr().err
        assert not (tmp_path / "mazya.json").exists()

    @pytest.mark.parametrize("cfg, reason", [
        (table_cfg([0, 1, 2], [1, float("nan"), 1], [1, 1, float("nan")]),
         "table mu_density must be finite and non-negative"),
        (table_cfg([0, 1, 2], [-1, -1, -1], [1, 1, 1]),
         "table mu_density must be finite and non-negative"),
        (table_cfg([0], [1], [1]), "table x needs at least 2 abscissae"),
    ], ids=["nan-density", "negative-mu", "one-point"])
    def test_invalid_table_exits_two_with_reason(self, tmp_path, capsys, cfg, reason):
        path = write_pair(tmp_path, cfg)
        assert main(["--out", str(tmp_path), "mazya", "--pair", str(path)]) == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "mazya.json").exists()


class TestUnreadableInputExitsTwo:
    @pytest.mark.parametrize("text, reason", [
        (json.dumps({"kind": "table", "params": {
            "x": [0, 1, 2], "mu_density": [1, 1, 1], "p": 2, "q": 2}}),
         "a table pair needs params.nu_density"),
        ("[1, 2]", "must be a JSON object"),
        ('{"kind": "table", "params": {"x": [0, 1', "cannot read the measure-pair config"),
        (json.dumps({"kind": "gaussian", "params": {"p": "three", "n": 2}}),
         "params.p is malformed"),
    ], ids=["no-nu-density", "json-list", "truncated", "non-numeric-p"])
    def test_malformed_pair_config(self, tmp_path, capsys, text, reason):
        path = tmp_path / "pair.json"
        path.write_text(text)
        assert main(["--out", str(tmp_path), "mazya", "--pair", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and reason in err
        assert not (tmp_path / "mazya.json").exists()

    def test_missing_pair_config(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["--out", str(tmp_path), "mazya", "--pair", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "cannot read the measure-pair config" in err

    @pytest.mark.parametrize("text, reason", [
        (None, "cannot read the manifest"),
        ("[1, 2]", "manifest schema must be"),
    ], ids=["missing", "json-list"])
    def test_unreadable_corpus(self, tmp_path, capsys, text, reason):
        path = tmp_path / "manifest.json"
        if text is not None:
            path.write_text(text)
        assert main(["--corpus", str(path), "--out", str(tmp_path), "certify"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and reason in err
        assert not (tmp_path / "certify.json").exists()

    @pytest.mark.parametrize("flag, shown", [
        (["--rel-tol", "0.5"], "0.5"),
        (["--rel-tol", "1e-15"], "1e-15"),
        (["--abs-tol", "inf"], "inf"),
        (["--abs-tol", "nan"], "nan"),
        (["--abs-tol=-1"], "-1.0"),
    ], ids=["rel-tol-0.5", "rel-tol-below-roundoff", "abs-tol-inf", "abs-tol-nan",
            "abs-tol-negative"])
    def test_bad_tolerance_flag(self, tmp_path, capsys, flag, shown):
        # these once ended in a traceback, a misleading message or a report
        assert main(["--out", str(tmp_path), *flag, "certify"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"got {shown}" in err
        assert not (tmp_path / "certify.json").exists()


def exit_status(argv) -> int:
    """main's return value, or the status of the SystemExit that argument
    parsing raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, shown", [
    (["hardy", "--dim", "3..1"], "'3..1'"),
    (["hardy", "--dim", ","], "','"),
    (["hardy", "--nfunc", "nope", "--dim", "1"], "no N-function 'nope'"),
    (["lk", "--nfunc", "nope", "--dim", "1"], "no N-function 'nope'"),
    (["lk", "--fit-grid", "1,2", "--dim", "1"], "unrecognized arguments: --fit-grid"),
    (["hardy", "--form", "p2_exact", "--nfunc", "p3", "--dim", "1"],
     "form p2_exact (--form p2_exact): d = D = 2"),
    (["hardy", "--form", "wwww", "--nfunc", "p2", "--dim", "1..3"],
     "form wwww (--form wwww): d >= 2 and D > max(2, e + 2 - n)"),
    (["hardy", "--form", "liniowe", "--nfunc", "p3", "--dim", "1"],
     "form liniowe (--form liniowe): d >= 2, D > 2 and D + n >= e + 2"),
    (["hardy", "--nfunc", "p2", "--form", "term1", "--dim", "1"],
     "form alternative (--form term1|term2): d >= 2 and D > 2"),
    (["mazya", "--p", "2"], "only with --gaussian"),
    (["mazya", "--n", "3"], "only with --gaussian"),
    (["mazya", "--classical", "--p", "2"], "only with --gaussian"),
    (["mazya", "--gaussian", "--p", "1000", "--n", "1"],
     "the Gaussian tail of degree 1000 and rate 1 overflows"),
    (["mazya", "--gaussian", "--p", "nan", "--n", "2"], "p must be finite, got p=nan"),
    (["sharpness", "--p", "nan", "--n", "1"], "p must be finite and >= 2, got nan"),
    (["sharpness", "--p", "inf", "--n", "1"], "p must be finite and >= 2, got inf"),
    (["sharpness", "--p", "400", "--n", "1"], "closed-form moments of u_alpha overflow"),
    (["sharpness", "--p", "nan", "--n", "1", "--alphas", ","], "--alphas names no alpha"),
], ids=["dim-descending", "dim-empty", "hardy-nfunc-unknown", "lk-nfunc-unknown",
        "lk-fit-grid",
        "form-p2_exact-p3", "form-wwww-p2", "form-liniowe-p3-n1", "form-term1-p2",
        "mazya-p-alone", "mazya-n-alone", "mazya-classical-p", "mazya-p-overflow",
        "mazya-p-nan",
        "sharpness-p-nan", "sharpness-p-inf", "sharpness-p-overflow",
        "sharpness-alphas-empty"])
def test_argument_naming_nothing_valid_exits_two(tmp_path, capsys, argv, shown):
    # these once ran 0 checks and exited 0, ran a default that ignored the
    # flag (mazya --p), reported fails (sharpness --p nan), named the wrong
    # condition (mazya --p nan: "requires p <= q"), or ended in a KeyError
    # or OverflowError traceback
    assert exit_status(["--out", str(tmp_path), *argv]) == 2
    assert shown in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("row", hardy_mod.FORMS, ids=lambda row: row.name)
def test_hardy_form_row(manifest, spec, row):
    # the --form choices are the rows' selectors, each once
    (choices,) = [kwargs["choices"] for battery in cli.BATTERIES if battery.name == "hardy"
                  for flag, kwargs in battery.flags if flag == "--form"]
    assert sorted(choices) == sorted(s for r in hardy_mod.FORMS for s in r.selectors)
    assert len(set(choices)) == len(choices)
    # each selector checks something on the packaged corpus at n = 1..3, and
    # every check it makes is the row's
    for selector in row.selectors:
        checks = []
        run_hardy(manifest, spec, [1, 2, 3], checks, form=selector)
        assert checks, selector
        assert all(c.check_id.startswith(f"{row.name}:") for c in checks), selector
    # outside its hypothesis the row's check raises, naming the form, through
    # the predicate run_hardy admits by: an N-function without declared growth
    # indices, and every packaged (N-function, n) the row does not admit
    outside = [(NFunction(eval=lambda r: r * r, label="bare"), 1)] + [
        (nf, n) for nf in manifest.nfunctions.values() for n in (1, 2, 3)
        if not row.admits(nf.d_exp, nf.D_exp, n)]
    for nf, n in outside:
        measure = GaussianMeasure(n) if row.nd else RadialMeasure(n)
        with pytest.raises(PreconditionError, match=f"form {row.name} needs"):
            row.check(None, ModularTriple(*(IntegralResult(0.0, 0.0),) * 3), nf, measure,
                      spec)
