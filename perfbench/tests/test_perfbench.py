"""Tests of the benchmark itself: inputs, pass checking and the tracer.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import tracer
from orlicz_hardy import functionals, quadrature
from orlicz_hardy.corpus import load_manifest
from orlicz_hardy.quadrature import QuadratureSpec

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    a = inputs.write_inputs(workload, 7, tmp_path / "a", tmp_path / "out")
    b = inputs.write_inputs(workload, 7, tmp_path / "b", tmp_path / "out")
    inputs.write_inputs(workload, 8, tmp_path / "c", tmp_path / "out")
    assert a == [[arg.replace("/b/", "/a/") for arg in argv] for argv in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("seed", [1, 2, 3, 1234])
def test_generated_manifests_load_with_the_packaged_labels(tmp_path, seed):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(inputs.make_manifest(seed)))
    manifest = load_manifest(path)
    packaged = load_manifest()
    assert manifest.fingerprint != packaged.fingerprint
    assert sorted(manifest.nfunctions) == sorted(packaged.nfunctions)
    assert sorted(manifest.radial_functions) == sorted(packaged.radial_functions)
    assert sorted(manifest.field_functions) == sorted(packaged.field_functions)


def test_mazya_pairs_cover_both_sides_of_p_equals_n_alike():
    sides = set()
    for seed in range(1, 50):
        pairs = inputs.make_mazya_pairs(seed)
        assert all(1.5 < p <= 4.0 and round(p, 2) == p and n in (1, 2, 3) for p, n in pairs)
        sides.add(sum(p > n for p, n in pairs))
    assert len(pairs) == 30 and sides == {22}


def _bench(tmp_path, workload, trace=False, keep=None):
    bench = run.Bench(workload, 1, trace, run_root=tmp_path)
    if keep is not None:
        bench.invocations = bench.invocations[:keep]
        bench.report_paths = bench.report_paths[:keep]
    return bench


def test_counters_repeat_across_traced_passes(tmp_path):
    bench = _bench(tmp_path, "hardy_sweep", trace=True)
    passes = [bench.run_pass(False, 120), bench.run_pass(True, 120), bench.run_pass(True, 120)]
    assert not any(p.broken for p in passes)
    metrics, notes, steady = run.per_layer(passes)
    assert steady, notes
    assert metrics["quadrature.integrals"] > 0 and metrics["functionals.modular_triple.calls"] == 135
    for name in tracer.DETERMINISTIC:
        assert name in metrics


def _rewrite(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _recheck(bench):
    return bench.checker.check(run.PassResult(traced=False), bench.report_paths, [0] * 2)


def test_tampered_reports_count_every_check_as_failed(tmp_path):
    bench = _bench(tmp_path, "mazya_scan", keep=2)
    good = bench.run_pass(False, 120)
    assert not good.broken and good.failed == 0 and good.checks == 2
    report = bench.report_paths[1]
    saved = report.read_bytes()

    def edit_verdict(doc):
        doc["body"]["checks"][0]["verdict"] = "indeterminate"

    def edit_digest(doc):
        doc["meta"]["body_sha256"] = "0" * 64

    def edit_both(doc):
        edit_verdict(doc)
        doc["meta"]["body_sha256"] = run.canonical_digest(doc["body"])

    for edit in (edit_verdict, edit_digest, edit_both):
        _rewrite(report, edit)
        bad = _recheck(bench)
        assert bad.broken and bad.failed == bad.checks == 2, edit.__name__
        report.write_bytes(saved)
    assert not _recheck(bench).broken

    metrics, _ = run.end_to_end([good, bad])
    assert metrics["passed_ratio"] == 0.5
    assert run.battery_outcome([good, good, good]) == (2, 0)
    assert run.battery_outcome([good, bad, good]) == (2, 2)


def test_a_fails_verdict_counts_as_failed_without_breaking_the_pass(tmp_path):
    bench = _bench(tmp_path, "mazya_scan", keep=1)
    bench.invocations[0][-1:] = ["--gaussian", "--p", "3.05", "--n", "3"]
    result = bench.run_pass(False, 120)
    assert not result.broken
    assert result.tally["fails"] == 1 and result.failed == 1
    assert run.battery_outcome([result] * 5) == (1, 1)


def test_crashing_pass_counts_reference_checks_as_failed(tmp_path):
    bench = _bench(tmp_path, "mazya_scan", keep=2)
    assert not bench.run_pass(False, 120).broken
    bench.invocations[1] = bench.invocations[1][:4] + ["mazya", "--gaussian"]
    crashed = bench.run_pass(False, 120)
    assert crashed.broken and crashed.failed == crashed.checks == 2


def test_tracer_wraps_every_module_binding():
    original = quadrature.integrate_radial
    assert functionals.integrate_radial is original
    t = tracer.Tracer().install()
    try:
        assert functionals.integrate_radial is quadrature.integrate_radial is not original
        u = load_manifest().radial_functions["pg_decay"]
        functionals.modular_triple_radial(u, load_manifest().nfunc("p2"), 2, QuadratureSpec())
    finally:
        t.uninstall()
    assert functionals.integrate_radial is quadrature.integrate_radial is original
    metrics = t.metrics()
    assert metrics["quadrature.integrate_radial.calls"] == 3
    assert metrics["functionals.modular_triple.calls"] == 1
    assert metrics["quadrature.integrals"] == 3 and metrics["quadrature.panels"] > 0
    assert t.absent_metrics() == []


def test_tracer_reports_a_missing_layer_as_absent(monkeypatch):
    monkeypatch.delattr(quadrature, "integrate_radial")
    t = tracer.Tracer().install()
    try:
        u = load_manifest().radial_functions["pg_decay"]
        functionals.modular_triple_radial(u, load_manifest().nfunc("p2"), 2, QuadratureSpec())
    finally:
        t.uninstall()
    assert t.absent_metrics() == ["quadrature.integrate_radial.calls",
                                  "quadrature.integrate_radial.self_s"]
    metrics = t.metrics()
    assert "quadrature.integrate_radial.calls" not in metrics
    assert metrics["quadrature.integrals"] == 3


def test_self_time_subtracts_child_cover():
    t = tracer.Tracer()
    t.spans.extend([["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0],
                    ["c", 2.0, 3.0, 1]])
    totals = t.span_totals()
    assert totals["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}


def test_setup_seconds_follow_the_machine_speed_out():
    def passes(scale):
        return [run.PassResult(traced=False, setup_s=scale ** run.ELASTICITY * s,
                               reference_samples=[scale * k] * 12)
                for s, k in ((0.40, 0.010), (0.50, 0.012), (0.45, 0.011))]

    assert run.setup_seconds(passes(1.0)) == pytest.approx(
        0.45 * (run.NOMINAL_KERNEL_S / 0.011) ** run.ELASTICITY)
    assert run.setup_seconds(passes(1.7)) == pytest.approx(run.setup_seconds(passes(1.0)))


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {name: m[:2] for name, m in tracer.METRICS.items()}


def test_fails_outside_a_source_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hardy_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
