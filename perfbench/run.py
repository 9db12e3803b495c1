"""Verifier benchmark for orlicz-hardy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates the workload's
inputs (`inputs.py`); the program receives only those files and CLI flags.
Battery passes run closed loop, one at a time, each in a fresh child
process (`child.py`) that imports `orlicz_hardy.cli` and calls `cli.main`,
because users run one battery per process: nothing a module caches can carry
work from one pass into the next.  One untimed warm-up pass comes first
(byte-code compilation and page cache); it is checked like every other pass
and its report digest is the reference the measured passes must repeat.

Pass time is reported relative to a fixed reference kernel timed in the
same child around the pass (see `child.py`): on a shared machine whose
speed drifts over minutes, seconds are not comparable between runs, the
corrected time is.  Seconds are printed beside it.  Set-up time is
corrected the same way: `setup_s` is in seconds of a machine whose kernel
takes NOMINAL_KERNEL_S, and the seconds as measured are printed beside it.

Every pass is checked: a child that crashes or returns 2, a report that
fails `docs/report-schema.json`, a body whose digest differs from its
`meta.body_sha256`, or a digest different from the reference marks the pass
broken and counts all its checks as failed; so does every `fails` verdict.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes (`tracer.py` wraps the layer functions from outside the
package) and prints the per-layer metrics, including the tracing overhead
(traced minus untraced median pass_rel).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
attempted and failed count the battery's checks (see `battery_outcome`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import tracer  # noqa: E402

SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report-schema.json"

END_TO_END = {
    "pass_rel_p50": "kernels",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_ratio": "ratio",
    "decided_ratio": "ratio",
}

# Child processes run strictly one at a time; keep numpy's BLAS and OpenMP
# pools at one thread so a pass never oversubscribes a small machine.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}

TAIL_BEYOND = 10          # passes that must lie above the reported tail
MIN_PASSES = 3            # measured untraced passes, whatever --seconds says
MIN_TRACED = 2            # traced passes, so counters can be compared
DEADLINE_S = 150.0        # start no pass after this much wall time
NOMINAL_KERNEL_S = 0.012  # typical kernel time on a shared 2-vCPU machine
# Program time grows as kernel time ** ELASTICITY when the machine's speed
# changes: the kernel (small numpy expressions) is more sensitive to it than
# imports and quadrature are.  Over 60 runs on a shared 2-vCPU machine whose
# kernel time moved between 0.009 and 0.017 s, the log-log slope of median
# pass and set-up seconds against median kernel time was 0.66-1.04 by
# workload, median 0.76; with exponent 1 the fast runs read up to 17% high.
ELASTICITY = 0.75


@dataclass
class PassResult:
    """What one child pass produced and what checking it found."""

    traced: bool
    checks: int = 0
    failed: int = 0
    tally: Counter = field(default_factory=Counter)
    digest: str | None = None
    body_bytes: int = 0
    pass_s: float | None = None
    reference_samples: list = field(default_factory=list)
    setup_s: float | None = None
    maxrss_mb: float | None = None
    versions: dict = field(default_factory=dict)
    trace: dict | None = None
    problems: list = field(default_factory=list)

    @property
    def broken(self) -> bool:
        return bool(self.problems)


def canonical_digest(body) -> str:
    """SHA-256 of a report body in canonical form (sorted keys, no spaces)."""
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


class ReportChecker:
    """Checks the reports of one pass against the schema and the reference."""

    def __init__(self, schema_path: Path):
        import jsonschema

        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        self.reference: str | None = None
        self.reference_checks: int | None = None

    def check(self, result: PassResult, report_paths: list[Path], codes) -> PassResult:
        digests = []
        for i, path in enumerate(report_paths):
            if codes is not None and codes[i] not in (0, 1):
                result.problems.append(f"{path.name}: cli.main returned {codes[i]}")
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                result.problems.append(f"{path.name}: unreadable report ({exc})")
                continue
            error = next(iter(self.validator.iter_errors(doc)), None)
            if error is not None:
                result.problems.append(f"{path.name}: schema: {error.message[:200]}")
                continue
            body = doc["body"]
            digest = canonical_digest(body)
            if digest != doc["meta"]["body_sha256"]:
                result.problems.append(f"{path.name}: body does not match meta.body_sha256")
            digests.append(digest)
            result.body_bytes += len(json.dumps(body, sort_keys=True, separators=(",", ":")))
            for check in body["checks"]:
                result.tally[check["verdict"]] += 1
        result.checks = sum(result.tally.values())
        if not result.problems:
            result.digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
            if self.reference is None:
                self.reference, self.reference_checks = result.digest, result.checks
            elif result.digest != self.reference:
                result.problems.append(
                    f"report digest {result.digest[:16]} differs from the first "
                    f"pass's {self.reference[:16]}")
        if result.broken:
            result.checks = max(result.checks, self.reference_checks or 1)
            result.failed = result.checks
        else:
            result.failed = result.tally["fails"]
        return result


class Bench:
    """One benchmark run: inputs, the pass loop and the metrics."""

    def __init__(self, workload: str, seed: int, trace: bool,
                 run_root: Path = ROOT / ".perfbench"):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.run_dir = run_root / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.out_dir = self.run_dir / "reports"
        self.invocations = inputs.write_inputs(workload, seed, self.run_dir, self.out_dir)
        self.report_paths = [Path(argv[argv.index("--report") + 1])
                             for argv in self.invocations]
        self.checker = ReportChecker(SCHEMA)
        self.env = {k: v for k, v in os.environ.items() if k != "ORLICZ_SEED"}
        self.env.update(THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def run_pass(self, traced: bool, timeout: float) -> PassResult:
        result = PassResult(traced=traced)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        spec_path = self.run_dir / "pass.json"
        spec_path.write_text(json.dumps({"invocations": self.invocations, "trace": traced}))
        started = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            result.problems.append(f"pass exceeded {timeout:.0f} s and was killed")
            return self.checker.check(result, [], None)
        out = None
        if proc.returncode == 0 and proc.stdout.strip():
            try:
                out = json.loads(proc.stdout.strip().splitlines()[-1])
            except ValueError:
                pass
        if out is None:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            result.problems.append(f"child exited {proc.returncode}: {tail}")
            return self.checker.check(result, self.report_paths, None)
        result.pass_s = out["pass_s"]
        result.reference_samples = out["reference_samples"]
        result.setup_s = out["imported"] - started
        result.maxrss_mb = out["maxrss_kb"] / 1024.0
        result.versions = out["versions"]
        result.trace = out.get("trace")
        return self.checker.check(result, self.report_paths, out["codes"])

    def run(self, seconds: float) -> list[PassResult]:
        began = time.monotonic()

        def remaining() -> float:
            return DEADLINE_S + 20.0 - (time.monotonic() - began)

        warmup = self.run_pass(False, remaining())
        if warmup.broken:
            return [warmup]
        passes = [warmup]
        start = time.monotonic()
        while True:
            measured = passes[1:]
            untraced = sum(not p.traced for p in measured)
            traced = len(measured) - untraced
            enough = untraced >= MIN_PASSES and (not self.trace or traced >= MIN_TRACED)
            if enough and time.monotonic() - start >= seconds:
                break
            if passes[-1].broken or time.monotonic() - began >= DEADLINE_S:
                break
            passes.append(self.run_pass(self.trace and untraced > traced, remaining()))
        return passes


def battery_outcome(passes: list[PassResult]) -> tuple[int, int]:
    """(attempted, failed) checks of the battery the run repeated.

    Every pass runs the same checks, so a check counts once however many
    passes the run had time for, and it counts as failed if it failed in
    any pass; a broken pass fails them all.  Both numbers then depend on
    the seed and the program only, not on the speed of the machine."""
    return max(p.checks for p in passes), max(p.failed for p in passes)


def trimmed_mean(samples: list[float]) -> float:
    """Mean of the samples without the highest and lowest tenth (at least
    one each): robust to a single interrupted kernel run, yet it follows a
    pass whose kernel samples mix the machine's fast and slow states."""
    ordered = sorted(samples)
    cut = max(1, len(ordered) // 10)
    return statistics.fmean(ordered[cut:-cut])


def tail_percentile(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above) of the highest order statistic
    with at least TAIL_BEYOND samples above it; the lowest one when there
    are fewer."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def machine_slowdown(kernel_s: float) -> float:
    """How much slower than nominal the machine ran the program, judged
    from the reference kernel time measured beside it."""
    return (kernel_s / NOMINAL_KERNEL_S) ** ELASTICITY


def relative(p: PassResult) -> float:
    """Pass time in reference-kernel units of a machine whose kernel takes
    NOMINAL_KERNEL_S."""
    return p.pass_s / (NOMINAL_KERNEL_S * machine_slowdown(trimmed_mean(p.reference_samples)))


def setup_seconds(good: list[PassResult]) -> float:
    """Median set-up seconds, rescaled from this run's machine speed to a
    machine whose reference kernel takes NOMINAL_KERNEL_S.

    Set-up is mostly CPU work (unmarshalling and initialising numpy, scipy
    and the package), so it slows with the machine as the kernel does; over
    ten seeds on a shared 2-vCPU machine the raw median spread 12-25%
    (IQR/median), the rescaled one 5-11%."""
    kernel = statistics.median(trimmed_mean(p.reference_samples) for p in good)
    return statistics.median(p.setup_s for p in good) / machine_slowdown(kernel)


def end_to_end(measured: list[PassResult]) -> tuple[dict, list[str]]:
    good = [p for p in measured if not p.broken]
    times = [p.pass_s for p in good]
    checks = sum(p.checks for p in measured)
    metrics = {
        "pass_rel_p50": statistics.median(relative(p) for p in good),
        "setup_s": setup_seconds(good),
        "peak_rss_mb": max(p.maxrss_mb for p in good),
        "passed_ratio": (checks - sum(p.failed for p in measured)) / checks,
        "decided_ratio": (checks - sum(p.tally["indeterminate"] for p in measured)) / checks,
    }
    tail, pct, beyond = tail_percentile([relative(p) for p in good])
    notes = [f"pass_rel: p{pct:.1f} {tail} kernels of {len(good)} passes ({beyond} beyond)",
             f"pass_s: median {statistics.median(times)} s, reference kernel "
             f"{statistics.median(trimmed_mean(p.reference_samples) for p in good)} s, "
             f"{sum(p.checks for p in good) / sum(times)} checks/s",
             f"setup: median {statistics.median(p.setup_s for p in good)} s as measured"]
    return metrics, notes


def per_layer(measured: list[PassResult]) -> tuple[dict, list[str], bool]:
    good = [p for p in measured if not p.broken]
    traced = [p for p in good if p.traced]
    untraced = [p for p in good if not p.traced]
    first = traced[0].trace["metrics"]
    metrics = {}
    for name, value in first.items():
        if tracer.METRICS[name][0] == "s":
            metrics[name] = statistics.median(p.trace["metrics"][name] for p in traced)
        else:
            metrics[name] = value
    metrics["reporting.body_bytes"] = traced[0].body_bytes
    metrics["tracing.overhead_rel"] = (statistics.median(relative(p) for p in traced)
                                       - statistics.median(relative(p) for p in untraced))
    notes, steady = [], True
    for p in traced[1:]:
        for name in tracer.DETERMINISTIC:
            seen = p.body_bytes if name == "reporting.body_bytes" else p.trace["metrics"].get(name)
            if seen != metrics.get(name):
                steady = False
                notes.append(f"counter {name} differs between traced passes: "
                             f"{metrics.get(name)} vs {seen}")
    absent = traced[0].trace["absent"]
    if absent:
        notes.append("absent (layer function not found): " + ", ".join(absent))
    return {k: metrics[k] for k in tracer.METRICS if k in metrics}, notes, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "orlicz_hardy" / "cli.py", SCHEMA) if not p.is_file()]
    if missing:
        print("error: not a source checkout of orlicz-hardy; missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, bool(args.trace))
    passes = bench.run(args.seconds)
    warmup, measured = passes[0], passes[1:]
    for i, p in enumerate(passes):
        for problem in p.problems:
            print(f"pass {i}: {problem}", file=sys.stderr)
    good = [p for p in measured if not p.broken]
    if not any(not p.traced for p in good) or (args.trace and not any(p.traced for p in good)):
        print("error: too few passes completed and checked; no metrics", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(warmup.checks, 1),
                          "failed": max(warmup.checks, 1), "metrics": {}}))
        return 1

    versions = warmup.versions
    print(f"env: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={len(os.sched_getaffinity(0))} python={versions['python']} "
          f"numpy={versions['numpy']} scipy={versions['scipy']}")
    tally = " ".join(f"{v}={warmup.tally[v]}"
                     for v in ("holds", "fails", "indeterminate", "trivial"))
    print(f"verdicts: checks={warmup.checks} {tally} digest={warmup.digest}")
    print(f"passes: {len(measured)} measured "
          f"({sum(p.traced for p in measured)} traced), 1 warm-up; pass_s "
          + " ".join(f"{p.pass_s:.3f}{'t' if p.traced else ''}" for p in measured if not p.broken))

    if args.trace:
        metrics, notes, correct = per_layer(measured)
        units = {name: spec[0] for name, spec in tracer.METRICS.items()}
    else:
        metrics, notes = end_to_end(measured)
        correct, units = True, END_TO_END
    correct = correct and not any(p.broken for p in passes)
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    attempted, failed = battery_outcome(passes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
