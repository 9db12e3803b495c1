"""One battery pass in a fresh interpreter.

    python child.py PASS_SPEC.json

PASS_SPEC.json holds {"invocations": [[argv...], ...], "trace": bool}.  The
pass imports `orlicz_hardy.cli` (the set-up the parent times from before it
started this process), optionally installs the layer tracer, calls
`cli.main` once per argument list, and prints one JSON line: the monotonic
time the import finished, the pass time (the summed duration of the `main`
calls), the reference-kernel times, each return code, the process max-RSS
and the library versions.

The reference kernel is fixed work timed right before and right after the
pass, and once between consecutive `cli.main` calls.  The machine this
benchmark was sized on is shared, and its speed switches between a fast
and a slow state within seconds and drifts by up to 1.7x over minutes;
correcting pass time by the typical kernel time (`run.machine_slowdown`)
cancels most of that, because both run on the same core moments apart.  The
kernel never changes with the program, so a program that does less work
lowers the corrected time in proportion.
"""

import json
import sys
import time

import numpy as np

BRACKET_SAMPLES = 5       # kernel runs before the pass, and again after it


def reference_kernel() -> float:
    """Small numpy expressions driven from a Python loop, like quadrature."""
    x = np.linspace(0.0, 8.0, 256)
    total = 0.0
    for i in range(1000):
        y = np.exp(-0.5 * x * x * (1.0 + 1e-4 * i)) * x ** 2
        total += float(np.abs(y - y.mean()).sum())
    return total


def time_reference(samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return times


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    import orlicz_hardy.cli as cli
    imported = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer().install()

    reference = time_reference(BRACKET_SAMPLES)
    codes = []
    pass_s = 0.0
    for argv in spec["invocations"]:
        if codes:
            reference += time_reference(1)
        start = time.perf_counter()
        codes.append(cli.main(argv))
        pass_s += time.perf_counter() - start
    reference += time_reference(BRACKET_SAMPLES)

    import resource

    import scipy

    out = {
        "imported": imported,
        "pass_s": pass_s,
        "reference_samples": reference,
        "codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        out["trace"] = {"metrics": tracer.metrics(),
                        "absent": tracer.absent_metrics()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
