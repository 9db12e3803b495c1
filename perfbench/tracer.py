"""Layer tracer for `orlicz_hardy`, installed from outside the package.

The tracer wraps the public (and the two kernel-level private) functions at
each layer boundary.  It changes nothing under `src/`: after the package is
imported it replaces a layer function under *every* `orlicz_hardy` module
attribute bound to that function object, because several layer functions
are imported by name into other modules (`integrate_radial` into
`functionals`, `luxemburg_norm` into `landau_kolmogorov`,
`write_report` into `cli`, ...) and patching the defining module alone
would miss those calls.

Each wrapped call records a span (name, start, end, parent) in memory and
bumps deterministic work counters at the boundary where the work happens.
A layer whose function no longer exists is reported as absent: its metrics
are left out and the rest are computed as usual.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "orlicz_hardy"

# (span name, defining module, attribute).  Two targets may share a span name.
TARGETS = (
    ("quadrature.gk_panels", "orlicz_hardy.quadrature", "_gk_panels"),
    ("quadrature.adaptive", "orlicz_hardy.quadrature", "_adaptive"),
    ("quadrature.integrate_radial", "orlicz_hardy.quadrature", "integrate_radial"),
    ("quadrature.integrate_gaussian_nd", "orlicz_hardy.quadrature", "integrate_gaussian_nd"),
    ("quadrature.integrate_interval", "orlicz_hardy.quadrature", "integrate_interval"),
    ("functionals.luxemburg_norm", "orlicz_hardy.functionals", "luxemburg_norm"),
    ("functionals.modular_triple", "orlicz_hardy.functionals", "modular_triple_radial"),
    ("mazya.mazya_B", "orlicz_hardy.mazya", "mazya_B"),
    ("landau_kolmogorov.norm_triple", "orlicz_hardy.landau_kolmogorov", "lk_norm_triple"),
    ("landau_kolmogorov.modular_terms", "orlicz_hardy.landau_kolmogorov", "lk_modular_terms"),
    ("landau_kolmogorov.fit", "orlicz_hardy.landau_kolmogorov", "fit_lk_norm_envelope"),
    ("landau_kolmogorov.fit", "orlicz_hardy.landau_kolmogorov", "fit_lk_modular_envelope"),
    ("reporting.write_report", "orlicz_hardy.reporting", "write_report"),
    ("corpus.load_manifest", "orlicz_hardy.corpus", "load_manifest"),
)

# Per-layer metrics: name -> (unit, better, spans it needs, what it should
# move).  "moves" names the end-to-end metric and the workloads on which a
# change to this layer should show; BENCHMARK.json cannot hold it.
METRICS = {
    "quadrature.integrals": ("count", "lower", ("quadrature.adaptive",),
                             "pass_rel_p50 on mazya_scan"),
    "quadrature.panels": ("count", "lower", ("quadrature.gk_panels",),
                          "pass_rel_p50 on all three workloads"),
    "quadrature.sweeps": ("count", "lower", ("quadrature.gk_panels",),
                          "pass_rel_p50 on all three workloads"),
    "quadrature.abscissae": ("count", "lower", ("quadrature.gk_panels",),
                             "pass_rel_p50 on lk_envelope"),
    "quadrature.gk_panels.self_s": ("s", "lower", ("quadrature.gk_panels",),
                                    "pass_rel_p50 on lk_envelope"),
    "quadrature.adaptive.self_s": ("s", "lower", ("quadrature.adaptive",),
                                   "pass_rel_p50 on mazya_scan"),
    "quadrature.nonconverged_ratio": ("ratio", "lower", ("quadrature.adaptive",),
                                      "decided_ratio and passed_ratio on all three"),
    "quadrature.integrate_radial.calls": ("count", "lower", ("quadrature.integrate_radial",),
                                          "pass_rel_p50 on hardy_sweep"),
    "quadrature.integrate_radial.self_s": ("s", "lower", ("quadrature.integrate_radial",),
                                           "pass_rel_p50 on hardy_sweep"),
    "quadrature.integrate_gaussian_nd.calls": ("count", "lower",
                                               ("quadrature.integrate_gaussian_nd",),
                                               "pass_rel_p50 on lk_envelope, hardy_sweep"),
    "quadrature.integrate_gaussian_nd.self_s": ("s", "lower",
                                                ("quadrature.integrate_gaussian_nd",),
                                                "pass_rel_p50 on lk_envelope, hardy_sweep"),
    "quadrature.integrate_interval.calls": ("count", "lower", ("quadrature.integrate_interval",),
                                            "pass_rel_p50 on mazya_scan"),
    "quadrature.integrate_interval.self_s": ("s", "lower", ("quadrature.integrate_interval",),
                                             "pass_rel_p50 on mazya_scan"),
    "functionals.luxemburg_norm.calls": ("count", "lower", ("functionals.luxemburg_norm",),
                                         "pass_rel_p50 on lk_envelope, then hardy_sweep"),
    "functionals.luxemburg_norm.s": ("s", "lower", ("functionals.luxemburg_norm",),
                                     "pass_rel_p50 on lk_envelope, then hardy_sweep"),
    "functionals.luxemburg.integrals_per_norm": ("integrals/norm", "lower",
                                                 ("functionals.luxemburg_norm",
                                                  "quadrature.adaptive"),
                                                 "pass_rel_p50 on lk_envelope, then hardy_sweep"),
    "functionals.modular_triple.calls": ("count", "lower", ("functionals.modular_triple",),
                                         "pass_rel_p50 on hardy_sweep"),
    "functionals.modular_triple.s": ("s", "lower", ("functionals.modular_triple",),
                                     "pass_rel_p50 on hardy_sweep"),
    "mazya.mazya_B.calls": ("count", "lower", ("mazya.mazya_B",), "pass_rel_p50 on mazya_scan"),
    "mazya.mazya_B.s": ("s", "lower", ("mazya.mazya_B",), "pass_rel_p50 on mazya_scan"),
    "mazya.integrals_per_B": ("integrals/B", "lower", ("mazya.mazya_B", "quadrature.adaptive"),
                              "pass_rel_p50 on mazya_scan"),
    "landau_kolmogorov.norm_triple.useful_ratio": ("ratio", "higher",
                                                   ("landau_kolmogorov.norm_triple",),
                                                   "pass_rel_p50 on lk_envelope"),
    "landau_kolmogorov.modular_terms.useful_ratio": ("ratio", "higher",
                                                     ("landau_kolmogorov.modular_terms",),
                                                     "pass_rel_p50 on lk_envelope"),
    "landau_kolmogorov.fit.self_s": ("s", "lower", ("landau_kolmogorov.fit",),
                                     "pass_rel_p50 on lk_envelope"),
    "reporting.write_report.s": ("s", "lower", ("reporting.write_report",),
                                 "pass_rel_p50 on hardy_sweep"),
    "reporting.body_bytes": ("bytes", "lower", (), "pass_rel_p50 on hardy_sweep"),
    "corpus.load_manifest.s": ("s", "lower", ("corpus.load_manifest",),
                               "pass_rel_p50 on hardy_sweep and lk_envelope"),
    "tracing.overhead_rel": ("kernels", "lower", (), "nothing: traced minus untraced pass_rel_p50"),
}

# Counters that must repeat exactly across traced passes of one seed.
DETERMINISTIC = (
    "quadrature.integrals", "quadrature.panels", "quadrature.sweeps",
    "quadrature.abscissae", "quadrature.nonconverged_ratio",
    "quadrature.integrate_radial.calls", "quadrature.integrate_gaussian_nd.calls",
    "quadrature.integrate_interval.calls", "functionals.luxemburg_norm.calls",
    "functionals.luxemburg.integrals_per_norm", "functionals.modular_triple.calls",
    "mazya.mazya_B.calls", "mazya.integrals_per_B",
    "landau_kolmogorov.norm_triple.useful_ratio",
    "landau_kolmogorov.modular_terms.useful_ratio", "reporting.body_bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for one battery pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters: dict[str, int] = {}
        self.keys: dict[str, set] = {}   # distinct argument keys per span name
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        defining = {}
        for _, module_name, _ in TARGETS:
            try:
                defining[module_name] = importlib.import_module(module_name)
            except ModuleNotFoundError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for span, module_name, attr in TARGETS:
            original = getattr(defining.get(module_name), attr, None)
            if not callable(original):
                self.absent.add(span)
                continue
            self.present.add(span)
            wrapper = self._wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        self.absent -= self.present
        return self

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, span: str, fn):
        hook = getattr(self, "_on_" + span.replace(".", "_"), None)
        signature = inspect.signature(fn)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [span, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            active[span] = active.get(span, 0) + 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                active[span] -= 1
                stack.pop()
            if hook is not None:
                hook(signature, args, kwargs, result)
            return result

        return wrapper

    # -- counters, bumped after the wrapped call returns ----------------------

    def _count(self, name: str, by: int = 1):
        self.counters[name] = self.counters.get(name, 0) + by

    def _on_quadrature_gk_panels(self, signature, args, kwargs, result):
        # called ~20k times a pass: read the positional argument directly
        lo = args[1] if len(args) > 1 else signature.bind(*args, **kwargs).arguments["lo"]
        panels = len(lo)
        self._count("panels", panels)
        self._count("sweeps")
        self._count("abscissae", panels * 15 * result[0].shape[0])

    def _on_quadrature_adaptive(self, signature, args, kwargs, result):
        self._count("integrals")
        if not result[2]:
            self._count("nonconverged")
        if self._active.get("functionals.luxemburg_norm"):
            self._count("luxemburg_integrals")
        if self._active.get("mazya.mazya_B"):
            self._count("mazya_integrals")

    def _distinct(self, span: str, key):
        self.keys.setdefault(span, set()).add(key)

    def _on_landau_kolmogorov_norm_triple(self, signature, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        u, nf = bound.arguments["u"], bound.arguments["nf"]
        self._distinct("landau_kolmogorov.norm_triple",
                       (u.label, u.n, nf.label, bound.arguments.get("normalized")))

    def _on_landau_kolmogorov_modular_terms(self, signature, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        u, nf = bound.arguments["u"], bound.arguments["nf"]
        self._distinct("landau_kolmogorov.modular_terms",
                       (u.label, u.n, nf.label, bound.arguments.get("theta"),
                        bound.arguments.get("normalized")))

    # -- summary ---------------------------------------------------------------

    def span_totals(self) -> dict[str, dict]:
        """calls, inclusive seconds (outermost spans of a name) and self
        seconds (duration minus the time direct child spans cover) per name.

        The program is single-threaded, so direct children never overlap and
        their cover is the sum of their durations."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        totals: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += (end - start) - child_cover[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                t["s"] += end - start
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values of this pass; absent layers are left out.

        `reporting.body_bytes` and `tracing.overhead_rel` are measured by the
        driver from the reports and the untraced passes."""
        totals = self.span_totals()
        c = self.counters

        def calls(span):
            return totals.get(span, {}).get("calls", 0)

        def seconds(span, key):
            return totals.get(span, {}).get(key, 0.0)

        values = {
            "quadrature.integrals": c.get("integrals", 0),
            "quadrature.panels": c.get("panels", 0),
            "quadrature.sweeps": c.get("sweeps", 0),
            "quadrature.abscissae": c.get("abscissae", 0),
            "quadrature.gk_panels.self_s": seconds("quadrature.gk_panels", "self_s"),
            "quadrature.adaptive.self_s": seconds("quadrature.adaptive", "self_s"),
            "quadrature.nonconverged_ratio": _ratio(c.get("nonconverged", 0),
                                                    c.get("integrals", 0)),
            "functionals.luxemburg_norm.calls": calls("functionals.luxemburg_norm"),
            "functionals.luxemburg_norm.s": seconds("functionals.luxemburg_norm", "s"),
            "functionals.luxemburg.integrals_per_norm": _ratio(
                c.get("luxemburg_integrals", 0), calls("functionals.luxemburg_norm")),
            "functionals.modular_triple.calls": calls("functionals.modular_triple"),
            "functionals.modular_triple.s": seconds("functionals.modular_triple", "s"),
            "mazya.mazya_B.calls": calls("mazya.mazya_B"),
            "mazya.mazya_B.s": seconds("mazya.mazya_B", "s"),
            "mazya.integrals_per_B": _ratio(c.get("mazya_integrals", 0),
                                            calls("mazya.mazya_B")),
            "landau_kolmogorov.fit.self_s": seconds("landau_kolmogorov.fit", "self_s"),
            "reporting.write_report.s": seconds("reporting.write_report", "s"),
            "corpus.load_manifest.s": seconds("corpus.load_manifest", "s"),
        }
        for layer in ("integrate_radial", "integrate_gaussian_nd", "integrate_interval"):
            span = "quadrature." + layer
            values[span + ".calls"] = calls(span)
            values[span + ".self_s"] = seconds(span, "self_s")
        for span in ("landau_kolmogorov.norm_triple", "landau_kolmogorov.modular_terms"):
            values[span + ".useful_ratio"] = _ratio(len(self.keys.get(span, ())), calls(span))
        return {name: value for name, value in values.items()
                if not any(s in self.absent for s in METRICS[name][2])}

    def absent_metrics(self) -> list[str]:
        return sorted(name for name, (_, _, needs, _) in METRICS.items()
                      if any(s in self.absent for s in needs))
