"""Every function in the package runs in a battery, or it says why not.

The CI battery commands run in-process under `sys.setprofile`, which
records the code object of every Python call.  Every `def` in
`src/orlicz_hardy/` (methods and nested functions included, lambdas and
comprehensions not) must appear in that record; it is named by module and
qualified name.  `NOT_IN_A_BATTERY` is the only exception: each entry names
why the function stays although no battery reaches it.  A new function that
no battery runs fails here until it is run or given a reason.
"""

import importlib
import sys
import types
from pathlib import Path

import orlicz_hardy
from conftest import from_the_root, full_battery_commands
from orlicz_hardy.cli import main

PACKAGE = Path(orlicz_hardy.__file__).parent

# The commands of CI's full-battery step; `all` runs every battery's default.
COMMANDS = [from_the_root(argv) for argv in full_battery_commands()]

NOT_IN_A_BATTERY = {
    ("nfunc", "check_lemma_split"):
        "acceptance criterion 8 states the split lemma through it",
    ("nfunc", "check_lemma_young"):
        "acceptance criterion 8 states the Young-type lemma through it",
    ("nfunc", "_ratio_power"): "the continuous M(r)/r^alpha of check_lemma_split",
    ("sharpness", "stirling_ratio"): "acceptance criterion 6 names it",
    ("functionals", "modular_value"):
        "acceptance criterion 11 and the Luxemburg reference tests use it",
}

CO_OPTIMIZED = 0x1  # set on function code, unset on module and class bodies


def _module_name(path: Path) -> str:
    return path.stem if path.stem != "__init__" else ""


def _defs(code: types.CodeType, module: str, prefix: str, out: dict):
    """(file, first line, name) -> (module, qualname) for every def nested
    anywhere in code, whose own qualname is prefix without its tail.  The
    qualname is built as `co_qualname` (Python 3.11) spells it."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            function = bool(const.co_flags & CO_OPTIMIZED)
            qualname = prefix + const.co_name
            if function and not const.co_name.startswith("<"):
                out[(const.co_filename, const.co_firstlineno, const.co_name)] = (
                    module, qualname)
            _defs(const, module, qualname + (".<locals>." if function else "."), out)


def _package_defs() -> dict:
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        _defs(code, _module_name(path), "", out)
    return out


def _clear_caches():
    """Empty every functools cache of the package, so a function that an
    earlier test already called runs again under the trace."""
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(
            ".".join(filter(None, ("orlicz_hardy", _module_name(path)))))
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _traced_calls(tmp_path) -> set:
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    _clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in COMMANDS:
            assert main(["--out", str(tmp_path), *argv]) == 0, argv
    finally:
        sys.setprofile(previous)
    return seen


def test_every_function_runs_in_a_battery(tmp_path):
    seen = _traced_calls(tmp_path)
    unreached = {key: name for key, name in _package_defs().items() if key not in seen}
    missing = sorted(f"{module}:{qualname} (line {line})"
                     for (_, line, _), (module, qualname) in unreached.items()
                     if (module, qualname) not in NOT_IN_A_BATTERY)
    assert not missing, "no battery runs these functions: " + ", ".join(missing)
    # an allowlisted function that a battery now runs, or that is gone,
    # leaves the allowlist
    stale = set(NOT_IN_A_BATTERY) - set(unreached.values())
    assert not stale, f"allowlisted but run by a battery or gone: {sorted(stale)}"
