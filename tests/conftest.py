import itertools
import shlex
from pathlib import Path

import pytest

from orlicz_hardy.corpus import build_radial_function, load_manifest
from orlicz_hardy.quadrature import QuadratureSpec

ROOT = Path(__file__).parent.parent


def full_battery_commands() -> list:
    """The arguments of each command in the workflow's "Full battery" step,
    its --out flag dropped."""
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if "- name: Full battery" in line)
    commands = []
    for line in lines[start + 1:]:
        if "- name:" in line:
            break
        words = shlex.split(line.strip())
        if "orlicz_hardy.cli" in words:
            argv = words[words.index("orlicz_hardy.cli") + 1:]
            out = argv.index("--out")
            commands.append(argv[:out] + argv[out + 2:])
    return commands


def from_the_root(argv: list) -> list:
    """argv with each word that names a file under the repository root made
    absolute: the workflow runs from the root, and reads path arguments there."""
    return [str(ROOT / word) if (ROOT / word).is_file() else word for word in argv]


def retirement_sweep(sweeps: list, panels) -> int:
    """The index of the sweep after which a part retired on `panels`, from
    the panel count of each sweep of its family: the first sweep evaluates
    the family's panels, and each later one the two halves of every panel
    it splits, so the family holds half as many more panels after it."""
    held = list(itertools.accumulate([sweeps[0], *(p // 2 for p in sweeps[1:])]))
    return held.index(panels[0].size)


def radial_profile(factory):
    """The radial profile of a `gauss_poly_radial` field, built apart from
    the field: the radial `poly_gauss` kind from the same coefficients, with
    P(r^2) written as a polynomial in r."""
    params = factory.entry["params"]
    coefficients = [0.0] * (2 * len(params["even_coefficients"]) - 1)
    coefficients[::2] = params["even_coefficients"]
    return build_radial_function({
        "label": factory.label + "|profile", "kind": "poly_gauss",
        "params": {"coefficients": coefficients, "rate": params["rate"]}})


@pytest.fixture(scope="session")
def manifest():
    return load_manifest()


@pytest.fixture(scope="session")
def spec():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def admissible_triples(manifest, spec):
    """(nf_label, u_label, n) -> ModularTriple for every finite combination."""
    from orlicz_hardy.functionals import modular_triple_radial

    out = {}
    for nf_label, nf in manifest.nfunctions.items():
        for u_label, u in manifest.radial_functions.items():
            for n in (1, 2, 3, 4, 5):
                tri = modular_triple_radial(u, nf, n, spec)
                if tri.valid:
                    out[(nf_label, u_label, n)] = tri
    return out
