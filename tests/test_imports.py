"""What an `ldga` process imports, and where each exception lives.

Each CLI command runs in a fresh interpreter started with ``-S`` (no site
module, so nothing is preloaded) and reports its ``sys.modules``: pytest
has every module loaded already, so the check cannot run in this process.
The assertions are on module names only; no timing is involved.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from ldga import algebra, augment, cedga, diagram, errors, obstruct, spin
from ldga import _diskcore

REPO = Path(__file__).resolve().parents[1]

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from ldga.cli import main
code = main(sys.argv[2:])
print(code)
print(" ".join(sorted(sys.modules)))
"""

# the eight commands of the cli-small benchmark workload
COMMANDS = {
    "dga": ["dga", "--builtin", "trefoil"],
    "augs": ["augs", "--builtin", "trefoil", "--field", "16"],
    "linpoly": ["linpoly", "--grid", "fixtures/m821.json", "--field", "2", "--all-augs"],
    "spin": ["spin", "--builtin", "twist:5", "--spin", "3", "--integral"],
    "augvar": ["augvar", "--system", "fixtures/twist_variety.sys", "--fields", "2,4,8,16"],
    "obstruct": ["obstruct", "--poly", "t^-1 + 4 + 2*t", "--dim", "1"],
    "certify-classA": ["certify", "classA"],
    "certify-classB": ["certify", "classB", "--n", "9", "--spin", "3", "--fields", "2,4"],
}
DIGESTS = {"linpoly", "augvar"}  # commands that hash an input file
FIXTURE_READERS = {"certify-classA"}  # commands that read the packaged m(8_21) grid
NOT_LOADED = {
    "dga": {"ldga.augment", "ldga.linhom", "ldga.spin", "ldga.obstruct"},
    "augs": {"ldga.spin", "ldga.obstruct"},
    "linpoly": {"ldga.spin", "ldga.obstruct"},
    "spin": {"ldga.obstruct"},
    "augvar": {"ldga.cedga", "ldga.diagram", "ldga._diskcore"},
    "obstruct": {"ldga.cedga", "ldga.augment", "ldga.diagram"},
}


def loaded_modules(argv, out):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(REPO / "src"), *argv, "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = proc.stdout.splitlines()[-2:]
    assert code == "0", proc.stderr
    return set(modules.split())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_each_command_imports_only_what_it_runs(name, tmp_path):
    modules = loaded_modules(COMMANDS[name], tmp_path / "out")
    assert "ldga.cli" in modules
    assert not modules & {"dataclasses", "inspect"}
    assert ("hashlib" in modules) == (name in DIGESTS)
    assert ("importlib.resources" in modules) == (name in FIXTURE_READERS)
    assert not modules & NOT_LOADED.get(name, set())


@pytest.mark.parametrize(
    "module, name, base",
    [
        (algebra, "CoefficientError", ValueError),
        (algebra, "DGAValidationError", ValueError),
        (augment, "AugmentationError", ValueError),
        (cedga, "BuiltinError", ValueError),
        (cedga, "DSLError", ValueError),
        (cedga, "DiskSearchError", RuntimeError),
        (cedga, "DiskBudgetExceeded", RuntimeError),
        (_diskcore, "DiskBudgetExceeded", RuntimeError),
        (diagram, "DiagramError", ValueError),
        (spin, "SpinError", ValueError),
        (obstruct, "ObstructionStageError", RuntimeError),
    ],
)
def test_exceptions_keep_their_homes_and_bases(module, name, base):
    cls = getattr(module, name)
    assert cls is getattr(errors, name)
    assert issubclass(cls, base) and issubclass(cls, errors.LdgaError)
    assert cls.exit_code in (errors.EXIT_PARSE, errors.EXIT_VALIDATE, errors.EXIT_STAGE)
