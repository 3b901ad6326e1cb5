"""The protocol layers import nothing from the fault layer.

Faults are an input to the protocol: a Byzantine behaviour is an object
:mod:`repro.faults` installs on a node, so the correct node and the layers
below it never name one.  The scan reads every ``import`` and
``from ... import`` statement, function-local ones included.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
LAYERS = ("group", "net", "overlay", "sim", "crypto", "smr")
# Test support, not the protocol; it leaves the package with ROADMAP item 24(b).
SKIPPED = {"smr/harness.py"}


def protocol_modules():
    paths = [PACKAGE_ROOT / "core" / "node.py", PACKAGE_ROOT / "core" / "forward.py"]
    for layer in LAYERS:
        paths += sorted((PACKAGE_ROOT / layer).rglob("*.py"))
    return [
        path for path in paths
        if path.relative_to(PACKAGE_ROOT).as_posix() not in SKIPPED
    ]


def imported_modules(path):
    """Every module name an import statement of ``path`` names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names.append(node.module)
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return names


def test_the_scan_covers_every_protocol_layer():
    scanned = {path.relative_to(PACKAGE_ROOT).as_posix() for path in protocol_modules()}
    assert {"core/node.py", "core/forward.py", "smr/pbft.py", "net/network.py"} <= scanned
    assert {path.split("/")[0] for path in scanned} == {"core", *LAYERS}
    assert not scanned & SKIPPED


def test_the_scan_sees_an_import_of_the_fault_layer():
    assert "repro.faults.invariants" in imported_modules(PACKAGE_ROOT / "smr" / "harness.py")


def test_no_protocol_module_imports_the_fault_layer():
    offenders = {
        path.relative_to(PACKAGE_ROOT).as_posix(): name
        for path in protocol_modules()
        for name in imported_modules(path)
        if name == "repro.faults" or name.startswith("repro.faults.")
    }
    assert offenders == {}
