"""Every ``repro`` module imports on its own, first, in a fresh interpreter.

An import cycle can pass the rest of the suite, where some earlier import
already initialised half of it, and still fail the one process that imports
the cycle from its other end (a benchmark child importing
``repro.core.config`` first, say).  Each module here is imported alone, so an
order-dependent cycle fails whichever module enters it first.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
SRC = str(PACKAGE_ROOT.parent)


def repro_modules():
    """Dotted names of every module under ``src/repro`` (``__main__`` aside)."""
    names = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        if path.name == "__main__.py":
            continue
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def import_alone(module):
    """``None`` if ``module`` imports in a fresh interpreter, else its stderr."""
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return None if result.returncode == 0 else result.stderr.strip().splitlines()[-1]


def test_the_scan_finds_the_layers():
    modules = repro_modules()
    assert {"repro", "repro.core.config", "repro.smr.harness", "repro.lint"} <= set(modules)
    assert not any(name.endswith("__main__") for name in modules)


def test_every_module_imports_first_in_a_fresh_interpreter():
    modules = repro_modules()
    with ThreadPoolExecutor(max_workers=2) as pool:
        errors = dict(zip(modules, pool.map(import_alone, modules)))
    failed = {module: error for module, error in errors.items() if error is not None}
    assert failed == {}
