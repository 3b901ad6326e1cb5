"""Which ``src/repro`` functions do only the tests reach?

Records every Python call made under ``src/repro`` while two groups of runs
execute, then prints the functions the tier-1 suite calls that no product
run calls:

* **product** -- the fault matrix (``--workers 1``), the paper benches
  (``benchmarks/bench_*.py``), every ``examples/*.py`` and the ``stack``
  suite at tiny scale;
* **tier-1** -- ``pytest tests``, with ``tests/test_hot_path_budget.py`` in
  a process of its own.

Such a function is either a reference the tests compare against, a rare path
only a test drives, a test convenience, or code nothing needs any more; the
list is the starting point for deciding which.

Usage (not collected by pytest; a full run takes about 5 minutes on a
2-core host)::

    python tests/reachability.py [--out report.json]

How the calls are recorded:

* a ``sitecustomize.py`` written to a temporary directory at the head of
  ``PYTHONPATH`` installs the recorder in every interpreter, so the
  ``stack`` suite's child interpreters are traced too;
* ``sys.setprofile(None)`` (pytest-benchmark clears the profiler)
  re-installs the recorder instead of removing it;
* ``cProfile`` replaces the hook at the C level, so the one test file that
  runs it gets its own process and loses only the profiled region;
* each interpreter writes the code objects it saw at exit, which is why the
  matrix runs with one worker: pool workers exit without running ``atexit``;
* a code object is keyed by (file, first line including decorators, name),
  which is what ``co_firstlineno`` gives and what the AST walk below rebuilds.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

Key = Tuple[str, int, str]

SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_seen = set()


def _record(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


_setprofile = sys.setprofile


def _keep_recording(func):
    _setprofile(_record if func is None else func)


def _dump():
    _setprofile(None)  # or the comprehension below records itself
    keys = sorted(
        {{
            (code.co_filename, code.co_firstlineno, code.co_name)
            for code in _seen
            if code.co_filename.startswith(_PREFIX)
        }}
    )
    path = os.path.join(_OUT, "calls-%d.json" % os.getpid())
    with open(path, "w") as handle:
        json.dump(keys, handle)


sys.setprofile = _keep_recording
_setprofile(_record)
threading.setprofile(_record)
atexit.register(_dump)
'''


def definitions() -> Tuple[Set[Key], Set[Key]]:
    """Every ``def`` and every ``class`` under ``src/repro``, keyed like a
    recorded code object (a class body runs as a code object of its own)."""
    functions: Set[Key] = set()
    classes: Set[Key] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                kind = classes if isinstance(node, ast.ClassDef) else functions
                kind.add((str(path), first, node.name))
    return functions, classes


def run_recorded(commands: Iterable[List[str]], label: str) -> Set[Key]:
    """Run ``commands`` under the recorder; the union of what they called."""
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hook_dir = Path(scratch) / "hook"
        out_dir = Path(scratch) / "calls"
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(prefix=str(PACKAGE), out=str(out_dir))
        )
        paths = [str(hook_dir), str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        for command in commands:
            print(f"[{label}] {' '.join(command)}", file=sys.stderr, flush=True)
            done = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            if done.returncode != 0:
                print(done.stderr[-2000:], file=sys.stderr)
                raise SystemExit(f"[{label}] exited {done.returncode}: {command}")
        seen: Set[Key] = set()
        for path in out_dir.glob("calls-*.json"):
            seen.update(tuple(key) for key in json.loads(path.read_text()))
        return seen


def product_commands(output: str) -> List[List[str]]:
    python = sys.executable
    benches = sorted(glob.glob(str(ROOT / "benchmarks" / "bench_*.py")))
    examples = sorted(glob.glob(str(ROOT / "examples" / "*.py")))
    return [
        [python, "-m", "repro.faults.scenarios", "--seeds", "2", "--workers", "1",
         "--output", output],
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", *benches],
        *([python, example] for example in examples),
        [python, str(ROOT / "benchmarks" / "stack" / "run.py"), "--scale", "tiny",
         "--repeats", "1"],
    ]


def tier1_commands() -> List[List[str]]:
    python = sys.executable
    budget = "tests/test_hot_path_budget.py"
    return [
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests",
         "--ignore", budget],
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", budget],
    ]


def relative(key: Key) -> str:
    path, line, name = key
    return f"{os.path.relpath(path, SRC)}:{line} {name}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the report here as JSON")
    args = parser.parse_args()
    defined, classes = definitions()
    with tempfile.TemporaryDirectory(prefix="reach-matrix-") as scratch:
        product = run_recorded(product_commands(str(Path(scratch) / "m.json")), "product")
    tier1 = run_recorded(tier1_commands(), "tier-1")
    # Lambdas, comprehensions and module bodies are named "<...>"; anything
    # else that matches no definition means the keying is off.
    unmatched = sorted(
        key for key in (product | tier1) - defined - classes if not key[2].startswith("<")
    )
    only_tests = sorted((tier1 - product) & defined)
    report: Dict[str, object] = {
        "defined": len(defined),
        "product": len(product & defined),
        "tier1": len(tier1 & defined),
        "only_tier1": [relative(key) for key in only_tests],
        "unmatched": [relative(key) for key in unmatched],
    }
    for line in report["only_tier1"]:
        print(line)
    print(
        f"{len(only_tests)} of {len(defined)} functions reached only by tier-1 "
        f"(product reaches {report['product']}, tier-1 {report['tier1']})",
        file=sys.stderr,
    )
    if unmatched:
        print(f"{len(unmatched)} recorded functions match no definition", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
