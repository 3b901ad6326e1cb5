"""Which ``src/repro`` functions do only the tests reach, and which does nothing reach?
And which registered metric names does no product run emit?

Records every Python call made under ``src/repro`` while two groups of runs
execute:

* **product** -- the fault matrix (default workers), ``python -m repro.lint
  --check`` (CI runs it), the paper benches (``benchmarks/bench_*.py``),
  every ``examples/*.py`` and the ``stack`` suite at tiny scale;
* **tier-1** -- ``pytest tests``, with ``tests/test_hot_path_budget.py`` in
  a process of its own.

A function no product run reaches is either a reference the tests compare
against, a rare path only a test drives, paper API, a test convenience, an
abstract default or dunder, part of ``repro.lint``, or code nothing needs.
Every such function that stays is listed in ``tests/reachability_keep.txt``,
one line each::

    repro/sim/simulator.py Simulator.step  convenience  steps one event in tests

(path under ``src``, qualified name, keep class, reason).  Entries are keyed
by qualified name, never by line number, so unrelated edits do not churn the
file.

Usage (not collected by pytest; a full run takes about 5 minutes on a
2-core host)::

    python tests/reachability.py [--out report.json] [--check]

``--check`` exits 1 when a function that is not listed is reached by tier-1
only or by nothing, or when a listed function is reached by a product run
or no longer exists (a stale entry).  Any run exits 1 when a recorded
command fails or outlives ``COMMAND_TIMEOUT_S``: it is then killed with its
whole process group, pool workers included, and the tail of its output is
printed.

The script also reports the names in ``repro.lint.metrics_registry``
that no product run emits.  A counter is emitted when it ends a run
non-zero, a histogram when its samples grow (the network appends to
``net.delivery_latency`` directly, without ``observe``) and a series when
it gets a point.  Every such name is listed in
``tests/metrics_never_fired.txt``, one line each (``name  reason``), and
with ``--check`` the script also exits 1 when an unlisted name never fires
or a listed one fires or is no longer registered: a name may leave the list,
never join it.

How the calls are recorded:

* a ``sitecustomize.py`` written to a temporary directory at the head of
  ``PYTHONPATH`` installs the recorder in every interpreter, so the
  ``stack`` suite's child interpreters are traced too;
* ``sys.setprofile(None)`` (pytest-benchmark clears the profiler)
  re-installs the recorder instead of removing it;
* ``cProfile`` replaces the hook at the C level, so the one test file that
  runs it gets its own process and loses only the profiled region;
* each interpreter writes the code objects it saw at exit; a forked
  ``multiprocessing`` worker skips ``atexit``, so it writes them from a
  ``multiprocessing.util.Finalize`` registered after the fork, or on the
  ``SIGTERM`` with which a pool's ``terminate()`` stops it;
* a code object is keyed by (file, first line including decorators, name),
  which is what ``co_firstlineno`` gives and what the AST walk below rebuilds;
* every ``MetricsRegistry`` is harvested when it dies and, if still alive,
  when its interpreter writes its calls: an import hook wraps the class's
  ``__init__`` once ``repro.sim.metrics`` is first imported.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import signal
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
import atexit, json, os, sys, threading, weakref
from multiprocessing import util as _mp_util

_PREFIX = {prefix!r}
_OUT = {out!r}
_seen = set()
_dumping = False
_metrics = set()
_registries = weakref.WeakSet()


def _harvest(state):
    """The names a registry's ``__dict__`` shows emitted."""
    _metrics.update(name for name, value in state.get("counters", {{}}).items() if value)
    _metrics.update(name for name, h in state.get("histograms", {{}}).items() if len(h.samples))
    _metrics.update(name for name, s in state.get("series", {{}}).items() if s.points)


def _watch(module):
    init = module.MetricsRegistry.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _registries.add(self)
        weakref.finalize(self, _harvest, self.__dict__)

    module.MetricsRegistry.__init__ = __init__


class _MetricsFinder:
    """Wraps ``MetricsRegistry.__init__`` when ``repro.sim.metrics`` loads."""

    def find_spec(self, name, path=None, target=None):
        if name != "repro.sim.metrics":
            return None
        sys.meta_path.remove(self)
        import importlib.util

        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def exec_and_watch(module):
            exec_module(module)
            _watch(module)

        spec.loader.exec_module = exec_and_watch
        return spec


def _record(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


_setprofile = sys.setprofile


def _keep_recording(func):
    _setprofile(_record if func is None else func)


def _dump():
    global _dumping
    _dumping = True
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
    for registry in list(_registries):
        _harvest(registry.__dict__)
    with open(os.path.join(_OUT, "metrics-%d.json" % os.getpid()), "w") as handle:
        json.dump(sorted(_metrics), handle)


def _on_terminate(signum, frame):
    if not _dumping:  # else the exit that is dumping finishes on its own
        _dump()
        os._exit(0)


def _after_fork(_):
    import signal

    _mp_util.Finalize(None, _dump, exitpriority=0)
    signal.signal(signal.SIGTERM, _on_terminate)


sys.meta_path.insert(0, _MetricsFinder())
sys.setprofile = _keep_recording
_setprofile(_record)
threading.setprofile(_record)
atexit.register(_dump)
_mp_util.register_after_fork(_dump, _after_fork)
'''

#: The reasons a function no product run reaches may stay.
KEEP_CLASSES = {
    "reference",  # tests compare the product against it
    "rare-path",  # a product path only a test drives
    "paper-api",  # part of the API the paper describes
    "convenience",  # a small test convenience
    "abstract",  # an abstract default or interface method
    "dunder",  # a protocol dunder or debugging repr
    "lint",  # repro.lint, exercised on fixtures
}
#: Seconds one recorded command may run.  A command still running then (a
#: forked pool worker can block for good) is killed with its whole process
#: group, and the run fails naming it.
COMMAND_TIMEOUT_S = 1200

KEEP_FILE = Path(__file__).with_name("reachability_keep.txt")
NEVER_FIRED_FILE = Path(__file__).with_name("metrics_never_fired.txt")


def definitions() -> Tuple[Dict[Key, str], Set[Key]]:
    """Every ``def`` under ``src/repro`` mapped to its qualified name, and
    every ``class``, keyed like a recorded code object (a class body runs as
    a code object of its own)."""
    functions: Dict[Key, str] = {}
    classes: Set[Key] = set()

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = (path, first, child.name)
                qualname = prefix + child.name
                if isinstance(child, ast.ClassDef):
                    classes.add(key)
                    walk(child, path, qualname + ".")
                else:
                    functions[key] = qualname
                    walk(child, path, qualname + ".<locals>.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), str(path), "")
    return functions, classes


def run_recorded(commands: Iterable[List[str]], label: str) -> Tuple[Set[Key], Set[str]]:
    """Run ``commands`` under the recorder: the union of what they called,
    and of the metric names they emitted."""
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
            # A session of its own, so that a timeout kills pool workers too.
            child = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, start_new_session=True,
            )
            try:
                stdout, stderr = child.communicate(timeout=COMMAND_TIMEOUT_S)
                failure = f"exited {child.returncode}" if child.returncode else None
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                stdout, stderr = child.communicate()
                failure = f"timed out after {COMMAND_TIMEOUT_S} s"
            if failure:
                # pytest reports its failures on stdout.
                print(stdout[-4000:], stderr[-2000:], sep="\n", file=sys.stderr)
                raise SystemExit(f"[{label}] {failure}: {command}")
        seen: Set[Key] = set()
        for path in out_dir.glob("calls-*.json"):
            seen.update(tuple(key) for key in json.loads(path.read_text()))
        emitted: Set[str] = set()
        for path in out_dir.glob("metrics-*.json"):
            emitted.update(json.loads(path.read_text()))
        return seen, emitted


def product_commands(output: str) -> List[List[str]]:
    python = sys.executable
    benches = sorted(glob.glob(str(ROOT / "benchmarks" / "bench_*.py")))
    examples = sorted(glob.glob(str(ROOT / "examples" / "*.py")))
    return [
        [python, "-m", "repro.faults.scenarios", "--seeds", "2", "--output", output],
        [python, "-m", "repro.lint", "--check", "--quiet"],
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


def named(functions: Dict[Key, str], key: Key) -> str:
    """``path qualname``: how the keep file names a function."""
    return f"{os.path.relpath(key[0], SRC)} {functions[key]}"


def load_keep(path: Path) -> Tuple[Dict[str, str], List[str]]:
    """The keep file's entries (``path qualname`` -> class) and its errors."""
    entries: Dict[str, str] = {}
    errors: List[str] = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(maxsplit=3)
        where = f"{path.name}:{number}"
        if len(fields) < 4:
            errors.append(f"{where}: need 'path qualname  class  reason'")
            continue
        name, keep_class = f"{fields[0]} {fields[1]}", fields[2]
        if keep_class not in KEEP_CLASSES:
            errors.append(f"{where}: unknown keep class {keep_class!r}")
        if name in entries:
            errors.append(f"{where}: {name} is listed twice")
        entries[name] = keep_class
    return entries, errors


def check(functions: Dict[Key, str], product: Set[Key], keep: Dict[str, str]) -> List[str]:
    """What the keep file gets wrong, one line each (empty: the ratchet holds).

    Several definitions may share a qualified name (a property and its
    setter); the name needs an entry while any of them is not reached by a
    product run, and its entry is stale once all of them are.
    """
    unreached: Dict[str, bool] = {}
    for key in functions:
        name = named(functions, key)
        unreached[name] = unreached.get(name, False) or key not in product
    problems = [
        f"not reached by a product run and not in {KEEP_FILE.name}: {name}"
        for name, missing in sorted(unreached.items())
        if missing and name not in keep
    ]
    for name in sorted(keep):
        if name not in unreached:
            problems.append(f"stale entry, no such function: {name}")
        elif not unreached[name]:
            problems.append(f"stale entry, a product run reaches it: {name}")
    return problems


def registered_metrics() -> Set[str]:
    """Every name ``repro.lint.metrics_registry`` lists."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.lint.metrics_registry import METRICS

    return set(METRICS)


def load_never_fired(path: Path) -> Tuple[Dict[str, str], List[str]]:
    """The never-fired list's entries (name -> reason) and its errors."""
    entries: Dict[str, str] = {}
    errors: List[str] = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(maxsplit=1)
        where = f"{path.name}:{number}"
        if len(fields) < 2:
            errors.append(f"{where}: need 'name  reason'")
            continue
        if fields[0] in entries:
            errors.append(f"{where}: {fields[0]} is listed twice")
        entries[fields[0]] = fields[1]
    return entries, errors


def check_metrics(registered: Set[str], emitted: Set[str], listed: Dict[str, str]) -> List[str]:
    """What the never-fired list gets wrong, one line each (empty: it holds)."""
    problems = [
        f"never emitted by a product run and not in {NEVER_FIRED_FILE.name}: {name}"
        for name in sorted(registered - emitted)
        if name not in listed
    ]
    for name in sorted(listed):
        if name not in registered:
            problems.append(f"stale entry, no such metric: {name}")
        elif name in emitted:
            problems.append(f"stale entry, a product run emits it: {name}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the report here as JSON")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 unless {KEEP_FILE.name} lists exactly the functions "
        f"no product run reaches and {NEVER_FIRED_FILE.name} exactly the "
        "metrics none emits",
    )
    args = parser.parse_args()
    functions, classes = definitions()
    defined = set(functions)
    keep, errors = load_keep(KEEP_FILE) if args.check else ({}, [])
    with tempfile.TemporaryDirectory(prefix="reach-matrix-") as scratch:
        product, emitted = run_recorded(
            product_commands(str(Path(scratch) / "m.json")), "product"
        )
    tier1, _ = run_recorded(tier1_commands(), "tier-1")
    # Lambdas, comprehensions and module bodies are named "<...>"; anything
    # else that matches no definition means the keying is off.
    unmatched = sorted(
        key for key in (product | tier1) - defined - classes if not key[2].startswith("<")
    )
    only_tests = sorted((tier1 - product) & defined)
    nothing = sorted(defined - product - tier1)
    report: Dict[str, object] = {
        "defined": len(defined),
        "product": len(product & defined),
        "tier1": len(tier1 & defined),
        "only_tier1": [named(functions, key) for key in only_tests],
        "unreached": [named(functions, key) for key in nothing],
        "unmatched": [f"{os.path.relpath(k[0], SRC)}:{k[1]} {k[2]}" for k in unmatched],
    }
    print("# reached only by tier-1")
    for line in report["only_tier1"]:
        print(line)
    print("# reached by nothing")
    for line in report["unreached"]:
        print(line)
    print(
        f"{len(only_tests)} of {len(defined)} functions reached only by tier-1, "
        f"{len(nothing)} by nothing (product reaches {report['product']}, "
        f"tier-1 {report['tier1']})",
        file=sys.stderr,
    )
    if unmatched:
        print(f"{len(unmatched)} recorded functions match no definition", file=sys.stderr)
    registered = registered_metrics()
    report["never_fired"] = sorted(registered - emitted)
    print("# metrics no product run emits")
    for name in report["never_fired"]:
        print(name)
    print(
        f"{len(report['never_fired'])} of {len(registered)} registered metric names "
        "never emitted by a product run",
        file=sys.stderr,
    )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if not args.check:
        return 0
    listed, list_errors = load_never_fired(NEVER_FIRED_FILE)
    problems = errors + list_errors + check(functions, product & defined, keep)
    problems += check_metrics(registered, emitted, listed)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"reachability: FAIL ({len(problems)} problem(s))", file=sys.stderr)
        return 1
    print(f"reachability: OK ({len(keep)} kept functions)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
