"""The reachability ratchet (``tests/reachability.py``) on small inputs.

A full ``--check`` run records every product and tier-1 run and takes
minutes, so it is a CI job of its own.  These tests pin the parts it is
built from: the checked-in keep file is well formed and names only
functions that exist, definitions are keyed the way the recorder keys code
objects, the keep file's parser rejects malformed lines, :func:`check`
flags both an unlisted function and a stale entry, the recorder sees
calls that a forked pool worker makes, and a recorded command that hangs is
killed with its children and named.  The same holds for the metric names:
the checked-in never-fired list is well formed and names only registered
metrics, :func:`check_metrics` flags a name that joins it and a stale
entry, and the recorder harvests the names a registry emitted.
"""

import sys
import textwrap
import time

import pytest

import reachability


def write_package(root, files):
    """``files`` (path under ``repro/`` -> source) as a package under ``root``."""
    package = root / "repro"
    for relative, source in files.items():
        path = package / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return package


@pytest.fixture
def package(tmp_path, monkeypatch):
    """Point the script at a scratch ``src/repro``; returns a writer."""
    src = tmp_path / "src"

    def make(files):
        package = write_package(src, files)
        monkeypatch.setattr(reachability, "SRC", src)
        monkeypatch.setattr(reachability, "PACKAGE", package)
        return package

    return make


def names(functions):
    return {reachability.named(functions, key) for key in functions}


# ------------------------------------------------------- the checked-in file


class TestCheckedInKeepFile:
    def test_parses_without_errors(self):
        entries, errors = reachability.load_keep(reachability.KEEP_FILE)
        assert errors == []
        assert entries

    def test_every_entry_names_a_defined_function(self):
        # The static half of "stale entry": a deleted or renamed function
        # must leave the keep file in the same change.
        functions, _ = reachability.definitions()
        entries, _ = reachability.load_keep(reachability.KEEP_FILE)
        assert sorted(set(entries) - names(functions)) == []


class TestCheckedInNeverFiredFile:
    def test_parses_without_errors(self):
        entries, errors = reachability.load_never_fired(reachability.NEVER_FIRED_FILE)
        assert errors == []
        assert entries

    def test_every_entry_names_a_registered_metric(self):
        # The static half of "stale entry": a metric deleted from the code
        # must leave the list in the same change.
        entries, _ = reachability.load_never_fired(reachability.NEVER_FIRED_FILE)
        assert sorted(set(entries) - reachability.registered_metrics()) == []


# --------------------------------------------------------------- definitions


class TestDefinitions:
    def test_methods_are_named_by_their_class(self, package):
        package({"a.py": """
            class Outer:
                def method(self):
                    pass

                class Inner:
                    def deep(self):
                        pass
            """})
        functions, classes = reachability.definitions()
        assert names(functions) == {"repro/a.py Outer.method", "repro/a.py Outer.Inner.deep"}
        assert {key[2] for key in classes} == {"Outer", "Inner"}

    def test_nested_functions_are_locals_of_their_parent(self, package):
        package({"b.py": """
            def outer():
                def inner():
                    pass
                return inner
            """})
        functions, _ = reachability.definitions()
        assert names(functions) == {"repro/b.py outer", "repro/b.py outer.<locals>.inner"}

    def test_a_decorated_function_is_keyed_at_its_first_decorator(self, package):
        # co_firstlineno of a decorated function is its first decorator's line.
        path = package({"c.py": """
            import functools


            @functools.lru_cache(maxsize=None)
            @staticmethod
            def cached():
                pass
            """}) / "c.py"
        functions, _ = reachability.definitions()
        assert list(functions) == [(str(path), 5, "cached")]

    def test_keys_match_the_code_objects_python_compiles(self, package):
        path = package({"d.py": """
            class K:
                @property
                def value(self):
                    return 1

                @value.setter
                def value(self, new):
                    pass
            """}) / "d.py"
        functions, _ = reachability.definitions()
        compiled = set()
        pending = [compile(path.read_text(), str(path), "exec")]
        while pending:
            code = pending.pop()
            compiled.add((code.co_filename, code.co_firstlineno, code.co_name))
            pending.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        assert set(functions) <= compiled
        assert len(functions) == 2  # the getter and the setter, one name


# ----------------------------------------------------------------- keep file


class TestLoadKeep:
    def load(self, tmp_path, text):
        path = tmp_path / "keep.txt"
        path.write_text(textwrap.dedent(text))
        return reachability.load_keep(path)

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        entries, errors = self.load(tmp_path, """
            # heading

            repro/a.py f  convenience  a reason with several words
            """)
        assert errors == []
        assert entries == {"repro/a.py f": "convenience"}

    def test_a_line_without_a_reason_is_an_error(self, tmp_path):
        entries, errors = self.load(tmp_path, "repro/a.py f  convenience\n")
        assert entries == {}
        assert errors == ["keep.txt:1: need 'path qualname  class  reason'"]

    def test_an_unknown_keep_class_is_an_error(self, tmp_path):
        _, errors = self.load(tmp_path, "repro/a.py f  handy  used somewhere\n")
        assert errors == ["keep.txt:1: unknown keep class 'handy'"]

    def test_a_function_listed_twice_is_an_error(self, tmp_path):
        _, errors = self.load(tmp_path, """\
            repro/a.py f  convenience  first
            repro/a.py f  reference  second
            """)
        assert errors == ["keep.txt:2: repro/a.py f is listed twice"]


class TestLoadNeverFired:
    def load(self, tmp_path, text):
        path = tmp_path / "never.txt"
        path.write_text(textwrap.dedent(text))
        return reachability.load_never_fired(path)

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        entries, errors = self.load(tmp_path, """
            # heading

            net.x_rejected  a defence no row attacks yet
            """)
        assert errors == []
        assert entries == {"net.x_rejected": "a defence no row attacks yet"}

    def test_a_line_without_a_reason_is_an_error(self, tmp_path):
        entries, errors = self.load(tmp_path, "net.x_rejected\n")
        assert entries == {}
        assert errors == ["never.txt:1: need 'name  reason'"]

    def test_a_name_listed_twice_is_an_error(self, tmp_path):
        _, errors = self.load(tmp_path, """\
            net.x  first
            net.x  second
            """)
        assert errors == ["never.txt:2: net.x is listed twice"]


# --------------------------------------------------------------------- check


class TestCheck:
    SOURCE = {"m.py": """
        def used():
            pass

        def kept():
            pass

        class C:
            @property
            def value(self):
                return 1

            @value.setter
            def value(self, new):
                pass
        """}

    def build(self, package):
        package(self.SOURCE)
        functions, _ = reachability.definitions()
        by_name = {}
        for key, qualname in functions.items():
            by_name.setdefault(qualname, []).append(key)
        return functions, by_name

    def test_an_unlisted_unreached_function_fails(self, package):
        functions, by_name = self.build(package)
        product = set(by_name["used"]) | set(by_name["C.value"])
        assert reachability.check(functions, product, {}) == [
            "not reached by a product run and not in reachability_keep.txt: repro/m.py kept"
        ]

    def test_a_listed_unreached_function_passes(self, package):
        functions, by_name = self.build(package)
        product = set(by_name["used"]) | set(by_name["C.value"])
        keep = {"repro/m.py kept": "convenience"}
        assert reachability.check(functions, product, keep) == []

    def test_an_entry_a_product_run_reaches_is_stale(self, package):
        functions, by_name = self.build(package)
        product = set(functions)
        keep = {"repro/m.py kept": "convenience"}
        assert reachability.check(functions, product, keep) == [
            "stale entry, a product run reaches it: repro/m.py kept"
        ]

    def test_an_entry_naming_no_function_is_stale(self, package):
        functions, _ = self.build(package)
        keep = {"repro/m.py gone": "reference"}
        problems = reachability.check(functions, set(functions), keep)
        assert problems == ["stale entry, no such function: repro/m.py gone"]

    def test_a_shared_name_needs_an_entry_while_any_definition_is_unreached(self, package):
        functions, by_name = self.build(package)
        getter, setter = sorted(by_name["C.value"])
        product = set(functions) - {setter}
        assert reachability.check(functions, product, {}) == [
            "not reached by a product run and not in reachability_keep.txt: repro/m.py C.value"
        ]
        keep = {"repro/m.py C.value": "dunder"}
        assert reachability.check(functions, product, keep) == []
        assert reachability.check(functions, set(functions), keep) == [
            "stale entry, a product run reaches it: repro/m.py C.value"
        ]


class TestCheckMetrics:
    REGISTERED = {"a.fired", "a.silent"}

    def test_a_name_may_not_join_the_list(self):
        assert reachability.check_metrics(self.REGISTERED, {"a.fired"}, {}) == [
            "never emitted by a product run and not in metrics_never_fired.txt: a.silent"
        ]

    def test_a_listed_silent_name_passes(self):
        listed = {"a.silent": "a reason"}
        assert reachability.check_metrics(self.REGISTERED, {"a.fired"}, listed) == []

    def test_an_entry_a_product_run_emits_is_stale(self):
        # A name leaves the list by being deleted from it once it fires.
        listed = {"a.silent": "a reason"}
        assert reachability.check_metrics(self.REGISTERED, set(self.REGISTERED), listed) == [
            "stale entry, a product run emits it: a.silent"
        ]

    def test_an_entry_naming_no_metric_is_stale(self):
        listed = {"a.silent": "a reason", "a.gone": "a reason"}
        assert reachability.check_metrics(self.REGISTERED, {"a.fired"}, listed) == [
            "stale entry, no such metric: a.gone"
        ]


# ------------------------------------------------------------------ recorder


class TestRecorder:
    """The recorder, installed through ``sitecustomize``, in real interpreters."""

    LIBRARY = {"__init__.py": "", "work.py": """
        def in_parent():
            pass

        def in_worker(x):
            return x + 1

        def after_reset():
            pass

        def blocks(flag):
            import time

            open(flag, "w").close()
            time.sleep(60)
        """}

    def record(self, package, tmp_path, script):
        package(self.LIBRARY)
        path = tmp_path / "drive.py"
        path.write_text(textwrap.dedent(script))
        seen, _ = reachability.run_recorded([[sys.executable, str(path)]], "test")
        return {name for _, _, name in seen}

    def test_a_forked_pool_worker_flushes_its_calls(self, package, tmp_path):
        # A forked worker skips atexit; it writes from a Finalize instead.
        seen = self.record(package, tmp_path, """
            import multiprocessing

            from repro import work

            if __name__ == "__main__":
                work.in_parent()
                with multiprocessing.get_context("fork").Pool(1) as pool:
                    assert pool.map(work.in_worker, [1]) == [2]
                    pool.close()
                    pool.join()
            """)
        assert {"in_parent", "in_worker"} <= seen

    def test_a_terminated_pool_worker_flushes_its_calls(self, package, tmp_path):
        # terminate() stops a busy worker with SIGTERM; it writes on the signal.
        seen = self.record(package, tmp_path, f"""
            import multiprocessing
            import os
            import time

            from repro import work

            if __name__ == "__main__":
                flag = {str(tmp_path / "started")!r}
                pool = multiprocessing.get_context("fork").Pool(1)
                pool.apply_async(work.blocks, (flag,))
                while not os.path.exists(flag):
                    time.sleep(0.01)
                pool.terminate()
                pool.join()
            """)
        assert "blocks" in seen

    def test_clearing_the_profiler_keeps_recording(self, package, tmp_path):
        seen = self.record(package, tmp_path, """
            import sys

            from repro import work

            sys.setprofile(None)
            work.after_reset()
            """)
        assert "after_reset" in seen

    def test_a_command_that_hangs_is_killed_with_its_children_and_named(
        self, package, tmp_path, monkeypatch, capsys
    ):
        # The sleeping child holds the output pipe too: unless the whole
        # process group dies, reading the output waits for it.
        package(self.LIBRARY)
        path = tmp_path / "hang.py"
        path.write_text(textwrap.dedent("""
            import subprocess
            import sys
            import time

            print("started", flush=True)
            subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
            time.sleep(60)
            """))
        monkeypatch.setattr(reachability, "COMMAND_TIMEOUT_S", 3)
        started = time.monotonic()
        with pytest.raises(SystemExit, match="timed out after 3 s") as exit_info:
            reachability.run_recorded([[sys.executable, str(path)]], "test")
        assert time.monotonic() - started < 30
        assert str(path) in str(exit_info.value)
        assert "started" in capsys.readouterr().err


class TestMetricsRecorder:
    """The registry harvest, installed through ``sitecustomize``."""

    LIBRARY = {
        "__init__.py": "",
        "sim/__init__.py": "",
        "sim/metrics.py": """
            from collections import defaultdict


            class Histogram:
                def __init__(self):
                    self.samples = []


            class TimeSeries:
                def __init__(self):
                    self.points = []


            class MetricsRegistry:
                def __init__(self):
                    self.counters = defaultdict(float)
                    self.histograms = defaultdict(Histogram)
                    self.series = defaultdict(TimeSeries)
            """,
    }

    def emitted(self, package, tmp_path, script):
        package(self.LIBRARY)
        path = tmp_path / "drive.py"
        path.write_text(textwrap.dedent(script))
        _, emitted = reachability.run_recorded([[sys.executable, str(path)]], "test")
        return emitted

    def test_a_dead_and_a_live_registry_are_both_harvested(self, package, tmp_path):
        emitted = self.emitted(package, tmp_path, """
            from repro.sim.metrics import MetricsRegistry

            dead = MetricsRegistry()
            dead.counters["dead.counter"] += 1.0
            dead.counters["dead.zero"] += 0.0
            del dead
            live = MetricsRegistry()
            live.histograms["live.histogram"].samples.append(0.5)
            live.histograms["live.empty"]
            live.series["live.series"].points.append((0.0, 1.0))
            """)
        assert emitted == {"dead.counter", "live.histogram", "live.series"}

    def test_a_forked_pool_worker_flushes_its_metrics(self, package, tmp_path):
        emitted = self.emitted(package, tmp_path, """
            import multiprocessing

            from repro.sim.metrics import MetricsRegistry

            KEPT = []

            def work(x):
                # One registry dies in the worker; one outlives its exit,
                # which skips atexit.
                registry = MetricsRegistry()
                registry.counters["worker.dead"] += x
                KEPT.append(MetricsRegistry())
                KEPT[-1].counters["worker.alive"] += x
                return x

            if __name__ == "__main__":
                with multiprocessing.get_context("fork").Pool(1) as pool:
                    assert pool.map(work, [1]) == [1]
                    pool.close()
                    pool.join()
            """)
        assert emitted == {"worker.dead", "worker.alive"}
