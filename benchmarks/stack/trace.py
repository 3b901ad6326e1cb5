"""Per-module host-time attribution for the traced run.

A function-level profile hook (``cProfile``) rather than monkey-patched
wrappers: this code base caches bound methods at construction
(``self._gm_handle = messenger.handle``) and imports hot functions by name
(``digest_object`` in ``smr/pbft.py``), which wrappers silently miss.  Spans
and causal ids inside the program are a later change (ROADMAP item 4).

A module's ``self_s`` is the self time of every function defined in its file
plus the stdlib / builtin time (``random``, ``json.encoder``, ``hashlib``,
``heapq``, ``list.append``) those functions caused: ``cProfile`` records, for
every callee, how much of its own time it spent under each direct caller, so
time in a non-``repro`` function is handed to its callers and climbs until it
reaches a ``repro`` (or benchmark) function.  Climbing through more than one
stdlib frame splits by the cumulative time each caller accounts for, which is
exact for the direct-call case that makes up nearly all of it.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Tuple

Func = Tuple[str, int, str]  # (filename, first line, function name) as pstats keys them

_MAX_CLIMB = 16  # stdlib frames climbed before time is given up as unattributed


class ModuleProfile:
    """Profile one callable and roll the result up per ``src/repro`` module."""

    def __init__(self, repro_root: Path, bench_root: Path, named_modules: Iterable[str]) -> None:
        self._repro_root = str(repro_root.resolve()) + "/"
        self._bench_root = str(bench_root.resolve()) + "/"
        self._named = frozenset(named_modules)
        self._profile = cProfile.Profile()
        self.wall_s = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.unattributed_s = 0.0
        self._stats: Dict[Func, tuple] = {}

    def run(self, timed: Callable[[], None]) -> None:
        start = time.perf_counter()
        self._profile.enable()
        try:
            timed()
        finally:
            self._profile.disable()
            self.wall_s = time.perf_counter() - start
        self._stats = pstats.Stats(self._profile).stats
        self._roll_up()

    def calls_named(self, *names: str) -> int:
        """Total calls of ``repro`` / benchmark functions with one of ``names``."""
        return sum(
            entry[1]
            for func, entry in self._stats.items()
            if func[2] in names and self._owner(func) is not None
        )

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    # ------------------------------------------------------------------ roll-up

    def _owner(self, func: Func) -> Optional[str]:
        filename = func[0]
        if filename.startswith(self._repro_root):
            module = filename[len(self._repro_root):-len(".py")].replace("/", ".")
            return module if module in self._named else "other"
        if filename.startswith(self._bench_root):
            return "bench.generator"
        return None

    def _roll_up(self) -> None:
        for func, (_, call_count, self_time, _, callers) in self._stats.items():
            owner = self._owner(func)
            if owner is not None:
                self.self_s[owner] += self_time
                self.calls[owner] += call_count
            elif callers:
                for caller, (_, _, time_under_caller, _) in callers.items():
                    self._charge(caller, time_under_caller, _MAX_CLIMB)
            else:
                self.unattributed_s += self_time

    def _charge(self, func: Func, amount: float, climbs_left: int) -> None:
        owner = self._owner(func)
        if owner is not None:
            self.self_s[owner] += amount
            return
        callers = self._stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weight = sum(entry[3] for entry in callers.values())
        if not callers or weight <= 0.0 or climbs_left == 0:
            self.unattributed_s += amount
            return
        for caller, entry in callers.items():
            self._charge(caller, amount * entry[3] / weight, climbs_left - 1)
