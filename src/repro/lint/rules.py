"""The atumlint rules (ATL001..ATL010).

Each rule is one registered class targeting a failure mode this codebase
has actually hit (see README "Static analysis"):

========  ==============================================================
ATL001    direct ``random`` use outside the named-stream registry
ATL002    wall-clock time on simulation/protocol paths
ATL003    unordered-set iteration flowing into sends / RNG draws
ATL004    blanket ``except`` that neither re-raises nor counts
ATL005    attribute writes missing from ``__slots__`` (incl. inherited)
ATL006    metric name literals not in the generated registry
ATL007    payload mutation after it was handed to ``send*``/``broadcast``/``seal``
ATL008    ``hash()`` / ``id()`` values in protocol state or ordering
ATL009    observability hook wiring outside ``repro.core.middleware``
ATL010    a middleware hook retaining its (per-burst, reused) context
========  ==============================================================

The rules are static heuristics, not proofs: each docstring states exactly
what is matched so a reader can predict (and pragma-justify) the verdict.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.core import (
    Finding,
    ModuleInfo,
    ProjectIndex,
    Rule,
    annotation_is_set,
    register_rule,
)

# --------------------------------------------------------------------- ATL001

#: The one module allowed to construct ``random.Random``: the stream registry.
RNG_HOME = "repro/sim/rng.py"


@register_rule
class DirectRandomRule(Rule):
    """ATL001 — all randomness must flow through named seeded streams.

    Flags every call through the ``random`` module (``random.Random(...)``,
    ``random.sample(...)``, a from-imported ``Random(...)``) outside
    ``sim/rng.py``.  Module-level ``random`` calls draw from the process
    global generator (seeded by interpreter start-up), and ad-hoc
    ``random.Random(const)`` constructions bypass the master-seed
    derivation — both broke byte-reproducibility before (PR 2's
    PYTHONHASHSEED-dependent gossip draws).  Route draws through
    :func:`repro.sim.rng.RngRegistry.stream` / ``named_stream`` instead.
    """

    rule_id = "ATL001"
    title = "direct random.* call outside sim/rng.py"

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        if module.relpath.endswith(RNG_HOME):
            return
        aliases = module.import_aliases
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                target = aliases.get(func.value.id)
                if target == "random":
                    yield self.finding(
                        module,
                        node.lineno,
                        f"direct call random.{func.attr}(...) — draw from a named "
                        f"stream (repro.sim.rng) instead",
                    )
            elif isinstance(func, ast.Name):
                target = aliases.get(func.id, "")
                if target.startswith("random."):
                    yield self.finding(
                        module,
                        node.lineno,
                        f"direct call to {target}(...) — draw from a named stream "
                        f"(repro.sim.rng) instead",
                    )


# --------------------------------------------------------------------- ATL002

WALL_CLOCK_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}
WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
#: Fully-qualified from-import targets that read the wall clock.
WALL_CLOCK_TARGETS = {f"time.{attr}" for attr in WALL_CLOCK_TIME_ATTRS} | {
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
#: Paths allowed to read the wall clock: benchmark harnesses time *real*
#: elapsed seconds by design.
WALL_CLOCK_ALLOWED_PREFIXES = ("benchmarks/",)


@register_rule
class WallClockRule(Rule):
    """ATL002 — no wall-clock reads on simulation/protocol paths.

    Protocol and simulation code must take time from ``sim.now`` only;
    a wall-clock read makes behaviour depend on host speed and destroys
    trace byte-identity.  Flags calls to ``time.time/monotonic/
    perf_counter/process_time`` (and ``_ns`` variants) and
    ``datetime.now/utcnow/today``, except under ``benchmarks/``, which
    measures real elapsed seconds by design.
    """

    rule_id = "ATL002"
    title = "wall-clock read outside benchmarks/"

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        if module.relpath.startswith(WALL_CLOCK_ALLOWED_PREFIXES):
            return
        aliases = module.import_aliases
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                target = aliases.get(func.value.id)
                if target == "time" and func.attr in WALL_CLOCK_TIME_ATTRS:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"wall-clock read time.{func.attr}() — use sim.now",
                    )
                elif (
                    target in ("datetime.datetime", "datetime.date")
                    and func.attr in WALL_CLOCK_DATETIME_ATTRS
                ):
                    yield self.finding(
                        module,
                        node.lineno,
                        f"wall-clock read {target.split('.')[-1]}.{func.attr}() — "
                        f"use sim.now",
                    )
            elif isinstance(func, ast.Name):
                target = aliases.get(func.id, "")
                if target in WALL_CLOCK_TARGETS:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"wall-clock read {target}() — use sim.now",
                    )


# --------------------------------------------------------------------- ATL003

SET_METHODS = {"difference", "union", "intersection", "symmetric_difference", "copy"}
RNG_SAMPLING_ATTRS = {"sample", "choice", "choices", "shuffle"}


class _SetTracker:
    """Local, flow-insensitive inference of set-typed names in one scope.

    ``names`` are sets; ``hash_ordered`` are lists built by iterating one
    (``list(s)``, ``[x for x in s]``, or the same over such a list): no
    longer a set, still in its iteration order.  ``set_returning`` is the
    project's index of functions annotated to return a set.
    """

    def __init__(self, scope: ast.AST, set_returning: Set[str]) -> None:
        self.set_returning = set_returning
        self.names: Set[str] = set()
        self.hash_ordered: Set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if annotation_is_set(arg.annotation):
                    self.names.add(arg.arg)
        assignments = [
            node for node in ast.walk(scope) if isinstance(node, (ast.Assign, ast.AnnAssign))
        ]
        known = -1
        while known < len(self.names) + len(self.hash_ordered):
            # To a fixpoint: a list filtered from a list built from a set.
            known = len(self.names) + len(self.hash_ordered)
            for node in assignments:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                annotated = isinstance(node, ast.AnnAssign) and annotation_is_set(node.annotation)
                if annotated or self.is_set_expr(node.value):
                    into = self.names
                elif self.is_hash_ordered(node.value):
                    into = self.hash_ordered
                else:
                    continue
                into.update(target.id for target in targets if isinstance(target, ast.Name))

    def is_hash_ordered(self, node: ast.AST) -> bool:
        """A list whose order is some set's iteration order."""
        if isinstance(node, ast.Name):
            return node.id in self.hash_ordered
        if isinstance(node, ast.ListComp):
            sources = [generator.iter for generator in node.generators]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "list":
            sources = node.args[:1]
        else:
            return False
        return any(self.is_set_expr(s) or self.is_hash_ordered(s) for s in sources)

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id in ("set", "frozenset") or func.id in self.set_returning
            if isinstance(func, ast.Attribute):
                return func.attr in self.set_returning or (
                    func.attr in SET_METHODS and self.is_set_expr(func.value)
                )
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return isinstance(node, ast.Name) and node.id in self.names


def _is_sorted_wrap(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("sorted", "min", "max", "sum", "len", "all", "any")
    )


def _contains_protocol_sink(body: Sequence[ast.stmt]) -> Optional[str]:
    """A send or RNG-sampling call anywhere under ``body``, or ``None``."""
    for statement in body:
        for node in ast.walk(statement):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            if name is None:
                continue
            if name.startswith("send"):
                return f"{name}(...)"
            if name in RNG_SAMPLING_ATTRS and isinstance(func, ast.Attribute):
                return f".{name}(...)"
    return None


@register_rule
class UnorderedIterationRule(Rule):
    """ATL003 — unordered-set iteration must not feed protocol decisions.

    ``set`` iteration order is unspecified (hash- and history-dependent),
    so any set whose elements flow into a send, an RNG draw, or a sampled
    subset makes the run depend on PYTHONHASHSEED.  Per scope, names are
    inferred as set-typed (literals, ``set()``/``frozenset()`` calls, set
    operators, ``Set[...]`` annotations, and calls to any function or method
    the project annotates ``-> Set[...]`` / ``FrozenSet`` / ``AbstractSet``,
    matched by bare name); the rule flags

    * ``for``-loops and comprehensions iterating such a value when the
      loop body / comprehension contains a ``send*`` or RNG-sampling call,
    * set-typed arguments to ``rng.sample/choice/choices/shuffle`` -- and
      lists built in a set's iteration order (``list(s)``, ``[x for x in
      s]``, or a list filtered from one),
    * ``.pop()`` on a set-typed name (removes an *arbitrary* element),

    unless the iterable is wrapped in ``sorted(...)`` (or an
    order-insensitive reduction).  Pure local iteration that never reaches
    a protocol sink is deliberately not flagged.
    """

    rule_id = "ATL003"
    title = "unordered set iteration on a protocol path"

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        seen: Set[Tuple[int, str]] = set()
        for scope in scopes:
            tracker = _SetTracker(scope, project.set_returning)
            for finding in self._check_scope(module, scope, tracker):
                key = (finding.line, finding.message)
                if key not in seen:
                    seen.add(key)
                    yield finding

    def _check_scope(
        self, module: ModuleInfo, scope: ast.AST, tracker: _SetTracker
    ) -> Iterator[Finding]:
        for node in ast.walk(scope):
            if node is not scope and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue  # nested scopes handled on their own pass
            if isinstance(node, ast.For):
                if tracker.is_set_expr(node.iter) and not _is_sorted_wrap(node.iter):
                    sink = _contains_protocol_sink(node.body)
                    if sink is not None:
                        yield self.finding(
                            module,
                            node.lineno,
                            f"iterating an unordered set feeds {sink}; wrap the "
                            f"iterable in sorted(...)",
                        )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if tracker.is_set_expr(generator.iter) and not _is_sorted_wrap(
                        generator.iter
                    ):
                        wrapper = ast.Expr(value=node.elt)
                        sink = _contains_protocol_sink([wrapper])
                        if sink is not None:
                            yield self.finding(
                                module,
                                node.lineno,
                                f"comprehension over an unordered set feeds {sink}; "
                                f"wrap the iterable in sorted(...)",
                            )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in RNG_SAMPLING_ATTRS
                    and node.args
                ):
                    drawn = node.args[0]
                    if tracker.is_set_expr(drawn) and not _is_sorted_wrap(drawn):
                        yield self.finding(
                            module,
                            node.lineno,
                            f"RNG .{func.attr}(...) over an unordered set draws in "
                            f"hash order; pass sorted(...) instead",
                        )
                    elif tracker.is_hash_ordered(drawn):
                        yield self.finding(
                            module,
                            node.lineno,
                            f"RNG .{func.attr}(...) over a list built in a set's "
                            f"iteration order; wrap the set in sorted(...) where "
                            f"the list is built",
                        )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "pop"
                    and not node.args
                    and isinstance(func.value, ast.Name)
                    and func.value.id in tracker.names
                ):
                    yield self.finding(
                        module,
                        node.lineno,
                        f"set.pop() on {func.value.id!r} removes an arbitrary "
                        f"element; pick deterministically",
                    )


# --------------------------------------------------------------------- ATL004

BLANKET_EXCEPTION_NAMES = {"Exception", "BaseException"}
#: Calls that count an error into observable state.  Recording a monitor
#: violation is deliberately NOT enough: the PR that introduced this rule
#: found a handler that recorded a violation yet swallowed the exception
#: outside fault replay (faults/invariants.py finalize).
COUNTING_CALL_ATTRS = {"increment", "observe"}


def _is_blanket(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and candidate.id in BLANKET_EXCEPTION_NAMES:
            return True
        if (
            isinstance(candidate, ast.Attribute)
            and candidate.attr in BLANKET_EXCEPTION_NAMES
        ):
            return True
    return False


def _handler_counts_or_raises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in COUNTING_CALL_ATTRS:
                return True
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
            value = node.target.value
            if (
                isinstance(value, ast.Name) and value.id == "counters"
            ) or (isinstance(value, ast.Attribute) and value.attr == "counters"):
                return True
    return False


@register_rule
class SwallowedExceptionRule(Rule):
    """ATL004 — blanket excepts must count or re-raise, never swallow.

    A bare ``except:`` / ``except Exception:`` whose handler neither
    raises nor feeds an error counter silently converts protocol bugs
    into missing messages — PR 3 spent real debugging time on exactly
    this (swallowed ``MembershipError`` in the churn workload).  The
    handler satisfies the rule if it contains a ``raise``, a call to
    ``.increment(...)`` / ``.observe(...)`` / ``._violation(...)``, or a
    ``counters[...] += ...`` update.  Narrow excepts are not flagged.
    """

    rule_id = "ATL004"
    title = "blanket except neither re-raises nor counts"

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_blanket(node) and not _handler_counts_or_raises(node):
                what = "bare except" if node.type is None else "except Exception"
                yield self.finding(
                    module,
                    node.lineno,
                    f"{what} swallows errors: re-raise or count via a metrics "
                    f"counter (the PR 3 swallowed-error class)",
                )


# --------------------------------------------------------------------- ATL005


@register_rule
class SlotsConsistencyRule(Rule):
    """ATL005 — every instance attribute of a slotted class is declared.

    For each class defining a literal ``__slots__`` whose full base chain
    is resolvable and slotted (inherited slots are folded in; a base with
    a ``__dict__`` slot, a dynamic ``__slots__`` or an external base
    disables the check), every ``self.<name> = ...`` in the class body
    must name a declared slot, a class-level attribute (descriptors,
    properties) or a method.  An undeclared write would raise
    ``AttributeError`` at runtime — on a hot path, typically in a branch
    the tests never reached.
    """

    rule_id = "ATL005"
    title = "attribute write not declared in __slots__"

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        for cls in project.classes.values():
            if cls.module != module.module or cls.node is None:
                continue
            resolved = project.resolved_slots(module, cls)
            if resolved is None:
                continue
            allowed = set(resolved)
            for statement in cls.node.body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    allowed.add(statement.name)
                elif isinstance(statement, ast.Assign):
                    allowed.update(
                        t.id for t in statement.targets if isinstance(t, ast.Name)
                    )
                elif isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    allowed.add(statement.target.id)
            for method in cls.node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = method.args
                positional = [*args.posonlyargs, *args.args]
                if not positional or _is_staticmethod(method):
                    continue
                self_name = positional[0].arg
                for write_line, attr in _self_attribute_writes(method, self_name):
                    if attr not in allowed:
                        yield self.finding(
                            module,
                            write_line,
                            f"{cls.name}.{attr} assigned but not in __slots__ "
                            f"(declared: {', '.join(sorted(resolved))})",
                        )


def _is_staticmethod(method: ast.AST) -> bool:
    decorators = getattr(method, "decorator_list", [])
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in decorators
    )


def _self_attribute_writes(
    method: ast.AST, self_name: str
) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(method):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and (
            not isinstance(node, ast.AnnAssign) or node.value is not None
        ):
            targets = [node.target]
        for target in targets:
            elements = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            for element in elements:
                if (
                    isinstance(element, ast.Attribute)
                    and isinstance(element.value, ast.Name)
                    and element.value.id == self_name
                ):
                    yield element.lineno, element.attr


# --------------------------------------------------------------------- ATL006

METRIC_CALL_ATTRS = {
    "increment": "counter",
    "counter": "counter",
    "observe": "histogram",
    "histogram": "histogram",
    "record_point": "series",
    "timeseries": "series",
}
METRIC_CONTAINER_ATTRS = {"counters": "counter", "histograms": "histogram", "series": "series"}
#: The API calls in :data:`METRIC_CALL_ATTRS` that read a name, not write it.
METRIC_READ_ATTRS = {"counter", "histogram", "timeseries"}


def _name_literals(node: ast.AST) -> List[str]:
    """The string literals a name expression can evaluate to.

    A conditional expression yields both arms: ``"a" if x else "b"``.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _name_literals(node.body) + _name_literals(node.orelse)
    return []


def _container_kind(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return METRIC_CONTAINER_ATTRS.get(node.attr)
    if isinstance(node, ast.Name):
        return METRIC_CONTAINER_ATTRS.get(node.id)
    return None


def iter_metric_name_literals(
    tree: ast.Module,
) -> Iterator[Tuple[int, str, str, bool]]:
    """Yield ``(line, kind, name, read)`` for every literal metric-name use.

    Matches the :class:`repro.sim.metrics.MetricsRegistry` API
    (``increment``/``observe``/``counter``/``histogram``/``record_point``/
    ``timeseries`` with a string-literal first argument) plus string
    subscripts and ``.get`` calls on the registry's ``counters``/
    ``histograms``/``series`` containers (the hot-path idiom
    ``counters["net.messages_sent"] += 1``).  A bound-method alias
    (``self._bump = sim.metrics.increment`` then
    ``self._bump("group.shares_sent")``, the per-share hot-path idiom) is
    matched under the alias name anywhere in the module.  A conditional
    expression yields both of its literal arms.  ``read`` is true for
    ``counter``/``histogram``/``timeseries``, ``.get`` and a loaded
    subscript, false for a write.  Dynamic names (f-strings, variables) are
    invisible to this scan and are validated by their *read* sites instead.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in METRIC_CALL_ATTRS
        ):
            for target in node.targets:
                alias = getattr(target, "attr", None) or getattr(target, "id", None)
                if alias is not None:
                    aliases[alias] = node.value.attr
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "get":
                kind, read = _container_kind(func.value), True
            else:
                if isinstance(func, ast.Attribute) and func.attr in METRIC_CALL_ATTRS:
                    method = func.attr
                else:
                    callee = getattr(func, "attr", None) or getattr(func, "id", None)
                    method = aliases.get(callee) if callee else None
                kind = METRIC_CALL_ATTRS.get(method) if method else None
                read = method in METRIC_READ_ATTRS
            if kind is not None:
                for name in _name_literals(node.args[0]):
                    yield node.lineno, kind, name, read
        elif isinstance(node, ast.Subscript):
            kind = _container_kind(node.value)
            if kind is not None:
                for name in _name_literals(node.slice):
                    yield node.lineno, kind, name, isinstance(node.ctx, ast.Load)


@register_rule
class MetricsRegistryRule(Rule):
    """ATL006 — metric name literals must exist in the generated registry.

    Every literal name passed to the metrics API must appear in
    :mod:`repro.lint.metrics_registry` (regenerate with ``python -m
    repro.lint --gen-metrics``).  A typo'd counter name otherwise splits a
    metric into two silently — the reader sums one and the writer bumps
    the other — and matrix-row columns read zeros forever.  Orphaned
    registry entries (names no longer used anywhere) are reported by the
    CLI's stale-registry check rather than per-module.
    """

    rule_id = "ATL006"
    title = "metric name literal not in the generated registry"

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        from repro.lint.metrics_registry import METRICS

        for line, kind, name, _read in iter_metric_name_literals(module.tree):
            if name not in METRICS:
                yield self.finding(
                    module,
                    line,
                    f"metric name {name!r} ({kind}) is not in the registry — "
                    f"typo, or regenerate with python -m repro.lint --gen-metrics",
                )


# --------------------------------------------------------------------- ATL007

MUTATING_METHOD_ATTRS = {
    "append",
    "add",
    "update",
    "extend",
    "remove",
    "discard",
    "clear",
    "pop",
    "popitem",
    "setdefault",
    "insert",
    "sort",
    "reverse",
}


@register_rule
class PostSendMutationRule(Rule):
    """ATL007 — never mutate an object after handing it to ``send*``.

    The coalesced fast path aliases payload objects into in-flight
    deliveries instead of copying them, so mutating a message after
    ``send(...)`` retroactively rewrites what the receiver will see.
    ``broadcast(...)`` and ``seal(...)`` hand over the same way, and add a
    second hazard: the digest memoised at the hand-over would go stale.
    Within each straight-line block, every plain name passed to a call
    whose name starts with ``send`` (or is ``broadcast``/``seal``) is
    tracked; a later attribute/item assignment or mutating method call
    (``.append``, ``.update``, ``.pop``, ...) on that name in the same
    block chain is flagged.
    Rebinding the name clears the tracking; branch-local sends do not
    leak past their branch (CFG-lite, deliberately conservative).
    """

    rule_id = "ATL007"
    title = "payload mutated after being passed to send*/broadcast/seal"

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        for scope in ast.walk(module.tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_block(module, scope.body, {})

    def _check_block(
        self,
        module: ModuleInfo,
        body: Sequence[ast.stmt],
        sent: Dict[str, str],
    ) -> Iterator[Finding]:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested scope: analyzed on its own
            if _is_compound(statement):
                # Recurse with a copy: mutations inside the branch are
                # checked against sends dominating it, while sends inside
                # the branch never poison statements after it.
                for child_body in _child_blocks(statement):
                    yield from self._check_block(module, child_body, dict(sent))
                continue
            # 1. Flag mutations of already-sent names in this statement.
            yield from self._flag_mutations(module, statement, sent)
            # 2. Rebinding clears tracking.
            for name in _bound_names(statement):
                sent.pop(name, None)
            # 3. Record names handed over in this statement.
            for node in ast.walk(statement):
                if isinstance(node, ast.Call) and _hands_over(_call_name(node)):
                    for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                        if isinstance(arg, ast.Name):
                            sent.setdefault(
                                arg.id, f"{_call_name(node)}(...) on line {node.lineno}"
                            )

    def _flag_mutations(
        self, module: ModuleInfo, statement: ast.stmt, sent: Dict[str, str]
    ) -> Iterator[Finding]:
        if not sent:
            return
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
        elif isinstance(statement, ast.AugAssign):
            targets = [statement.target]
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets = [statement.target]
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)) and isinstance(
                target.value, ast.Name
            ):
                name = target.value.id
                if name in sent:
                    yield self.finding(
                        module,
                        statement.lineno,
                        f"{name!r} mutated after being passed to {sent[name]} "
                        f"(post-send aliasing hazard)",
                    )
        for node in ast.walk(statement):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHOD_ATTRS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in sent
            ):
                name = node.func.value.id
                yield self.finding(
                    module,
                    node.lineno,
                    f"{name!r}.{node.func.attr}(...) mutates a payload passed to "
                    f"{sent[name]} (post-send aliasing hazard)",
                )


def _hands_over(call_name: str) -> bool:
    """Calls after which the caller no longer owns its arguments' contents."""
    return call_name.startswith("send") or call_name in ("broadcast", "seal")


def _is_compound(statement: ast.stmt) -> bool:
    return isinstance(
        statement,
        (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try),
    )


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return ""


def _bound_names(statement: ast.stmt) -> Iterator[str]:
    if isinstance(statement, ast.Assign):
        for target in statement.targets:
            elements = (
                target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            )
            for element in elements:
                if isinstance(element, ast.Name):
                    yield element.id
    elif isinstance(statement, ast.For) and isinstance(statement.target, ast.Name):
        yield statement.target.id


def _child_blocks(statement: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(statement, attr, None)
        if block and isinstance(block, list) and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(statement, "handlers", []) or []:
        yield handler.body


# --------------------------------------------------------------------- ATL008


@register_rule
class HashIdentityRule(Rule):
    """ATL008 — ``hash()`` / ``id()`` values never enter protocol state.

    ``hash(str)`` depends on PYTHONHASHSEED and ``id()`` on the allocator;
    a value derived from either that reaches an ordering key, an RNG seed
    or persisted protocol state varies across processes — the exact class
    of bug behind PR 2's hash-dependent gossip draws.  The rule flags
    *every* call to the builtins (the conservative choice: proving a use
    never orders anything is harder than justifying the rare legitimate
    identity-cache with a pragma).
    """

    rule_id = "ATL008"
    title = "hash()/id() value on a protocol path"

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("hash", "id")
                and node.func.id not in module.import_aliases
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    f"builtin {node.func.id}() is PYTHONHASHSEED/address-"
                    f"dependent; derive ordering and seeds from stable digests "
                    f"(repro.crypto.digest) instead",
                )


# --------------------------------------------------------------------- ATL009

#: The one module that owns hook dispatch plumbing (exempt from ATL009).
MIDDLEWARE_HOME = "repro/core/middleware.py"

#: Bespoke wiring entry points retired by the middleware pipeline; any call
#: to one of these names is a resurrection of the pre-pipeline plumbing.
RETIRED_WIRING_CALLS = ("install_fault_injector", "clear_fault_injector")

#: Bespoke per-layer observer attributes retired by the middleware pipeline.
RETIRED_OBSERVER_ATTRS = ("delivery_observer", "accept_audit")

#: The middleware hook names (kept in sync with
#: :data:`repro.core.middleware.HOOK_NAMES`; hardcoded so the analyzer never
#: imports simulator code).
MIDDLEWARE_HOOK_NAMES = (
    "on_send",
    "on_deliver",
    "on_view_change",
    "on_eviction",
    "on_node_added",
    "on_node_left",
)


@register_rule
class DirectHookWiringRule(Rule):
    """ATL009 — observability hooks wire through ``repro.core.middleware``.

    Before the middleware pipeline, every observer hand-wired its own hook
    into a different layer, and each wiring point grew its own bugs: silent
    replacement on double install, observers dropped when ``deliver_fn``
    was reassigned, duplicate eviction notifications.  The rule flags the
    pre-pipeline patterns so they cannot creep back:

    * calls named ``install_fault_injector`` / ``clear_fault_injector``
      (the retired bespoke injector API);
    * assignments to an attribute named ``delivery_observer`` or
      ``accept_audit`` (the retired per-layer observer slots);
    * calls ``<receiver>.on_<hook>(...)`` for any middleware hook name,
      unless the receiver is bare ``self`` (an object invoking its *own*
      callback attribute is not pipeline wiring) — hook pipelines are
      dispatched through a chain's compiled tuples, never by calling a
      middleware's hook method directly;
    * an assignment to an attribute named ``deliver_fn`` whose right-hand
      side reads ``.deliver_fn`` (directly, or via a name earlier bound
      from a ``.deliver_fn`` read in the same module) — the wrap-chaining
      pattern that silently dropped observers on reassignment.  Apps that
      decorate delivery for *application* semantics carry a pragma.

    ``repro/core/middleware.py`` itself is exempt: that module is the
    sanctioned home of hook plumbing.
    """

    rule_id = "ATL009"
    title = "direct hook wiring outside repro.core.middleware"

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        if module.relpath.endswith(MIDDLEWARE_HOME):
            return
        wrapped_names: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in RETIRED_WIRING_CALLS:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"{name}(...) is the retired bespoke injector API — "
                        f"compose a repro.core.middleware.MiddlewareChain and "
                        f"install it on the cluster/network instead",
                    )
                elif name in MIDDLEWARE_HOOK_NAMES and isinstance(
                    node.func, ast.Attribute
                ):
                    receiver = node.func.value
                    if not (isinstance(receiver, ast.Name) and receiver.id == "self"):
                        yield self.finding(
                            module,
                            node.lineno,
                            f"direct call .{name}(...) invokes a middleware hook "
                            f"outside the pipeline — dispatch through the chain's "
                            f"compiled hooks (repro.core.middleware) instead",
                        )
            elif isinstance(node, ast.Assign):
                reads_deliver_fn = any(
                    (isinstance(sub, ast.Attribute) and sub.attr == "deliver_fn")
                    or (isinstance(sub, ast.Name) and sub.id in wrapped_names)
                    for sub in ast.walk(node.value)
                )
                if (
                    isinstance(node.value, ast.Attribute)
                    and node.value.attr == "deliver_fn"
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            wrapped_names.add(target.id)
                for target in node.targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr in RETIRED_OBSERVER_ATTRS:
                        yield self.finding(
                            module,
                            node.lineno,
                            f"assignment to .{target.attr} resurrects a retired "
                            f"observer slot — add a Middleware with the matching "
                            f"hook to the scenario's chain instead",
                        )
                    elif target.attr == "deliver_fn" and reads_deliver_fn:
                        yield self.finding(
                            module,
                            node.lineno,
                            "deliver_fn wrap-chaining (RHS reads .deliver_fn) — "
                            "observers wired this way are dropped on the next "
                            "reassignment; use an on_deliver middleware instead",
                        )


# --------------------------------------------------------------------- ATL010

#: Method names that store their argument in the receiver.
CONTAINER_STORE_ATTRS = {
    "append",
    "appendleft",
    "add",
    "insert",
    "extend",
    "setdefault",
    "__setitem__",
}

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _hook_context_param(hook: ast.AST) -> Optional[str]:
    """Name of a hook function's context parameter (first after ``self``)."""
    params = [arg.arg for arg in hook.args.posonlyargs + hook.args.args]
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    return params[0] if params else None


def _is_object_itself(node: Optional[ast.AST], name: str) -> bool:
    """Whether ``node`` evaluates to the object bound to ``name`` or to a
    literal/conditional holding it.  ``name.field`` (a field copied out) and
    ``helper(name)`` (some other object) do not."""
    if isinstance(node, ast.Name):
        return node.id == name
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_object_itself(item, name) for item in node.elts)
    if isinstance(node, ast.Dict):
        return any(_is_object_itself(item, name) for item in node.keys + node.values)
    if isinstance(node, ast.Starred):
        return _is_object_itself(node.value, name)
    if isinstance(node, ast.NamedExpr):
        return _is_object_itself(node.value, name)
    if isinstance(node, ast.IfExp):
        return _is_object_itself(node.body, name) or _is_object_itself(node.orelse, name)
    if isinstance(node, ast.BoolOp):
        return any(_is_object_itself(item, name) for item in node.values)
    return False


def _walk_own_scope(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that yields nested functions/lambdas but stays out of them."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTION_NODES):
            stack.extend(ast.iter_child_nodes(node))


@register_rule
class ContextRetentionRule(Rule):
    """ATL010 — a middleware hook must not retain its context.

    The network hands every ``on_send`` hook of a burst the **same**
    ``MiddlewareContext``, resetting the receiver, payload and verdict
    fields between receivers; the object is valid only for the duration of
    the hook call.  A hook that keeps the object sees it change under its
    feet.  Inside any function named after a middleware hook, the rule
    flags the context parameter (the first one after ``self``) escaping:

    * assigned — bare, or inside a tuple/list/set/dict literal — to an
      attribute or a subscript (``self.last = ctx``, ``self.seen[k] = ctx``);
    * passed to a storing method (``.append``, ``.appendleft``, ``.add``,
      ``.insert``, ``.extend``, ``.setdefault``, ``.__setitem__``);
    * read inside a nested function or lambda, or bound as one's parameter
      default (a closure outlives the call);
    * returned or yielded.

    Copying fields out (``self.last = ctx.receiver``) and passing the
    context down to a helper for the duration of the call are fine.  The
    rule does not follow aliases (``c = ctx; self.last = c``).
    """

    rule_id = "ATL010"
    title = "middleware hook retains its context"

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        for hook in ast.walk(module.tree):
            if (
                isinstance(hook, (ast.FunctionDef, ast.AsyncFunctionDef))
                and hook.name in MIDDLEWARE_HOOK_NAMES
            ):
                ctx = _hook_context_param(hook)
                if ctx is not None:
                    for node, how in self._escapes(hook, ctx):
                        yield self.finding(
                            module,
                            node.lineno,
                            f"{hook.name}() {how} its context {ctx!r} — the "
                            f"object is reused for the next message of the "
                            f"burst and is only valid during the hook call; "
                            f"copy the fields you need instead",
                        )

    @staticmethod
    def _escapes(hook: ast.AST, ctx: str) -> Iterator[Tuple[ast.AST, str]]:
        for node in _walk_own_scope(hook):
            if isinstance(node, _FUNCTION_NODES):
                # Defaults are evaluated in the hook's scope; the body only
                # sees the hook's context if no own parameter shadows it.
                own = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
                reads = [node.args]
                if ctx not in own:
                    reads += node.body if isinstance(node.body, list) else [node.body]
                if any(
                    isinstance(sub, ast.Name) and sub.id == ctx
                    for part in reads
                    for sub in ast.walk(part)
                ):
                    yield node, "captures in a closure"
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if _is_object_itself(node.value, ctx) and any(
                    isinstance(target, (ast.Attribute, ast.Subscript)) for target in targets
                ):
                    yield node, "stores"
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in CONTAINER_STORE_ATTRS
                    and any(
                        _is_object_itself(arg, ctx)
                        for arg in node.args + [kw.value for kw in node.keywords]
                    )
                ):
                    yield node, f"stores (via .{node.func.attr}())"
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if _is_object_itself(node.value, ctx):
                    yield node, "returns or yields"


__all__ = [
    "DirectRandomRule",
    "WallClockRule",
    "UnorderedIterationRule",
    "SwallowedExceptionRule",
    "SlotsConsistencyRule",
    "MetricsRegistryRule",
    "PostSendMutationRule",
    "HashIdentityRule",
    "DirectHookWiringRule",
    "ContextRetentionRule",
    "iter_metric_name_literals",
]
