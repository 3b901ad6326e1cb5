"""atumlint core: findings, pragmas, the rule registry and the project index.

The analyzer is deliberately self-contained (stdlib ``ast`` + ``re`` only)
and two-pass:

1. **Index pass** — parse every target file once into a :class:`ModuleInfo`
   (AST, source lines, pragma table, import-alias map) and fold all class
   definitions into a project-wide class table so rules can resolve
   inherited ``__slots__`` across modules.
2. **Rule pass** — every registered rule visits every module.  Rules are
   plain classes registered with :func:`register_rule`; adding a rule to
   the next PR is one new class in :mod:`repro.lint.rules`.

Suppression is per-line and must carry a reason::

    draw = random.random()  # atumlint: allow[ATL001] exploratory notebook path

A pragma with no reason does not suppress anything — it is reported as an
``ATL000`` finding, so silent blanket waivers cannot accrete.  A pragma on
its own line suppresses findings on the next code line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

#: ``# atumlint: allow[ATL001] reason`` or ``allow[ATL001,ATL003] reason``.
PRAGMA_RE = re.compile(
    r"#\s*atumlint:\s*allow\[(?P<rules>[A-Z0-9,\s]+)\]\s*(?P<reason>.*?)\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    message: str
    snippet: str  # stripped source line

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class Pragma:
    """A parsed suppression pragma on one source line."""

    line: int
    rules: Tuple[str, ...]
    reason: str


@dataclass
class ClassInfo:
    """One class definition, enough for inherited-``__slots__`` resolution."""

    qualname: str  # "repro.sim.events.Event"
    module: str  # "repro.sim.events"
    name: str
    bases: Tuple[str, ...]  # dotted names as written, resolved via imports
    slots: Optional[Tuple[str, ...]]  # None = no __slots__ (has __dict__)
    slots_dynamic: bool  # __slots__ present but not a literal -> unknowable
    node: ast.ClassDef = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass
class ModuleInfo:
    """One parsed target file."""

    path: Path
    relpath: str  # repo-relative, forward slashes
    module: str  # dotted module name ("" if outside a package root)
    source_lines: List[str]
    tree: ast.Module
    pragmas: Dict[int, Pragma]
    #: local name -> dotted target for ``import x as y`` / ``from m import n``.
    import_aliases: Dict[str, str]

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""


SET_ANNOTATIONS = {"set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet"}

#: Builtin bases whose instances carry no ``__dict__``: a slotted subclass of
#: one has only the slots it and its project bases declare.  ``BaseException``
#: and its subclasses give every instance a ``__dict__``, so they stay open.
SLOTLESS_BUILTINS = frozenset(
    {"dict", "list", "set", "frozenset", "tuple", "int", "float", "str", "bytes"}
)


def annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in SET_ANNOTATIONS
    return isinstance(node, ast.Name) and node.id in SET_ANNOTATIONS


class ProjectIndex:
    """All parsed modules plus the cross-module class table."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: List[ModuleInfo] = list(modules)
        self.classes: Dict[str, ClassInfo] = {}
        returns_set: Set[str] = set()
        returns_other: Set[str] = set()
        for info in self.modules:
            for cls in _collect_classes(info):
                self.classes[cls.qualname] = cls
            for node in ast.walk(info.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    is_set = annotation_is_set(node.returns)
                    (returns_set if is_set else returns_other).add(node.name)
        #: Bare names of the functions and methods annotated to return a set
        #: wherever the project defines them: what a call site can be matched
        #: against without type inference (ATL003).
        self.set_returning: Set[str] = returns_set - returns_other

    def resolve_class(self, module: ModuleInfo, name: str) -> Optional[ClassInfo]:
        """Resolve a base-class reference written in ``module`` to its info."""
        dotted = module.import_aliases.get(name, name)
        if dotted in self.classes:
            return self.classes[dotted]
        if module.module:
            qualified = f"{module.module}.{dotted}"
            if qualified in self.classes:
                return self.classes[qualified]
        return None

    def resolved_slots(
        self, module: ModuleInfo, cls: ClassInfo, _seen: Optional[Set[str]] = None
    ) -> Optional[Set[str]]:
        """All slots of ``cls`` including inherited ones, or ``None`` if the
        class (or any base) gives instances a ``__dict__`` / is unknowable.

        ``None`` means "do not check attribute writes against slots": a
        dynamic ``__slots__``, a ``__slots__`` containing ``__dict__``, an
        unresolvable (external) base other than one of
        :data:`SLOTLESS_BUILTINS`, or an unslotted base all make the
        instance layout open.
        """
        seen = _seen if _seen is not None else set()
        if cls.qualname in seen:  # inheritance cycle: malformed, skip
            return None
        seen.add(cls.qualname)
        if cls.slots_dynamic or cls.slots is None or "__dict__" in cls.slots:
            return None
        collected: Set[str] = set(cls.slots)
        for base in cls.bases:
            if base == "object":
                continue
            base_info = self.resolve_class(module, base)
            if base_info is None:
                if base in SLOTLESS_BUILTINS:
                    continue
                return None
            base_module = next(
                (m for m in self.modules if m.module == base_info.module), module
            )
            base_slots = self.resolved_slots(base_module, base_info, seen)
            if base_slots is None:
                return None
            collected.update(base_slots)
        return collected


class Rule:
    """Base class for atumlint rules.

    Subclasses set ``rule_id``/``title`` and implement :meth:`check`,
    yielding :class:`Finding` objects.  Registration is explicit via
    :func:`register_rule` so a rule is one self-contained class.
    """

    rule_id: str = "ATL000"
    title: str = ""

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, line: int, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=line,
            message=message,
            snippet=module.snippet(line),
        )


_RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id or cls.rule_id == "ATL000":
        raise ValueError(f"{cls.__name__} must set a non-reserved rule_id")
    if cls.rule_id in _RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _RULE_REGISTRY[cls.rule_id] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """The registry (importing :mod:`repro.lint.rules` populates it)."""
    import repro.lint.rules  # noqa: F401  (side effect: registration)

    return dict(_RULE_REGISTRY)


# ------------------------------------------------------------------- parsing


def parse_pragmas(source_lines: Sequence[str]) -> Dict[int, Pragma]:
    """Extract ``# atumlint: allow[...]`` pragmas, keyed by 1-based line."""
    pragmas: Dict[int, Pragma] = {}
    for index, text in enumerate(source_lines, start=1):
        match = PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        pragmas[index] = Pragma(
            line=index, rules=rules, reason=match.group("reason").strip()
        )
    return pragmas


def _collect_import_aliases(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _collect_classes(info: ModuleInfo) -> List[ClassInfo]:
    classes: List[ClassInfo] = []
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases: List[str] = []
        for base in node.bases:
            dotted = _dotted_name(base)
            if dotted is not None:
                bases.append(dotted)
        slots: Optional[Tuple[str, ...]] = None
        slots_dynamic = False
        for statement in node.body:
            target_names = []
            if isinstance(statement, ast.Assign):
                target_names = [
                    t.id for t in statement.targets if isinstance(t, ast.Name)
                ]
                value = statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                if isinstance(statement.target, ast.Name):
                    target_names = [statement.target.id]
                value = statement.value
            else:
                continue
            if "__slots__" not in target_names:
                continue
            literal = _literal_str_tuple(value)
            if literal is None:
                slots_dynamic = True
            else:
                slots = literal
        qualname = f"{info.module}.{node.name}" if info.module else node.name
        classes.append(
            ClassInfo(
                qualname=qualname,
                module=info.module,
                name=node.name,
                bases=tuple(bases),
                slots=slots,
                slots_dynamic=slots_dynamic,
                node=node,
            )
        )
    return classes


def _literal_str_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``("a", "b")`` / ``["a"]`` / ``"a"`` -> tuple of strings, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        items: List[str] = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                items.append(element.value)
            else:
                return None
        return tuple(items)
    return None


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` expression -> "a.b.c", else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def load_module(path: Path, root: Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo`."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    relpath = rel.as_posix()
    module = ""
    parts = list(rel.parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
    return ModuleInfo(
        path=path,
        relpath=relpath,
        module=module,
        source_lines=lines,
        tree=tree,
        pragmas=parse_pragmas(lines),
        import_aliases=_collect_import_aliases(tree),
    )


def discover_files(targets: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.suffix == ".py":
            files.append(target)
    # The generated metrics registry is data, not protocol code.
    return [f for f in files if f.name != "metrics_registry.py"]


def build_index(targets: Sequence[Path], root: Path) -> ProjectIndex:
    return ProjectIndex([load_module(path, root) for path in discover_files(targets)])


# ----------------------------------------------------------------- execution


def run_lint(
    targets: Sequence[Path],
    root: Path,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run all (or the selected) rules over ``targets``.

    Returns findings *after* pragma suppression, sorted by location.
    Reason-less pragmas and pragmas naming unknown rules surface as
    ``ATL000`` findings so suppression stays auditable.
    """
    registry = registered_rules()
    selected = list(rule_ids) if rule_ids else sorted(registry)
    unknown = [rule_id for rule_id in selected if rule_id not in registry]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    project = build_index(targets, root)
    findings: List[Finding] = []
    for module in project.modules:
        raw: List[Finding] = []
        for rule_id in selected:
            raw.extend(registry[rule_id]().check(module, project))
        findings.extend(_apply_pragmas(module, raw))
        findings.extend(_pragma_hygiene(module, set(registry)))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _pragma_for(module: ModuleInfo, finding: Finding) -> Optional[Pragma]:
    """The pragma governing ``finding``: same line, or the line above if that
    line is a pure comment."""
    pragma = module.pragmas.get(finding.line)
    if pragma is not None:
        return pragma
    above = module.pragmas.get(finding.line - 1)
    if above is not None:
        text = module.source_lines[finding.line - 2].lstrip()
        if text.startswith("#"):
            return above
    return None


def _apply_pragmas(module: ModuleInfo, findings: Iterable[Finding]) -> List[Finding]:
    kept: List[Finding] = []
    for finding in findings:
        pragma = _pragma_for(module, finding)
        if pragma is not None and finding.rule in pragma.rules and pragma.reason:
            continue
        kept.append(finding)
    return kept


def _pragma_hygiene(module: ModuleInfo, known_rules: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    for pragma in module.pragmas.values():
        if not pragma.reason:
            findings.append(
                Finding(
                    rule="ATL000",
                    path=module.relpath,
                    line=pragma.line,
                    message=(
                        "suppression pragma without a reason string "
                        "(write: atumlint: allow[RULE] <why this is safe>)"
                    ),
                    snippet=module.snippet(pragma.line),
                )
            )
        for rule_id in pragma.rules:
            if rule_id not in known_rules:
                findings.append(
                    Finding(
                        rule="ATL000",
                        path=module.relpath,
                        line=pragma.line,
                        message=f"suppression pragma names unknown rule {rule_id}",
                        snippet=module.snippet(pragma.line),
                    )
                )
    return findings


__all__ = [
    "Finding",
    "Pragma",
    "ClassInfo",
    "ModuleInfo",
    "ProjectIndex",
    "Rule",
    "register_rule",
    "registered_rules",
    "parse_pragmas",
    "load_module",
    "discover_files",
    "build_index",
    "run_lint",
]
