"""No config field is dead: every field of every configuration dataclass is
read somewhere.

A configuration dataclass is a ``@dataclass`` under ``src/repro`` whose name
ends in ``Config``, ``Policy`` or ``Parameters``.  Each of its fields must be
read as an attribute (``x.field`` in a load context) somewhere in
``src/repro`` or ``benchmarks/``.  A field nothing reads is a knob that
changes nothing, and every test and benchmark silently trusts it anyway.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUFFIXES = ("Config", "Policy", "Parameters")


def _python_files(root, *directories):
    for directory in directories:
        yield from sorted((root / directory).rglob("*.py"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _config_fields(root=ROOT):
    fields = []
    for path in _python_files(root, "src/repro"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.ClassDef) and node.name.endswith(SUFFIXES)):
                continue
            if not _is_dataclass(node):
                continue
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    annotation = ast.unparse(statement.annotation)
                    if not annotation.startswith(("ClassVar", "typing.ClassVar")):
                        fields.append((node.name, statement.target.id))
    return fields


def _attributes_read(root=ROOT):
    read = set()
    for path in _python_files(root, "src/repro", "benchmarks"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_config_field_is_read_somewhere():
    fields = _config_fields()
    assert len(fields) > 20  # the scan found the configuration classes
    read = _attributes_read()
    dead = [f"{owner}.{name}" for owner, name in fields if name not in read]
    assert dead == [], f"config fields nothing reads: {dead}"


def test_the_scan_flags_a_dead_field_and_skips_class_variables(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "benchmarks").mkdir()
    (package / "knobs.py").write_text(
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "@dataclass(frozen=True)\n"
        "class ToyConfig:\n"
        "    used: int = 1\n"
        "    dead: int = 2\n"
        "    shared: ClassVar[int] = 3\n"
        "class PlainPolicy:\n"
        "    ignored: int = 4\n"
    )
    (tmp_path / "benchmarks" / "reader.py").write_text("print(ToyConfig().used)\n")
    assert _config_fields(tmp_path) == [("ToyConfig", "used"), ("ToyConfig", "dead")]
    assert "used" in _attributes_read(tmp_path)
    assert "dead" not in _attributes_read(tmp_path)
