"""Every field that a class in ``src/fertisim`` stores is read somewhere.

A field is stored when it is a dataclass field or is set by ``self.x = ...``
in ``__init__`` or ``__post_init__``. It is read when some module under
``src/``, ``perfbench/`` or ``tests/`` loads an attribute of that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Written and never read. It stays while perfbench/checks.py passes a distance
# to ``read_ppm`` (ROADMAP item 1).
ALLOWED = {"Frame.distance_cm"}


def _is_dataclass(cls):
    names = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(name, ast.Name) and name.id == "dataclass" for name in names)


def stored_fields(tree):
    """``(class, field)`` for every field that a class in ``tree`` stores."""
    fields = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls):
            fields.update((cls.name, stmt.target.id) for stmt in cls.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "__post_init__"):
                fields.update((cls.name, node.attr) for node in ast.walk(fn)
                              if isinstance(node, ast.Attribute)
                              and isinstance(node.ctx, ast.Store)
                              and isinstance(node.value, ast.Name) and node.value.id == "self")
    return fields


def write_only(stored_in, read_in):
    """``Class.field`` for each field stored in ``stored_in`` that no source in ``read_in``
    reads as an attribute, sorted; both are lists of module sources."""
    stored = set().union(*(stored_fields(ast.parse(s)) for s in stored_in))
    read = {node.attr for source in read_in for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{cls}.{name}" for cls, name in stored if name not in read)


def test_checker_finds_write_only_fields():
    source = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\nclass A:\n    kept: int\n    lost: int = 0\n"
        "    items: list = field(default_factory=list)\n"
        "@dataclass\nclass B:\n    gone: int\n    def __post_init__(self):\n"
        "        self.derived = self.gone\n"
        "class C:\n    size = 3\n    def __init__(self, x):\n        self.x = x\n"
        "        self.unread = x\n    def method(self):\n        self.later = 1\n"
        "class D:\n    plain: int\n"
        "a = A(1)\nprint(a.kept, a.items, C(1).x)\nc = C(2)\nc.unread = 4\n")
    assert write_only([source], [source]) == ["A.lost", "B.derived", "C.unread"]


def test_no_field_is_write_only():
    def sources(*parts):
        return [p.read_text(encoding="utf-8") for p in sorted(ROOT.joinpath(*parts).glob("*.py"))]

    src = sources("src", "fertisim")
    found = write_only(src, src + sources("perfbench") + sources("tests"))
    assert sorted(set(found) - ALLOWED) == []
    assert sorted(ALLOWED - set(found)) == [], "an allowed field is read now; drop it from ALLOWED"
