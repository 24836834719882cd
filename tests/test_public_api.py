"""Every public name that ``src/fertisim`` defines is used by the program.

A public name is a top-level function or class, or a method of a public
class, whose name does not start with ``_``. It is used when some module
under ``src/`` or ``perfbench/`` loads a name or an attribute of that name:
an API that only tests call is code the program does not need, and goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_names(tree):
    """``name`` for each public top-level function and class in ``tree``, and
    ``Class.name`` for each public method of a public class."""
    names = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(f"{node.name}.{fn.name}" for fn in node.body
                         if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"))
    return names


def _loads(tree):
    """Every name and attribute name that ``tree`` loads."""
    nodes = [n for n in ast.walk(tree) if isinstance(getattr(n, "ctx", None), ast.Load)]
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unused(defined_in, used_in):
    """Each public name defined in ``defined_in`` that no source in ``used_in`` loads, sorted;
    both are lists of module sources."""
    loaded = set().union(*(_loads(ast.parse(s)) for s in used_in))
    return sorted(name for s in defined_in for name in public_names(ast.parse(s))
                  if name.rpartition(".")[2] not in loaded)


def test_checker_finds_unused_public_names():
    source = (
        "def used(): pass\ndef lost(): pass\ndef _private(): pass\n"
        "class Kept:\n    def called(self): pass\n    def orphan(self): pass\n"
        "    def _helper(self): pass\n    @property\n    def read(self): return 1\n"
        "class _Hidden:\n    def method(self): pass\n"
        "class Unused:\n    pass\n"
        "used()\nk = Kept()\nk.called()\nprint(k.read)\nlost = 1\n")
    assert unused([source], [source]) == ["Kept.orphan", "Unused", "lost"]


def test_every_public_name_is_used_by_the_program():
    def sources(*parts):
        return [p.read_text(encoding="utf-8") for p in sorted(ROOT.joinpath(*parts).glob("*.py"))]

    src = sources("src", "fertisim")
    assert unused(src, src + sources("perfbench")) == []
