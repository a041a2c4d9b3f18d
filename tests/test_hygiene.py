"""Source hygiene: no module imports a name it never uses, every name that
the package exports exists, every top-level function and class is exported
or named by the code, no module raises the recursion limit or catches every
exception, and the big-step evaluators do not recurse.

An import that a deletion leaves behind is dead code that still costs an
import and misleads the reader about what a module depends on.  Import lines
marked `# noqa` are exempt: they bind names that other code rebinds or
looks up on the module at call time.
"""

import ast
from collections import Counter
from pathlib import Path

import whilesem

SRC = Path(whilesem.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[stmt.lineno - 1 : stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = stmt.lineno
    # an attribute's base is itself a Name node, so this covers both
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = [entry for p in modules for entry in _unused_imports(p)]
    assert unused == []


def test_every_exported_name_resolves():
    missing = [name for name in whilesem.__all__ if not hasattr(whilesem, name)]
    assert missing == []


def _named(tree) -> Counter:
    """How often each name is mentioned: as a name, an attribute or an
    imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def test_every_top_level_definition_is_exported_or_used():
    # A helper that only tests name is dead code: it still has to be read and
    # kept in step.  A definition's mentions inside itself do not count.
    code = [p for d in ("src/whilesem", "bench", "demos") for p in sorted((ROOT / d).glob("*.py"))]
    assert len(code) > 15
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in code}
    named = sum(map(_named, trees.values()), Counter())
    unused = [
        f"{p.stem}.{node.name}"
        for p, tree in trees.items()
        if p.parent.name == "whilesem" and p.name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in whilesem.__all__
        and named[node.name] <= _named(node)[node.name]
    ]
    assert unused == []


def test_no_module_sets_the_recursion_limit():
    # deep input must be handled by loops, not by raising a process-wide limit
    setters = [p.name for p in sorted(SRC.glob("*.py")) if "setrecursionlimit" in p.read_text(encoding="utf-8")]
    assert setters == []


def test_no_big_step_evaluator_calls_itself():
    # the evaluators run on explicit continuation stacks, so a long or
    # deeply nested command never meets the recursion limit
    recursive = []
    for name in ("big_step.py", "pretty_big.py", "flag_based.py"):
        for fn in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == fn.name
                for node in ast.walk(fn)
            ):
                recursive.append(f"{name}: {fn.name}")
    assert recursive == []


def test_no_module_catches_every_exception():
    # a handler names what it expects, so a bug elsewhere is not read as,
    # say, a malformed certificate
    broad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and (
                node.type is None or isinstance(node.type, ast.Name) and node.type.id in ("Exception", "BaseException")
            ):
                broad.append(f"{path.name}:{node.lineno}")
    assert broad == []
