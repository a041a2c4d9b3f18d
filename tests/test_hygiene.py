"""Source hygiene: no module imports a name it never uses, every name that
the package exports exists, every top-level definition can be reached from
the code that runs, no module raises the recursion limit, reads the
environment or catches every exception, and the big-step evaluators and
their loop kernels do not recurse.

An import that a deletion leaves behind is dead code that still costs an
import and misleads the reader about what a module depends on.  Import lines
marked `# noqa` are exempt: they bind names that other code rebinds or
looks up on the module at call time.
"""

import ast
import re
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


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _mentions(tree) -> set:
    """The names a piece of code mentions: as a name, an attribute, an
    imported name, or an identifier inside a string constant other than a
    docstring, since some modules generate code from strings."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and type(node.value) is str and id(node) not in docstrings:
            names.update(_IDENTIFIER.findall(node.value))
    return names


def _defined(stmt) -> list:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_top_level_definition_is_exported_or_used():
    # A helper that only tests name is dead code: it still has to be read and
    # kept in step.  A definition counts as used when the code that runs can
    # reach it: the package's exports, the benchmark, the demos, the CLI
    # entry point and every module's top-level statements other than imports,
    # docstrings and definitions, and then whatever a reached definition
    # mentions.
    modules = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert len(modules) > 5
    definitions: dict = {}  # name -> [(module, statement)]
    reached = set(whilesem.__all__)
    reached |= set(re.findall(r'= "whilesem\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    for p in [p for d in ("bench", "demos") for p in sorted((ROOT / d).glob("*.py"))]:
        reached |= _mentions(ast.parse(p.read_text(encoding="utf-8")))
    for p, tree in modules.items():
        for stmt in tree.body:
            names = _defined(stmt)
            for name in names:
                definitions.setdefault(name, []).append((p, stmt))
            docstring = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            if not names and not docstring and not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                reached |= _mentions(stmt)
    todo = list(reached)
    while todo:
        for _, stmt in definitions.get(todo.pop(), ()):
            new = _mentions(stmt) - reached
            reached |= new
            todo += new
    unreached = [
        f"{p.stem}.{name}"
        for name, places in definitions.items()
        if name not in reached
        for p, _ in places
        if p.name != "__init__.py"
    ]
    assert sorted(unreached) == []


def test_no_module_sets_the_recursion_limit():
    # deep input must be handled by loops, not by raising a process-wide limit
    setters = [p.name for p in sorted(SRC.glob("*.py")) if "setrecursionlimit" in p.read_text(encoding="utf-8")]
    assert setters == []


def test_no_big_step_evaluator_calls_itself():
    # the evaluators run on explicit continuation stacks, and their loop
    # kernels are built on explicit lists, so a long or deeply nested
    # command never meets the recursion limit
    recursive = []
    for name in ("big_step.py", "pretty_big.py", "flag_based.py", "kernel.py"):
        for fn in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == fn.name
                for node in ast.walk(fn)
            ):
                recursive.append(f"{name}: {fn.name}")
    assert recursive == []


def test_no_module_reads_the_environment():
    # no behaviour, optimisations included, hangs on a setting outside the
    # arguments: every run of the same input behaves the same
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb", "getenvb"):
                readers.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and {"environ", "getenv"} & {a.name for a in node.names}:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


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
