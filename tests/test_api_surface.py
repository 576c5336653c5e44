"""The library's public surface: what a command runs or the README documents.

Every public module-level function and class in ``src/calibrix`` must be used
by library code outside its own definition, or be named in the README's
"Library API" list.  A function that only tests call belongs in ``tests/``.
No module in ``src/calibrix`` or ``tests/`` imports a name it never reads.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "calibrix"
TESTS = ROOT / "tests"


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _api_list() -> set:
    """Names in backticks under the README's "## Library API" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_][\w.]*)`", section))


def _local_names(fn) -> set:
    """Names a function or lambda binds in its own scope."""
    a = fn.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
    names |= {x.arg for x in (a.vararg, a.kwarg) if x is not None}
    declared = set()
    stack = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue  # a nested scope
        elif isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return names - declared


def _reads(node, bound=frozenset()) -> set:
    """Names ``node`` reads that no enclosing function binds itself.

    Imports do not shadow: a function-level ``from .x import f`` refers to
    the module-level ``f`` of ``x``.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound = bound | _local_names(node)
    out = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        out.add(node.id)
    for child in ast.iter_child_nodes(node):
        out |= _reads(child, bound)
    return out


def _imports(tree) -> dict:
    """Local name -> (module stem, name) for every ``from`` import of a calibrix module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 1:
                stem = node.module
            elif node.module.startswith("calibrix."):
                stem = node.module.split(".", 1)[1]
            else:
                continue
            for alias in node.names:
                out[alias.asname or alias.name] = (stem, alias.name)
    return out


def _unused_public_names() -> list:
    modules = _modules()
    reads = {stem: [(stmt, _reads(stmt)) for stmt in tree.body] for stem, tree in modules.items()}
    imported = {stem: _imports(tree) for stem, tree in modules.items()}
    unused = []
    for stem, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name.startswith("_"):
                continue
            used = any(name in names for other, names in reads[stem] if other is not stmt)
            for user, table in imported.items():
                locals_ = {local for local, target in table.items() if target == (stem, name)}
                if user != stem and any(locals_ & names for _, names in reads[user]):
                    used = True
            if not used:
                unused.append(f"{stem}.{name}")
    return unused


def test_every_public_name_is_used_or_documented():
    api = {name.split(".")[0] for name in _api_list()}
    stray = [name for name in _unused_public_names() if name.split(".")[1] not in api]
    assert stray == [], (
        f"public names that no library code uses and the README's Library API list "
        f"does not name: {stray}; document them, or move them into tests/"
    )


def test_documented_names_exist():
    defined = set()
    for tree in _modules().values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                if isinstance(stmt, ast.ClassDef):
                    defined.update(f"{stmt.name}.{sub.name}" for sub in stmt.body
                                   if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))
    assert _api_list() and sorted(_api_list() - defined) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported(body) -> list:
    """(name, line) of each import in ``body``, nested functions and classes excluded."""
    out = []
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            out += [(alias.asname or alias.name.split(".")[0], node.lineno)
                    for alias in node.names]
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return out


def _outer_reads(node) -> set:
    """Names that ``node`` reads from the scope around it.

    Annotations count as reads, string annotations such as ``-> "Mesh"`` too.
    A function or class body that imports a name reads its own binding of it.
    """
    out = set()
    for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            out |= _outer_reads(ast.parse(note.value, mode="eval"))
    if isinstance(node, _SCOPES):
        inner = set().union(*map(_outer_reads, node.body))
        inner -= {name for name, _ in _imported(node.body)}
        head = [child for child in ast.iter_child_nodes(node) if child not in node.body]
        return out.union(inner, *map(_outer_reads, head))
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        out.add(node.id)
    return out.union(*map(_outer_reads, ast.iter_child_nodes(node)))


def _unused_imports(path) -> list:
    """``path:line name`` for each imported name that its own scope never reads.

    The scope of an import is the function or class it sits in, or else the
    module; ``TYPE_CHECKING`` blocks belong to the module.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = []
    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, _SCOPES)]:
        reads = set().union(*map(_outer_reads, scope.body))
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in _imported(scope.body) if name not in reads]
    return unused


def test_no_unused_imports():
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == [], f"imported names that their module never reads: {unused}"
