"""The package's import layout, read from the source with ``ast``: every
import of a package module sits at module level, the package-internal import
graph has no cycle, and every imported name is used (``__init__.py``
re-exports what it imports)."""

import ast
from pathlib import Path

import pytest

import homalg
import homalg.polysolve
import homalg.rational

PACKAGE = Path(homalg.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _targets(node: ast.stmt) -> list[str]:
    """The package modules an import statement imports, "__init__" for the
    package itself; none for any other statement."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return [name[1] if len(name) > 1 else "__init__" for name in names if name[0] == "homalg"]
    if not isinstance(node, ast.ImportFrom):
        return []
    parts = (node.module or "").split(".") if node.module else []
    if node.level == 0:
        if not parts or parts[0] != "homalg":
            return []
        parts = parts[1:]
    if parts:
        return [parts[0]]
    # "from . import name": a submodule, or a name the package defines
    return [alias.name if alias.name in TREES else "__init__" for alias in node.names]


def _imports(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_package_import_inside_a_function():
    lazy = [f"{module}.py:{node.lineno}"
            for module, tree in TREES.items()
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in _imports(function) if _targets(node)]
    assert not lazy, f"imports of package modules inside functions: {lazy}"


def _graph() -> dict[str, set[str]]:
    return {module: {target for node in _imports(tree) for target in _targets(node)}
            for module, tree in TREES.items()}


def test_package_import_graph_is_acyclic():
    graph = _graph()
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            cycle = path[path.index(module):] + [module]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        for target in sorted(graph.get(module, ())):
            visit(target, path + [module])
        done.add(module)

    for module in sorted(graph):
        visit(module, [])


def test_polynomials_live_with_the_exact_scalars():
    assert homalg.polysolve.Poly is homalg.rational.Poly is homalg.Poly
    assert "polysolve" not in _graph()["tensors"]


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return [alias.asname or alias.name for alias in node.names]


def _used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [arg.annotation for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__"}))
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    unused = sorted(set(name for node in _imports(tree) for name in _bound_names(node))
                    - _used_names(tree))
    assert not unused, f"{module}.py imports names it never uses: {unused}"
