import ast
from pathlib import Path

import revmatch

PACKAGE = Path(revmatch.__file__).parent


def _imported_modules(tree, modules):
    """The package's modules that a module's source imports, at module or
    function level: ``from . import a``, ``from .a import x``,
    ``import revmatch.a`` and ``from revmatch import a``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "revmatch":
                    found.update(parts[1:2])
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 1:
                name = f"revmatch.{name}" if name else "revmatch"
            parts = name.split(".")
            if parts[0] == "revmatch":
                # a module named after the package, else the names imported
                found.update(parts[1:2] or [a.name for a in node.names])
    return found & modules


def import_graph():
    """{module: modules it imports} over ``revmatch``'s modules; the
    package root is ``__init__``."""
    paths = {path.stem: path for path in PACKAGE.glob("*.py")}
    modules = set(paths)
    return {name: _imported_modules(ast.parse(path.read_text()), modules)
            for name, path in paths.items()}


def _find_cycle(graph):
    """One import cycle as a list of modules, first module repeated at the
    end, or None."""
    state = {}

    def visit(node, stack):
        state[node] = "open"
        stack.append(node)
        for dep in sorted(graph[node]):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, stack)
                if cycle:
                    return cycle
        stack.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node, [])
            if cycle:
                return cycle
    return None


def test_find_cycle_reports_a_function_level_import():
    tree = ast.parse("from . import b\n\ndef f():\n    from .a import g\n")
    assert _imported_modules(tree, {"a", "b"}) == {"a", "b"}
    assert _find_cycle({"a": {"b"}, "b": {"a"}}) == ["a", "b", "a"]
    assert _find_cycle({"a": {"b"}, "b": set()}) is None


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    assert graph["cli"] >= {"blind", "solver"}
    assert graph["blind"] >= {"solver"}
    cycle = _find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)
