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


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_names(tree, modules):
    """The ``_``-prefixed names (dunders aside) a module's source takes from
    the package's modules: imported by ``from``, or read as an attribute of
    a package module it imported."""
    found, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 1:
                name = f"revmatch.{name}" if name else "revmatch"
            if name.split(".")[0] != "revmatch":
                continue
            for alias in node.names:
                if alias.name in modules and name == "revmatch":
                    bound[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    found.append(f"{name}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "revmatch" and len(parts) == 2 and alias.asname:
                    bound[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            found.append(f"revmatch.{bound[node.value.id]}.{node.attr}")
    return found


def test_private_names_are_found_by_import_and_by_attribute():
    tree = ast.parse("from . import a\nfrom .b import _x, y\n"
                     "import revmatch.c as c\n\ndef f():\n"
                     "    return a._g(), c._h, a.__doc__, z._k\n")
    assert sorted(_private_names(tree, {"a", "b", "c"})) == [
        "revmatch.a._g", "revmatch.b._x", "revmatch.c._h"]


def test_no_module_takes_a_private_name_of_another():
    paths = {path.stem: path for path in PACKAGE.glob("*.py")}
    taken = {name: _private_names(ast.parse(path.read_text()), set(paths))
             for name, path in paths.items()}
    assert {name: found for name, found in taken.items() if found} == {}


def test_tfconv_imports_signals_alone():
    # the operator and its kernel reference are functions of a taps array
    assert import_graph()["tfconv"] <= {"signals"}
