"""The package ships only code that the program uses, and its modules
import one another in one direction.

Every module-level function and class of ``src/billzeta``, and every
method that is neither a dunder nor an override of a base-class method,
must be referenced as code somewhere other than the unit tests: by the
package outside its own definition, by the acceptance gate
(``tests/test_acceptance.py``) or by the benchmark (``perfbench/``).  A
reference is a name, an attribute, an imported name, or a string that
is an identifier, as ``perfbench/tracing.py`` names its ``TARGETS`` and
``DET_METHODS``.  A re-export from the package root is not a use.  A
helper that only unit tests call belongs in ``tests/oracles.py``."""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "billzeta"
READERS = (
    *(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"),
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").rglob("*.py")),
)


def references() -> dict:
    """identifier -> the (file, line) of each of its references in ``READERS``."""
    found = defaultdict(list)
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name.isidentifier():
                found[name].append((path, node.lineno))
    return found


def definitions():
    """(file, name, node) of every function and class of the package, and
    of every method that is neither a dunder nor an override."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "billzeta" if path.name == "__init__.py" else f"billzeta.{path.stem}"
        )
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and not any(hasattr(base, item.name) for base in bases)
                    ):
                        yield path, item.name, item


def test_every_package_name_is_used_outside_the_unit_tests():
    found = references()
    unused = [
        f"{path.stem}.{name}"
        for path, name, node in definitions()
        if not any(
            where != path or not node.lineno <= line <= node.end_lineno
            for where, line in found[name]
        )
    ]
    assert not unused, (
        f"only unit tests use {', '.join(unused)}: move them to tests/oracles.py or delete them"
    )


def package_imports() -> dict:
    """module -> the package modules it imports, anywhere in its source,
    as ``from .m import ...`` or ``from . import m``."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= ({node.module.partition(".")[0]} if node.module
                          else {alias.name for alias in node.names})
        graph[path.stem] = found & modules
    return graph


def import_cycle(graph: dict):
    """A cycle of ``graph`` as the list of its modules, first one repeated
    at the end, or None: a depth-first walk, each module left once done."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for other in sorted(graph[module]):
            cycle = visit(other)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return None


def test_package_modules_import_one_another_without_a_cycle():
    # a cycle imports cleanly from some entry modules and fails from others
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
    graph = package_imports()
    assert "stability" in graph["orbits"] and "symbolic" in graph["stability"]
    cycle = import_cycle(graph)
    assert cycle is None, f"billzeta modules import in a cycle: {' -> '.join(cycle)}"
