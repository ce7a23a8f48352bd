"""Every public name has a caller outside the tests."""

import ast
from pathlib import Path

import ruled_lattice

PACKAGE = Path(ruled_lattice.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _code_names(path: Path) -> set[str]:
    """The names ``path`` uses in its code: every bare name and attribute,
    but not strings, imports or the body of a definition of the same name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used: set[str] = set()

    def visit(node, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Assign):
            inside = inside | {t.id for t in node.targets if isinstance(t, ast.Name)}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_exported_name_has_a_caller_outside_the_tests():
    used = set()
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]:
        used |= _code_names(path)
    exported = set(ruled_lattice.__all__) - {"__version__"}
    missing = sorted(exported - used)
    assert not missing, f"only the tests call {missing}"
