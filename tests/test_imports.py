"""The package's import edges: the automaton and the equation systems stand
on the term layer alone, not on the sampler or the reference semantics."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "asprod"


def package_imports(module: str) -> set[str]:
    """The package modules that `module` imports, at any depth of its body;
    the package imports its own modules by relative imports only."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from . import syntax` names the module among the imported names
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [("ppda", {"terms", "syntax"}), ("eqsys", {"graphs", "ppda"})],
)
def test_module_imports_only_its_layer(module, allowed):
    assert package_imports(module) <= allowed
