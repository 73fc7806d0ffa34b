"""Every function and class in src/convrec has a caller outside the tests.

The scan reads src/convrec, perfbench and scripts. A definition counts as
used when its name appears as a Name or an Attribute anywhere in those files
outside its own body. Import lines, `__all__` strings and the package's
re-exports are not uses. Dunder methods are called by the language, so they
are not checked.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "convrec"

# Kept for the paper's history-masking analysis (ROADMAP open item 2), which
# has no caller outside the tests yet.
ALLOWED = {"mask_history_items"}


def _names(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _unreferenced() -> set[str]:
    files = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    unused = set()
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if uses[node.name] - _names(node)[node.name] <= 0:
                unused.add(node.name)
    return unused


def test_every_definition_has_a_caller_outside_the_tests():
    unused = _unreferenced() - ALLOWED
    assert not unused, f"called only from the tests, or not at all: {sorted(unused)}"


def test_allowlisted_names_are_still_unreferenced():
    # once the masking analysis calls it, the exception must go
    assert _unreferenced() >= ALLOWED
