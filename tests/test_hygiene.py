"""Source hygiene that a linter would check: every import is used.

Deleting code tends to leave its imports behind.  Each module under
src/hodgenorm must use every name it imports; an import kept on purpose
carries `# noqa: F401` on its line, and the only one is `cli.deligne_split`,
which stays bound in `cli` for the benchmark's tracer to patch.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hodgenorm"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(tree):
    """(name bound, import statement) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node


def unused_imports(path):
    """The names a module imports but never reads, split into those without
    and those with `# noqa: F401` on their import statement."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused, kept = [], []
    for name, node in imports(tree):
        if name not in used:
            noqa = any("noqa: F401" in lines[i - 1]
                       for i in range(node.lineno, node.end_lineno + 1))
            (kept if noqa else unused).append(name)
    return unused, kept


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    unused, _ = unused_imports(path)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def test_the_only_import_kept_on_purpose_is_the_traced_splitting():
    kept = {(path.stem, name) for path in MODULES for name in unused_imports(path)[1]}
    assert kept == {("cli", "deligne_split")}
