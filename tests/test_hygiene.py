"""Source hygiene that a linter would check: every import is used, every
function in the package has a caller outside the tests, and no handler
catches defects wholesale.  Also the count of code lines that
`tools/code_lines.py` reports.

Deleting code tends to leave its imports behind.  Each module under
src/hodgenorm must use every name it imports; an import kept on purpose
carries `# noqa: F401` on its line, and the only one is `cli.deligne_split`,
which stays bound in `cli` for the benchmark's tracer to patch.

Code that only tests call belongs in the tests or nowhere, so every
module-level function and every non-dunder method in the package must be
referenced from src/, tools/ or perfbench/, bar the paper-facing names that
the tests pin.
"""

import ast
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodgenorm"
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


# A refusal of input is a FixtureError, so a handler that catches one of these
# (or a bare except) would also swallow a code defect such as a ZeroDivisionError.
BROAD = {"ArithmeticError", "Exception", "BaseException"}


def broad_handlers(path):
    """The line of every bare except clause, and of every one that names a
    class in BROAD, in the module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or BROAD & {ast.unparse(c) for c in caught}:
                yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_handler_is_bare_or_catches_a_broad_class(path):
    lines = sorted(broad_handlers(path))
    assert not lines, f"{path.name} catches defects wholesale at lines {lines}"


def test_a_broad_handler_is_found_and_a_narrow_one_is_not(tmp_path):
    path = tmp_path / "handlers.py"
    path.write_text("try:\n    pass\nexcept ZeroDivisionError:\n    pass\n"
                    "try:\n    pass\nexcept (ValueError, ArithmeticError):\n    pass\n"
                    "try:\n    pass\nexcept:\n    pass\n")
    assert sorted(broad_handlers(path)) == [7, 11]


# Paper-facing functions with no caller in the package, pinned by the tests:
# the limit norm and its fiber, cone rescaling and term pairings of the orbit
# theorems, the functorially predicted splitting, the named spans of the
# symmetry algebra, the worked degenerations the acceptance criteria run,
# and the weight-filtration oracle.
PAPER_FACING = {
    ("orbit", "limit_norm"), ("orbit", "fiber_test"), ("orbit", "rescale_cone"),
    ("orbit", "term_pairing"), ("induced", "InducedStructure.predicted_split"),
    ("lie", "LieSplit.s_f"), ("lie", "LieSplit.s_f_perp"), ("lie", "LieSplit.s_w"),
    ("lie", "LieSplit.m_x"), ("mhs", "check_symmetries"),
    ("fixtures", "defective_inputs"), ("fixtures", "weight_three_line"),
    ("fixtures", "orbit_weight_one"), ("filtrations", "weight_axioms_hold"),
}


def definitions():
    """(module, name, is_property) for every module-level function and every
    non-dunder method, named `Class.method`, in the package."""
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node.name, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        read = any(isinstance(d, ast.Name) and d.id.endswith("property")
                                   for d in item.decorator_list)
                        yield path.stem, f"{node.name}.{item.name}", read


def references():
    """Names read, attributes read, attributes called and string constants
    in src/, tools/ and perfbench/.  A method counts as used when it is
    called (a property: read), so that an unrelated attribute of the same
    name, such as an option on a parsed command line, is not mistaken for it."""
    names, attrs, calls, strings = set(), set(), set(), set()
    for top in ("src", "tools", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    strings.add(node.value)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    calls.add(node.func.attr)
    return names, attrs, calls, strings


def test_every_function_has_a_caller_outside_the_tests():
    names, attrs, calls, strings = references()
    unused = []
    for module, name, read in definitions():
        if (module, name) in PAPER_FACING or name in strings:
            continue  # the benchmark's tracer names its targets in strings
        cls, _, method = name.rpartition(".")
        used = (method in (attrs if read else calls)) if cls else \
            (name in names or name in attrs)
        if not used:
            unused.append(f"{module}.{name}")
    assert not unused, f"only tests call {unused}"


# two docstrings, a comment-only line, blank lines and a trailing comment;
# a multi-line string that is not a docstring counts in full
SNIPPET = '''\
"""A module docstring
over two lines."""

import os  # a trailing comment leaves a code line

# a comment-only line


class Box:
    """A class docstring."""

    def size(self):
        """A function
        docstring."""
        text = """a string that
is not a docstring"""
        return len(text) + len(os.sep)
'''


def test_code_lines_counts_neither_blanks_nor_comments_nor_docstrings():
    tool = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))
    assert tool["code_lines"](SNIPPET) == 6
