"""Source hygiene that a linter would check: every import is used, every
function in the package has a caller outside the tests, and no handler
catches defects wholesale.  Also the count of code lines that
`tools/code_lines.py` reports.

Deleting code tends to leave its imports behind.  Each module under
src/hodgenorm must use every name it imports; an import kept on purpose
carries `# noqa: F401` on its line, and the only one is `cli.deligne_split`,
which stays bound in `cli` for the benchmark's tracer to patch.

Code that only tests call belongs in the tests or nowhere, so every
module-level function and class and every non-dunder method in the package
must be reached from code that runs without a test: the package's
module-level code, tools/ and perfbench/, and the two paper-facing
fixtures that the acceptance test reads.  Reaching is followed through
chains, so a helper that only a test-only definition calls, or a class
that only it builds, is found too.
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


# The paper-facing fixtures that only tests/test_acceptance.py reads: the
# defective inputs it must refuse and the weight-one orbit it evaluates.
# They are roots of the liveness below, like the code that runs untested.
PAPER_FACING = {("fixtures", "defective_inputs"), ("fixtures", "orbit_weight_one")}


def definitions(paths):
    """(module, name, kind, code) for every module-level function and class
    and every non-dunder method, named `Class.method`, in the modules at
    `paths`.  kind is "function", "class", "method" or "property"; code
    holds the nodes that run once the definition is in use: a function
    whole, or a class's bases, decorators, class-level statements and
    dunder methods (its other methods are definitions of their own)."""
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node.name, "function", [node]
            elif isinstance(node, ast.ClassDef):
                own = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        read = any(isinstance(d, ast.Name) and d.id.endswith("property")
                                   for d in item.decorator_list)
                        yield (path.stem, f"{node.name}.{item.name}",
                               "property" if read else "method", [item])
                    else:
                        own.append(item)
                yield path.stem, node.name, "class", own


def dead_definitions(package, scripts, roots):
    """`module.name` of every definition in the `package` modules that no
    root reaches, as a fixpoint.  The roots are the package's module-level
    code outside its definitions, the whole of each script, and the
    definitions named in `roots`; each definition that live code uses
    becomes live, and its own code with it.

    Live code uses a function or class when it reads its name or an
    attribute of that name, a method when it calls that attribute (a
    property: reads it) and the method's class is live, so that an
    unrelated attribute of the same name, such as an option on a parsed
    command line, is not mistaken for it.  The benchmark's tracer names its
    targets in strings, so a string equal to a definition's name uses it.
    """
    names, attrs, calls, strings = set(), set(), set(), set()

    def see(nodes):
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                calls.add(node.func.attr)

    def used(module, name, kind):
        cls, _, method = name.rpartition(".")
        if name in strings:
            return True
        if not cls:
            return name in names or name in attrs
        return (module, cls) in live and method in (attrs if kind == "property" else calls)

    for path in package:
        see(node for node in ast.parse(path.read_text(encoding="utf-8")).body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    see(ast.parse(path.read_text(encoding="utf-8")) for path in scripts)
    pending, live = list(definitions(package)), set()
    while True:
        reached = [d for d in pending if d[:2] in roots or used(*d[:3])]
        if not reached:
            return sorted(f"{module}.{name}" for module, name, _, _ in pending)
        for d in reached:
            pending.remove(d)
            live.add(d[:2])
            see(d[3])


def test_every_function_has_a_caller_outside_the_tests():
    scripts = [path for top in ("tools", "perfbench") for path in (ROOT / top).rglob("*.py")]
    dead = dead_definitions(MODULES, scripts, PAPER_FACING)
    assert not dead, f"only tests reach {dead}"


CHAINED = """\
class Report:
    def __bool__(self):
        return helper()

    def verdict(self):
        return True


def helper():
    return True


def only_tested():
    return Report().verdict()


class Box:
    @property
    def size(self):
        return 1

    def grow(self):
        return 2


Box().grow()
"""


def test_a_chain_that_only_a_test_reaches_is_found(tmp_path):
    # helper is called only by Report, which only only_tested builds, and no
    # root reaches only_tested; allowlisting only_tested makes the chain live
    path = tmp_path / "chained.py"
    path.write_text(CHAINED)
    assert dead_definitions([path], [], set()) == [
        "chained.Box.size", "chained.Report", "chained.Report.verdict",
        "chained.helper", "chained.only_tested"]
    assert dead_definitions([path], [], {("chained", "only_tested")}) == ["chained.Box.size"]


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
