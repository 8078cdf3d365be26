"""The package's public surface is what the program uses.

Every public top-level function and class in src/adequa must be used by
the package, its scripts or the benchmark; a name only the tests call is
dead weight.  The package also relies on no `assert`, which `python -O`
strips.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "adequa")
USERS = ("src", "scripts", "perfbench")


def python_files(top):
    for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def referenced_names(node):
    """Names, attributes and identifier-shaped strings used under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found.add(sub.value)
    return found


def public_definitions():
    """(module file, name) of each public top-level function and class."""
    for path in python_files(os.path.join("src", "adequa")):
        for stmt in parse(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                yield path, stmt.name


def uses():
    """Every name referenced in the using trees, each top-level statement
    apart: a definition's own body does not count as a use of its name."""
    used = set()
    for top in USERS:
        for path in python_files(top):
            for stmt in parse(path).body:
                names = referenced_names(stmt)
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    names.discard(stmt.name)
                used |= names
    return used


def test_every_public_name_has_a_caller():
    used = uses()
    unused = sorted(
        "%s.%s" % (os.path.basename(path)[:-3], name)
        for path, name in public_definitions()
        if name not in used
    )
    assert unused == []


def test_no_assert_in_package():
    found = [
        "%s:%d" % (os.path.basename(path), node.lineno)
        for path in python_files(os.path.join("src", "adequa"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
