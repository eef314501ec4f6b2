"""The package keeps only code that a command or the benchmark runs.

Every module-level function and class of `src/tropnp`, and every method
that is not a dunder, must be read somewhere in `src/` or `perfbench/`
outside its own definition.  A name counts as read where it appears as a
name, as an attribute, or as a string (the benchmark's tracer wraps
functions by their names).  Names matched by identifier alone can only make
this check too lenient, never too strict.
"""

import ast
from pathlib import Path

import tropnp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropnp"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

#: Names that are read from outside the repository's code, one reason each.
ALLOWED = {
    "_ArgumentParser.error": "argparse calls it on a command line that does "
                             "not parse",
}


def _reads(node):
    """Every identifier read in the subtree of node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            yield sub.value


def _definitions(tree):
    """(qualified name, name, node) of the module-level functions and
    classes and of the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item


def unread_names():
    counts = {}
    for path in READERS:
        for name in _reads(ast.parse(path.read_text())):
            counts[name] = counts.get(name, 0) + 1
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, name, node in _definitions(ast.parse(path.read_text())):
            own = sum(1 for n in _reads(node) if n == name)
            if counts.get(name, 0) > own:
                continue
            if name in tropnp.__all__ or qual in ALLOWED:
                continue
            unread.append(f"{path.stem}.{qual}")
    return unread


def test_every_definition_is_read_by_the_program():
    assert unread_names() == []


def test_allowlist_names_real_definitions():
    defined = {qual for path in sorted(PACKAGE.glob("*.py"))
               for qual, _, _ in _definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined
