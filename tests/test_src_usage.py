"""Every function, class and method in ``src/mapgenus`` has a caller in
``src/`` or is an oracle kept on purpose for the tests to compare against."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mapgenus")

# name -> why it stays although nothing in src/ references it
KEPT_UNREFERENCED = {
    "genus_tally": "brute-force walk over all matchings, ground truth for the Tutte recursion",
    "eg_series_from_kappa": "map-count series that pins the calibration constant of e_g",
    "q_c_tables": "conservation-law transport tables and vanishing sums, not yet on the command line",
    "E_w_derivs": "derivative with its three conservation-law cross-checks, not yet on the command line",
}


def _definitions(tree):
    """Module-level functions and classes, and the non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    yield item


def _references(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def unreferenced_names() -> set[str]:
    trees = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees.append(ast.parse(fh.read(), name))
    counts: dict[str, int] = {}
    for tree in trees:
        for ref in _references(tree):
            counts[ref] = counts.get(ref, 0) + 1
    out = set()
    for tree in trees:
        for node in _definitions(tree):
            # a definition's references to itself (recursion) are no caller
            inside = sum(ref == node.name for ref in _references(node))
            if counts.get(node.name, 0) == inside:
                out.add(node.name)
    return out


def test_no_test_only_code_in_src():
    assert unreferenced_names() == set(KEPT_UNREFERENCED)
