"""Every function, class and method in ``src/mapgenus`` has a caller in
``src/`` or is an oracle kept on purpose for the tests to compare against,
no module under ``src/`` or ``tests/`` imports a name it never uses, every
function the benchmark tracer patches still exists, every function
allow-listed as a trace target is still one, no two functions in ``src/``
share a body, and no loop sums a polynomial one monomial at a time."""

import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "mapgenus")

# name -> why it stays although nothing in src/ references it
KEPT_UNREFERENCED = {
    "eg_series_from_kappa": "map-count series that pins the calibration constant of e_g",
    "q_c_tables": "conservation-law transport tables and vanishing sums, not yet on the command line",
    "E_w_derivs": "derivative with its three conservation-law cross-checks, not yet on the command line",
    "series_to_ratfn": "u-series reconstruction of z_g, the reference the D-ring solve is compared against;"
    " a benchmark trace target until the tracer is retargeted",
}


def _definitions(tree):
    """Module-level functions, classes and ``X = namedtuple(...)`` record
    types (named by their target), and the non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.Assign) and getattr(getattr(node.value, "func", None), "id", None) == "namedtuple":
            node.name = node.targets[0].id
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


def _unused_imports(scope):
    """(line, name) of each import in this scope whose name nothing in the
    scope reads; a function's imports count as used by nested functions."""
    used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
    out = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            out += _unused_imports(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append((node.lineno, name))
        else:
            stack.extend(ast.iter_child_nodes(node))
    return out


def test_no_unused_imports():
    unused = []
    for folder in (SRC, os.path.join(ROOT, "tests")):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), name)
                unused += ["%s:%d %s" % (name, line, alias) for line, alias in sorted(_unused_imports(tree))]
    assert unused == []


def _trace_targets():
    """span name -> the object each ``perfbench/tracer.py`` target names,
    None where the path does not resolve."""
    # tracer.py imports nothing from mapgenus, so it loads by path alone
    spec = importlib.util.spec_from_file_location("tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    out = {}
    for span, (module, path) in sorted(tracer.TARGETS.items()):
        obj = importlib.import_module("mapgenus." + module)
        for part in path.split("."):
            obj = vars(obj).get(part)
            if obj is None:
                break
        out[span] = obj
    return out


def test_kept_trace_targets_are_traced():
    # an entry kept because the tracer patches it must go once the tracer
    # no longer names it, so the allow-list fails loudly on a retarget
    traced = {obj.__name__ for obj in _trace_targets().values() if callable(obj)}
    kept = [name for name, why in KEPT_UNREFERENCED.items() if "benchmark trace target" in why]
    assert kept and [name for name in kept if name not in traced] == []


def test_every_trace_target_resolves():
    assert [span for span, obj in _trace_targets().items() if not callable(obj)] == []


def test_trace_targets_are_distinct_functions():
    # an alias such as `GradedSeries.__mul__ = Series.__mul__` resolves, but
    # the tracer would wrap the one function twice and split its spans
    spans: dict[int, list[str]] = {}
    for span, obj in _trace_targets().items():
        spans.setdefault(id(obj), []).append(span)
    assert [names for names in spans.values() if len(names) > 1] == []


def _function_bodies():
    """(file:name, AST dump of the body) of every module-level function and
    method with at least two statements after its docstring."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
            for scope in scopes:
                for node in scope.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                        if len(body) >= 2:
                            yield "%s:%s" % (name, node.name), ast.dump(ast.Module(body, []))


def test_no_function_defined_twice():
    # one implementation per algorithm: a copied helper (say a second
    # rescaling to a common denominator) must be imported, not redefined
    seen: dict[str, list[str]] = {}
    for where, body in _function_bodies():
        seen.setdefault(body, []).append(where)
    assert [names for names in seen.values() if len(names) > 1] == []


def _monomial_loop_sums(tree):
    """Line of each statement inside a ``for`` body that rebinds a name to
    that name plus an expression calling ``.monomial(...)``."""
    out = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.For):
            continue
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp):
                    target, left, right = node.targets[0], node.value.left, node.value.right
                    rebinds = isinstance(target, ast.Name) and isinstance(left, ast.Name) and left.id == target.id
                    rebinds = rebinds and isinstance(node.value.op, ast.Add)
                elif isinstance(node, ast.AugAssign):
                    target, right = node.target, node.value
                    rebinds = isinstance(target, ast.Name) and isinstance(node.op, ast.Add)
                else:
                    continue
                calls = [
                    sub for sub in ast.walk(right)
                    if isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "monomial"
                ]
                if rebinds and calls:
                    out.add(node.lineno)
    return out


def test_no_monomial_accumulated_in_a_loop():
    # each `acc = acc + X.monomial(...)` copies and re-normalises the whole
    # polynomial; the Terms constructor and Terms.sum add them in one pass
    sites = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            sites += ["%s:%d" % (name, line) for line in sorted(_monomial_loop_sums(tree))]
    assert sites == []
