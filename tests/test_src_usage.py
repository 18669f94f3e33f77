"""Every function, class and method in ``src/mapgenus`` has a caller in
``src/`` or is an oracle kept on purpose for the tests to compare against,
and every module-level function and method (dunders and properties
included) runs under some command or is allow-listed with the consumer
that keeps it.  The first gate matches names, so it also covers classes
and ``namedtuple`` record types; the second profiles a list of command
lines through ``cli.dispatch`` in a fresh interpreter and compares the
functions that never ran, class by class, with ``REACHED_BY_NO_COMMAND``.
No module under ``src/`` or ``tests/`` imports a name it never uses, every
function the benchmark tracer patches still exists, every function
allow-listed as a trace target is still one, no two functions in ``src/``
share a body, and no loop sums a polynomial one monomial at a time."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

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


# One command line per command and per path through ``cli.dispatch``: a
# help page, a usage error, a cache store and its warm hit rendered as CSV,
# and a text render.  ``{cache}`` is a fresh cache directory.
JOBS = [
    "--help",
    "zg --nu",
    "--cache-dir {cache} zg --nu 2 --g 2",
    "--format csv --cache-dir {cache} zg --nu 2 --g 2",
    "--format text --no-cache z0 --nu 2 --order 4",
    "--no-cache eg --nu 2 --g 0",
    "--no-cache eg --nu 2 --g 1",
    "--no-cache eg --nu 2 --g 3",
    "--no-cache maps --valence 3 --vertices 2",
    "--no-cache verify lattice --nu 2 --nmax 5 --torder 3 --with-t1",
    "--no-cache verify odd --nu 1 --order 4",
    "--no-cache trivalent --mmax 4",
    "--no-cache verify continuum --nu 2 --g 2",
    "--no-cache report --nu 2",
]

# module.function or module.Class.method -> the consumer that keeps it
# although no command line runs it: a ROADMAP item, the test that pins it,
# or the failure path that reaches it
REACHED_BY_NO_COMMAND = {
    "conservation.planar_lift_deriv_formula": "ROADMAP item 7 (verify conservation): the planar-jet cross-check of E_w_derivs",
    "conservation.q_table": "ROADMAP item 7 (verify conservation): the transport table Q",
    "conservation.c_table": "ROADMAP item 7 (verify conservation): the transport table c",
    "conservation.vanishing_sums": "ROADMAP item 7 (verify conservation): the sums that force the minimal pole order",
    "conservation.q_c_tables": "ROADMAP item 7 (verify conservation): the tables and their vanishing sums",
    "conservation.resummed_via_tables": "ROADMAP item 7 (verify conservation): the coefficient-table rebuild",
    "genus_even.E_w_derivs": "ROADMAP item 7 (verify conservation): the graded chain and its three cross-checks;"
    " a benchmark trace target",
    "exact_kernel.poly_gcd": "ROADMAP item 9: the non-linear-base branch of RatFn.__init__; a benchmark trace target",
    "exact_kernel.Poly.divmod": "ROADMAP item 9: RatFn.__init__ cancels powers of a base it divides;"
    " a benchmark trace target",
    "exact_kernel.Poly.__floordiv__": "ROADMAP item 9: the non-linear-base branch of RatFn.__init__",
    "exact_kernel.Poly.__mod__": "ROADMAP item 9: poly_gcd's Euclidean step",
    "exact_kernel.Poly.monic": "ROADMAP item 9: poly_gcd and the non-linear-base branch of RatFn.__init__",
    "exact_kernel.series_to_ratfn": "ROADMAP item 9: the u-series reconstruction that the ring solve is compared"
    " against; a benchmark trace target",
    "exact_kernel._Basis.to_y": "ROADMAP item 9: series_to_ratfn's forward substitution",
    "fatgraph_oracle.eg_series_from_kappa": "ROADMAP item 5: the map-count e_g series",
    "cli.main": "the process entry point behind python -m mapgenus and the console script;"
    " test_process_exit_and_streams_match_dispatch runs it",
    "lattice_oracle._first_nonzero": "failure path: the residual that a failing lattice check reports",
    "lattice_oracle.BiSeries.d": "failure path: _first_nonzero reads the residual's coefficients",
    "exact_kernel.Series.__repr__": "failure path: catalan_data prints a planar residual that does not vanish",
    "lattice_oracle.BiSeries.__repr__": "test_tables_are_pinned hashes the tables' repr",
    "combinatorics.LatticePolynomial._key_mul": "test_tetravalent_difference_string_combination and its neighbours"
    " build the expected lattice equations as products",
    "exact_kernel.Poly.__eq__": "test_poly_basics and the RatFn tests compare polynomials;"
    " without it == would be identity",
    "exact_kernel.GradedSeries.__eq__": "test_unreduced_representations_compare_equal: without it =="
    " would be Series equality, blind to the weight",
    "lattice_oracle.BiSeries.__eq__": "test_biseries_canonical_form and the table tests compare series;"
    " without it == would be identity",
}

# Runs the command lines given as a JSON list of argv lists through
# cli.dispatch under a profile hook, and prints the source directory of the
# imported package and the module.qualname of every function of it that ran.
PROFILE = """
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout

from mapgenus import cli

codes = set()


def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)


sys.setprofile(hook)
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli.dispatch(argv)
sys.setprofile(None)
src = os.path.dirname(os.path.abspath(cli.__file__))
ran = [os.path.basename(c.co_filename)[:-3] + "." + c.co_qualname for c in codes if os.path.dirname(c.co_filename) == src]
print(json.dumps([src, sorted(ran)]))
"""


def _functions_and_methods():
    """(file, qualified name, node) of every module-level function and
    every method, dunders and properties included."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            scopes = [(tree, "")] + [(node, node.name + ".") for node in tree.body if isinstance(node, ast.ClassDef)]
            for scope, prefix in scopes:
                for node in scope.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield name, prefix + node.name, node


def _unreached(jobs, cache_dir) -> set[str]:
    """module.qualname of each function of ``_functions_and_methods`` that
    no job runs, each job a command line through ``cli.dispatch`` in one
    fresh interpreter, so that no cache another test warmed can stand in
    for a call."""
    argv = [job.format(cache=cache_dir).split() for job in jobs]
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE, json.dumps(argv)], capture_output=True, text=True, check=True
    )
    src, ran = json.loads(proc.stdout)
    assert src == SRC
    return {name[:-3] + "." + qualname for name, qualname, _ in _functions_and_methods()} - set(ran)


def test_every_function_runs_under_a_command(tmp_path):
    assert _unreached(JOBS, str(tmp_path)) == set(REACHED_BY_NO_COMMAND)
    consumer = re.compile(r"ROADMAP item \d+|\btest_\w+|failure path|entry point")
    assert [name for name, why in REACHED_BY_NO_COMMAND.items() if not consumer.search(why)] == []


@pytest.mark.slow
def test_the_pinned_jobs_run_nothing_the_gate_jobs_miss(tmp_path):
    # every perfbench/digests.json and CLOSED_FORM_DIGESTS job together
    # with JOBS leaves exactly what JOBS alone leaves unreached
    from test_cli import CLOSED_FORM_DIGESTS

    with open(os.path.join(ROOT, "perfbench", "digests.json")) as fh:
        pinned = sorted(json.load(fh)) + sorted(CLOSED_FORM_DIGESTS)
    jobs = JOBS + ["--no-cache " + command for command in pinned]
    assert _unreached(jobs, str(tmp_path)) == set(REACHED_BY_NO_COMMAND)


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
    for name, _, node in _functions_and_methods():
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
