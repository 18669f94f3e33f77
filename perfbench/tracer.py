"""Run one mapgenus command with spans recorded around the public functions
of each module, from outside the package.

Usage:
    python3 perfbench/tracer.py SPANS_FILE [mapgenus arguments ...]

The command behaves exactly like ``python -m mapgenus [arguments ...]``: same
stdout, same exit code.  Every function named in ``TARGETS`` is replaced by
a timing wrapper in every ``mapgenus`` namespace that holds it, module
globals (``from .exact_kernel import series_to_ratfn``) and class
attributes (``__rmul__ = __mul__``) alike, so no call site escapes.  Spans
stay in memory and are written to SPANS_FILE as JSON when the command ends:
one ``[name, start, end, parent, attrs]`` list per call, ``parent`` being
the index of the enclosing span or -1.

This file imports nothing from mapgenus at module level, so ``run.py`` can
read ``TARGETS`` without the package on its path.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# span name -> (module, attribute path).  The span name is the per-layer
# metric prefix; the module is the layer.
TARGETS = {
    "cli.dispatch": ("cli", "dispatch"),
    "cli.render": ("cli", "render"),
    "cli.cache": ("cli", "cache_lookup_or_compute"),
    "fatgraph_oracle.kappa_tally": ("fatgraph_oracle", "kappa_tally"),
    "exact_kernel.graded_mul": ("exact_kernel", "GradedSeries.__mul__"),
    "exact_kernel.series_mul": ("exact_kernel", "Series.__mul__"),
    "exact_kernel.series_div": ("exact_kernel", "Series.__truediv__"),
    "exact_kernel.poly_mul": ("exact_kernel", "Poly.__mul__"),
    "exact_kernel.ratfn_init": ("exact_kernel", "RatFn.__init__"),
    "exact_kernel.poly_gcd": ("exact_kernel", "poly_gcd"),
    "exact_kernel.poly_divmod": ("exact_kernel", "Poly.divmod"),
    "exact_kernel.series_to_ratfn": ("exact_kernel", "series_to_ratfn"),
    "exact_kernel.solve_linear": ("exact_kernel", "solve_linear"),
    "exact_kernel.ratfn_to_series": ("exact_kernel", "ratfn_to_series"),
    "continuum_even.solve_zg": ("continuum_even", "solve_zg"),
    "continuum_even.expand_lattice_polynomial": ("continuum_even", "expand_lattice_polynomial"),
    "continuum_even.verify_continuum_toda": ("continuum_even", "verify_continuum_toda"),
    "genus_even.solve_eg": ("genus_even", "solve_eg"),
    "genus_even.hirota_rhs": ("genus_even", "hirota_rhs"),
    "genus_even.E_w_derivs": ("genus_even", "E_w_derivs"),
    "genus_even.verify_genus_structure": ("genus_even", "verify_genus_structure"),
    "lattice_oracle.recurrence_table": ("lattice_oracle", "recurrence_table"),
    "lattice_oracle.biseries_mul": ("lattice_oracle", "BiSeries.__mul__"),
    "lattice_oracle.biseries_div": ("lattice_oracle", "BiSeries.__truediv__"),
    "lattice_oracle.verify_lattice_equations": ("lattice_oracle", "verify_lattice_equations"),
    "lattice_oracle.verify_hirota": ("lattice_oracle", "verify_hirota"),
    "lattice_oracle.asymptotic_match": ("lattice_oracle", "asymptotic_match"),
    "combinatorics.operator_power_entry": ("combinatorics", "operator_power_entry"),
    "combinatorics.lattice_equation_exprs": ("combinatorics", "lattice_equation_exprs"),
    "continuum_odd.verify_odd_identities": ("continuum_odd", "verify_odd_identities"),
    "continuum_odd.solve_leading_odd": ("continuum_odd", "solve_leading_odd"),
    "continuum_odd.trivalent_checks": ("continuum_odd", "trivalent_checks"),
}

# The cache producer runs as its own span under this name, so that the
# cache span's self time is the lookup and store alone and the producer's
# untraced work is charged to the command glue.
PRODUCER_SPAN = "cli.dispatch"


def _coeff_bits(ratfn) -> int:
    coeffs = ratfn.num.c + ratfn.den_base.c
    return max((max(q.numerator.bit_length(), q.denominator.bit_length()) for q in coeffs), default=0)


class Recorder:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]

    def wrap(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if name == "cli.cache":
                bound = signature.bind(*args, **kwargs)
                produced = []
                producer = bound.arguments["producer"]
                bound.arguments["producer"] = self.wrap(PRODUCER_SPAN, lambda: produced.append(1) or producer())
                args, kwargs = bound.args, bound.kwargs
                stores = bool(bound.arguments["cache_dir"]) and not bound.arguments.get("no_cache")
            elif name == "fatgraph_oracle.kappa_tally":
                bound = signature.bind(*args, **kwargs).arguments
                attrs = {"j": bound["j"], "m": bound["m"]}
            elif name == "exact_kernel.solve_linear":
                rows = signature.bind(*args, **kwargs).arguments["rows"]
                attrs = {"cells": len(rows) * (len(rows[0]) if rows else 0)}
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1], attrs]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if name == "cli.cache":
                span[4] = {"outcome": ("store" if stores else "bypass") if produced else "hit"}
            elif name == "exact_kernel.series_to_ratfn":
                span[4] = {"bits": _coeff_bits(out)}
            return out

        return traced

    def install(self):
        """Patch every target in every mapgenus namespace that holds it."""
        for module, _ in TARGETS.values():
            importlib.import_module("mapgenus." + module)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mapgenus" or n.startswith("mapgenus.")]
        owners = list(modules)
        for m in modules:
            for value in vars(m).values():
                if isinstance(value, type) and value.__module__.startswith("mapgenus") and value not in owners:
                    owners.append(value)
        for name, (module, path) in TARGETS.items():
            obj = importlib.import_module("mapgenus." + module)
            for part in path.split("."):
                obj = vars(obj)[part]
            traced = self.wrap(name, obj)
            patched = 0
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is obj:
                        setattr(owner, attr, traced)
                        patched += 1
            if not patched:
                raise RuntimeError("trace target %s.%s not found" % (module, path))

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def main(argv) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from mapgenus import cli

    try:
        return cli.dispatch(cli_args)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
