"""Command-line surface: reproducible runs of every pipeline with a plain
file cache.

Primary output is a single canonical JSON document on stdout (sorted keys,
no timestamps), so identical invocations are byte-identical; CSV and text
are lossy convenience views.  Exit codes: 0 success, 1 a machine-checked
identity failed, 2 usage error, 3 reconstruction or resonance failure.

Each payload builder imports the engine modules it uses, so a command
loads only what it runs and a cache hit loads no engine module.  The cache
digests with the BLAKE2b built into CPython, so no cached run loads
``hashlib`` and OpenSSL, and it imports ``tempfile`` only to store.  Only
the commands that argv names get a parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .errors import (
    EngineError,
    InsufficientData,
    NoMatchingExists,
    ReconstructionFailed,
    RejectedInput,
    ResonanceFailure,
    SizeLimit,
    VerificationFailure,
    status_of,
)

CACHE_ENV = "MAPGENUS_CACHE_DIR"


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _blake2b(digest_size: int, data: bytes = b""):
    """A BLAKE2b hasher from the module built into CPython, which, unlike
    ``hashlib``, does not load OpenSSL."""
    try:
        from _blake2 import blake2b
    except ImportError:  # _blake2 is CPython's; hashlib.blake2b gives the same digests
        from hashlib import blake2b
    return blake2b(data, digest_size=digest_size)


@functools.cache
def source_digest() -> str:
    """256-bit BLAKE2b over the names and bytes of the package's own
    ``.py`` files."""
    h = _blake2b(32)
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(b"%s\0%s\0" % (name.encode(), fh.read()))
    return h.hexdigest()


def cache_lookup_or_compute(cache_dir: str | None, key: str, producer, no_cache=False):
    """Serve the payload for a canonical key from the plain-file cache, or
    compute and store it.

    The stored key carries the engine version and the digest of the
    package sources, so an entry never outlives the code that computed it.
    Entries are single JSON files named by a 128-bit BLAKE2b of the key;
    writes go through a temp file and rename so readers never see partial
    entries.  An entry that is not a JSON object holding this key and an
    object payload is recomputed and overwritten with a warning; an
    unwritable cache directory degrades to compute-only with a warning."""
    if no_cache or not cache_dir:
        return producer()
    full_key = "%s | engine %s | source %s" % (key, __version__, source_digest())
    name = _blake2b(16, full_key.encode()).hexdigest() + ".json"
    path = os.path.join(cache_dir, name)
    if os.path.exists(path):
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (ValueError, OSError):
            entry = None
        if isinstance(entry, dict) and entry.get("key") == full_key and isinstance(entry.get("payload"), dict):
            return entry["payload"]
        print("corrupt cache entry %s; recomputing" % name, file=sys.stderr)
    payload = producer()
    entry = {
        "key": full_key,
        "engine_version": __version__,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "payload": payload,
    }
    import tempfile

    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError as exc:
        print("cache not writable (%s); skipping store" % exc, file=sys.stderr)
    return payload


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------


def payload_z0(nu: int, order: int) -> dict:
    from . import continuum_even
    from .exact_kernel import qstr, series_to_json

    data = continuum_even.catalan_data(nu, order)
    return {
        "nu": nu,
        "order": order,
        "c": qstr(data.c),
        "zetas": [qstr(z) for z in data.zetas],
        "series": series_to_json(data.z0),
    }


def payload_zg(nu: int, g: int, order: int | None) -> dict:
    from . import continuum_even
    from .exact_kernel import qstr, ratfn_to_json, series_to_json

    if g < 0:
        raise RejectedInput("genus must be >= 0")
    T = order if order is not None else max(3 * g + 12, 16)
    table = continuum_even.build_ztable(nu, g, T=T)
    entry = table.entries[g]
    return {
        "nu": nu,
        "g": g,
        "ratfn": ratfn_to_json(entry.ratfn),
        "series": series_to_json(entry.series),
        "laurent_over_z0": [qstr(a) for a in entry.laurent],
        "pole_order": entry.ratfn.den_pow,
    }


def payload_eg(nu: int, g: int, order: int | None) -> dict:
    from . import continuum_even, genus_even
    from .exact_kernel import qstr, ratfn_to_json, series_to_json

    if g < 0:
        raise RejectedInput("genus must be >= 0")
    if g < 2:
        T = order if order is not None else 16
        etable = genus_even.ETable(nu, continuum_even.ZTable(nu, T))
        lr = etable.logrational(g)
        return {
            "nu": nu,
            "g": g,
            "closed_form": {
                "rational": ratfn_to_json(lr.rat.to_ratfn()),
                "log_z0": qstr(lr.c0),
                "log_base": qstr(lr.c1),
            },
            "series": series_to_json(etable.series(g)),
        }
    etable = genus_even.build_etable(nu, g, T=order)
    entry = etable.entries[g]
    summary = genus_even.verify_genus_structure(nu, g, etable.ztable, etable)
    return {
        "nu": nu,
        "g": g,
        "ratfn": ratfn_to_json(entry.ratfn),
        "series": series_to_json(entry.series),
        "laurent": [qstr(a) for a in entry.laurent],
        "r": entry.r_factor,
        "pole_order": entry.ratfn.den_pow,
        "constant_term": qstr(entry.laurent[0]),
        "resonant_orders": list(entry.resonant_orders),
        "verification": summary,
    }


def payload_maps(valence: int, vertices: int, genus: int | None) -> dict:
    from . import fatgraph_oracle

    if genus is not None and genus < 0:
        raise RejectedInput("--genus must be >= 0")
    counts = fatgraph_oracle.kappa_counts(valence, vertices)
    if genus is not None:
        return {str(genus): counts.get(genus, 0)}
    return {str(g): c for g, c in sorted(counts.items())}


def payload_verify_lattice(nu: int, nmax: int, torder: int, with_t1: bool) -> dict:
    from fractions import Fraction

    from .lattice_oracle import WeightSpec, recurrence_table, verify_hirota, verify_lattice_equations

    if nmax < 1:
        raise RejectedInput("--nmax must be >= 1")
    g_s = Fraction(1, nmax)
    spec = WeightSpec(nu=nu, g_s=g_s, include_t1=with_t1)
    table = recurrence_table(spec, n_max=nmax + nu + 1, T=torder)
    reports = [
        verify_lattice_equations(table, "string"),
        verify_lattice_equations(table, "toda"),
        verify_hirota(table),
    ]
    if with_t1:
        reports.append(verify_lattice_equations(table, "toda_t1"))
    identities = [
        {
            "equation": r["equation"],
            "tag": r["equation"],
            "n": [s["n"] for s in r["sites"]],
            "status": r["status"],
            "first_failure": None,
        }
        for r in reports
    ]
    return {
        "nu": nu,
        "n_max": nmax,
        "t_order": torder,
        "with_t1": with_t1,
        "identities": identities,
        "status": status_of(identities),
    }


def payload_verify_continuum(nu: int, g: int, order: int | None) -> dict:
    from . import continuum_even

    if g < 0:
        raise RejectedInput("genus must be >= 0")
    T = order if order is not None else max(3 * g + 12, 16)
    reports = [
        continuum_even.verify_string_functional(nu, max(T, 20)),
        continuum_even.verify_burgers(nu, max(T, 10)),
    ]
    ztable = continuum_even.build_ztable(nu, g, T=T)
    for gg in range(1, g + 1):
        reports.append(continuum_even.verify_string_antiderivative(nu, gg))
        reports.append(continuum_even.verify_continuum_toda(nu, gg, ztable))
    identities = [{"tag": r["identity"], "status": r["status"]} for r in reports]
    return {"nu": nu, "g": g, "identities": identities, "status": status_of(identities)}


def payload_verify_odd(nu: int, order: int) -> dict:
    from . import continuum_odd

    coefficients = continuum_odd.verify_odd_identities(nu)
    pair = continuum_odd.solve_leading_odd(nu, order)
    identities = [
        {"tag": "coefficient_identities", "status": coefficients["status"]},
        {"tag": "leading_pair_residuals", "status": pair.residuals["status"]},
    ]
    return {"nu": nu, "order": order, "identities": identities, "status": status_of(identities)}


def payload_trivalent(mmax: int) -> dict:
    from . import continuum_odd

    return continuum_odd.trivalent_checks(T=max(4, mmax // 2 + 2), m_max=mmax)


def payload_report(nu: int) -> dict:
    """One standard verification sweep: every identity tag with its status."""
    from . import fatgraph_oracle
    from .lattice_oracle import asymptotic_match

    out = []
    out.extend(payload_verify_lattice(nu, 6, 4, True)["identities"])
    out.extend(payload_verify_continuum(nu, 2, None)["identities"])
    out.extend(payload_verify_odd(max(nu - 1, 1), 8)["identities"])
    tri = payload_trivalent(4)
    out.append({"tag": tri["identity"], "status": tri["status"]})
    match = asymptotic_match(nu, 1, [4, 6, 8, 10], 3)
    out.append({"tag": match["equation"], "status": match["status"]})
    counts = fatgraph_oracle.kappa_counts(4, 2)
    out.append(
        {
            "tag": "matching_tally",
            "status": "pass" if sum(counts.values()) == 96 else "fail",
        }
    )
    return {"nu": nu, "identities": out, "status": status_of(out)}


# ---------------------------------------------------------------------------
# rendering and dispatch
# ---------------------------------------------------------------------------


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten("%s.%s" % (prefix, k) if prefix else str(k), obj[k], rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten("%s[%d]" % (prefix, i), v, rows)
    else:
        rows.append((prefix, obj))


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True) + "\n"
    rows = []
    _flatten("", payload, rows)
    if fmt == "csv":
        return "".join("%s,%s\n" % (k, v) for k, v in rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "".join("%-*s  %s\n" % (width, k, v) for k, v in rows)


def _named(commands, argv) -> tuple:
    """The commands that argv names, or all of them when it names none or
    asks for help.  argparse dispatches only to a command whose name it
    reads from argv, so the others need no parser.  A help page, and the
    "invalid choice" error of an argv that names no command, list every
    command."""
    named = tuple(c for c in commands if c in argv)
    if not named or any(a.startswith(("-h", "--h")) for a in argv):
        return commands
    return named


def build_parser(argv=()) -> argparse.ArgumentParser:
    """Each command's parser sets ``run``, its payload builder (called with
    the command's options as keywords), and ``cached``, whether its
    documents go through the result cache.  Only the commands that argv
    names get a parser (``_named``)."""
    named = _named(("z0", "zg", "eg", "maps", "verify", "trivalent", "report"), argv)
    parser = argparse.ArgumentParser(
        prog="mapgenus",
        description="exact genus expansions and map enumeration on surfaces",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV))
    parser.add_argument("--no-cache", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    if "z0" in named:
        p = sub.add_parser("z0", help="planar generating function")
        p.set_defaults(run=payload_z0, cached=True)
        p.add_argument("--nu", type=int, required=True)
        p.add_argument("--order", type=int, default=16)

    if "zg" in named:
        p = sub.add_parser("zg", help="two-leg generating function at genus g")
        p.set_defaults(run=payload_zg, cached=True)
        p.add_argument("--nu", type=int, required=True)
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--order", type=int)

    if "eg" in named:
        p = sub.add_parser("eg", help="free-energy coefficient at genus g")
        p.set_defaults(run=payload_eg, cached=True)
        p.add_argument("--nu", type=int, required=True)
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--series-order", type=int, dest="order")

    if "maps" in named:
        p = sub.add_parser("maps", help="labelled regular map counts by genus")
        p.set_defaults(run=payload_maps, cached=True)
        p.add_argument("--valence", type=int, required=True)
        p.add_argument("--vertices", type=int, required=True)
        p.add_argument("--genus", type=int)

    if "verify" in named:
        v = sub.add_parser("verify", help="machine verification of the identities")
        vsub = v.add_subparsers(dest="what", required=True)
        vnamed = _named(("lattice", "continuum", "odd"), argv)
        if "lattice" in vnamed:
            p = vsub.add_parser("lattice")
            p.set_defaults(run=payload_verify_lattice, cached=False)
            p.add_argument("--nu", type=int, required=True)
            p.add_argument("--nmax", type=int, default=6)
            p.add_argument("--torder", type=int, default=4)
            p.add_argument("--with-t1", action="store_true")
        if "continuum" in vnamed:
            p = vsub.add_parser("continuum")
            p.set_defaults(run=payload_verify_continuum, cached=False)
            p.add_argument("--nu", type=int, required=True)
            p.add_argument("--g", type=int, default=2)
            p.add_argument("--order", type=int)
        if "odd" in vnamed:
            p = vsub.add_parser("odd")
            p.set_defaults(run=payload_verify_odd, cached=False)
            p.add_argument("--nu", type=int, required=True)
            p.add_argument("--order", type=int, default=10)

    if "trivalent" in named:
        p = sub.add_parser("trivalent", help="trivalent golden values vs matchings")
        p.set_defaults(run=payload_trivalent, cached=False)
        p.add_argument("--mmax", type=int, default=4)

    if "report" in named:
        p = sub.add_parser("report", help="standard verification sweep")
        p.set_defaults(run=payload_report, cached=False)
        p.add_argument("--nu", type=int, default=2)
    return parser


def parse_options(argv) -> dict:
    """The parsed arguments as a plain dict.  The parser is built and
    dropped here, so none of it stays referenced while the command runs."""
    return vars(build_parser(argv).parse_args(argv))


# exit code and stderr prefix of each engine error; an error class not
# listed takes the entry of its nearest listed base
EXITS = {
    EngineError: (1, "engine error"),
    VerificationFailure: (1, "verification failure"),
    ReconstructionFailed: (3, "reconstruction/resonance failure"),
    ResonanceFailure: (3, "reconstruction/resonance failure"),
    InsufficientData: (3, "reconstruction/resonance failure"),
    RejectedInput: (2, "usage error"),
    NoMatchingExists: (2, "usage error"),
    SizeLimit: (2, "usage error"),
}


def dispatch(argv) -> int:
    try:
        options = parse_options(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    fmt, cache_dir, no_cache = options.pop("format"), options.pop("cache_dir"), options.pop("no_cache")
    run, cached = options.pop("run"), options.pop("cached")
    # the key names the command and every option it was given
    command = [options.pop(k) for k in ("command", "what") if k in options]
    key = " ".join(command + ["%s=%s" % kv for kv in sorted(options.items())])
    try:
        payload = cache_lookup_or_compute(cache_dir if cached else None, key, lambda: run(**options), no_cache)
    except EngineError as exc:
        code, prefix = next(EXITS[c] for c in type(exc).__mro__ if c in EXITS)
        print("%s: %s" % (prefix, exc), file=sys.stderr)
        return code
    sys.stdout.write(render(payload, fmt))
    # a document that reports a failed check still prints, then exits 1
    return 1 if payload.get("status") == "fail" else 0


def main() -> int:
    return dispatch(sys.argv[1:])
