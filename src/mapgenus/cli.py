"""Command-line surface: reproducible runs of every pipeline with a plain
file cache.

Primary output is a single canonical JSON document on stdout (sorted keys,
no timestamps), so identical invocations are byte-identical; CSV and text
are lossy convenience views.  Exit codes: 0 success, 1 a machine-checked
identity failed, 2 usage error, 3 reconstruction or resonance failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

from . import __version__, continuum_even, continuum_odd, fatgraph_oracle, genus_even
from .errors import (
    EngineError,
    InsufficientData,
    NoMatchingExists,
    ReconstructionFailed,
    RejectedInput,
    ResonanceFailure,
    SizeLimit,
    VerificationFailure,
)
from .exact_kernel import Q, qstr, ratfn_to_json, series_to_json
from .lattice_oracle import (
    WeightSpec,
    asymptotic_match,
    recurrence_table,
    verify_hirota,
    verify_lattice_equations,
)

CACHE_ENV = "MAPGENUS_CACHE_DIR"


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def cache_lookup_or_compute(cache_dir: str | None, key: str, producer, no_cache=False):
    """Serve the payload for a canonical key from the plain-file cache, or
    compute and store it.

    Entries are single JSON files named by the key hash; writes go through
    a temp file and rename so readers never see partial entries.  A corrupt
    entry is recomputed and overwritten with a warning; an unwritable cache
    directory degrades to compute-only with a warning."""
    full_key = "%s | engine %s" % (key, __version__)
    if no_cache or not cache_dir:
        return producer()
    name = hashlib.sha256(full_key.encode()).hexdigest()[:32] + ".json"
    path = os.path.join(cache_dir, name)
    if os.path.exists(path):
        try:
            with open(path) as fh:
                entry = json.load(fh)
            if entry.get("key") == full_key:
                return entry["payload"]
            print("cache entry key mismatch; recomputing", file=sys.stderr)
        except (json.JSONDecodeError, KeyError, OSError):
            print("corrupt cache entry %s; recomputing" % name, file=sys.stderr)
    payload = producer()
    entry = {
        "key": full_key,
        "engine_version": __version__,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "payload": payload,
    }
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
    data = continuum_even.catalan_data(nu, order)
    return {
        "nu": nu,
        "order": order,
        "c": qstr(data.c),
        "zetas": [qstr(z) for z in data.zetas],
        "series": series_to_json(data.z0),
    }


def payload_zg(nu: int, g: int, order: int | None) -> dict:
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
    if g < 2:
        etable = genus_even.ETable(nu, continuum_even.build_ztable(nu, 1, T=order or 16))
        lr = etable.logrational(g)
        return {
            "nu": nu,
            "g": g,
            "closed_form": {
                "rational": ratfn_to_json(lr.rat),
                "log_z0": qstr(lr.c0),
                "log_base": qstr(lr.c1),
            },
            "series": series_to_json(etable.series(g)),
        }
    T = order if order is not None else max(5 * g + 12, 16)
    ztable = continuum_even.build_ztable(nu, g, T=T)
    etable = genus_even.build_etable(nu, g, ztable=ztable)
    entry = etable.entries[g]
    summary = genus_even.verify_genus_structure(nu, g, ztable, etable)
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
    counts = fatgraph_oracle.kappa_counts(valence, vertices)
    if genus is not None:
        return {str(genus): counts.get(genus, 0)}
    return {str(g): c for g, c in sorted(counts.items())}


def payload_verify_lattice(nu: int, nmax: int, torder: int, with_t1: bool) -> dict:
    g_s = Q(1, nmax)
    spec = WeightSpec(nu=nu, g_s=g_s, include_t1=with_t1)
    table = recurrence_table(spec, n_max=nmax + nu + 1, T=torder)
    reports = [
        verify_lattice_equations(table, "string"),
        verify_lattice_equations(table, "toda"),
        verify_hirota(table),
    ]
    if with_t1:
        reports.append(verify_lattice_equations(table, "toda_t1"))
    return {
        "nu": nu,
        "n_max": nmax,
        "t_order": torder,
        "with_t1": with_t1,
        "identities": [
            {
                "equation": r["equation"],
                "tag": r["equation"],
                "n": [s["n"] for s in r["sites"]],
                "status": r["status"],
                "first_failure": None,
            }
            for r in reports
        ],
        "status": "pass",
    }


def payload_verify_continuum(nu: int, g: int, order: int | None) -> dict:
    T = order if order is not None else max(3 * g + 12, 16)
    reports = [
        continuum_even.verify_string_functional(nu, max(T, 20)),
        continuum_even.verify_burgers(nu, max(T, 10)),
    ]
    ztable = continuum_even.build_ztable(nu, g, T=T)
    for gg in range(1, g + 1):
        reports.append(continuum_even.verify_string_antiderivative(nu, gg))
        reports.append(continuum_even.verify_continuum_toda(nu, gg, ztable))
    return {
        "nu": nu,
        "g": g,
        "identities": [
            {"tag": r["identity"], "status": r["status"]} for r in reports
        ],
        "status": "pass",
    }


def payload_verify_odd(nu: int, order: int) -> dict:
    reports = [verify_odd_identities_report(nu)]
    pair = continuum_odd.solve_leading_odd(nu, order)
    reports.append(continuum_odd.verify_leading_residuals(pair))
    return {
        "nu": nu,
        "order": order,
        "identities": [
            {"tag": "coefficient_identities", "status": reports[0]["status"]},
            {"tag": "leading_pair_residuals", "status": reports[1]["status"]},
        ],
        "status": "pass",
    }


def verify_odd_identities_report(nu: int) -> dict:
    return continuum_odd.verify_odd_identities(nu)


def payload_trivalent(mmax: int) -> dict:
    return continuum_odd.trivalent_checks(T=max(4, mmax // 2 + 2), m_max=mmax)


def payload_report(nu: int) -> dict:
    """One standard verification sweep: every identity tag with its status."""
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
    status = "pass" if all(entry["status"] == "pass" for entry in out) else "fail"
    return {"nu": nu, "identities": out, "status": status}


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapgenus",
        description="exact genus expansions and map enumeration on surfaces",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV))
    parser.add_argument("--no-cache", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("z0", help="planar generating function")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--order", type=int, default=16)

    p = sub.add_parser("zg", help="two-leg generating function at genus g")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--order", type=int)

    p = sub.add_parser("eg", help="free-energy coefficient at genus g")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--series-order", type=int, dest="order")

    p = sub.add_parser("maps", help="labelled regular map counts by genus")
    p.add_argument("--valence", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--genus", type=int)

    v = sub.add_parser("verify", help="machine verification of the identities")
    vsub = v.add_subparsers(dest="what", required=True)
    p = vsub.add_parser("lattice")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--torder", type=int, default=4)
    p.add_argument("--with-t1", action="store_true")
    p = vsub.add_parser("continuum")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--order", type=int)
    p = vsub.add_parser("odd")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--order", type=int, default=10)

    p = sub.add_parser("trivalent", help="trivalent golden values vs matchings")
    p.add_argument("--mmax", type=int, default=4)

    p = sub.add_parser("report", help="standard verification sweep")
    p.add_argument("--nu", type=int, default=2)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        if args.command == "z0":
            key = "z0 nu=%d order=%d" % (args.nu, args.order)
            payload = cache_lookup_or_compute(
                args.cache_dir, key, lambda: payload_z0(args.nu, args.order), args.no_cache
            )
        elif args.command == "zg":
            key = "zg nu=%d g=%d order=%s" % (args.nu, args.g, args.order)
            payload = cache_lookup_or_compute(
                args.cache_dir,
                key,
                lambda: payload_zg(args.nu, args.g, args.order),
                args.no_cache,
            )
        elif args.command == "eg":
            key = "eg nu=%d g=%d order=%s" % (args.nu, args.g, args.order)
            payload = cache_lookup_or_compute(
                args.cache_dir,
                key,
                lambda: payload_eg(args.nu, args.g, args.order),
                args.no_cache,
            )
        elif args.command == "maps":
            key = "maps j=%d m=%d genus=%s" % (args.valence, args.vertices, args.genus)
            payload = cache_lookup_or_compute(
                args.cache_dir,
                key,
                lambda: payload_maps(args.valence, args.vertices, args.genus),
                args.no_cache,
            )
        elif args.command == "verify":
            if args.what == "lattice":
                payload = payload_verify_lattice(
                    args.nu, args.nmax, args.torder, args.with_t1
                )
            elif args.what == "continuum":
                payload = payload_verify_continuum(args.nu, args.g, args.order)
            else:
                payload = payload_verify_odd(args.nu, args.order)
        elif args.command == "trivalent":
            payload = payload_trivalent(args.mmax)
        elif args.command == "report":
            payload = payload_report(args.nu)
        else:  # pragma: no cover - argparse guards this
            return 2
    except (VerificationFailure,) as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 1
    except (ReconstructionFailed, ResonanceFailure, InsufficientData) as exc:
        print("reconstruction/resonance failure: %s" % exc, file=sys.stderr)
        return 3
    except (RejectedInput, NoMatchingExists, SizeLimit) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except EngineError as exc:
        print("engine error: %s" % exc, file=sys.stderr)
        return 1
    sys.stdout.write(render(payload, args.format))
    # a document that reports a failed check still prints, then exits 1
    return 1 if payload.get("status") == "fail" else 0


def main() -> int:
    return dispatch(sys.argv[1:])
