"""Command-line surface: reproducible runs of every pipeline with a plain
file cache.

Primary output is a single canonical JSON document on stdout (sorted keys,
no timestamps), so identical invocations are byte-identical; CSV and text
are lossy convenience views.  Exit codes: 0 success, 1 a machine-checked
identity failed, 2 usage error, 3 reconstruction or resonance failure.

Each payload builder imports the engine modules it uses, so a command
loads only what it runs and a cache hit loads no engine module.  The cache
digests with the BLAKE2b built into CPython, so no cached run loads
``hashlib`` and OpenSSL, and it imports ``tempfile`` only to store.  One
command table drives the argv parser, the help pages and the usage errors,
which accept and print argparse's language and text for an 80-column
terminal without importing argparse and the ``gettext``, ``locale`` and
``shutil`` it loads.
"""

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
    table = continuum_even.build_ztable(nu, g, T=order)
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
    ztable = continuum_even.build_ztable(nu, g, T=order)
    reports = [
        continuum_even.verify_string_functional(nu, max(ztable.T, 20)),
        continuum_even.verify_burgers(nu, max(ztable.T, 10)),
    ]
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


# ---------------------------------------------------------------------------
# command table, argv parser and help text
# ---------------------------------------------------------------------------

PROG = "mapgenus"
# argparse's layout on an 80-column terminal: text width and help column
WIDTH = 78
HELP_COLUMN = 24


class Command:
    """One level of the command line: its help line and options, then
    either the payload builder it runs (called with the parsed options as
    keywords) and ``cached``, whether its documents go through the result
    cache, or the subcommands whose name the positional ``dest`` reads."""

    def __init__(self, help, options=(), run=None, cached=False, dest=None, subcommands=None):
        self.help = help
        self.options = options
        self.run = run
        self.cached = cached
        self.dest = dest
        self.subcommands = subcommands


def option(flag, kind=int, default=None, required=False, dest=None) -> tuple:
    """(flag, kind, default, required, dest): kind is ``int``, ``str``, a
    tuple of choices, or None for a bare flag that stores True."""
    return flag, kind, default, required, dest or flag[2:].replace("-", "_")


# -h and --help of every level, named as its errors name it
HELP = option("-h/--help", None, dest="help")


def command_table() -> Command:
    """The whole command line.  It is built per parse, so it names the
    payload builders this module holds at that time, and ``--cache-dir``
    defaults to the environment of that time."""
    nu = option("--nu", required=True)
    g = option("--g", required=True)
    verify = {
        "lattice": Command(
            None,
            (nu, option("--nmax", default=6), option("--torder", default=4), option("--with-t1", None, False)),
            payload_verify_lattice,
        ),
        "continuum": Command(None, (nu, option("--g", default=2), option("--order")), payload_verify_continuum),
        "odd": Command(None, (nu, option("--order", default=10)), payload_verify_odd),
    }
    commands = {
        "z0": Command("planar generating function", (nu, option("--order", default=16)), payload_z0, True),
        "zg": Command("two-leg generating function at genus g", (nu, g, option("--order")), payload_zg, True),
        "eg": Command(
            "free-energy coefficient at genus g", (nu, g, option("--series-order", dest="order")), payload_eg, True
        ),
        "maps": Command(
            "labelled regular map counts by genus",
            (option("--valence", required=True), option("--vertices", required=True), option("--genus")),
            payload_maps,
            True,
        ),
        "verify": Command("machine verification of the identities", dest="what", subcommands=verify),
        "trivalent": Command("trivalent golden values vs matchings", (option("--mmax", default=4),), payload_trivalent),
        "report": Command("standard verification sweep", (option("--nu", default=2),), payload_report),
    }
    return Command(
        "exact genus expansions and map enumeration on surfaces",
        (
            option("--format", ("json", "csv", "text"), "json"),
            option("--cache-dir", str, os.environ.get(CACHE_ENV)),
            option("--no-cache", None, False),
        ),
        dest="command",
        subcommands=commands,
    )


def _invocation(opt) -> str:
    flag, kind, _, _, dest = opt
    if kind is None:
        return flag
    return "%s %s" % (flag, "{%s}" % ",".join(kind) if isinstance(kind, tuple) else dest.upper())


def _usage(prog, cmd) -> str:
    """The usage line.  When it is too long it wraps as argparse wraps
    it: a required option's flag and metavar are separate words, and the
    subcommand positional starts a row of its own."""
    words = [prog, "[-h]"]
    for opt in cmd.options:
        words += _invocation(opt).split() if opt[3] else ["[%s]" % _invocation(opt)]
    tail = ["{%s}" % ",".join(cmd.subcommands), "..."] if cmd.subcommands else []
    line = " ".join(words + tail)
    if len("usage: ") + len(line) <= WIDTH:
        return "usage: %s\n" % line
    indent = len("usage: ") + len(prog) + 1
    rows, used = [[]], len("usage: ") - 1
    for word in words + [None] + tail:
        if word is None or rows[-1] and used + 1 + len(word) > WIDTH:
            rows.append([])
            used = indent - 1
        if word:
            rows[-1].append(word)
            used += len(word) + 1
    return "usage: %s\n" % ("\n" + " " * indent).join(" ".join(row) for row in rows if row)


def _help(prog, cmd) -> str:
    """The help page: usage, the top level's description, then the
    subcommands and the options, every help text at one column."""
    options = [(2, "-h, --help", "show this help message and exit")]
    options += [(2, _invocation(opt), None) for opt in cmd.options]
    positionals = []
    if cmd.subcommands:
        positionals.append((2, "{%s}" % ",".join(cmd.subcommands), None))
        positionals += [(4, name, sub.help) for name, sub in cmd.subcommands.items() if sub.help]
    # every name with a help text ("-h, --help" and the command names)
    # ends at least two columns before the help column
    column = min(max(indent + len(text) for indent, text, _ in options + positionals) + 2, HELP_COLUMN)
    page = _usage(prog, cmd) + "\n" + (cmd.help + "\n\n" if prog == PROG else "")
    for title, items in (("positional arguments:", positionals), ("options:", options)):
        if items:
            page += title + "\n"
            for indent, text, help in items:
                page += ((" " * indent + text).ljust(column) + help if help else " " * indent + text) + "\n"
            page += "\n"
    return page[:-1]


def _fail(prog, cmd, message):
    sys.stderr.write("%s%s: error: %s\n" % (_usage(prog, cmd), prog, message))
    raise SystemExit(2)


def _negative_number(arg) -> bool:
    """argparse's test ``^-\\d+$|^-\\d*\\.\\d+$`` for a token that starts
    with "-" (``$`` also matches before a final newline)."""
    whole, dot, frac = arg[1:].removesuffix("\n").partition(".")
    return (whole + frac).isdecimal() and (frac != "" or not dot)


def _parse(prog, cmd, args, options) -> list:
    """Read args against one level of the table into options, the way
    argparse reads them, and return the tokens that no level took.

    Every token is classified first: an option of this level (exact,
    ``--opt=value``, a unique prefix of a long option, or ``-h`` with text
    stuck to it), an unknown option, or a value (a negative number and a
    token with a space are values, and so is everything after ``--``).
    Then, left to right, each option takes its value; the first value no
    option takes names a subcommand, whose level reads every later token;
    any other token is left over."""
    flags = {"-h": HELP, "--help": HELP}
    for opt in cmd.options:
        flags[opt[0]] = opt
        options[opt[4]] = opt[2]
    if cmd.subcommands:
        options[cmd.dest] = None
    else:
        options.update(run=cmd.run, cached=cmd.cached)

    # per token: None for a value, "--" for the separator, else the option
    # (None when unknown), the flag it matched and the text after "="
    parsed = []
    for arg in args:
        if arg == "--":
            parsed += ["--"] + [None] * (len(args) - len(parsed) - 1)
            break
        flag, eq, explicit = arg.partition("=")
        explicit = explicit if eq else None
        if flag in flags:
            matches = [(flag, explicit)]
        elif arg.startswith("--"):
            matches = [(f, explicit) for f in flags if f.startswith(flag)]
        else:
            matches = [(arg[:2], arg[2:])] if arg[:2] in flags else []
        if len(matches) > 1:
            _fail(prog, cmd, "ambiguous option: %s could match %s" % (arg, ", ".join(f for f, _ in matches)))
        if matches:
            parsed.append((flags[matches[0][0]],) + matches[0])
        elif arg.startswith("-") and arg != "-" and not (_negative_number(arg) or " " in arg):
            parsed.append((None, arg, None))
        else:
            parsed.append(None)

    leftover, later = [], []
    i = 0
    while i < len(args):
        found = parsed[i]
        i += 1
        if found is None or found == "--" or found[0] is None:
            # a value names the subcommand, and so does "--" before a token
            if cmd.subcommands and (found is None or found == "--" and i < len(args)):
                name = args[i - 1]
                if name not in cmd.subcommands:
                    choices = ", ".join(map(repr, cmd.subcommands))
                    _fail(prog, cmd, "argument %s: invalid choice: %r (choose from %s)" % (cmd.dest, name, choices))
                options[cmd.dest] = name
                sub = {}
                later = _parse("%s %s" % (prog, name), cmd.subcommands[name], args[i:], sub)
                options.update(sub)
                break
            leftover.append(args[i - 1])
            continue
        opt, flag, value = found
        kind = opt[1]
        if kind is None:
            if value is not None:
                # "-hh" reads as "-h -h": -h is the only short flag
                rest = value.lstrip("h") if flag == "-h" else value
                if rest or not value:
                    _fail(prog, cmd, "argument %s: ignored explicit argument %r" % (opt[0], rest))
            value = True
        elif value is None:
            if i == len(args) or parsed[i] is not None:
                _fail(prog, cmd, "argument %s: expected one argument" % opt[0])
            value = args[i]
            i += 1
        if opt is HELP:
            sys.stdout.write(_help(prog, cmd))
            raise SystemExit(0)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(prog, cmd, "argument %s: invalid int value: %r" % (opt[0], value))
        elif isinstance(kind, tuple) and value not in kind:
            choices = ", ".join(map(repr, kind))
            _fail(prog, cmd, "argument %s: invalid choice: %r (choose from %s)" % (opt[0], value, choices))
        options[opt[4]] = value
    # a required option has no default, and a given value is never None
    missing = [opt[0] for opt in cmd.options if opt[3] and options[opt[4]] is None]
    if cmd.subcommands and options[cmd.dest] is None:
        missing.append(cmd.dest)
    if missing:
        _fail(prog, cmd, "the following arguments are required: %s" % ", ".join(missing))
    return leftover + later


def parse_options(argv) -> dict:
    """The options argv gives, every one present with its default when not
    given, plus ``command`` (and ``what`` under verify), ``run`` and
    ``cached``.  A help page goes to stdout and raises SystemExit(0); a
    usage error prints the usage and the error to stderr and raises
    SystemExit(2)."""
    table = command_table()
    options = {}
    leftover = _parse(PROG, table, list(argv), options)
    if leftover:
        _fail(PROG, table, "unrecognized arguments: %s" % " ".join(leftover))
    return options


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
