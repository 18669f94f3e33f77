"""Command-line surface: reproducible runs of every pipeline with a plain
file cache.

Primary output is a single canonical JSON document on stdout (sorted keys,
no timestamps), so identical invocations are byte-identical; CSV and text
are lossy convenience views.  Exit codes: 0 success, 1 a machine-checked
identity failed, 2 usage error, 3 reconstruction or resonance failure
(reached only on an engine fault).

Each command's payload builder lives beside the engine it drives, and
``produce`` imports it, and the engine's error types, only when a result
is computed, so a command loads and compiles only what it runs.  A cache
entry holds exactly the bytes that a ``--format json`` run prints, behind
a plain-text header of the full key and a BLAKE2b digest of those bytes,
so a JSON cache hit checks the header and writes the stored document
without decoding it: it loads neither ``json`` nor any engine module, and
only CSV and text hits parse the document to render it.  The cache
digests with the BLAKE2b built into CPython, so no cached run loads
``hashlib`` and OpenSSL, and it imports ``tempfile`` only to store.
One command table drives the argv parser, the help pages and the usage
errors, which accept and print argparse's language and text for an
80-column terminal without importing argparse and the ``gettext``,
``locale`` and ``shutil`` it loads; the text itself is written by
``usage``, which only a help page or a usage error imports.

``main``, behind ``python -m mapgenus`` and the console script, ends the
process once the run's output is written: it flushes stdout and stderr and
calls ``os._exit``, so the interpreter's teardown does not run, unless a
trace or profile hook or an ``-i`` prompt needs the normal exit.
``dispatch`` runs one command and returns its exit code.
"""

import functools
import os
import sys

from . import __version__

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


def _drop_stale_entries(cache_dir: str, source: bytes) -> None:
    """Remove each ``.entry`` file of the cache directory whose key line
    names a source digest other than ``source``; a file that cannot be
    read, or whose first line names no source, stays."""
    try:
        names = [name for name in os.listdir(cache_dir) if name.endswith(".entry")]
    except OSError:
        return
    for name in names:
        path = os.path.join(cache_dir, name)
        try:
            with open(path, "rb") as fh:
                _, sep, digest = fh.readline().rstrip(b"\n").rpartition(b" | source ")
            if sep and digest != source:
                os.unlink(path)
        except OSError:
            pass


def cache_lookup_or_compute(cache_dir: str | None, key: str, producer, no_cache=False) -> tuple:
    """Serve the document for a canonical key from the plain-file cache, or
    compute its payload and store the document.

    Returns (payload, document).  The document is the text a ``--format
    json`` run prints: on a hit it is the stored text, undecoded, and the
    payload is None; a payload computed for the cache comes with the
    document rendered to store it; without a cache the document is None.

    The stored key carries the engine version and the digest of the
    package sources, so an entry never outlives the code that computed it.
    An entry is one file named by a 128-bit BLAKE2b of the key: a line
    holding the key, a line holding the BLAKE2b of the document, then the
    document.  Writes go through a temp file and rename so readers never
    see partial entries; the entry gets mode 0o666 less the umask, as a
    plain ``open`` would give it, and a failed write or rename removes its
    temp file.  An entry that does not hold this key and the digest of its
    document is recomputed and overwritten with a warning; an unwritable
    cache directory degrades to compute-only with a warning.
    A document whose ``status`` is ``fail`` is never stored, so it is
    recomputed and exits 1 on every run.  A successful store removes every
    entry whose key names another source digest, since no run of this code
    can hit it again; files it cannot read or parse stay."""
    if no_cache or not cache_dir:
        return producer(), None
    source = source_digest()
    full_key = ("%s | engine %s | source %s" % (key, __version__, source)).encode()
    name = _blake2b(16, full_key).hexdigest() + ".entry"
    path = os.path.join(cache_dir, name)
    try:
        with open(path, "rb") as fh:
            stored_key, digest, document = fh.read().split(b"\n", 2)
        if stored_key == full_key and digest == _blake2b(16, document).hexdigest().encode():
            return None, document.decode()
        print("corrupt cache entry %s; recomputing" % name, file=sys.stderr)
    except (FileNotFoundError, NotADirectoryError):  # the miss: no such entry, or no such directory
        pass
    except (ValueError, OSError):
        print("corrupt cache entry %s; recomputing" % name, file=sys.stderr)
    payload = producer()
    document = render(payload, "json")
    if payload.get("status") == "fail":
        return payload, document
    import tempfile

    data = document.encode()
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(b"%s\n%s\n%s" % (full_key, _blake2b(16, data).hexdigest().encode(), data))
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        print("cache not writable (%s); skipping store" % exc, file=sys.stderr)
    else:
        _drop_stale_entries(cache_dir, source.encode())
    return payload, document


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
        import json

        return json.dumps(payload, sort_keys=True) + "\n"
    rows = []
    _flatten("", payload, rows)
    if fmt == "csv":
        return "".join("%s,%s\n" % (k, v) for k, v in rows)
    width = max((len(k) for k, _ in rows), default=0)
    return "".join("%-*s  %s\n" % (width, k, v) for k, v in rows)


# ---------------------------------------------------------------------------
# command table and argv parser
# ---------------------------------------------------------------------------

PROG = "mapgenus"


class Command:
    """One level of the command line: its help line and options, then
    either the name of the payload builder it runs (called with the parsed
    options as keywords) and ``cached``, whether its documents go through
    the result cache, or the subcommands whose name the positional ``dest``
    reads."""

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
    """The whole command line.  It is built per parse, so ``--cache-dir``
    defaults to the environment of that time."""
    nu = option("--nu", required=True)
    g = option("--g", required=True)
    verify = {
        "lattice": Command(
            None,
            (nu, option("--nmax", default=6), option("--torder", default=4), option("--with-t1", None, False)),
            "payload_verify_lattice",
        ),
        "continuum": Command(None, (nu, option("--g", default=2), option("--order")), "payload_verify_continuum"),
        "odd": Command(None, (nu, option("--order", default=10)), "payload_verify_odd"),
    }
    commands = {
        "z0": Command("planar generating function", (nu, option("--order", default=16)), "payload_z0", True),
        "zg": Command("two-leg generating function at genus g", (nu, g, option("--order")), "payload_zg", True),
        "eg": Command(
            "free-energy coefficient at genus g", (nu, g, option("--series-order", dest="order")), "payload_eg", True
        ),
        "maps": Command(
            "labelled regular map counts by genus",
            (option("--valence", required=True), option("--vertices", required=True), option("--genus")),
            "payload_maps",
            True,
        ),
        "verify": Command("machine verification of the identities", dest="what", subcommands=verify),
        "trivalent": Command(
            "trivalent golden values vs matchings", (option("--mmax", default=4),), "payload_trivalent"
        ),
        "report": Command("standard verification sweep", (option("--nu", default=2),), "payload_report"),
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


def builder(name: str):
    """The payload builder called ``name``, imported from beside the engine
    it drives when a result is computed, so a run compiles only the modules
    it runs and a cache hit none."""
    if name == "payload_z0":
        from .continuum_even import payload_z0 as run
    elif name == "payload_zg":
        from .continuum_even import payload_zg as run
    elif name == "payload_eg":
        from .genus_even import payload_eg as run
    elif name == "payload_maps":
        from .fatgraph_oracle import payload_maps as run
    elif name == "payload_verify_lattice":
        from .lattice_oracle import payload_verify_lattice as run
    elif name == "payload_verify_odd":
        from .continuum_odd import payload_verify_odd as run
    elif name == "payload_trivalent":
        from .continuum_odd import payload_trivalent as run
    elif name == "payload_verify_continuum":
        from .checks import payload_verify_continuum as run
    else:
        from .checks import payload_report as run
    return run


def produce(name: str, options: dict) -> dict:
    """The payload of the builder called ``name`` on the options.  An engine
    error prints no document and one stderr line, prefixed with its class
    of failure, and raises SystemExit with its exit code."""
    from .errors import EngineError

    try:
        return builder(name)(**options)
    except EngineError as exc:
        code, prefix = exc.cli_exit
        print("%s: %s" % (prefix, exc), file=sys.stderr)
        raise SystemExit(code)


def _fail(prog, cmd, message):
    from .usage import usage_line

    sys.stderr.write("%s%s: error: %s\n" % (usage_line(prog, cmd), prog, message))
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
            from .usage import help_page

            sys.stdout.write(help_page(prog, cmd))
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
    given, plus ``command`` (and ``what`` under verify), ``run`` (the
    payload builder's name) and ``cached``.  A help page goes to stdout and
    raises SystemExit(0); a usage error prints the usage and the error to
    stderr and raises SystemExit(2)."""
    table = command_table()
    options = {}
    leftover = _parse(PROG, table, list(argv), options)
    if leftover:
        _fail(PROG, table, "unrecognized arguments: %s" % " ".join(leftover))
    return options


def dispatch(argv) -> int:
    try:
        options = parse_options(argv)
        fmt, cache_dir, no_cache = options.pop("format"), options.pop("cache_dir"), options.pop("no_cache")
        run, cached = options.pop("run"), options.pop("cached")
        # the key names the command and every option it was given
        command = [options.pop(k) for k in ("command", "what") if k in options]
        key = " ".join(command + ["%s=%s" % kv for kv in sorted(options.items())])
        payload, document = cache_lookup_or_compute(
            cache_dir if cached else None, key, lambda: produce(run, options), no_cache
        )
    except SystemExit as exc:
        return exc.code
    if fmt != "json" or document is None:
        if payload is None:
            import json

            payload = json.loads(document)
        document = render(payload, fmt)
    sys.stdout.write(document)
    # a document that reports a failed check still prints, then exits 1
    # (the cache stores none, so a hit always passed)
    return 1 if payload is not None and payload.get("status") == "fail" else 0


def main() -> int:
    """Run the command line on ``sys.argv``, then end the process.

    Once ``dispatch`` has returned, stdout and stderr are flushed and the
    process ends with ``os._exit``.  That skips the interpreter's teardown:
    the ``atexit`` callbacks other code registered, the clearing of every
    loaded module and the final garbage collections, which can take as
    long as a short job's own work.  The exit code is returned instead,
    for the caller's normal exit, when a trace or profile hook is
    installed (pdb, coverage, cProfile, trace), when ``-i`` or
    ``PYTHONINSPECT`` asked for a prompt, and when a stream is missing or
    closed or a flush fails, so that a closed pipe is reported as the
    interpreter reports it.  An exception out of ``dispatch`` propagates."""
    code = dispatch(sys.argv[1:])
    if sys.gettrace() or sys.getprofile() or sys.flags.inspect:
        return code
    # from Python 3.12 cProfile and coverage may hook in through sys.monitoring
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6)):
        return code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, ValueError, OSError):
        return code
    os._exit(code)
