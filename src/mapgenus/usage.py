"""Usage lines and help pages of the command table, in argparse's text for
an 80-column terminal.  Only a help page and a usage error import this
module, so a run that computes or serves a cached result never compiles it.
"""

from .cli import PROG

# argparse's layout on an 80-column terminal: text width and help column
WIDTH = 78
HELP_COLUMN = 24


def _invocation(opt) -> str:
    flag, kind, _, _, dest = opt
    if kind is None:
        return flag
    return "%s %s" % (flag, "{%s}" % ",".join(kind) if isinstance(kind, tuple) else dest.upper())


def usage_line(prog, cmd) -> str:
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


def help_page(prog, cmd) -> str:
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
    page = usage_line(prog, cmd) + "\n" + (cmd.help + "\n\n" if prog == PROG else "")
    for title, items in (("positional arguments:", positionals), ("options:", options)):
        if items:
            page += title + "\n"
            for indent, text, help in items:
                page += ((" " * indent + text).ljust(column) + help if help else " " * indent + text) + "\n"
            page += "\n"
    return page[:-1]
