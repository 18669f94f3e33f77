"""Exception hierarchy shared by all engine modules, with the command line's
exit code and stderr prefix of each error, the pass/fail verdict of a list
of checks, and the scaling of rationals to integers over one
denominator that both exact-arithmetic modules use."""

from math import lcm


class EngineError(Exception):
    """Base class for every error raised by this package.  ``cli_exit`` is
    the exit code and stderr prefix the command line gives an error of the
    class; a subclass that sets none takes its base's."""

    cli_exit = (1, "engine error")


USAGE = (2, "usage error")
RECONSTRUCTION = (3, "reconstruction/resonance failure")


class RejectedInput(EngineError, ValueError):
    """An argument violates a documented precondition."""

    cli_exit = USAGE


class PoleAtBasepoint(EngineError):
    """A rational function was expanded about a point where its denominator vanishes."""


class InsufficientData(EngineError):
    """A reconstruction system is underdetermined."""

    cli_exit = RECONSTRUCTION


class ReconstructionFailed(EngineError):
    """A reconstruction system is inconsistent (wrong ansatz or corrupted data)."""

    cli_exit = RECONSTRUCTION


class ResonanceFailure(EngineError):
    """A solvability condition at a resonant series order does not hold."""

    cli_exit = RECONSTRUCTION


class VerificationFailure(EngineError):
    """A machine-checked identity has a nonzero residual.

    Carries enough context (identity tag, site, order) in the message to
    locate the first failure.
    """

    cli_exit = (1, "verification failure")


class DegenerateTable(EngineError):
    """A leading Hankel determinant vanished where positivity is guaranteed."""


class NoMatchingExists(EngineError):
    """A perfect matching was requested on an odd number of half-edges."""

    cli_exit = USAGE


class SizeLimit(EngineError):
    """An exhaustive enumeration exceeds the configured desk-scale cap."""

    cli_exit = USAGE


def status_of(entries: list) -> str:
    """"pass" when every check listed in entries passed, else "fail"."""
    return "pass" if all(e["status"] == "pass" for e in entries) else "fail"


def _qscale(xs) -> tuple[int, list[int]]:
    """(d, [x*d for x in xs]) with d the lcm of the denominators of xs."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]
