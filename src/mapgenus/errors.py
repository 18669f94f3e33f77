"""Exception hierarchy shared by all engine modules, with the command line's
exit code and stderr prefix of each error, the option checks that the
command builders share, the pass/fail verdict of a list of checks, and the
scaling of rationals to integers over one denominator that both
exact-arithmetic modules use."""

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


def require_positive(option: str, value: int | None) -> None:
    """Reject a command-line count below 1, naming its option; None (the
    option left at its default) passes."""
    if value is not None and value < 1:
        raise RejectedInput("%s must be >= 1" % option)


def require_higher_genus(nu: int) -> None:
    """Reject a valence below 2, which has no closed form z_g: nu = 1 has
    no higher genus."""
    if nu < 2:
        raise RejectedInput("--nu must be >= 2 (nu = 1 has no higher genus)")


def status_of(entries: list) -> str:
    """"pass" when every check listed in entries passed, else "fail"."""
    return "pass" if all(e["status"] == "pass" for e in entries) else "fail"


def _qscale(xs) -> tuple[int, list[int]]:
    """(d, [x*d for x in xs]) with d the lcm of the denominators of xs."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]
