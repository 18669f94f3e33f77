"""Brute-force reference for the entries of powers of the recursion
operator: every lattice walk listed one by one, with the weights of its
steps.

``mapgenus.combinatorics.operator_power_entry`` counts the walks of an
even potential's operator without listing them, merging equal walk states
after every step; the tests compare it with ``walk_entry`` here, term by
term and in insertion order.  The flat steps of an odd potential's
operator, which no command takes, live here alone: ``motzkin_entry`` gives
the path sums that the lattice oracle's transfer rows are checked against.
"""

from collections import Counter

from mapgenus.combinatorics import LatticePolynomial
from mapgenus.errors import RejectedInput


def lattice_paths(j, m1, m2, kind="dyck"):
    """Exhaustive enumeration of the step tuples of length-j walks from m1
    to m2; steps are +1/-1 (and 0 for Motzkin), each walk listed with its
    upsteps first.

    Parity mismatch yields the empty list, not an error.
    """
    if j < 0:
        raise RejectedInput("path length must be >= 0")
    if kind == "dyck":
        alphabet = (1, -1)
    elif kind == "motzkin":
        alphabet = (1, 0, -1)
    else:
        raise RejectedInput("kind must be 'dyck' or 'motzkin'")
    out = []

    def rec(remaining, level, acc):
        if abs(m2 - level) > remaining:
            return
        if remaining == 0:
            out.append(tuple(acc))
            return
        for s in alphabet:
            acc.append(s)
            rec(remaining - 1, level + s, acc)
            acc.pop()

    rec(j, m1, [])
    return out


def step_offsets(steps, m1):
    """(sorted b2 offsets, sorted a offsets) of a walk from m1: a downstep
    weighs b2 at the level it leaves, a flat step a at its level."""
    b_off, a_off = [], []
    lvl = m1
    for s in steps:
        if s == -1:
            b_off.append(lvl)
        elif s == 0:
            a_off.append(lvl)
        lvl += s
    return tuple(sorted(b_off)), tuple(sorted(a_off))


def walk_entry(j, m1, m2):
    """Entry (n+m1, n+m2) of the j-th power of an even potential's
    operator, one (key, 1) pair per walk."""
    return LatticePolynomial(((0, step_offsets(steps, m1)[0]), 1) for steps in lattice_paths(j, m1, m2))


def motzkin_entry(j, m1, m2):
    """Entry (n+m1, n+m2) of the j-th power of an odd potential's operator:
    (b2 offsets, a offsets) -> number of walks."""
    return Counter(step_offsets(steps, m1) for steps in lattice_paths(j, m1, m2, "motzkin"))
