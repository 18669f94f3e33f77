"""Brute-force reference for the staircase boxes and their coefficients:
the strict partitions of a box enumerated between its two bounds,
partitions listed one by one, and each monomial symmetric value m_lambda
summed over the distinct permutations of lambda's exponents at every box
point.

``mapgenus.checks.box_points`` lists each box as the k-subsets of
{1, ..., top}, and ``mapgenus.checks.box_coefficients`` collects every
d_lambda of one size in a single stage-1 pass over the box points; the
tests compare them with ``strict_partitions_in_box`` and ``d_coeff`` here.
"""

from functools import cache

from mapgenus.errors import RejectedInput
from mapgenus.exact_kernel import Q


def strict_partitions_in_box(lower, upper):
    """All strictly decreasing mu with lower <= mu <= upper componentwise."""
    if len(lower) != len(upper):
        raise RejectedInput("box bounds must have equal length")
    if any(a > b for a, b in zip(lower, upper)):
        raise RejectedInput("empty box: lower bound exceeds upper bound")
    if any(lower[i] <= lower[i + 1] for i in range(len(lower) - 1)) or any(
        upper[i] <= upper[i + 1] for i in range(len(upper) - 1)
    ):
        raise RejectedInput("box bounds must themselves be strictly decreasing")
    k = len(lower)
    out = []

    def rec(i, prev, acc):
        if i == k:
            out.append(tuple(acc))
            return
        hi = min(upper[i], prev - 1)
        for v in range(hi, lower[i] - 1, -1):
            acc.append(v)
            rec(i + 1, v, acc)
            acc.pop()

    rec(0, upper[0] + 1, [])
    return out


def partitions_of(n, max_len=None):
    """All partitions of n (weakly decreasing tuples), descending-lex sorted.

    n = 0 yields the empty partition; max_len bounds the number of parts.
    """
    if n < 0:
        raise RejectedInput("cannot partition a negative integer")
    out = []

    def rec(rest, largest, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        if max_len is not None and len(acc) == max_len:
            return
        for part in range(min(rest, largest), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


@cache
def _distinct_permutations(items):
    """Distinct permutations of a multiset of small length, built once each."""
    items = tuple(sorted(items, reverse=True))
    out = []

    def rec(remaining, acc):
        if not remaining:
            out.append(tuple(acc))
            return
        seen = set()
        for i, v in enumerate(remaining):
            if v in seen:
                continue
            seen.add(v)
            rec(remaining[:i] + remaining[i + 1 :], acc + [v])

    rec(list(items), [])
    return tuple(out)


def monomial_sym_eval(lam, xs):
    """Value of the monomial symmetric polynomial m_lam at the point xs.

    Zero by convention when lam has more parts than xs has entries; 0**0
    counts as 1 when padded zero exponents meet zero entries.
    """
    if len(lam) > len(xs):
        return Q(0)
    exps = tuple(lam) + (0,) * (len(xs) - len(lam))
    total = 0
    for perm in _distinct_permutations(exps):
        term = 1
        for x, e in zip(xs, perm):
            if e:
                term *= x ** e
            # e == 0 contributes a factor 1 even when x == 0
        total += term
    return Q(total)


def reference_box_points(nu, variant):
    """The points mu - eta of a staircase box, mu running over the strict
    partitions between the box's bounds in the enumeration's order.

    variant "toda": nu+1 slots, box (nu+1,...,1) .. (2nu,...,nu), reference
    staircase (2nu, 2nu-2, ..., 0).  variant "string": nu slots, box
    (nu,...,1) .. (2nu-1,...,nu), reference (2nu-1, 2nu-3, ..., 1).
    """
    if variant == "toda":
        eta = tuple(2 * nu - 2 * i for i in range(nu + 1))
        lower = tuple(range(nu + 1, 0, -1))
        upper = tuple(range(2 * nu, nu - 1, -1))
    elif variant == "string":
        eta = tuple(2 * nu - 1 - 2 * i for i in range(nu))
        lower = tuple(range(nu, 0, -1))
        upper = tuple(range(2 * nu - 1, nu - 1, -1))
    else:
        raise RejectedInput("variant must be 'toda' or 'string'")
    return [tuple(m - e for m, e in zip(mu, eta)) for mu in strict_partitions_in_box(lower, upper)]


def d_coeff(nu, lam, variant):
    """Hierarchy coefficient for one partition: a doubled sum of monomial
    symmetric values over the points of a staircase box
    (``reference_box_points``)."""
    if sum(lam) % 2 == 0:
        raise RejectedInput("partition size must be odd (2g+1)")
    points = reference_box_points(nu, variant)
    slots = len(points[0])
    if len(lam) > slots:
        raise RejectedInput("partition longer than the slot count %d" % slots)
    total = Q(0)
    for x in points:
        total += 2 * monomial_sym_eval(lam, x)
    return total
