"""Map counts by genus from Tutte's root-edge recursion.

A fat graph is a pair (sigma, alpha) of permutations of the half-edges:
sigma rotates the half-edges around each vertex (fixed canonically here),
alpha is the fixed-point-free involution pairing half-edges into edges.
Faces are the cycles of sigma o alpha and the genus follows from Euler's
relation.

Counts are of labelled regular maps: the canonical vertex labelling is
legitimate because the 1/(m! j^m) weight in the generating series cancels
the relabelling group exactly, so no automorphism groups are ever needed.

``kappa_tally`` counts them with Tutte's recursion on the root half-edge
(W. T. Tutte, Bull. AMS 1968; Walsh and Lehman, JCTB 1972), memoised on the
vertex degrees, in milliseconds where the brute-force walk over all
(jm-1)!! matchings takes seconds.  That walk, ``genus_tally`` in
``tests/_mapcore_py.py``, is the test suite's assumption-free cross-check of
the recursion.  ``KERNEL_KIND`` records that the counts run in pure Python.
The ``maps`` command's payload builder sits at the end, so that command
loads no other engine module.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .errors import NoMatchingExists, RejectedInput, SizeLimit, VerificationFailure, require_positive

KERNEL_KIND = "pure"

HALF_EDGE_CAP = 20


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@lru_cache(maxsize=None)
def _connected(j: int, g: int, degs: tuple[int, ...], v: int) -> int:
    """Matchings that glue into a connected genus-g surface, on labelled
    marked vertices of degrees `degs` (sorted, largest first) plus v
    labelled j-valent vertices.

    Tutte's recursion on the first half-edge of the largest marked vertex
    (degree l1): its partner lies on an unmarked vertex (the two merge), on
    another marked vertex (the two merge), or on the root vertex itself,
    which then splits into degrees a + b = l1 - 2 that either stay in one
    component (genus drops by one) or fall into two, sharing out the genus
    and the other vertices.  Swapping a and b together with the two sides
    of every split gives the same terms, so each split is summed once for
    a <= b and doubled when a != b."""
    if g < 0:
        return 0
    if not degs:
        return _connected(j, g, (j,), v - 1) if v else 0
    half_edges = sum(degs) + v * j
    if half_edges % 2:
        return 0
    if degs[-1] == 0:  # an isolated vertex is a whole component
        return int(g == 0 and len(degs) == 1 and v == 0)
    # a connected map has at least one face: 2g <= edges - vertices + 1
    if 2 * g > half_edges // 2 - len(degs) - v + 1:
        return 0
    l1, rest = degs[0], degs[1:]
    out = 0
    if v:
        out += v * j * _connected(j, g, _sorted(rest + (l1 + j - 2,)), v - 1)
    for k, lk in enumerate(rest):
        out += lk * _connected(j, g, _sorted(rest[:k] + rest[k + 1:] + (l1 + lk - 2,)), v)
    # the vertices picked by each mask; the complement of mask is sides[-1 - mask]
    sides = [tuple(d for i, d in enumerate(rest) if mask >> i & 1) for mask in range(1 << len(rest))]
    for a in range(l1 // 2):
        b = l1 - 2 - a
        term = _connected(j, g - 1, _sorted(rest + (a, b)), v)
        for mask, side in enumerate(sides):
            left, right = _sorted(side + (a,)), _sorted(sides[-1 - mask] + (b,))
            for v1 in range(v + 1):
                for h in range(g + 1):
                    x = _connected(j, h, left, v1)
                    if x:
                        term += comb(v, v1) * x * _connected(j, g - h, right, v - v1)
        out += term if a == b else 2 * term
    return out


def _sorted(degs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(degs, reverse=True))


def kappa_tally(j: int, m: int, cap: int = HALF_EDGE_CAP):
    """(counts per genus, disconnected count) over all perfect matchings.

    Connected counts come from the recursion.  The disconnected count comes
    from the exponential formula total(k) = sum_i binom(k-1, i-1) conn(i)
    total(k-i), whose totals must equal (jk-1)!! at every size k <= m."""
    if j < 1 or m < 1:
        raise RejectedInput("valence and vertex count must be positive")
    n = j * m
    if n % 2:
        raise NoMatchingExists("%d half-edges cannot be matched" % n)
    if n > cap:
        raise SizeLimit("half-edge count %d exceeds cap %d" % (n, cap))
    conn, total = [0], [1]
    for k in range(1, m + 1):
        # genus bound from one face: 2g <= edges - vertices + 1
        counts = {g: c for g in range((j * k // 2 - k + 1) // 2 + 1) if (c := _connected(j, g, (), k))}
        conn.append(sum(counts.values()))
        total.append(sum(comb(k - 1, i - 1) * conn[i] * total[k - i] for i in range(1, k + 1)))
        if total[k] != (double_factorial(j * k - 1) if (j * k) % 2 == 0 else 0):
            raise VerificationFailure("matching tally lost mass at %d vertices: %d != (jk-1)!!" % (k, total[k]))
    return counts, total[m] - conn[m]


def kappa_counts(j: int, m: int, cap: int = HALF_EDGE_CAP) -> dict[int, int]:
    """Number of labelled j-regular genus-g maps on m vertices, per genus."""
    return kappa_tally(j, m, cap)[0]


def eg_series_from_kappa(j: int, g: int, m_max: int, cap: int = HALF_EDGE_CAP) -> Series:
    """Ordinary generating series of genus-g map counts in the variable
    u = -t_j (one coefficient kappa/(m! j^m) per vertex count m)."""
    from .exact_kernel import Q, Series

    coeffs = [Q(0)]
    for m in range(1, m_max + 1):
        kappa = kappa_counts(j, m, cap).get(g, 0) if (j * m) % 2 == 0 else 0
        coeffs.append(Q(kappa, factorial(m) * j ** m))
    return Series("u", coeffs, m_max)


def payload_maps(valence: int, vertices: int, genus: int | None) -> dict:
    if genus is not None and genus < 0:
        raise RejectedInput("--genus must be >= 0")
    require_positive("--valence", valence)
    require_positive("--vertices", vertices)
    try:
        counts = kappa_counts(valence, vertices)
    except SizeLimit:
        raise SizeLimit(
            "--valence %d with --vertices %d gives %d half-edges, past the cap of %d"
            % (valence, vertices, valence * vertices, HALF_EDGE_CAP)
        ) from None
    if genus is not None:
        return {str(genus): counts.get(genus, 0)}
    return {str(g): c for g, c in sorted(counts.items())}
