"""Map counts by genus: Tutte's root-edge recursion, with a brute-force
enumeration over rotation systems as its assumption-free cross-check.

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
(jm-1)!! matchings takes seconds.  The brute-force walk stays available as
``genus_tally_pure`` (the pure-Python ``_mapcore_py``); ``KERNEL_KIND``
says whether the compiled twin ``_mapcore`` is built as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from .errors import NoMatchingExists, RejectedInput, SizeLimit
from .exact_kernel import Q, Series

from . import _mapcore_py

try:  # compiled brute-force kernel (optional)
    from . import _mapcore  # noqa: F401

    KERNEL_KIND = "compiled"
except ImportError:  # pragma: no cover - depends on build environment
    KERNEL_KIND = "pure"

HALF_EDGE_CAP = 20


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class FatGraph:
    """m vertices of valence j with matching involution alpha on half-edges.

    Half-edges j*v .. j*v+j-1 belong to vertex v in cyclic order; alpha maps
    each half-edge to its partner.
    """

    m: int
    j: int
    alpha: tuple[int, ...]

    def __post_init__(self):
        n = self.m * self.j
        if n % 2:
            raise NoMatchingExists("odd half-edge count %d" % n)
        if sorted(self.alpha) != list(range(n)):
            raise RejectedInput("alpha is not a permutation of the half-edges")
        for h, hp in enumerate(self.alpha):
            if hp == h or self.alpha[hp] != h:
                raise RejectedInput("alpha is not a fixed-point-free involution")

    def sigma(self) -> tuple[int, ...]:
        n = self.m * self.j
        out = [0] * n
        for v in range(self.m):
            base = self.j * v
            for i in range(self.j):
                out[base + i] = base + (i + 1) % self.j
        return tuple(out)


def genus_of(graph: FatGraph) -> int | None:
    """Genus of the glued surface, or None when the graph is disconnected.

    Faces are cycles of sigma o alpha; vertices minus edges plus faces is
    2 - 2g for connected maps (always an even combination, asserted here).
    """
    n = graph.m * graph.j
    sigma = graph.sigma()
    # connectivity on vertices through the matched edges
    parent = list(range(graph.m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    comps = graph.m
    for h in range(n):
        a, b = find(h // graph.j), find(graph.alpha[h] // graph.j)
        if a != b:
            parent[a] = b
            comps -= 1
    if comps != 1:
        return None
    seen = [False] * n
    faces = 0
    for h in range(n):
        if not seen[h]:
            faces += 1
            cur = h
            while not seen[cur]:
                seen[cur] = True
                cur = sigma[graph.alpha[cur]]
    euler = graph.m - n // 2 + faces
    if euler % 2:
        raise RejectedInput("odd Euler characteristic on a connected map")
    g = (2 - euler) // 2
    if g < 0:
        raise RejectedInput("negative genus: inconsistent fat graph")
    return g


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
    and the other vertices."""
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
    for a in range(l1 - 1):
        b = l1 - 2 - a
        out += _connected(j, g - 1, _sorted(rest + (a, b)), v)
        for mask in range(1 << len(rest)):
            left = _sorted(tuple(d for i, d in enumerate(rest) if mask >> i & 1) + (a,))
            right = _sorted(tuple(d for i, d in enumerate(rest) if not mask >> i & 1) + (b,))
            for v1 in range(v + 1):
                for h in range(g + 1):
                    x = _connected(j, h, left, v1)
                    if x:
                        out += comb(v, v1) * x * _connected(j, g - h, right, v - v1)
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
            raise RejectedInput("matching tally lost mass at %d vertices: %d != (jk-1)!!" % (k, total[k]))
    return counts, total[m] - conn[m]


def kappa_counts(j: int, m: int, cap: int = HALF_EDGE_CAP) -> dict[int, int]:
    """Number of labelled j-regular genus-g maps on m vertices, per genus."""
    return kappa_tally(j, m, cap)[0]


def eg_series_from_kappa(j: int, g: int, m_max: int, cap: int = HALF_EDGE_CAP) -> Series:
    """Ordinary generating series of genus-g map counts in the variable
    u = -t_j (one coefficient kappa/(m! j^m) per vertex count m)."""
    coeffs = [Q(0)]
    for m in range(1, m_max + 1):
        kappa = kappa_counts(j, m, cap).get(g, 0) if (j * m) % 2 == 0 else 0
        coeffs.append(Q(kappa, factorial(m) * j ** m))
    return Series("u", coeffs, m_max)


def genus_tally_pure(j: int, m: int):
    """Brute-force walk over all matchings, the cross-check of `kappa_tally`."""
    return _mapcore_py.genus_tally(j, m)
