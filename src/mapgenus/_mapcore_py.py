"""Pure-Python kernel for exhaustive matching enumeration on fat graphs.

This is the twin of the compiled extension ``_mapcore``; both expose
``genus_tally(j, m)`` and must produce identical tallies.  The walk is the
assumption-free cross-check of the Tutte-recursion counts in
``fatgraph_oracle``; it visits all (jm-1)!! matchings, so this module sticks
to flat lists, local variable caching and an explicit undo stack instead of
nicer abstractions.
"""

from __future__ import annotations


def _completions(r: int) -> int:
    """Number of perfect matchings of r labelled points: (r-1)!! (1 if r=0)."""
    out = 1
    while r > 2:
        out *= r - 1
        r -= 2
    return out


def genus_tally(j: int, m: int) -> tuple[list[int], int]:
    """Count connected fat graphs with m vertices of valence j by genus.

    Returns (counts, disconnected) where counts[g] is the number of perfect
    matchings of the j*m half-edges whose glued surface is connected of
    genus g, and disconnected is the number of non-connected matchings, so
    sum(counts) + disconnected == (j*m - 1)!!.

    Vertex rotations are canonical: half-edges j*v .. j*v+j-1 sit around
    vertex v in cyclic order.  A partially built matching that closes off a
    component early is pruned, with all its completions booked as
    disconnected in one step.
    """
    n = j * m
    if n % 2:
        raise ValueError("odd number of half-edges admits no matching")
    sigma = [0] * n
    for v in range(m):
        base = j * v
        for i in range(j):
            sigma[base + i] = base + (i + 1) % j
    match = [-1] * n
    parent = list(range(m))
    size = [1] * m
    open_ = [j] * m
    counts = [0] * (n // 2 + 2)
    disconnected = 0
    visited = [0] * n
    stamp = 0
    edges = n // 2

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def faces() -> int:
        nonlocal stamp
        stamp += 1
        f = 0
        for h in range(n):
            if visited[h] != stamp:
                f += 1
                cur = h
                while visited[cur] != stamp:
                    visited[cur] = stamp
                    cur = sigma[match[cur]]
        return f

    def rec(scan: int, unmatched: int, comps: int):
        nonlocal disconnected
        a = scan
        while match[a] != -1:
            a += 1
        rest = unmatched - 2
        for b in range(a + 1, n):
            if match[b] != -1:
                continue
            match[a] = b
            match[b] = a
            ra = find(a // j)
            rb = find(b // j)
            if ra == rb:
                open_[ra] -= 2
                closed = open_[ra] == 0
                if closed and size[ra] < m:
                    disconnected += _completions(rest)
                elif rest == 0:
                    if comps == 1:
                        f = faces()
                        g = (2 - m + edges - f) // 2
                        counts[g] += 1
                    else:
                        disconnected += 1
                else:
                    rec(a + 1, rest, comps)
                open_[ra] += 2
            else:
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]
                new_open = open_[ra] + open_[rb] - 2
                old_open = open_[ra]
                open_[ra] = new_open
                if new_open == 0 and size[ra] < m:
                    disconnected += _completions(rest)
                elif rest == 0:
                    if comps == 2:
                        f = faces()
                        g = (2 - m + edges - f) // 2
                        counts[g] += 1
                    else:
                        disconnected += 1
                else:
                    rec(a + 1, rest, comps - 1)
                open_[ra] = old_open
                size[ra] -= size[rb]
                parent[rb] = rb
            match[a] = -1
            match[b] = -1

    rec(0, n, m)
    while counts and counts[-1] == 0:
        counts.pop()
    return counts, disconnected
