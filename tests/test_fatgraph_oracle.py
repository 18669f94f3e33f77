import pytest

from mapgenus.errors import NoMatchingExists, RejectedInput, SizeLimit
from mapgenus.exact_kernel import Q
from mapgenus.fatgraph_oracle import (
    KERNEL_KIND,
    FatGraph,
    double_factorial,
    eg_series_from_kappa,
    genus_of,
    genus_tally_pure,
    kappa_counts,
    kappa_tally,
)


def test_genus_of_examples():
    # one 4-valent vertex, adjacent half-edges glued: a sphere
    assert genus_of(FatGraph(1, 4, (1, 0, 3, 2))) == 0
    # one 4-valent vertex, opposite half-edges glued: a torus
    assert genus_of(FatGraph(1, 4, (2, 3, 0, 1))) == 1
    # two trivalent vertices matched 0-5, 1-4, 2-3: planar theta-like map
    assert genus_of(FatGraph(2, 3, (5, 4, 3, 2, 1, 0))) == 0


def test_genus_of_disconnected_marker():
    # two 2-gons glued to themselves separately
    assert genus_of(FatGraph(2, 2, (1, 0, 3, 2))) is None


def test_fatgraph_validation():
    with pytest.raises(RejectedInput):
        FatGraph(1, 4, (0, 1, 3, 2))  # fixed point
    with pytest.raises(RejectedInput):
        FatGraph(1, 4, (1, 0, 0, 2))  # not a permutation
    with pytest.raises(NoMatchingExists):
        FatGraph(1, 3, (1, 0, 2))


def test_kappa_counts_examples():
    assert kappa_counts(4, 1) == {0: 2, 1: 1}
    assert kappa_counts(3, 2) == {0: 12, 1: 3}
    with pytest.raises(NoMatchingExists):
        kappa_counts(3, 1)
    with pytest.raises(SizeLimit):
        kappa_counts(4, 6)


def test_total_mass_conservation():
    for (j, m) in [(4, 1), (4, 2), (3, 2), (3, 4), (2, 3), (6, 1), (4, 3)]:
        counts, disc = kappa_tally(j, m)
        assert sum(counts.values()) + disc == double_factorial(j * m - 1)


def test_known_two_vertex_quartic_counts():
    # coefficients of the genus 0/1 generating functions at two vertices
    counts = kappa_counts(4, 2)
    assert counts[0] == 36
    assert counts[1] == 60


def test_genus_support_bound():
    # a connected map has at least one face: m*(nu-1) >= 2g-1 for valence 2*nu
    for (j, m) in [(4, 2), (4, 3), (6, 2), (3, 4)]:
        for g in kappa_counts(j, m):
            assert m * (j - 2) >= 2 * (2 * g - 1)


def test_eg_series_from_kappa_values():
    s = eg_series_from_kappa(4, 1, 2)
    assert s.coeff(1) == Q(1, 4)
    s0 = eg_series_from_kappa(4, 0, 1)
    assert s0.coeff(1) == Q(1, 2)
    s1 = eg_series_from_kappa(3, 1, 2)
    assert s1.coeff(2) == Q(1, 6)
    assert s1.coeff(1) == 0  # odd half-edge count has no matchings


def test_relabeling_invariance():
    # rotating the starting half-edge of the canonical vertex cycle does not
    # change the genus: conjugate alpha by the rotation
    base = FatGraph(1, 6, (3, 4, 5, 0, 1, 2))
    g0 = genus_of(base)
    rot = [(h + 2) % 6 for h in range(6)]
    inv = [0] * 6
    for i, v in enumerate(rot):
        inv[v] = i
    conj = tuple(rot[base.alpha[inv[h]]] for h in range(6))
    assert genus_of(FatGraph(1, 6, conj)) == g0


def _brute_force(j, m):
    counts, disconnected = genus_tally_pure(j, m)
    return {g: c for g, c in enumerate(counts) if c}, disconnected


def test_recursion_matches_brute_force():
    # every (j, m) with jm <= 16 that the suite uses, counts and disconnected
    for (j, m) in [(4, 1), (4, 2), (4, 3), (3, 2), (3, 4), (2, 3), (2, 4), (6, 1), (6, 2), (5, 2), (8, 1)]:
        assert kappa_tally(j, m) == _brute_force(j, m), (j, m)


def test_recursion_matches_brute_force_at_four_quartic_vertices():
    # the one 15!! walk kept as assumption-free ground truth
    assert kappa_tally(4, 4) == _brute_force(4, 4)


def test_kernel_kind_reported():
    assert KERNEL_KIND in ("compiled", "pure")
