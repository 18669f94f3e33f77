import pytest

from _mapcore_py import genus_tally
from mapgenus.errors import NoMatchingExists, SizeLimit
from mapgenus.exact_kernel import Q
from mapgenus.fatgraph_oracle import (
    KERNEL_KIND,
    double_factorial,
    eg_series_from_kappa,
    kappa_counts,
    kappa_tally,
)


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


def _brute_force(j, m):
    counts, disconnected = genus_tally(j, m)
    return {g: c for g, c in enumerate(counts) if c}, disconnected


def test_recursion_matches_brute_force():
    # every (j, m) with jm <= 16 that the suite uses, counts and disconnected
    for (j, m) in [(4, 1), (4, 2), (4, 3), (3, 2), (3, 4), (2, 3), (2, 4), (6, 1), (6, 2), (5, 2), (8, 1)]:
        assert kappa_tally(j, m) == _brute_force(j, m), (j, m)


def test_recursion_matches_brute_force_at_four_quartic_vertices():
    # the one 15!! walk kept as assumption-free ground truth
    assert kappa_tally(4, 4) == _brute_force(4, 4)


def test_recursion_pins_counts_beyond_the_walk():
    # tallies of the recursion as first shipped, which summed every root
    # split a and b separately; sizes the brute-force walk cannot reach
    assert kappa_tally(8, 2) == ({0: 9800, 1: 215600, 2: 1009400, 3: 781200}, 11025)
    assert kappa_tally(6, 3) == ({0: 216000, 1: 4176000, 2: 17290800, 3: 12315600}, 461025)
    assert kappa_tally(4, 5) == ({0: 17915904, 1: 192098304, 2: 348033024, 3: 58060800}, 38621043)


def test_kernel_kind_reported():
    assert KERNEL_KIND in ("compiled", "pure")
