import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from _box_reference import (
    d_coeff,
    monomial_sym_eval,
    partitions_of,
    reference_box_points,
    strict_partitions_in_box,
)
from _path_reference import lattice_paths, motzkin_entry, walk_entry
from mapgenus.checks import box_coefficients, box_points
from mapgenus.combinatorics import (
    LatticePolynomial,
    c_valence,
    higher_catalan,
    lattice_equation_exprs,
    operator_power_entry,
    painleve_a,
)
from mapgenus.continuum_odd import trinomial
from mapgenus.errors import RejectedInput


def dyck_path_count(j, m1, m2):
    """Closed-form count of free Dyck paths: choose the downstep positions."""
    d2 = j + m1 - m2
    if d2 % 2 or d2 < 0:
        return 0
    return comb(j, d2 // 2)


def specialize_counts(poly):
    """b2[k] -> 1, t -> 1: recovers the bare path count."""
    return sum(poly.terms.values())


def test_partitions_examples():
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(5)) == 7
    assert partitions_of(3, max_len=2) == [(3,), (2, 1)]
    assert partitions_of(0) == [()]


def test_partition_weight_identity():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert sum(j * r for j, r in Counter(lam).items()) == n


def test_strict_partitions_in_box():
    assert strict_partitions_in_box((2, 1), (2, 1)) == [(2, 1)]
    box = strict_partitions_in_box((3, 2, 1), (4, 3, 2))
    assert sorted(box) == [(3, 2, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2)]
    with pytest.raises(RejectedInput):
        strict_partitions_in_box((3, 2), (2, 1))


def test_box_points_are_the_reference_box():
    """Each staircase box is the k-subsets of {1, ..., top}: box_points lists
    the reference enumeration between the paper's bounds, the same points
    in the same order, and so C(2nu, nu-1) (toda) and C(2nu-1, nu) (string)
    of them."""
    for nu in range(1, 9):
        for variant, count in (("toda", comb(2 * nu, nu - 1)), ("string", comb(2 * nu - 1, nu))):
            points = box_points(nu, variant)
            assert points == reference_box_points(nu, variant)
            assert len(points) == count


def test_monomial_sym_eval():
    assert monomial_sym_eval((1,), [1, 2, 3]) == 6
    assert monomial_sym_eval((2, 1), [1, 2]) == 6
    assert monomial_sym_eval((1, 1), [1, 2, 3]) == 11
    assert monomial_sym_eval((1, 1, 1, 1), [1, 2, 3]) == 0
    # 0**0 convention: zero entries with padded zero exponents contribute
    assert monomial_sym_eval((2,), [0, 1]) == 1


def test_d_coeff_examples():
    # keys are the partitions in ascending order, padded with zeros to the slots
    assert box_coefficients(2, 1, "toda") == {(0, 0, 1): 12}
    assert box_coefficients(1, 1, "toda") == {(0, 1): 2}
    assert box_coefficients(1, 3, "toda")[(0, 3)] == 2
    with pytest.raises(RejectedInput):
        box_coefficients(2, 2, "toda")
    # a partition longer than the nu + 1 = 2 slots has no key
    assert all(len(lam) == 2 for lam in box_coefficients(1, 3, "toda"))
    assert (1, 1, 1) not in box_coefficients(1, 3, "toda")
    with pytest.raises(RejectedInput):
        box_coefficients(2, 3, "staircase")
    # the reference's values and rejections, one partition at a time
    assert (d_coeff(2, (1,), "toda"), d_coeff(1, (1,), "toda"), d_coeff(1, (3,), "toda")) == (12, 2, 2)
    with pytest.raises(RejectedInput):
        d_coeff(2, (2,), "toda")
    with pytest.raises(RejectedInput):
        d_coeff(1, (1, 1, 1), "toda")


def test_d_coeff_matches_leading_transport():
    for nu in range(1, 9):
        assert box_coefficients(nu, 1, "toda")[(0,) * nu + (1,)] == c_valence(nu)


@pytest.mark.parametrize("nu", range(1, 7))
@pytest.mark.parametrize("variant", ["toda", "string"])
def test_box_coefficients_match_the_permutation_sum(nu, variant):
    """The one-pass collection equals the per-partition sum over distinct
    permutations for every partition of each odd size up to 5 (7 for
    nu <= 4) with at most `slots` parts; a partition missing from the
    collection sums to zero, and every key is such a partition."""
    slots = nu + 1 if variant == "toda" else nu
    for size in range(1, 8 if nu <= 4 else 6, 2):
        table = box_coefficients(nu, size, variant)
        padded = {}
        for lam in partitions_of(size, max_len=slots):
            key = (0,) * (slots - len(lam)) + lam[::-1]
            padded[key] = d_coeff(nu, lam, variant)
            assert table.get(key, 0) == padded[key], (lam, size)
        assert set(table) <= set(padded)
        assert all(table.values())


def test_higher_catalan_values():
    assert [higher_catalan(2, j) for j in range(1, 5)] == [1, 2, 5, 14]
    assert higher_catalan(3, 2) == 3
    assert c_valence(2) == 12


def test_lattice_path_counts():
    assert len(lattice_paths(3, 1, 0)) == 3
    assert len(lattice_paths(1, 1, 0)) == 1
    assert len(lattice_paths(4, 2, 0)) == 4
    assert lattice_paths(2, 0, 1) == []
    for j in range(13):
        for m1 in range(-2, 3):
            for m2 in range(-3, 4):
                assert len(lattice_paths(j, m1, m2)) == dyck_path_count(j, m1, m2)


def monomial(coeff, b_offsets=(), t_deg=0):
    """coeff t^t_deg prod b2[k] as a lattice polynomial."""
    return LatticePolynomial({(t_deg, tuple(sorted(b_offsets))): coeff})


def b2(*offsets):
    return monomial(1, offsets)


def test_operator_power_entries():
    assert operator_power_entry(2, 0, 0) == b2(0) + b2(1)
    assert operator_power_entry(1, 1, 0) == b2(1)
    # the reference's Motzkin variant keeps flat-step weights
    assert motzkin_entry(2, 0, 0) == {((0,), ()): 1, ((1,), ()): 1, ((), (0, 0)): 1}


def test_walk_matches_the_path_reference():
    # every entry the string and Toda equations read, term by term and in
    # the order of the walks that first reach each term
    for nu in range(1, 9):
        for j, m1, m2 in ((1, 1, 0), (2 * nu - 1, 1, 0), (2 * nu, 1, -1)):
            got, want = operator_power_entry(j, m1, m2), walk_entry(j, m1, m2)
            assert list(got.terms.items()) == list(want.terms.items()), (nu, j)
    # empty, parity-mismatched and out-of-reach entries included
    for j in range(7):
        for m1 in range(-1, 2):
            for m2 in range(-3, 4):
                got, want = operator_power_entry(j, m1, m2), walk_entry(j, m1, m2)
                assert list(got.terms.items()) == list(want.terms.items()), (j, m1, m2)
    with pytest.raises(RejectedInput, match="path length"):
        operator_power_entry(-1, 0, 0)


def test_walk_hands_one_pair_per_term(monkeypatch):
    # the nu = 8 string entry: 6,435 walks merge into 576 terms, and the
    # polynomial is built from the merged counts, not from a pair per walk
    from mapgenus import combinatorics

    pairs = []
    real = combinatorics.LatticePolynomial

    def recording(terms):
        terms = list(terms.items() if isinstance(terms, dict) else terms)
        pairs.append(len(terms))
        return real(terms)

    monkeypatch.setattr(combinatorics, "LatticePolynomial", recording)
    entry = operator_power_entry(15, 1, 0)
    assert len(lattice_paths(15, 1, 0)) == 6435
    assert pairs == [len(entry.terms)] == [576]


def test_tetravalent_difference_string_combination():
    expr = lattice_equation_exprs(2, "string")
    expected = (
        b2(1)
        - b2(0)
        + (b2(1) * (b2(0) + b2(1) + b2(2))).times_t()
        - (b2(0) * (b2(-1) + b2(0) + b2(1))).times_t()
    )
    assert expr == expected


def test_divalent_string_equation():
    expr = lattice_equation_exprs(1, "string")
    expected = b2(1) - b2(0) + (b2(1) - b2(0)).times_t()
    assert expr == expected


def test_tetravalent_toda_expression():
    expr = lattice_equation_exprs(2, "toda")
    expected = b2(1) * b2(0) * (b2(-1) + b2(0) + b2(1) + b2(2)) - b2(0) * b2(-1) * (
        b2(-2) + b2(-1) + b2(0) + b2(1)
    )
    assert expr == expected


def test_bandwidth_bound():
    for nu in (1, 2, 3):
        for kind in ("string", "toda"):
            expr = lattice_equation_exprs(nu, kind)
            assert all(abs(k) <= nu + 1 for (_, b) in expr.terms for k in b)


def test_shift_invariance_of_generation():
    # generating the same entry one site over equals shifting the offsets
    a = operator_power_entry(4, 1, -1).shift(-1)
    b = operator_power_entry(4, 0, -2)
    assert a == b


def test_specialization_counts_paths():
    for j, m1, m2 in [(4, 1, -1), (3, 1, 0), (6, 0, 0)]:
        entry = operator_power_entry(j, m1, m2)
        assert specialize_counts(entry) == dyck_path_count(j, m1, m2)


@pytest.mark.parametrize("nu", [3, 4, 5, 6])
def test_string_expression_normalises_each_coefficient_a_bounded_number_of_times(monkeypatch, nu):
    # summing every walk in one pass normalises each coefficient a fixed
    # number of times; re-normalising the whole sum after every walk grows
    # as walks x terms
    from mapgenus import combinatorics

    calls = []
    real = combinatorics.Q

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(combinatorics, "Q", counting)
    expr = lattice_equation_exprs(nu, "string")
    walks = len(lattice_paths(2 * nu - 1, 1, 0)) + 1
    assert len(calls) <= 4 * (walks + len(expr.terms))


def test_terms_sum_matches_sequential_addition_randomized():
    rng = random.Random(7)
    keys = [(t, (b,)) for t in range(2) for b in range(-2, 3)]
    for _ in range(40):
        monos = [
            monomial(rng.randint(-3, 3), key[1], t_deg=key[0])
            for key in rng.choices(keys, k=rng.randint(1, 12))
        ]
        # a cancelling pair keeps a sum that must drop to zero in play
        mono = rng.choice(monos)
        monos += [-mono, mono * rng.randint(-2, 2)]
        rng.shuffle(monos)
        sequential = LatticePolynomial()
        for m in monos:
            sequential = sequential + m
        pairs = [pair for m in monos for pair in m.terms.items()]
        assert LatticePolynomial.sum(monos) == sequential
        assert LatticePolynomial(pairs) == sequential
        assert LatticePolynomial(dict(sequential.terms)) == sequential
        assert all(sequential.terms.values())
    cancelling = [monomial(c, (k,)) for k in range(3) for c in (2, -1, -1)]
    assert LatticePolynomial.sum(cancelling) == LatticePolynomial()
    assert LatticePolynomial.sum(cancelling).terms == {}
    assert LatticePolynomial([(key, v) for m in cancelling for key, v in m.terms.items()]) == LatticePolynomial()


def test_trinomial_conventions():
    assert trinomial(3, 0, 1, 2) == 3
    assert trinomial(3, 2, 0, 1) == 3
    assert trinomial(2, 1, 0, 1) == 2
    assert trinomial(3, 1, -1, 3) == 0
    assert trinomial(4, 1, 1, 1) == 0


def test_painleve_coefficients():
    assert [painleve_a(g) for g in range(3)] == [1, Fraction(-1, 48), Fraction(-49, 4608)]
    # by hand, e = -9/2: 2 a_3 = (33/8) a_2 - 2 a_1 a_2
    assert painleve_a(3) == Fraction(-1225, 55296)
    with pytest.raises(RejectedInput):
        painleve_a(-1)
