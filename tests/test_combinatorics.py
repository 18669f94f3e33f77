import random
from fractions import Fraction
from math import comb

import pytest

from mapgenus.checks import d_coeff, monomial_sym_eval, multiplicities, partitions_of, strict_partitions_in_box
from mapgenus.combinatorics import (
    LatticePolynomial,
    c_valence,
    higher_catalan,
    lattice_equation_exprs,
    lattice_paths,
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
    """b2[k] -> 1, a[k] -> 0, t -> 1: recovers the bare path count."""
    return sum(coeff for (_, _, a_off), coeff in poly.terms.items() if not a_off)


def test_partitions_examples():
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(5)) == 7
    assert partitions_of(3, max_len=2) == [(3,), (2, 1)]
    assert partitions_of(0) == [()]


def test_partition_weight_identity():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert sum(j * r for j, r in multiplicities(lam).items()) == n


def test_strict_partitions_in_box():
    assert strict_partitions_in_box((2, 1), (2, 1)) == [(2, 1)]
    box = strict_partitions_in_box((3, 2, 1), (4, 3, 2))
    assert sorted(box) == [(3, 2, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2)]
    with pytest.raises(RejectedInput):
        strict_partitions_in_box((3, 2), (2, 1))


def test_monomial_sym_eval():
    assert monomial_sym_eval((1,), [1, 2, 3]) == 6
    assert monomial_sym_eval((2, 1), [1, 2]) == 6
    assert monomial_sym_eval((1, 1), [1, 2, 3]) == 11
    assert monomial_sym_eval((1, 1, 1, 1), [1, 2, 3]) == 0
    # 0**0 convention: zero entries with padded zero exponents contribute
    assert monomial_sym_eval((2,), [0, 1]) == 1


def test_d_coeff_examples():
    assert d_coeff(2, (1,), "toda") == 12
    assert d_coeff(1, (1,), "toda") == 2
    assert d_coeff(1, (3,), "toda") == 2
    with pytest.raises(RejectedInput):
        d_coeff(2, (2,), "toda")
    with pytest.raises(RejectedInput):
        d_coeff(1, (1, 1, 1), "toda")


def test_d_coeff_matches_leading_transport():
    for nu in range(1, 9):
        assert d_coeff(nu, (1,), "toda") == c_valence(nu)


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


def b2(*offsets):
    return LatticePolynomial.monomial(1, offsets)


def test_operator_power_entries():
    assert operator_power_entry(2, 0, 0) == b2(0) + b2(1)
    assert operator_power_entry(1, 1, 0) == b2(1)
    # Motzkin variant keeps flat-step weights
    full = operator_power_entry(2, 0, 0, even_potential=False)
    assert full == b2(0) + b2(1) + LatticePolynomial.monomial(1, (), (0, 0))


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
            assert all(abs(k) <= nu + 1 for (_, b, a) in expr.terms for k in b + a)


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
    keys = [(t, (b,), ()) for t in range(2) for b in range(-2, 3)]
    for _ in range(40):
        monos = [
            LatticePolynomial.monomial(rng.randint(-3, 3), key[1], t_deg=key[0])
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
    cancelling = [LatticePolynomial.monomial(c, (k,)) for k in range(3) for c in (2, -1, -1)]
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
