import random
from collections import Counter
from math import factorial

import pytest

from _box_reference import partitions_of
from mapgenus.conservation import planar_lift_deriv_formula, q_c_tables, q_table
from mapgenus.continuum_even import LogRational, build_ztable, catalan_data, verify_continuum_toda
from mapgenus.errors import RejectedInput, ResonanceFailure
from mapgenus.exact_kernel import DLaurent, Q
from mapgenus.genus_even import (
    E_w_derivs,
    ETable,
    build_etable,
    c_constant,
    closed_e0_e1,
    face_count,
    hirota_rhs,
    log_term_ratfn,
    resonance_lambda,
    verify_genus_structure,
)


@pytest.fixture(scope="module")
def nu2():
    ztable = build_ztable(2, 3, T=27)
    etable = build_etable(2, 3, ztable=ztable)
    return ztable, etable


def at(x, z):
    """x evaluated at z0 = z through D = nu - (nu-1) z0."""
    d = x.nu - (x.nu - 1) * Q(z)
    return sum((x.coeff(k) * d ** k for k in range(x.lo, x.lo + len(x.num))), Q(0))


def laurent(x):
    """Coefficients of a rational LogRational by pole order of D."""
    assert x.is_rational()
    return x.rat.pole_coeffs()


def test_closed_forms_basic_values():
    e0, e1 = closed_e0_e1(2)
    # e0 vanishes at z0 = 1 (both summands)
    assert at(e0.rat, 1) == 0 and e0.c0 == Q(1, 2)
    # d e0/dz0 at z0=1 equals 1/6 for the quartic case
    slope = at(e0.rat.dz(), 1) + Q(1, 2)  # log z0 contributes 1/z0
    assert slope == Q(1, 6)
    assert e1.c1 == Q(-1, 12) and e1.rat == 0


def test_e_series_match_map_counts(nu2):
    ztable, etable = nu2
    s0 = etable.series(0)
    s1 = etable.series(1)
    # coefficients are kappa/m! in the scaled map variable
    assert [s0.coeff(m) for m in (1, 2, 3)] == [2, 18, 288]
    assert [s1.coeff(m) for m in (1, 2, 3)] == [1, 30, 1056]


def test_du_rules():
    e0, e1 = closed_e0_e1(2)
    z = DLaurent.z(2)
    # d/du log z0 = c z0^nu / D, read off from the log part of e0
    pure_log = LogRational(2, DLaurent.const(2, 0), c0=Q(1))
    assert pure_log.du().rat == 12 * z ** 2 * DLaurent(2, -1, (1,))
    # d/du log(nu-(nu-1)z0) = -(nu-1) c z0^(nu+1)/D^2, checked through e1
    d_e1 = e1.du()
    expected = Q(1, 12) * z ** 3 * 12 * DLaurent(2, -2, (1,))
    assert d_e1.rat == expected and d_e1.is_rational()
    # constants die
    zero = (e1 - e1).du()
    assert zero.rat == 0


def test_resonance_lambda_factorization():
    for nu in range(2, 5):
        for g in range(5):
            for m in range(31):
                F = face_count(nu, g, m)
                assert resonance_lambda(nu, g, m) == F * (F - 1)


def test_lambda_matches_q_table():
    for nu in range(2, 5):
        for g in range(5):
            Qt = q_table(nu, g, 2)
            for m in range(31):
                val = (
                    Qt[(2, 0)]
                    + (nu - 1) * Qt[(2, 1)] * m
                    + (nu - 1) ** 2 * Qt[(2, 2)] * m * (m - 1)
                )
                assert val == resonance_lambda(nu, g, m)


def test_q_table_values():
    Qt = q_table(3, 2, 4)
    assert Qt[(3, 0)] == (2 - 4) * (1 - 4) * (0 - 4)
    assert Qt[(3, 3)] == 1
    assert Qt[(2, 1)] == 3 + 2 - 4 * 2


def test_c_constants():
    assert c_constant(2) == Q(1, 240)
    assert c_constant(3) == Q(-1, 1008)


def test_genus1_recursion_identity(nu2):
    """The order-2 tau recursion is an identity on the closed genus-1 form."""
    ztable, etable = nu2
    rhs = hirota_rhs(2, 1, ztable, etable)
    e1 = etable.logrational(1)
    lhs = e1.grade_dw(0).grade_dw(-1)
    assert (lhs - rhs).rat == DLaurent.const(2, 0)
    assert lhs.c0 == rhs.c0 and lhs.c1 == rhs.c1


def test_log_term_generic_values(nu2):
    ztable, _ = nu2
    z1_over_z0 = ztable.entries[1].over_z0
    z2_over_z0 = ztable.entries[2].over_z0
    expected = z2_over_z0 - z1_over_z0 * z1_over_z0 * Q(1, 2)
    assert log_term_ratfn(2, ztable) == expected


def partition_log_term(g, ztable):
    """The reference for ``log_term_ratfn``: the log-of-series collection
    over the partitions of g, sum of (-1)^(l+1) (l-1)! / prod r_j! times
    prod (z_j/z0)^(r_j) over partitions with l parts, r_j of size j."""
    total = DLaurent.const(ztable.nu, 0)
    for lam in partitions_of(g):
        mult = Counter(lam)
        ell = sum(mult.values())
        coeff = Q((-1) ** (ell + 1)) * factorial(ell - 1)
        for r in mult.values():
            coeff /= factorial(r)
        term = DLaurent.const(ztable.nu, coeff)
        for part, r in mult.items():
            term = term * ztable.entries[part].over_z0 ** r
        total = total + term
    return total


@pytest.mark.parametrize("nu", [2, 3])
def test_log_term_recurrence_matches_partition_sum(nu):
    ztable = build_ztable(nu, 6, T=20)
    for g in range(1, 7):
        assert log_term_ratfn(g, ztable) == partition_log_term(g, ztable)


def test_log_terms_are_kept_on_the_ztable(monkeypatch):
    """Each genus extends the stored L_1 .. L_(g-1) by one term, with one
    product per lower genus: building the table to genus G makes G(G-1)/2
    products, where rebuilding the terms on every call made about G^3/6."""
    from mapgenus import genus_even

    products, inside = {}, []
    mul, log_term = DLaurent.__mul__, genus_even.log_term_ratfn

    def counting_mul(self, other):
        if inside and isinstance(other, DLaurent):
            products[inside[-1]] = products.get(inside[-1], 0) + 1
        return mul(self, other)

    def counting_log_term(g, ztable):
        inside.append(g)
        try:
            return log_term(g, ztable)
        finally:
            inside.pop()

    monkeypatch.setattr(DLaurent, "__mul__", counting_mul)
    monkeypatch.setattr(genus_even, "log_term_ratfn", counting_log_term)
    G = 8
    build_etable(2, G)
    assert products == {g: g - 1 for g in range(2, G + 1)}
    assert sum(products.values()) == G * (G - 1) // 2


def test_z_table_and_e_g_read_one_planar_series():
    # e_g never expands a z_g, so the z-table is built to the order T that
    # e_g is printed to, and the e-table reads the z-table's planar series
    for T in (None, 40, 14):
        etable = build_etable(2, 3, T=T)
        T = 27 if T is None else T
        assert etable.z0 is etable.ztable.z0 and etable.ztable.T == T
        assert etable.ztable.series(0) == catalan_data(2, T).z0
        assert etable.entries[3].series.trunc == T


def test_build_etable_rejects_an_order_beside_a_z_table():
    # a given z-table's planar series sets the order, so a T beside it
    # would be ignored
    ztable = build_ztable(2, 2, T=16)
    with pytest.raises(RejectedInput, match="not both"):
        build_etable(2, 2, ztable=ztable, T=30)
    assert build_etable(2, 2, ztable=ztable).z0.trunc == 16


@pytest.mark.parametrize("G", [4, 8, 12])
def test_one_graded_chain_per_lift(monkeypatch, G):
    """Lift h enters the tau recursion at every genus above it, each time
    two orders deeper, so one stored chain per lift makes
    sum_h (2(G-h) + 2) = G^2 + 3G spatial steps over genera 2..G, where
    rebuilding the chain for every genus made about G^3/3.  The z-table's
    own jet chains are built before the count."""
    ztable = build_ztable(2, G)
    calls = []
    grade_dw = LogRational.grade_dw

    def counting(self, a):
        calls.append(a)
        return grade_dw(self, a)

    monkeypatch.setattr(LogRational, "grade_dw", counting)
    etable = build_etable(2, G, ztable=ztable)
    assert len(calls) == G * G + 3 * G
    assert sorted(etable.chains) == list(range(G))
    assert ETable(2, etable.ztable).chains == {}


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_theta_inverse_undoes_theta_plus_b(nu):
    rng = random.Random(nu)
    for b in (-9, -4, -1, 1, 2, 7):
        for top in (0, 1, 2, 3, 8):
            coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(top + 1)]
            x = LogRational(nu, DLaurent(nu, -top, coeffs))
            r = x.grade_dw(b)
            assert r.theta_inverse(b) == x
            # the D^-1 and D^-2 equations are surplus: moving either fails
            for pole in (1, 2):
                moved = r + LogRational(nu, DLaurent(nu, -pole, (1,)))
                with pytest.raises(ResonanceFailure, match="surplus"):
                    moved.theta_inverse(b)


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_theta_inverse_reaches_positive_powers(nu):
    # the z_g solve integrates (D/z0) z_g, which carries D^1; above the
    # constant each power k is fixed from the top down with pivot b - k
    rng = random.Random(10 + nu)
    for b in (-9, -1, 3, 7):
        for top, power in ((0, 1), (3, 1), (5, 2), (1, 2)):
            if 0 <= b <= power:
                continue
            coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(top + power)] + [Q(1)]
            x = LogRational(nu, DLaurent(nu, -top, coeffs))
            r = x.grade_dw(b)
            assert r.rat.lo + len(r.rat.num) - 1 == power
            assert r.theta_inverse(b) == x
            for pole in (1, 2):
                moved = r + LogRational(nu, DLaurent(nu, -pole, (1,)))
                with pytest.raises(ResonanceFailure, match="surplus"):
                    moved.theta_inverse(b)
    # a pivot b - k that vanishes leaves the D^k equation without a solution
    with pytest.raises(RejectedInput, match="zero pivot at D\\^1"):
        LogRational(nu, DLaurent(nu, 0, (1, 1))).theta_inverse(1)


def test_solve_eg_quartic_genus2(nu2):
    ztable, etable = nu2
    entry = etable.entries[2]
    assert entry.resonant_orders == (2, 3)
    assert entry.ratfn.den_pow == 5
    assert entry.r_factor == 3
    assert entry.laurent[0] == Q(1, 240)
    # series coefficients times m! are the labelled map counts
    assert entry.series.coeff(2) == 0  # faceless order
    assert entry.series.coeff(3) * 6 == 1440  # matches the matching oracle
    assert verify_genus_structure(2, 2, ztable, etable)["status"] == "pass"


def test_solve_eg_quartic_genus3(nu2):
    ztable, etable = nu2
    entry = etable.entries[3]
    assert entry.ratfn.den_pow == 10
    assert entry.r_factor == 5
    assert entry.laurent[0] == Q(-1, 1008)
    assert verify_genus_structure(2, 3, ztable, etable)["status"] == "pass"


def test_solve_eg_sextic_genus2():
    ztable = build_ztable(3, 2, T=22)
    etable = build_etable(3, 2, ztable=ztable)
    entry = etable.entries[2]
    assert entry.r_factor == 1
    assert verify_genus_structure(3, 2, ztable, etable)["status"] == "pass"


def test_e_deriv_cross_checks(nu2):
    ztable, etable = nu2
    for h, p in [(0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 4), (2, 1), (2, 2)]:
        E_w_derivs(etable, h, p)


def test_e1_derivative_pole_floor(nu2):
    _, etable = nu2
    d = E_w_derivs(etable, 1, 2)
    laur = laurent(d)
    assert laur[1] == 0  # minimal pole order >= p = 2
    assert laur[2] != 0


def test_e2_first_deriv_constant(nu2):
    _, etable = nu2
    d = E_w_derivs(etable, 2, 1)
    # one derivative of the genus-2 lift: constant (2-2k)_1 C = -2 C
    assert laurent(d)[0] == -2 * c_constant(2)


def test_vanishing_tables(nu2):
    _, etable = nu2
    for k in (1, 2, 3):
        rep = q_c_tables(2, k, 6, 6, etable.logrational(k))
        assert all(c["status"] == "pass" for c in rep["checks"])
    ztable3 = build_ztable(3, 2, T=22)
    etable3 = build_etable(3, 2, ztable=ztable3)
    rep = q_c_tables(3, 2, 5, 5, etable3.logrational(2))
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_planar_jet_formula_and_bundle(nu2):
    # the highest-jet bundle 1 - (2nu+1)(nu-1)/(nu(nu+1)) z0 + (nu-1)^2/(nu(nu+1)) z0^2
    # is divisible by D = nu - (nu-1) z0: its D^0 coefficient vanishes
    for nu in (2, 3):
        z = DLaurent.z(nu)
        quad = Q((nu - 1) ** 2, nu * (nu + 1)) * z ** 2 - Q((2 * nu + 1) * (nu - 1), nu * (nu + 1)) * z + 1
        assert quad.coeff(0) == 0
    _, etable = nu2
    for p in (3, 4, 5, 6):
        direct = etable.w_deriv(0, p)
        alt = planar_lift_deriv_formula(2, p)
        assert direct.rat == alt.rat and direct.c0 == alt.c0 == 0


def test_rhs_minimal_pole(nu2):
    ztable, etable = nu2
    rhs = hirota_rhs(2, 2, ztable, etable)
    laur = laurent(rhs)
    assert all(laur[p] == 0 for p in range(1, 4))


def test_map_count_integrality_and_support(nu2):
    """Coefficients of e_g times m! are non-negative labelled map counts,
    vanishing below the Euler-bound vertex minimum."""
    from math import factorial

    _, etable = nu2
    for g in (1, 2, 3):
        series = etable.series(g)
        for m in range(series.trunc + 1):
            count = series.coeff(m) * factorial(m)
            assert count.denominator == 1 and count >= 0
            if m * 1 < 2 * g - 1:  # nu = 2: m (nu-1) = m
                assert count == 0


def test_degree_matches_pole_order(nu2):
    """After removing the constant term the numerator degree is one below
    the pole order."""
    _, etable = nu2
    for g in (2, 3):
        entry = etable.entries[g]
        proper = (entry.rat - entry.laurent[0]).to_ratfn()
        assert proper.den_pow == 5 * g - 5
        assert proper.num.degree <= 5 * g - 6


def test_e_deriv_minimal_pole_direct(nu2):
    _, etable = nu2
    for k, p in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        laur = laurent(etable.w_deriv(k, p))
        for pole in range(1, 2 * k - 2 + p):
            assert laur[pole] == 0


def test_genus_series_against_tau_oracle(nu2):
    """Fully independent route to e_2 and e_3: the coupling coefficients of
    log tau2_n are terminating polynomials in 1/n^2, so exact fits over
    enough matrix sizes read off every genus coefficient directly from the
    Hankel tables."""
    from mapgenus.exact_kernel import solve_linear
    from mapgenus.lattice_oracle import WeightSpec, recurrence_table

    _, etable = nu2
    T = 8
    ns = list(range(6, 27, 2))
    logs = {}
    for n in ns:
        table = recurrence_table(WeightSpec(nu=2, g_s=Q(1, n)), n_max=n, T=T)
        logs[n] = table.tau2[n].log()
    for k in range(T + 1):
        gmax = k + 1
        use = ns[: gmax + 3]
        rows = [[Q(n) ** (2 - 2 * g) for g in range(gmax + 1)] for n in use]
        vals = [logs[n].coeff(0, k) for n in use]
        sol = solve_linear(rows, vals)
        scale = Q(-1, 4) ** k
        for g in (2, 3):
            fitted = sol[g] / scale if g <= gmax else Q(0)
            assert fitted == etable.series(g).coeff(k), (g, k)


def test_e3_resonant_readback_values(nu2):
    """The genus-3 resonant coefficients recovered by reconstruction: the
    faceless order vanishes and the one-face order carries the labelled
    count 58060800 = kappa at valence 4, five vertices (from the full
    19!! = 654,729,075 matching enumeration)."""
    from math import factorial

    _, etable = nu2
    e3 = etable.entries[3].series
    assert etable.entries[3].resonant_orders == (4, 5)
    assert e3.coeff(4) == 0
    assert e3.coeff(5) * factorial(5) == 58060800


def test_full_stack_at_valence_eight():
    """Out-of-sample validation at nu = 4: closed forms, hierarchy, lattice
    match and structure clauses all reproduce fresh matching counts."""
    from math import factorial

    from mapgenus.fatgraph_oracle import kappa_counts
    from mapgenus.lattice_oracle import asymptotic_match

    ztable = build_ztable(4, 2, T=24)
    assert verify_continuum_toda(4, 2, ztable)["status"] == "pass"
    assert asymptotic_match(4, 1, [4, 6, 8, 10], 3, ztable=ztable)["status"] == "pass"
    etable = build_etable(4, 2, ztable=ztable)
    assert verify_genus_structure(4, 2, ztable, etable)["status"] == "pass"
    one_vertex = kappa_counts(8, 1)
    assert etable.entries[2].series.coeff(1) == one_vertex[2] == 21
    two_vertex = kappa_counts(8, 2, cap=16)
    for g in (0, 1, 2):
        assert etable.series(g).coeff(2) * factorial(2) == two_vertex[g]


def test_e3_resonant_readback_at_five_vertices(nu2):
    """The one-face read-back of e_3 against the recursion's (4,5) counts,
    which build_etable also checks internally."""
    from math import factorial

    from mapgenus.fatgraph_oracle import kappa_counts

    _, etable = nu2
    counts = kappa_counts(4, 5, cap=20)
    assert counts == {0: 17915904, 1: 192098304, 2: 348033024, 3: 58060800}
    assert etable.entries[3].series.coeff(5) * factorial(5) == 58060800


# the full 19!! brute-force enumeration (~2 min compiled, ~50 min pure)
@pytest.mark.slow
def test_e3_resonant_readback_against_full_enumeration(nu2):
    from math import factorial

    from _mapcore_py import genus_tally

    _, etable = nu2
    counts, _ = genus_tally(4, 5)
    assert etable.entries[3].series.coeff(5) * factorial(5) == counts[3]


def test_zero_reconstruction_fails_pole_order(monkeypatch):
    # an e_g that reconstructs to zero has no pole, so it cannot pass as
    # the genus-g closed form
    from mapgenus.errors import VerificationFailure

    real = LogRational.theta_inverse

    def zero(self, b):
        return real(self, b) * 0

    ztable = build_ztable(2, 2, T=22)
    monkeypatch.setattr(LogRational, "theta_inverse", zero)
    with pytest.raises(VerificationFailure, match="pole order 0 at genus 2, expected 5"):
        build_etable(2, 2, ztable=ztable)
