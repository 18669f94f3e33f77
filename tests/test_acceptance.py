"""Acceptance suite: one test per criterion, every tolerance zero.

Each criterion prints a single PASS line on success (visible with -s); a
failing criterion fails its test outright.  The heavy shared tables are
module-scoped fixtures so the suite runs in minutes end to end.
"""

import pytest

from mapgenus.checks import box_coefficients, verify_string_antiderivative
from mapgenus.combinatorics import c_valence
from mapgenus.conservation import planar_lift_deriv_formula, q_c_tables, q_table
from mapgenus.continuum_even import (
    build_ztable,
    catalan_data,
    functional_residual,
    verify_continuum_toda,
)
from mapgenus.errors import NoMatchingExists
from mapgenus.exact_kernel import Poly, Q
from mapgenus.fatgraph_oracle import (
    double_factorial,
    eg_series_from_kappa,
    kappa_counts,
    kappa_tally,
)
from mapgenus.genus_even import (
    E_w_derivs,
    build_etable,
    c_constant,
    face_count,
    hirota_rhs,
    resonance_lambda,
    verify_genus_structure,
)
from mapgenus.lattice_oracle import (
    WeightSpec,
    asymptotic_match,
    recurrence_table,
    verify_hirota,
    verify_lattice_equations,
)
from mapgenus import continuum_odd


@pytest.fixture(scope="module")
def quartic():
    ztable = build_ztable(2, 3, T=27)
    etable = build_etable(2, 3, ztable=ztable)
    return ztable, etable


@pytest.fixture(scope="module")
def sextic():
    ztable = build_ztable(3, 2, T=22)
    etable = build_etable(3, 2, ztable=ztable)
    return ztable, etable


def test_criterion_01_higher_catalan():
    data = catalan_data(2, 20)
    assert list(data.zetas[:6]) == [1, 2, 5, 14, 42, 132]
    assert functional_residual(data.z0, 2, data.c).is_zero()
    for nu in range(1, 11):
        c_valence(nu)  # raises if the two closed forms disagree
    print("ACCEPTANCE 1 (higher Catalan data): PASS")


def test_criterion_02_hierarchy_coefficients():
    for nu in range(1, 9):
        assert box_coefficients(nu, 1, "toda")[(0,) * nu + (1,)] == c_valence(nu)
    for nu, g in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        assert verify_string_antiderivative(nu, g)["status"] == "pass"
    print("ACCEPTANCE 2 (hierarchy coefficients and spatial exactness): PASS")


def test_criterion_03_lattice_oracle():
    for n in range(3, 9):
        spec = WeightSpec(nu=2, g_s=Q(1, n), include_t1=True)
        table = recurrence_table(spec, n_max=n + 3, T=5)
        assert verify_lattice_equations(table, "string")["status"] == "pass"
        assert verify_lattice_equations(table, "toda")["status"] == "pass"
        assert verify_lattice_equations(table, "toda_t1")["status"] == "pass"
        assert verify_hirota(table)["status"] == "pass"
    print("ACCEPTANCE 3 (finite-size lattice identities, residual 0): PASS")


def test_criterion_04_asymptotic_match(quartic):
    ztable, _ = quartic
    for G in (1, 2):
        report = asymptotic_match(2, G, [4, 6, 8, 10, 12], 3, ztable=ztable)
        assert report["status"] == "pass"
    # beyond the required orders: the genus-2 coefficients appear exactly
    report = asymptotic_match(2, 2, [4, 6, 8, 10, 12], 5, ztable=ztable)
    assert all(o["exact"] for o in report["orders"])
    print("ACCEPTANCE 4 (asymptotic match against the finite-size tables): PASS")


def divides(d, p):
    """True when the polynomial d divides p exactly."""
    return p.divmod(d)[1].is_zero()


def test_criterion_05_two_leg_structure(quartic, sextic):
    tables = {2: quartic[0], 3: sextic[0]}
    for nu, g in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        entry = tables[nu].entries[g]
        assert entry.ratfn.den_pow == 5 * g - 1
        assert divides(Poly([0, 1]), entry.ratfn.num)
        assert divides(Poly([-1, 1]), entry.ratfn.num)
        assert entry.laurent[5 * g - 1] != 0
        surplus = tables[nu].T - len(entry.ratfn.num.c)
        assert surplus >= 10
        assert verify_continuum_toda(nu, g, tables[nu])["status"] == "pass"
    print("ACCEPTANCE 5 (two-leg closed forms and pole structure): PASS")


def test_criterion_06_fatgraph_ground_truth(quartic):
    assert kappa_counts(4, 1) == {0: 2, 1: 1}
    assert kappa_counts(3, 2) == {0: 12, 1: 3}
    for j, m in [(4, 1), (4, 2), (4, 3), (4, 4), (3, 2), (3, 4)]:
        counts, disc = kappa_tally(j, m)
        assert sum(counts.values()) + disc == double_factorial(j * m - 1)
    _, etable = quartic
    for g in (0, 1, 2):
        oracle = eg_series_from_kappa(4, g, 4)
        series = etable.series(g)
        for m in range(1, 5):
            assert series.coeff(m) == oracle.coeff(m) * 4 ** m
    assert continuum_odd.trivalent_checks(T=4, m_max=4)["status"] == "pass"
    print("ACCEPTANCE 6 (matching-oracle ground truth): PASS")


def test_criterion_07_genus_structure_end_to_end(quartic, sextic):
    ztable, etable = quartic
    for g, r, const in [(2, 3, Q(1, 240)), (3, 5, Q(-1, 1008))]:
        entry = etable.entries[g]
        assert verify_genus_structure(2, g, ztable, etable)["status"] == "pass"
        assert entry.laurent[0] == c_constant(g) == const
        num = entry.ratfn.num
        for _ in range(r):
            num = num // Poly([-1, 1])
        assert not divides(Poly([-1, 1]), num)
        # exact top-coefficient relation to the two-leg data: the top pole
        # comes only from the single-part term of the log expansion, whose
        # standard normalization carries weight 1
        top = entry.laurent[5 * g - 5]
        a_top = ztable.top_coefficient(g)
        assert top * (5 * g - 5) * (5 * g - 3) * 4 == a_top
    ztable3, etable3 = sextic
    assert etable3.entries[2].r_factor == 1
    assert verify_genus_structure(3, 2, ztable3, etable3)["status"] == "pass"
    print("ACCEPTANCE 7 (genus structure theorem end to end): PASS")


def test_criterion_08_resonance_law(quartic, sextic):
    for nu in range(2, 5):
        for g in range(5):
            Qt = q_table(nu, g, 2)
            for m in range(31):
                lam = (
                    Qt[(2, 0)]
                    + (nu - 1) * Qt[(2, 1)] * m
                    + (nu - 1) ** 2 * Qt[(2, 2)] * m * (m - 1)
                )
                assert lam == resonance_lambda(nu, g, m)
                F = face_count(nu, g, m)
                assert (lam == 0) == (F in (0, 1))
    # solvability at every faceless resonant order encountered by the solves
    cases = [(2, 2, quartic), (2, 3, quartic), (3, 2, sextic)]
    for nu, g, (ztable, etable) in cases:
        rhs = hirota_rhs(nu, g, ztable, etable).series(etable)
        for m in range(rhs.trunc + 1):
            if face_count(nu, g, m) == 0:
                assert rhs.coeff(m) == 0
    print("ACCEPTANCE 8 (resonance law and solvability): PASS")


def test_criterion_09_derivative_lemma_suite(quartic, sextic):
    _, etable = quartic
    for k in (1, 2, 3):
        rep = q_c_tables(2, k, 6, 6, etable.logrational(k))
        assert all(c["status"] == "pass" for c in rep["checks"])
    _, etable3 = sextic
    rep = q_c_tables(3, 2, 6, 6, etable3.logrational(2))
    assert all(c["status"] == "pass" for c in rep["checks"])
    for nu, et in [(2, etable), (3, etable3)]:
        for p in (3, 4, 5, 6):
            direct = E_w_derivs(et, 0, p)
            alt = planar_lift_deriv_formula(nu, p)
            assert direct.rat == alt.rat
    print("ACCEPTANCE 9 (derivative lemma suite): PASS")


def test_criterion_10_odd_valence():
    for nu in (1, 2, 3):
        assert continuum_odd.verify_odd_identities(nu)["status"] == "pass"
    for nu in (1, 2, 3):
        pair = continuum_odd.solve_leading_odd(nu, 10)
        P = continuum_odd.odd_coeff_polys(pair.nu)
        assert continuum_odd.verify_leading_residuals(pair, P)["status"] == "pass"
    report = continuum_odd.trivalent_checks(T=4, m_max=4)
    pairs = {(c["g"], c["m"]) for c in report["comparisons"]}
    assert {(0, 2), (0, 4), (1, 2), (1, 4), (2, 4)} <= pairs
    with pytest.raises(NoMatchingExists):
        kappa_counts(3, 3)
    print("ACCEPTANCE 10 (odd-valence leading order and golden values): PASS")
