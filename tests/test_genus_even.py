import pytest

from mapgenus.continuum_even import build_ztable, verify_continuum_toda
from mapgenus.exact_kernel import Poly, Q, RatFn
from mapgenus.genus_even import (
    E_w_derivs,
    base_poly,
    build_etable,
    c_constant,
    closed_e0_e1,
    face_count,
    hirota_rhs,
    log_term_ratfn,
    planar_lift_deriv_formula,
    q_c_tables,
    q_table,
    resonance_lambda,
    solve_eg,
    top_jet_bundle_is_regularized,
    verify_genus_structure,
)


@pytest.fixture(scope="module")
def nu2():
    ztable = build_ztable(2, 3, T=27)
    etable = build_etable(2, 3, ztable=ztable)
    return ztable, etable


def test_closed_forms_basic_values():
    e0, e1 = closed_e0_e1(2)
    # e0 vanishes at z0 = 1 (both summands)
    assert e0.rat.eval(1) == 0 and e0.c0 == Q(1, 2)
    # d e0/dz0 at z0=1 equals 1/6 for the quartic case
    slope = e0.rat.derivative().eval(1) + Q(1, 2)  # log z0 contributes 1/z0
    assert slope == Q(1, 6)
    assert e1.c1 == Q(-1, 12) and e1.rat.is_zero()


def test_e_series_match_map_counts(nu2):
    ztable, etable = nu2
    s0 = etable.series(0)
    s1 = etable.series(1)
    # coefficients are kappa/m! in the scaled map variable
    assert [s0.coeff(m) for m in (1, 2, 3)] == [2, 18, 288]
    assert [s1.coeff(m) for m in (1, 2, 3)] == [1, 30, 1056]


def test_du_rules():
    from mapgenus.genus_even import LogRational, du_logrational

    e0, e1 = closed_e0_e1(2)
    # d/du log z0 = c z0^nu / D, read off from the log part of e0
    pure_log = LogRational(2, RatFn.const(0, "z0"), c0=Q(1))
    assert du_logrational(pure_log).rat == RatFn(12 * Poly.x() ** 2, base_poly(2), 1, "z0")
    # d/du log(nu-(nu-1)z0) = -(nu-1) c z0^(nu+1)/D^2, checked through e1
    d_e1 = e1.du()
    expected = RatFn(Q(1, 12) * Poly.x() ** 3 * 12, base_poly(2), 2, "z0")
    assert d_e1.rat == expected and d_e1.is_rational()
    # constants die
    zero = (e1 - e1).du()
    assert zero.rat.is_zero()


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
    assert (lhs - rhs).rat == RatFn.const(0, "z0")
    assert lhs.c0 == rhs.c0 and lhs.c1 == rhs.c1


def test_log_term_generic_values(nu2):
    ztable, _ = nu2
    z1 = ztable.ratfn(1)
    z2 = ztable.ratfn(2)
    z0 = RatFn.from_poly(Poly.x(), "z0")
    expected = z2 / z0 - (z1 / z0) * (z1 / z0) * Q(1, 2)
    assert log_term_ratfn(2, ztable) == expected


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
        E_w_derivs(etable, h, p, cross_check=True)


def test_e1_derivative_pole_floor(nu2):
    _, etable = nu2
    d = E_w_derivs(etable, 1, 2, cross_check=True)
    laur = d.laurent()
    assert laur[1] == 0  # minimal pole order >= p = 2
    assert laur[2] != 0


def test_e2_first_deriv_constant(nu2):
    _, etable = nu2
    d = E_w_derivs(etable, 2, 1, cross_check=True)
    # one derivative of the genus-2 lift: constant (2-2k)_1 C = -2 C
    assert d.laurent()[0] == -2 * c_constant(2)


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
    for nu in (2, 3):
        assert top_jet_bundle_is_regularized(nu)
    _, etable = nu2
    for p in (3, 4, 5, 6):
        direct = E_w_derivs(etable, 0, p, cross_check=False)
        alt = planar_lift_deriv_formula(2, p)
        assert direct.rat == alt.rat and direct.c0 == alt.c0 == 0


def test_rhs_minimal_pole(nu2):
    ztable, etable = nu2
    rhs = hirota_rhs(2, 2, ztable, etable)
    laur = rhs.laurent()
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
    from mapgenus.exact_kernel import RatFn

    _, etable = nu2
    for g in (2, 3):
        entry = etable.entries[g]
        proper = entry.ratfn - RatFn.const(entry.laurent[0], "z0")
        assert proper.den_pow == 5 * g - 5
        assert proper.num.degree <= 5 * g - 6


def test_e_deriv_minimal_pole_direct(nu2):
    _, etable = nu2
    for k, p in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        laur = E_w_derivs(etable, k, p, cross_check=False).laurent()
        for pole in range(1, 2 * k - 2 + p):
            assert laur[pole] == 0


def test_genus_series_against_tau_oracle(nu2):
    """Fully independent route to e_2 and e_3: the coupling coefficients of
    log tau2_n are terminating polynomials in 1/n^2, so exact fits over
    enough matrix sizes read off every genus coefficient directly from the
    Hankel tables."""
    from math import comb

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


@pytest.mark.skipif(
    "MAPGENUS_SLOW" not in __import__("os").environ,
    reason="full 19!! brute-force enumeration (~2 min compiled, ~50 min pure); set MAPGENUS_SLOW=1",
)
def test_e3_resonant_readback_against_full_enumeration(nu2):
    from math import factorial

    from mapgenus.fatgraph_oracle import genus_tally_pure

    _, etable = nu2
    counts, _ = genus_tally_pure(4, 5)
    assert etable.entries[3].series.coeff(5) * factorial(5) == counts[3]

