import pytest

from mapgenus import continuum_odd
from mapgenus.continuum_odd import (
    GradedPowers,
    TriPoly,
    odd_coeff_polys,
    solve_leading_odd,
    trinomial,
    trivalent_checks,
    trivalent_closed_forms,
    trivalent_z0,
    verify_leading_residuals,
    verify_odd_identities,
)
from mapgenus.errors import NoMatchingExists, VerificationFailure
from mapgenus.exact_kernel import GradedSeries, Q
from mapgenus.fatgraph_oracle import kappa_counts


def test_coefficient_polys_trivalent():
    P = odd_coeff_polys(1)
    assert P["Psi1"] == TriPoly.monomial(3, f=2) + TriPoly.monomial(3, h=2, f=1)
    assert P["B11"] == TriPoly.monomial(2, h=1, f=1)
    assert P["B12"] == TriPoly.monomial(2, f=1) + TriPoly.monomial(1, h=2)
    assert P["A12"] == TriPoly.monomial(6, s=1)
    assert P["A11"] == TriPoly.monomial(1) + TriPoly.monomial(6, s=1, h=1)
    assert P["Psi2"] == TriPoly.monomial(3, h=1, f=2)


def test_odd_identities():
    for nu in (1, 2, 3):
        assert verify_odd_identities(nu)["status"] == "pass"


def test_pure_flux_reduction():
    # with the odd field switched off the first flux is a single power term
    for nu in (1, 2, 3):
        P = odd_coeff_polys(nu)
        pure = {
            (s, h, f): v for (s, h, f), v in P["Psi1"].terms.items() if h == 0
        }
        assert pure == {
            (0, 0, nu + 1): Q(trinomial(2 * nu + 1, 0, nu, nu + 1))
        }


def test_solve_leading_trivalent_first_order():
    pair = solve_leading_odd(1, 6)
    # h0 = -6 s w + O(s^3), f0 = w + O(s^2)
    assert pair.h0.coeff(1) == -6 and pair.h0.base2 == 1
    assert pair.f0.coeff(0) == 1 and pair.f0.coeff(1) == 0
    assert pair.h0.coeff(0) == 0 and pair.h0.coeff(2) == 0


def test_leading_residuals_to_order_ten():
    for nu in (1, 2):
        pair = solve_leading_odd(nu, 10)
        assert verify_leading_residuals(pair, odd_coeff_polys(pair.nu))["status"] == "pass"


def test_trivalent_z0_series():
    z = trivalent_z0(4)
    assert z.coeff(0) == 1 and z.coeff(1) == 36
    # functional equation residual
    from mapgenus.exact_kernel import Series

    tau = Series.x("tau", 4)
    assert (z * z - 72 * tau * z ** 3 - 1).is_zero()


def test_trivalent_golden_series_leading_terms():
    forms = trivalent_closed_forms(4)
    assert forms[0].coeff(1) == 6
    assert forms[1].coeff(1) == Q(3, 2)
    assert forms[0].coeff(0) == 0 and forms[1].coeff(0) == 0 and forms[2].coeff(0) == 0


def test_trivalent_checks_against_matchings():
    report = trivalent_checks(T=4, m_max=4)
    assert report["status"] == "pass"
    pairs = {(c["g"], c["m"]) for c in report["comparisons"]}
    assert (0, 2) in pairs and (1, 4) in pairs and (2, 4) in pairs


def test_genus_parity_no_matching_on_odd_vertices():
    with pytest.raises(NoMatchingExists):
        kappa_counts(3, 3)


def test_mu_zero_term_is_forced():
    """Dropping the flat-step-free term of the second transport coefficient
    breaks the conservation-form identity."""
    P = odd_coeff_polys(1)
    broken = P["B12"] - TriPoly.monomial(2, f=1)
    assert P["Psi1"].d_f() != 3 * broken
    assert P["Psi1"].d_f() == 3 * P["B12"]


def eval_full(poly, h, f):
    """poly on (h, f), each monomial multiplied out on its own by powers."""
    total = GradedSeries.const(h.var, 0, 0, h.step2, h.trunc)
    for (sdeg, hdeg, fdeg), coeff in poly.terms.items():
        term = GradedSeries.const(h.var, coeff, 0, h.step2, h.trunc) * h ** hdeg * f ** fdeg
        total = total + term.xmul(sdeg)
    return total


def full_truncation_fixed_point(nu, T):
    """The hodograph iteration with every pass at the full truncation T,
    stopped when a pass changes nothing."""
    P = odd_coeff_polys(nu)
    w = 2 * nu + 1
    step2 = 2 * nu - 1
    h = GradedSeries("s", [0], base2=1, step2=step2, trunc=T)
    f = GradedSeries("s", [1], base2=2, step2=step2, trunc=T)
    w_series = GradedSeries("s", [1], base2=2, step2=step2, trunc=T)
    for _ in range(T + 1):
        h_new = -w * eval_full(P["B12"], h, f).xmul(1)
        f_new = w_series - w * eval_full(P["B11"], h, f).xmul(1)
        if h_new == h and f_new == f:
            break
        h, f = h_new, f_new
    return h, f


def test_growing_truncation_matches_full_truncation_fixed_point():
    for nu in (1, 2, 3, 4):
        for T in (1, 2, 3, 8, 24):
            pair = solve_leading_odd(nu, T)
            h, f = full_truncation_fixed_point(nu, T)
            for got, want in ((pair.h0, h), (pair.f0, f)):
                assert (got.c, got.base2, got.step2, got.trunc) == (
                    want.c,
                    want.base2,
                    want.step2,
                    want.trunc,
                ), (nu, T)


def test_shared_powers_evaluate_like_monomials():
    pair = solve_leading_odd(3, 9)
    for name, poly in odd_coeff_polys(3).items():
        assert poly.eval_graded(pair.powers) == eval_full(poly, pair.h0, pair.f0), name


def test_verify_odd_work_bound(monkeypatch):
    """`verify odd --nu 4 --order 24` takes at most 1,000 graded products
    (82 once the fixed point is fixed order by order on integers, 754 with
    a graded pass per order) and runs the residual suite once;
    full-truncation passes with a power per monomial and a second residual
    run take 2,788."""
    calls = []
    mul = GradedSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(GradedSeries, "__mul__", counted)
    monkeypatch.setattr(GradedSeries, "__rmul__", counted)
    suites = []
    residuals = continuum_odd.verify_leading_residuals

    def once(pair, P=None):
        suites.append(pair.h0.trunc)
        return residuals(pair, P)

    monkeypatch.setattr(continuum_odd, "verify_leading_residuals", once)
    assert continuum_odd.payload_verify_odd(4, 24)["status"] == "pass"
    assert suites == [24]
    assert len(calls) <= 1000


def test_hodograph_residual_checked_at_full_truncation(monkeypatch):
    """Orders left wrong at the top of the pair are caught by the
    hodograph residuals, checked at the full truncation."""
    orders = continuum_odd._leading_orders

    def short(nu, T, P):
        h, f = orders(nu, T, P)
        return h[:-2] + [0, 0], f[:-2] + [0, 0]

    monkeypatch.setattr(continuum_odd, "_leading_orders", short)
    with pytest.raises(VerificationFailure, match="hodograph fixed point"):
        solve_leading_odd(2, 6)


def pass_loop_fixed_point(nu, T):
    """The pair by T passes of the hodograph map, pass p re-evaluating
    every power of the previous pass's pair at truncation p."""
    P = odd_coeff_polys(nu)
    w = 2 * nu + 1
    step2 = 2 * nu - 1

    def widen(g, p):
        return GradedSeries(g.var, list(g.c), g.base2, g.step2, p)

    h = GradedSeries("s", [0], base2=1, step2=step2, trunc=0)
    f = GradedSeries("s", [1], base2=2, step2=step2, trunc=0)
    for p in range(1, T + 1):
        powers = GradedPowers(widen(h, p), widen(f, p))
        h = -w * P["B12"].eval_graded(powers).xmul(1)
        f = GradedSeries("s", [1], 2, step2, p) - w * P["B11"].eval_graded(powers).xmul(1)
    return h, f


def test_fixed_point_orders_match_the_pass_loop():
    for nu, T in ((1, 1), (1, 9), (2, 12), (3, 7), (4, 24), (5, 16)):
        h, f = pass_loop_fixed_point(nu, T)
        hs, fs = continuum_odd._leading_orders(nu, T, odd_coeff_polys(nu))
        assert (list(h.c), list(f.c)) == (hs, fs), (nu, T)
        assert all(type(x) is int for x in hs + fs)
        pair = solve_leading_odd(nu, T)
        assert (pair.h0, pair.f0) == (h, f)
