from math import comb, factorial, prod

import pytest

from mapgenus.checks import (
    hodograph_solution,
    string_jets,
    toda_jet,
    verify_burgers,
    verify_string_antiderivative,
    verify_string_functional,
)
from mapgenus.combinatorics import LatticePolynomial, c_valence, lattice_equation_exprs, painleve_a
from mapgenus.continuum_even import (
    LogRational,
    _jet_polynomials,
    build_ztable,
    catalan_data,
    expand_lattice_polynomial,
    functional_residual,
    verify_continuum_toda,
)
from mapgenus.errors import RejectedInput, VerificationFailure
from mapgenus.exact_kernel import DLaurent, GradedSeries, Poly, Q, RatFn, Series, ratfn_to_series, series_to_ratfn


def divides(d, p):
    """True when the polynomial d divides p exactly."""
    return p.divmod(d)[1].is_zero()


def test_catalan_data_examples():
    data = catalan_data(2, 6)
    assert data.c == 12
    assert list(data.zetas) == [1, 2, 5, 14, 42, 132]
    assert catalan_data(3, 2).zetas[1] == 3
    assert data.z0.coeff(0) == 1 and data.z0.coeff(1) == 12


def test_string_functional_residual_and_negative_control():
    assert verify_string_functional(2, 20, catalan_data(2, 20))["status"] == "pass"
    assert verify_string_functional(5, 10, catalan_data(5, 10))["status"] == "pass"
    data = catalan_data(2, 6)
    bad = list(data.z0.c)
    bad[3] += 1
    res = functional_residual(Series("u", bad, 6), 2, data.c)
    assert res.coeff(3) != 0 and all(res.coeff(k) == 0 for k in range(3))


def test_burgers_and_hodograph():
    for nu in (1, 2, 3):
        assert verify_burgers(nu, 10, catalan_data(nu, 10))["status"] == "pass"
    sol = hodograph_solution(2, 8, catalan_data(2, 8))
    # f0 = w z0(u w) carries weight w^(1+j) at order u^j
    assert sol.f0.base2 == 2 and sol.f0.step2 == 2


def test_toda_jet_leading_terms():
    # keyed by the ascending orders, padded with a 0 per bare f
    assert toda_jet(2, 0) == {(0, 0, 1): 12}
    assert toda_jet(1, 0) == {(0, 1): 2}
    # nu=1, g=1: only the single-part partition of 3 survives the length cap,
    # and the two-part partition has vanishing box coefficient
    assert toda_jet(1, 1) == {(0, 3): Q(1, 3)}
    # against the brute-force box sums: divided by prod lambda_j! and by no
    # repeated-part count, and no lambda with a zero sum is kept
    from _box_reference import d_coeff, partitions_of

    for nu in (1, 2, 3, 4):
        for g in (0, 1, 2):
            reference = {}
            for lam in partitions_of(2 * g + 1, max_len=nu + 1):
                key = tuple(sorted(lam + (0,) * (nu + 1 - len(lam))))
                reference[key] = d_coeff(nu, lam, "toda") / prod(map(factorial, lam))
            assert toda_jet(nu, g) == {lam: q for lam, q in reference.items() if q}, (nu, g)


def test_string_antiderivative_identity():
    for nu, g in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        assert verify_string_antiderivative(nu, g)["status"] == "pass"


@pytest.fixture
def skewed_string_box(monkeypatch):
    """The string box less its first point: no longer antisymmetric, so its
    string-side jets F do not vanish, while the antiderivative identity,
    being algebraic, still holds on it."""
    from mapgenus import checks

    real = checks.box_points

    def skewed(nu, variant):
        points = real(nu, variant)
        return points[1:] if variant == "string" else points

    monkeypatch.setattr(checks, "box_points", skewed)


def test_string_jets_partition_filter(skewed_string_box):
    F, _ = string_jets(2, 1)
    # partitions of 3 with at most 2 parts, (3) and (2,1), padded to 2 slots
    assert F and set(F) <= {(0, 3), (1, 2)}
    assert all(sum(lam) == 3 and len(lam) == 2 for lam in F)


def test_solve_z1_closed_form():
    table = build_ztable(2, 1)
    entry = table.entries[1]
    expected = RatFn(Q(2, 3) * Poly([0, 1]) * Poly([-1, 1]) ** 2, Poly([2, -1]), 4)
    got = entry.ratfn  # equal in value: num times the other's denominator
    assert got.num * expected.den_base ** expected.den_pow == expected.num * got.den_base ** got.den_pow
    assert [table.series(1).coeff(k) for k in range(4)] == [0, 0, 96, 10368]
    # partial fractions of z1/z0: (2/3)(1/D^4 - 2/D^3 + 1/D^2)
    assert entry.laurent[4] == Q(2, 3)
    assert entry.laurent[3] == Q(-4, 3)
    assert entry.laurent[2] == Q(2, 3)
    assert entry.laurent[0] == 0 and entry.laurent[1] == 0


def test_solve_zg_structure_nu2_g2():
    table = build_ztable(2, 2)
    entry = table.entries[2]
    assert entry.ratfn.den_pow == 9
    assert divides(Poly([0, 1]), entry.ratfn.num)
    assert divides(Poly([-1, 1]), entry.ratfn.num)
    series = table.series(2)
    assert series.coeff(0) == 0 and series.trunc == table.T
    # round trip: the series reconstructs to the rational form it came from
    back = series_to_ratfn(series, table.series(0), Poly([2, -1]), 6, 9)
    assert (back.num, back.den_base, back.den_pow) == (entry.ratfn.num, entry.ratfn.den_base, entry.ratfn.den_pow)


def test_solve_zg_nu3():
    table = build_ztable(3, 1)
    entry = table.entries[1]
    assert entry.ratfn.den_pow == 4
    assert entry.laurent[0] == 0 and entry.laurent[1] == 0
    assert entry.laurent[4] != 0


def test_continuum_hierarchy_on_solved_family():
    table = build_ztable(2, 2, T=14)
    assert verify_continuum_toda(2, 1, table)["status"] == "pass"
    assert verify_continuum_toda(2, 2, table)["status"] == "pass"
    table3 = build_ztable(3, 1, T=12)
    assert verify_continuum_toda(3, 1, table3)["status"] == "pass"
    table4 = build_ztable(4, 1, T=10)
    assert verify_continuum_toda(4, 1, table4)["status"] == "pass"


def test_string_antiderivative_beyond_acceptance():
    for nu, g in [(4, 1), (4, 2), (3, 3), (2, 3)]:
        assert verify_string_antiderivative(nu, g)["status"] == "pass"


def test_string_box_coefficients_vanish_by_antisymmetry():
    """The string-side staircase box is carried to itself by
    mu_i -> 2 nu - mu_(nu+1-i), the reference staircase is self-dual, and
    the separation vector negates; odd-size monomial sums therefore cancel
    pairwise and every string-variant box coefficient is exactly zero.
    (The antiderivative identity is still a real constraint on the slot
    construction, whose terms are individually nonzero.)"""
    from _box_reference import d_coeff, partitions_of, strict_partitions_in_box
    from mapgenus.checks import box_coefficients

    for nu in (2, 3, 4):
        for g in (1, 2):
            # the collection keeps only nonzero sums, so it is empty
            assert box_coefficients(nu, 2 * g + 1, "string") == {}
            for lam in partitions_of(2 * g + 1, max_len=nu):
                assert d_coeff(nu, lam, "string") == 0
        # the involution explanation: the box is closed under the dual map
        lower = tuple(range(nu, 0, -1))
        upper = tuple(range(2 * nu - 1, nu - 1, -1))
        box = strict_partitions_in_box(lower, upper)
        duals = {tuple(2 * nu - m for m in reversed(mu)) for mu in box}
        assert duals == set(box)
    # the toda-side staircase is not self-dual and its coefficients survive
    assert box_coefficients(2, 3, "toda")[(0, 0, 3)] == d_coeff(2, (3,), "toda") != 0


def test_planar_coefficients_strictly_positive():
    for nu in (2, 3, 4):
        data = catalan_data(nu, 10)
        assert all(z > 0 for z in data.zetas)
        assert all(c > 0 for c in data.z0.c)


def test_burgers_coefficient_counts_paths():
    from _path_reference import lattice_paths
    from mapgenus.checks import box_coefficients

    for nu in (1, 2, 3):
        assert box_coefficients(nu, 1, "toda")[(0,) * nu + (1,)] == (nu + 1) * len(lattice_paths(2 * nu, 2, 0))


# -- schoolbook reference for the lattice expansion ---------------------------
# An eps-poly is a list indexed by the power of 1/n; every lattice site is
# expanded into one and the products are multiplied out in full.


def _eps_mul(a, b, N):
    out = [None] * (N + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x is None or y is None or i + j > N:
                continue
            out[i + j] = x * y if out[i + j] is None else out[i + j] + x * y
    return out


def _reference_expansion(expr, z_series, nu, N):
    """Order-N coefficient of the two-scale substitution, term by term."""
    step2 = 2 * (nu - 1)
    trunc = z_series[0].trunc
    derivs = []
    for h, zs in enumerate(z_series):
        row = [GradedSeries.from_series(zs, base2=2 - 4 * h, step2=step2)]
        while len(row) <= N:
            row.append(row[-1].dw())
        derivs.append(row)

    def site_factor(kappa):
        out = [None] * (N + 1)
        for h, row in enumerate(derivs):
            for j in range(N - 2 * h + 1):
                term = row[j] * Q(kappa ** j, factorial(j))
                out[2 * h + j] = term if out[2 * h + j] is None else out[2 * h + j] + term
        return out

    total = None
    for (t_deg, b_off), coeff in expr.terms.items():
        eps = [GradedSeries.const("u", coeff, 0, step2, trunc)] + [None] * N
        for kappa in b_off:
            eps = _eps_mul(eps, site_factor(kappa), N)
        top = eps[N]
        if top is None:
            continue
        if t_deg:
            top = (top * Q(-2 * nu) ** t_deg).xmul(t_deg)
        total = top if total is None else total + top
    return total


def z_list(table, g_max):
    return [table.series(h) for h in range(g_max + 1)]


def at_w1(value, table):
    """A ring value at w = 1 as the series of coefficients in u."""
    return ratfn_to_series(value.to_ratfn(), table.series(0)).c


def same_as_reference(got, want, table):
    """The ring collection (weight, value) against a reference GradedSeries:
    the weight is the series' weight, and the value its coefficients."""
    weight, value = got
    return 2 * weight == want.base2 and at_w1(value, table) == want.c


def test_lattice_expansion_matches_schoolbook_products():
    for nu, g_top, T in ((2, 5, 14), (3, 4, 12), (4, 3, 10)):
        table = build_ztable(nu, g_top - 1, T=T)
        expr = lattice_equation_exprs(nu, "string")
        for g in range(1, g_top + 1):
            N = 2 * g + 1
            got = expand_lattice_polynomial(expr, table, g - 1, N)
            want = _reference_expansion(expr, z_list(table, g - 1), nu, N)
            assert same_as_reference(got, want, table), (nu, g)


def test_lattice_expansion_sees_every_term():
    # bumping one lattice coefficient by 1 adds exactly that monomial's
    # expansion, so a collector that drops or merges terms wrongly fails
    nu, g = 2, 2
    N = 2 * g + 1
    table = build_ztable(nu, g - 1, T=10)
    expr = lattice_equation_exprs(nu, "string")
    weight, base = expand_lattice_polynomial(expr, table, g - 1, N)
    for key in sorted(expr.terms):
        t_deg, b_off = key
        if not any(b_off):
            continue
        bumped = LatticePolynomial(dict(expr.terms))
        bumped.terms[key] += 1
        got_weight, got = expand_lattice_polynomial(bumped, table, g - 1, N)
        single = LatticePolynomial({(t_deg, b_off): 1})
        delta = _reference_expansion(single, z_list(table, g - 1), nu, N)
        assert not delta.is_zero()
        assert got != base and got_weight == weight
        assert same_as_reference((weight, got - base), delta, table), key


# -- ring evaluation against the series Horner form ---------------------------


def series_jet(table, h, j):
    """dw^j f_h as a GradedSeries, by j termwise derivatives of the lift."""
    jet = GradedSeries.from_series(table.series(h), 2 - 4 * h, 2 * (table.nu - 1))
    for _ in range(j):
        jet = jet.dw()
    return jet


def series_horner(node, table):
    """The series Horner value of a jet trie: one GradedSeries product per
    prefix symbol and one scaling per last symbol."""
    total = None
    for sym, child in node.items():
        term = series_jet(table, *sym) * (series_horner(child, table) if type(child) is dict else child)
        total = term if total is None else total + term
    return total


def series_evaluate(poly, table):
    trie = {}
    for mono, c in poly.items():
        if c:
            node = trie
            for sym in mono[:-1]:
                node = node.setdefault(sym, {})
            node[mono[-1]] = c
    return series_horner(trie, table) if trie else None


def random_jet_polynomial(rng, gmax, length, order, count):
    """Monomials of one length and one 1/n order (so of one w-weight) over
    the symbols (h, j), with random and sometimes cancelling coefficients."""
    poly = {}
    for _ in range(count):
        cuts = sorted(rng.randint(0, order) for _ in range(length - 1))
        mono = []
        for a, b in zip([0] + cuts, cuts + [order]):
            h = rng.randint(0, min(gmax, (b - a) // 2))
            mono.append((h, b - a - 2 * h))
        mono = tuple(sorted(mono))
        poly[mono] = poly.get(mono, 0) + Q(rng.randint(-9, 9), rng.randint(1, 12))
    return poly


def test_integer_evaluation_matches_fraction_horner_randomized(monkeypatch):
    # the ring value at w = 1 of a jet polynomial against the Horner value
    # of the same polynomial on the graded series jets
    import random

    from mapgenus import continuum_even

    rng = random.Random(7)
    for nu in (2, 3, 4):
        table = build_ztable(nu, 2, T=12)
        for _ in range(12):
            poly = random_jet_polynomial(rng, 2, rng.randint(1, 4), rng.randint(0, 6), rng.randint(1, 9))
            got = continuum_even._ring_value(poly, table)
            want = series_evaluate(poly, table)
            assert got.is_zero() if want is None else at_w1(got, table) == want.c
        # and every polynomial the engine itself collects
        seen = []
        evaluate = continuum_even._ring_value
        monkeypatch.setattr(
            continuum_even, "_ring_value", lambda poly, tab: seen.append((dict(poly), tab)) or evaluate(poly, tab)
        )
        expand_lattice_polynomial(lattice_equation_exprs(nu, "string"), table, 1, 5)
        verify_continuum_toda(nu, 2, table)
        monkeypatch.undo()
        assert len(seen) >= 2
        for poly, tab in seen:
            assert at_w1(evaluate(poly, tab), tab) == series_evaluate(poly, tab).c


def test_integer_jets_match_repeated_dw():
    # the graded chain of each lift in the D ring, read at w = 1, against
    # termwise spatial derivatives of its graded series
    for nu in (2, 3, 4):
        table = build_ztable(nu, 2, T=10)
        for h in range(3):
            for j in (5, 0, 7, 2):  # out of order: jets are built on first use
                assert at_w1(table.jet(h, j), table) == series_jet(table, h, j).c
        assert [len(table.chains[h]) for h in range(3)] == [8, 8, 8]


def test_mixed_weight_jet_polynomial_is_rejected():
    # a monomial's w-weight is its factor count less its order, less nu - 1
    # per power of t: a collection must not mix them
    table = build_ztable(2, 1, T=8)
    for terms in (
        {(0, (1,)): Q(1), (0, (1, 1)): Q(1)},  # one factor and two
        {(0, (1,)): Q(1), (1, (1,)): Q(1)},  # a power of t apart
    ):
        with pytest.raises(RejectedInput, match="weight mismatch"):
            expand_lattice_polynomial(LatticePolynomial(terms), table, 1, 1)
    # cancelled terms carry no weight
    assert expand_lattice_polynomial(LatticePolynomial({(0, (0,)): Q(1), (0, (1,)): Q(-1)}), table, 1, 0) is None


def test_fully_cancelled_hierarchy_fails_verification(monkeypatch, capsys):
    from mapgenus import checks
    from mapgenus.cli import dispatch

    table = build_ztable(2, 1, T=10)
    monkeypatch.setattr(checks, "toda_jet", lambda nu, g: {})
    with pytest.raises(VerificationFailure):
        verify_continuum_toda(2, 1, table)
    assert dispatch(["--no-cache", "verify", "continuum", "--nu", "2", "--g", "1"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_corrupted_antiderivative_fails_verification(monkeypatch):
    # every string box coefficient vanishes, so F == 0 and the check is that
    # the slot derivative of the antiderivative cancels: one wrong slot sum
    # must break it
    from mapgenus import checks

    real = checks.string_jets
    assert verify_string_antiderivative(3, 2)["status"] == "pass"
    # slot 0 of the composition carrying all 2g orders in slot 0 is the only
    # slot sum whose derivation reaches order 2g+1, so nothing can cancel a
    # bump of it; moved to slot 1 it lands on the orders (2g, 1, 0, ...)
    # instead, which only a derivation that raises its own slot tells apart
    for bumps in ((1, 0), (1, -1)):

        def corrupted(nu, g):
            F, antiderivative = real(nu, g)
            key = (2 * g,) + (0,) * (nu - 1)
            sums = antiderivative[key]
            antiderivative[key] = tuple(w + b for w, b in zip(sums, bumps)) + sums[2:]
            return F, antiderivative

        monkeypatch.setattr(checks, "string_jets", corrupted)
        for nu, g in [(2, 1), (3, 2)]:
            with pytest.raises(VerificationFailure):
                verify_string_antiderivative(nu, g)


def test_string_antiderivative_has_one_entry_per_composition():
    # summed over the staircase box: one entry per composition of 2g
    # into nu slots, C(2g+nu-1, nu-1) = 126 at (6, 2)
    nu, g = 6, 2
    _, antiderivative = string_jets(nu, g)
    assert len(antiderivative) == comb(2 * g + nu - 1, nu - 1) == 126


def test_string_antiderivative_raises_one_order_off_the_box(skewed_string_box):
    # on the box both sides cancel by antisymmetry, whatever order the slot
    # derivation raises to; off it F is nonempty, so only the right order
    # map matches it
    for nu, g in [(2, 1), (3, 2), (4, 2)]:
        assert string_jets(nu, g)[0], (nu, g)
        assert verify_string_antiderivative(nu, g)["status"] == "pass"


def test_one_string_expression_and_one_hierarchy_jet_per_table(monkeypatch):
    from mapgenus import checks, continuum_even

    calls = []
    for module, name in ((continuum_even, "lattice_equation_exprs"), (checks, "toda_jet")):
        real = getattr(module, name)

        def counting(nu, arg, real=real, name=name):
            calls.append((name, arg))
            return real(nu, arg)

        monkeypatch.setattr(module, name, counting)
    table = build_ztable(3, 4)
    assert calls == [("lattice_equation_exprs", "string")]
    del calls[:]
    for g in range(1, 4):
        verify_continuum_toda(3, g, table)
    assert calls == [("toda_jet", h) for h in range(4)]


def test_evaluation_makes_no_series_products(monkeypatch):
    # z_g and the hierarchy check are solved in the D ring: no graded
    # series product, no reconstruction from a series and no read-back
    import sys

    from mapgenus import exact_kernel

    table = build_ztable(3, 2, T=12)
    calls = []
    for cls in (GradedSeries, DLaurent):
        mul = cls.__mul__

        def counted(self, other, mul=mul, name=cls.__name__):
            calls.append(name)
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
        monkeypatch.setattr(cls, "__rmul__", counted)
    for name in ("series_to_ratfn", "ratfn_to_series"):
        real = getattr(exact_kernel, name)
        for module in [m for n, m in sys.modules.items() if n.startswith("mapgenus")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, lambda *args, name=name, **kw: calls.append(name))
    # the jet products are integer convolutions: no rational is rescaled
    scales = []
    qscale = exact_kernel._qscale
    monkeypatch.setattr(exact_kernel, "_qscale", lambda xs: scales.append(1) or qscale(xs))
    expand_lattice_polynomial(lattice_equation_exprs(3, "string"), table, 1, 5)
    verify_continuum_toda(3, 2, table)
    assert scales == []
    calls.clear()
    table = build_ztable(3, 3, T=14)
    for g in range(1, 4):
        verify_continuum_toda(3, g, table)
    assert "DLaurent" in calls
    assert not {"GradedSeries", "series_to_ratfn", "ratfn_to_series"} & set(calls)


def test_zero_reconstruction_fails_pole_order(monkeypatch):
    # a z_g that integrates to zero has no pole, so it cannot pass as the
    # genus-g closed form
    real = LogRational.theta_inverse
    monkeypatch.setattr(LogRational, "theta_inverse", lambda self, b: real(self, b) * 0)
    with pytest.raises(VerificationFailure, match="pole order 0 at genus 1, expected 4"):
        build_ztable(2, 1)


def test_verify_continuum_builds_the_planar_series_once(monkeypatch):
    import mapgenus.checks as checks
    import mapgenus.continuum_even as continuum_even

    orders = []

    def counted(nu, T):
        orders.append((nu, T))
        return catalan_data(nu, T)

    monkeypatch.setattr(checks, "catalan_data", counted)
    monkeypatch.setattr(continuum_even, "catalan_data", counted)
    # the z-table is cut to order 18, the functional equation read to 20
    assert checks.payload_verify_continuum(3, 2, None)["status"] == "pass"
    assert orders == [(3, 20)]
    orders.clear()
    assert checks.payload_verify_continuum(2, 1, 24)["status"] == "pass"
    assert orders == [(2, 24)]


# -- the D-ring solve against the u-series reference ---------------------------


class SeriesFamily:
    """Planar and higher-genus series z_0, z_1, ... read like a z-table."""

    def __init__(self, nu, zs):
        self.nu = nu
        self.zs = zs

    def series(self, h):
        return self.zs[h]


def integrate_w(g):
    """Termwise antiderivative in w of a graded series; a w^(-1) term would
    obstruct it."""
    out = []
    for j, x in enumerate(g.c):
        e2 = g.base2 + j * g.step2
        assert e2 != -2 or x == 0
        out.append(Q(0) if e2 == -2 else 2 * x / (e2 + 2))
    return GradedSeries(g.var, out, g.base2 + 2, g.step2)


def _collect(factors, coeff, N, out):
    """Add the order-N part of coeff * prod(factors) to the jet polynomial
    `out` (sorted symbol tuple -> coefficient), one symbol at a time.

    Each factor is a list of (order, symbol, weight) options in ascending
    order; a monomial's order is the sum of its symbols' orders."""
    partial = {(0, ()): coeff}
    last = len(factors) - 1
    for i, options in enumerate(factors):
        grown = {}
        for (d, mono), c in partial.items():
            for e, sym, weight in options:
                if d + e > N:
                    break
                if i == last and d + e != N:
                    continue
                key = (d + e, tuple(sorted(mono + (sym,))))
                grown[key] = grown.get(key, 0) + c * weight
        partial = grown
    for (d, mono), c in partial.items():
        if d == N:
            out[mono] = out.get(mono, 0) + c


def reference_jet_polynomials(expr, nu, gmax, N):
    """The order-N jet polynomial of each t-degree, expanded over the jet
    symbols (h, j) one at a time and scaled per monomial by
    (-2 nu)^t / prod j!: t -> {monomial: Fraction}, zeros dropped."""
    groups = {}
    for (t_deg, b_off), coeff in expr.terms.items():
        factors = [
            sorted((2 * h + j, (h, j), kappa ** j) for h in range(min(N // 2, gmax) + 1) for j in range(N - 2 * h + 1))
            for kappa in b_off
        ]
        _collect(factors, coeff, N, groups.setdefault(t_deg, {}))
    out = {}
    for t_deg, poly in groups.items():
        terms = {mono: c * Q(-2 * nu) ** t_deg / prod(factorial(j) for _, j in mono) for mono, c in poly.items() if c}
        if terms:
            out[t_deg] = terms
    return out


def reference_toda_polynomial(table, g):
    """The jet polynomial ``verify_continuum_toda`` evaluates, expanded one
    symbol at a time: the genus-h jet at order 2g - 2h over the symbols
    (k, j), k <= g."""
    poly = {}
    for h in range(g + 1):
        M = 2 * (g - h)
        for lam, coeff in table.toda(h).items():
            factors = [[(2 * k, (k, j), 1) for k in range(min(M // 2, g) + 1)] for j in lam]
            _collect(factors, coeff, M, poly)
    return {mono: c for mono, c in poly.items() if c}


def as_fractions(live):
    """``_jet_polynomials``' (den, integer terms) per t-degree as Fractions."""
    return {t_deg: {mono: Q(c, den) for mono, c in terms.items()} for t_deg, (den, terms) in live.items()}


def series_collection(expr, family, gmax, N):
    """The order-N string collection of the reference jet polynomial,
    evaluated per power of t on graded-series jets in Horner form."""
    total = None
    for t_deg, poly in reference_jet_polynomials(expr, family.nu, gmax, N).items():
        part = series_evaluate(poly, family)
        if part is not None:
            part = part.xmul(t_deg)
            total = part if total is None else total + part
    return total


def series_reference_ztable(nu, g_max, T):
    """z_1 .. z_g_max on truncated u-series: the order-(2g+1) string
    collection on graded-series jets, integrated termwise in w, divided by
    1 - nu c u f0^(nu-1), read at w = 1 and reconstructed over z0."""
    z0 = catalan_data(nu, T).z0
    family = SeriesFamily(nu, [z0])
    expr = lattice_equation_exprs(nu, "string")
    f0 = GradedSeries.from_series(z0, 2, 2 * (nu - 1))
    # the divisor has weight 0, so the quotient is that of the plain series
    # of coefficients (two graded series never divide)
    denom = 1 - nu * c_valence(nu) * Series("u", (f0 ** (nu - 1)).xmul(1).c)
    ratfns = [None]
    for g in range(1, g_max + 1):
        R = series_collection(expr, family, g - 1, 2 * g + 1)
        f_g = integrate_w(-R)
        assert f_g.base2 == 2 - 4 * g
        family.zs.append(Series("u", f_g.c) / denom)
        base = Poly([nu, -(nu - 1)])
        ratfns.append(series_to_ratfn(family.zs[g], z0, base, 3 * g, 5 * g - 1))
    return family, ratfns


def test_ring_z_g_matches_the_series_reference():
    for nu in (2, 3, 4, 5, 6):
        g_max = 3
        table = build_ztable(nu, g_max)
        family, ratfns = series_reference_ztable(nu, g_max, table.T)
        for g in range(1, g_max + 1):
            entry, ref = table.entries[g], ratfns[g]
            assert (entry.ratfn.num, entry.ratfn.den_base, entry.ratfn.den_pow) == (ref.num, ref.den_base, ref.den_pow)
            # z_g/z0 in powers of D, read off the reference's numerator
            z = DLaurent.z(nu)
            num = DLaurent.const(nu, 0)
            for a in reversed(ref.num.c):
                num = num * z + a
            D_pow = DLaurent(nu, -ref.den_pow, (Q(1 - nu) ** ref.den_pow,))
            assert entry.over_z0 == (num * D_pow).div_z()
            assert table.series(g) == family.series(g)


def test_top_pole_is_the_painleve_coefficient():
    for nu, g_max in ((2, 6), (3, 4), (4, 3), (5, 2), (6, 2)):
        table = build_ztable(nu, g_max)
        for g in range(1, g_max + 1):
            assert table.top_coefficient(g) == -2 * Q(2 * nu) ** (3 * g - 1) * painleve_a(g)


def test_corrupted_top_coefficient_fails_the_painleve_check(monkeypatch):
    # moving the top pole of X = (D/z0) z_g and the order below it by
    # opposite amounts keeps the pole order, the pole window and the
    # (z0 - 1) factor (the sum at D = 1), so only Painleve I can see it
    real = LogRational.theta_inverse

    def corrupted(self, b):
        x = real(self, b)
        return x + LogRational(x.nu, DLaurent(x.nu, x.rat.lo, (1, -1)))

    monkeypatch.setattr(LogRational, "theta_inverse", corrupted)
    for nu in (2, 3):
        with pytest.raises(VerificationFailure, match="Painleve I"):
            build_ztable(nu, 1)


# -- the two-stage collection against the symbol-by-symbol reference -----------


def random_lattice_polynomial(rng):
    """A few random terms over offsets -3 .. 3, t-degrees 0 .. 2 and
    rational coefficients, often taken as a lattice difference p - p.shift(1),
    which cancels most of the expansion."""
    terms = []
    for _ in range(rng.randint(1, 6)):
        offsets = tuple(sorted(rng.randint(-3, 3) for _ in range(rng.randint(0, 4))))
        terms.append(((rng.randint(0, 2), offsets), Q(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 8)))))
    p = LatticePolynomial(terms)
    return p - p.shift(1) if rng.random() < 0.5 else p


def test_two_stage_collect_matches_the_symbol_reference_randomized():
    import random

    rng = random.Random(31)
    for _ in range(300):
        expr = random_lattice_polynomial(rng)
        nu, gmax, N = rng.randint(2, 4), rng.randint(0, 4), rng.randint(1, 9)
        assert as_fractions(_jet_polynomials(expr, nu, gmax, N)) == reference_jet_polynomials(expr, nu, gmax, N)


def test_two_stage_collect_matches_the_reference_on_every_string_expression():
    for nu in (2, 3, 4):
        expr = lattice_equation_exprs(nu, "string")
        for g in range(1, 5):
            got = as_fractions(_jet_polynomials(expr, nu, g - 1, 2 * g + 1))
            assert got == reference_jet_polynomials(expr, nu, g - 1, 2 * g + 1), (nu, g)


def test_hierarchy_collect_matches_the_reference(monkeypatch):
    from mapgenus import continuum_even

    seen = []
    evaluate = continuum_even._ring_value
    monkeypatch.setattr(continuum_even, "_ring_value", lambda poly, tab: seen.append(dict(poly)) or evaluate(poly, tab))
    for nu, g_max in ((2, 4), (3, 3), (4, 3)):
        table = build_ztable(nu, g_max)
        for g in range(1, g_max + 1):
            verify_continuum_toda(nu, g, table)
            assert seen.pop() == reference_toda_polynomial(table, g), (nu, g)


# the symbol-by-symbol reference takes seconds at nu = 6, g = 6
@pytest.mark.slow
def test_two_stage_collect_matches_the_reference_at_nu6():
    expr = lattice_equation_exprs(6, "string")
    for g in range(1, 7):
        assert as_fractions(_jet_polynomials(expr, 6, g - 1, 2 * g + 1)) == reference_jet_polynomials(expr, 6, g - 1, 2 * g + 1)


def test_two_stage_collect_work_is_pinned(monkeypatch):
    # the nu = 6, N = 13 collection of the string equation: its stage-1
    # j-tuples, every sorted key it builds (one per stage-1 update and one
    # per labelled monomial) and the monomials it yields; the symbol-by-
    # symbol reference sorts 2,389,434 keys for the same 966 monomials
    from mapgenus import continuum_even

    tables, sorts = {}, []
    walk = continuum_even._sum_over_j

    def recording(node, partial, N, out):
        tables[id(out)] = out
        walk(node, partial, N, out)

    monkeypatch.setattr(continuum_even, "_sum_over_j", recording)
    monkeypatch.setattr(continuum_even, "sorted", lambda xs: sorts.append(1) or sorted(xs), raising=False)
    live = _jet_polynomials(lattice_equation_exprs(6, "string"), 6, 5, 13)
    assert sum(map(len, tables.values())) == 173
    assert len(sorts) == 128_778
    assert sum(len(terms) for _, terms in live.values()) == 966
