from math import comb, factorial

import pytest

from mapgenus.checks import (
    JetExpression,
    hodograph_solution,
    string_jets,
    toda_jet,
    verify_burgers,
    verify_string_antiderivative,
    verify_string_functional,
)
from mapgenus.combinatorics import LatticePolynomial, lattice_equation_exprs
from mapgenus.continuum_even import (
    build_ztable,
    catalan_data,
    expand_lattice_polynomial,
    functional_residual,
    verify_continuum_toda,
)
from mapgenus.errors import RejectedInput, VerificationFailure
from mapgenus.exact_kernel import GradedSeries, Poly, Q, RatFn, Series, ratfn_to_series


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
    assert verify_string_functional(2, 20)["status"] == "pass"
    assert verify_string_functional(5, 10)["status"] == "pass"
    data = catalan_data(2, 6)
    bad = list(data.z0.c)
    bad[3] += 1
    res = functional_residual(Series("u", bad, 6), 2, data.c)
    assert res.coeff(3) != 0 and all(res.coeff(k) == 0 for k in range(3))


def test_burgers_and_hodograph():
    for nu in (1, 2, 3):
        assert verify_burgers(nu, 10)["status"] == "pass"
    sol = hodograph_solution(2, 8)
    # f0 = w z0(u w) carries weight w^(1+j) at order u^j
    assert sol.f0.base2 == 2 and sol.f0.step2 == 2


def test_toda_jet_leading_terms():
    assert toda_jet(2, 0) == JetExpression.monomial(12, 2, {1: 1})
    assert toda_jet(1, 0) == JetExpression.monomial(2, 1, {1: 1})
    # nu=1, g=1: only the single-part partition of 3 survives the length cap,
    # and the two-part partition has vanishing box coefficient
    assert toda_jet(1, 1) == JetExpression.monomial(Q(1, 3), 1, {3: 1})


def test_string_antiderivative_identity():
    for nu, g in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        assert verify_string_antiderivative(nu, g)["status"] == "pass"


def test_string_jets_partition_filter():
    F, _ = string_jets(2, 1)
    # partitions of 3 with at most 2 parts: (3) and (2,1)
    assert all(sum(j * r for j, r in jets) == 3 for (_, jets), _c in
               [(k, v) for k, v in F.terms.items()])
    assert all(fpow + sum(r for _, r in jets) == 2 for (fpow, jets) in F.terms)


def test_solve_z1_closed_form():
    table = build_ztable(2, 1)
    entry = table.entries[1]
    expected = RatFn(Q(2, 3) * Poly.x() * Poly([-1, 1]) ** 2, Poly([2, -1]), 4, "z0")
    got = entry.ratfn  # equal in value: num times the other's denominator
    assert got.num * expected.den_base ** expected.den_pow == expected.num * got.den_base ** got.den_pow
    assert [entry.series.coeff(k) for k in range(4)] == [0, 0, 96, 10368]
    # partial fractions of z1/z0: (2/3)(1/D^4 - 2/D^3 + 1/D^2)
    assert entry.laurent[4] == Q(2, 3)
    assert entry.laurent[3] == Q(-4, 3)
    assert entry.laurent[2] == Q(2, 3)
    assert entry.laurent[0] == 0 and entry.laurent[1] == 0


def test_solve_zg_structure_nu2_g2():
    table = build_ztable(2, 2)
    entry = table.entries[2]
    assert entry.ratfn.den_pow == 9
    assert divides(Poly.x(), entry.ratfn.num)
    assert divides(Poly([-1, 1]), entry.ratfn.num)
    assert entry.series.coeff(0) == 0
    # round trip: the rational form reproduces the series
    back = ratfn_to_series(entry.ratfn, table.series(0), table.T)
    assert back == entry.series
    # two-leg counts: coefficients times m! (2 nu)^m over x scaling are integers
    for m in range(table.T + 1):
        val = entry.series.coeff(m)
        assert (val * 1).denominator >= 1  # exact rationals survive the pipeline


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
    from mapgenus.checks import d_coeff, partitions_of, strict_partitions_in_box

    for nu in (2, 3, 4):
        for g in (1, 2):
            for lam in partitions_of(2 * g + 1, max_len=nu):
                assert d_coeff(nu, lam, "string") == 0
        # the involution explanation: the box is closed under the dual map
        lower = tuple(range(nu, 0, -1))
        upper = tuple(range(2 * nu - 1, nu - 1, -1))
        box = strict_partitions_in_box(lower, upper)
        duals = {tuple(2 * nu - m for m in reversed(mu)) for mu in box}
        assert duals == set(box)
    # the toda-side staircase is not self-dual and its coefficients survive
    assert d_coeff(2, (3,), "toda") != 0


def test_planar_coefficients_strictly_positive():
    for nu in (2, 3, 4):
        data = catalan_data(nu, 10)
        assert all(z > 0 for z in data.zetas)
        assert all(c > 0 for c in data.z0.c)


def test_burgers_coefficient_counts_paths():
    from mapgenus.checks import d_coeff
    from mapgenus.combinatorics import lattice_paths

    for nu in (1, 2, 3):
        assert d_coeff(nu, (1,), "toda") == (nu + 1) * len(lattice_paths(2 * nu, 2, 0))


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
    for (t_deg, b_off, _a_off), coeff in expr.terms.items():
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


def _same_graded(a, b):
    return a.c == b.c and a.base2 == b.base2 and a.trunc == b.trunc and a.step2 == b.step2


def test_lattice_expansion_matches_schoolbook_products():
    for nu, g_top, T in ((2, 5, 14), (3, 4, 12), (4, 3, 10)):
        table = build_ztable(nu, g_top - 1, T=T)
        expr = lattice_equation_exprs(nu, "string")
        for g in range(1, g_top + 1):
            N = 2 * g + 1
            got = expand_lattice_polynomial(expr, table.family(g - 1), nu, N)
            want = _reference_expansion(expr, table.z_list(g - 1), nu, N)
            assert _same_graded(got, want), (nu, g)


def test_lattice_expansion_sees_every_term():
    # bumping one lattice coefficient by 1 adds exactly that monomial's
    # expansion, so a collector that drops or merges terms wrongly fails
    nu, g = 2, 2
    N = 2 * g + 1
    table = build_ztable(nu, g - 1, T=10)
    family = table.family(g - 1)
    expr = lattice_equation_exprs(nu, "string")
    base = expand_lattice_polynomial(expr, family, nu, N)
    for key in sorted(expr.terms):
        t_deg, b_off, _ = key
        if not any(b_off):
            continue
        bumped = LatticePolynomial(dict(expr.terms))
        bumped.terms[key] += 1
        got = expand_lattice_polynomial(bumped, family, nu, N)
        single = LatticePolynomial.monomial(1, b_off, t_deg=t_deg)
        delta = _reference_expansion(single, table.z_list(g - 1), nu, N)
        assert not delta.is_zero()
        assert not _same_graded(got, base)
        assert _same_graded(got, base + delta), key


# -- integer evaluation against the Fraction Horner form ----------------------


def fraction_jet(family, h, j):
    jet = family.f(h)
    for _ in range(j):
        jet = jet.dw()
    return jet


def fraction_horner(node, family):
    """The Fraction Horner value of a jet trie: one GradedSeries product per
    prefix symbol and one scaling per last symbol."""
    total = None
    for sym, child in node.items():
        term = fraction_jet(family, *sym) * (fraction_horner(child, family) if type(child) is dict else child)
        total = term if total is None else total + term
    return total


def fraction_evaluate(poly, family):
    trie = {}
    for mono, c in poly.items():
        if c:
            node = trie
            for sym in mono[:-1]:
                node = node.setdefault(sym, {})
            node[mono[-1]] = c
    return fraction_horner(trie, family) if trie else None


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
    import random

    from mapgenus import continuum_even

    rng = random.Random(7)
    for nu in (2, 3, 4):
        table = build_ztable(nu, 2, T=12)
        family = table.family(2)
        for _ in range(12):
            poly = random_jet_polynomial(rng, 2, rng.randint(1, 4), rng.randint(0, 6), rng.randint(1, 9))
            got = continuum_even._evaluate(poly, family)
            want = fraction_evaluate(poly, family)
            assert (got is None) == (want is None)
            if got is not None:
                assert _same_graded(got, want)
        # and every polynomial the engine itself collects
        seen = []
        evaluate = continuum_even._evaluate
        monkeypatch.setattr(
            continuum_even, "_evaluate", lambda poly, fam: seen.append((dict(poly), fam)) or evaluate(poly, fam)
        )
        expand_lattice_polynomial(lattice_equation_exprs(nu, "string"), table.family(1), nu, 5)
        verify_continuum_toda(nu, 2, table)
        monkeypatch.undo()
        assert len(seen) >= 2
        for poly, fam in seen:
            assert _same_graded(evaluate(poly, fam), fraction_evaluate(poly, fam))


def test_integer_jets_match_repeated_dw():
    for nu in (2, 3, 4):
        family = build_ztable(nu, 2, T=10).family(2)
        for h in range(3):
            for j in (5, 0, 7, 2):  # out of order: jets are built on first use
                assert _same_graded(family.scaled(h, j), fraction_jet(family, h, j))


def test_mixed_weight_jet_polynomial_is_rejected():
    from mapgenus import continuum_even

    family = build_ztable(2, 1, T=8).family(1)
    for poly in (
        {((0, 0),): Q(1), ((0, 1),): Q(2)},  # two last symbols of one level
        {((0, 0), (0, 0)): Q(1), ((0, 1), (1, 0)): Q(1)},  # two prefixes
    ):
        with pytest.raises(RejectedInput, match="weight mismatch"):
            continuum_even._evaluate(poly, family)
    # cancelled terms carry no weight
    assert continuum_even._evaluate({((0, 0),): Q(0), ((0, 1),): Q(0)}, family) is None


def test_fully_cancelled_hierarchy_fails_verification(monkeypatch, capsys):
    from mapgenus import checks
    from mapgenus.cli import dispatch

    table = build_ztable(2, 1, T=10)
    monkeypatch.setattr(checks, "toda_jet", lambda nu, g: JetExpression())
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
    # summed over the staircase box: at most one entry per composition of 2g
    # into nu slots, C(2g+nu-1, nu-1) = 126 at (6, 2)
    nu, g = 6, 2
    _, antiderivative = string_jets(nu, g)
    assert len(antiderivative) <= comb(2 * g + nu - 1, nu - 1) == 126


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
    from mapgenus import exact_kernel
    from mapgenus.exact_kernel import DLaurent

    table = build_ztable(3, 2, T=12)
    family = table.family(1)
    calls = []
    for cls in (GradedSeries, DLaurent):
        mul = cls.__mul__

        def counted(self, other, mul=mul, name=cls.__name__):
            calls.append(name)
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
        monkeypatch.setattr(cls, "__rmul__", counted)
    # the jet products are integer convolutions: no rational is rescaled
    scales = []
    qscale = exact_kernel._qscale
    monkeypatch.setattr(exact_kernel, "_qscale", lambda xs: scales.append(1) or qscale(xs))
    expand_lattice_polynomial(lattice_equation_exprs(3, "string"), family, 3, 5)
    verify_continuum_toda(3, 2, table)
    assert scales == []
    calls.clear()
    build_ztable(3, 3, T=14)
    assert "DLaurent" not in calls and "GradedSeries" in calls


def test_zero_reconstruction_fails_pole_order(monkeypatch):
    # a z_g that reconstructs to zero has no pole, whatever order it was
    # fitted with, so it cannot pass as the genus-g closed form
    from mapgenus import continuum_even

    real = continuum_even.series_to_ratfn

    def zero(*args, **kwargs):
        r = real(*args, **kwargs)
        return RatFn(Poly(()), r.den_base, r.den_pow, r.var)

    monkeypatch.setattr(continuum_even, "series_to_ratfn", zero)
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
