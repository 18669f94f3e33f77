import hashlib
import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from _path_reference import motzkin_entry
from mapgenus.errors import RejectedInput, VerificationFailure
from mapgenus.exact_kernel import Q, Series
from mapgenus.lattice_oracle import (
    BiSeries,
    RecurrenceTable,
    WeightSpec,
    _fused,
    _record,
    asymptotic_match,
    hermite_moments,
    operator_power_row,
    payload_verify_lattice,
    recurrence_table,
    status_of,
    verify_hirota,
    verify_lattice_equations,
)


def spec_nu2(n, T=4, with_t1=False):
    return WeightSpec(nu=2, g_s=Q(1, n), include_t1=with_t1)


def test_biseries_log_and_div():
    t = BiSeries.var_t(4)
    s = BiSeries.const(1, 4) + t
    assert s.log().coeff(0, 2) == Q(-1, 2)
    assert ((s * s) / s).d == s.d


def test_moment_examples():
    spec = WeightSpec(nu=2, g_s=Q(1))
    m = deformed_moments(spec, 6, 0)
    assert m[0].constant() == 1
    assert m[6].constant() == 15  # 5!! g_s^3 at g_s=1
    m = deformed_moments(spec, 0, 1)
    assert m[0].coeff(0, 1) == Q(-3, 4)  # 1 - (3/4) g_s t at g_s=1
    # odd moments vanish identically without the linear deformation
    m = deformed_moments(spec, 3, 2)
    assert m[3].is_zero()


def test_recurrence_gaussian_values():
    spec = WeightSpec(nu=2, g_s=Q(1, 3))
    table = recurrence_table(spec, n_max=5, T=3)
    for n in range(1, 6):
        assert table.b2[n].constant() == n * Q(1, 3)
        assert table.tau2[n].constant() == 1
    assert table.b2[0].is_zero() and table.b2[-2].is_zero()
    # even weight: diagonal recurrence coefficients vanish identically
    assert all(table.a[n].is_zero() for n in table.a)


def test_first_coupling_order_of_b2():
    # at g_s = 1 the string equation forces d b2_n/dt|_0 = -3 n^2 (valence 4)
    table = recurrence_table(WeightSpec(nu=2, g_s=Q(1)), n_max=4, T=2)
    for n in range(1, 5):
        assert table.b2[n].coeff(0, 1) == -3 * n * n


def test_difference_string_residuals():
    table = recurrence_table(spec_nu2(4), n_max=7, T=4)
    report = verify_lattice_equations(table, "string")
    assert report["status"] == "pass"
    assert [s["n"] for s in report["sites"]] == [1, 2, 3, 4, 5]


def test_toda_residuals():
    table = recurrence_table(spec_nu2(4), n_max=7, T=4)
    report = verify_lattice_equations(table, "toda")
    assert report["status"] == "pass"


def test_trivalent_scaling_of_residuals_nu3():
    table = recurrence_table(WeightSpec(nu=3, g_s=Q(1, 5)), n_max=7, T=3)
    assert verify_lattice_equations(table, "string")["status"] == "pass"
    assert verify_lattice_equations(table, "toda")["status"] == "pass"


def test_corrupted_table_fails():
    table = recurrence_table(spec_nu2(4), n_max=7, T=4)
    good = table.b2[3]
    table.b2[3] = BiSeries(table.T, {**good.d, (0, 2): good.coeff(0, 2) + 1})
    with pytest.raises(VerificationFailure):
        verify_lattice_equations(table, "string")


def bumped(s, key):
    """A copy of s with 1 added to the coefficient at key."""
    return BiSeries(s.trunc, {**s.d, key: s.coeff(*key) + 1})


def test_corrupted_b2_fails_toda():
    table = recurrence_table(spec_nu2(4), n_max=7, T=4)
    table.b2[3] = bumped(table.b2[3], (0, 2))
    # site 1 is the first whose rows reach level 3 = n + nu
    with pytest.raises(VerificationFailure, match=r"^toda(_diagonal)? residual nonzero at n=1,"):
        verify_lattice_equations(table, "toda")


def test_corrupted_diagonal_fails_string_and_toda():
    table = recurrence_table(spec_nu2(4, with_t1=True), n_max=7, T=4)
    table.a[3] = bumped(table.a[3], (1, 1))
    # a flat step at level 3 = n + nu - 1 first enters L^3 at site 2
    with pytest.raises(VerificationFailure, match=r"^string residual nonzero at n=2,"):
        verify_lattice_equations(table, "string")
    with pytest.raises(VerificationFailure, match=r"^toda(_diagonal)? residual nonzero at n=1,"):
        verify_lattice_equations(table, "toda")


def eval_path_sum(entry, shift, table):
    """A path sum at site 0 of the table with every offset moved by shift,
    one product per factor of every monomial: b2[k] -> b2_k, a[k] -> a_k,
    zero below level 0."""
    zero = BiSeries(table.T, {})
    total = zero
    for (b_off, a_off), count in entry.items():
        term = BiSeries.const(Q(count), table.T)
        for k in b_off:
            term = term * table.b2[k + shift]
        for k in a_off:
            term = term * (table.a[k + shift] if k + shift >= 0 else zero)
        total = total + term
    return total


def test_transfer_rows_match_path_sums():
    for nu in (1, 2, 3, 4):
        # (L^j)_{n+1, n+1+dc} as path sums, offsets relative to the site n
        entries = {
            (j, dc): motzkin_entry(j, 1, 1 + dc)
            for j in (2 * nu - 1, 2 * nu)
            for dc in (-2, -1)
        }
        # the highest offset they read is nu, which bounds the sites
        assert max(k for e in entries.values() for b, a in e for k in b + a) == nu
        for with_t1 in (False, True):
            n_max = nu + 2
            spec = WeightSpec(nu=nu, g_s=Q(1, 3), include_t1=with_t1)
            table = recurrence_table(spec, n_max=n_max, T=2)
            # rows n and n+1 of every site n = 1 .. n_max - nu
            for r in range(1, n_max - nu + 2):
                for (j, dc), entry in entries.items():
                    expected = eval_path_sum(entry, r - 1, table)
                    got = operator_power_row(table, r, j)[1][r + dc]
                    assert got == expected, (nu, with_t1, r, j, dc)
                    if (j, dc) == (2 * nu - 1, -1):
                        # the string entry, read from the Toda walk one step before its end
                        assert operator_power_row(table, r, j + 1)[0] == expected, (nu, with_t1, r)


def test_transfer_work_bound(monkeypatch):
    """string + toda on the table of `verify lattice --nu 3 --nmax 8
    --torder 5 --with-t1`, reading the rows of one ``_power_rows`` walk as
    the payload does, pass 407 series products to ``_fused``; a walk per
    kind passes 795, so a second walk breaks the bound of 500."""
    from mapgenus import lattice_oracle

    table = recurrence_table(WeightSpec(nu=3, g_s=Q(1, 8), include_t1=True), n_max=12, T=5)
    products = []

    def counted(T, plains, prods=()):
        products.append(len(prods))
        return _fused(T, plains, prods)

    monkeypatch.setattr(lattice_oracle, "_fused", counted)
    rows = lattice_oracle._power_rows(table)
    for kind in ("string", "toda"):
        assert verify_lattice_equations(table, kind, rows)["status"] == "pass"
    assert sum(products) <= 500


def test_failure_reports_lowest_total_order():
    # lexicographic order would name t1^0 t^2; the truncation sees t1^1 first
    with pytest.raises(VerificationFailure, match=r"at n=3, order t1\^1 t\^0: 2$"):
        _record([], 3, BiSeries(4, {(0, 2): Q(5), (1, 0): Q(2)}), "string")
    # equal total degree: the lower power of t1 first
    with pytest.raises(VerificationFailure, match=r"order t1\^0 t\^2: 5$"):
        _record([], 3, BiSeries(4, {(1, 1): Q(7), (0, 2): Q(5), (0, 3): Q(1)}), "toda")


def test_t1_flow_equations():
    table = recurrence_table(spec_nu2(3, T=4, with_t1=True), n_max=5, T=4)
    report = verify_lattice_equations(table, "toda_t1")
    assert report["status"] == "pass"
    with pytest.raises(RejectedInput):
        verify_lattice_equations(recurrence_table(spec_nu2(3), 4, 2), "toda_t1")


def test_hirota_identities():
    table = recurrence_table(spec_nu2(3, T=3, with_t1=True), n_max=5, T=3)
    report = verify_hirota(table)
    assert report["status"] == "pass"
    # t-only mode still checks the product and second-difference identities
    table = recurrence_table(spec_nu2(3), n_max=5, T=4)
    assert verify_hirota(table)["status"] == "pass"


def test_gs_scaling_collapse():
    """b2_n(t; g_s) = g_s * b2hat_n(t g_s^(nu-1)) ties tables at different
    string coefficients together exactly."""
    nu = 2
    T = 3
    ref = recurrence_table(WeightSpec(nu=nu, g_s=Q(1)), n_max=4, T=T)
    q = Q(1, 3)
    other = recurrence_table(WeightSpec(nu=nu, g_s=q), n_max=4, T=T)
    for n in range(1, 5):
        for k in range(T + 1):
            lhs = other.b2[n].coeff(0, k)
            rhs = q * ref.b2[n].coeff(0, k) * q ** ((nu - 1) * k)
            assert lhs == rhs


def test_weight_spec_validation():
    with pytest.raises(RejectedInput):
        WeightSpec(nu=0, g_s=Q(1))
    with pytest.raises(RejectedInput):
        WeightSpec(nu=2, g_s=Q(0))


def test_reports_derive_status_from_sites():
    table = recurrence_table(spec_nu2(4), n_max=7, T=3)
    for report in (verify_lattice_equations(table, "string"), verify_hirota(table)):
        assert report["sites"] and report["status"] == status_of(report["sites"]) == "pass"
    assert status_of([{"status": "pass"}, {"status": "fail"}]) == "fail"
    assert status_of([{"status": "pass"}]) == "pass"


def test_tables_are_pinned():
    """One sha256 over the reprs of the b2, a and tau2 tables, two
    operator-power rows, a tau2 log per table and one asymptotic match, at
    nu = 1..4 with and without t1: any change in a coefficient, a key, the
    truncation or a table's set of sites moves it."""
    h = hashlib.sha256()
    for nu in (1, 2, 3, 4):
        for with_t1 in (False, True):
            n_max = nu + 3
            table = recurrence_table(WeightSpec(nu=nu, g_s=Q(2, 7), include_t1=with_t1), n_max, 3)
            h.update(repr((table.b2, table.a, table.tau2)).encode())
            for r in (1, n_max - nu + 1):
                h.update(repr(operator_power_row(table, r, 2 * nu)[1]).encode())
            h.update(repr(table.tau2[n_max].log()).encode())
    h.update(repr(asymptotic_match(3, 1, [4, 6, 8, 10], 3)).encode())
    assert h.hexdigest() == "9dbc1b5d674461855cbfc307001416b54a9679d19d86b7ec23d6fd4e1567de82"


# -- BiSeries arithmetic against schoolbook Fraction references -------------

rng = random.Random(20261018)

COPRIME_DENOMS = (1, 7, 11, 13, 17)
SHARED_DENOMS = (2, 6, 12, 18, 30)


def total(key):
    return key[0] + key[1]


def cut(d, T):
    return {key: v for key, v in d.items() if v and total(key) <= T}


def naive_mul(a, b, T):
    """Truncated product, one Fraction operation per pair of terms."""
    out = {}
    for (r1, k1), x in a.items():
        for (r2, k2), y in b.items():
            key = (r1 + r2, k1 + k2)
            if total(key) <= T:
                out[key] = out.get(key, Q(0)) + x * y
    return cut(out, T)


def naive_div(a, b, T):
    """a * (1/b) with 1/b = (1/b0) sum_i (-(b - b0)/b0)^i, T terms."""
    b0 = b[(0, 0)]
    rest = {key: -v / b0 for key, v in cut(b, T).items() if key != (0, 0)}
    inv = {(0, 0): 1 / b0}
    power = {(0, 0): Q(1)}
    for _ in range(T):
        power = naive_mul(power, rest, T)
        for key, v in power.items():
            inv[key] = inv.get(key, Q(0)) + v / b0
    return naive_mul(cut(a, T), cut(inv, T), T)


def naive_log(f, T):
    """log(1 + x) = sum_i (-1)^(i+1) x^i / i."""
    x = {key: v for key, v in cut(f, T).items() if key != (0, 0)}
    out = {}
    power = {(0, 0): Q(1)}
    for i in range(1, T + 1):
        power = naive_mul(power, x, T)
        for key, v in power.items():
            out[key] = out.get(key, Q(0)) + v * Q((-1) ** (i + 1), i)
    return cut(out, T)


def rand_biseries(T, with_t1, denoms, const=None, zero_share=0.3):
    """Mixed-sign rationals over denoms on every key of total degree <= T
    (t-only keys without t1), with explicit zero entries; const pins the
    constant term."""
    d = {}
    for r in range(T + 1 if with_t1 else 1):
        for k in range(T + 1 - r):
            if rng.random() < zero_share:
                d[(r, k)] = 0
            else:
                d[(r, k)] = Q(rng.randint(-10**4, 10**4), rng.choice(denoms))
    if const is not None:
        d[(0, 0)] = const
    return BiSeries(T, d)


def operand_cases(count=36, max_T=6):
    """(a, b): t-only and (t1, t), coprime and shared denominators, unequal
    truncations, b a unit with a mixed-sign constant term."""
    for n in range(count):
        with_t1 = n % 2 == 1
        Ta, Tb = rng.randint(0, max_T), rng.randint(0, max_T)
        a = rand_biseries(Ta, with_t1, (COPRIME_DENOMS, SHARED_DENOMS)[n % 3 == 0])
        b0 = Q(rng.choice((-1, 1)) * rng.randint(1, 40), rng.choice(SHARED_DENOMS))
        b = rand_biseries(Tb, with_t1 or n % 4 == 0, (COPRIME_DENOMS, SHARED_DENOMS)[n % 4 < 2], b0)
        yield a, b


def canonical(s):
    return all(type(v) is Fraction and v for v in s.d.values())


def test_biseries_product_matches_naive():
    for a, b in operand_cases():
        T = min(a.trunc, b.trunc)
        for prod in (a * b, b * a):
            assert prod.trunc == T and canonical(prod)
            assert prod.d == naive_mul(a.d, b.d, T)
    a = rand_biseries(5, True, COPRIME_DENOMS)
    # an explicit zero coefficient given to the constructor
    a = BiSeries(5, {**a.d, (1, 1): Q(0)})
    b = rand_biseries(4, True, SHARED_DENOMS)
    assert (a * b).d == naive_mul(a.d, b.d, 4)
    assert (a * BiSeries(5, {})).is_zero() and (a * BiSeries(5, {})).trunc == 5


def test_biseries_sums_match_naive():
    for a, b in operand_cases():
        T = min(a.trunc, b.trunc)
        keys = set(cut(a.d, T)) | set(cut(b.d, T))
        for sign, res in ((1, a + b), (-1, a - b)):
            assert res.trunc == T and canonical(res)
            assert res.d == cut({key: a.coeff(*key) + sign * b.coeff(*key) for key in keys}, T)
        assert (b - a).d == ((a - b) * -1).d
        assert (a + Q(1, 3)).d == cut({**a.d, (0, 0): a.constant() + Q(1, 3)}, a.trunc)


def test_biseries_scalar_operands():
    a = rand_biseries(5, True, SHARED_DENOMS)
    for q in (Q(-3, 7), 5, Q(0)):
        assert (a * q).d == (q * a).d == cut({key: v * q for key, v in a.d.items()}, 5)
    assert (a / Q(2, 3)).d == {key: v * Q(3, 2) for key, v in a.d.items()}
    assert (a / -4).d == {key: v / -4 for key, v in a.d.items()}
    with pytest.raises(RejectedInput):
        a / 0


def test_biseries_quotient_matches_naive():
    for a, b in operand_cases():
        T = min(a.trunc, b.trunc)
        quo = a / b
        assert quo.trunc == T and canonical(quo)
        assert quo.d == naive_div(a.d, b.d, T)
        # a product divided by a unit factor gives the other factor back
        assert ((a * b) / b).d == cut(a.d, T)
    # a derivative of a constant has truncation -1 and divides to zero
    below = BiSeries(0, {(0, 0): 3}).diff("t")
    assert below / BiSeries(2, {(0, 0): 2, (0, 1): 1}) == BiSeries(-1, {})


def test_biseries_log_matches_naive():
    for a, b in operand_cases(count=24, max_T=5):
        f = BiSeries(a.trunc, {**a.d, (0, 0): Q(1)})
        g = BiSeries(b.trunc, {**b.d, (0, 0): Q(1)})
        for h in (f, g):
            log_h = h.log()
            assert log_h.trunc == h.trunc and canonical(log_h)
            assert log_h.d == naive_log(h.d, h.trunc)
        assert (f * g).log() == f.log() + g.log()
    assert BiSeries.const(1, 0).log() == BiSeries(0, {})


def test_biseries_non_units_rejected():
    a = rand_biseries(4, True, COPRIME_DENOMS)
    non_unit = rand_biseries(4, True, SHARED_DENOMS, const=0)
    with pytest.raises(RejectedInput):
        a / non_unit
    with pytest.raises(RejectedInput):
        a / BiSeries(4, {})
    for c in (2, Q(-1), 0):
        with pytest.raises(RejectedInput):
            rand_biseries(3, True, SHARED_DENOMS, const=c).log()


def test_biseries_canonical_form():
    """Every series is integer numerators over one positive denominator
    with no factor common to all of them, so == compares representations."""
    for a, b in operand_cases():
        T = min(a.trunc, b.trunc)
        f = BiSeries(a.trunc, {**a.d, (0, 0): Q(1)})
        g = BiSeries(b.trunc, {**b.d, (0, 0): Q(1)})
        results = [a, b, a + b, a - b, a * -1, a * b, a / b, a * Q(-3, 5)]
        results += [a.diff("t"), a.diff("t1"), f.log(), (f * g).log()]
        for s in results:
            assert s.den > 0 and gcd(s.den, *s.num.values()) == 1 and all(s.num.values())
        for empty in (a - a, a * Q(0), BiSeries(T, {}), BiSeries.const(1, T).diff("t")):
            assert empty.is_zero() and empty.den == 1
        assert (a * b) / b == BiSeries(T, a.d)
        assert (f * g).log() == f.log() + g.log()


def naive_fused(T, plains, products):
    """sum(c * s) + sum(sign * u * v) to total degree T, one Fraction
    operation per term and per pair of terms."""
    out = {}
    for c, s in plains:
        for key, v in cut(s.d, T).items():
            out[key] = out.get(key, Q(0)) + c * v
    for sign, u, v in products:
        for key, w in naive_mul(u.d, v.d, T).items():
            out[key] = out.get(key, Q(0)) + sign * w
    return cut(out, T)


def test_fused_matches_naive():
    """Rational multiples of series and signed products, summed in one
    integer pass, equal the Fraction reference.  The multipliers are ints
    and Fractions, the operands have unequal truncations up to 8,
    derivatives among them, and each is read by several calls at several
    T, so its sorted terms are kept and read again, cut at each T."""
    pick, signs, denoms = rng.choice, (1, -1), (COPRIME_DENOMS, SHARED_DENOMS)
    for n in range(12):
        with_t1 = n % 2 == 1
        pool = [rand_biseries(rng.randint(2, 8), with_t1, denoms[i % 2]) for i in range(4)]
        pool += [s.diff("t") for s in pool[:2]] + ([pool[2].diff("t1")] if with_t1 else [])
        for _ in range(6):
            plains = [(pick(signs + (3, Q(-5, 6), Q(7, 16))), pick(pool)) for _ in range(rng.randint(0, 3))]
            products = [(pick(signs), pick(pool), pick(pool)) for _ in range(rng.randint(0, 3))]
            used = [s for _, s in plains] + [s for _, u, v in products for s in (u, v)]
            T = min((s.trunc for s in used), default=8) - rng.randint(0, 2)
            res = _fused(T, plains, products)
            assert res.trunc == T and canonical(res)
            assert res.d == naive_fused(T, plains, products)
        for s in pool:
            for T in range(s.trunc + 2):
                kept = [(total(key), *key, x) for key, x in s.num.items() if total(key) <= T]
                assert s._ints(T) == sorted(kept)


def test_biseries_coefficient_view_is_read_only():
    s = BiSeries(3, {(0, 1): Q(1, 2)})
    with pytest.raises(TypeError):
        s.d[(0, 1)] = Q(3)
    with pytest.raises(TypeError):
        s.d[(0, 2)] = Q(1)
    assert s == BiSeries(3, {(0, 1): Q(1, 2)})


def test_tables_and_checks_rescale_no_rationals(monkeypatch):
    """Once the moments are built, the table and the lattice and Hirota
    checks work on integer numerators only: the rescaling of rational
    coefficients to a common denominator, which the public constructor
    does, is never called."""
    from mapgenus import lattice_oracle

    spec = WeightSpec(nu=2, g_s=Q(1, 6), include_t1=True)
    n_max, T = 7, 4
    moments = hermite_moments(spec, 2 * n_max + 1, T)
    monkeypatch.setattr(lattice_oracle, "hermite_moments", lambda *args: moments)
    calls = []
    qscale = lattice_oracle._qscale

    def counted(xs):
        calls.append(1)
        return qscale(xs)

    monkeypatch.setattr(lattice_oracle, "_qscale", counted)
    table = recurrence_table(spec, n_max, T)
    for kind in ("string", "toda", "toda_t1"):
        assert verify_lattice_equations(table, kind)["status"] == "pass"
    assert verify_hirota(table)["status"] == "pass"
    assert calls == []
    # the counter does see the constructor
    BiSeries(T, {(0, 1): Q(1, 3)})
    assert len(calls) == 1


# -- the recurrence table against the plain Chebyshev algorithm --------------


def deformed_moments(spec, k_max, T):
    """Ordinary moments of the deformed weight, normalized by the Gaussian
    mass: m_k(t) = sum_i (1/i!) (-t/(2 nu g_s))^i (k + 2 nu i - 1)!!
    g_s^((k+2nu i)/2) for even weight order, and the analogous sum over the
    linear deformation in the t1 mode, truncated by total degree.  The
    Gaussian moments (p-1)!! g_s^(p/2) and the (r, i) prefactors come from
    running tables, so each entry costs one product."""
    two_nu = 2 * spec.nu
    g_s = spec.g_s
    r_max = T if spec.include_t1 else 0
    # gauss[q] = (2q-1)!! g_s^q, the Gaussian moment of order p = 2q
    gauss = [Q(1)]
    for q in range(1, (k_max + two_nu * T) // 2 + 1):
        gauss.append(gauss[-1] * (2 * q - 1) * g_s)
    # (-1)^i / (i! (2 nu g_s)^i) and (-1)^r / (r! g_s^r)
    ci = [Q(1)]
    for i in range(1, T + 1):
        ci.append(ci[-1] / (-i * two_nu * g_s))
    cr = [Q(1)]
    for r in range(1, r_max + 1):
        cr.append(cr[-1] / (-r * g_s))
    prefactor = [(r, i, ci[i] * cr[r]) for i in range(T + 1) for r in range(min(r_max, T - i) + 1)]
    out = []
    for k in range(k_max + 1):
        d = {}
        for r, i, c in prefactor:
            p = k + two_nu * i + r
            if not p % 2:
                d[(r, i)] = c * gauss[p // 2]
        out.append(BiSeries(T, d))
    return out


def plain_chebyshev(spec, n_max, T):
    """b2, a and tau2 by the moment recurrence on the ordinary moments,
    sigma[k][l] = E[p_k x^l w]: the row k+1 is sigma[k][l+1] - a_k sigma[k][l]
    - b2_k sigma[k-1][l], the entries below the diagonal skipped."""
    L = 2 * n_max + 1
    zero = BiSeries(T, {})
    sigma_prev, sigma = [zero] * (L + 2), deformed_moments(spec, L, T) + [zero]
    a, b2, tau2 = {}, {}, {0: BiSeries.const(1, T)}
    det = BiSeries.const(1, T)
    for k in range(n_max + 1):
        a[k] = sigma[k + 1] / sigma[k] - (sigma_prev[k] / sigma_prev[k - 1] if k else zero)
        if k:
            b2[k] = sigma[k] / sigma_prev[k - 1]
        if k == n_max:
            break
        det = det * sigma[k]
        tau2[k + 1] = det / det.constant()
        nxt = [zero] * (k + 1)
        for l in range(k + 1, L - k):
            entry = sigma[l + 1] - a[k] * sigma[l]
            if k:
                entry = entry - b2[k] * sigma_prev[l]
            nxt.append(entry)
        sigma_prev, sigma = sigma, nxt + [zero]
    return a, b2, tau2


GRID_G_S = (Q(1), Q(1, 3), Q(2, 7), Q(1, 16))


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_table_matches_plain_chebyshev_over_a_grid(nu):
    """The modified recursion on Hermite moments gives exactly the b2, a and
    tau2 of the plain recursion on ordinary moments, over string
    coefficients, t1 on and off, table sizes and truncations."""
    for g_s in GRID_G_S:
        for with_t1 in (False, True):
            spec = WeightSpec(nu=nu, g_s=g_s, include_t1=with_t1)
            for n_max, T in ((2, 0), (nu + 2, 4), (8, 2), (3, 8 if with_t1 else 24)):
                table = recurrence_table(spec, n_max, T)
                a, b2, tau2 = plain_chebyshev(spec, n_max, T)
                assert table.a == a, (g_s, with_t1, n_max, T)
                assert {n: table.b2[n] for n in b2} == b2
                assert table.tau2 == tau2
                assert all(table.b2[n].is_zero() for n in table.b2 if n <= 0)


def test_hermite_moments_transform_the_ordinary_moments():
    """mu_l = sum_j c_lj m_j, where pi_l = sum_j c_lj x^j are the monic
    Hermite polynomials of variance g_s, pi_(l+1) = x pi_l - l g_s pi_(l-1),
    and mu_l(t = 0) = delta_l0."""
    l_max, T = 11, 4
    for nu in (1, 2, 3, 4):
        for g_s in GRID_G_S:
            for with_t1 in (False, True):
                spec = WeightSpec(nu=nu, g_s=g_s, include_t1=with_t1)
                plain = deformed_moments(spec, l_max, T)
                got = hermite_moments(spec, l_max, T)
                assert len(got) == l_max + 1
                prev, pi = [], [Q(1)]
                for l in range(l_max + 1):
                    ref = {}
                    for j, c in enumerate(pi):
                        for key, v in plain[j].d.items():
                            ref[key] = ref.get(key, Q(0)) + c * v
                    assert got[l] == BiSeries(T, ref), (nu, g_s, with_t1, l)
                    assert got[l].constant() == (l == 0)
                    step = [Q(0)] + pi
                    for j, c in enumerate(prev):
                        step[j] -= l * g_s * c
                    prev, pi = pi, step


# -- the recurrence table against the full Chebyshev algorithm ---------------


def direct_moments(spec, k_max, T):
    """Each moment coefficient straight from its formula,
    (-1)^(i+r) / (i! r! (2 nu g_s)^i g_s^r) (p-1)!! g_s^(p/2), p = k + 2 nu i + r."""
    g_s = spec.g_s
    out = []
    for k in range(k_max + 1):
        d = {}
        for i in range(T + 1):
            for r in range(T - i + 1 if spec.include_t1 else 1):
                p = k + 2 * spec.nu * i + r
                if p % 2:
                    continue
                double_factorial = 1
                for odd in range(p - 1, 0, -2):
                    double_factorial *= odd
                d[(r, i)] = (
                    Q((-1) ** (i + r), factorial(i) * factorial(r))
                    / ((2 * spec.nu * g_s) ** i * g_s ** r)
                    * double_factorial
                    * g_s ** (p // 2)
                )
        out.append(BiSeries(T, d))
    return out


def full_chebyshev(spec, n_max, T):
    """b2, a and tau2 by the moment recurrence with every mixed moment
    sigma[k][l] built by series arithmetic, those below the diagonal
    included; returns them with the full sigma rows."""
    L = 2 * n_max + 1
    zero = BiSeries(T, {})
    rows = [direct_moments(spec, L, T)]
    a, b2 = {}, {}
    for k in range(n_max + 1):
        sigma = rows[k]
        a[k] = sigma[k + 1] / sigma[k] - (rows[k - 1][k] / rows[k - 1][k - 1] if k else zero)
        if k:
            b2[k] = sigma[k] / rows[k - 1][k - 1]
        if k == n_max:
            break
        nxt = []
        for l in range(L - k):
            entry = sigma[l + 1] - a[k] * sigma[l]
            if k:
                entry = entry - b2[k] * rows[k - 1][l]
            nxt.append(entry)
        rows.append(nxt)
    tau2 = {0: BiSeries.const(1, T)}
    det = BiSeries.const(1, T)
    for n in range(1, n_max + 1):
        det = det * rows[n - 1][n - 1]
        tau2[n] = det / det.constant()
    return a, b2, tau2, rows


def test_moments_match_direct_formula():
    for nu in (1, 2, 3, 4):
        for with_t1 in (False, True):
            spec = WeightSpec(nu=nu, g_s=Q(2, 7), include_t1=with_t1)
            assert deformed_moments(spec, 9, 4) == direct_moments(spec, 9, 4)


def test_table_matches_full_chebyshev_recurrence():
    """The table skips the mixed moments below the diagonal; the full
    recurrence computes them, finds them zero, and gives the same b2, a
    and tau2."""
    for nu in (1, 2, 3, 4):
        for with_t1 in (False, True):
            spec = WeightSpec(nu=nu, g_s=Q(1, 5), include_t1=with_t1)
            n_max, T = nu + 3, 3
            table = recurrence_table(spec, n_max, T)
            a, b2, tau2, rows = full_chebyshev(spec, n_max, T)
            for k, row in enumerate(rows):
                assert all(row[l].is_zero() for l in range(k)), (nu, with_t1, k)
            assert {n: table.a[n] for n in a} == a
            assert {n: table.b2[n] for n in b2} == b2
            assert table.tau2 == tau2
            assert all(table.b2[n].is_zero() for n in table.b2 if n <= 0)


def test_hirota_log_work_bound(monkeypatch):
    """One log of each tau2[n] and of each b2[n]/(n g_s) per call: 2 n_max
    logs, where a log per use takes 7 (n_max - 1)."""
    n_max = 10
    table = recurrence_table(spec_nu2(6, with_t1=True), n_max=n_max, T=4)
    calls = []
    log = BiSeries.log

    def counted(self):
        calls.append(1)
        return log(self)

    monkeypatch.setattr(BiSeries, "log", counted)
    assert verify_hirota(table)["status"] == "pass"
    assert len(calls) <= 2 * n_max


def test_hirota_reads_the_table_on_every_call():
    """The logs live for one call only: a tau2 entry replaced by a
    corrupted copy after a passing call fails the next one."""
    table = recurrence_table(spec_nu2(6, with_t1=True), n_max=7, T=4)
    assert verify_hirota(table)["status"] == "pass"
    table.tau2[4] = bumped(table.tau2[4], (1, 2))
    with pytest.raises(VerificationFailure, match=r"^tau_product residual nonzero at n=3,"):
        verify_hirota(table)


def test_hirota_names_the_site_of_a_corrupted_constant():
    """A tau2 entry whose constant term is corrupted fails the product
    check at the first site that reads it, before its log would reject it
    as a non-unit."""
    table = recurrence_table(spec_nu2(6, with_t1=True), n_max=7, T=4)
    table.tau2[4] = bumped(table.tau2[4], (0, 0))
    with pytest.raises(VerificationFailure, match=r"^tau_product residual nonzero at n=3,"):
        verify_hirota(table)


class OffTarget:
    """A ztable whose genus-g target at t-order k is moved by delta; the
    t-coefficient is the u-coefficient times (-1/(2 nu))^k."""

    def __init__(self, ztable, nu, g, k, delta):
        self.ztable, self.g, self.k = ztable, g, k
        self.shift = delta * Q(-2 * nu) ** k

    def series(self, g):
        s = self.ztable.series(g)
        if g != self.g:
            return s
        c = list(s.c)
        c[self.k] += self.shift
        return Series(s.var, c, s.trunc)


@pytest.mark.parametrize("nu, G, g, k, delta", [(2, 2, 2, 4, Q(1)), (3, 1, 1, 2, Q(1, 100))])
def test_asymptotic_match_fails_an_off_target(nu, G, g, k, delta):
    from mapgenus.continuum_even import build_ztable

    ztable = build_ztable(nu, G, 8)
    sites = [4, 6, 8, 10]
    good = asymptotic_match(nu, G, sites, k, ztable=ztable)
    assert good["status"] == "pass"
    bad = asymptotic_match(nu, G, sites, k, ztable=OffTarget(ztable, nu, g, k, delta))
    assert [o["status"] for o in bad["orders"]] == ["pass"] * k + ["fail"]
    assert bad["status"] == "fail"
    assert Q(bad["orders"][k]["target"]) == Q(good["orders"][k]["target"]) + delta


def test_asymptotic_match_needs_a_surplus_site():
    from mapgenus.continuum_even import build_ztable

    # at nu = 3, t-order 3 reaches genus 3: genus 2 and 3 are fitted, so
    # three sites are the fewest that check the fit
    ztable = build_ztable(3, 1, 8)
    assert asymptotic_match(3, 1, [4, 6, 8], 3, ztable=ztable)["status"] == "pass"
    with pytest.raises(RejectedInput, match="no surplus site"):
        asymptotic_match(3, 1, [4, 6], 3, ztable=ztable)
    # the one table has no site 0 to read
    with pytest.raises(RejectedInput, match="positive"):
        asymptotic_match(3, 1, [0, 4, 6, 8], 3, ztable=ztable)


@pytest.mark.parametrize("nu, G, T", [(2, 1, 6), (2, 2, 6), (3, 1, 4), (3, 1, 6), (4, 1, 3), (4, 1, 6)])
def test_asymptotic_match_one_table_equals_per_site_tables(monkeypatch, nu, G, T):
    """The fit reads every site from one table at g_s = 1 through the
    scaling law; a table holding each site's own table at g_s = 1/n, read
    back through the same law, gives the same report."""
    from mapgenus import lattice_oracle
    from mapgenus.continuum_even import build_ztable

    ztable = build_ztable(nu, G, max(T + 2, 8))
    sites = list(range(4, 4 + max(2, (nu - 1) * T // 2 - G + 1)))
    build = lattice_oracle.recurrence_table
    calls = []

    def counted(spec, n_max, T):
        calls.append((spec.g_s, n_max))
        return build(spec, n_max, T)

    monkeypatch.setattr(lattice_oracle, "recurrence_table", counted)
    report = asymptotic_match(nu, G, sites, T, ztable=ztable)
    assert report["status"] == "pass" and calls == [(1, sites[-1])]

    def per_site(spec, n_max, T):
        b2 = {}
        for n in sites:
            own = build(WeightSpec(nu=nu, g_s=Q(1, n)), n, T).b2[n]
            b2[n] = BiSeries(T, {(0, k): own.coeff(0, k) * n ** (1 + (nu - 1) * k) for k in range(T + 1)})
        return RecurrenceTable(spec, n_max, T, b2, {}, {})

    monkeypatch.setattr(lattice_oracle, "recurrence_table", per_site)
    assert asymptotic_match(nu, G, sites, T, ztable=ztable) == report


@pytest.mark.parametrize("nu, with_t1", [(1, False), (2, True), (3, True), (4, False)])
def test_verify_lattice_walks_each_row_once(monkeypatch, nu, with_t1):
    """verify lattice walks L^(2nu) once from each row n and n+1 of every
    site, and its string check reads (L^(2nu-1))_(r,r-1) from the same walk,
    one step before its end: one walk per row, where a walk per check took
    two."""
    from mapgenus import lattice_oracle

    walk = lattice_oracle.operator_power_row
    walks = []

    def counted(table, r, j):
        walks.append((r, j))
        return walk(table, r, j)

    monkeypatch.setattr(lattice_oracle, "operator_power_row", counted)
    nmax = 4
    assert payload_verify_lattice(nu, nmax, 3, with_t1)["status"] == "pass"
    # the table has n_max = nmax + nu + 1, so sites 1 .. nmax + 1
    assert sorted(walks) == [(r, 2 * nu) for r in range(1, nmax + 3)]

