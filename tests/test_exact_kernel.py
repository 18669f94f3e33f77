import random
from fractions import Fraction
from math import gcd

import pytest

from mapgenus.errors import (
    InsufficientData,
    PoleAtBasepoint,
    ReconstructionFailed,
    RejectedInput,
)
from mapgenus.exact_kernel import (
    DLaurent,
    GradedSeries,
    Poly,
    Q,
    RatFn,
    Series,
    poly_gcd,
    qstr,
    ratfn_to_json,
    ratfn_to_series,
    series_log,
    series_to_json,
    series_to_ratfn,
    solve_linear,
)

rng = random.Random(20240917)


def rand_q(span=40):
    return Q(rng.randint(-span, span), rng.randint(1, span))


def same_value(a: RatFn, b: RatFn) -> bool:
    """Value equality of two rational functions: a.num b.den == b.num a.den."""
    return a.num * b.den_base ** b.den_pow == b.num * a.den_base ** a.den_pow


def series_exp(s: Series) -> Series:
    """Formal exp of a series with zero constant term, solving e' = s' e
    order by order: the independent inverse that checks ``series_log``."""
    assert s.coeff(0) == 0
    out = [Q(1)] + [Q(0)] * s.trunc
    for n in range(1, s.trunc + 1):
        out[n] = sum(k * s.coeff(k) * out[n - k] for k in range(1, n + 1)) / n
    return Series(s.var, out, s.trunc)


def test_rational_field_axioms_randomized():
    for _ in range(200):
        a, b, c = rand_q(), rand_q(), rand_q()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if a != 0:
            assert a * (1 / a) == 1


def test_qstr_roundtrip():
    for q in [Q(0), Q(5), Q(-3, 7), Q(22, 4)]:
        assert Q(qstr(q)) == q
    assert qstr(Q(3, 1)) == "3"
    assert qstr(Q(-1, 2)) == "-1/2"


def test_poly_basics():
    p = Poly([1, 2, 1])  # (1+z)^2
    assert p == Poly([1, 1]) ** 2
    assert p.degree == 2
    assert Poly([]).degree == -1
    assert p.eval(3) == 16
    q, r = (p * Poly([0, 1])).divmod(Poly([1, 1]))
    assert q == Poly([0, 1]) * Poly([1, 1]) and r.is_zero()


def test_poly_gcd_monic():
    a = Poly([1, 1]) * Poly([-2, 1]) * 3
    b = Poly([1, 1]) * Poly([5, 1])
    assert poly_gcd(a, b) == Poly([1, 1])


def test_series_log_examples():
    # 1/(1-x) truncated at 3 -> x + x^2/2 + x^3/3
    geo = Series("t", [1, 1, 1, 1])
    assert series_log(geo) == Series("t", [0, 1, Q(1, 2), Q(1, 3)])
    # log 1 = 0
    assert series_log(Series.one("t", 4)).is_zero()
    # 1 + x at T=4 -> alternating harmonic coefficients
    assert series_log(Series("t", [1, 1], 4)) == Series(
        "t", [0, 1, Q(-1, 2), Q(1, 3), Q(-1, 4)]
    )
    with pytest.raises(RejectedInput):
        series_log(Series("t", [2, 1]))


def test_series_log_exp_inverse_and_products_randomized():
    for _ in range(25):
        T = rng.randint(2, 8)
        a = Series("t", [1] + [rand_q(6) for _ in range(T)])
        b = Series("t", [1] + [rand_q(6) for _ in range(T)])
        assert series_exp(series_log(a)) == a
        assert series_log(a * b) == series_log(a) + series_log(b)


def test_series_mixed_truncation_narrows():
    a = Series("t", [1, 1, 1, 1], 3)
    b = Series("t", [1, 2], 1)
    assert (a * b).trunc == 1
    assert (a + b).trunc == 1


def test_ratfn_normalize_examples():
    z_minus_1 = Poly([-1, 1])
    one = RatFn(z_minus_1, z_minus_1, 1)
    assert same_value(one, RatFn(Poly([1]), Poly.one(), 0))
    r = RatFn(Poly([2, 2]), Poly([4]), 1)
    assert r.den_pow == 0 and r.num == Poly([Q(1, 2), Q(1, 2)])
    r = RatFn(Poly([2, -3, 1]), Poly([-2, 1]), 1)  # (z-1)(z-2)/(z-2)
    assert r.den_pow == 0 and r.num == Poly([-1, 1])
    with pytest.raises(RejectedInput):
        RatFn(Poly([1]), Poly([]), 1)


def test_zero_ratfn_has_one_form():
    # zero over any denominator power prints as the zero DLaurent does: 0 / 1
    zero = ratfn_to_json(DLaurent(2, -3, ()).to_ratfn())
    for base in (Poly([2, -1]), Poly([3, -2]), Poly([1, 0, 1])):
        for p in (1, 6):
            r = RatFn(Poly(()), base, p)
            assert (r.num, r.den_base, r.den_pow) == (Poly(()), Poly.one(), 0)
            assert ratfn_to_json(r) == zero


# -- Laurent polynomials in D = nu - (nu-1) z ---------------------------------


def laurent_coeffs(x):
    """The coefficients of D^lo, D^(lo+1), ... of x as Fractions."""
    return tuple(Fraction(a, x.den) for a in x.num)


def at(x, z):
    """x evaluated at z through D = nu - (nu-1) z."""
    d = x.nu - (x.nu - 1) * Q(z)
    return sum((a * d ** (x.lo + i) for i, a in enumerate(laurent_coeffs(x))), Q(0))


def ratfn_deriv_at(r, z):
    """(N / B^P)' = N'/B^P - P N B'/B^(P+1) at z, from the coefficient lists."""
    n, b, p = r.num, r.den_base, r.den_pow
    dn = Poly([i * a for i, a in enumerate(n.c)][1:])
    db = Poly([i * a for i, a in enumerate(b.c)][1:])
    bz = b.eval(z)
    return dn.eval(z) / bz ** p - p * n.eval(z) * db.eval(z) / bz ** (p + 1)


def rand_dlaurent(nu):
    length = rng.randint(0, 7)
    return DLaurent(nu, rng.randint(-6, 2), rand_coeffs(length, (COPRIME_DENOMS, SHARED_DENOMS)[nu % 2]))


def test_dlaurent_arithmetic_and_derivative():
    z = DLaurent.z(2)
    r = DLaurent(2, -1, (1,))  # 1/(2-z) is D^-1 at nu = 2
    s = r * r + r
    assert at(s, 0) == Q(1, 4) + Q(1, 2)
    dr = r.dz()
    assert at(dr, 0) == Q(1, 4)
    assert r * DLaurent(2, 1, (1,)) == DLaurent.const(2, 1)
    assert z - z == 0


def test_dlaurent_ring_matches_evaluation():
    for _ in range(60):
        nu = rng.randint(2, 4)
        a, b = rand_dlaurent(nu), rand_dlaurent(nu)
        q = rand_q(9)
        for x in (Q(0), Q(1), Q(-3, 2), Q(5, 7), rand_q(20)):
            if nu - (nu - 1) * x == 0:
                continue
            assert at(a + b, x) == at(a, x) + at(b, x)
            assert at(a - b, x) == at(a, x) - at(b, x)
            assert at(a * b, x) == at(a, x) * at(b, x)
            assert at(a * q, x) == at(a, x) * q and at(a + q, x) == at(a, x) + q
            assert at(a ** 3, x) == at(a, x) ** 3
            assert at(a.dz(), x) == ratfn_deriv_at(a.to_ratfn(), x)
        assert horner_from_ratfn(a.to_ratfn(), nu) == a
        assert a * b == b * a and (a + b) - b == a
        for k in (1, 2, 3):
            assert (a * DLaurent.z(nu) ** k).div_z(k) == a


def coeffs_at(x, lo, hi):
    """Coefficients of D^lo .. D^(hi-1) as Fractions."""
    return [x.coeff(k) for k in range(lo, hi)]


def test_dlaurent_integer_ring_matches_a_fraction_reference():
    # each operation against the same operation done Fraction by Fraction;
    # equal values must share one reduced representation whatever the
    # denominators they were built over
    for _ in range(60):
        nu = rng.randint(2, 4)
        a, b = rand_dlaurent(nu), rand_dlaurent(nu)
        q = rand_q(9) or Q(1)
        lo, hi = -14, 12
        ca, cb = coeffs_at(a, lo, hi), coeffs_at(b, lo, hi)
        assert coeffs_at(a + b, lo, hi) == [x + y for x, y in zip(ca, cb)]
        assert coeffs_at(a - b, lo, hi) == [x - y for x, y in zip(ca, cb)]
        qa, qb = rand_q(9), rand_q(9)
        combined = DLaurent.combination(nu, [(qa, a), (qb, b), (0, b)])
        assert coeffs_at(combined, lo, hi) == [qa * x + qb * y for x, y in zip(ca, cb)]
        assert coeffs_at(a * q, lo, hi) == [x * q for x in ca]
        n = len(ca)
        prod = [Q(0)] * (2 * n - 1)
        for i, x in enumerate(ca):
            for k, y in enumerate(cb):
                prod[i + k] += x * y
        assert coeffs_at(a * b, 2 * lo, 2 * lo + 2 * n - 1) == prod
        assert coeffs_at(a.dz(), lo - 1, hi - 1) == [(1 - nu) * (lo + i) * x for i, x in enumerate(ca)]
        # the quotient by z = (nu - D)/(nu - 1): f = z h fixes h from the top
        f = a * DLaurent.z(nu)
        cf = coeffs_at(f, lo, hi + 1)
        h = [Q(0)] * len(cf)
        for i in range(len(cf) - 1, 0, -1):
            h[i - 1] = nu * h[i] - (nu - 1) * cf[i]
        assert coeffs_at(f.div_z(), lo, hi) == h[:-1]
        assert laurent_coeffs(a) == tuple(a.coeff(k) for k in range(a.lo, a.lo + len(a.num)))
        for x in (a * q * (1 / q), (a + b) - b, (a * b + a) - a * b):
            assert x == a and (x.lo, x.den, x.num) == (a.lo, a.den, a.num)
        assert gcd(a.den, *a.num) == 1 and a.den > 0


def test_dlaurent_exact_quotients_and_pole_reads():
    with pytest.raises(RejectedInput):
        DLaurent.const(2, 1).div_z()
    with pytest.raises(RejectedInput):
        DLaurent(3, -2, (1, 4)).div_z()
    with pytest.raises(RejectedInput):
        (DLaurent.z(2) * DLaurent(2, -1, (1,))).div_z(2)  # z0 once, not twice
    assert DLaurent.const(2, 0).div_z(3) == 0
    # at nu = 2, z0 = 2 - D: z0 (z0 - 1) / D^2 over z0 is (1 - D)/D^2
    f = DLaurent.z(2) * (DLaurent.z(2) - 1) * DLaurent(2, -2, (1,))
    assert f.div_z().pole_coeffs() == (Q(0), Q(-1), Q(1))
    assert DLaurent.const(3, 0).pole_coeffs() == (Q(0),)
    with pytest.raises(RejectedInput):
        DLaurent.z(2).pole_coeffs()
    with pytest.raises(RejectedInput):
        DLaurent(2, 0, (1,)) + DLaurent(3, 0, (1,))


def test_dlaurent_roundtrips_on_genus_tables():
    from mapgenus.continuum_even import build_ztable
    from mapgenus.genus_even import build_etable

    for nu, g_max in ((2, 3), (3, 2)):
        ztable = build_ztable(nu, g_max, T=5 * g_max + 12)
        etable = build_etable(nu, g_max, ztable=ztable)
        for g, entry in ztable.entries.items():
            lz = horner_from_ratfn(entry.ratfn, nu)
            assert lz == DLaurent.z(nu) * entry.over_z0 and lz.div_z() == entry.over_z0
            assert ratfn_to_json(lz.to_ratfn()) == ratfn_to_json(entry.ratfn)
        for g, entry in etable.entries.items():
            assert horner_from_ratfn(entry.ratfn, nu) == entry.rat
            assert ratfn_to_json(entry.rat.to_ratfn()) == ratfn_to_json(entry.ratfn)


def test_ratfn_to_series_examples():
    # 1/(2-z) about z = 1 + s: 1 + s + s^2
    r = RatFn(Poly([1]), Poly([2, -1]), 1)
    zser = Series("s", [1, 1], 2)
    assert ratfn_to_series(r, zser) == Series("s", [1, 1, 1])
    # identity rational function returns Z itself
    ident = RatFn(Poly([0, 1]), Poly.one(), 0)
    zser = Series("s", [1, 5, 7, 2], 3)
    assert ratfn_to_series(ident, zser) == zser
    with pytest.raises(PoleAtBasepoint):
        ratfn_to_series(r, Series("s", [2, 1], 2))


def test_series_to_ratfn_roundtrips():
    zser = Series("s", [1, 1, Q(1, 3), 5, -2, 1, 4, 1, 1], 8)
    base = Poly([2, -1])
    r = RatFn(Poly([0, 1, 2]), base, 2)
    s = ratfn_to_series(r, zser)
    rec = series_to_ratfn(s, zser, base, max_num_deg=2, max_pole_ord=2)
    assert same_value(rec, r)
    # identity roundtrip with zero pole order
    rec = series_to_ratfn(zser, zser, base, max_num_deg=1, max_pole_ord=0)
    assert rec.den_pow == 0 and rec.num == Poly([0, 1])
    # corrupted coefficient must be detected by the surplus orders
    bad = list(s.c)
    bad[7] += 1
    with pytest.raises(ReconstructionFailed):
        series_to_ratfn(Series("s", bad, 8), zser, base, max_num_deg=2, max_pole_ord=2)
    # far too little data
    with pytest.raises(InsufficientData):
        series_to_ratfn(s.truncate(1), zser, base, max_num_deg=2, max_pole_ord=2)


# -- triangular reconstruction against the dense z^i system ------------------


def plain_expand(r, z, T):
    """r(z(x)) to order T by plain series arithmetic: Horner in z for the
    numerator and the denominator base, one power, one division."""
    zt = z.truncate(T)
    num, base = Series(z.var, (), T), Series(z.var, (), T)
    for a in reversed(r.num.c):
        num = num * zt + a
    for a in reversed(r.den_base.c):
        base = base * zt + a
    return num / base ** r.den_pow


def dense_ratfn(s, z, base, max_num_deg, max_pole_ord):
    """The reconstruction as one dense system solved by ``solve_linear``: a
    column z(x)^i per numerator coefficient, one row per order."""
    T = min(s.trunc, z.trunc)
    if T <= max_num_deg:
        raise InsufficientData("no surplus order")
    zt = z.truncate(T)
    den_s = plain_expand(RatFn(base, Poly.one(), 0), zt, T) ** max_pole_ord
    target = s.truncate(T) * den_s
    cols = [Series.one(z.var, T)]
    for _ in range(max_num_deg):
        cols.append(cols[-1] * zt)
    sol = solve_linear([[col.coeff(k) for col in cols] for k in range(T + 1)], list(target.c))
    return RatFn(Poly(sol[: max_num_deg + 1]), base, max_pole_ord)


def outcome(fn, *args, **kwargs):
    """The reconstruction as comparable data, or the class of its failure."""
    try:
        r = fn(*args, **kwargs)
    except (InsufficientData, ReconstructionFailed) as exc:
        return type(exc)
    return (r.num.c, r.den_base.c, r.den_pow)


def substitution_cases(T):
    """(z, base) pairs: the planar series z0(u) at nu = 2, 3, 4 with its
    base D = nu - (nu-1) z0, and a random series with a rational z(0) != 1
    under a random linear or quadratic base that does not vanish there."""
    from mapgenus.continuum_even import catalan_data

    for nu in (2, 3, 4):
        yield catalan_data(nu, T).z0, Poly([nu, -(nu - 1)])
    z = Series("x", [Q(3, 2), rand_q(9) or 1] + [rand_q(9) for _ in range(T - 1)], T)
    while True:
        base = Poly([rand_q(5) for _ in range(rng.randint(2, 3))])
        if base.degree >= 1 and base.eval(z.c[0]) != 0:
            break
    yield z, base


def test_triangular_reconstruction_matches_dense_solve_randomized():
    solved = 0
    for _ in range(10):
        for z, base in substitution_cases(22):
            pole = rng.randint(0, 4)
            p = rng.randint(0, pole)
            low = (pole - p) * base.degree
            n = low + rng.randint(0, 5)
            r = RatFn(Poly(rand_coeffs(n - low + 1, SHARED_DENOMS)), base, p)
            T = min(22, n + 1 + rng.randint(1, 4))
            s = plain_expand(r, z, T)
            got = outcome(series_to_ratfn, s, z, base, n, pole)
            assert got == outcome(dense_ratfn, s, z, base, n, pole)
            # the data are consistent by construction and leave a surplus
            # order (n <= 13, T >= n + 2), so every case must solve
            assert isinstance(got, tuple), got
            solved += 1
            assert same_value(RatFn(Poly(got[0]), Poly(got[1]), got[2]), r)
    assert solved >= 25


def test_triangular_readback_matches_plain_series_arithmetic():
    for _ in range(8):
        for z, base in substitution_cases(18):
            T = rng.randint(0, 18)
            num = Poly(rand_coeffs(rng.randint(0, 24), COPRIME_DENOMS))
            r = RatFn(num, base ** rng.randint(1, 2), rng.randint(0, 6))
            assert ratfn_to_series(r, z.truncate(T)) == plain_expand(r, z, T)
            assert ratfn_to_series(r, z.truncate(T)).trunc == T


def test_reconstruction_error_paths():
    from mapgenus.continuum_even import catalan_data

    nu, P, n = 3, 5, 8
    z = catalan_data(nu, 20).z0
    base = Poly([nu, -(nu - 1)])
    r = RatFn(Poly([Q(1, 7), -2, 0, 5, Q(3, 11), 1, 0, -1, 2]), base, P)
    s = ratfn_to_series(r, z.truncate(20))
    assert same_value(series_to_ratfn(s, z, base, n, P), r)
    # corrupting any one surplus order breaks the fit
    for k in range(n + 1, 21):
        bad = list(s.c)
        bad[k] += Q(1, 3)
        with pytest.raises(ReconstructionFailed):
            series_to_ratfn(Series("u", bad, 20), z, base, n, P)
    # one surplus order is enough, one order fewer is not
    assert same_value(series_to_ratfn(s.truncate(n + 1), z, base, n, P), r)
    with pytest.raises(InsufficientData):
        series_to_ratfn(s.truncate(n), z, base, n, P)


def test_build_etable_calls_neither_reconstruction_nor_solve_linear(monkeypatch):
    import sys

    from mapgenus.continuum_even import build_ztable
    from mapgenus.genus_even import build_etable

    ztable = build_ztable(2, 3, T=27)
    calls = []

    def recording(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    # every mapgenus namespace that holds either name, so no call site escapes
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("mapgenus"):
            for name in ("series_to_ratfn", "solve_linear"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    etable = build_etable(2, 3, ztable=ztable)
    assert calls == [] and sorted(etable.entries) == [2, 3]


def test_solve_linear_shapes():
    sol = solve_linear([[1, 1], [1, -1], [2, 0]], [3, 1, 4])
    assert sol == [Q(2), Q(1)]
    with pytest.raises(ReconstructionFailed):
        solve_linear([[1, 1], [1, 1]], [1, 2])
    with pytest.raises(InsufficientData):
        solve_linear([[1, 1]], [1])


def test_graded_series_calculus():
    # f = w * z(u w) with z = 1/(1-x): coefficients all 1, base2=2, step2=2
    f = GradedSeries("u", [1, 1, 1, 1], base2=2, step2=2)
    g = f * f
    assert g.base2 == 4 and g.coeff(2) == 3
    d = f.dw()
    # d/dw of w^(1+j) picks up exponent 1+j
    assert d.base2 == 0 and [d.coeff(j) for j in range(4)] == [1, 2, 3, 4]
    assert f.xmul().coeff(1) == 1 and f.xmul().base2 == 0
    assert f.dx().coeff(0) == 1 and f.dx().base2 == 4
    # two graded series never divide; the plain quotient of the same
    # coefficients round-trips
    with pytest.raises(RejectedInput, match="graded series divide only by scalars"):
        g / f
    assert Series("u", g.c) / Series("u", f.c) == Series("u", f.c)


def test_json_roundtrips():
    s = Series("t", [1, Q(-1, 2), 0, 3], 3)
    assert series_to_json(s) == {"var": "t", "trunc": 3, "coeffs": ["1", "-1/2", "0", "3"]}
    # the denominator base is made monic: (2 - z)^3 -> -(z - 2)^3
    r = RatFn(Poly([0, 1, 1]), Poly([2, -1]), 3)
    assert ratfn_to_json(r) == {"var": "z0", "num": ["0", "-1", "-1"], "den_base": ["-2", "1"], "den_pow": 3}


def test_determinism_independent_of_order():
    a = Series("t", [1, 2, 3], 2)
    b = Series("t", [4, 5, 6], 2)
    c = Series("t", [7, 8, 9], 2)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


# -- products against the schoolbook Fraction convolution -------------------


def naive_conv(a, b, n):
    """Coefficients 0..n of a*b, one Fraction operation per partial product."""
    out = [Q(0)] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] += x * y
    return out


COPRIME_DENOMS = (1, 7, 11, 13, 17)
SHARED_DENOMS = (2, 6, 12, 18, 30)


def rand_coeffs(length, denoms, zero_share=0.25, leading_zeros=0):
    """Mixed-sign rationals over `denoms`, with scattered and leading zeros."""
    out = [Q(0)] * leading_zeros
    for _ in range(length - leading_zeros):
        if rng.random() < zero_share:
            out.append(Q(0))
        else:
            out.append(Q(rng.randint(-10**6, 10**6), rng.choice(denoms)))
    return out


def operand_pairs(count=40, max_len=14):
    for k in range(count):
        denoms = (COPRIME_DENOMS, SHARED_DENOMS)[k % 2]
        la, lb = rng.randint(1, max_len), rng.randint(1, max_len)
        a = rand_coeffs(la, denoms, leading_zeros=rng.randint(0, la - 1))
        b = rand_coeffs(lb, (COPRIME_DENOMS, SHARED_DENOMS)[k % 3 == 0])
        if k % 7 == 0:
            b = [Q(0)] * lb  # an all-zero operand
        yield a, b


def canonical(coeffs):
    return all(type(x) is Fraction for x in coeffs)


def test_poly_product_matches_naive_convolution():
    for a, b in operand_pairs():
        pa, pb = Poly(a), Poly(b)
        prod = pa * pb
        if pa.is_zero() or pb.is_zero():
            assert prod == Poly(())
        else:
            assert prod.c == Poly(naive_conv(pa.c, pb.c, pa.degree + pb.degree)).c
        assert (pb * pa).c == prod.c and canonical(prod.c)
    p = Poly(rand_coeffs(6, COPRIME_DENOMS))
    assert Poly(()) * p == p * Poly(()) == Poly(())
    assert (p * 0).is_zero() and (0 * p).is_zero()
    assert (p * Q(-3, 7)).c == tuple(x * Q(-3, 7) for x in p.c)
    assert (5 * p).c == tuple(5 * x for x in p.c)


def test_series_product_matches_naive_convolution():
    for a, b in operand_pairs():
        # unequal truncations: the product narrows to the shorter operand
        sa, sb = Series("t", a), Series("t", b)
        T = min(sa.trunc, sb.trunc)
        for prod in (sa * sb, sb * sa):
            assert prod.trunc == T
            assert list(prod.c) == naive_conv(a, b, T)
            assert canonical(prod.c)
    s = Series("t", rand_coeffs(8, SHARED_DENOMS), 7)
    assert (s * Q(5, 6)).c == tuple(x * Q(5, 6) for x in s.c)
    assert (3 * s).c == tuple(3 * x for x in s.c)
    assert (s * 0).is_zero() and (s * 0).trunc == 7
    with pytest.raises(RejectedInput):
        s * Series("u", [1, 2])


def test_graded_product_matches_naive_convolution():
    for a, b in operand_pairs():
        ga = GradedSeries("u", a, base2=rng.randint(-6, 6), step2=2)
        gb = GradedSeries("u", b, base2=rng.randint(-6, 6), step2=2)
        T = min(ga.trunc, gb.trunc)
        for x, y in ((ga, gb), (gb, ga)):
            prod = x * y
            assert prod.trunc == T and prod.step2 == 2
            assert prod.base2 == ga.base2 + gb.base2
            assert list(prod.c) == naive_conv(x.c, y.c, T)
            assert canonical(prod.c)
    g = GradedSeries("u", rand_coeffs(5, COPRIME_DENOMS), base2=1, step2=3)
    scaled = g * Q(-2, 11)
    assert scaled.base2 == 1 and scaled.c == tuple(x * Q(-2, 11) for x in g.c)
    with pytest.raises(RejectedInput):
        g * GradedSeries("u", [1], base2=0, step2=2)


def test_series_power_matches_repeated_products():
    for denoms in (COPRIME_DENOMS, SHARED_DENOMS):
        s = Series("t", rand_coeffs(7, denoms, leading_zeros=1))
        s = s + 1  # a unit, so no power vanishes identically
        acc = Series.one("t", s.trunc)
        for n in range(7):
            assert s ** n == acc
            acc = acc * s
    p = Poly(rand_coeffs(4, SHARED_DENOMS) + [Q(1, 3)])
    acc = Poly.one()
    for n in range(6):
        assert p ** n == acc
        acc = acc * p


def test_powers_of_every_ring_match_repeated_products(monkeypatch):
    """Poly, Series, DLaurent and GradedSeries share one square-and-multiply
    power: equal to repeated products, the identity at n = 0, and for
    n >= 1 one squaring per bit below the top plus one product per lower
    set bit, none of them by one."""
    bases = [
        Poly(rand_coeffs(3, SHARED_DENOMS) + [Q(2, 5)]),
        Series("t", rand_coeffs(6, COPRIME_DENOMS)) + 1,
        DLaurent(3, -2, rand_coeffs(3, COPRIME_DENOMS) + [Q(-4, 7)]),
        GradedSeries("s", rand_coeffs(6, SHARED_DENOMS), base2=1, step2=3),
    ]
    for base in bases:
        cls = type(base)
        acc = base ** 0
        assert acc * base == base
        calls = []
        mul = cls.__mul__

        def counted(self, other, mul=mul):
            calls.append(1)
            return mul(self, other)

        for n in range(1, 14):
            acc = acc * base
            calls.clear()
            monkeypatch.setattr(cls, "__mul__", counted)
            power = base ** n
            monkeypatch.setattr(cls, "__mul__", mul)
            assert power == acc, (cls.__name__, n)
            assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, (cls.__name__, n)
    graded = bases[3] ** 0
    assert graded.base2 == 0 and graded.trunc == bases[3].trunc


# -- series quotients against the plain Fraction recurrence ------------------


def plain_quotient(a, b, n):
    """Coefficients 0..n of a/b order by order, one Fraction operation per
    partial product: the recurrence both quotients used to run."""
    out = []
    for i in range(n + 1):
        acc = a[i]
        for j in range(1, i + 1):
            acc -= b[j] * out[i - j]
        out.append(acc / b[0])
    return out


def quotient_cases(nu):
    """(numerator, divisor) coefficient lists around the planar series of
    valence nu: z0 itself, D(z0) = nu - (nu-1) z0, and random divisors with
    a non-unit or negative leading coefficient and zero interior
    coefficients, at unequal lengths."""
    from mapgenus.continuum_even import catalan_data

    z0 = catalan_data(nu, 12).z0
    divisors = [
        list(z0.c),
        list((nu - (nu - 1) * z0).c),
        [Q(-3, 7)] + rand_coeffs(9, COPRIME_DENOMS, zero_share=0.5),
        [Q(-nu)] + [Q(0)] * 4 + rand_coeffs(6, SHARED_DENOMS),
        [Q(5, 6)] + rand_coeffs(rng.randint(0, 12), SHARED_DENOMS),
    ]
    for b in divisors:
        a = rand_coeffs(rng.randint(1, 14), (COPRIME_DENOMS, SHARED_DENOMS)[nu % 2])
        yield a, b
        yield b, [Q(1)] + a[1:]


def test_series_quotients_match_plain_recurrence_randomized():
    for nu in (2, 3, 4):
        for a, b in quotient_cases(nu):
            T = min(len(a), len(b)) - 1
            want = plain_quotient(a, b, T)
            q = Series("u", a) / Series("u", b)
            assert q.trunc == T and list(q.c) == want and canonical(q.c)
            # a graded quotient would keep the dividend's weight: refused,
            # and the plain quotient of the same coefficients stands for it
            with pytest.raises(RejectedInput, match="graded series divide only by scalars"):
                GradedSeries("u", a, base2=2, step2=2 * (nu - 1)) / GradedSeries("u", b, base2=-4, step2=2 * (nu - 1))


def test_both_quotients_share_one_integer_kernel(monkeypatch):
    # a series quotient and a rational function's read-back; two graded
    # series never divide
    from mapgenus import exact_kernel

    calls = []
    kernel = exact_kernel._qdiv
    monkeypatch.setattr(exact_kernel, "_qdiv", lambda *args: calls.append(1) or kernel(*args))
    Series("u", [1, 2, 3]) / Series("u", [2, 1])
    ratfn_to_series(RatFn(Poly([1]), Poly([2, -1]), 1), Series("s", [1, 1], 2))
    with pytest.raises(RejectedInput):
        GradedSeries("u", [1, 2], 0, 2) / GradedSeries("u", [-1, 0, 4], 2, 2)
    assert len(calls) == 2


def test_division_by_a_non_unit_still_raises():
    for zero in (Q(0), 0):
        with pytest.raises(RejectedInput):
            Series("u", [1, 2, 3]) / Series("u", [zero, 1, 1])
        with pytest.raises(RejectedInput, match="graded series divide only by scalars"):
            GradedSeries("u", [1, 2], 0, 2) / GradedSeries("u", [zero, 5], 2, 2)
    with pytest.raises(RejectedInput):
        Series("u", [1, 2]) / 0


# -- integer series against the Fraction reference --------------------------


def scalars():
    return [rng.randint(-9, 9), Q(rng.randint(-40, 40), rng.randint(1, 40)), 0]


def test_series_arithmetic_matches_fraction_reference_randomized():
    for a, b in operand_pairs():
        sa, sb = Series("t", a), Series("t", b)
        T = min(len(a), len(b)) - 1
        for got, want in (
            (sa + sb, [x + y for x, y in zip(a, b)]),
            (sa - sb, [x - y for x, y in zip(a, b)]),
            (sb - sa, [y - x for x, y in zip(a, b)]),
            (sa * sb, naive_conv(a, b, T)),
            (sa.derivative(), [i * x for i, x in enumerate(a)][1:] or [Q(0)]),
            (sa.integrate(), [Q(0)] + [x / (i + 1) for i, x in enumerate(a)]),
            (sa ** 3, naive_conv(naive_conv(a, a, len(a) - 1), a, len(a) - 1)),
            (sa ** 0, [Q(1)] + [Q(0)] * (len(a) - 1)),
        ):
            assert type(got) is Series and list(got.c) == want and canonical(got.c)
        if b[0]:
            assert list((sa / sb).c) == plain_quotient(a, b, T)
        j = rng.randint(0, len(a) - 1)
        assert sa.truncate(j).c == tuple(a[: j + 1])
        for q in scalars():
            head = [a[0] + q] + a[1:]
            assert list((sa + q).c) == list((q + sa).c) == head
            assert list((sa - q).c) == [a[0] - q] + a[1:]
            assert list((q - sa).c) == [q - a[0]] + [-x for x in a[1:]]
            assert list((sa * q).c) == list((q * sa).c) == [x * q for x in a]
            if q:
                assert list((sa / q).c) == [x / q for x in a]


def test_graded_arithmetic_matches_fraction_reference_randomized():
    for k, (a, b) in enumerate(operand_pairs()):
        step2 = (2, 3, 4, 1)[k % 4]
        base = rng.randint(-6, 6)
        ga = GradedSeries("u", a, base2=base, step2=step2)
        gb = GradedSeries("u", b, base2=base, step2=step2)
        gc = GradedSeries("u", b, base2=rng.randint(-6, 6), step2=step2)
        T = min(len(a), len(b)) - 1
        n = len(a)
        shift = rng.randint(0, n + 1)
        for got, want, base2 in (
            (ga + gb, [x + y for x, y in zip(a, b)], base),
            (ga - gb, [x - y for x, y in zip(a, b)], base),
            (ga * gc, naive_conv(a, b, T), base + gc.base2),
            (ga ** 2, naive_conv(a, a, n - 1), 2 * base),
            (ga ** 0, [Q(1)] + [Q(0)] * (n - 1), 0),
            (ga.truncate(T), a[: T + 1], base),
            (ga.xmul(shift), ([Q(0)] * shift + a)[:n], base - shift * step2),
            (ga.dw(), [x * Q(base + j * step2, 2) for j, x in enumerate(a)], base - 2),
            (ga.dx(), [j * x for j, x in enumerate(a)][1:] or [Q(0)], base + step2),
        ):
            assert type(got) is GradedSeries and list(got.c) == want and canonical(got.c)
            assert (got.base2, got.step2) == (base2, step2)
        # two graded series never divide; the plain quotient of their
        # coefficients is checked in test_series_arithmetic_matches_fraction_reference_randomized
        with pytest.raises(RejectedInput, match="graded series divide only by scalars"):
            ga / gc
        if b[0]:
            assert list((Series("u", a) / Series("u", b)).c) == plain_quotient(a, b, T)
        for q in scalars():
            scaled = q * ga
            assert list(scaled.c) == list((ga * q).c) == [x * q for x in a] and scaled.base2 == base
        qb, qa, _ = scalars()
        got = GradedSeries.combination([(qa, ga), (qb, gb), (Q(1, 3), ga.truncate(T))])
        assert list(got.c) == [qa * x + qb * y + x / 3 for x, y in zip(a, b)] and got.base2 == base


def test_unreduced_representations_compare_equal():
    for denoms in (COPRIME_DENOMS, SHARED_DENOMS):
        a = rand_coeffs(8, denoms, zero_share=0)
        s = Series("t", a)
        t = (s * 6) * Q(1, 6)
        assert (t.den, t.num) != (s.den, s.num) and t == s and t.c == s.c and repr(t) == repr(s)
        g = GradedSeries("u", a, base2=3, step2=5)
        h = (g * 35) / 35
        assert (h.den, h.num) != (g.den, g.num) and h == g and repr(h) == repr(g)
        assert h != GradedSeries("u", a, base2=1, step2=5)


def test_graded_weights_meet_only_on_nonzero_terms():
    g = GradedSeries("u", [1, Q(1, 2), 3], base2=2, step2=2)
    other = GradedSeries("u", [Q(2, 3), 0, 1], base2=4, step2=2)
    for bad in (lambda: g + other, lambda: g - other, lambda: GradedSeries.combination([(1, g), (2, other)])):
        with pytest.raises(RejectedInput, match="weight mismatch"):
            bad()
    zero = GradedSeries("u", [0, 0, 0], base2=4, step2=2)
    for got in (g + zero, zero + g, g - zero, GradedSeries.combination([(1, g), (0, other)])):
        assert got == g and got.base2 == 2
    assert (zero - zero).base2 == 4
    assert zero == GradedSeries("u", [0], base2=-6, step2=2)
    with pytest.raises(RejectedInput):
        g + GradedSeries("u", [1], base2=2, step2=4)
    with pytest.raises(RejectedInput):
        g + Series("u", [1, 2])
    with pytest.raises(RejectedInput):
        1 - g  # a bare constant names no weight


def test_series_operations_rescale_no_rationals(monkeypatch):
    """Once the operands are built, sums, products, derivatives, shifts,
    truncations and linear combinations work on the integer numerators."""
    from mapgenus import exact_kernel

    a, b = rand_coeffs(9, COPRIME_DENOMS), rand_coeffs(7, SHARED_DENOMS)
    s, t = Series("t", a), Series("t", b)
    g, h = GradedSeries("u", a, base2=2, step2=2), GradedSeries("u", b, base2=2, step2=2)
    odd = GradedSeries("u", b, base2=1, step2=3)
    calls = []
    qscale = exact_kernel._qscale
    monkeypatch.setattr(exact_kernel, "_qscale", lambda xs: calls.append(1) or qscale(xs))
    results = [
        s + t, s - t, s * t, s * Q(-3, 7), 5 * s, s.derivative(), s.truncate(3),
        g + h, g - h, g * h, Q(2, 9) * g, odd * odd, g.dw(), odd.dw(), g.dx(), g.xmul(2), g.truncate(4),
        Series.combination([(Q(1, 2), s), (-3, t)]),
        GradedSeries.combination([(Q(5, 4), g), (2, h)]),
    ]
    assert calls == [] and len(results) == 19


# -- the RatFn <-> DLaurent crossing against the Horner forms ----------------


def horner_from_ratfn(r, nu):
    """r in powers of D by a Horner sum of DLaurent products in z."""
    z = DLaurent.z(nu)
    acc = DLaurent(nu, 0, ())
    for a in reversed(r.num.c):
        acc = acc * z + a
    P = r.den_base.degree * r.den_pow
    return acc * DLaurent(nu, -P, (Q(-(nu - 1)) ** P,))


def horner_to_ratfn(f):
    """f as a RatFn by a Horner sum of Poly products in D = nu - (nu-1) z."""
    D = Poly([f.nu, -(f.nu - 1)])
    P = max(0, -f.lo)
    num = Poly(())
    for a in reversed(laurent_coeffs(f)):
        c = list((num * D).c) or [Q(0)]
        num = Poly([c[0] + a] + c[1:])
    return RatFn(num * D ** (f.lo + P), D, P)


def test_dlaurent_crossing_matches_horner_forms_randomized():
    for nu in (2, 3, 4):
        mono = Poly([Q(-nu, nu - 1), 1])
        for _ in range(25):
            f = rand_dlaurent(nu)
            r = f.to_ratfn()
            assert ratfn_to_json(r) == ratfn_to_json(horner_to_ratfn(f))
            assert f == horner_from_ratfn(r, nu)
            # a reduced RatFn with a power of D below a random nonzero numerator
            num = Poly(rand_coeffs(rng.randint(0, 8), (COPRIME_DENOMS, SHARED_DENOMS)[nu % 2]) + [rand_q() or Q(1)])
            r = RatFn(num, mono, rng.randint(0, 6))
            f = horner_from_ratfn(r, nu)
            assert ratfn_to_json(f.to_ratfn()) == ratfn_to_json(r)


def test_to_ratfn_record_matches_the_normalising_constructor_randomized():
    # to_ratfn stores its parts as they are built; RatFn.__init__ given the
    # same parts must find nothing to reduce, with lo below, at and above 0
    for nu in (2, 3, 5):
        base = Poly([Q(-nu, nu - 1), 1])
        for lo in (-4, -1, 0, 2):
            for _ in range(6):
                ends = [rand_q() or Q(1), rand_q() or Q(-1)]
                f = DLaurent(nu, lo, ends[:1] + rand_coeffs(rng.randint(0, 5), SHARED_DENOMS) + ends[1:])
                assert f.lo == lo
                for g in (f, DLaurent(nu, lo, ())):
                    r = g.to_ratfn()
                    P = max(0, -g.lo)
                    ref = RatFn(r.num, base, P)
                    assert (r.num.c, r.den_base.c, r.den_pow) == (ref.num.c, ref.den_base.c, ref.den_pow)
                    assert same_value(r, horner_to_ratfn(g))
    zero = DLaurent(2, -3, ()).to_ratfn()
    assert (zero.num.c, zero.den_base.c, zero.den_pow) == ((), (1,), 0)
