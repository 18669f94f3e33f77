"""Odd-valence leading order: the trinomial coefficient systems of the
two-component continuum equations, their conservation-law and hodograph
identities, the series solution of the leading pair, trivalent golden
values checked against the matching oracle, and the ``verify odd`` and
``trivalent`` commands' payload builders.

For valence 2 nu + 1 both recurrence strings survive the continuum limit:
the diagonal coefficients scale as w^(1/2) u(s w^(nu-1/2)) and the squared
off-diagonal ones as w f(s w^(nu-1/2)), so the graded bookkeeping runs in
half-integer powers of w (doubled exponents keep everything integral).
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial
from operator import mul

from .combinatorics import Terms
from .errors import RejectedInput, SizeLimit, VerificationFailure, require_positive, status_of
from .exact_kernel import GradedSeries, Q, Series, series_log


# ---------------------------------------------------------------------------
# trivariate polynomials in (s, h, f)
# ---------------------------------------------------------------------------


class TriPoly(Terms):
    """Polynomial in the time s and the two dependent fields h, f; terms
    map (s_degree, h_degree, f_degree) -> Fraction."""

    __slots__ = ()
    ONE = (0, 0, 0)

    @staticmethod
    def _key_mul(k1, k2):
        return k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2]

    @staticmethod
    def monomial(coeff, s=0, h=0, f=0) -> "TriPoly":
        return TriPoly({(s, h, f): coeff})

    def d_h(self) -> "TriPoly":
        return TriPoly(
            {(s, h - 1, f): h * v for (s, h, f), v in self.terms.items() if h}
        )

    def d_f(self) -> "TriPoly":
        return TriPoly(
            {(s, h, f - 1): f * v for (s, h, f), v in self.terms.items() if f}
        )

    def times_s(self) -> "TriPoly":
        return TriPoly({(s + 1, h, f): v for (s, h, f), v in self.terms.items()})

    def eval_graded(self, powers: "GradedPowers") -> GradedSeries:
        """Evaluate on the graded series fields of ``powers``, reading every
        h^a f^b from its shared table; plain s multiplies as the time
        variable (one weight step down per power)."""
        h = powers.h
        total = None
        for (sdeg, hdeg, fdeg), coeff in self.terms.items():
            if hdeg or fdeg:
                term = powers.get(hdeg, fdeg) * coeff
            else:
                term = GradedSeries.const(h.var, coeff, 0, h.step2, h.trunc)
            if sdeg:
                term = term.xmul(sdeg)
            total = term if total is None else total + term
        if total is None:
            total = GradedSeries.const(h.var, 0, 0, h.step2, h.trunc)
        return total


class GradedPowers:
    """The products h^a f^b of two graded series fields, each multiplied
    out once and shared by every polynomial evaluated on the same (h, f):
    a pure power by one product from the one below it, a mixed product
    h^a f^b on first use."""

    __slots__ = ("h", "f", "_hp", "_fp", "_mixed")

    def __init__(self, h: GradedSeries, f: GradedSeries):
        self.h = h
        self.f = f
        self._hp = [None, h]
        self._fp = [None, f]
        self._mixed: dict[tuple[int, int], GradedSeries] = {}

    @staticmethod
    def _pure(table: list, k: int) -> GradedSeries:
        while len(table) <= k:
            table.append(table[-1] * table[1])
        return table[k]

    def get(self, a: int, b: int) -> GradedSeries:
        """h^a f^b for (a, b) != (0, 0)."""
        if not b:
            return self._pure(self._hp, a)
        if not a:
            return self._pure(self._fp, b)
        out = self._mixed.get((a, b))
        if out is None:
            out = self._pure(self._hp, a) * self._pure(self._fp, b)
            self._mixed[(a, b)] = out
        return out


# ---------------------------------------------------------------------------
# the coefficient polynomials of the two-component system
# ---------------------------------------------------------------------------


def trinomial(n: int, a: int, b: int, c: int) -> int:
    """Multinomial n!/(a! b! c!), zero whenever any lower index is negative."""
    if a < 0 or b < 0 or c < 0 or a + b + c != n:
        return 0
    return factorial(n) // (factorial(a) * factorial(b) * factorial(c))


def odd_coeff_polys(nu: int) -> dict[str, TriPoly]:
    """Transport matrices, hodograph matrices and flux components for
    valence 2 nu + 1, with every negative-index trinomial zero.

    The flat-step count mu runs from 0 in every sum: the printed transport
    coefficient that starts at mu = 1 fails the conservation-form identities
    (its constant-in-h term is forced), so the mu = 0 term is included and
    the identity suite below is the arbiter.
    """
    if nu < 1:
        raise RejectedInput("valence parameter must be >= 1")
    n = 2 * nu
    w = 2 * nu + 1
    # each polynomial is one sum over its (s, h, f) keys
    B11 = TriPoly(
        ((0, 2 * mu - 1, nu - mu + 1), trinomial(n, 2 * mu - 1, nu - mu, nu - mu + 1))
        for mu in range(1, nu + 1)
    )
    B12 = TriPoly(((0, 2 * mu, nu - mu), trinomial(n, 2 * mu, nu - mu, nu - mu)) for mu in range(nu + 1))
    A11 = TriPoly(
        [(TriPoly.ONE, 1)]
        + [
            ((1, 2 * mu + 1, nu - mu - 1), w * trinomial(n, 2 * mu + 1, nu - mu - 1, nu - mu) * (nu - mu))
            for mu in range(nu)
        ]
    )
    A12 = TriPoly(
        ((1, 2 * mu, nu - mu - 1), w * trinomial(n, 2 * mu, nu - mu - 1, nu - mu + 1) * (nu - mu + 1))
        for mu in range(nu)
    )
    Psi1 = TriPoly(
        ((0, 2 * mu, nu - mu + 1), trinomial(n + 1, 2 * mu, nu - mu, nu - mu + 1)) for mu in range(nu + 1)
    )
    Psi2 = TriPoly(
        ((0, 2 * mu + 1, nu - mu + 1), trinomial(n + 1, 2 * mu + 1, nu - mu - 1, nu - mu + 1))
        for mu in range(nu + 1)
    )
    return {"B11": B11, "B12": B12, "A11": A11, "A12": A12, "Psi1": Psi1, "Psi2": Psi2}


def verify_odd_identities(nu: int) -> dict:
    """The four conservation-form identities and the three hodograph
    consistency identities, checked as exact polynomial equalities."""
    P = odd_coeff_polys(nu)
    w = 2 * nu + 1
    checks = [
        ("flux1_h", P["Psi1"].d_h(), w * P["B11"]),
        ("flux1_f", P["Psi1"].d_f(), w * P["B12"]),
        ("flux2_f", P["Psi2"].d_f(), w * P["B11"]),
        ("flux2_h", P["Psi2"].d_h() + P["Psi1"], w * TriPoly.monomial(1, f=1) * P["B12"]),
        ("hodograph_A11_h", P["A11"], 1 + w * P["B12"].d_h().times_s()),
        ("hodograph_A11_f", P["A11"], 1 + w * P["B11"].d_f().times_s()),
        ("hodograph_A12", P["A12"], w * P["B12"].d_f().times_s()),
        (
            "hodograph_A12_dual",
            TriPoly.monomial(1, f=1) * P["A12"],
            w * P["B11"].d_h().times_s(),
        ),
    ]
    results = []
    for name, lhs, rhs in checks:
        if lhs != rhs:
            raise VerificationFailure("odd identity %s fails at nu=%d" % (name, nu))
        results.append({"identity": name, "status": "pass"})
    return {"nu": nu, "identities": results, "status": "pass"}


# ---------------------------------------------------------------------------
# series solution of the leading pair
# ---------------------------------------------------------------------------


# h0, f0 as graded series in s: h0 carries weight w^(1/2 + j(nu-1/2)), f0
# weight w^(1 + j(nu-1/2)) at order s^j (doubled exponents).  ``powers`` is
# the shared GradedPowers table of h0^a f0^b; ``residuals`` is the report of
# the identity suite that ``solve_leading_odd`` ran on the pair.
OddLeadingPair = namedtuple("OddLeadingPair", "nu h0 f0 powers residuals")


def _product_coeff(x: list[int], y: list[int], n: int) -> int:
    """The s^n coefficient of the product of two coefficient lists."""
    return sum(map(mul, x[: n + 1], reversed(y[: n + 1])))


def _leading_orders(nu: int, T: int, P: dict) -> tuple[list[int], list[int]]:
    """The s-coefficients 0..T of (h0, f0) at w = 1, each order computed
    once, on integers.  Order p of h = -(2nu+1) s B12(h, f) and
    f = 1 - (2nu+1) s B11(h, f) reads only orders below p, so each pure
    power h^a, f^b gains one order per step and each monomial of B11 and
    B12 costs one more product coefficient.  The polynomials' coefficients
    are trinomials, read by their numerators; the hodograph residuals of
    ``solve_leading_odd`` re-check the pair against the polynomials."""
    w = 2 * nu + 1
    h, f = [0] * (T + 1), [1] + [0] * T
    polys = [([(key, c.numerator) for key, c in P[name].terms.items()], out) for name, out in (("B12", h), ("B11", f))]
    top = max(max(a, b) for terms, _ in polys for (_s, a, b), _c in terms)
    # powers of h and of f: [x^0, x, x^2, ...], filled in order by order
    hp, fp = ([[1] + [0] * T, x] + [[0] * (T + 1) for _ in range(top - 1)] for x in (h, f))
    for n in range(T):
        for powers, x in ((hp, h), (fp, f)):
            for k in range(2, top + 1):
                powers[k][n] = _product_coeff(powers[k - 1], x, n)
        for terms, out in polys:
            out[n + 1] = -w * sum(c * _product_coeff(hp[a], fp[b], n - s) for (s, a, b), c in terms if s <= n)
    return h, f


def solve_leading_odd(nu: int, T: int) -> OddLeadingPair:
    """Solve the hodograph relations for their unique series fixed point
    and verify the transport and conservation forms exactly.

    Starting from (h, f) = (0, w), the fixed point of
        h <- -(2nu+1) s B12(h, f),    f <- w - (2nu+1) s B11(h, f)
    is fixed one order in s at a time: the factor s makes order p of the
    images depend on orders below p alone (``_leading_orders``).  The
    hodograph residuals are then checked at the full truncation T.  The
    fixed point satisfies the leading transport system and its
    conservation form identically, and the string system normalized with
    right side (0, 1) (the printed extra factor of s does not come out of
    the hodograph differentiation; pinned here and recorded).  The
    identity suite runs once, and its report is kept as
    ``pair.residuals``.
    """
    if T < 1:
        raise RejectedInput("need at least one series order")
    P = odd_coeff_polys(nu)
    w = 2 * nu + 1
    step2 = 2 * nu - 1
    hs, fs = _leading_orders(nu, T, P)
    h = GradedSeries("s", hs, base2=1, step2=step2)
    f = GradedSeries("s", fs, base2=2, step2=step2)
    pair = OddLeadingPair(nu, h, f, GradedPowers(h, f), None)
    # fixed point reached: residuals of the hodograph relations
    if not (h + w * P["B12"].eval_graded(pair.powers).xmul(1)).is_zero():
        raise VerificationFailure("hodograph fixed point not reached for h")
    w_series = GradedSeries("s", [1], base2=2, step2=step2, trunc=T)
    if not (f + w * P["B11"].eval_graded(pair.powers).xmul(1) - w_series).is_zero():
        raise VerificationFailure("hodograph fixed point not reached for f")
    return pair._replace(residuals=verify_leading_residuals(pair, P))


def verify_leading_residuals(pair: OddLeadingPair, P) -> dict:
    nu = pair.nu
    w = 2 * nu + 1
    h, f, powers = pair.h0, pair.f0, pair.powers
    B11 = P["B11"].eval_graded(powers)
    B12 = P["B12"].eval_graded(powers)
    r1 = h.dx() + w * (B11 * h.dw() + B12 * f.dw()).truncate(h.trunc - 1)
    r2 = f.dx() + w * (f * B12 * h.dw() + B11 * f.dw()).truncate(h.trunc - 1)
    if not (r1.is_zero() and r2.is_zero()):
        raise VerificationFailure("leading transport system fails at nu=%d" % nu)
    Psi1 = P["Psi1"].eval_graded(powers)
    Psi2 = P["Psi2"].eval_graded(powers)
    c1 = h.dx() + Psi1.dw().truncate(h.trunc - 1)
    c2 = (f + powers.get(2, 0) * Q(1, 2)).dx() + (Psi2 + h * Psi1).dw().truncate(h.trunc - 1)
    if not (c1.is_zero() and c2.is_zero()):
        raise VerificationFailure("conservation-law form fails at nu=%d" % nu)
    A11 = P["A11"].eval_graded(powers)
    A12 = P["A12"].eval_graded(powers)
    s1 = A11 * h.dw() + A12 * f.dw()
    one = GradedSeries("s", [1], base2=0, step2=h.step2, trunc=h.trunc)
    s2 = f * A12 * h.dw() + A11 * f.dw() - one
    if not (s1.is_zero() and s2.is_zero()):
        raise VerificationFailure("string system fails at nu=%d" % nu)
    # parity: h is odd and f is even under (s, h) -> (-s, -h)
    if any(h.coeff(j) for j in range(0, h.trunc + 1, 2)) or any(
        f.coeff(j) for j in range(1, f.trunc + 1, 2)
    ):
        raise VerificationFailure("parity structure fails at nu=%d" % nu)
    return {
        "nu": nu,
        "order": pair.h0.trunc,
        "identities": ["transport", "conservation", "string", "parity"],
        "status": "pass",
    }


# ---------------------------------------------------------------------------
# trivalent golden values
# ---------------------------------------------------------------------------


def trivalent_z0(T: int) -> Series:
    """Planar series for valence 3 in tau = t3^2: the positive solution of
    1 = z^2 - 72 tau z^3, by fixed-point iteration of
    z = 1 + 72 tau z^3/(1 + z)."""
    z = Series.one("tau", T)
    tau = Series.x("tau", T)
    for _ in range(T + 1):
        znew = 1 + 72 * tau * z ** 3 / (1 + z)
        if znew == z:
            break
        z = znew
    return z


def trivalent_closed_forms(T: int) -> dict[int, Series]:
    """Genus 0..2 free-energy coefficients for valence 3, expanded in
    tau = t3^2 from their closed forms in the planar series."""
    z = trivalent_z0(T)
    one = Series.one("tau", T)
    e0 = series_log(z) * Q(1, 2) + Q(1, 12) * (z - 1) * (z * z - 6 * z - 3) / (z + 1)
    inner = (3 - z * z) / 2
    e1 = Q(-1, 24) * series_log(inner / inner.coeff(0))
    num = (z * z - 1) ** 3 * (4 * z ** 4 - 93 * z * z - 261)
    den = (z * z - 3) ** 5
    e2 = Q(1, 960) * num / den
    return {0: e0, 1: e1, 2: e2}


def trivalent_checks(T: int = 6, m_max: int = 4) -> dict:
    """Expand the trivalent golden forms, freeze the single scale constant
    on one planar coefficient, then require every other coefficient to
    reproduce the matching oracle with no remaining freedom.

    The scale is t3 = beta * t with beta^2 = 1/9: calibrated on the
    two-vertex planar count and then applied to every (genus, vertex-count)
    pair with m <= m_max (odd m carry no matchings on either side)."""
    from . import fatgraph_oracle

    if m_max % 2 or m_max < 2:
        raise RejectedInput("m_max must be even and >= 2")
    # the counts first: an m_max past the matching cap fails before the
    # golden forms are expanded
    kappa = {m: fatgraph_oracle.kappa_counts(3, m) for m in range(2, m_max + 1, 2)}
    forms = trivalent_closed_forms(T)
    # calibration on (g=0, m=2): e0 = 6 tau + ... and kappa/(2! 3^2) = 2/3
    lead = forms[0].coeff(1)
    target = Q(kappa[2].get(0, 0), factorial(2) * 9)
    beta2 = target / lead
    if beta2 != Q(1, 9):
        raise VerificationFailure("calibration constant is not 1/9: %s" % beta2)
    comparisons = []
    for g in (0, 1, 2):
        for m in range(2, m_max + 1, 2):
            p = m // 2
            if p > T:
                continue
            predicted = forms[g].coeff(p) * beta2 ** p
            expected = Q(kappa[m].get(g, 0), factorial(m) * 3 ** m)
            if predicted != expected:
                raise VerificationFailure(
                    "trivalent golden value fails at g=%d, m=%d: %s != %s"
                    % (g, m, predicted, expected)
                )
            comparisons.append({"g": g, "m": m, "value": str(expected), "status": "pass"})
    return {
        "identity": "trivalent_golden_values",
        "order": T,
        "m_max": m_max,
        "calibration": "t3 = t/3",
        "comparisons": comparisons,
        "status": "pass",
    }


# ---------------------------------------------------------------------------
# the verify odd and trivalent commands
# ---------------------------------------------------------------------------


def payload_verify_odd(nu: int, order: int) -> dict:
    require_positive("--nu", nu)
    require_positive("--order", order)
    coefficients = verify_odd_identities(nu)
    pair = solve_leading_odd(nu, order)
    identities = [
        {"tag": "coefficient_identities", "status": coefficients["status"]},
        {"tag": "leading_pair_residuals", "status": pair.residuals["status"]},
    ]
    return {"nu": nu, "order": order, "identities": identities, "status": status_of(identities)}


def payload_trivalent(mmax: int) -> dict:
    if mmax % 2 or mmax < 2:
        raise RejectedInput("--mmax must be even and >= 2")
    from .fatgraph_oracle import HALF_EDGE_CAP

    top = HALF_EDGE_CAP // 6 * 2  # the largest even count of trivalent vertices within the cap
    if mmax > top:
        raise SizeLimit("--mmax must be <= %d: the map counts stop at %d half-edges" % (top, HALF_EDGE_CAP))
    return trivalent_checks(T=max(4, mmax // 2 + 2), m_max=mmax)
