"""Even-valence continuum machinery: the planar generating function and its
higher Catalan coefficients, the ring calculus that both genus families are
solved in, the expansion of the lattice equations into the continuum, the
solver producing every higher-genus two-leg generating function z_g as a
rational function of z0, the check of the continuum hierarchy on the solved
family, and the ``z0`` and ``zg`` commands' payload builders.  The hodograph
solution, the jet-form hierarchy and the string antiderivative, which only
``verify continuum`` runs, live in ``checks``.

Orientation convention (pinned once, used everywhere): the canonical map
variable u satisfies

    z0 = 1 + c u z0^nu,        c = 2 nu binom(2 nu - 1, nu - 1),

so z0 has positive higher-Catalan coefficients and u = -t/(2 nu) in terms
of the physical coupling t of the lattice oracle.  In this
orientation the hodograph relation reads w = f0 - c u f0^nu and the leading
transport equation is df0/du = c f0^nu dw f0.  The fat-graph and lattice
oracles both pin this calibration; see the acceptance suite.

Self-similarity f_g(u, w) = w^(1-2g) z_g(u w^(nu-1)) reduces every spatial
derivative at w = 1 to a graded operator chain on functions of z0 alone:
a lift of weight w^a differentiates to a X + theta X with theta =
(nu-1) u d/du.  Every z_g/z0 and every e_g (g >= 2) is a Laurent
polynomial in D = nu - (nu-1) z0 (``exact_kernel.DLaurent``), and the
ring is closed under theta and d/du, so the string equation is solved for
z_g in that ring (``solve_zg``) as the tau recursion is solved for e_g
(``genus_even.solve_eg``); a series appears only when one is printed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from itertools import groupby
from math import comb, factorial, prod
from math import lcm as _int_lcm

from .combinatorics import LatticePolynomial, c_valence, higher_catalan, lattice_equation_exprs, painleve_a
from .errors import RejectedInput, ResonanceFailure, VerificationFailure, require_higher_genus, require_positive
from .exact_kernel import DLaurent, Poly, Q, RatFn, Series, qstr, ratfn_to_json, ratfn_to_series, series_to_json

# ---------------------------------------------------------------------------
# planar data
# ---------------------------------------------------------------------------


# zetas[j-1] is the j-th higher Catalan number; z0 is a Series
CatalanData = namedtuple("CatalanData", "c zetas z0")


def catalan_data(nu: int, T: int) -> CatalanData:
    """Higher Catalan numbers and the planar series z0(u) = sum zeta_j c^j u^j.

    Both closed forms of c and of zeta_j must agree, and the functional
    equation z0 = 1 + c u z0^nu is asserted to hold identically to order T.
    """
    if nu < 1 or T < 1:
        raise RejectedInput("need nu >= 1 and T >= 1")
    c = Q(c_valence(nu))
    zetas = tuple(higher_catalan(nu, j) for j in range(1, T + 1))
    z0 = Series("u", [Q(1)] + [zetas[j - 1] * c ** j for j in range(1, T + 1)], T)
    res = functional_residual(z0, nu, c)
    if not res.is_zero():
        raise VerificationFailure("planar functional equation fails: %r" % res)
    return CatalanData(c=c, zetas=zetas, z0=z0)


def functional_residual(z0: Series, nu: int, c: Fraction) -> Series:
    """Residual of z0 - 1 - c u z0^nu (zero iff z0 is the planar series)."""
    u = Series.x(z0.var, z0.trunc)
    return z0 - 1 - c * u * z0 ** nu


# ---------------------------------------------------------------------------
# the ring calculus: Laurent in D plus two fixed log species
# ---------------------------------------------------------------------------


@cache
def _carriers(nu: int) -> tuple[DLaurent, DLaurent]:
    """The d/dz0 carriers of the map and spatial transports:
    dz0/du = c z0^(nu+1)/D and theta = (nu-1) z0 (z0-1)/D."""
    z = DLaurent.z(nu)
    inv_d = DLaurent(nu, -1, (1,))
    return c_valence(nu) * z ** (nu + 1) * inv_d, (nu - 1) * z * (z - 1) * inv_d


class LogRational(namedtuple("LogRational", "nu rat c0 c1", defaults=(Q(0), Q(0)))):
    """rat + c0 log z0 + c1 log D with rat a Laurent polynomial in D, closed
    under d/du and under the graded spatial derivative at w = 1."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return LogRational(self.nu, self.rat + other, self.c0, self.c1)
        if self.nu != other.nu:
            raise RejectedInput("valence mismatch")
        return LogRational(
            self.nu, self.rat + other.rat, self.c0 + other.c0, self.c1 + other.c1
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * (-1)

    def __mul__(self, scalar):
        scalar = Q(scalar)
        return LogRational(self.nu, self.rat * scalar, self.c0 * scalar, self.c1 * scalar)

    __rmul__ = __mul__

    def is_rational(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def _transport(self, carrier: DLaurent) -> "LogRational":
        """carrier * d/dz0 on every part; the carrier is divisible by z0,
        and log z0, log D differentiate to 1/z0 and -(nu-1)/D."""
        out = carrier * self.rat.dz()
        if self.c0:
            out = out + carrier.div_z() * self.c0
        if self.c1:
            out = out + carrier * DLaurent(self.nu, -1, ((1 - self.nu) * self.c1,))
        return LogRational(self.nu, out)

    def du(self) -> "LogRational":
        """Derivative in the map variable through dz0/du = c z0^(nu+1)/D."""
        return self._transport(_carriers(self.nu)[0])

    def theta(self) -> "LogRational":
        """Spatial transport (nu-1) z0 (z0-1)/D d/dz0 on every part."""
        return self._transport(_carriers(self.nu)[1])

    def grade_dw(self, a: int) -> "LogRational":
        """One spatial derivative of w^a X at w = 1: a X + theta X."""
        return self * a + self.theta()

    def theta_inverse(self, b: int) -> "LogRational":
        """The rational X with theta X + b X = self, for self rational, a
        Laurent polynomial in D with top power K >= 0 and b outside 0 .. K:
        the spatial antiderivative, at w = 1, of a lift of weight w^(b-1)
        (``grade_dw`` undone).

        On the ring theta D^k = -k nu D^(k-2) + k (nu+1) D^(k-1) - k D^k,
        so the D^k equation fixes the D^k coefficient of X with pivot b - k,
        from the top power down to the constant, and the D^-(m+2) equation
        fixes the D^-m coefficient with pivot m nu, from the top pole down.
        The D^-1 and D^-2 equations are left over: two exact surplus
        checks.  The kernel of theta + b is spanned by a power of u, which
        is no Laurent polynomial in D, so X is unique.

        The solve runs on integers: with self = r / den (r_k the D^k
        numerator), P_m = prod_(m <= i <= M) i nu for the top pole M of X
        and Q_k = prod_(k <= i <= K) (b - i), Xn[m] = den P_m x_(-m) and
        Xp[k] = den Q_k x_k are integers, because each pivot divides its
        product, so no step divides."""
        nu, lo, den, num = self.nu, self.rat.lo, self.rat.den, self.rat.num

        def r(k):
            return num[k - lo] if 0 <= k - lo < len(num) else 0

        M, K = max(-lo - 2, 0), max(lo + len(num) - 1, 0)
        if 0 <= b <= K:
            raise RejectedInput("theta %+d meets a zero pivot at D^%d" % (b, b))
        Xn = [0] * (M + 3)
        p = 1  # P_(m+1)
        for m in range(M, 0, -1):
            Xn[m] = r(-m - 2) * p + (m + 1) * ((nu + 1) * Xn[m + 1] - (b + m + 2) * nu * Xn[m + 2])
            p *= m * nu
        Xp = [0] * (K + 3)
        q = 1  # Q_(k+1)
        for k in range(K, -1, -1):
            Xp[k] = r(k) * q - (k + 1) * ((nu + 1) * Xp[k + 1] - (k + 2) * nu * (b - k - 1) * Xp[k + 2])
            q *= b - k
        # the D^-1 equation (b+1) x_-1 - nu x_1 = r_-1/den over den P_1 Q_0,
        # and the D^-2 equation (b+2) x_-2 - (nu+1) x_-1 = r_-2/den over den P_1
        if (b + 1) * Xn[1] * q - nu * b * Xp[1] * p != r(-1) * p * q or (
            (b + 2) * nu * Xn[2] - (nu + 1) * Xn[1] != r(-2) * p
        ):
            raise ResonanceFailure("theta %+d has no Laurent solution: a surplus order fails" % b)
        # over the common denominator den P_1 Q_0
        out = [0] * (M + K + 1)
        f = q
        for m in range(1, M + 1):
            out[M - m] = Xn[m] * f
            f *= m * nu
        f = p
        for k in range(K + 1):
            out[M + k] = Xp[k] * f
            f *= b - k
        return LogRational(nu, DLaurent.of_ints(nu, -M, den * p * q, out))

    def series(self, etable) -> Series:
        """The expansion over the planar series of ``etable`` (a
        ``genus_even.ETable``), log species included."""
        out = ratfn_to_series(self.rat.to_ratfn(), etable.z0)
        if self.c0:
            out = out + self.c0 * etable.log_z0
        if self.c1:
            out = out + self.c1 * etable.log_base
        return out


def _graded_chain(chain: list[LogRational], a: int, p: int) -> list[LogRational]:
    """Extend the graded chain of a self-similar lift of weight w^a,
    chain[i] its i-th spatial derivative at w = 1, to order p: the i-th
    step differentiates a lift of weight w^(a-i)."""
    for i in range(len(chain) - 1, p):
        chain.append(chain[-1].grade_dw(a - i))
    return chain


# ---------------------------------------------------------------------------
# the lattice -> continuum expansion engine
# ---------------------------------------------------------------------------
#
# Substituting the two-scale expansion b2_{n+k} = sum_{h,j} n^(-2h-j)
# (k^j / j!) dw^j f_h(u, w) into a lattice polynomial and collecting powers
# of 1/n turns each lattice equation into a tower of exact identities, of
# which only the top order N is ever read.  It is reached in three steps.
# Sum over j: the weight k^j of a jet does not depend on its genus h, so
# each term c prod_i b2_{n+kappa_i} expands over the derivative orders alone
# into sorted j-tuples lambda, N - |lambda| even and >= 0, at c m_lambda(kappa);
# terms that differ only in their last offset share the walk, and all terms
# of one t-degree meet in one sum per lambda (``monomial_sums``, which also
# gives ``checks`` the hierarchy's box coefficients).  Label: each lambda
# with a nonzero sum takes every choice of genus labels h <= gmax with sum
# 2h = N - |lambda|, the r_j slots of one j a multiset of labels weighted
# r_j! / prod_h a_(h,j)!, which gives the jet polynomial over the symbols
# (h, j) = dw^j f_h.  Evaluate: multiply out its monomials at w = 1 in the
# D ring, in Horner form.  Every jet is one Laurent polynomial in D (the
# graded chain of its lift, ``ZTable.jet``); a shared prefix symbol is one
# ring product with the level below, and a last symbol enters its level
# scaled by its coefficient.  A monomial's w-weight is its factor count
# less its order, so the weight check reads the collected keys alone.


def _sum_over_j(node: dict, partial: dict, N: int, out: dict) -> None:
    """Extend each sorted j-tuple of ``partial`` by one j per offset kappa of
    the trie ``node``, weighted kappa^j, into ``out``.  A None entry holds
    the summed weights of the last factors of the terms that end there; a
    last factor reads only the j that leave N - |lambda| even and >= 0."""
    for kappa, child in node.items():
        last = kappa is None
        weights, grown = (child, out) if last else ([kappa ** j for j in range(N + 1)], {})
        for lam, c in partial.items():
            room = N - sum(lam)
            for j in range(room % 2, room + 1, 2) if last else range(room + 1):
                key = tuple(sorted(lam + (j,)))
                grown[key] = grown.get(key, 0) + c * weights[j]
        if not last:
            _sum_over_j(child, grown, N, out)


def monomial_sums(terms, N: int) -> dict:
    """Stage 1 over the (offsets, c) pairs ``terms``, each with at least one
    offset: the sum S_lambda of c m_lambda(offsets) for every sorted j-tuple
    lambda with one j per offset (zeros included) and N - |lambda| even and
    >= 0, 0**0 counting as 1.  The offsets but the last go into a trie, and
    each leaf sums c kappa^j, j = 0..N, over the last offsets that end there."""
    trie: dict = {}
    for offsets, c in terms:
        node = trie
        for kappa in offsets[:-1]:
            node = node.setdefault(kappa, {})
        node[None] = [x + c * offsets[-1] ** j for j, x in enumerate(node.get(None, [0] * (N + 1)))]
    sums: dict = {}
    _sum_over_j(trie, {(): 1}, N, sums)
    return sums


@cache
def _labellings(r: int, s: int, hmax: int) -> tuple:
    """The multisets of r genus labels 0 <= h <= hmax that sum to s, each as
    (its labels in ascending order, its arrangements r! / prod_h a_h!)."""
    if hmax == 0:
        return (((0,) * r, 1),) if s == 0 else ()
    return tuple((rest + (hmax,) * a, comb(r, a) * w) for a in range(min(r, s // hmax) + 1)
                 for rest, w in _labellings(r - a, s - a * hmax, hmax - 1))


def _label(lam: tuple, coeff, H: int, hmax: int, out: dict) -> None:
    """Add coeff times every labelling of the sorted j-tuple ``lam`` by genera
    h <= hmax that sum to H to the jet polynomial ``out`` (sorted symbol
    tuple -> coefficient)."""
    groups = [(j, len(list(run))) for j, run in groupby(lam)]
    parts = [((), coeff, H)]
    for i, (j, r) in enumerate(groups, 1 - len(groups)):  # i == 0: the last group takes what is left
        parts = [(mono + tuple((h, j) for h in hs), c * w, left - s) for mono, c, left in parts
                 for s in (range(min(left, r * hmax) + 1) if i else (left,)) for hs, w in _labellings(r, s, hmax)]
    for mono, c, left in parts:
        if not left:
            key = tuple(sorted(mono))
            out[key] = out.get(key, 0) + c


def _ring_value(poly: dict, ztable: "ZTable") -> DLaurent:
    """The sum of c * prod(dw^j f_h at w = 1) over the nonzero monomials of
    a collected jet polynomial of one length, in the D ring.

    The sorted monomials are nested by their leading symbols (Horner form),
    so the monomials below one prefix share one product per symbol of that
    prefix, and a last symbol only scales its jet."""
    trie: dict = {}
    for mono, c in poly.items():
        if c:
            node = trie
            for sym in mono[:-1]:
                node = node.setdefault(sym, {})
            node[mono[-1]] = c
    return _trie_value(trie, ztable)


def _trie_value(node: dict, ztable: "ZTable") -> DLaurent:
    """One Horner level of ``_ring_value``.  A module-level function, not a
    closure: a closure that calls itself is a reference cycle, and it would
    keep the table alive until the cyclic collector runs."""
    terms = []
    for sym, child in node.items():
        jet = ztable.jet(*sym)
        terms.append((1, jet * _trie_value(child, ztable)) if type(child) is dict else (child, jet))
    return DLaurent.combination(ztable.nu, terms)


def _jet_polynomials(expr: LatticePolynomial, nu: int, gmax: int, N: int) -> dict:
    """The order-N (N >= 1) jet polynomial of each t-degree k of a lattice
    polynomial over the genera 0 .. gmax, with its 1/prod j! and (-2 nu)^k
    (t = -2 nu u) applied once per lambda: k -> (den, terms), the polynomial
    being the integer terms over den."""
    by_degree: dict[int, list] = {}
    for (t_deg, b_off), coeff in expr.terms.items():
        if b_off:  # a term without factors has order 0 alone
            by_degree.setdefault(t_deg, []).append((b_off, coeff.numerator if coeff.denominator == 1 else coeff))
    live = {}
    for t_deg, factors in by_degree.items():
        terms, scale = {}, (-2 * nu) ** t_deg
        qs = {lam: Q(s * scale, prod(map(factorial, lam))) for lam, s in monomial_sums(factors, N).items() if s}
        den = _int_lcm(*(q.denominator for q in qs.values()))
        for lam, q in qs.items():
            _label(lam, q.numerator * (den // q.denominator), (N - sum(lam)) // 2, min(N // 2, gmax), terms)
        if terms:
            live[t_deg] = den, terms
    return live


def expand_lattice_polynomial(expr: LatticePolynomial, ztable: "ZTable", gmax: int, N: int):
    """Order-N (in 1/n) collection of a lattice polynomial under the
    two-scale substitution over the genera 0 .. gmax of the table, at
    w = 1, with the physical coupling replaced by t = -2 nu u: the pair
    (a, R) of the w-weight a that every surviving monomial shares and the
    value R in the D ring, or None when nothing survives at that order.

    The terms of t-degree k evaluate to u^k P_k, and u = (z0 - 1)/(c z0^nu)
    lowers the weight by k (nu - 1), so the degrees are put over z0^(K nu),
    K the top degree, and divided by it exactly once."""
    nu = ztable.nu
    live = _jet_polynomials(expr, nu, gmax, N)
    weights = {len(mono) - N - t_deg * (nu - 1) for t_deg, (_, terms) in live.items() for mono in terms}
    if not weights:
        return None
    if len(weights) > 1:
        raise RejectedInput("weight mismatch in the order-%d collection: %s" % (N, sorted(weights)))
    K, z, c = max(live), DLaurent.z(nu), c_valence(nu)
    parts = [(Q(1, c ** k * den), _ring_value(terms, ztable) * (z - 1) ** k * z ** ((K - k) * nu))
             for k, (den, terms) in live.items()]
    try:
        return weights.pop(), DLaurent.combination(nu, parts).div_z(K * nu)
    except RejectedInput:
        raise VerificationFailure("the order-%d collection is not a Laurent polynomial in D" % N)


# ---------------------------------------------------------------------------
# the genus table for the two-leg generating functions z_g
# ---------------------------------------------------------------------------


class ZEntry(namedtuple("ZEntry", "ratfn over_z0")):
    """z_g as a RatFn (as printed), and z_g/z0 as a Laurent polynomial in
    D, where it is solved."""

    __slots__ = ()

    @property
    def laurent(self) -> tuple[Fraction, ...]:
        """z_g/z0 coefficients by pole order of the base, 0..5g-1."""
        return self.over_z0.pole_coeffs()


class ZTable:
    """Sequential store of z_g data for one valence, solved in the D ring;
    g = 0 is the planar series itself, ``z0`` cut to order T (the order
    ``series`` expands to) when given (a longer planar series already
    checked by ``catalan_data``), else built here.  ``log_terms`` holds
    L_1, L_2, ... after a None at index 0, appended by
    ``genus_even.log_term_ratfn``; ``chains`` holds, per lift h, its graded
    chain of spatial derivatives at w = 1, which each genus extends by two
    orders.  Both stay valid because ``solve_zg`` only ever adds entries.
    The lattice string expression (``string``) and the hierarchy jets that
    ``verify_continuum_toda`` reads (``toda``) depend on nu alone, so each
    is built once per table, on first use."""

    def __init__(self, nu: int, T: int, z0: Series | None = None):
        self.nu = nu
        self.T = T
        self.z0 = catalan_data(nu, T).z0 if z0 is None else z0.truncate(T)
        self.entries = {0: ZEntry(RatFn(Poly([0, 1]), Poly.one(), 0), DLaurent.const(nu, 1))}
        self.log_terms: list[DLaurent | None] = [None]
        self.chains: dict[int, list[LogRational]] = {}
        self.todas: dict = {}

    @cached_property
    def string(self) -> LatticePolynomial:
        return lattice_equation_exprs(self.nu, "string")

    def toda(self, h: int):
        """The genus-h hierarchy jet ``checks.toda_jet(nu, h)``, built once;
        only ``verify continuum`` reads it, so the jet builders are imported
        here, not by every run that builds a z-table."""
        if h not in self.todas:
            from .checks import toda_jet

            self.todas[h] = toda_jet(self.nu, h)
        return self.todas[h]

    def series(self, g: int) -> Series:
        """z_g expanded over the planar series to order T."""
        return self.z0 if g == 0 else ratfn_to_series(self.entries[g].ratfn, self.z0)

    def jet(self, h: int, j: int) -> DLaurent:
        """dw^j f_h at w = 1, from the stored graded chain of the lift
        f_h = w^(1-2h) z_h(u w^(nu-1)), which starts at z_h = z0 (z_h/z0)."""
        chain = self.chains.get(h)
        if chain is None:
            chain = self.chains[h] = [LogRational(self.nu, DLaurent.z(self.nu) * self.entries[h].over_z0)]
        return _graded_chain(chain, 1 - 2 * h, j)[j].rat

    def top_coefficient(self, g: int) -> Fraction:
        return self.entries[g].laurent[5 * g - 1]


def solve_zg(nu: int, g: int, ztable: ZTable) -> ZEntry:
    """Determine z_g from the continuum difference-string equation.

    The order-(2g+1) collection of the expanded lattice string equation is
    dw[(1 - nu c u f0^(nu-1)) f_g] + R, R built from the lower genera alone
    (``expand_lattice_polynomial``, weight -2g).  At w = 1 the bracket is
    a lift of weight w^(1-2g), and 1 - nu c u z0^(nu-1) = D/z0, so
    X = (D/z0) z_g is the spatial antiderivative of -R in the D ring
    (``theta_inverse``, whose two surplus checks are the spatial exactness
    of R) and z_g/z0 = X/D.  The closed form must have the denominator
    (nu - (nu-1) z0)^(5g-1), no pole order below 2g, a numerator divisible
    by z0 (z0 - 1), and the top pole coefficient -2 (2 nu)^(3g-1) a_g that
    Painleve I gives (``combinatorics.painleve_a``).
    """
    if g < 1:
        raise RejectedInput("solve_zg starts at genus 1")
    require_higher_genus(nu)
    for k in range(1, g):
        if k not in ztable.entries:
            raise RejectedInput("lower-genus entries missing; build sequentially")
    N = 2 * g + 1
    collected = expand_lattice_polynomial(ztable.string, ztable, g - 1, N)
    if collected is None:
        raise VerificationFailure("empty order-%d collection" % N)
    weight, R = collected
    if weight != -2 * g:
        raise VerificationFailure("self-similar weight of f_%d is off" % g)
    try:
        X = LogRational(nu, -R).theta_inverse(1 - 2 * g)
    except ResonanceFailure as exc:
        raise VerificationFailure("spatial exactness fails at genus %d: %s" % (g, exc))
    over_z0 = X.rat * DLaurent(nu, -1, (1,))
    if -over_z0.lo != 5 * g - 1:
        raise VerificationFailure(
            "pole order %d at genus %d, expected %d" % (max(0, -over_z0.lo), g, 5 * g - 1)
        )
    least = -(over_z0.lo + len(over_z0.num) - 1)
    if least < 2 * g:
        raise VerificationFailure("minimal pole order of z_%d/z0 is %d < %d" % (g, least, 2 * g))
    ratfn = (DLaurent.z(nu) * over_z0).to_ratfn()
    if ratfn.num.eval(0) or ratfn.num.eval(1):
        raise VerificationFailure("numerator of z_%d lacks the z0 (z0-1) factor" % g)
    if over_z0.coeff(1 - 5 * g) != -2 * Q(2 * nu) ** (3 * g - 1) * painleve_a(g):
        raise VerificationFailure("top pole of z_%d/z0 is not the Painleve I coefficient" % g)
    entry = ZEntry(ratfn, over_z0)
    ztable.entries[g] = entry
    return entry


def ztable_order(g_max: int) -> int:
    """The default order of a z-table to genus g_max, the length of the
    series that ``zg`` prints."""
    return max(3 * g_max + 12, 16)


def build_ztable(nu: int, g_max: int, T: int | None = None, z0: Series | None = None) -> ZTable:
    if T is None:
        T = ztable_order(g_max)
    table = ZTable(nu, T, z0)
    for g in range(1, g_max + 1):
        solve_zg(nu, g, table)
    return table


def verify_continuum_toda(nu: int, g: int, ztable: ZTable) -> dict:
    """The order-n^(-2g) collection of the continuum coupling-flow hierarchy
    holds on the solved genus family, exactly in the D ring at w = 1: du f_g
    (``LogRational.du``) equals the collected jet terms.

    Jet symbol dw^j f expands to sum_h n^(-2h) dw^j f_h, and the genus-h
    right-hand side enters at order 2h: each of its keys is a term's sorted
    j-tuple lambda, which takes genus labels summing to g - h (``_label``)."""
    poly: dict = {}
    for h in range(g + 1):
        for lam, coeff in ztable.toda(h).items():
            _label(lam, coeff, g - h, g - h, poly)
    lhs = LogRational(nu, ztable.jet(g, 0)).du().rat
    if lhs != _ring_value(poly, ztable):
        raise VerificationFailure("continuum hierarchy fails at nu=%d, g=%d" % (nu, g))
    return {"identity": "continuum_hierarchy", "nu": nu, "g": g, "status": "pass"}


# ---------------------------------------------------------------------------
# the z0 and zg commands
# ---------------------------------------------------------------------------


def payload_z0(nu: int, order: int) -> dict:
    require_positive("--nu", nu)
    require_positive("--order", order)
    data = catalan_data(nu, order)
    return {
        "nu": nu,
        "order": order,
        "c": qstr(data.c),
        "zetas": [qstr(z) for z in data.zetas],
        "series": series_to_json(data.z0),
    }


def payload_zg(nu: int, g: int, order: int | None) -> dict:
    if g < 0:
        raise RejectedInput("genus must be >= 0")
    require_positive("--nu", nu)
    require_positive("--order", order)
    table = build_ztable(nu, g, T=order)
    entry = table.entries[g]
    return {
        "nu": nu,
        "g": g,
        "ratfn": ratfn_to_json(entry.ratfn),
        "series": series_to_json(table.series(g)),
        "laurent_over_z0": [qstr(a) for a in entry.laurent],
        "pole_order": entry.ratfn.den_pow,
    }
