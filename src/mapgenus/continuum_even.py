"""Even-valence continuum machinery: the planar generating function and its
higher Catalan coefficients, the expansion of the lattice equations into
the continuum, the solver producing every higher-genus two-leg generating
function z_g as a rational function of z0, the check of the continuum
hierarchy on the solved family, and the ``z0`` and ``zg`` commands' payload
builders.  The hodograph solution, the jet-form hierarchy and the string
antiderivative, which only ``verify continuum`` runs, live in ``checks``.

Orientation convention (pinned once, used everywhere): the canonical map
variable u satisfies

    z0 = 1 + c u z0^nu,        c = 2 nu binom(2 nu - 1, nu - 1),

so z0 has positive higher-Catalan coefficients and u = -t/(2 nu) in terms
of the physical coupling t of the lattice oracle.  In this
orientation the hodograph relation reads w = f0 - c u f0^nu and the leading
transport equation is df0/du = c f0^nu dw f0.  The fat-graph and lattice
oracles both pin this calibration; see the acceptance suite.

Self-similarity f_g(u, w) = w^(1-2g) z_g(u w^(nu-1)) makes every series in
this module a GradedSeries: each u-order carries a single slaved power of
w, so the two-variable continuum equations collapse to univariate exact
series identities with integer weight bookkeeping.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import factorial, prod

from .combinatorics import LatticePolynomial, c_valence, higher_catalan, lattice_equation_exprs
from .errors import RejectedInput, VerificationFailure
from .exact_kernel import (
    DLaurent,
    GradedSeries,
    Poly,
    Q,
    RatFn,
    Series,
    qstr,
    ratfn_to_json,
    series_to_json,
    series_to_ratfn,
)

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
# the lattice -> continuum expansion engine
# ---------------------------------------------------------------------------
#
# Substituting the two-scale expansion b2_{n+k} = sum_{h,j} n^(-2h-j)
# (k^j / j!) dw^j f_h(u, w) into a lattice polynomial and collecting powers
# of 1/n turns each lattice equation into a tower of exact GradedSeries
# identities, of which only the top order N is ever read.  It is reached in
# two steps.  Collect: expand every term factor by factor over the jet
# symbols (h, j) = dw^j f_h into a jet polynomial with exact coefficients;
# the lattice difference cancels most monomials here, before any series is
# touched.  Evaluate: multiply out the surviving monomials on the genus
# family in Horner form.  Every jet is one GradedSeries of integer
# numerators over one denominator; a last symbol enters its level as one
# term of an integer linear combination (``Series.combination``), and a
# shared prefix symbol as one integer convolution with the level below.


class JetFamily:
    """Spatial derivatives dw^j f_h of the genus family f_0 .. f_gmax.

    Each jet is a GradedSeries built on first use by dw from the jet below
    it; at these even weights dw multiplies each numerator by an integer and
    keeps the denominator, so only the jets an expansion reads are ever
    formed."""

    def __init__(self, nu: int, z_series: list[Series]):
        self.step2 = 2 * (nu - 1)
        self.jets = [[GradedSeries.from_series(zs, 2 - 4 * h, self.step2)] for h, zs in enumerate(z_series)]

    def gmax(self) -> int:
        return len(self.jets) - 1

    def f(self, h: int) -> GradedSeries:
        return self.jets[h][0]

    def scaled(self, h: int, j: int) -> GradedSeries:
        row = self.jets[h]
        while len(row) <= j:
            row.append(row[-1].dw())
        return row[j]


def _collect(factors, coeff, N: int, out: dict) -> None:
    """Add the order-N part of coeff * prod(factors) to the jet polynomial
    `out` (sorted symbol tuple -> coefficient).

    Each factor is a list of (order, symbol, weight) options in ascending
    order; a monomial's order is the sum of its symbols' orders."""
    partial = {(0, ()): coeff}
    last = len(factors) - 1
    for i, options in enumerate(factors):
        grown: dict = {}
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


def _evaluate(poly: dict, family: JetFamily) -> GradedSeries | None:
    """The sum of c * prod(dw^j f_h) over the nonzero monomials of a
    collected jet polynomial, or None when every coefficient cancelled.

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
    return _horner(trie, family) if trie else None


def _horner(node: dict, family: JetFamily) -> GradedSeries:
    """One Horner level of ``_evaluate``.  A module-level function, not a
    closure: a closure that calls itself is a reference cycle, and it would
    keep the family and all its jets alive until the cyclic collector runs."""
    terms = []
    for sym, child in node.items():
        jet = family.scaled(*sym)
        if type(child) is dict:
            terms.append((1, jet * _horner(child, family)))
        else:
            terms.append((child, jet))
    return Series.combination(terms)


def expand_lattice_polynomial(expr, family: JetFamily, nu: int, N: int):
    """Order-N (in 1/n) collection of a lattice polynomial under the
    two-scale substitution, with the physical coupling replaced by
    t = -2 nu u; None when nothing survives at that order."""
    gmax = family.gmax()
    sites: dict[int, list] = {}
    groups: dict[int, dict] = {}
    for (t_deg, b_off, a_off), coeff in expr.terms.items():
        if a_off:
            raise RejectedInput("even-valence expansion does not carry a[] offsets")
        factors = []
        for kappa in b_off:
            if kappa not in sites:
                sites[kappa] = sorted(
                    (2 * h + j, (h, j), kappa ** j)
                    for h in range(min(N // 2, gmax) + 1)
                    for j in range(N - 2 * h + 1)
                )
            factors.append(sites[kappa])
        c = coeff.numerator if coeff.denominator == 1 else coeff
        _collect(factors, c, N, groups.setdefault(t_deg, {}))
    parts = []
    for t_deg, poly in sorted(groups.items()):
        scale = (-2 * nu) ** t_deg
        for mono, c in poly.items():
            poly[mono] = Q(c * scale, prod(factorial(j) for _h, j in mono))
        part = _evaluate(poly, family)
        if part is not None:
            # t^t_deg = (-2 nu u)^t_deg: u carries no power of w
            parts.append((1, part.xmul(t_deg)))
    return Series.combination(parts) if parts else None


# ---------------------------------------------------------------------------
# the genus table for the two-leg generating functions z_g
# ---------------------------------------------------------------------------


class ZEntry(namedtuple("ZEntry", "series ratfn over_z0")):
    """z_g as a Series, as the reconstructed RatFn (as printed), and z_g/z0
    as a Laurent polynomial in D."""

    __slots__ = ()

    @property
    def laurent(self) -> tuple[Fraction, ...]:
        """z_g/z0 coefficients by pole order of the base, 0..5g-1."""
        return self.over_z0.pole_coeffs()


class ZTable:
    """Sequential store of z_g data for one valence; g = 0 is the planar
    series itself (identity rational function), ``z0`` cut to order T when
    given (a longer planar series already checked by ``catalan_data``),
    else built here.  ``log_terms`` holds the log terms L_1, L_2, ... after
    a None at index 0, appended by ``genus_even.log_term_ratfn``; it stays
    valid because ``solve_zg`` only ever adds entries.  The lattice string
    expression that every genus expands (``string``) and the hierarchy jets
    that ``verify_continuum_toda`` reads (``toda``) depend on nu alone, so
    each is built once per table, on first use."""

    def __init__(self, nu: int, T: int, z0: Series | None = None):
        self.nu = nu
        self.T = T
        z0 = catalan_data(nu, T).z0 if z0 is None else z0.truncate(T)
        self.c = Q(c_valence(nu))
        self.base = Poly([nu, -(nu - 1)])
        self.entries: dict[int, ZEntry] = {
            0: ZEntry(z0, RatFn.from_poly(Poly.x(), var="z0"), DLaurent.const(nu, 1))
        }
        self.log_terms: list[DLaurent | None] = [None]
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
        return self.entries[g].series

    def z_list(self, g_max: int) -> list[Series]:
        return [self.series(g) for g in range(g_max + 1)]

    def family(self, g_max: int) -> JetFamily:
        return JetFamily(self.nu, self.z_list(g_max))

    def top_coefficient(self, g: int) -> Fraction:
        return self.entries[g].laurent[5 * g - 1]


def solve_zg(nu: int, g: int, ztable: ZTable) -> ZEntry:
    """Determine z_g from the continuum difference-string equation.

    The order-(2g+1) collection of the expanded lattice string equation is
    linear in f_g with coefficient dw[(1 - nu c u f0^(nu-1)) f_g]; every
    other term involves only lower-genus data.  The remainder is spatially
    exact (no w^-1 monomial ever appears, asserted by integrate_w), the
    constant of integration vanishes (enforced by the minimal pole order of
    the reconstructed rational form), and evaluation at w = 1 plus rational
    reconstruction in z0 yields the closed form with denominator
    (nu - (nu-1) z0)^(5g-1) and numerator divisible by z0 (z0 - 1).
    """
    if g < 1:
        raise RejectedInput("solve_zg starts at genus 1")
    if nu < 2:
        raise RejectedInput("closed forms need nu >= 2 (nu = 1 has no higher genus)")
    for k in range(1, g):
        if k not in ztable.entries:
            raise RejectedInput("lower-genus entries missing; build sequentially")
    T = ztable.T
    N = 2 * g + 1
    family = ztable.family(g - 1)
    R = expand_lattice_polynomial(ztable.string, family, nu, N)
    if R is None:
        raise VerificationFailure("empty order-%d collection" % N)
    f0 = family.f(0)
    denom = (
        GradedSeries.const("u", 1, 0, family.step2, T)
        - Q(nu) * ztable.c * (f0 ** (nu - 1)).xmul(1)
    )
    try:
        f_g = (-R).integrate_w() / denom
    except RejectedInput as exc:
        raise VerificationFailure("spatial exactness fails at genus %d: %s" % (g, exc))
    if f_g.base2 != 2 - 4 * g:
        raise VerificationFailure("self-similar weight of f_%d is off" % g)
    z_series = f_g.at_w1()
    ratfn = series_to_ratfn(
        z_series,
        ztable.series(0),
        ztable.base,
        max_num_deg=3 * g,
        max_pole_ord=5 * g - 1,
        var="z0",
    )
    if ratfn.den_pow != 5 * g - 1:
        raise VerificationFailure(
            "pole order %d at genus %d, expected %d" % (ratfn.den_pow, g, 5 * g - 1)
        )
    if ratfn.num.eval(0) or ratfn.num.eval(1):
        raise VerificationFailure("numerator of z_%d lacks the z0 (z0-1) factor" % g)
    over_z0 = DLaurent.from_ratfn(ratfn, nu).div_z()
    laurent = over_z0.pole_coeffs()
    for p in range(2 * g):
        if laurent[p] != 0:
            raise VerificationFailure(
                "minimal pole order of z_%d/%s is %d < %d"
                % (g, "z0", p, 2 * g)
            )
    entry = ZEntry(z_series, ratfn, over_z0)
    ztable.entries[g] = entry
    return entry


def ztable_order(g_max: int) -> int:
    """The default truncation of a z-table to genus g_max: the orders the
    z_g reconstruction needs, with a surplus."""
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
    holds on the solved genus family: du f_g equals the collected jet terms.

    Jet symbol dw^j f expands to sum_h n^(-2h) dw^j f_h, and the genus-h
    right-hand side enters at order 2h."""
    N = 2 * g
    family = ztable.family(g)
    poly: dict = {}
    for h in range(g + 1):
        M = N - 2 * h
        symbols: dict[int, list] = {}
        for (fpow, jets), coeff in ztable.toda(h).terms.items():
            factors = []
            for j, r in ((0, fpow),) + jets:
                if j not in symbols:
                    symbols[j] = [(2 * k, (k, j), 1) for k in range(min(M // 2, family.gmax()) + 1)]
                factors += [symbols[j]] * r
            _collect(factors, coeff, M, poly)
    rhs = _evaluate(poly, family)
    lhs = family.f(g).dx()
    # a collection that cancels entirely is the zero series
    residual = lhs if rhs is None else lhs - rhs.truncate(lhs.trunc)
    if not residual.is_zero():
        raise VerificationFailure("continuum hierarchy fails at nu=%d, g=%d" % (nu, g))
    return {"identity": "continuum_hierarchy", "nu": nu, "g": g, "status": "pass"}


# ---------------------------------------------------------------------------
# the z0 and zg commands
# ---------------------------------------------------------------------------


def payload_z0(nu: int, order: int) -> dict:
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
    table = build_ztable(nu, g, T=order)
    entry = table.entries[g]
    return {
        "nu": nu,
        "g": g,
        "ratfn": ratfn_to_json(entry.ratfn),
        "series": series_to_json(entry.series),
        "laurent_over_z0": [qstr(a) for a in entry.laurent],
        "pole_order": entry.ratfn.den_pow,
    }
