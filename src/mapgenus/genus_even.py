"""The even-valence free-energy pipeline: closed forms for the genus 0 and 1
coefficients, the exact spatial-derivative engine for their self-similar
lifts, assembly of the tau-recursion right-hand side, the diagonal solve
with resonance handling, rational reconstruction, and machine verification
of the structure theorem for every higher-genus coefficient.

Everything lives in the class of rational functions of z0 with, at genus 0
and 1 only, log z0 and log(nu - (nu-1) z0) terms.  The single transport
rule dz0/du = c z0^(nu+1) / (nu - (nu-1) z0) powers all derivatives, and
the self-similar weight bookkeeping reduces spatial derivatives at w = 1 to
a graded operator chain on this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .combinatorics import partitions_of, multiplicities
from .continuum_even import ZTable, build_ztable, laurent_at_base
from .errors import (
    RejectedInput,
    ResonanceFailure,
    VerificationFailure,
)
from .exact_kernel import (
    Poly,
    Q,
    RatFn,
    Series,
    ratfn_to_series,
    series_log,
    series_to_ratfn,
)
from . import fatgraph_oracle


def falling(x, m: int) -> Fraction:
    out = Q(1)
    for i in range(m):
        out *= x - i
    return out


def resonance_lambda(nu: int, g: int, m: int) -> Fraction:
    """Eigenvalue of the second spatial derivative of the genus-g lift on
    the u^m monomial; factors as F (F - 1) with F the Euler face count."""
    return Q(((nu - 1) * m - 2 * g + 2) * ((nu - 1) * m - 2 * g + 1))


def face_count(nu: int, g: int, m: int) -> int:
    return (nu - 1) * m - 2 * g + 2


# ---------------------------------------------------------------------------
# the function class: rational in z0 plus two fixed log species
# ---------------------------------------------------------------------------


def base_poly(nu: int) -> Poly:
    return Poly([nu, -(nu - 1)])


@dataclass(frozen=True)
class LogRational:
    """rat(z0) + c0 log z0 + c1 log(nu - (nu-1) z0), closed under d/du and
    under the graded spatial derivative at w = 1."""

    nu: int
    rat: RatFn
    c0: Fraction = Q(0)
    c1: Fraction = Q(0)

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

    def du(self) -> "LogRational":
        """Derivative in the map variable through dz0/du = c z0^(nu+1)/D."""
        nu = self.nu
        c = Q(2 * nu * comb(2 * nu - 1, nu - 1))
        D = base_poly(nu)
        zpow = Poly.x() ** (nu + 1)
        out = self.rat.derivative() * RatFn(c * zpow, D, 1, "z0")
        if self.c0:
            out = out + self.c0 * RatFn(c * Poly.x() ** nu, D, 1, "z0")
        if self.c1:
            out = out + self.c1 * RatFn(-(nu - 1) * c * zpow, D, 2, "z0")
        return LogRational(nu, out)

    def theta(self) -> "LogRational":
        """Spatial transport (nu-1) z0 (z0-1)/D d/dz0 on every part."""
        nu = self.nu
        D = base_poly(nu)
        carrier = RatFn((nu - 1) * Poly.x() * Poly([-1, 1]), D, 1, "z0")
        out = self.rat.derivative() * carrier
        if self.c0:
            out = out + self.c0 * RatFn((nu - 1) * Poly([-1, 1]), D, 1, "z0")
        if self.c1:
            out = out + self.c1 * RatFn(
                -((nu - 1) ** 2) * Poly.x() * Poly([-1, 1]), D, 2, "z0"
            )
        return LogRational(nu, out)

    def grade_dw(self, a: int) -> "LogRational":
        """One spatial derivative of w^a X at w = 1: a X + theta X."""
        return self * a + self.theta()

    def series(self, ctx: "SeriesContext") -> Series:
        out = ratfn_to_series(self.rat, ctx.z0, ctx.z0.trunc)
        if self.c0:
            out = out + self.c0 * ctx.log_z0
        if self.c1:
            out = out + self.c1 * ctx.log_base
        return out

    def laurent(self) -> tuple[Fraction, ...]:
        if not self.is_rational():
            raise RejectedInput("log terms have no Laurent data at the base")
        return laurent_of_ratfn(self.rat, self.nu)


class SeriesContext:
    """Shared expansion data: z0(u), log z0(u), log D(z0(u))."""

    def __init__(self, nu: int, z0: Series):
        self.nu = nu
        self.z0 = z0
        self.log_z0 = series_log(z0)
        base_series = nu - (nu - 1) * z0
        self.log_base = series_log(base_series / base_series.coeff(0))


def laurent_of_ratfn(r: RatFn, nu: int) -> tuple[Fraction, ...]:
    """Coefficients by pole order (0 = constant) at the base zero of a
    rational function whose denominator is a power of the linear base."""
    if r.den_pow == 0:
        if r.num.degree > 0:
            raise RejectedInput("polynomial part of degree > 0 has no base Laurent form")
        return (r.num.coeff(0),)
    mono = base_poly(nu).monic()
    den = r.den()
    pole = 0
    while den.degree > 0:
        quo, rem = den.divmod(mono)
        if not rem.is_zero():
            raise RejectedInput("denominator is not a power of the linear base")
        den = quo
        pole += 1
    scale = Q(-(nu - 1)) ** pole / den.coeff(0)
    return laurent_at_base(r.num * scale, nu, pole)


def grade_chain(x: LogRational, top_grade: int, p: int) -> LogRational:
    """p successive spatial derivatives of w^top_grade X(u w^(nu-1)) at w=1."""
    for i in range(p):
        x = x.grade_dw(top_grade - i)
    return x


# ---------------------------------------------------------------------------
# closed forms at genus 0 and 1
# ---------------------------------------------------------------------------


def du_logrational(x: LogRational) -> LogRational:
    """Exact derivative in the map variable (functional form of x.du())."""
    return x.du()


def closed_e0_e1(nu: int) -> tuple[LogRational, LogRational]:
    """Genus-0 and genus-1 free-energy coefficients as functions of z0.

    e0 = (1/2) log z0 + ((nu-1)^2/(4 nu (nu+1))) (z0-1)(z0 - 3(nu+1)/(nu-1))
    e1 = -(1/12) log(nu - (nu-1) z0)
    """
    if nu < 2:
        raise RejectedInput("closed forms need nu >= 2")
    quad = Poly([-1, 1]) * Poly([Q(-3 * (nu + 1), nu - 1), 1])
    rat0 = RatFn.from_poly(Q((nu - 1) ** 2, 4 * nu * (nu + 1)) * quad, "z0")
    e0 = LogRational(nu, rat0, c0=Q(1, 2))
    e1 = LogRational(nu, RatFn.const(0, "z0"), c1=Q(-1, 12))
    return e0, e1


# ---------------------------------------------------------------------------
# spatial derivatives of the self-similar lifts E_h(u, w) = w^(2-2h) e_h
# ---------------------------------------------------------------------------


def E_w_deriv(e_h: LogRational, h: int, p: int) -> LogRational:
    """p-th spatial derivative of E_h at w = 1 by the direct graded chain."""
    if p < 0:
        raise RejectedInput("derivative order must be >= 0")
    return grade_chain(e_h, 2 - 2 * h, p)


def f0_jets(nu: int, j_max: int) -> list[LogRational]:
    """Spatial derivatives of the planar lift f0 = w z0(u w^(nu-1)) at w=1."""
    z = LogRational(nu, RatFn.from_poly(Poly.x(), "z0"))
    out = [z]
    for j in range(1, j_max + 1):
        out.append(out[-1].grade_dw(1 - (j - 1)))
    return out


def planar_lift_deriv_formula(nu: int, p: int) -> LogRational:
    """Independent form of the p-th spatial derivative of E_0 (p >= 3),
    written in the planar jets: a log-transport block, a quadratic block,
    and the explicit (p-3)! (-1/w)^(p-2) tail at w = 1.

    The quadratic block's symmetric sum counts unordered index pairs, so
    the middle term of the full binomial sum enters with half weight.
    """
    if p < 3:
        raise RejectedInput("jet formula starts at p = 3")
    jets = f0_jets(nu, p)
    f0 = jets[0]
    # f0_w/f0 carries weight w^(-1); its i-th derivative applies grades
    # -1, -2, ..., -i in turn
    ratio = LogRational(nu, jets[1].rat / f0.rat)
    ratio_derivs = [ratio]
    for i in range(1, p):
        ratio_derivs.append(ratio_derivs[-1].grade_dw(-i))
    out = (
        Q(comb(p, 2)) * ratio_derivs[p - 3]
        + Q(p) * ratio_derivs[p - 2]
        + Q(1, 2) * ratio_derivs[p - 1]
    )
    coeff = Q((nu - 1) ** 2, 2 * nu * (nu + 1))
    quad = LogRational(nu, RatFn.const(0, "z0"))
    for j in range(0, p // 2 + 1):
        weight = Q(comb(p, j))
        if 2 * j == p:
            weight /= 2
        quad = quad + LogRational(nu, weight * jets[j].rat * jets[p - j].rat)
    out = out + coeff * quad
    lin = jets[p] + Q(p) * jets[p - 1]
    out = out - Q((2 * nu + 1) * (nu - 1), 2 * nu * (nu + 1)) * lin
    tail = Q((-1) ** p) * Q(factorial(p - 3))
    return out + LogRational(nu, RatFn.const(tail, "z0"))


def top_jet_bundle_is_regularized(nu: int) -> bool:
    """The highest-jet bundle of the planar block carries an explicit factor
    of the base: 1 - (2nu+1)(nu-1)/(nu(nu+1)) z0 + (nu-1)^2/(nu(nu+1)) z0^2
    is divisible by nu - (nu-1) z0."""
    quad = Poly(
        [1, Q(-(2 * nu + 1) * (nu - 1), nu * (nu + 1)), Q((nu - 1) ** 2, nu * (nu + 1))]
    )
    return base_poly(nu).divides(quad)


# ---------------------------------------------------------------------------
# transport coefficient tables and vanishing checks
# ---------------------------------------------------------------------------


def q_table(nu: int, k: int, p_max: int) -> dict[tuple[int, int], Fraction]:
    """Q_j^(p,k): coefficients resumming the graded chain into powers of the
    scaled time; Q_0 = (2-2k)_p, Q_p = 1, with the two-term recursion in p."""
    Q_ = {}
    for p in range(p_max + 1):
        for j in range(p + 1):
            if j == p:
                Q_[(p, j)] = Q(1)
            elif j == 0:
                Q_[(p, j)] = falling(2 - 2 * k, p)
            else:
                Q_[(p, j)] = Q_[(p - 1, j - 1)] + ((nu - 1) * j - (2 * k - 3 + p)) * Q_[
                    (p - 1, j)
                ]
    return Q_


def c_table(
    nu: int, k: int, j_max: int, e_k: LogRational, ell_max: int
) -> dict[tuple[int, int], Fraction]:
    """c_l^(k,j): Laurent data of the j-th scaled-time derivative of e_k in
    the normal form c^j z0^(j nu + 1) sum_l c_l / D^(2k + l + j - 1).

    The j = 1 row is seeded directly from the derivative ((nu-1)(2k+l-2)
    times the Laurent data of e_k for k >= 2; the single seed (nu-1)/12 for
    k = 1); rows j >= 2 follow the two-term recursion, and every row is
    validated against the direct transport derivative before being returned.
    """
    c: dict[tuple[int, int], Fraction] = {}
    if k >= 2:
        if not e_k.is_rational():
            raise RejectedInput("genus >= 2 coefficients must be rational")
        laur = e_k.laurent()
        for ell in range(ell_max + 1):
            pole = 2 * k - 2 + ell
            base_coeff = laur[pole] if 0 < pole < len(laur) else Q(0)
            c[(1, ell)] = (nu - 1) * (2 * k + ell - 2) * base_coeff
    elif k == 1:
        for ell in range(ell_max + 1):
            c[(1, ell)] = Q(nu - 1, 12) if ell == 0 else Q(0)
    else:
        raise RejectedInput("c tables start at genus 1")
    for j in range(2, j_max + 1):
        for ell in range(ell_max + 1):
            prev_same = c.get((j - 1, ell), Q(0))
            prev_down = c.get((j - 1, ell - 1), Q(0))
            c[(j, ell)] = ((j - 1) * nu - (2 * k + ell + j - 3)) * prev_same + nu * (
                2 * k + ell + j - 3
            ) * prev_down
    # validate every row against the direct transport derivative
    cval = Q(2 * nu * comb(2 * nu - 1, nu - 1))
    deriv = e_k
    for j in range(1, j_max + 1):
        deriv = deriv.du()
        lead = RatFn.from_poly(cval ** j * Poly.x() ** (j * nu + 1), "z0")
        recon = RatFn.const(0, "z0")
        for ell in range(ell_max + 1):
            if c[(j, ell)]:
                recon = recon + RatFn(
                    Poly.const(c[(j, ell)]), base_poly(nu), 2 * k + ell + j - 1, "z0"
                )
        recon = recon * lead
        if not deriv.is_rational() or deriv.rat != recon:
            raise VerificationFailure(
                "transport table row j=%d disagrees with the direct derivative (k=%d)"
                % (j, k)
            )
    return c


def vanishing_sums(
    nu: int, k: int, p: int, Qt, ct, m: int
) -> Fraction:
    """The order-m combination of table entries that controls the minimal
    pole order of the p-th spatial derivative (genus >= 2 rows)."""
    total = Q(0)
    for j in range(1, p + 1):
        inner = Q(0)
        for r in range(m + 1):
            entry = ct.get((j, m - r), Q(0))
            inner += Q((-1) ** (j - r)) * comb(j, r) * entry
        total += Qt[(p, j)] * inner
    return total


def q_c_tables(nu: int, k: int, p_max: int, j_max: int, e_k: LogRational) -> dict:
    """Build the Q and c tables for genus k and assert the vanishing sums
    that force the minimal pole order 2k - 2 + p.

    For k >= 2 the sums combine the j >= 1 rows with the plain Laurent data
    of e_k itself; for k = 1 the analogous combination pairs adjacent
    orders.  Either way the assertion is exactly "no pole below 2k - 2 + p
    survives", checked here at the level of the tables and again (function
    level) by E_w_derivs.
    """
    ell_max = 3 * k + 2 * p_max + j_max + 4
    Qt = q_table(nu, k, p_max)
    ct = c_table(nu, k, j_max, e_k, ell_max)
    checks = []
    for p in range(1, p_max + 1):
        if k >= 2:
            laur = e_k.laurent()
            for ell in range(p):
                # wrapped combination: z0 sum_m V_m / D^(2k+m-1) rewritten in
                # plain pole orders; V_m from the j >= 1 rows
                v_here = vanishing_sums(nu, k, p, Qt, ct, ell)
                v_prev = vanishing_sums(nu, k, p, Qt, ct, ell - 1) if ell else Q(0)
                pole = 2 * k - 2 + ell
                plain = laur[pole] if 0 < pole < len(laur) else Q(0)
                total = falling(2 - 2 * k, p) * plain + Q(nu, nu - 1) * v_prev - Q(
                    1, nu - 1
                ) * v_here
                if total != 0:
                    raise VerificationFailure(
                        "vanishing sum fails at k=%d, p=%d, order %d" % (k, p, ell)
                    )
            checks.append({"k": k, "p": p, "orders": p, "status": "pass"})
        else:
            for m in range(1, p):
                total = Q(0)
                for j in range(1, p + 1):
                    inner = Q(0)
                    for r in range(m + 1):
                        inner += (
                            Q((-1) ** (j - r))
                            * comb(j, r)
                            * (ct.get((j, m - r), Q(0)) - nu * ct.get((j, m - r - 1), Q(0)))
                        )
                    total += Qt[(p, j)] * inner
                if total != 0:
                    raise VerificationFailure(
                        "adjacent-order vanishing fails at k=1, p=%d, m=%d" % (p, m)
                    )
            checks.append({"k": 1, "p": p, "orders": max(p - 1, 0), "status": "pass"})
    return {"Q": Qt, "c": ct, "checks": checks}


def resummed_via_tables(etable: "ETable", k: int, p: int) -> LogRational:
    """(E_k)_w^(p) at w = 1 rebuilt purely from the Q and c tables:
    Q_0 e_k plus z0 times the table combination over pole orders.

    This is the coefficient-table route to the same derivative; for k = 1
    the Q_0 block vanishes identically ((0)_p = 0) and the z0-wrapped sum
    is the whole expansion."""
    nu = etable.nu
    e_k = etable.logrational(k)
    Qt = q_table(nu, k, p)
    ell_max = 3 * k + 2 * p + 4
    ct = c_table(nu, k, p, e_k, ell_max)
    out = e_k * Qt[(p, 0)]
    for m in range(0, ell_max + p + 1):
        v = vanishing_sums(nu, k, p, Qt, ct, m)
        if v:
            out = out + LogRational(
                nu, RatFn(Poly.x() * Poly.const(v), base_poly(nu), 2 * k + m - 1, "z0")
            )
    return out


def E_w_derivs(etable: "ETable", h: int, p: int, cross_check: bool = True) -> LogRational:
    """p-th spatial derivative of the genus-h lift at w = 1.

    Computed by the direct graded chain; optionally cross-checked against
    the scaled-time resummation through the Q table (all h), against the
    coefficient-table rebuild (h >= 1), and against the independent
    planar-jet formula (h = 0, p >= 3).
    """
    e_h = etable.logrational(h)
    direct = E_w_deriv(e_h, h, p)
    if cross_check and p >= 1:
        nu = etable.nu
        Qt = q_table(nu, max(h, 0), p)
        c = Q(2 * nu * comb(2 * nu - 1, nu - 1))
        u_rat = RatFn(Poly([-1, 1]), base_poly(nu), 0, "z0") * RatFn(
            Poly.one(), Poly.x() ** nu * Q(c), 1, "z0"
        )
        resummed = LogRational(nu, RatFn.const(0, "z0"))
        deriv = e_h
        upow = RatFn.const(1, "z0")
        for j in range(p + 1):
            if j:
                deriv = deriv.du()
                upow = upow * u_rat
            term_rat = upow * Q((nu - 1) ** j) * Qt[(p, j)]
            if j == 0:
                resummed = resummed + e_h * Qt[(p, 0)]
            else:
                if not deriv.is_rational():
                    raise VerificationFailure("scaled-time derivative kept a log term")
                resummed = resummed + LogRational(nu, deriv.rat * term_rat)
        if (direct - resummed).rat != RatFn.const(0, "z0") or (
            direct.c0 != resummed.c0 or direct.c1 != resummed.c1
        ):
            raise VerificationFailure(
                "graded chain and scaled-time resummation disagree at h=%d, p=%d"
                % (h, p)
            )
        if h == 0 and p >= 3:
            alt = planar_lift_deriv_formula(etable.nu, p)
            if (direct - alt).rat != RatFn.const(0, "z0") or direct.c0 != alt.c0:
                raise VerificationFailure(
                    "planar jet formula disagrees at p=%d" % p
                )
        if h >= 1:
            tabled = resummed_via_tables(etable, h, p)
            if (direct - tabled).rat != RatFn.const(0, "z0") or (
                direct.c0 != tabled.c0 or direct.c1 != tabled.c1
            ):
                raise VerificationFailure(
                    "coefficient-table rebuild disagrees at h=%d, p=%d" % (h, p)
                )
    return direct


# ---------------------------------------------------------------------------
# the tau-recursion right-hand side and the genus solve
# ---------------------------------------------------------------------------


def log_term_ratfn(g: int, ztable: ZTable) -> RatFn:
    """Order-2g coefficient of log(sum_m n^(-2m) z_m/z0): the standard
    log-of-series collection over partitions of g."""
    total = RatFn.const(0, "z0")
    z0_rat = RatFn.from_poly(Poly.x(), "z0")
    for lam in partitions_of(g):
        mult = multiplicities(lam)
        ell = sum(mult.values())
        coeff = Q((-1) ** (ell + 1)) * factorial(ell - 1)
        for r in mult.values():
            coeff /= factorial(r)
        term = RatFn.const(coeff, "z0")
        for part, r in mult.items():
            ratio = ztable.ratfn(part) / z0_rat
            for _ in range(r):
                term = term * ratio
        total = total + term
    return total


def c_constant(g: int, _memo={}) -> Fraction:
    """Constant term of the genus-g coefficient; a closed recursion with no
    valence dependence."""
    if g < 2:
        raise RejectedInput("constant-term recursion starts at genus 2")
    if g in _memo:
        return _memo[g]
    acc = Q(1, factorial(2 * g + 2)) - Q(1, factorial(2 * g) * 12)
    if g > 2:
        inner = Q(0)
        for k in range(2, g):
            inner += falling(2 - 2 * k, 2 * g - 2 * k + 2) / factorial(
                2 * g - 2 * k + 2
            ) * c_constant(k)
        acc += inner / factorial(2 * g - 1)
    out = -2 * factorial(2 * g - 3) * acc
    _memo[g] = out
    return out


@dataclass
class EEntry:
    g: int
    ratfn: RatFn
    series: Series
    laurent: tuple[Fraction, ...]
    r_factor: int
    resonant_orders: tuple[int, ...]


class ETable:
    """Free-energy coefficients for one valence: closed forms at genus 0
    and 1, solved rational forms beyond."""

    def __init__(self, nu: int, ztable: ZTable):
        self.nu = nu
        self.ztable = ztable
        self.ctx = SeriesContext(nu, ztable.series(0))
        e0, e1 = closed_e0_e1(nu)
        self.closed = {0: e0, 1: e1}
        self.entries: dict[int, EEntry] = {}

    def logrational(self, g: int) -> LogRational:
        if g in self.closed:
            return self.closed[g]
        return LogRational(self.nu, self.entries[g].ratfn)

    def series(self, g: int) -> Series:
        if g in self.closed:
            return self.closed[g].series(self.ctx)
        return self.entries[g].series


def hirota_rhs(nu: int, g: int, ztable: ZTable, etable: ETable) -> LogRational:
    """Right-hand side of the order-2g tau recursion at w = 1: the even
    spatial derivatives of the lower lifts plus the order-2g part of the
    log of the two-leg family.

    The result is rational (all log species cancel and minus their
    derivative orders kill them), and its minimal pole order must be at
    least 2g."""
    if g < 1:
        raise RejectedInput("tau recursion starts at genus 1")
    total = LogRational(nu, log_term_ratfn(g, ztable))
    for ell in range(1, g + 1):
        d = E_w_derivs(etable, g - ell, 2 * ell + 2, cross_check=False)
        total = total - Q(2, factorial(2 * ell + 2)) * d
    if not total.is_rational():
        raise VerificationFailure("tau-recursion right-hand side kept log terms")
    laur = total.laurent()
    for pole in range(1, 2 * g):
        if pole < len(laur) and laur[pole] != 0:
            raise VerificationFailure(
                "right-hand side pole order %d below the 2g bound at g=%d" % (pole, g)
            )
    return total


def solve_eg(
    nu: int,
    g: int,
    ztable: ZTable,
    etable: ETable,
    kappa_cap: int = fatgraph_oracle.HALF_EDGE_CAP,
) -> EEntry:
    """Determine the genus-g coefficient from the tau recursion.

    The left side is diagonal on u-monomials with eigenvalue
    resonance_lambda; resonant orders (face count 0 or 1) are excluded from
    the series solve, the order with no faces must have a vanishing
    right-hand side (solvability), and the excluded coefficients are
    recovered by rational reconstruction over the non-resonant data, then
    cross-checked against the matching oracle wherever it reaches
    (half-edge count at most kappa_cap)."""
    if g < 2:
        raise RejectedInput("the genus solve starts at g = 2")
    rhs = hirota_rhs(nu, g, ztable, etable)
    rhs_series = rhs.series(etable.ctx)
    T = rhs_series.trunc
    resonant = []
    coeffs = []
    for m in range(T + 1):
        lam = resonance_lambda(nu, g, m)
        if lam == 0:
            resonant.append(m)
            if face_count(nu, g, m) == 0 and rhs_series.coeff(m) != 0:
                raise ResonanceFailure(
                    "solvability fails at the faceless order m=%d, g=%d" % (m, g)
                )
            if rhs_series.coeff(m) != 0:
                raise ResonanceFailure(
                    "resonant order m=%d carries a nonzero right-hand side" % m
                )
            coeffs.append(Q(0))
        else:
            coeffs.append(rhs_series.coeff(m) / lam)
    partial = Series("u", coeffs, T)
    ratfn = series_to_ratfn(
        partial,
        ztable.series(0),
        ztable.base,
        max_num_deg=5 * g - 5,
        max_pole_ord=5 * g - 5,
        skip=frozenset(resonant),
        var="z0",
    )
    if ratfn.den_pow != 5 * g - 5:
        raise VerificationFailure(
            "pole order %d at genus %d, expected %d" % (ratfn.den_pow, g, 5 * g - 5)
        )
    series = ratfn_to_series(ratfn, ztable.series(0), T)
    # non-resonant orders must be reproduced (surplus consistency is inside
    # series_to_ratfn); the resonant read-backs face the matching oracle
    for m in resonant:
        if 2 * nu * m <= kappa_cap:
            kappa_known = fatgraph_oracle.kappa_counts(2 * nu, m, cap=kappa_cap).get(g, 0)
            if series.coeff(m) != Q(kappa_known, factorial(m)):
                raise VerificationFailure(
                    "resonant coefficient m=%d disagrees with the matching oracle" % m
                )
    r = max(1, (2 * g - 1) // (nu - 1))
    entry = EEntry(
        g=g,
        ratfn=ratfn,
        series=series,
        laurent=laurent_of_ratfn(ratfn, nu),
        r_factor=r,
        resonant_orders=tuple(resonant),
    )
    etable.entries[g] = entry
    return entry


def verify_genus_structure(nu: int, g: int, ztable: ZTable, etable: ETable) -> dict:
    """Structure checks on the solved genus-g coefficient: pole window with
    the top order attained, the (z0-1)^r numerator factor, the top Laurent
    coefficient tied to the two-leg data, and the constant term."""
    entry = etable.entries[g]
    laur = entry.laurent
    clauses = {}
    top = 5 * g - 5
    bottom = 2 * g - 2
    ok_window = entry.ratfn.den_pow == top and all(
        laur[p] == 0 for p in range(1, bottom)
    )
    ok_top = laur[top] != 0
    clauses["pole_window"] = ok_window and ok_top
    shifted = Poly([-1, 1])
    num = entry.ratfn.num
    divisions = 0
    while shifted.divides(num):
        num = num // shifted
        divisions += 1
    # the guaranteed factor is (z0-1)^r; the exact multiplicity is the
    # minimal vertex count of a genus-g map, the ceiling of (2g-1)/(nu-1),
    # which exceeds r exactly when nu-1 does not divide 2g-1
    m_min = max(1, -((-(2 * g - 1)) // (nu - 1)))
    clauses["unit_root_factor"] = divisions >= entry.r_factor and divisions == m_min
    # The top coefficient is tied to the two-leg data through the recursion:
    # the only top-pole source is the single-part term of the log expansion,
    # whose weight is 1 in the standard log normalization (the alternative
    # partition-sum normalization rescales the two-leg coefficient by g!
    # and is rejected by the matching oracle; see the acceptance suite).
    expected_top = ztable.top_coefficient(g) / Q((5 * g - 5) * (5 * g - 3) * nu ** 2)
    clauses["top_coefficient"] = laur[top] == expected_top
    clauses["constant_term"] = laur[0] == c_constant(g)
    failed = [name for name, ok in clauses.items() if not ok]
    if failed:
        raise VerificationFailure(
            "structure clauses failed at nu=%d, g=%d: %s" % (nu, g, ", ".join(failed))
        )
    return {
        "identity": "genus_structure",
        "nu": nu,
        "g": g,
        "clauses": {k: "pass" for k in clauses},
        "r": entry.r_factor,
        "status": "pass",
    }


def build_etable(
    nu: int, g_max: int, ztable: ZTable | None = None, kappa_cap: int = fatgraph_oracle.HALF_EDGE_CAP
) -> ETable:
    if ztable is None:
        ztable = build_ztable(nu, g_max, T=max(5 * g_max + 12, 16))
    etable = ETable(nu, ztable)
    for g in range(2, g_max + 1):
        solve_eg(nu, g, ztable, etable, kappa_cap=kappa_cap)
    return etable
