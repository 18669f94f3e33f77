"""The even-valence free-energy pipeline: closed forms for the genus 0 and 1
coefficients, the exact spatial-derivative engine for their self-similar
lifts, assembly of the tau-recursion right-hand side, its inversion with a
series read-back checked order by order at the resonances, and machine
verification of the structure theorem for every higher-genus coefficient.

Everything lives in the ring of Laurent polynomials in D = nu - (nu-1) z0
(``exact_kernel.DLaurent``) with, at genus 0 and 1 only, log z0 and log D
terms (``continuum_even.LogRational``, whose ring calculus the z_g solve
shares): z0 = (nu - D)/(nu - 1) is a polynomial in D, and every e_g with
g >= 2 has its only pole at D = 0.  Sums and products therefore need no
polynomial gcd and run on integer numerators, pole orders are direct
reads, and each e_g is solved in the ring by inverting the tau operator
one factor theta + b at a time; ``RatFn`` only carries it to the read-back
and the printed form.  The single transport rule dz0/du = c z0^(nu+1) / D
powers all derivatives, and the self-similar weight bookkeeping reduces
spatial derivatives at w = 1 to a graded operator chain on this class.
``E_w_derivs`` cross-checks that chain against the conservation-law tables
of ``conservation``, which it imports in its body, since no command runs
them.  The ``eg`` command's payload builder closes the module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from math import factorial

from .combinatorics import c_valence
from .continuum_even import LogRational, ZTable, _graded_chain, build_ztable
from .errors import RejectedInput, ResonanceFailure, VerificationFailure, require_higher_genus, require_positive
from .exact_kernel import (
    DLaurent,
    Q,
    Series,
    _taylor_shift,
    qstr,
    ratfn_to_json,
    ratfn_to_series,
    series_log,
    series_to_json,
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
    F = face_count(nu, g, m)
    return Q(F * (F - 1))


def face_count(nu: int, g: int, m: int) -> int:
    return (nu - 1) * m - 2 * g + 2


# ---------------------------------------------------------------------------
# closed forms at genus 0 and 1
# ---------------------------------------------------------------------------


def closed_e0_e1(nu: int) -> tuple[LogRational, LogRational]:
    """Genus-0 and genus-1 free-energy coefficients as functions of z0.

    e0 = (1/2) log z0 + ((nu-1)^2/(4 nu (nu+1))) (z0-1)(z0 - 3(nu+1)/(nu-1))
    e1 = -(1/12) log(nu - (nu-1) z0)
    """
    if nu < 2:
        raise RejectedInput("closed forms need nu >= 2")
    z = DLaurent.z(nu)
    rat0 = Q((nu - 1) ** 2, 4 * nu * (nu + 1)) * (z - 1) * (z - Q(3 * (nu + 1), nu - 1))
    e0 = LogRational(nu, rat0, c0=Q(1, 2))
    e1 = LogRational(nu, DLaurent.const(nu, 0), c1=Q(-1, 12))
    return e0, e1


# ---------------------------------------------------------------------------
# spatial derivatives of the self-similar lifts E_h(u, w) = w^(2-2h) e_h
# ---------------------------------------------------------------------------


def E_w_derivs(etable: "ETable", h: int, p: int) -> LogRational:
    """p-th spatial derivative of the genus-h lift at w = 1.

    Read from the lift's stored graded chain (``ETable.w_deriv``) and
    cross-checked against the scaled-time resummation through the Q table
    (all h), against the coefficient-table rebuild (h >= 1), and against the
    independent planar-jet formula (h = 0, p >= 3).
    """
    from .conservation import planar_lift_deriv_formula, q_table, resummed_via_tables

    if p < 0:
        raise RejectedInput("derivative order must be >= 0")
    e_h = etable.logrational(h)
    direct = etable.w_deriv(h, p)
    if p >= 1:
        nu = etable.nu
        Qt = q_table(nu, max(h, 0), p)
        # the scaled time u = (z0-1)/(c z0^nu): (nu-1)^j u^j du^j e_h is
        # (z0-1)^j ((nu-1)/c)^j du^j e_h divided exactly by z0^(j nu)
        shift = DLaurent.z(nu) - 1
        resummed = e_h * Qt[(p, 0)]
        deriv = e_h
        for j in range(1, p + 1):
            deriv = deriv.du()
            if not deriv.is_rational():
                raise VerificationFailure("scaled-time derivative kept a log term")
            term = deriv.rat * shift ** j * (Q(nu - 1, c_valence(nu)) ** j * Qt[(p, j)])
            try:
                term = term.div_z(j * nu)
            except RejectedInput:
                raise VerificationFailure(
                    "scaled-time term j=%d is not divisible by z0^%d at h=%d" % (j, j * nu, h)
                )
            resummed = resummed + LogRational(nu, term)
        if direct != resummed:
            raise VerificationFailure(
                "graded chain and scaled-time resummation disagree at h=%d, p=%d"
                % (h, p)
            )
        if h == 0 and p >= 3:
            if direct != planar_lift_deriv_formula(nu, p):
                raise VerificationFailure(
                    "planar jet formula disagrees at p=%d" % p
                )
        if h >= 1:
            if direct != resummed_via_tables(etable, h, p):
                raise VerificationFailure(
                    "coefficient-table rebuild disagrees at h=%d, p=%d" % (h, p)
                )
    return direct


# ---------------------------------------------------------------------------
# the tau-recursion right-hand side and the genus solve
# ---------------------------------------------------------------------------


def log_term_ratfn(g: int, ztable: ZTable) -> DLaurent:
    """Order-2g coefficient L_g of log(sum_m n^(-2m) z_m/z0), by the
    log-derivative recurrence m L_m = m a_m - sum_{k<m} k L_k a_(m-k) in the
    stored a_m = z_m/z0 (Knuth, TAOCP vol. 2, 4.7).  The terms are kept on
    the table, so building it to genus G costs about G^2/2 products."""
    logs = ztable.log_terms
    a = ztable.entries
    for m in range(len(logs), g + 1):
        acc = a[m].over_z0 * m
        for k in range(1, m):
            acc = acc - logs[k] * a[m - k].over_z0 * k
        logs.append(acc * Q(1, m))
    return logs[g]


@cache
def c_constant(g: int) -> Fraction:
    """Constant term of the genus-g coefficient; a closed recursion with no
    valence dependence."""
    if g < 2:
        raise RejectedInput("constant-term recursion starts at genus 2")
    acc = Q(1, factorial(2 * g + 2)) - Q(1, factorial(2 * g) * 12)
    if g > 2:
        inner = Q(0)
        for k in range(2, g):
            inner += falling(2 - 2 * k, 2 * g - 2 * k + 2) / factorial(
                2 * g - 2 * k + 2
            ) * c_constant(k)
        acc += inner / factorial(2 * g - 1)
    return -2 * factorial(2 * g - 3) * acc


class EEntry(namedtuple("EEntry", "ratfn series rat r_factor resonant_orders")):
    """e_g as a RatFn (as printed), as a Series and as the same function in
    the D-Laurent ring where it is solved, with the guaranteed multiplicity r
    of the (z0-1) numerator factor and the resonant orders."""

    __slots__ = ()

    @property
    def laurent(self) -> tuple[Fraction, ...]:
        """Coefficients by pole order 0..5g-5."""
        return self.rat.pole_coeffs()


class ETable:
    """Free-energy coefficients for one valence: closed forms at genus 0
    and 1, solved rational forms beyond, expanded over the z-table's planar
    series ``z0``; log z0(u) and log D(z0(u)) are built on first use, since
    only the genus-0 and genus-1 closed forms carry log terms.  ``chains``
    holds, per lift h, the graded chain of its spatial derivatives, which
    each genus of the tau recursion extends by two orders instead of
    rebuilding."""

    def __init__(self, nu: int, ztable: ZTable):
        self.nu = nu
        self.ztable = ztable
        self.z0 = ztable.z0
        e0, e1 = closed_e0_e1(nu)
        self.closed = {0: e0, 1: e1}
        self.entries: dict[int, EEntry] = {}
        self.chains: dict[int, list[LogRational]] = {}

    @cached_property
    def log_z0(self) -> Series:
        return series_log(self.z0)

    @cached_property
    def log_base(self) -> Series:
        base_series = self.nu - (self.nu - 1) * self.z0
        return series_log(base_series / base_series.coeff(0))

    def logrational(self, g: int) -> LogRational:
        if g in self.closed:
            return self.closed[g]
        return LogRational(self.nu, self.entries[g].rat)

    def w_deriv(self, h: int, p: int) -> LogRational:
        """p-th spatial derivative of the genus-h lift at w = 1, from the
        lift's stored graded chain."""
        chain = self.chains.setdefault(h, [self.logrational(h)])
        return _graded_chain(chain, 2 - 2 * h, p)[p]

    def series(self, g: int) -> Series:
        if g in self.closed:
            return self.closed[g].series(self)
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
        d = etable.w_deriv(g - ell, 2 * ell + 2)
        total = total - Q(2, factorial(2 * ell + 2)) * d
    if not total.is_rational():
        raise VerificationFailure("tau-recursion right-hand side kept log terms")
    laur = total.rat.pole_nums()
    for pole in range(1, 2 * g):
        if pole < len(laur) and laur[pole] != 0:
            raise VerificationFailure(
                "right-hand side pole order %d below the 2g bound at g=%d" % (pole, g)
            )
    return total


def solve_eg(nu: int, g: int, ztable: ZTable, etable: ETable) -> EEntry:
    """Determine the genus-g coefficient from the tau recursion.

    The left side is (theta + 1-2g)(theta + 2-2g) e_g, so e_g is the right
    side with each factor inverted in the D ring (``theta_inverse``, two
    surplus checks per factor).  The series is read back once and must meet
    the recursion order by order: the left side is diagonal on u-monomials
    with eigenvalue resonance_lambda, the order with no faces must have a
    vanishing right-hand side (solvability), and the resonant read-backs
    (face count 0 or 1) are cross-checked against the matching oracle
    wherever it reaches (half-edge count at most
    ``fatgraph_oracle.HALF_EDGE_CAP``)."""
    if g < 2:
        raise RejectedInput("the genus solve starts at g = 2")
    rhs = hirota_rhs(nu, g, ztable, etable)
    rat = rhs.theta_inverse(1 - 2 * g).theta_inverse(2 - 2 * g).rat
    ratfn = rat.to_ratfn()
    if ratfn.den_pow != 5 * g - 5:
        raise VerificationFailure(
            "pole order %d at genus %d, expected %d" % (ratfn.den_pow, g, 5 * g - 5)
        )
    series = ratfn_to_series(ratfn, etable.z0)
    rhs_series = rhs.series(etable)
    resonant = []
    for m in range(series.trunc + 1):
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
        elif lam * series.coeff(m) != rhs_series.coeff(m):
            raise VerificationFailure(
                "read-back of e_%d misses the tau recursion at order m=%d" % (g, m)
            )
    for m in resonant:
        if 2 * nu * m <= fatgraph_oracle.HALF_EDGE_CAP:
            kappa_known = fatgraph_oracle.kappa_counts(2 * nu, m).get(g, 0)
            if series.coeff(m) != Q(kappa_known, factorial(m)):
                raise VerificationFailure(
                    "resonant coefficient m=%d disagrees with the matching oracle" % m
                )
    r = max(1, (2 * g - 1) // (nu - 1))
    entry = EEntry(
        ratfn=ratfn,
        series=series,
        rat=rat,
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
    # the multiplicity of z0 = 1 is the count of leading zeros in y = z0 - 1
    shifted = _taylor_shift(entry.ratfn.num.c, Q(1))
    divisions = next(i for i, a in enumerate(shifted) if a)
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
        "clauses": {k: "pass" if ok else "fail" for k, ok in clauses.items()},
        "r": entry.r_factor,
        "status": "pass" if all(clauses.values()) else "fail",
    }


def build_etable(nu: int, g_max: int, ztable: ZTable | None = None, T: int | None = None) -> ETable:
    """e_2 .. e_g_max, expanded to order T (default 5 g_max + 12, at least
    16) over the planar series of a z-table built to that order; e_g reads
    only the planar series and each z_g in the D ring, so no z_g is
    expanded.  A given z-table is used as it is, and its planar series sets
    the order, so it cannot be given together with T."""
    if ztable is not None and T is not None:
        raise RejectedInput("give a z-table or an order T, not both: the z-table's planar series sets the order")
    if ztable is None:
        ztable = build_ztable(nu, g_max, max(5 * g_max + 12, 16) if T is None else T)
    etable = ETable(nu, ztable)
    for g in range(2, g_max + 1):
        solve_eg(nu, g, ztable, etable)
    return etable


# ---------------------------------------------------------------------------
# the eg command
# ---------------------------------------------------------------------------


def payload_eg(nu: int, g: int, order: int | None) -> dict:
    if g < 0:
        raise RejectedInput("genus must be >= 0")
    require_positive("--nu", nu)
    require_higher_genus(nu)
    require_positive("--series-order", order)
    if g < 2:
        T = order if order is not None else 16
        etable = ETable(nu, ZTable(nu, T))
        lr = etable.logrational(g)
        return {
            "nu": nu,
            "g": g,
            "closed_form": {
                "rational": ratfn_to_json(lr.rat.to_ratfn()),
                "log_z0": qstr(lr.c0),
                "log_base": qstr(lr.c1),
            },
            "series": series_to_json(etable.series(g)),
        }
    # the read-back reaches every resonant order, m <= (2g - 1)/(nu - 1)
    # where the face count is 0 or 1, whatever order is printed; a shorter
    # printed series is cut after
    top = (2 * g - 1) // (nu - 1)
    etable = build_etable(nu, g, T=None if order is None else max(order, top))
    entry = etable.entries[g]
    summary = verify_genus_structure(nu, g, etable.ztable, etable)
    series = entry.series if order is None else entry.series.truncate(order)
    return {
        "nu": nu,
        "g": g,
        "ratfn": ratfn_to_json(entry.ratfn),
        "series": series_to_json(series),
        "laurent": [qstr(a) for a in entry.laurent],
        "r": entry.r_factor,
        "pole_order": entry.ratfn.den_pow,
        "constant_term": qstr(entry.laurent[0]),
        "resonant_orders": list(entry.resonant_orders),
        "verification": summary,
    }
