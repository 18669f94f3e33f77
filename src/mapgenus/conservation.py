"""The conservation-law side of the e_g pipeline: the transport
coefficient tables (Q and c), the vanishing sums that force the minimal
pole order of each spatial derivative of a genus lift, the rebuild of that
derivative from the tables, and the independent planar-jet formula for the
derivatives of the genus-0 lift.

``genus_even.E_w_derivs`` checks its graded chain against these; no
command runs them, so they live apart from the genus solve and only a
caller of ``E_w_derivs`` or of the tables compiles them.
"""

from fractions import Fraction
from math import comb, factorial

from .combinatorics import c_valence
from .continuum_even import LogRational, _graded_chain
from .errors import RejectedInput, VerificationFailure
from .exact_kernel import DLaurent, Q
from .genus_even import ETable, falling


# ---------------------------------------------------------------------------
# the planar-jet formula
# ---------------------------------------------------------------------------


def planar_lift_deriv_formula(nu: int, p: int) -> LogRational:
    """Independent form of the p-th spatial derivative of E_0 (p >= 3),
    written in the planar jets: a log-transport block, a quadratic block,
    and the explicit (p-3)! (-1/w)^(p-2) tail at w = 1.

    The quadratic block's symmetric sum counts unordered index pairs, so
    the middle term of the full binomial sum enters with half weight.
    """
    if p < 3:
        raise RejectedInput("jet formula starts at p = 3")
    # the planar lift f0 = w z0(u w^(nu-1)) has weight w^1, and f0_w/f0
    # weight w^(-1) (f0 = z0 at w = 1)
    jets = _graded_chain([LogRational(nu, DLaurent.z(nu))], 1, p)
    ratio_derivs = _graded_chain([LogRational(nu, jets[1].rat.div_z())], -1, p - 1)
    out = (
        Q(comb(p, 2)) * ratio_derivs[p - 3]
        + Q(p) * ratio_derivs[p - 2]
        + Q(1, 2) * ratio_derivs[p - 1]
    )
    coeff = Q((nu - 1) ** 2, 2 * nu * (nu + 1))
    quad = LogRational(nu, DLaurent.const(nu, 0))
    for j in range(0, p // 2 + 1):
        weight = Q(comb(p, j))
        if 2 * j == p:
            weight /= 2
        quad = quad + LogRational(nu, weight * jets[j].rat * jets[p - j].rat)
    out = out + coeff * quad
    lin = jets[p] + Q(p) * jets[p - 1]
    out = out - Q((2 * nu + 1) * (nu - 1), 2 * nu * (nu + 1)) * lin
    tail = Q((-1) ** p) * Q(factorial(p - 3))
    return out + tail


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
        laur = e_k.rat.pole_coeffs()
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
    z = DLaurent.z(nu)
    deriv = e_k
    for j in range(1, j_max + 1):
        deriv = deriv.du()
        # sum_l c_l D^-(2k+l+j-1), lowest power first
        tail = [c[(j, ell)] for ell in range(ell_max, -1, -1)]
        recon = c_valence(nu) ** j * z ** (j * nu + 1) * DLaurent(nu, -(2 * k + ell_max + j - 1), tail)
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
        totals = {}  # order -> the sum that must vanish there
        if k >= 2:
            laur = e_k.rat.pole_coeffs()
            for ell in range(p):
                # wrapped combination: z0 sum_m V_m / D^(2k+m-1) rewritten in
                # plain pole orders; V_m from the j >= 1 rows
                v_here = vanishing_sums(nu, k, p, Qt, ct, ell)
                v_prev = vanishing_sums(nu, k, p, Qt, ct, ell - 1) if ell else Q(0)
                pole = 2 * k - 2 + ell
                plain = laur[pole] if 0 < pole < len(laur) else Q(0)
                totals[ell] = falling(2 - 2 * k, p) * plain + Q(nu, nu - 1) * v_prev - Q(
                    1, nu - 1
                ) * v_here
            failure = "vanishing sum fails at k=%d, p=%d, order %%d" % (k, p)
        else:
            for m in range(1, p):
                totals[m] = vanishing_sums(nu, k, p, Qt, ct, m) - nu * vanishing_sums(
                    nu, k, p, Qt, ct, m - 1
                )
            failure = "adjacent-order vanishing fails at k=1, p=%d, m=%%d" % p
        failed = [order for order, total in totals.items() if total != 0]
        if failed:
            raise VerificationFailure(failure % failed[0])
        checks.append({"k": k, "p": p, "orders": len(totals), "status": "fail" if failed else "pass"})
    return {"Q": Qt, "c": ct, "checks": checks}


def resummed_via_tables(etable: ETable, k: int, p: int) -> LogRational:
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
    # z0 sum_m V_m / D^(2k+m-1), lowest power of D first
    M = ell_max + p
    sums = [vanishing_sums(nu, k, p, Qt, ct, m) for m in range(M, -1, -1)]
    wrapped = DLaurent.z(nu) * DLaurent(nu, -(2 * k + M - 1), sums)
    return e_k * Qt[(p, 0)] + LogRational(nu, wrapped)
