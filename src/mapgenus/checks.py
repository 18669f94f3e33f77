"""The identities that ``verify continuum`` checks beyond the z_g solve,
and the ``verify continuum`` and ``report`` commands' payload builders.

It holds the planar functional equation, the hodograph solution of the
leading transport equation, the jet-form continuum hierarchy (whose
genus-h jets ``continuum_even.verify_continuum_toda`` evaluates on the
solved family) and the spatially exact antiderivative of the string-side
jets, together with their staircase-box coefficients.  Each box is the
k-subsets of {1, ..., top}, its d_lambda come from one stage-1 collection
over its points (the collector that expands the lattice equations), and
every hierarchy jet is keyed by that collector's sorted tuple lambda of
derivative orders.  The antiderivative identity is algebraic: on the box
it compares the per-composition slot sums with the collector's
string-side jets, and both are zero by the box's antisymmetry.  No other
command runs them, so only these two commands compile them.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from .continuum_even import (
    CatalanData,
    build_ztable,
    catalan_data,
    monomial_sums,
    verify_continuum_toda,
    ztable_order,
)
from .errors import RejectedInput, VerificationFailure, require_higher_genus, require_positive, status_of
from .exact_kernel import GradedSeries, Q

Partition = tuple[int, ...]


# ---------------------------------------------------------------------------
# the staircase boxes and their coefficients
# ---------------------------------------------------------------------------


def box_points(nu: int, variant: str) -> list[tuple[int, ...]]:
    """The points x = mu - eta of a staircase box, one per strictly
    decreasing mu in it, in descending lexicographic order of mu.

    variant "toda": k = nu+1 slots and top = 2nu; "string": k = nu slots and
    top = 2nu-1; eta = (top, top-2, ...) for both.  The box runs from
    (k, ..., 1) to (top, ..., top-k+1), so it is the k-subsets of 1..top: a
    strictly decreasing mu_1 > ... > mu_k inside 1..top has i-1 distinct
    parts above mu_i and k-i below, so k-i+1 <= mu_i <= top-i+1.
    """
    if variant == "toda":
        k, top = nu + 1, 2 * nu
    elif variant == "string":
        k, top = nu, 2 * nu - 1
    else:
        raise RejectedInput("variant must be 'toda' or 'string'")
    eta = range(top, -1, -2)
    return [tuple(m - e for m, e in zip(mu, eta)) for mu in combinations(range(top, 0, -1), k)]


def box_coefficients(nu: int, size: int, variant: str) -> dict[tuple[int, ...], int]:
    """The hierarchy coefficients d_lambda = 2 sum_x m_lambda(x) over the box
    points x of the variant, for every partition lambda of the odd ``size``
    whose sum is nonzero, from one stage-1 collection over the points
    (``monomial_sums``).  Each key is lambda in ascending order, padded with
    zeros to the slot count; m_lambda counts 0**0 as 1."""
    if size % 2 == 0:
        raise RejectedInput("partition size must be odd (2g+1)")
    sums = monomial_sums(((x, 1) for x in box_points(nu, variant)), size)
    return {lam: 2 * s for lam, s in sums.items() if s and sum(lam) == size}


# ---------------------------------------------------------------------------
# the planar functional equation, the hodograph solution and the leading
# transport equation
# ---------------------------------------------------------------------------


def planar_data(T: int, planar: CatalanData) -> CatalanData:
    """The cut to order T of ``planar``: planar data that catalan_data
    built to order T or beyond, and so checked."""
    return CatalanData(planar.c, planar.zetas[:T], planar.z0.truncate(T))


def verify_string_functional(nu: int, T: int, planar: CatalanData) -> dict:
    """catalan_data asserted the functional equation when it built ``planar``."""
    planar_data(T, planar)
    return {"identity": "planar_functional_equation", "nu": nu, "order": T, "status": "pass"}


# f0(u, w) = w z0(u w^(nu-1)), implicitly defined by w = f0 - c u f0^nu
HodographSolution = namedtuple("HodographSolution", "c f0")


def hodograph_solution(nu: int, T: int, planar: CatalanData) -> HodographSolution:
    data = planar_data(T, planar)
    f0 = GradedSeries.from_series(data.z0, base2=2, step2=2 * (nu - 1))
    w = GradedSeries.const("u", 1, base2=2, step2=2 * (nu - 1), trunc=T)
    res = f0 - data.c * (f0 ** nu).xmul(1) - w
    if not res.is_zero():
        raise VerificationFailure("hodograph relation fails at nu=%d" % nu)
    return HodographSolution(c=data.c, f0=f0)


def verify_burgers(nu: int, T: int, planar: CatalanData) -> dict:
    """The hodograph solution satisfies df0/du = (c/(nu+1)) dw(f0^(nu+1))."""
    sol = hodograph_solution(nu, T, planar)
    res = sol.f0.dx() - Q(sol.c, nu + 1) * (sol.f0 ** (nu + 1)).dw().truncate(T - 1)
    if not res.is_zero():
        raise VerificationFailure("leading transport equation fails at nu=%d" % nu)
    # initial-data slope: du f0 at u=0 equals c w^nu
    slope = sol.f0.dx()
    if slope.coeff(0) != sol.c or slope.base2 != 2 * nu:
        raise VerificationFailure("characteristic speed on initial data is off")
    return {"identity": "leading_transport", "nu": nu, "order": T, "status": "pass"}


# ---------------------------------------------------------------------------
# the hierarchy jets, keyed by their derivative orders
# ---------------------------------------------------------------------------


def _partition_jet(nu: int, g: int, variant: str) -> dict[Partition, Fraction]:
    """The jet polynomial sum_lambda d_lambda prod_j dw^(lambda_j) f /
    lambda_j! over the partitions lambda of 2g+1 with at most `slots` parts
    (nu+1 for "toda", nu for "string"), with the staircase-box coefficient
    d_lambda of the variant and no repeated-part division: lambda -> its
    coefficient, keyed as ``box_coefficients`` keys d_lambda (ascending,
    padded with zeros to the slot count, a zero being a bare f factor)."""
    coefficients = box_coefficients(nu, 2 * g + 1, variant)
    return {lam: Q(d, prod(map(factorial, lam))) for lam, d in coefficients.items()}


def toda_jet(nu: int, g: int) -> dict[Partition, Fraction]:
    """Genus-g right-hand side of the continuum coupling-flow hierarchy: the
    partition sum of 2g+1 over nu+1 slots.

    The box sums are classical monomial symmetric values, and the
    finite-size oracle pins this pairing exactly (a repeated-part division
    would fail it at every nu >= 3)."""
    if g < 0:
        raise RejectedInput("genus must be >= 0")
    return _partition_jet(nu, g, "toda")


# -- spatially exact antiderivative of the string-side jets ------------------


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def string_jets(nu: int, g: int) -> tuple[dict[Partition, Fraction], dict[Partition, tuple[Fraction, ...]]]:
    """The genus-g string-side jet polynomial F (``_partition_jet``) and its
    spatial antiderivative, both summed over the staircase box.

    The antiderivative has one entry per composition c of 2g into nu slots
    (slot i carries derivative order c_i): the tuple of slot sums

        W_i(c) = 2 sum_mu x_i prod_j x_j^c_j / ((2g+1) prod_j c_j!)

    over the box points x = mu - eta, with 0**0 = 1.  That the slot
    derivative of the antiderivative is F is algebraic, true for any point
    set: the W_i(c) landing on the orders lambda sum to 2 sum_x m_lambda(x)
    / prod_j lambda_j!.  On the box, every string box coefficient and each
    of those sums vanish by the box's antisymmetry, so F is empty.
    """
    if g < 1:
        raise RejectedInput("string jets start at genus 1")
    F = _partition_jet(nu, g, "string")
    points = box_points(nu, "string")
    # x_i^0 .. x_i^(2g) per point, built once; a slot of order 0 gives 1
    powers = [[[x ** e for e in range(2 * g + 1)] for x in xs] for xs in points]
    antiderivative = {}
    for comp in _compositions(2 * g, nu):
        support = [(i, ci) for i, ci in enumerate(comp) if ci]
        sums = [0] * nu
        for xs, pw in zip(points, powers):
            weight = prod(pw[i][ci] for i, ci in support)
            if weight:
                for i, x in enumerate(xs):
                    sums[i] += x * weight
        den = (2 * g + 1) * prod(map(factorial, comp))
        antiderivative[comp] = tuple(Q(2 * s, den) for s in sums)
    return F, antiderivative


def verify_string_antiderivative(nu: int, g: int) -> dict:
    """The slot derivative of the string antiderivative equals the
    string-side jet polynomial F: slot i of the entry of composition c
    raises that slot's order, so W_i(c) lands on the orders
    sorted(c + e_i).  The identity is algebraic (``string_jets``); on the
    box it compares the per-composition slot sums with the stage-1
    collector's F, and both are zero by the box's antisymmetry."""
    F, antiderivative = string_jets(nu, g)
    slot_sums: dict = {}
    for comp, sums in antiderivative.items():
        for i, w in enumerate(sums):
            if w:
                lam = tuple(sorted(comp[:i] + (comp[i] + 1,) + comp[i + 1 :]))
                slot_sums[lam] = slot_sums.get(lam, 0) + w
    if {lam: w for lam, w in slot_sums.items() if w} != F:
        raise VerificationFailure(
            "string antiderivative fails at nu=%d, g=%d" % (nu, g)
        )
    return {"identity": "string_antiderivative", "nu": nu, "g": g, "status": "pass"}


# ---------------------------------------------------------------------------
# the verify continuum and report commands
# ---------------------------------------------------------------------------


def payload_verify_continuum(nu: int, g: int, order: int | None) -> dict:
    if g < 0:
        raise RejectedInput("genus must be >= 0")
    require_positive("--nu", nu)
    # catalan_data sees max(T, 20), so it would not reject this order itself
    require_positive("--order", order)
    T = ztable_order(g) if order is None else order
    # one planar series, at the largest order a check reads, cut for each
    planar = catalan_data(nu, max(T, 20))
    ztable = build_ztable(nu, g, T, planar.z0)
    reports = [
        verify_string_functional(nu, max(T, 20), planar),
        verify_burgers(nu, max(T, 10), planar),
    ]
    for gg in range(1, g + 1):
        reports.append(verify_string_antiderivative(nu, gg))
        reports.append(verify_continuum_toda(nu, gg, ztable))
    identities = [{"tag": r["identity"], "status": r["status"]} for r in reports]
    return {"nu": nu, "g": g, "identities": identities, "status": status_of(identities)}


def payload_report(nu: int) -> dict:
    """One standard verification sweep: every identity tag with its status."""
    require_positive("--nu", nu)
    require_higher_genus(nu)
    from . import fatgraph_oracle
    from .continuum_odd import payload_trivalent, payload_verify_odd
    from .lattice_oracle import asymptotic_match, fit_sites, payload_verify_lattice

    try:  # before the sweep: a valence may leave the fixed fit no surplus site
        sites = fit_sites(nu, 1, [4, 6, 8, 10], 3)
    except RejectedInput:
        raise RejectedInput(
            "report takes --nu 2..4: its genus-1 fit over sites 4, 6, 8, 10 at t-order 3"
            " leaves no surplus site at --nu %d" % nu
        ) from None
    out = []
    out.extend(payload_verify_lattice(nu, 6, 4, True)["identities"])
    out.extend(payload_verify_continuum(nu, 2, None)["identities"])
    out.extend(payload_verify_odd(max(nu - 1, 1), 8)["identities"])
    tri = payload_trivalent(4)
    out.append({"tag": tri["identity"], "status": tri["status"]})
    match = asymptotic_match(nu, 1, sites, 3)
    out.append({"tag": match["equation"], "status": match["status"]})
    counts = fatgraph_oracle.kappa_counts(4, 2)
    out.append(
        {
            "tag": "matching_tally",
            "status": "pass" if sum(counts.values()) == 96 else "fail",
        }
    )
    return {"nu": nu, "identities": out, "status": status_of(out)}
