"""Ground-truth finite-n computations for even-valence deformed Gaussian
weights: the three-term recurrence coefficients, the normalized tau
functions (Hankel determinants), and machine verification of the lattice
equations they satisfy.

The tables come from the modified Chebyshev algorithm on moments against
the monic Hermite polynomials pi_l of the Gaussian of variance g_s, whose
recurrence x pi_l = pi_(l+1) + l g_s pi_(l-1) and closed-form moments
E[x^p pi_l] = g_s^((p+l)/2) p!/(p-l)!! keep every mixed moment small and
sparse.  Moments are normalized by the undeformed Gaussian mass, so every
entry is a truncated series in the coupling t (bivariate in (t1, t) when
the linear deformation is switched on) with rational coefficients.  The
normalization drops out of every identity checked here, which are all
ratio- or log-difference-based.

Each sum, product and table entry is one integer pass (``_fused``).  One
walk of L^(2 nu) from each row serves the Toda check and, one step before
its end, the string check.  ``asymptotic_match`` reads every site from one
table at g_s = 1 through the exact scaling law
[t^k] b2_n(g_s) = g_s^(1+(nu-1)k) [t^k] b2_n(1), and only its fit imports
the continuum derivation's kernel.  The ``verify lattice`` command's
payload builder closes the module.

A sign/normalization note that the verifications pin down exactly: with the
weight (1/g_s)(lambda^2/2 + t/(2 nu) lambda^(2 nu)), the coupling flow of
the recurrence coefficients is

    2 nu g_s db2_n/dt = (L^(2 nu))_{n,n-2} - (L^(2 nu))_{n+1,n-1},

i.e. the operator-power difference carries a 1/(2 nu) relative to the
difference-string equation; the finite-n tables here leave no freedom in
that factor.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from types import MappingProxyType

from .errors import (
    DegenerateTable,
    ReconstructionFailed,
    RejectedInput,
    VerificationFailure,
    _qscale,
    require_positive,
    status_of,
)


# ---------------------------------------------------------------------------
# bivariate truncated series in (t1, t), truncation by total degree
# ---------------------------------------------------------------------------

def _fused(T: int, plains, products=()) -> "BiSeries":
    """sum(c * s for c, s in plains) + sum(sign * u * v for sign, u, v in
    products) to total degree T, each c an int or a Fraction made once by
    the caller and each sign +1 or -1: the one place where BiSeries
    numerators accumulate.  Every term is scaled to a common denominator
    and added in one integer pass, products over the operands' sorted
    terms (``BiSeries._ints``), and the result is reduced once."""
    den = _int_lcm(*(s.den * c.denominator for c, s in plains), *(u.den * v.den for _, u, v in products))
    out: dict = {}
    for c, s in plains:
        m = c.numerator * (den // (s.den * c.denominator))
        for key, x in s.num.items():
            if key[0] + key[1] <= T:
                out[key] = out.get(key, 0) + x * m
    for sign, u, v in products:
        m = sign * (den // (u.den * v.den))
        ib = v._ints(T)
        for e1, r1, k1, x in u._ints(T):
            room = T - e1
            x *= m
            for e2, r2, k2, y in ib:
                if e2 > room:
                    break
                key = (r1 + r2, k1 + k2)
                out[key] = out.get(key, 0) + x * y
    return BiSeries._reduced(T, den, out)


class BiSeries:
    """Truncated bivariate series sum c[(r,k)] t1^r t^k with r+k <= trunc.

    Stored as integer numerators ``num`` (nonzero, keyed by (r, k)) over one
    positive denominator ``den``, reduced so that gcd(den, *num) == 1 (the
    empty series has den == 1): equal series have equal representations.
    Sums, products, quotients, logs and derivatives work on the integers
    and reduce their result once (sums and products in ``_fused``); only
    the public constructor scales rational coefficients to the common
    denominator.  A series is never mutated, so its terms are sorted once
    (``_ints``).  ``d`` is a read-only view of the coefficients as Fractions.
    """

    __slots__ = ("trunc", "den", "num", "_terms")

    def __init__(self, trunc: int, d=None):
        self.trunc = trunc
        self.den, self.num = 1, {}
        if d:
            items = [(key, Fraction(v)) for key, v in d.items() if v and key[0] + key[1] <= trunc]
            self.den, nums = _qscale([v for _, v in items])
            self.num = {key: x for (key, _), x in zip(items, nums)}

    @staticmethod
    def _reduced(trunc: int, den: int, num: dict) -> "BiSeries":
        """The series num / den in reduced form: zero numerators dropped,
        one gcd over den and the numerators, den made positive."""
        g = _int_gcd(den, *num.values())
        if den < 0:
            g = -g
        out = object.__new__(BiSeries)
        out.trunc, out.den = trunc, den // g
        out.num = {key: x // g for key, x in num.items() if x}
        return out

    @staticmethod
    def const(q, trunc: int) -> "BiSeries":
        q = Fraction(q)
        return BiSeries._reduced(trunc, q.denominator, {(0, 0): q.numerator} if trunc >= 0 else {})

    @staticmethod
    def var_t(trunc: int) -> "BiSeries":
        return BiSeries._reduced(trunc, 1, {(0, 1): 1} if trunc >= 1 else {})

    @property
    def d(self) -> MappingProxyType:
        return MappingProxyType({key: Fraction(x, self.den) for key, x in self.num.items()})

    def coeff(self, r: int, k: int) -> Fraction:
        return Fraction(self.num.get((r, k), 0), self.den)

    def constant(self) -> Fraction:
        return self.coeff(0, 0)

    def is_zero(self) -> bool:
        return not self.num

    def _ints(self, T: int) -> list[tuple[int, int, int, int]]:
        """The terms of total degree <= T as (r+k, r, k, numerator), sorted
        by total degree once per series and kept, each coefficient being
        numerator / den."""
        try:
            terms = self._terms
        except AttributeError:
            terms = self._terms = sorted((r + k, r, k, x) for (r, k), x in self.num.items())
        return terms if T >= self.trunc else [term for term in terms if term[0] <= T]

    def _bin(self, other, sign) -> "BiSeries":
        if isinstance(other, (int, Fraction)):
            other = BiSeries.const(other, self.trunc)
        return _fused(min(self.trunc, other.trunc), [(1, self), (sign, other)])

    def __add__(self, other):
        return self._bin(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            num = {key: x * q.numerator for key, x in self.num.items()}
            return BiSeries._reduced(self.trunc, self.den * q.denominator, num)
        return _fused(min(self.trunc, other.trunc), (), [(1, self, other)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Order by order in total degree: c[m] = (a[m] - sum_{j!=0} b[j] c[m-j]) / b[0].

        Fraction-free: with integer numerators A, B (a = A/da, b = B/db),
        c[m] = N[m] db / (da B0^(|m|+1)) where
        N[m] = A[m] B0^|m| - sum_{j!=0} B[j] B0^(|j|-1) N[m-j] stays an int;
        the result is put over da B0^(T+1) and reduced once.
        """
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise RejectedInput("division by zero scalar")
            return self * (1 / Fraction(other))
        if (0, 0) not in other.num:
            raise RejectedInput("bivariate division by a non-unit")
        T = min(self.trunc, other.trunc)
        if T < 0:
            return BiSeries(T, {})
        ib = other._ints(T)
        b0 = ib[0][3]
        powers = [b0 ** e for e in range(T + 2)]
        rest = [(e, r, k, y * powers[e - 1]) for e, r, k, y in ib[1:]]
        a = self.num
        num: dict = {}
        for e in range(T + 1):
            for r in range(e + 1):
                k = e - r
                s = a.get((r, k), 0) * powers[e]
                for e2, r2, k2, y in rest:
                    if e2 > e:
                        break
                    if r2 <= r and k2 <= k:
                        n = num.get((r - r2, k - k2))
                        if n:
                            s -= y * n
                if s:
                    num[(r, k)] = s
        db = other.den
        for key, n in num.items():
            num[key] = n * db * powers[T - key[0] - key[1]]
        return BiSeries._reduced(T, self.den * powers[T + 1], num)

    def log(self) -> "BiSeries":
        """log f = sum_{m != 0} [(E f) / f]_m / |m|, with the Euler operator
        E(t1^r t^k) = (r+k) t1^r t^k: one division, then the quotient put
        over lcm(1..T) times its denominator."""
        if self.num.get((0, 0)) != self.den:
            raise RejectedInput("bivariate log requires constant term 1")
        T = self.trunc
        euler = BiSeries._reduced(T, self.den, {key: (key[0] + key[1]) * x for key, x in self.num.items()})
        q = euler / self
        scale = _int_lcm(*range(1, T + 1))
        num = {key: x * (scale // (key[0] + key[1])) for key, x in q.num.items()}
        return BiSeries._reduced(T, q.den * scale, num)

    def diff(self, var: str) -> "BiSeries":
        if var == "t1":
            out = {(r - 1, k): r * x for (r, k), x in self.num.items() if r}
        elif var == "t":
            out = {(r, k - 1): k * x for (r, k), x in self.num.items() if k}
        else:
            raise RejectedInput("unknown variable %r" % var)
        return BiSeries._reduced(self.trunc - 1, self.den, out)

    def __eq__(self, other):
        return (
            isinstance(other, BiSeries)
            and self.trunc == other.trunc
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self):
        return "BiSeries[T=%d](%s)" % (self.trunc, dict(sorted(self.d.items())))


# ---------------------------------------------------------------------------
# weights, moments, recurrence tables
# ---------------------------------------------------------------------------

class WeightSpec(namedtuple("WeightSpec", "nu g_s include_t1")):
    """Even-valence weight (1/g_s)(lambda^2/2 + t1 lambda + t/(2 nu) lambda^(2 nu))."""

    __slots__ = ()

    def __new__(cls, nu: int, g_s: Fraction, include_t1: bool = False):
        if nu < 1:
            raise RejectedInput("valence parameter must be >= 1")
        if g_s <= 0:
            raise RejectedInput("string coefficient must be positive")
        return super().__new__(cls, nu, g_s, include_t1)


def hermite_moments(spec: WeightSpec, l_max: int, T: int) -> list[BiSeries]:
    """Modified moments mu_l = E[pi_l w] of the deformed weight w against
    the Hermite polynomials pi_l, so mu_l(t=0) = delta_l0.  With the
    Gaussian E[x^p pi_l] = g_s^((p+l)/2) p!/(p-l)!! for p >= l and p - l
    even (0 otherwise), the coefficient of t1^r t^i, p = 2 nu i + r, is
    (-1)^(i+r) p! / ((p-l)!! i! r! (2 nu)^i) g_s^s, s = (p+l)/2 - i - r:
    an integer numerator over one denominator T! (2 nu)^T P^a Q^b
    (g_s = P/Q, -a <= s <= b), read from tables built once per call.
    """
    if T < 0:
        raise RejectedInput("truncation order must be >= 0")
    two_nu = 2 * spec.nu
    r_max = T if spec.include_t1 else 0
    a, b = r_max // 2, (spec.nu - 1) * T + l_max // 2
    fact, dfact = [1], [1, 1]  # m! and m!! for every p = 2 nu i + r <= 2 nu T
    for m in range(1, two_nu * T + 1):
        fact.append(fact[-1] * m)
        dfact.append(dfact[-2] * (m + 1))
    P, Q = spec.g_s.numerator, spec.g_s.denominator
    gpow = [P ** (a + s) * Q ** (b - s) for s in range(-a, b + 1)]  # g_s^s times the denominator's share
    prefactor = [(r, i, two_nu * i + r, (-1) ** (i + r) * fact[T] // (fact[i] * fact[r]) * two_nu ** (T - i))
                 for i in range(T + 1) for r in range(min(r_max, T - i) + 1)]
    den = fact[T] * two_nu ** T * P ** a * Q ** b
    out = []
    for l in range(l_max + 1):
        num = {}
        for r, i, p, c in prefactor:
            if p >= l and not (p - l) % 2:
                num[(r, i)] = c * fact[p] // dfact[p - l] * gpow[a + (p + l) // 2 - i - r]
        out.append(BiSeries._reduced(T, den, num))
    return out


# Exact recurrence data b2[n], a[n] and normalized tau2[n] to order T, each
# a dict from n to BiSeries.  b2[n] vanishes identically for n <= 0
# (semi-infinite boundary), and b2[n](t=0) = n g_s, the undeformed Gaussian
# value, is asserted at build time along with positivity of every Hankel
# determinant at t = 0.
RecurrenceTable = namedtuple("RecurrenceTable", "spec n_max T b2 a tau2")


def recurrence_table(spec: WeightSpec, n_max: int, T: int) -> RecurrenceTable:
    """Build the recurrence data by the modified Chebyshev algorithm (Sack
    and Donovan 1972; Wheeler 1974; Gautschi 2004, section 2.1.7) on the
    Hermite-modified moments (``hermite_moments``).

    sigma[k][l] = E[p_k pi_l w] mixes the monic orthogonal polynomials p_k
    with the Hermite polynomials pi_l; they agree at t = 0, so sigma[k][l]
    vanishes there for l > k.  The norms h_k = sigma[k][k] are units
    (positive at t = 0), every division below is by a unit series, and
    det H_n = h_0 ... h_{n-1}.

    The row k+1 is sigma[k+1][l] = sigma[k][l+1] - a_k sigma[k][l] -
    b2_k sigma[k-1][l] + l g_s sigma[k][l-1].  By orthogonality
    sigma[k+1][l] = 0 for l <= k, so those entries are set to zero and
    never computed; each remaining entry is one fused integer pass
    (``_fused``).
    """
    if n_max < 2:
        raise RejectedInput("n_max must be >= 2")
    L = 2 * n_max + 1
    zero = BiSeries(T, {})
    beta = [l * spec.g_s for l in range(L + 1)]
    sigma_prev = [zero] * (L + 2)  # row k-1, padded
    sigma = hermite_moments(spec, L, T) + [zero]
    a: dict[int, BiSeries] = {}
    b2: dict[int, BiSeries] = {n: zero for n in range(-2 * n_max, 1)}
    # tau2[n] = det H_n(t) / det H_n(0), via det H_n = prod_{k<n} h_k
    tau2: dict[int, BiSeries] = {0: BiSeries.const(1, T)}
    det, prev_ratio = BiSeries.const(1, T), zero
    for k in range(n_max + 1):
        hk = sigma[k]
        if hk.constant() == 0:
            raise DegenerateTable("vanishing Hankel ratio at k=%d, t=0" % k)
        if hk.constant() < 0 and spec.g_s > 0:
            raise DegenerateTable("negative Hankel ratio at k=%d, t=0" % k)
        ratio = sigma[k + 1] / hk if k + 1 < len(sigma) else zero
        a[k] = ratio - prev_ratio
        prev_ratio = ratio
        if k >= 1:
            b2[k] = hk / sigma_prev[k - 1]
            if b2[k].constant() != beta[k]:
                raise DegenerateTable("b2[%d](0) = %s, expected %s" % (k, b2[k].constant(), beta[k]))
        if k == n_max:
            break
        det = det * hk
        tau2[k + 1] = det / det.constant()
        # next row of mixed moments, zero below the diagonal
        nxt = [zero] * (k + 1)
        for l in range(k + 1, L - k):
            products = [(-1, c, row[l]) for c, row in ((a[k], sigma), (b2[k], sigma_prev)) if c.num and row[l].num]
            nxt.append(_fused(T, [(1, sigma[l + 1]), (beta[l], sigma[l - 1])], products))
        sigma_prev, sigma = sigma, nxt + [zero]
    if not spec.include_t1 and any(s.num for s in a.values()):
        raise DegenerateTable("nonzero diagonal coefficient for an even weight")
    return RecurrenceTable(spec=spec, n_max=n_max, T=T, b2=b2, a=a, tau2=tau2)


# ---------------------------------------------------------------------------
# verification of the lattice equations
# ---------------------------------------------------------------------------

def _site_range(table: RecurrenceTable, reach: int) -> range:
    return range(1, table.n_max - reach + 1)


def _first_nonzero(res: BiSeries):
    """The term of lowest total degree r+k, ties broken by (r, k): the
    first order at which the total-degree truncation sees the residual."""
    key = min(res.d, key=lambda rk: (rk[0] + rk[1], rk))
    return key, res.d[key]


def operator_power_row(table: RecurrenceTable, r: int, j: int) -> tuple[BiSeries, dict[int, BiSeries]]:
    """(L^(j-1))_{r,r-1}, read one step before the end, and the entries
    (L^j)_{r,c} for c = r-2, r-1 (j >= 1) of the recursion operator L,
    x p_l = p_{l+1} + a_l p_l + b2_l p_{l-1}, by transfer: the row vector
    e_r is multiplied by L one step at a time,

        next[l+1] += v[l],   next[l] += v[l] a_l,   next[l-1] += v[l] b2_l,

    so each walk prefix is multiplied once, not once per walk, and each
    level of next is one fused integer pass (``_fused``).  After a step
    with ``left`` steps to go, only the levels r-2-left <= l <= r-1+left can
    still reach a target column, and only those are kept; the highest level
    read is then r + floor((j-1)/2).  Products with a zero weight are
    skipped; a_l is zero below level 0, where no valid table has a walk.
    """
    T = table.T
    zero = BiSeries(T, {})
    v = {r: BiSeries.const(1, T)}
    for left in range(j - 1, -1, -1):
        before, nxt = v, {}
        for m in range(r - 2 - left, r + left):
            plains = [(1, v[m - 1])] if m - 1 in v else []
            products = [(1, v[i], w[i]) for i, w in ((m, table.a), (m + 1, table.b2)) if i in v and w.get(i, zero).num]
            if plains or products:
                nxt[m] = _fused(T, plains, products)
        v = nxt
    return before.get(r - 1, zero), {c: v.get(c, zero) for c in (r - 2, r - 1)}


def _power_rows(table: RecurrenceTable) -> dict:
    """operator_power_row at j = 2 nu for the rows n and n+1 of every site
    n, each once: the string check reads (L^(2nu-1))_{r,r-1}, the Toda check
    the row of L^(2nu)."""
    sites = _site_range(table, table.spec.nu)
    return {r: operator_power_row(table, r, 2 * table.spec.nu) for r in {*sites, *(n + 1 for n in sites)}}


def verify_lattice_equations(table: RecurrenceTable, kind: str, rows=None) -> dict:
    """Check the difference-string / coupling-flow equations site by site.

    Residuals must vanish identically as truncated series; the first
    offending (site, order) is reported otherwise.  The operator-power
    entries come from ``_power_rows``, or from ``rows``, its result for this
    table, shared by the string and Toda checks: the rows n and n+1 are
    stepped through L once each and shared by the sites that read them.
    The entries are the general (flat-step weighted) ones, which reduce to
    the even-weight form when the linear deformation is off, since a_l
    vanishes identically and its products are skipped.

    Boundary: b2_l vanishes for l <= 0, so no walk passes below level 0
    and the semi-infinite operator is exact at every site n >= 1.  At the
    top, rows n and n+1 with j <= 2 nu steps read levels up to n + nu, so
    the sites are n = 1 .. n_max - nu.
    """
    spec = table.spec
    nu = spec.nu
    sites = []
    site_range = _site_range(table, nu)

    if kind == "string":
        # (L + t L^(2nu-1))_{n+1,n} - (L + t L^(2nu-1))_{n,n-1} = g_s,
        # with (L)_{r,r-1} = b2_r
        t_series = BiSeries.var_t(table.T)
        top = {r: table.b2[r] + t_series * entry for r, (entry, _) in (rows or _power_rows(table)).items()}
        for n in site_range:
            res = top[n + 1] - top[n] - spec.g_s
            _record(sites, n, res, kind)
    elif kind == "toda":
        # 2 nu g_s db2_n/dt = (a_{n-1}-a_n)(L^2nu)_{n,n-1}
        #                     + (L^2nu)_{n,n-2} - (L^2nu)_{n+1,n-1}
        # 2 nu g_s da_n/dt  = (L^2nu)_{n,n-1} - (L^2nu)_{n+1,n}
        rows = {r: row for r, (_, row) in (rows or _power_rows(table)).items()}
        for n in site_range:
            mid = rows[n][n - 1]
            res = (
                2 * nu * spec.g_s * table.b2[n].diff("t")
                + rows[n + 1][n - 1]
                - rows[n][n - 2]
                - (table.a[n - 1] - table.a[n]) * mid
            )
            _record(sites, n, res, kind)
            res_a = 2 * nu * spec.g_s * table.a[n].diff("t") + rows[n + 1][n] - mid
            _record(sites, n, res_a, "toda_diagonal")
    elif kind == "toda_t1":
        if not spec.include_t1:
            raise RejectedInput("toda_t1 verification requires the t1-deformed table")
        for n in _site_range(table, 1):
            res_a = spec.g_s * table.a[n].diff("t1") + (table.b2[n + 1] - table.b2[n])
            _record(sites, n, res_a, "toda_t1_flow_a")
            res_b = spec.g_s * table.b2[n].diff("t1") + table.b2[n] * (
                table.a[n] - table.a[n - 1]
            )
            _record(sites, n, res_b, "toda_t1_flow_b")
    else:
        raise RejectedInput("kind must be 'string', 'toda' or 'toda_t1'")
    return {
        "equation": kind,
        "nu": nu,
        "n_max": table.n_max,
        "trunc": table.T,
        "sites": sites,
        "status": status_of(sites),
    }


def _record(sites: list, n: int, res, tag: str):
    if res.is_zero():
        sites.append({"n": n, "check": tag, "status": "pass"})
    else:
        key, val = _first_nonzero(res)
        raise VerificationFailure(
            "%s residual nonzero at n=%d, order t1^%d t^%d: %s" % (tag, n, key[0], key[1], val)
        )


def verify_hirota(table: RecurrenceTable) -> dict:
    """Check the tau-function product identity and (with t1) its
    log-derivative forms a_n = -g_s d/dt1 log(tau2_{n+1}/tau2_n) and
    b2_n = g_s^2 d^2/dt1^2 log tau2_n, plus the centered-second-difference
    identity for log tau2.

    The product and second-difference checks hold by the table's own
    construction: tau2_{n+1} = prod_{k<=n} h_k / h_k(0), b2_k = h_k /
    h_{k-1}, and b2_k(0) = k g_s is asserted at build.  So they test only
    the BiSeries products, division and log; the t1 log-derivative forms
    are the independent part."""
    spec = table.spec
    sites = []
    # log tau2[m] and its t1-derivative, each taken once per call from the
    # table as it stands, once the product check at n has passed
    log_tau, dlog_tau = [], []
    for n in range(1, table.n_max):
        lhs = table.b2[n] * table.tau2[n] * table.tau2[n]
        rhs = table.tau2[n + 1] * table.tau2[n - 1] * (n * spec.g_s)
        _record(sites, n, lhs - rhs, "tau_product")
        log_tau += [table.tau2[m].log() for m in range(len(log_tau), n + 2)]
        second_diff = log_tau[n + 1] - 2 * log_tau[n] + log_tau[n - 1]
        _record(
            sites,
            n,
            second_diff - (table.b2[n] / (n * spec.g_s)).log(),
            "tau_second_difference",
        )
        if spec.include_t1:
            dlog_tau += [s.diff("t1") for s in log_tau[len(dlog_tau):]]
            res_a = table.a[n] + spec.g_s * (dlog_tau[n + 1] - dlog_tau[n])
            _record(sites, n, res_a, "tau_log_derivative_a")
            res_b = table.b2[n] - spec.g_s ** 2 * dlog_tau[n].diff("t1")
            _record(sites, n, res_b, "tau_log_derivative_b")
    return {
        "equation": "hirota",
        "nu": spec.nu,
        "with_t1": spec.include_t1,
        "sites": sites,
        "status": status_of(sites),
    }


# ---------------------------------------------------------------------------
# matching the finite-n tables against the continuum coefficients
# ---------------------------------------------------------------------------

def fit_sites(nu: int, G: int, n_range, T: int) -> list[int]:
    """The sites of ``asymptotic_match``'s fit, as a list, once they are
    checked to be positive, strictly increasing and at least two, and one
    more than the genera G+1 .. (nu-1)T/2 that the fit solves for.  It
    builds nothing, so a caller can reject its sites before any table."""
    n_range = list(n_range)
    if len(n_range) < 2 or n_range[0] < 1 or any(b <= a for a, b in zip(n_range, n_range[1:])):
        raise RejectedInput("n_range must be positive, strictly increasing, with >= 2 entries")
    if len(n_range) <= (nu - 1) * T // 2 - G:
        raise RejectedInput(
            "n_range leaves no surplus site for the genus %d..%d fit at t-order %d"
            % (G + 1, (nu - 1) * T // 2, T)
        )
    return n_range


def asymptotic_match(nu: int, G: int, n_range, T: int, ztable=None) -> dict:
    """Compare b2_n, tabulated at g_s = 1/n, against the genus expansion
    through genus G.  One table at g_s = 1 serves every site, through the
    exact scaling law [t^k] b2_n(g_s) = g_s^(1+(nu-1)k) [t^k] b2_n(1).

    Each coupling order k of b2_n is a polynomial in x = 1/n^2 of degree
    (nu-1)k/2 rounded down, the top genus at k vertices, whose x^g
    coefficient is zeta_{g,k}.  Once the targets g <= G are subtracted, the
    remainder must be fitted exactly over n_range by the unknown genera
    G+1 .. (nu-1)k/2, with at least one surplus site; an order whose
    remainder admits no such fit fails.  The reported gap is
    |R_G(n) - zeta_{G,k}| at the last site, with

        R_G(n) = n^(2G) ( [t^k] b2_n  -  sum_{g<G} n^(-2g) zeta_{g,k} ).
    """
    from . import continuum_even
    from .exact_kernel import solve_linear

    n_range = fit_sites(nu, G, n_range, T)
    if ztable is None:
        ztable = continuum_even.build_ztable(nu, G, max(T + 2, 8))
    # genus-side targets: z_g(u) with u = -t / (2 nu)
    scale = Fraction(-1, 2 * nu)
    zeta = {}
    for g in range(G + 1):
        zs = ztable.series(g)
        zeta[g] = [zs.coeff(k) * scale ** k for k in range(T + 1)]
    b2 = recurrence_table(WeightSpec(nu, Fraction(1)), n_range[-1], T).b2
    xs = [Fraction(1, n * n) for n in n_range]
    orders = []
    for k in range(T + 1):
        rest = [
            b2[n].coeff(0, k) / n ** (1 + (nu - 1) * k) - sum(x ** g * zeta[g][k] for g in range(G + 1))
            for n, x in zip(n_range, xs)
        ]
        higher = range(G + 1, (nu - 1) * k // 2 + 1)
        try:
            solve_linear([[x ** g for g in higher] for x in xs], rest)
            status = "pass"
        except ReconstructionFailed:
            status = "fail"
        gap = abs(Fraction(n_range[-1]) ** (2 * G) * rest[-1])
        orders.append(
            {
                "t_order": k,
                "target": str(zeta[G][k]),
                "final_gap": str(gap),
                "exact": gap == 0,
                "status": status,
            }
        )
    return {
        "equation": "asymptotic_match",
        "nu": nu,
        "genus": G,
        "n_range": n_range,
        "orders": orders,
        "status": status_of(orders),
    }


# ---------------------------------------------------------------------------
# the verify lattice command
# ---------------------------------------------------------------------------

def payload_verify_lattice(nu: int, nmax: int, torder: int, with_t1: bool) -> dict:
    require_positive("--nu", nu)
    require_positive("--nmax", nmax)
    if torder < 0:
        raise RejectedInput("--torder must be >= 0")
    spec = WeightSpec(nu=nu, g_s=Fraction(1, nmax), include_t1=with_t1)
    table = recurrence_table(spec, n_max=nmax + nu + 1, T=torder)
    rows = _power_rows(table)
    reports = [
        verify_lattice_equations(table, "string", rows),
        verify_lattice_equations(table, "toda", rows),
        verify_hirota(table),
    ]
    if with_t1:
        reports.append(verify_lattice_equations(table, "toda_t1"))
    identities = [
        {
            "equation": r["equation"],
            "tag": r["equation"],
            "n": [s["n"] for s in r["sites"]],
            "status": r["status"],
            "first_failure": None,
        }
        for r in reports
    ]
    return {
        "nu": nu,
        "n_max": nmax,
        "t_order": torder,
        "with_t1": with_t1,
        "identities": identities,
        "status": status_of(identities),
    }
