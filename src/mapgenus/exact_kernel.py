"""Exact arithmetic substrate: rationals, polynomials, truncated series,
the ring of Laurent polynomials in D = nu - (nu-1) z, reduced rational
functions, graded (self-similar) series and exact linear solving.

Values are exact rationals; there is no floating point anywhere.
Truncated series arithmetic narrows to the minimum truncation of its
operands so no result ever claims more precision than its inputs carry.
A ``Series`` (and a ``GradedSeries``, a series with a w-weight) and a
``DLaurent`` hold integer numerators over one denominator, so their sums
and products run on plain ints: a product is one integer convolution
(``_iconv``) and a series quotient one integer forward substitution
(``_forward``) with one gcd per output coefficient.  ``Poly`` and
reconstruction hold Fractions and scale each operand once to integers over
the lcm of its denominators (``_qscale``): their products run through
``_qconv`` and a change of variable is one integer Taylor shift
(``_taylor_shift``).

Both genus families are solved in ``DLaurent``, where sums and products
need no polynomial gcd; ``RatFn`` defines no arithmetic and only carries a
value to the read-back (``ratfn_to_series``) and printing, built from
``DLaurent`` by one Taylor shift.  The read-back, and the u-series
reconstruction (``series_to_ratfn``) that the tests compare the ring solve
against, work in powers of y = z - z(0) of the substitution series: its
powers y^i start at x^i, so the change of basis is lower triangular, over
columns built once per (series, truncation) and kept in a small memo.
``solve_linear`` (fraction-free Bareiss) fits the lattice tables'
higher-genus remainder.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from operator import add, mul

from .errors import (
    InsufficientData,
    PoleAtBasepoint,
    ReconstructionFailed,
    RejectedInput,
    _qscale,
)

Q = Fraction

QLike = int | Fraction


def qstr(q: QLike) -> str:
    """Render a rational as the canonical "p/q" string (plain "p" for integers)."""
    q = Q(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _iconv(ia, ib, n: int) -> list[int]:
    """Coefficients 0..n of the product of two int sequences."""
    out = [0] * (n + 1)
    for i, x in enumerate(ia[: n + 1]):
        if x:
            for j, y in enumerate(ib[: n + 1 - i], i):
                if y:
                    out[j] += x * y
    return out


def _forward(rows, d: int, r) -> tuple[int, list[int]]:
    """Solution x of the lower triangular integer system rows . x = r / d,
    row k listing the coefficients of x_0 .. x_k (the diagonal last), as
    integer numerators over the lcm of the denominators of x.  The values
    found so far are kept over that common denominator, so each row costs
    one integer dot product and a single gcd."""
    den, nums = 1, []
    for row, rk in zip(rows, r):
        x = Fraction(rk * den - d * sum(map(mul, nums, row)), d * den * row[-1])
        if den % x.denominator:
            f = x.denominator // _int_gcd(den, x.denominator)
            nums = [v * f for v in nums]
            den *= f
        nums.append(x.numerator * (den // x.denominator))
    return den, nums


def _qdiv(da: int, ia, db: int, ib, n: int) -> tuple[int, list[int]]:
    """Coefficients 0..n of the quotient of A/da by B/db, for integer
    sequences A = ia and B = ib with B[0] != 0, as integer numerators over
    one denominator.  The quotient solves the Toeplitz system
    B q = A db / da, row k being B_k .. B_0."""
    ib = list(ib[: n + 1]) + [0] * (n + 1 - len(ib))
    ia = [x * db for x in ia[: n + 1]] + [0] * (n + 1 - len(ia))
    return _forward((ib[k::-1] for k in range(n + 1)), da, ia)


def _qconv(a, b, n: int) -> list[Fraction]:
    """Coefficients 0..n of the product of two Fraction sequences.

    Each operand is scaled once to integer numerators over the lcm of its
    denominators (``_qscale``), so the convolution runs on plain ints and
    each output coefficient costs a single gcd (in the Fraction
    constructor) instead of one per partial product.
    """
    da, ia = _qscale(a[: n + 1])
    db, ib = _qscale(b[: n + 1])
    d = da * db
    return [Fraction(s, d) for s in _iconv(ia, ib, n)]


def _power(base, n: int):
    """base ** n for n >= 1 by square-and-multiply from the top bit: one
    squaring per lower bit and one product per lower set bit, none of them
    by one and no squaring past the last bit."""
    out = base
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are stored by increasing degree with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple and the
    sentinel degree -1.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [x if type(x) is Fraction else Q(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def leading(self) -> Fraction:
        if not self.c:
            raise RejectedInput("zero polynomial has no leading coefficient")
        return self.c[-1]

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([x * other for x in self.c])
        other = _as_poly(other)
        if not self.c or not other.c:
            return Poly(())
        return Poly(_qconv(self.c, other.c, len(self.c) + len(other.c) - 2))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise RejectedInput("negative polynomial power")
        return _power(self, n) if n else Poly.one()

    def divmod(self, other: "Poly"):
        other = _as_poly(other)
        if other.is_zero():
            raise RejectedInput("polynomial division by zero")
        rem = list(self.c)
        dq = len(rem) - len(other.c)
        if dq < 0:
            return Poly(()), self
        quot = [Q(0)] * (dq + 1)
        lead = other.c[-1]
        for k in range(dq, -1, -1):
            top = rem[k + len(other.c) - 1]
            if top:
                f = top / lead
                quot[k] = f
                for j, b in enumerate(other.c):
                    rem[k + j] -= f * b
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.c[-1]
        return Poly([x / lead for x in self.c])

    def eval(self, x: QLike) -> Fraction:
        acc = Q(0)
        for a in reversed(self.c):
            acc = acc * x + a
        return acc

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        return isinstance(other, Poly) and self.c == other.c


def _as_poly(p) -> Poly:
    if isinstance(p, Poly):
        return p
    if isinstance(p, (int, Fraction)):
        return Poly((p,))
    raise RejectedInput("cannot coerce %r to Poly" % (p,))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm (degrees here are small)."""
    a, b = Poly(a.c), Poly(b.c)
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


# ---------------------------------------------------------------------------
# truncated power series over Q
# ---------------------------------------------------------------------------

class Series:
    """Truncated power series sum_{i<=trunc} c[i] * var^i with exact coefficients.

    The coefficients are held as integer numerators ``num`` over one positive
    denominator ``den``, kept unreduced: sums, scalar and series products,
    derivatives and truncations run on the integers, and ``c`` is the
    Fraction read.  Binary operations narrow to the minimum truncation of
    the operands and require matching variable tags.
    """

    __slots__ = ("var", "den", "num")

    def __init__(self, var: str, coeffs, trunc: int | None = None):
        c = [x if isinstance(x, (int, Fraction)) else Q(x) for x in coeffs]
        if trunc is None:
            trunc = len(c) - 1
        if trunc < 0:
            raise RejectedInput("series truncation must be >= 0")
        self.var = var
        self.den, self.num = _qscale(c[: trunc + 1])
        self.num += [0] * (trunc + 1 - len(self.num))

    @classmethod
    def _of(cls, var: str, den: int, num: list[int]) -> "Series":
        out = object.__new__(cls)
        out.var, out.den, out.num = var, den, num
        return out

    def _like(self, den: int, num: list[int]) -> "Series":
        """A series of this kind and grading with coefficients num / den."""
        return self._of(self.var, den, num)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def one(var: str, trunc: int) -> "Series":
        return Series(var, (1,), trunc)

    @staticmethod
    def x(var: str, trunc: int) -> "Series":
        return Series(var, (0, 1), trunc)

    @staticmethod
    def const(var: str, q: QLike, trunc: int) -> "Series":
        return Series(var, (q,), trunc)

    # -- helpers -------------------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self.num) - 1

    @property
    def c(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.num[i], self.den) if 0 <= i < len(self.num) else Q(0)

    def truncate(self, T: int) -> "Series":
        if T > self.trunc:
            raise RejectedInput("cannot extend truncation from %d to %d" % (self.trunc, T))
        return self._like(self.den, self.num[: T + 1])

    def is_zero(self) -> bool:
        return not any(self.num)

    def _check(self, other, weighted: bool) -> None:
        """Raise unless other is a series of this kind in the same variable;
        ``weighted`` asks a graded series for the same w-weight too."""
        if type(other) is not type(self):
            raise RejectedInput("cannot coerce %r to %s" % (other, type(self).__name__))
        if other.var != self.var:
            raise RejectedInput("series variable mismatch: %s vs %s" % (self.var, other.var))

    # -- arithmetic ------------------------------------------------------------

    @staticmethod
    def combination(terms) -> "Series":
        """The sum of q * s over the (q, s) terms, q rational, as one integer
        linear combination over the lcm of the denominators, at the shortest
        truncation.  The nonzero terms must share their grading; a zero term
        carries none."""
        n = min(len(s.num) for _, s in terms)
        live = [(q, s) for q, s in terms if q and any(s.num)]
        lead = live[0][1] if live else terms[0][1]
        for q, s in terms:
            lead._check(s, weighted=bool(q) and any(s.num))
        den = _int_lcm(*(q.denominator * s.den for q, s in live))
        acc = [0] * n
        for q, s in live:
            f = q.numerator * (den // (q.denominator * s.den))
            acc = list(map(add, acc, map(f.__mul__, s.num[:n])))
        return lead._like(den, acc)

    def _summand(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series.const(self.var, other, self.trunc)
        return other

    def __add__(self, other):
        return Series.combination([(1, self), (1, self._summand(other))])

    __radd__ = __add__

    def __neg__(self):
        return self._like(self.den, [-x for x in self.num])

    def __sub__(self, other):
        return Series.combination([(1, self), (-1, self._summand(other))])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._like(self.den * other.denominator, [x * other.numerator for x in self.num])
        self._check(other, weighted=False)
        n = min(len(self.num), len(other.num))
        return self._like(self.den * other.den, _iconv(self.num, other.num, n - 1))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise RejectedInput("negative series power; divide instead")
        return _power(self, n) if n else self._like(1, [1] + [0] * self.trunc)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise RejectedInput("series division by zero scalar")
            return self * (Q(1) / other)
        if isinstance(other, GradedSeries):
            # the quotient would keep the dividend's weight
            raise RejectedInput("graded series divide only by scalars")
        self._check(other, weighted=False)
        if not other.num[0]:
            raise RejectedInput("series division by a non-unit (zero constant term)")
        n = min(len(self.num), len(other.num))
        return self._like(*_qdiv(self.den, self.num, other.den, other.num, n - 1))

    def derivative(self) -> "Series":
        return self._like(self.den, [i * x for i, x in enumerate(self.num[1:], 1)] or [0])

    def integrate(self) -> "Series":
        out = [Q(0)] + [Fraction(x, self.den * (i + 1)) for i, x in enumerate(self.num)]
        return Series(self.var, out)

    def __eq__(self, other):
        return type(other) is type(self) and self.var == other.var and self.c == other.c

    def __repr__(self):
        terms = ["%s*%s^%d" % (qstr(a), self.var, i) for i, a in enumerate(self.c) if a]
        return "Series[%s;T=%d](%s)" % (self.var, self.trunc, " + ".join(terms) or "0")


def series_log(s: Series) -> Series:
    """Formal log of a unit series with constant term exactly 1.

    Computed as the termwise integral of s'/s, which keeps every coefficient
    rational and costs one series division.
    """
    if s.coeff(0) != 1:
        raise RejectedInput("series_log requires constant term exactly 1")
    if s.trunc == 0:
        return Series(s.var, (), 0)
    return (s.derivative() / s.truncate(s.trunc - 1)).integrate().truncate(s.trunc)


# ---------------------------------------------------------------------------
# reduced rational functions
# ---------------------------------------------------------------------------

class RatFn:
    """Reduced rational function num / den_base**den_pow in one variable.

    den_base is monic and shares no factor with num (when den_pow > 0), and
    zero is 0 / 1, so every value has one printed form.  General
    denominators use den_pow = 1.  The power form is what rational
    reconstruction produces and keeps pole-order queries O(1).
    """

    __slots__ = ("num", "den_base", "den_pow")

    def __init__(self, num: Poly, den_base: Poly, den_pow: int = 1):
        if den_base.is_zero():
            raise RejectedInput("zero denominator")
        if den_pow < 0:
            raise RejectedInput("negative denominator power")
        if den_base.degree == 0 or den_pow == 0 or num.is_zero():
            num = num * (Q(1) / (den_base.leading() ** den_pow))
            den_base, den_pow = Poly.one(), 0
        else:
            lead = den_base.leading()
            if lead != 1:
                den_base = den_base.monic()
                num = num * (Q(1) / (lead ** den_pow))
            # cancel full powers of the base first (cheap, common case); a
            # linear base is irreducible, so what is left is already coprime
            while den_pow > 0:
                quo, rem = num.divmod(den_base)
                if rem.is_zero():
                    num, den_pow = quo, den_pow - 1
                else:
                    break
            if den_pow > 0 and den_base.degree > 1:
                g = poly_gcd(num, den_base ** den_pow)
                if g.degree > 0:
                    num = num // g
                    den = (den_base ** den_pow) // g
                    den_base, den_pow = den.monic(), 1
                    num = num * (Q(1) / den.leading())
            if den_pow == 0:
                den_base = Poly.one()
        self.num = num
        self.den_base = den_base
        self.den_pow = den_pow

    @staticmethod
    def _of(num: Poly, den_base: Poly, den_pow: int) -> "RatFn":
        """A record whose parts are already in the reduced form above."""
        out = object.__new__(RatFn)
        out.num, out.den_base, out.den_pow = num, den_base, den_pow
        return out


# ---------------------------------------------------------------------------
# Laurent polynomials in D = nu - (nu-1) z
# ---------------------------------------------------------------------------

class DLaurent:
    """Laurent polynomial sum_i c[i] * D^(lo+i) in D = nu - (nu-1) z.

    This is the ring of the genus coefficients: their only pole sits at the
    zero of D, and z = (nu - D)/(nu - 1) keeps every polynomial in z inside
    it, so sums, products and d/dz need no polynomial gcd.  The coefficients
    are held as integer numerators ``num`` over one positive denominator
    ``den``, reduced so that gcd(den, *num) == 1, with both ends of ``num``
    nonzero; zero is the empty tuple at lo = 0 over 1, so every value has
    one representation.  Sums scale to the lcm of the denominators, products
    are one integer convolution (``_iconv``), and d/dz and the quotient by
    z run on the integers; ``coeff`` and ``pole_coeffs`` read Fractions.
    """

    __slots__ = ("nu", "lo", "den", "num")

    def __init__(self, nu: int, lo: int, coeffs):
        self._set(nu, lo, *_qscale([x if type(x) is Fraction else Q(x) for x in coeffs]))

    def _set(self, nu: int, lo: int, den: int, num) -> "DLaurent":
        """Store num / den at D^lo, stripped of zero ends and reduced."""
        start, end = 0, len(num)
        while start < end and not num[start]:
            start += 1
        while end > start and not num[end - 1]:
            end -= 1
        num = num[start:end]
        g = _int_gcd(den, *num)
        if den < 0:
            g = -g
        self.nu = nu
        self.lo = lo + start if num else 0
        self.den = den // g
        self.num = tuple(x // g for x in num) if g != 1 else tuple(num)
        return self

    @staticmethod
    def of_ints(nu: int, lo: int, den: int, num) -> "DLaurent":
        """sum_i num[i]/den D^(lo+i) for integers num and a nonzero den."""
        return object.__new__(DLaurent)._set(nu, lo, den, num)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(nu: int, q: QLike) -> "DLaurent":
        return DLaurent.of_ints(nu, 0, q.denominator, (q.numerator,))

    @staticmethod
    def z(nu: int) -> "DLaurent":
        """The variable itself, z = nu/(nu-1) - D/(nu-1)."""
        return DLaurent.of_ints(nu, 0, nu - 1, (nu, -1))

    def to_ratfn(self) -> RatFn:
        """The same function as a reduced RatFn in z.  One Taylor shift of
        the integer numerators: self D^P is a polynomial in
        D = nu - (nu-1) z, and D^P is (1-nu)^P (z - nu/(nu-1))^P.  The
        record is reduced as built: with lo < 0, self D^P has the nonzero
        constant term num[0] in D, so D does not divide it."""
        q = self.nu - 1
        P = max(0, -self.lo)
        scale = Q(1, self.den * (-q) ** P)
        num = _taylor_shift([0] * (self.lo + P) + list(self.num), Q(self.nu), -q, scale)
        return RatFn._of(Poly(num), Poly([Q(-self.nu, q), 1]) if P else Poly.one(), P)

    # -- structure -------------------------------------------------------------

    def coeff(self, k: int) -> Fraction:
        """Coefficient of D^k."""
        i = k - self.lo
        return Fraction(self.num[i], self.den) if 0 <= i < len(self.num) else Q(0)

    def pole_nums(self) -> list[int]:
        """Numerators over ``den`` of D^0, D^-1, ..., D^-P by pole order 0..P."""
        if self.lo + len(self.num) > 1:
            raise RejectedInput("positive powers of D have no pole-order form")
        out = [0] * (max(0, -self.lo) + 1)
        for i, x in enumerate(self.num):
            out[-self.lo - i] = x
        return out

    def pole_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of D^0, D^-1, ..., D^-P by pole order 0..P."""
        return tuple(Fraction(x, self.den) for x in self.pole_nums())

    # -- arithmetic --------------------------------------------------------------

    def _ring(self, other) -> "DLaurent":
        if isinstance(other, (int, Fraction)):
            return DLaurent.const(self.nu, other)
        if not isinstance(other, DLaurent):
            raise RejectedInput("cannot coerce %r to DLaurent" % (other,))
        if other.nu != self.nu:
            raise RejectedInput("valence mismatch: %d vs %d" % (self.nu, other.nu))
        return other

    @staticmethod
    def combination(nu: int, terms) -> "DLaurent":
        """The sum of q * x over the (q, x) terms, q rational and x in the
        ring of valence nu, as one integer linear combination over the lcm
        of the denominators, reduced once."""
        live = [(q, x) for q, x in terms if q and x.num]
        den = _int_lcm(*(q.denominator * x.den for q, x in live))
        lo = min((x.lo for _, x in live), default=0)
        acc = [0] * (max((x.lo + len(x.num) for _, x in live), default=0) - lo)
        for q, x in live:
            f = q.numerator * (den // (q.denominator * x.den))
            i = x.lo - lo
            j = i + len(x.num)
            acc[i:j] = map(add, acc[i:j], map(f.__mul__, x.num))
        return DLaurent.of_ints(nu, lo, den, acc)

    def __add__(self, other):
        return DLaurent.combination(self.nu, [(1, self), (1, self._ring(other))])

    def __neg__(self):
        return DLaurent.of_ints(self.nu, self.lo, self.den, [-x for x in self.num])

    def __sub__(self, other):
        return DLaurent.combination(self.nu, [(1, self), (-1, self._ring(other))])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = [x * other.numerator for x in self.num]
            return DLaurent.of_ints(self.nu, self.lo, self.den * other.denominator, num)
        other = self._ring(other)
        num = _iconv(self.num, other.num, len(self.num) + len(other.num) - 2)
        return DLaurent.of_ints(self.nu, self.lo + other.lo, self.den * other.den, num)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise RejectedInput("negative DLaurent power")
        return _power(self, n) if n else DLaurent.const(self.nu, 1)

    def dz(self) -> "DLaurent":
        """d/dz = -(nu-1) d/dD."""
        s = 1 - self.nu
        num = [s * (self.lo + i) * x for i, x in enumerate(self.num)]
        return DLaurent.of_ints(self.nu, self.lo - 1, self.den, num)

    def div_z(self, k: int = 1) -> "DLaurent":
        """Exact quotient by z^k; raises RejectedInput when z^k does not
        divide.  z = (nu - D)/(nu - 1) is a unit times D - nu, so each step
        is one synthetic division by D - nu with a zero remainder."""
        nu = self.nu
        num = self.num
        for _ in range(k):
            # Horner at D = nu from the top, b_i = c_i + nu b_(i+1): the
            # quotient by D - nu is b_1, b_2, ... and the remainder b_0
            b = [0] * (len(num) + 1)
            for i in range(len(num) - 1, -1, -1):
                b[i] = num[i] + nu * b[i + 1]
            if b[0]:
                raise RejectedInput("z does not divide this Laurent polynomial")
            num = b[1:-1]
        # f / z = -(nu-1) f / (D - nu)
        return DLaurent.of_ints(nu, self.lo, self.den, [(1 - nu) ** k * x for x in num])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DLaurent.const(self.nu, other)
        if not isinstance(other, DLaurent):
            return NotImplemented
        return (self.nu, self.lo, self.den, self.num) == (other.nu, other.lo, other.den, other.num)


# ---------------------------------------------------------------------------
# exact linear algebra (fraction-free elimination)
# ---------------------------------------------------------------------------

def solve_linear(rows, rhs):
    """Solve an (over)determined exact linear system.

    rows: list of coefficient lists (each length n), rhs: list of values.
    Returns the unique solution as a list of Fractions.  Raises
    InsufficientData when the system is underdetermined and
    ReconstructionFailed when it is inconsistent.

    Rows are scaled to integers and eliminated fraction-free (Bareiss) to
    keep intermediate entries from exploding; the rows beyond the rank are
    exact consistency checks.
    """
    m = len(rows)
    if m == 0:
        raise InsufficientData("no equations")
    n = len(rows[0])
    aug = [_qscale([Q(x) for x in row] + [Q(b)])[1] for row, b in zip(rows, rhs)]
    prev, r = 1, 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(r + 1, m):
            for j in range(col + 1, n + 1):
                aug[i][j] = (aug[r][col] * aug[i][j] - aug[i][col] * aug[r][j]) // prev
            aug[i][col] = 0
        prev = aug[r][col]
        r += 1
    if any(row[n] for row in aug[r:]):
        raise ReconstructionFailed("inconsistent linear system")
    if r < n:
        raise InsufficientData("underdetermined system: rank %d < %d unknowns" % (r, n))
    # full rank: the pivot of row k sits in column k
    sol = [Q(0)] * n
    for k in range(n - 1, -1, -1):
        acc = Q(aug[k][n])
        for j in range(k + 1, n):
            acc -= aug[k][j] * sol[j]
        sol[k] = acc / aug[k][k]
    return sol


# ---------------------------------------------------------------------------
# rational reconstruction and read-back in powers of y = z - z(0)
# ---------------------------------------------------------------------------

def _taylor_shift(coeffs, a: Fraction, b: QLike = 1, s: QLike = 1) -> list[Fraction]:
    """Coefficients of s p(a + b x) from those of p(x), exactly.

    With a = p/q and n = deg p, q^n p(x + a) is an integer polynomial in
    w = q x shifted by the integer p, so the classical O(n^2) shift runs on
    plain ints; b and s only rescale its coefficients, so each output
    coefficient costs a single gcd.
    """
    d, acc = _qscale(coeffs)
    n, p, q, b, s = len(acc) - 1, a.numerator, a.denominator, Q(b), Q(s)
    acc = [c * q ** (n - i) for i, c in enumerate(acc)]
    for k in range(n):
        for j in range(n - 1, k - 1, -1):
            acc[j] += p * acc[j + 1]
    den = s.denominator * d * q ** max(n, 0)
    return [Fraction(s.numerator * c * (q * b.numerator) ** j, den * b.denominator ** j) for j, c in enumerate(acc)]


class _Basis:
    """The columns y^0 .. y^T of one substitution series z(x) truncated at
    T, with y = z - z(0), from its coefficients z_0 .. z_T, given as integer
    numerators over one denominator d.

    ``rows[k]`` lists the x^k coefficients of y^0 .. y^k, column i in
    integers over d^i (y^i = column_i / scales[i]).  Because y^i starts at
    x^i with the nonzero coefficient z_1^i, the matrix is lower triangular:
    a series goes to its y-coefficients by forward substitution (``to_y``)
    and back by one integer dot product per order (``from_y``).
    """

    __slots__ = ("z0", "rows", "scales")

    def __init__(self, d: int, nums: tuple[int, ...]):
        T = len(nums) - 1
        self.z0 = Fraction(nums[0], d)
        y = (0,) + nums[1:]
        col = [1] + [0] * T
        self.rows = [[] for _ in range(T + 1)]
        self.scales = []
        for i in range(T + 1):
            if i:
                col = _iconv(col, y, T)
            for k in range(i, T + 1):
                self.rows[k].append(col[k])
            self.scales.append(d ** i)

    def to_y(self, s: Series) -> list[Fraction]:
        """y-coefficients 0..T of the series s, by forward substitution down
        the triangle."""
        d, ys = _forward(self.rows, s.den, s.num)
        return [Fraction(y * scale, d) for y, scale in zip(ys, self.scales)]

    def from_y(self, d: int, b) -> tuple[int, list[int]]:
        """x-coefficients 0..T of sum_i b[i]/d y^i, for integers b, as
        integer numerators over one denominator."""
        top = self.scales[-1]
        ints = [x * (top // scale) for x, scale in zip(b, self.scales)]
        return d * top, [sum(map(mul, ints, row)) for row in self.rows]


# a genus table solves and reads back every genus over one z0(u), so the
# bases of the last few substitution series are kept
_basis = lru_cache(maxsize=4)(_Basis)


def series_to_ratfn(
    s: Series,
    z: Series,
    base: Poly,
    max_num_deg: int,
    max_pole_ord: int,
) -> RatFn:
    """Reconstruct R = num / base**p with p <= max_pole_ord such that
    R(z(x)) agrees with s at every order.

    The equations num(z(x)) = s(x) base(z(x))^p hold at every order up to
    s.trunc.  They are solved in powers of y = z - z(0): the column y^i
    starts at x^i, so the system is lower triangular and one forward
    substitution takes s to its y-coefficients.  There base^p is a
    polynomial, the y-coefficients 0 .. max_num_deg of s base^p are the
    numerator's, and the orders beyond are surplus consistency checks that
    must vanish.  A mismatch raises ReconstructionFailed (a wrong ansatz);
    no surplus order at all raises InsufficientData: an unchecked
    reconstruction never ships.  The exact binomial shift y = z - z(0)
    returns the numerator in powers of z.
    """
    if z.coeff(1) == 0:
        raise RejectedInput("substitution series is not a change of variable at order 1")
    T = min(s.trunc, z.trunc)
    n = max_num_deg
    if T <= n:
        raise InsufficientData(
            "%d orders for %d unknowns leave no surplus order to check the reconstruction"
            % (T + 1, n + 1)
        )
    basis = _basis(z.den, tuple(z.num[: T + 1]))
    den_y = (Poly(_taylor_shift(base.c, basis.z0)) ** max_pole_ord).c
    num = _qconv(basis.to_y(s.truncate(T)), den_y, T)
    if any(num[n + 1 :]):
        raise ReconstructionFailed("a surplus order of the reconstruction does not vanish")
    return RatFn(Poly(_taylor_shift(num[: n + 1], -basis.z0)), base, max_pole_ord)


def ratfn_to_series(r: RatFn, z: Series) -> Series:
    """Expand r(z(x)) as a series in x, exactly, to the order z.trunc.

    In powers of y = z - z(0), r is the shifted numerator over the shifted
    base^p, one integer series quotient; the cached columns y^i take it
    back to x."""
    T = z.trunc
    basis = _basis(z.den, tuple(z.num))
    if r.den_base.eval(basis.z0) ** r.den_pow == 0:
        raise PoleAtBasepoint("denominator vanishes at the expansion basepoint")
    num = _qscale(_taylor_shift(r.num.c, basis.z0)[: T + 1])
    if r.den_pow:
        den = (Poly(_taylor_shift(r.den_base.c, basis.z0)) ** r.den_pow).c
        num = _qdiv(*num, *_qscale(den[: T + 1]), T)
    return Series._of(z.var, *basis.from_y(*num))


# ---------------------------------------------------------------------------
# graded series: truncated series whose x^j coefficient is a single monomial
# c_j * w^(e_j) with e_j = (base2 + j*step2)/2
# ---------------------------------------------------------------------------

class GradedSeries(Series):
    """Self-similar series in one time variable with slaved monomial powers
    of a spatial variable w.

    A value represents sum_j c[j] * x^j * w^((base2 + j*step2)/2); exponents
    are stored doubled so half-integer powers (odd-valence scalings) stay in
    integer arithmetic.  Multiplication adds base2, spatial differentiation
    lowers it by 2, and every equation assembled from self-similar data stays
    inside the class.  Only the weight sets it apart from a ``Series``: sums
    need one weight among their nonzero terms, and zero carries none.  It
    divides only by a scalar: nothing here divides two graded series.
    """

    __slots__ = ("base2", "step2")

    def __init__(self, var: str, coeffs, base2: int, step2: int, trunc: int | None = None):
        super().__init__(var, coeffs, trunc)
        self.base2 = base2
        self.step2 = step2

    def _like(self, den: int, num: list[int], base2: int | None = None) -> "GradedSeries":
        out = self._of(self.var, den, num)
        out.base2 = self.base2 if base2 is None else base2
        out.step2 = self.step2
        return out

    @staticmethod
    def from_series(s: Series, base2: int, step2: int) -> "GradedSeries":
        out = GradedSeries._of(s.var, s.den, s.num)
        out.base2, out.step2 = base2, step2
        return out

    @staticmethod
    def const(var: str, q: QLike, base2: int, step2: int, trunc: int) -> "GradedSeries":
        return GradedSeries(var, (q,), base2, step2, trunc)

    def _check(self, other, weighted: bool) -> None:
        super()._check(other, weighted)
        if self.step2 != other.step2:
            raise RejectedInput("graded series grading mismatch")
        if weighted and self.base2 != other.base2:
            raise RejectedInput(
                "graded series weight mismatch: base2 %d vs %d" % (self.base2, other.base2)
            )

    def __mul__(self, other):
        out = super().__mul__(other)
        if isinstance(other, GradedSeries):
            out.base2 += other.base2
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return super().__pow__(n) if n else self._like(1, [1] + [0] * self.trunc, 0)

    def xmul(self, k: int = 1):
        """Multiply by x^k (the time variable alone, no w attached)."""
        n = len(self.num)
        return self._like(self.den, [0] * min(k, n) + self.num[: max(n - k, 0)], self.base2 - k * self.step2)

    def dw(self):
        """Spatial derivative: multiplies c_j by the exponent (base2+j*step2)/2,
        an integer at even weights, so only half-integer weights double den."""
        b, step, den = self.base2, self.step2, self.den
        if b % 2 or step % 2:
            den *= 2
        else:
            b, step = b // 2, step // 2
        return self._like(den, [x * (b + j * step) for j, x in enumerate(self.num)], self.base2 - 2)

    def dx(self):
        """Time derivative d/dx."""
        out = [j * x for j, x in enumerate(self.num[1:], 1)] or [0]
        return self._like(self.den, out, self.base2 + self.step2)

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return self.var == other.var and self.step2 == other.step2
        return self.base2 == other.base2 and self.step2 == other.step2 and super().__eq__(other)


# ---------------------------------------------------------------------------
# JSON encodings (the CLI interchange formats)
# ---------------------------------------------------------------------------

def series_to_json(s: Series) -> dict:
    return {"var": s.var, "trunc": s.trunc, "coeffs": [qstr(x) for x in s.c]}


def ratfn_to_json(r: RatFn) -> dict:
    return {
        "var": "z0",
        "num": [qstr(x) for x in r.num.c],
        "den_base": [qstr(x) for x in r.den_base.c],
        "den_pow": r.den_pow,
    }

