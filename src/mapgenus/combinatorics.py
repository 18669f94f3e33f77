"""The leading transport coefficient and the higher Catalan numbers, the
sparse polynomial algebra shared by every symbolic equation, and symbolic
entries of powers of the three-term recursion operator, walked one step at
a time.

Offset variables b2[k] are indexed by position relative to a generic
lattice site n, never by absolute position, so every generated equation is
manifestly shift-invariant.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import RejectedInput
from .exact_kernel import Q


# ---------------------------------------------------------------------------
# planar coefficients
# ---------------------------------------------------------------------------

def c_valence(nu: int) -> int:
    """Leading transport coefficient; both closed forms must agree."""
    a = 2 * nu * comb(2 * nu - 1, nu - 1)
    b = (nu + 1) * comb(2 * nu, nu + 1)
    if a != b:
        raise RejectedInput("closed forms for the leading coefficient disagree")
    return a


def higher_catalan(nu: int, j: int) -> Fraction:
    """j-th higher Catalan number; both closed forms must agree."""
    if j < 1:
        raise RejectedInput("higher Catalan index starts at 1")
    a = Q(comb(nu * j, j - 1), j)
    b = Q(comb(nu * j, j), (nu - 1) * j + 1)
    if a != b:
        raise RejectedInput("closed forms for the higher Catalan number disagree")
    return a


def painleve_a(g: int) -> Fraction:
    """a_g of the Painleve I solution u = x^(1/2) sum_g a_g x^(-5g/2) of
    u^2 - u''/6 = x: a_0 = 1 and 2 a_g = (1/6) e (e - 1) a_(g-1) -
    sum_(h=1..g-1) a_h a_(g-h) with e = 1/2 - 5 (g - 1)/2.  In the
    double-scaling limit (Brezin and Kazakov; Douglas and Shenker; Gross and
    Migdal, 1990) the D^-(5g-1) coefficient of z_g/z0 is -2 (2 nu)^(3g-1) a_g;
    this shares no code with the derivation of z_g."""
    if g < 0:
        raise RejectedInput("Painleve I coefficients start at g = 0")
    a = [Fraction(1)]
    for k in range(1, g + 1):
        e = Fraction(1, 2) - Fraction(5 * (k - 1), 2)
        a.append((e * (e - 1) / 6 * a[k - 1] - sum(a[h] * a[k - h] for h in range(1, k))) / 2)
    return a[g]


# ---------------------------------------------------------------------------
# sparse polynomials, and the lattice polynomials among them
# ---------------------------------------------------------------------------

class Terms:
    """Sparse polynomial: a dict from monomial key to nonzero Fraction.

    The constructor is where coefficients accumulate: from a dict or an
    iterable of (key, coefficient) pairs it adds repeated keys in one pass
    (first occurrence fixes the order), drops zero sums and normalises each
    survivor once; ``sum`` and every shared operation go through it.  A
    subclass whose polynomials meet plain numbers names the key of the
    constant monomial (``ONE``), which an int or Fraction operand of a sum
    or difference multiplies; one whose polynomials are multiplied together
    says how two keys multiply (``_key_mul``).
    """

    __slots__ = ("terms",)
    ONE: tuple

    def __init__(self, terms=()):
        acc: dict = {}
        for key, val in terms.items() if isinstance(terms, dict) else terms:
            acc[key] = acc[key] + val if key in acc else val
        self.terms: dict = {key: Q(val) for key, val in acc.items() if val}

    @classmethod
    def sum(cls, parts):
        return cls(pair for part in parts for pair in part.terms.items())

    def _lift(self, other) -> "Terms":
        return type(self)({self.ONE: other}) if isinstance(other, (int, Fraction)) else other

    def __add__(self, other):
        return type(self).sum((self, self._lift(other)))

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self)({k: v * other for k, v in self.terms.items()})
        return type(self)(
            (self._key_mul(k1, k2), v1 * v2)
            for k1, v1 in self.terms.items()
            for k2, v2 in other.terms.items()
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms


class LatticePolynomial(Terms):
    """Polynomial in offset variables b2[k] and the coupling t.

    Terms map (t_degree, sorted b2 offsets) -> Fraction.  Offsets are
    relative to a generic site, so shifting all offsets by a constant is an
    exact symmetry of every generated equation.
    """

    __slots__ = ()

    @staticmethod
    def _key_mul(k1, k2):
        return k1[0] + k2[0], tuple(sorted(k1[1] + k2[1]))

    def times_t(self) -> "LatticePolynomial":
        return LatticePolynomial({(t + 1, b): v for (t, b), v in self.terms.items()})

    def shift(self, k: int) -> "LatticePolynomial":
        """b2[i] -> b2[i+k]."""
        return LatticePolynomial({(t, tuple(x + k for x in b)): v for (t, b), v in self.terms.items()})


def operator_power_entry(j: int, row_offset: int, col_offset: int) -> LatticePolynomial:
    """Entry (n+row_offset, n+col_offset) of the j-th power of the recursion
    operator of an even potential, as a lattice polynomial.

    Each walk contributes the product of its step weights: an upstep weighs
    1 and a downstep from relative level k weighs b2[k].  The walks are
    counted, not listed: a state is a level with the sorted offsets of the
    downsteps taken so far, equal states merge after every step, and a
    state that can no longer reach col_offset is dropped.  Stepping up
    before down from each state in turn keeps every state, and so every
    term, at the place of the first walk (upsteps first) that reaches it.
    """
    if j < 0:
        raise RejectedInput("path length must be >= 0")
    states = {(row_offset, ()): 1}
    for remaining in range(j - 1, -1, -1):
        after: dict = {}
        for (lvl, b_off), count in states.items():
            for state in ((lvl + 1, b_off), (lvl - 1, tuple(sorted(b_off + (lvl,))))):
                if abs(col_offset - state[0]) <= remaining:
                    after[state] = after.get(state, 0) + count
        states = after
    return LatticePolynomial({(0, b_off): count for (lvl, b_off), count in states.items() if lvl == col_offset})


def lattice_equation_exprs(nu: int, kind: str) -> LatticePolynomial:
    """Right-hand side of the difference-string (kind="string") or Toda
    (kind="toda") lattice equation at a generic site, for valence 2*nu.

    string:  (L + t L^(2nu-1))_{n+1,n} - (L + t L^(2nu-1))_{n,n-1}
    toda:    (L^(2nu))_{n+1,n-1} - (L^(2nu))_{n,n-2}
    """
    if nu < 1:
        raise RejectedInput("valence parameter must be >= 1")
    if kind == "string":
        top = operator_power_entry(1, 1, 0) + operator_power_entry(2 * nu - 1, 1, 0).times_t()
        return top - top.shift(-1)
    if kind == "toda":
        top = operator_power_entry(2 * nu, 1, -1)
        return top - top.shift(-1)
    raise RejectedInput("kind must be 'string' or 'toda'")
