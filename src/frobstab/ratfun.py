"""The rational function field F_p(u, v, ...) in designated field variables.

A RationalFunction is a normalized pair of polynomials: gcd(num, den) = 1
and the denominator is monic under the grevlex leading term, so equal
values have identical representations.  The gcd comes from the Groebner
engine: F_p[u, v, ...] is a UFD, so (f) and (g) meet in the principal
ideal (lcm(f, g)), whose reduced basis is the monic lcm L, and
gcd(f, g) = f*g / L by one exact division.
"""

from .errors import ContextMismatchError, InputError
from .field import PrimeField
from .groebner import Ideal
from .poly import GREVLEX, PolyRing


def poly_gcd(f, g):
    """Monic gcd of two polynomials over F_p, any number of variables."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    ring = f.ring
    (lcm,) = Ideal(ring, [f]).intersect(Ideal(ring, [g])).groebner_basis()
    return (f * g).exact_quotient(lcm).monic()


class RationalFunction:
    """A normalized fraction of polynomials over F_p."""

    __slots__ = ("num", "den")

    def __init__(self, num, den, _normalized=False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.ring != den.ring:
            raise ContextMismatchError("numerator and denominator in different rings")
        if not _normalized:
            if num.is_zero():
                den = den.ring.one()
            else:
                g = poly_gcd(num, den)
                if g != num.ring.one():
                    num = num.exact_quotient(g)
                    den = den.exact_quotient(g)
            lc = den.lc()
            if lc != 1:
                inv = den.ring.field.inv(lc)
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @property
    def ring(self):
        return self.num.ring

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __add__(self, other):
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __pow__(self, n):
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        out = RationalFunction(self.ring.one(), self.ring.one(), _normalized=True)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def pth_root(self):
        """g with g^p = self, or None.

        Over F_p(u, v) a normalized fraction is a p-th power exactly when
        every exponent of the numerator and denominator is divisible by p;
        the coefficients are their own p-th roots by Fermat.
        """
        p = self.ring.p
        if self.is_zero():
            return RationalFunction(self.ring.zero(), self.ring.one(), _normalized=True)
        for poly in (self.num, self.den):
            for _c, e in poly.terms:
                if any(x % p for x in e):
                    return None
        num = _root_poly(self.num, p)
        den = _root_poly(self.den, p)
        return RationalFunction(num, den, _normalized=True)

    def __str__(self):
        if self.den == self.ring.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<{self}>"


def _root_poly(f, p):
    from .poly import Polynomial

    return Polynomial(f.ring, tuple((c, tuple(x // p for x in e)) for c, e in f.terms))


class RatFunField:
    """Field protocol wrapper around RationalFunction values."""

    def __init__(self, p, names=("u", "v")):
        self.ring = PolyRing(PrimeField(p), names, GREVLEX)
        self.p = p
        self.zero = RationalFunction(self.ring.zero(), self.ring.one(), _normalized=True)
        self.one = RationalFunction(self.ring.one(), self.ring.one(), _normalized=True)

    def from_poly(self, f):
        if f.ring != self.ring:
            raise ContextMismatchError("polynomial from a different ring")
        return RationalFunction(f, self.ring.one())

    def var(self, name):
        return self.from_poly(self.ring.var(name))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction(a.den, a.num)

    def __eq__(self, other):
        return isinstance(other, RatFunField) and other.ring == self.ring

    def __hash__(self):
        return hash(("RatFunField", self.ring))

    def __repr__(self):
        return f"F_{self.p}({','.join(self.ring.names)})"


def pth_power_test(f):
    """Spec-facing alias: p-th root of a rational function or None."""
    if not isinstance(f, RationalFunction):
        raise InputError("pth_power_test expects a RationalFunction")
    return f.pth_root()
