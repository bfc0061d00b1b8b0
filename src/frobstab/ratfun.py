"""The rational function field F_p(u, v, ...) in designated field variables.

A RationalFunction is a normalized pair of polynomials: gcd(num, den) = 1
and the denominator is monic under the grevlex leading term, so equal
values have identical representations.  The gcd is computed by a
primitive polynomial remainder sequence: pseudo-division in the main
variable with univariate-style content extraction of the coefficients at
every step (no subresultant bookkeeping).
"""

from .errors import ContextMismatchError, InputError
from .field import PrimeField
from .poly import GREVLEX, PolyRing


def _deg_in(f, i):
    if f.is_zero():
        return -1
    return max(e[i] for _c, e in f.terms)


def _coeff_of_power(f, i, d):
    """Coefficient of var_i^d in f, as a polynomial with var_i removed."""
    ring = f.ring
    picked = {}
    for c, e in f.terms:
        if e[i] == d:
            key = tuple(0 if j == i else x for j, x in enumerate(e))
            picked[key] = (picked.get(key, 0) + c) % ring.p
    return ring.from_dict(picked)


def _divides_exactly(f, g):
    """f / g; raises when the division is not exact."""
    from . import _kernel
    from .poly import Polynomial

    ring = f.ring
    q, r = _kernel.divmod_terms(f.terms, [g.terms], ring.p, ring._wm, True)
    if r:
        raise AssertionError("expected exact division in gcd routine")
    return Polynomial(ring, q[0])


def _prem(f, g, i):
    """Pseudo-remainder of f by g in the variable with index i."""
    ring = f.ring
    dg = _deg_in(g, i)
    lc_g = _coeff_of_power(g, i, dg)
    r = f
    while not r.is_zero() and _deg_in(r, i) >= dg:
        dr = _deg_in(r, i)
        lc_r = _coeff_of_power(r, i, dr)
        shift = ring.monomial(tuple(dr - dg if j == i else 0 for j in range(ring.nvars)))
        r = lc_g * r - lc_r * shift * g
    return r


def poly_gcd(f, g):
    """Monic gcd of two polynomials over F_p, any number of variables."""
    ring = f.ring
    if f.is_zero():
        return g.monic() if not g.is_zero() else g
    if g.is_zero():
        return f.monic()
    main = None
    for i in range(ring.nvars):
        if _deg_in(f, i) > 0 or _deg_in(g, i) > 0:
            main = i
            break
    if main is None:
        return ring.one()  # both are nonzero constants
    cf = _content(f, main)
    cg = _content(g, main)
    ff = _divides_exactly(f, cf)
    gg = _divides_exactly(g, cg)
    if _deg_in(ff, main) < _deg_in(gg, main):
        ff, gg = gg, ff
    while not gg.is_zero():
        r = _prem(ff, gg, main)
        ff = gg
        if r.is_zero():
            gg = ring.zero()
        else:
            gg = _divides_exactly(r, _content(r, main))
    return (poly_gcd(cf, cg) * ff).monic()


def _content(f, i):
    """gcd of the var_i-coefficients of f (a polynomial without var_i)."""
    ring = f.ring
    acc = ring.zero()
    for d in range(_deg_in(f, i) + 1):
        c = _coeff_of_power(f, i, d)
        if not c.is_zero():
            acc = poly_gcd(acc, c)
            if acc == ring.one():
                break
    return acc


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
                    num = _divides_exactly(num, g)
                    den = _divides_exactly(den, g)
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
            base = base * base
            n >>= 1
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
