"""Exact arithmetic for prime fields F_p and simple extensions base[y]/(f).

Elements of F_p are plain ints in [0, p).  `FiniteExtension` computes in
base[y]/(f) for a monic f over any field object: elements are tuples of
coordinates in the power basis 1, y, ..., y^(n-1).  `ExtField` is the
field F_{p^n}, a FiniteExtension of F_p by an irreducible f; the
imperfect-field demo uses a FiniteExtension of the rational function
field of :mod:`frobstab.ratfun`.  The fields expose one protocol (zero,
one, add, sub, mul, neg, inv, frobenius, ...) so the linear algebra in
:mod:`frobstab.linalg` works over each of them.

p is limited to 31 bits so that coefficient products fit in 64-bit
machine integers, which is what the compiled kernels assume.
"""

from itertools import product

from .errors import InputError

MAX_P = 2**31 - 1


def is_prime(n):
    """Deterministic primality test for n < 2^31 (trial division)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p for a verified prime p."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not isinstance(p, int) or p < 2 or p > MAX_P:
            raise InputError(f"characteristic must be an integer in [2, 2^31-1], got {p!r}")
        if not is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        self.p = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def element(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        return pow(a, n, self.p)

    def frobenius(self, a, e=1):
        # a^(p^e) = a in F_p by Fermat.
        return a % self.p

    def frobenius_inverse(self, a, e=1):
        return a % self.p

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


# ---------------------------------------------------------------------------
# univariate polynomials over a field object F, as coefficient lists, low
# degree first, with a nonzero last entry ([] is the zero polynomial).
# ---------------------------------------------------------------------------


def _trim(c, zero):
    while c and c[-1] == zero:
        c.pop()
    return c


def _urem(a, f, F):
    """The remainder of a by the monic f: each top term c*y^(d+n) becomes
    -c*y^d times the tail of f, whose zero coefficients are skipped."""
    n = len(f) - 1
    tail = [(i, c) for i, c in enumerate(f[:-1]) if c != F.zero]
    a = _trim(list(a), F.zero)
    while len(a) > n:
        top = a.pop()
        d = len(a) - n
        for i, c in tail:
            a[d + i] = F.sub(a[d + i], F.mul(top, c))
        _trim(a, F.zero)
    return a


def _ugcd(f, g, F):
    """The gcd of the monic f and g, monic."""
    while g:
        lead_inv = F.inv(g[-1])
        g = [F.mul(c, lead_inv) for c in g]
        f, g = g, _urem(f, g, F)
    return f


class FiniteExtension:
    """base[y]/(modulus) for a monic modulus over a field object.

    Elements are coordinate tuples in the power basis 1, y, ..., y^(n-1).
    The modulus need not be irreducible, so this is a ring: the imperfect
    demo's witness is a kernel computation and certifies non-reducedness
    either way, and `ExtField` adds what a field needs.
    """

    __slots__ = ("base", "degree", "modulus")

    def __init__(self, base, modulus):
        modulus = tuple(modulus)
        if len(modulus) < 2 or modulus[-1] != base.one:
            raise InputError("modulus must be monic of degree >= 1")
        self.base = base
        self.degree = len(modulus) - 1
        self.modulus = modulus

    @property
    def p(self):
        return self.base.p

    @property
    def zero(self):
        return (self.base.zero,) * self.degree

    @property
    def one(self):
        return (self.base.one,) + (self.base.zero,) * (self.degree - 1)

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise InputError("coordinate vector has the wrong length")
        # adding to the base's zero coerces a coordinate, mod p over F_p
        return self.add(self.zero, coords)

    def _reduce(self, coeffs):
        """The coordinates of the polynomial with these coefficients."""
        rem = _urem(coeffs, self.modulus, self.base)
        return tuple(rem) + (self.base.zero,) * (self.degree - len(rem))

    def y_power(self, k):
        """Coordinates of y^k, reduced against the monic modulus."""
        return self._reduce([self.base.zero] * k + [self.base.one])

    def add(self, a, b):
        return tuple(map(self.base.add, a, b))

    def sub(self, a, b):
        return tuple(map(self.base.sub, a, b))

    def neg(self, a):
        return tuple(map(self.base.neg, a))

    def scale(self, c, a):
        return tuple(self.base.mul(c, x) for x in a)

    def mul(self, a, b):
        base, zero = self.base, self.base.zero
        prod = [zero] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x != zero:
                for j, y in enumerate(b):
                    if y != zero:
                        prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        return self._reduce(prod)

    def pow(self, a, n):
        """a^n by square-and-multiply, with no squaring after the last bit."""
        result = None
        while n:
            if n & 1:
                result = a if result is None else self.mul(result, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return self.one if result is None else result

    def is_zero(self, a):
        return all(x == self.base.zero for x in a)


def _is_irreducible(R):
    # the modulus f of R = F_p[y]/(f), of degree n, is irreducible iff it
    # shares no factor with y^(p^k) - y for any k <= n/2: a reducible f
    # would have an irreducible factor of some degree k <= n/2, and every
    # such factor divides y^(p^k) - y
    y = power = R.y_power(1)
    for _ in range(R.degree // 2):
        power = R.pow(power, R.p)
        g = _trim(list(R.sub(power, y)), R.base.zero)
        if len(_ugcd(list(R.modulus), g, R.base)) != 1:
            return False
    return True


class ExtField(FiniteExtension):
    """The field F_{p^n} presented as F_p[y]/(modulus), modulus irreducible."""

    __slots__ = ()

    def __init__(self, base, modulus):
        if not isinstance(base, PrimeField):
            raise InputError("ExtField base must be a PrimeField")
        super().__init__(base, map(base.element, modulus))
        if not _is_irreducible(self):
            raise InputError("modulus is reducible over the base field")

    @classmethod
    def of_order(cls, p, n):
        """F_{p^n} with the lexicographically smallest monic irreducible modulus."""
        base = PrimeField(p)
        if n == 1:
            raise InputError("use PrimeField for n = 1")
        for tail in _counting_tuples(n, p):
            if _is_irreducible(FiniteExtension(base, tail + (1,))):
                return cls(base, tail + (1,))
        raise AssertionError("no irreducible modulus found")  # unreachable

    @property
    def order(self):
        return self.p**self.degree

    def from_base(self, a):
        return (a % self.p,) + (0,) * (self.degree - 1)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in extension field")
        return self.pow(a, self.order - 2)  # the unit group has order p^n - 1

    def frobenius(self, a, e=1):
        return self.pow(a, self.p**e)

    def frobenius_inverse(self, a, e=1):
        # x -> x^(p^e) has order dividing `degree` on F_{p^n}
        k = (-e) % self.degree
        return self.pow(a, self.p**k) if k else a

    def elements(self):
        return _counting_tuples(self.degree, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.modulus))

    def __repr__(self):
        return f"F_{self.p}^{self.degree}"


def _counting_tuples(length, radix):
    """All tuples in [0, radix)^length, counting order (first entry fastest)."""
    return (t[::-1] for t in product(range(radix), repeat=length))
