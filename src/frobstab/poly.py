"""Multivariate polynomials over F_p with monomial orders and a text grammar.

Monomials are plain exponent tuples.  A Polynomial holds a tuple of
(coefficient, monomial) terms, strictly descending under the ring's
monomial order; the empty tuple is zero.  Values are immutable and all
operations are pure functions, so polynomials can be shared freely.

Grammar accepted by ``PolyRing.parse``::

    expr   := ["-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" integer)?
    atom   := integer | var | "(" expr ")"

The leading sign and parenthesized exponent bases are convenience
extensions; the canonical printer emits only "+", vars and "var^int", so
print/parse round-trips stay inside the stricter grammar.
"""

from dataclasses import dataclass
from operator import add, le, mul, sub

from . import _kernel
from .errors import ContextMismatchError, InputError, ParseError, ResourceLimitError
from .field import PrimeField

# The compiled term kernel holds exponents and order keys in 64-bit
# integers.  The weights are positive and every other order row has
# entries 0 and +-1, so no key of a term below this weighted degree
# reaches it, and a sum of two keys stays inside 64 bits.
DEGREE_LIMIT = 1 << 62


def _check_degree(degree):
    """Raise ResourceLimitError for a term of weighted degree >= 2^62."""
    if degree >= DEGREE_LIMIT:
        # a bound, not the number: that can be past Python's int-to-str limit
        raise ResourceLimitError(
            f"a term of weighted degree 2^{degree.bit_length() - 1} or more reaches 2^62, "
            "past the 64-bit term kernel"
        )


@dataclass(frozen=True)
class MonomialOrder:
    """A total, multiplicative well-order on monomials.

    kind is one of "lex", "grevlex", "elim"; for "elim", ``block`` is the
    number of leading variables eliminated first (grevlex within each
    block); positive ``weights`` make "grevlex" weigh the degree.
    """

    kind: str
    block: int = 0
    weights: tuple = None

    def __post_init__(self):
        # a tuple, so that the order (and every ring and polynomial over it)
        # hashes whatever sequence the weights were given as
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))

    def weight_matrix(self, nvars):
        """Integer rows w with key(e) = (w_0 . e, w_1 . e, ...).

        Keys are additive in e and injective on exponent vectors, which
        the term kernels rely on.
        """
        if self.weights is not None and (
            self.kind != "grevlex" or len(self.weights) != nvars or min(self.weights) < 1
        ):
            raise InputError("weights need a grevlex order and one positive weight per variable")
        if self.kind == "lex":
            return tuple(_unit(nvars, i) for i in range(nvars))
        if self.kind == "grevlex":
            rows = _grevlex_rows(nvars, 0, nvars)
            return (self.weights or rows[0],) + rows[1:]
        if self.kind == "elim":
            k = self.block
            if not 0 < k < nvars:
                raise InputError("elimination block must be a proper prefix of the variables")
            return _grevlex_rows(nvars, 0, k) + _grevlex_rows(nvars, k, nvars)
        raise InputError(f"unknown order kind {self.kind!r}")

    def __str__(self):
        return f"elim({self.block})" if self.kind == "elim" else self.kind


_weight_rows = {}


def _order_rows(order, nvars):
    """The weight matrix of `order` on nvars variables and its sparse form,
    built once per process.

    The sparse form has one (i, w) per row: a row whose one nonzero entry
    is w at i, or (-1, row) for a row with more than one.
    """
    rows = _weight_rows.get((order, nvars))
    if rows is None:
        wm = order.weight_matrix(nvars)
        sparse = []
        for w in wm:
            nonzero = [(i, x) for i, x in enumerate(w) if x]
            sparse.append(nonzero[0] if len(nonzero) == 1 else (-1, w))
        rows = _weight_rows[order, nvars] = (wm, tuple(sparse))
    return rows


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def _grevlex_rows(n, lo, hi):
    rows = [tuple(1 if lo <= j < hi else 0 for j in range(n))]
    for i in range(hi - 1, lo - 1, -1):
        rows.append(tuple(-1 if j == i else 0 for j in range(n)))
    return tuple(rows)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elim_order(block):
    return MonomialOrder("elim", block)


# --- monomial helpers (exponent tuples) ------------------------------------


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_degree(a, weights=None):
    if weights is None:
        return sum(a)
    return sum(x * w for x, w in zip(a, weights))


class PolyRing:
    """A polynomial ring F_p[names] with a fixed monomial order."""

    __slots__ = ("field", "names", "order", "nvars", "_wm", "_rows", "_index", "_wdeg")

    def __init__(self, field, names, order=GREVLEX):
        if not isinstance(field, PrimeField):
            raise InputError("polynomial coefficients must live in a PrimeField")
        names = tuple(names)
        if len(set(names)) != len(names) or not names:
            raise InputError("variable names must be nonempty and distinct")
        self.field = field
        self.names = names
        self.order = order
        self.nvars = len(names)
        self._wm, self._rows = _order_rows(order, self.nvars)
        self._index = {n: i for i, n in enumerate(names)}
        weights = order.weights
        if weights is None or set(weights) == {1}:
            self._wdeg = sum
        else:
            self._wdeg = lambda e: sum(map(mul, weights, e))

    @property
    def p(self):
        return self.field.p

    def __eq__(self, other):
        if other is self:
            return True
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.names == self.names
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.order))

    def __repr__(self):
        return f"F_{self.p}[{','.join(self.names)}; {self.order}]"

    def key(self, mono):
        """The weight matrix times mono, one product per one-entry row."""
        return tuple([w * mono[i] if i >= 0 else sum(map(mul, w, mono)) for i, w in self._rows])

    # --- constructors -------------------------------------------------------

    def zero(self):
        return Polynomial(self, ())

    def const(self, c):
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, ((c, (0,) * self.nvars),))

    def one(self):
        return self.const(1)

    def var(self, name):
        try:
            i = self._index[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r}") from None
        return self.monomial(_unit(self.nvars, i))

    def gens(self):
        return [self.var(n) for n in self.names]

    def monomial(self, exps, coeff=1):
        coeff %= self.p
        exps = tuple(exps)
        if len(exps) != self.nvars or min(exps) < 0:
            raise InputError("bad exponent vector")
        _check_degree(self._wdeg(exps))
        if coeff == 0:
            return self.zero()
        return Polynomial(self, ((coeff, exps),))

    def from_dict(self, coeffs):
        """Polynomial from {monomial: coefficient}; reduces and sorts."""
        terms = []
        wdeg = self._wdeg
        for e, c in coeffs.items():
            e = tuple(e)
            if len(e) != self.nvars or min(e) < 0:
                raise InputError("bad exponent vector")
            _check_degree(wdeg(e))
            c %= self.p
            if c:
                terms.append((c, e))
        terms.sort(key=lambda t: self.key(t[1]), reverse=True)
        return Polynomial(self, tuple(terms))

    def parse(self, text):
        return _parse(self, text)

    # mapping polynomials between rings with compatible variables

    def from_other(self, f, position=None):
        """Re-home f into this ring.

        ``position`` maps each variable index of f's ring to an index
        here; identity names are matched when omitted.
        """
        if position is None:
            position = [self._index[n] for n in f.ring.names]
        terms = {}
        for c, e in f.terms:
            new = [0] * self.nvars
            for i, x in enumerate(e):
                if x:
                    if position[i] < 0:
                        raise InputError("variable not present in the target ring")
                    new[position[i]] = x
            terms[tuple(new)] = (terms.get(tuple(new), 0) + c) % self.p
        return self.from_dict(terms)


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # --- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def lt(self):
        """Leading (coefficient, monomial)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def lm(self):
        return self.lt()[1]

    def lc(self):
        return self.lt()[0]

    def degree(self):
        """Total degree; -1 for zero."""
        if not self.terms:
            return -1
        return max(sum(e) for _c, e in self.terms)

    def weighted_degree(self):
        """Top degree under the order's weights (all 1 when it has none); -1 for zero."""
        if not self.terms:
            return -1
        wdeg = self.ring._wdeg
        if self.ring.order.kind == "grevlex":
            return wdeg(self.terms[0][1])  # the order's first row is this degree
        return max(wdeg(e) for _c, e in self.terms)

    def homogeneous_degree(self, weights=None):
        """Common weighted degree of all terms, or None if inhomogeneous."""
        if not self.terms:
            return 0
        if weights is None:
            weights = (1,) * self.ring.nvars
        degs = {mono_degree(e, weights) for _c, e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def monic(self):
        if not self.terms:
            return self
        c = self.lc()
        if c == 1:
            return self
        return self.scale(self.ring.field.inv(c))

    def scale(self, c):
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        return Polynomial(self.ring, tuple(((a * c) % p, e) for a, e in self.terms))

    # --- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise ContextMismatchError(f"operands in {self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        r = self.ring
        return Polynomial(r, _kernel.add_terms(self.terms, other.terms, r.p, r._wm))

    def __sub__(self, other):
        self._check(other)
        r = self.ring
        return Polynomial(
            r, _kernel.add_terms(self.terms, other.scale(-1).terms, r.p, r._wm)
        )

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        self._check(other)
        # F_p[vars] is a domain: the top degree of a product is the sum of its factors'
        _check_degree(self.weighted_degree() + other.weighted_degree())
        r = self.ring
        return Polynomial(r, _kernel.mul_terms(self.terms, other.terms, r.p, r._wm))

    def __pow__(self, n):
        if n < 0:
            raise InputError("negative polynomial power")
        # F_p[vars] is a domain: the top degree of self^n is n times self's
        _check_degree(n * self.weighted_degree())
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def exact_quotient(self, divisor):
        """self / divisor; raises ValueError when the division leaves a remainder."""
        self._check(divisor)
        r = self.ring
        q, rem = _kernel.divmod_terms(self.terms, [divisor.terms], r.p, r._wm, True)
        if rem:
            raise ValueError(f"{divisor} does not divide {self}")
        return Polynomial(r, q[0])

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def shift(self, coeff, mono):
        """coeff * x^mono * self, the division-step primitive."""
        p = self.ring.p
        coeff %= p
        if coeff == 0 or not self.terms:
            return self.ring.zero()
        # as in __mul__: the top degree of the product is the sum of the factors'
        _check_degree(self.weighted_degree() + self.ring._wdeg(mono))
        return Polynomial(
            self.ring,
            tuple(((c * coeff) % p, mono_mul(e, mono)) for c, e in self.terms),
        )

    def frobenius(self, e=1):
        """self^(p^e), computed termwise (the coefficients are fixed by
        Fermat, so only exponents scale)."""
        if e < 0:
            raise InputError("negative Frobenius power")
        degree = self.weighted_degree()
        if e == 0 or degree <= 0:
            return self  # zero, or a constant, which Fermat fixes
        # p >= 2, so from e = 62 on the bound fails without forming p^e
        q = self.ring.p**e if e < 62 else DEGREE_LIMIT
        _check_degree(q * degree)
        return Polynomial(
            self.ring, tuple((c, tuple(x * q for x in e_)) for c, e_ in self.terms)
        )

    # --- printing ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for c, e in self.terms:
            factors = []
            if c != 1 or not any(e):
                factors.append(str(c))
            for name, x in zip(names, e):
                if x == 1:
                    factors.append(name)
                elif x > 1:
                    factors.append(f"{name}^{x}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring}>"


# --- parser -----------------------------------------------------------------

_OPS = set("+-*^()")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # past Python's limit on int-from-str conversion
                raise ParseError(f"integer literal of {j - i} digits is too long", i) from None
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, ring, text):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        result = self.term().scale(sign)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            result = result + t if op == "+" else result - t
        return result

    def term(self):
        result = self.factor()
        while self.peek()[0] == "*":
            self.take()
            result = result * self.factor()
        return result

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            ekind, evalue, eat = self.take()
            if ekind != "int":
                raise ParseError("exponent must be an integer", eat)
            return base**evalue
        return base

    def atom(self):
        kind, value, at = self.take()
        if kind == "int":
            return self.ring.const(value)
        if kind == "name":
            if value not in self.ring._index:
                raise ParseError(f"unknown variable {value!r}", at)
            return self.ring.var(value)
        if kind == "(":
            inner = self.expr()
            ckind, _cv, cat = self.take()
            if ckind != ")":
                raise ParseError("expected ')'", cat)
            return inner
        raise ParseError(f"unexpected token {value!r}", at)


def _parse(ring, text):
    parser = _Parser(ring, text)
    result = parser.expr()
    kind, value, at = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", at)
    return result
