# Rational functions over F_p(u, v): canonical forms, gcd, p-th roots.

import pytest

from frobstab.ratfun import RatFunField, RationalFunction, poly_gcd, pth_power_test

from helpers import random_poly, seeded


@pytest.fixture(params=[2, 3])
def k(request):
    return RatFunField(request.param)


def test_gcd_simple_common_factor():
    k = RatFunField(2)
    R = k.ring
    u, v = R.var("u"), R.var("v")
    f = (u + v) * u
    g = (u + v) * v
    assert poly_gcd(f, g) == u + v


def test_gcd_random_products_share_the_planted_factor(k):
    R = k.ring
    rng = seeded(31 + k.p)
    for _ in range(25):
        h = random_poly(R, rng, max_terms=3, max_exp=2)
        if h.is_zero():
            continue
        a = random_poly(R, rng, max_terms=2, max_exp=2)
        b = random_poly(R, rng, max_terms=2, max_exp=2)
        if a.is_zero() or b.is_zero():
            continue
        g = poly_gcd(h * a, h * b)
        # gcd is divisible by h (up to the monic normalization)
        from frobstab import _kernel

        _q, rem = _kernel.divmod_terms(g.terms, [h.monic().terms], R.p, R._wm, True)
        assert not rem
        assert poly_gcd(g, h) == h.monic()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gcd_of_products_of_linear_forms_is_the_shared_part(p):
    # distinct monic linear forms are pairwise coprime primes of F_p[u, v],
    # so the gcd is the product of the shared forms at their smaller
    # multiplicity: an exact value found without any gcd code
    R = RatFunField(p).ring
    u, v = R.var("u"), R.var("v")
    forms = [u + v.scale(c) + R.const(d) for c in range(p) for d in range(p)]
    forms += [v + R.const(d) for d in range(p)]
    rng = seeded(2024 + p)
    for _ in range(40):
        picked = rng.sample(forms, 4)
        mult_f = [rng.randint(0, 2) for _ in picked]
        mult_g = [rng.randint(0, 2) for _ in picked]
        f = R.const(rng.randint(1, p - 1))
        g = R.const(rng.randint(1, p - 1))
        shared = R.one()
        for form, a, b in zip(picked, mult_f, mult_g):
            f = f * form**a
            g = g * form**b
            shared = shared * form ** min(a, b)
        assert poly_gcd(f, g) == shared


def test_gcd_past_the_default_degree_cap():
    # the elimination behind (f) ∩ (g) reaches S-polynomial degree 76 here,
    # past a cap of 2 * 35 + 4 set by the larger input alone; the gcd is
    # the one the remainder-sequence gcd gave
    R = RatFunField(2).ring
    h = R.parse("u + v + 1")
    a = R.parse("u^33 + u^26*v^7 + u^9*v^7 + u^7*v")
    b = R.parse("u^33 + v^33 + u^3*v^11 + u^7*v^6")
    assert poly_gcd(h * a, h * b) == h


def test_normalization_idempotent_and_canonical(k):
    R = k.ring
    rng = seeded(77)
    for _ in range(30):
        num = random_poly(R, rng, max_terms=3, max_exp=2)
        den = random_poly(R, rng, max_terms=3, max_exp=2)
        if den.is_zero():
            continue
        f = RationalFunction(num, den)
        again = RationalFunction(f.num, f.den)
        assert again == f
        assert f.den.lc() == 1
        scaled = RationalFunction(num * den, den * den)  # same value
        assert scaled == f


def test_power_squares_no_further_than_its_last_bit(monkeypatch, k):
    # 9 = 0b1001: three squarings and two multiplications into the result;
    # each product is gcd-normalised, so a square past the last bit is waste
    u, v = k.var("u"), k.var("v")
    x = (u + k.one) / v
    expected = k.one
    for _ in range(9):
        expected = expected * x
    products = []
    mul = RationalFunction.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(RationalFunction, "__mul__", counted)
    assert x**9 == expected
    assert len(products) == 5


def test_field_operations(k):
    u, v = k.var("u"), k.var("v")
    one = k.one
    x = u / v
    assert x * k.inv(x) == one
    assert (u + v) - v == u
    assert (u * v) / v == u


def test_pth_root_exponent_not_divisible(k):
    assert k.var("u").pth_root() is None


def test_pth_root_of_monomial_power(k):
    p = k.p
    u, v = k.var("u"), k.var("v")
    f = (u**p) * (v**p)
    assert f.pth_root() == u * v


def test_pth_root_char2_sum_of_squares():
    k = RatFunField(2)
    u, v = k.var("u"), k.var("v")
    f = u**2 + v**2
    root = f.pth_root()
    assert root == u + v
    assert root * root == f  # verified by direct multiplication


def test_pth_root_round_trip_random(k):
    rng = seeded(5150)
    R = k.ring
    for _ in range(25):
        num = random_poly(R, rng, max_terms=3, max_exp=2)
        den = random_poly(R, rng, max_terms=2, max_exp=1)
        if den.is_zero():
            continue
        g = RationalFunction(num, den)
        f = g**k.p
        root = f.pth_root()
        assert root is not None
        assert root == g or root.num.is_zero() and g.is_zero()


def test_pth_power_test_type_guard():
    from frobstab.errors import InputError

    with pytest.raises(InputError):
        pth_power_test("u")
