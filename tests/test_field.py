# Field arithmetic: prime fields, extension fields, axioms.

import random

import pytest

from frobstab.errors import InputError
from frobstab.field import ExtField, FiniteExtension, PrimeField, is_prime
from frobstab.groebner import Ideal
from frobstab.poly import PolyRing


def test_primality_check():
    assert is_prime(2) and is_prime(3) and is_prime(31) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(9) and not is_prime(2**20)


@pytest.mark.parametrize("p", [0, 1, 4, 15, 2**31])
def test_bad_characteristic_rejected(p):
    with pytest.raises(InputError):
        PrimeField(p)


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_prime_field_inverses_exhaustive(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert F.mul(a, F.inv(a)) == 1


def _axiom_check(F, elements, rng, trials):
    for _ in range(trials):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one


def test_field_axioms_random_triples():
    # 10^4 triples split across the field kinds used downstream
    rng = random.Random(20260810)
    for p in (2, 3, 5, 101):
        F = PrimeField(p)
        _axiom_check(F, list(F.elements()), rng, 1500)
    for p, n in ((2, 2), (2, 3), (3, 2)):
        F = ExtField.of_order(p, n)
        _axiom_check(F, list(F.elements()), rng, 1500)


def test_ext_field_structure():
    F4 = ExtField.of_order(2, 2)
    assert F4.order == 4
    # x^2 + x + 1 is the only irreducible quadratic over F_2
    assert F4.modulus == (1, 1, 1)
    F8 = ExtField.of_order(2, 3)
    assert F8.order == 8
    nonzero = [a for a in F8.elements() if a != F8.zero]
    for a in nonzero:
        assert F8.pow(a, 7) == F8.one  # multiplicative group order 7


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(InputError):
        ExtField(PrimeField(2), (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


def test_ext_frobenius_bijective_with_inverse():
    for p, n in ((2, 2), (2, 3), (3, 2)):
        F = ExtField.of_order(p, n)
        seen = set()
        for a in F.elements():
            b = F.frobenius(a)
            assert F.frobenius_inverse(b) == a
            seen.add(b)
        assert len(seen) == F.order


def test_frobenius_is_additive_on_extension():
    F9 = ExtField.of_order(3, 2)
    els = list(F9.elements())
    for a in els:
        for b in els:
            assert F9.frobenius(F9.add(a, b)) == F9.add(F9.frobenius(a), F9.frobenius(b))


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2)])
def test_ext_field_mul_is_the_normal_form_modulo_the_modulus(p, n):
    # an independent route: a*b in F_p[y], reduced by the Groebner basis
    # of the principal ideal of the modulus
    F = ExtField.of_order(p, n)
    R = PolyRing(PrimeField(p), ("y",))
    poly = lambda coords: R.from_dict({(i,): c for i, c in enumerate(coords) if c})
    modulus = Ideal(R, [poly(F.modulus)])
    elements = list(F.elements())
    for a in elements:
        for b in elements:
            nf = modulus.normal_form(poly(a) * poly(b))
            coords = [0] * n
            for c, (i,) in nf.terms:
                coords[i] = c
            assert F.mul(a, b) == tuple(coords)


def test_finite_extension_with_a_reducible_modulus():
    # F_2[y]/(y^2) is a ring with the nilpotent y, not a field
    R = FiniteExtension(PrimeField(2), (0, 0, 1))
    y = R.y_power(1)
    assert y == (0, 1)
    assert R.mul(y, y) == R.zero == R.y_power(2)
    assert R.is_zero(R.pow(y, 5)) and R.pow(y, 0) == R.one
