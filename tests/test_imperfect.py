# The inseparable-extension tensor demo over F_p(u, v).

import pytest

from frobstab.errors import InputError
from frobstab.field import FiniteExtension
from frobstab.imperfect import (
    build_example_extension,
    find_nilpotent_in_tensor,
    p_power_matrix,
)
from frobstab.ratfun import RatFunField

from helpers import seeded


@pytest.mark.parametrize("p", [2, 3])
def test_example_extension_shape(p):
    L = build_example_extension(p)
    assert L.degree == 2 * p
    k = L.base
    assert L.modulus[0] == k.neg(k.var("v"))
    assert L.modulus[p] == k.var("u")
    assert L.modulus[2 * p] == k.one


def test_example_extension_rejects_large_p():
    with pytest.raises(InputError):
        build_example_extension(11)


def test_p_power_matrix_columns_p2():
    L = build_example_extension(2)
    k = L.base
    M = p_power_matrix(L)
    u, v = k.var("u"), k.var("v")
    col = lambda j: tuple(M[r][j] for r in range(4))
    assert col(0) == (k.one, k.zero, k.zero, k.zero)  # 1^2
    assert col(1) == (k.zero, k.zero, k.one, k.zero)  # y^2
    # (y^2)^2 = y^4 = u y^2 + v in characteristic 2
    assert col(2) == (v, k.zero, u, k.zero)
    # (y^3)^2 = y^6 = (u^2 + v) y^2 + u v
    assert col(3) == (k.mul(u, v), k.zero, k.add(k.mul(u, u), v), k.zero)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_witness_exists_and_verifies(p):
    L = build_example_extension(p)
    k = L.base
    witness = find_nilpotent_in_tensor(L)
    assert witness is not None
    # the defining relation: sum a_i b_i^p = 0, by direct expansion
    total = L.zero
    for j, a in enumerate(witness.coefficients):
        total = L.add(total, L.scale(a, L.pow(L.y_power(j), p)))
    assert L.is_zero(total)
    # the certificate coefficient genuinely fails the p-th power test
    cert = witness.coefficients[witness.certificate_index]
    assert cert.pth_root() is None
    assert not all(a.is_zero() for a in witness.coefficients)
    assert len(witness.basis) == 2 * p


def test_separable_control_has_no_witness():
    # y^2 + y + u is separable over F_2(u, v): the p-power matrix is
    # invertible, so there is no kernel and no witness
    k = RatFunField(2)
    L = FiniteExtension(k, [k.var("u"), k.one, k.one])
    assert find_nilpotent_in_tensor(L) is None


def test_trivial_control_has_no_witness():
    # L = k itself (modulus y): the only p-th power column is 1
    k = RatFunField(2)
    L = FiniteExtension(k, [k.zero, k.one])
    assert find_nilpotent_in_tensor(L) is None


@pytest.mark.parametrize("p", [2, 3])
def test_extension_frobenius_is_multiplicative_and_additive(p):
    L = build_example_extension(p)
    k = L.base
    rng = seeded(500 + p)
    names = list(k.ring.names)

    def random_element():
        coords = []
        for _ in range(L.degree):
            terms = {}
            for _t in range(2):
                e = tuple(rng.randint(0, 1) for _ in names)
                terms[e] = rng.randrange(p)
            coords.append(k.from_poly(k.ring.from_dict(terms)))
        return tuple(coords)

    for _ in range(8 if p == 2 else 4):
        x, y = random_element(), random_element()
        assert L.pow(L.mul(x, y), p) == L.mul(L.pow(x, p), L.pow(y, p))
        assert L.pow(L.add(x, y), p) == L.add(L.pow(x, p), L.pow(y, p))


def test_witness_json_shape():
    data = find_nilpotent_in_tensor(build_example_extension(2)).to_json()
    assert set(data) == {"relation", "basis", "certificate_index"}
    assert data["basis"][0] == "1" and data["basis"][1] == "y"
