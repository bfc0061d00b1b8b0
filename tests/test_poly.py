# Polynomial arithmetic, monomial orders, the grammar, Frobenius powers.

import pytest
from hypothesis import given, settings, strategies as st

import frobstab._kernel as kernel
from frobstab._kernel import _ref
from frobstab.errors import ContextMismatchError, InputError, ParseError, ResourceLimitError
from frobstab.field import PrimeField
from frobstab.groebner import Ideal
from frobstab.poly import DEGREE_LIMIT, GREVLEX, LEX, MonomialOrder, PolyRing, elim_order

from helpers import naive_mul, naive_pow, random_poly, seeded


def ring(p=2, names=("a", "b"), order=GREVLEX):
    return PolyRing(PrimeField(p), names, order)


# --- parsing ------------------------------------------------------------------


def test_parse_reduces_coefficients_mod_p():
    R = ring(p=2)
    assert str(R.parse("a*b + 2")) == "a*b"


def test_parse_negative_coefficient_mod_5():
    R = ring(p=5)
    f = R.parse("a^3 - b^2")
    assert f.terms == ((1, (3, 0)), (4, (0, 2)))


def test_parse_expansion_matches_naive_oracle():
    R = ring(p=2)
    f = R.parse("(a+b)^2")
    oracle = naive_pow(R.parse("a+b"), 2)
    assert f == oracle
    assert str(f) == "a^2 + b^2"


def test_parse_errors_carry_position():
    R = ring()
    with pytest.raises(ParseError) as err:
        R.parse("a + %")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        R.parse("a + c")  # unknown variable
    with pytest.raises(ParseError):
        R.parse("a + + b")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_print_parse_round_trip(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    R = ring(p=p, names=("a", "b", "c"))
    rng = seeded(data.draw(st.integers(0, 10**6)))
    f = random_poly(R, rng)
    assert R.parse(str(f)) == f


# --- arithmetic ---------------------------------------------------------------


def test_add_identity_and_inverse():
    R = ring(p=5)
    f = R.parse("a^2 + 3*b")
    assert f + R.zero() == f
    assert (f - f).is_zero()


def test_char2_square_kills_cross_terms():
    R = ring(p=2)
    f = R.parse("a+b")
    assert f * f == R.parse("a^2 + b^2")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]))
def test_mul_matches_naive_oracle(seed, p):
    R = ring(p=p, names=("a", "b", "c"))
    rng = seeded(seed)
    f, g = random_poly(R, rng), random_poly(R, rng)
    assert f * g == naive_mul(f, g)


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatchError):
        ring(p=2).parse("a") + ring(p=3).parse("a")
    with pytest.raises(ContextMismatchError):
        ring(p=2).parse("a") * ring(p=2, names=("a", "c")).parse("a")


@pytest.mark.parametrize("impl", ["python", "c"])
def test_from_dict_rejects_bad_exponent_vectors(monkeypatch, impl):
    # a short exponent vector once reached the C product kernel and crashed it
    if impl == "c":
        fast = pytest.importorskip("frobstab._kernel._speedups")
    for name in ("add_terms", "mul_terms", "divmod_terms"):
        monkeypatch.setattr(kernel, name, getattr(_ref if impl == "python" else fast, name))
    R = ring(p=3, names=("a", "b", "c"))
    for bad in ({(1, 2): 1}, {(1, 2, 0, 0): 1}, {(1, -1, 0): 2}):
        with pytest.raises(InputError):
            R.from_dict(bad) * R.parse("a+b+c")
    assert R.from_dict({(1, 2, 0): 4}) == R.parse("a*b^2")


# --- frobenius powers -----------------------------------------------------------


def test_frobenius_freshmans_dream():
    R = ring(p=2)
    assert R.parse("a+b").frobenius(1) == R.parse("a^2 + b^2")


def test_frobenius_zero_exponent_is_identity():
    R = ring(p=3)
    f = R.parse("2*a + b^2")
    assert f.frobenius(0) == f


def test_frobenius_matches_repeated_multiplication():
    # includes the coefficient check 2^3 = 8 = 2 mod 3
    R = ring(p=3)
    f = R.parse("2*a + b")
    assert f.frobenius(1) == naive_pow(f, 3)
    assert str(f.frobenius(1)) == "2*a^3 + b^3"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_oracle_sweep(p):
    R = PolyRing(PrimeField(p), ("a", "b", "c"))
    rng = seeded(100 + p)
    for _ in range(60):
        f = random_poly(R, rng, max_terms=4, max_exp=4)
        for e in (1, 2):
            assert f.frobenius(e) == naive_pow(f, p**e)


# --- degrees ------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,weights,expected",
    [
        ("a^2 + a*b", (1, 1), 2),
        ("a + b^2", (2, 1), 2),
        ("a + b^2", (1, 1), None),
        ("0", (1, 1), 0),
    ],
)
def test_homogeneous_degree(text, weights, expected):
    R = ring(p=5)
    assert R.parse(text).homogeneous_degree(weights) == expected


# --- monomial orders -------------------------------------------------------------


def test_weighted_grevlex_compares_weights_then_reverse_lex():
    R = ring(p=2, names=("z", "x", "T"), order=MonomialOrder("grevlex", weights=(8, 1, 1)))
    # z of weight 8 outweighs x^7; z^2 and x^16 weigh the same, and the tie
    # goes to the monomial with less of the later variables, as does T^2
    assert R.key((1, 0, 0)) > R.key((0, 7, 0))
    assert str(R.parse("x^16 + z^2")) == "z^2 + x^16"
    assert str(R.parse("T^2 + x*T + x^2")) == "x^2 + x*T + T^2"
    with pytest.raises(InputError):
        ring(names=("a", "b"), order=MonomialOrder("lex", weights=(1, 1)))
    for weights in ((1,), (1, 0)):
        with pytest.raises(InputError):
            ring(names=("a", "b"), order=MonomialOrder("grevlex", weights=weights))


def test_grevlex_vs_lex_leading_terms():
    Rg = ring(p=5, names=("x", "y", "z"))
    f = Rg.parse("x*z + y^2")
    assert f.lm() == (0, 2, 0)  # grevlex prefers y^2 over x*z
    Rl = ring(p=5, names=("x", "y", "z"), order=LEX)
    assert Rl.parse("x*z + y^2").lm() == (1, 0, 1)


def test_elim_order_front_block_dominates():
    R = ring(p=2, names=("t", "a", "b"), order=elim_order(1))
    f = R.parse("t + a^5*b^5")
    assert f.lm() == (1, 0, 0)


def test_orders_are_total_and_multiplicative():
    for order in (GREVLEX, LEX, elim_order(1)):
        R = ring(p=3, names=("x", "y", "z"), order=order)
        rng = seeded(17)
        monos = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)]
        for a in monos:
            for b in monos:
                ka, kb = R.key(a), R.key(b)
                if a == b:
                    assert ka == kb
                else:
                    assert ka != kb  # injective keys: total order
                for c in monos:
                    kc = R.key(c)
                    # multiplicative: adding c preserves comparisons
                    kac = R.key(tuple(x + y for x, y in zip(a, c)))
                    kbc = R.key(tuple(x + y for x, y in zip(b, c)))
                    assert (ka < kb) == (kac < kbc)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(
        [LEX, GREVLEX, MonomialOrder("grevlex", weights=(2, 1, 3)), elim_order(1), elim_order(2)]
    ),
    st.lists(st.integers(0, 60), min_size=3, max_size=3),
)
def test_key_is_the_weight_matrix_dot_product(order, mono):
    # the key reads the order's rows sparsely; the kernels take the dense _wm
    R = ring(p=5, names=("x", "y", "z"), order=order)
    assert R._wm == order.weight_matrix(3)
    mono = tuple(mono)
    assert R.key(mono) == tuple(sum(w[i] * mono[i] for i in range(3)) for w in R._wm)


def test_order_rows_are_built_once_per_order_and_size():
    weighted = MonomialOrder("grevlex", weights=(2, 1, 1))
    R = ring(p=3, names=("z", "x", "y"), order=weighted)
    S = ring(p=5, names=("u", "v", "w"), order=MonomialOrder("grevlex", weights=(2, 1, 1)))
    assert R._wm is S._wm and R._rows is S._rows
    assert ring(names=("x", "y", "z"))._rows is not ring(names=("x", "y"))._rows


def test_list_weights_give_the_tuple_order():
    # a list would leave the order, its rings and their polynomials unhashable
    listed = MonomialOrder("grevlex", weights=[2, 1, 1])
    plain = MonomialOrder("grevlex", weights=(2, 1, 1))
    assert listed == plain and hash(listed) == hash(plain)
    R = ring(p=3, names=("z", "x", "y"), order=listed)
    f = R.parse("x^2*y^2 + 2*z*y")
    assert hash(f) == hash(ring(p=3, names=("z", "x", "y"), order=plain).parse("x^2*y^2 + 2*z*y"))
    gens = [R.parse("2*z^2*x^2 + z^2*y"), f]
    assert [str(g) for g in Ideal(R, gens).groebner_basis()] == [
        "x^2*y^2 + 2*z*y", "z^2*x^2 + 2*z^2*y", "z^3*y + 2*z^2*y^3"
    ]


def test_separately_built_rings_compare_equal():
    R, S = ring(p=3), ring(p=3)
    assert R is not S
    assert R == S and hash(R) == hash(S)
    assert R.parse("a") + S.parse("b") == R.parse("a + b")
    assert R.parse("a*b") == S.parse("a*b")
    with pytest.raises(ContextMismatchError):
        R.parse("a") * ring(p=3, order=LEX).parse("a")


def test_order_is_a_well_order_one_divides_everything():
    R = ring(p=2, names=("x", "y"))
    for mono in [(1, 0), (0, 1), (3, 2)]:
        assert R.key((0, 0)) < R.key(mono)


# --- the 2^62 degree bound of the term kernels ----------------------------------


DEGREE_2_62_CASES = {
    "monomial": lambda R: R.monomial((DEGREE_LIMIT, 0)),
    "monomial-split": lambda R: R.monomial((DEGREE_LIMIT // 2, DEGREE_LIMIT // 2)),
    "from-dict": lambda R: R.from_dict({(1, 0): 1, (DEGREE_LIMIT - 1, 1): 1}),
    "frobenius": lambda R: R.var("a").frobenius(62),
    "power": lambda R: (R.var("a") + R.var("b")) ** DEGREE_LIMIT,
    "parse-power": lambda R: R.parse("a^4611686018427387904"),
    "parse-product": lambda R: R.parse("a^4611686018427387903*b"),
    "product": lambda R: R.monomial((DEGREE_LIMIT // 2, 0)) * R.monomial((DEGREE_LIMIT // 2, 0)),
    "shift": lambda R: R.monomial((DEGREE_LIMIT // 2, 0)).shift(1, (0, DEGREE_LIMIT // 2)),
}


# each case runs on the compiled kernel under its own name and on the
# reference kernel as "<name>-python"
@pytest.mark.parametrize(
    "impl, make",
    [
        pytest.param(impl, make, id=name if impl == "c" else f"{name}-python")
        for name, make in DEGREE_2_62_CASES.items()
        for impl in ("c", "python")
    ],
)
def test_terms_of_weighted_degree_2_62_raise_on_any_kernel(monkeypatch, impl, make):
    if impl == "c":
        fast = pytest.importorskip("frobstab._kernel._speedups")
    for name in ("add_terms", "mul_terms", "divmod_terms"):
        monkeypatch.setattr(kernel, name, getattr(_ref if impl == "python" else fast, name))
    with pytest.raises(ResourceLimitError, match="2\\^62"):
        make(ring(p=2))


@pytest.mark.parametrize(
    "order",
    [GREVLEX, MonomialOrder("grevlex", weights=(3, 1, 2)), LEX, elim_order(1)],
    ids=["grevlex", "weighted", "lex", "elim"],
)
def test_weighted_degree_is_the_top_degree_of_any_term(order):
    R = ring(p=3, names=("a", "b", "c"), order=order)
    w = order.weights or (1, 1, 1)
    rng = seeded(808)
    for _ in range(30):
        f = random_poly(R, rng, max_terms=5, max_exp=4)
        top = max((sum(x * y for x, y in zip(w, e)) for _c, e in f.terms), default=-1)
        assert f.weighted_degree() == top


def test_weights_count_toward_the_degree_bound():
    R = ring(p=2, order=MonomialOrder("grevlex", weights=(3, 1)))
    R.monomial((0, DEGREE_LIMIT - 1))
    with pytest.raises(ResourceLimitError):
        R.monomial((DEGREE_LIMIT // 3 + 1, 0))


def test_terms_just_below_the_degree_bound_keep_their_order():
    R = ring(p=2)
    f = R.parse("a^4611686018427387902*b + a")
    assert str(f) == "a^4611686018427387902*b + a"
    assert str(R.var("a").frobenius(61)) == "a^2305843009213693952"
