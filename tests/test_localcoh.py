# The truncation model of top local cohomology: CM gate, classes,
# degree-zero carrier, Frobenius matrix.

import json
import os

import pytest

from frobstab.errors import InconsistencyError, InputError, NotSupportedError
from frobstab.field import PrimeField
from frobstab.localcoh import CM_FAILED, CM_VERIFIED, GradedRing

from helpers import seeded, staircase_oracle

ZOO = os.path.join(os.path.dirname(__file__), "..", "src", "frobstab", "zoo")


def make(p, names, degrees, relations, sop):
    from frobstab.poly import PolyRing

    F = PrimeField(p)
    R = PolyRing(F, names)
    return GradedRing(
        F, names, degrees, [R.parse(t) for t in relations], [R.parse(t) for t in sop]
    )


@pytest.fixture
def lines2():
    return make(2, ("a", "b"), (1, 1), ["a*b"], ["a+b"])


@pytest.fixture
def cusp():
    return make(2, ("a", "b"), (2, 3), ["b^2 - a^3"], ["a"])


@pytest.fixture
def poly1():
    return make(2, ("a",), (1,), [], ["a"])


@pytest.fixture
def lines3():
    return make(2, ("x", "y", "z"), (1, 1, 1), ["x*y", "x*z", "y*z"], ["x+y+z"])


# --- construction and validation ---------------------------------------------------


def test_rejects_inhomogeneous_relation():
    with pytest.raises(InputError):
        make(2, ("a", "b"), (1, 1), ["a + b^2"], ["a"])


def test_rejects_non_sop():
    # one linear form cannot cut F_2[a,b] to dimension zero
    with pytest.raises(InputError):
        make(2, ("a", "b"), (1, 1), [], ["a+b"])


def test_cusp_needs_weighted_degrees():
    cusp = make(2, ("a", "b"), (2, 3), ["b^2 - a^3"], ["a"])
    assert cusp.degree_sum() == 2
    with pytest.raises(InputError):
        make(2, ("a", "b"), (1, 1), ["b^2 - a^3"], ["a"])


def test_from_dict_round_trip():
    data = {
        "char": 2,
        "vars": ["a", "b"],
        "degrees": [1, 1],
        "relations": ["a*b"],
        "sop": ["a + b"],
    }
    R = GradedRing.from_dict(data)
    assert R.dim == 1
    assert {k: R.describe()[k] for k in data} == data


# --- the CM gate ---------------------------------------------------------------------


def test_check_cm_two_lines(lines2):
    status, witness = lines2.check_cm()
    assert status == CM_VERIFIED and witness is None


def test_check_cm_cusp(cusp):
    assert cusp.check_cm()[0] == CM_VERIFIED


def test_check_cm_failure_with_witness():
    bad = make(2, ("a", "b"), (1, 1), ["a^2", "a*b"], ["b"])
    status, witness = bad.check_cm()
    assert status == CM_FAILED
    # a * b lies in the relations but a does not: a witnesses the broken colon
    assert witness is not None
    assert not bad.relations.contains(witness)
    assert bad.relations.contains(witness * bad.sop[0])


# --- truncations ------------------------------------------------------------------------


def test_truncation_ideal_examples(poly1, lines2):
    # the module ring adjoins T1 = the sop element: a = T1 modulo K'
    assert poly1.truncation_ideal(3).canonical_strings() == ["a + T1", "T1^3"]
    I2 = lines2.truncation_ideal(2)
    from frobstab.groebner import Ideal

    assert I2.equals(Ideal.parse(lines2.ring, ["a*b", "(a+b)^2", "T1 - a - b"]))
    assert len(I2.staircase()) == 4  # {1, a, b, a^2-or-b^2 class}


def test_socle_of_truncation(lines2, poly1):
    reps = lines2.socle_of_truncation(1)
    assert len(reps) == 1
    # the class of a equals the class of b at level one
    assert lines2.truncation_ideal(1).normal_form(lines2.ring.parse("a")) == reps[0]
    assert [str(g) for g in poly1.socle_of_truncation(1)] == ["1"]
    F3ab = make(3, ("a", "b"), (1, 1), [], ["a", "b"])
    assert [str(g) for g in F3ab.socle_of_truncation(1)] == ["1"]


def test_socle_lift_stays_socle(lines2):
    # images of level-t socle representatives stay socle at level t+1
    for t in (1, 2, 3):
        I_next = lines2.truncation_ideal(t + 1)
        for s in lines2.socle_of_truncation(t):
            lifted = s * lines2.sop_product()
            for v in lines2.ring.gens():
                assert I_next.contains(v * lifted)


# --- classes ----------------------------------------------------------------------------


def test_class_lift_identity_and_example(lines2):
    eta = lines2.cohomology_class(lines2.ring.parse("a"), 1)
    assert eta.lift(1) is eta
    lifted = eta.lift(2)
    expected = lines2.cohomology_class(lines2.ring.parse("a^2"), 2)
    assert lifted.numerator == expected.numerator
    assert lifted.level == 2


def test_class_lift_associativity(lines2):
    rng = seeded(5)
    for _ in range(20):
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)): rng.randint(0, 1)
            for _ in range(3)
        }
        z = lines2.ring.from_dict(terms)
        eta = lines2.cohomology_class(z, 1)
        assert eta.lift(2).lift(4).numerator == eta.lift(4).numerator


def test_class_is_zero(lines2, poly1):
    lines2.check_cm()
    zero = lines2.cohomology_class(lines2.ring.zero(), 1)
    assert zero.is_zero() == (True, "certified")
    eta = lines2.cohomology_class(lines2.ring.parse("a"), 1)
    assert eta.is_zero() == (False, "certified")
    poly1.check_cm()
    assert poly1.cohomology_class(poly1.ring.parse("a^2"), 1).is_zero() == (
        True,
        "certified",
    )


def test_frobenius_on_class(lines2):
    eta = lines2.cohomology_class(lines2.ring.parse("a"), 1)
    feta = eta.frobenius()
    assert feta.level == 2
    assert feta.numerator == lines2.truncation_ideal(2).normal_form(
        lines2.ring.parse("a^2")
    )
    zero = lines2.cohomology_class(lines2.ring.zero(), 3)
    assert zero.frobenius().numerator.is_zero()
    assert zero.frobenius().level == 6


def test_frobenius_commutes_with_lift(lines2, lines3):
    for ring in (lines2, lines3):
        rng = seeded(31 + ring.p)
        names = ring.ring.names
        for _ in range(25):
            terms = {
                tuple(rng.randint(0, 2) for _ in names): rng.randint(0, 1)
                for _ in range(3)
            }
            z = ring.ring.from_dict(terms)
            eta = ring.cohomology_class(z, 1)
            a = eta.lift(3).frobenius()
            b = eta.frobenius().lift(3 * ring.p)
            assert a.level == b.level and a.numerator == b.numerator


# --- degree-zero carrier ------------------------------------------------------------------


def test_degree_zero_requires_cm_gate(lines2):
    fresh = make(2, ("a", "b"), (1, 1), ["a*b"], ["a+b"])
    with pytest.raises(NotSupportedError):
        fresh.degree_zero_piece()


def test_degree_zero_poly1_empty(poly1):
    # a(F_2[a]) = -1 <= 0, so the carrier sits at level 1
    poly1.check_cm()
    piece = poly1.degree_zero_piece()
    assert piece.level == 1 and len(piece) == 0


def test_degree_zero_zero_ring_empty():
    # a unit relation leaves R/I_1 without a standard monomial
    zero = make(2, ("a",), (1,), ["1"], ["a"])
    zero.check_cm()
    piece = zero.degree_zero_piece()
    assert piece.level == 1 and len(piece) == 0
    assert zero.frobenius_matrix(piece).n == 0


def test_degree_zero_two_lines(lines2):
    lines2.check_cm()
    piece = lines2.degree_zero_piece()
    assert piece.level == 1
    assert len(piece) == 1
    # the basis class is b*T1^(t-1): a reduces to T1 - b, and b^2 to b*T1
    (mono,) = piece.basis
    assert mono == (0, 1, piece.level - 1)


def test_degree_zero_three_lines(lines3):
    lines3.check_cm()
    piece = lines3.degree_zero_piece()
    assert piece.level == 1 and len(piece) == 2


def _degree_zero_dims(ring, levels):
    # counted by enumerate-and-filter, not from I_1's staircase as the carrier is
    degsum = ring.degree_sum()
    return [
        len(staircase_oracle(ring.truncation_ideal(t), ring.weights, t * degsum))
        for t in levels
    ]


def test_degree_zero_level_is_where_dims_stop_growing(lines3):
    # counted level by level, the degree-zero dimensions never drop, grow
    # until the carrier's level and stay at its size from there on;
    # w^2 = u^16 + 1 (z of degree 8) has a(R) = 6, so its carrier is at
    # level 7 with the genus 7 of that curve as dimension
    w16 = make(17, ("x", "y", "z"), (1, 1, 8), ["z^2 - x^16 - y^16"], ["x", "y"])
    for ring in (lines3, w16):
        ring.check_cm()
        piece = ring.degree_zero_piece()
        dims = _degree_zero_dims(ring, range(1, piece.level + 3))
        assert dims == sorted(dims)
        assert dims[piece.level - 1 :] == [len(piece)] * 3
    assert dims == [0, 0, 0, 1, 3, 5, 7, 7, 7]


def test_degree_zero_zoo_rings_at_level_one():
    # every zoo ring has a(R) <= 0, so its carrier needs no higher level
    names = sorted(
        f for f in os.listdir(ZOO) if f.endswith(".json") and f != "expectations.json"
    )
    assert len(names) == 13
    for name in names:
        with open(os.path.join(ZOO, name)) as fh:
            ring = GradedRing.from_dict(json.load(fh))
        ring.check_cm()
        assert ring.degree_zero_piece().level == 1, name


# --- frobenius matrix ----------------------------------------------------------------------


def test_frobenius_matrix_zero_carrier(poly1):
    poly1.check_cm()
    piece = poly1.degree_zero_piece()
    A = poly1.frobenius_matrix(piece)
    assert A.n == 0


def test_frobenius_matrix_two_lines_is_one(lines2):
    lines2.check_cm()
    A = lines2.frobenius_matrix(lines2.degree_zero_piece())
    assert A.n == 1 and A.matrix == ((1,),)


def test_frobenius_matrix_three_lines_identity(lines3):
    lines3.check_cm()
    A = lines3.frobenius_matrix(lines3.degree_zero_piece())
    assert A.n == 2
    assert A.matrix == ((1, 0), (0, 1))
    assert A.stable_part().dim == 2


def test_frobenius_matrix_empty_carrier_rejected(lines2):
    # the true carrier of two lines has dimension 1 at every level, so an
    # empty one fails the dimension check at level p*t before anything else
    lines2.check_cm()
    from frobstab.localcoh import DegreeZeroPiece

    fake = DegreeZeroPiece(lines2, 1, ())
    with pytest.raises(InconsistencyError):
        lines2.frobenius_matrix(fake)


def test_frobenius_matrix_p3_two_lines():
    R = make(3, ("a", "b"), (1, 1), ["a*b"], ["a+b"])
    R.check_cm()
    A = R.frobenius_matrix(R.degree_zero_piece())
    assert A.n == 1 and A.matrix == ((1,),)
