# Bracket powers, Frobenius roots and closures, with brute-force oracles.

import itertools

import pytest

import frobstab.frobenius as frobenius
import frobstab.groebner as groebner
from frobstab.errors import NotSupportedError
from frobstab.field import PrimeField
from frobstab.frobenius import (
    BUDGET_EXHAUSTED,
    CERTIFIED_TRIVIAL,
    STABILIZED,
    bracket_power,
    frobenius_closure,
    frobenius_root,
    is_frobenius_closed,
)
from frobstab.groebner import Ideal
from frobstab.poly import PolyRing

from helpers import random_poly, seeded


def ring(p=2, names=("a", "b")):
    return PolyRing(PrimeField(p), names)


def ideal(texts, p=2, names=("a", "b")):
    R = ring(p, names)
    return Ideal.parse(R, texts)


# --- bracket powers ----------------------------------------------------------


def test_bracket_generator_powers():
    I = ideal(["a", "b"])
    assert bracket_power(I, 1).equals(ideal(["a^2", "b^2"]))


def test_bracket_principal_power():
    I = ideal(["a+b"])
    assert bracket_power(I, 2).equals(ideal(["a^4 + b^4"]))


def test_bracket_well_defined_on_the_ideal():
    # (a, a+b) and (a, b) are equal ideals; bracket powers agree
    p = 3
    A = ideal(["a", "a+b"], p=p)
    B = ideal(["a", "b"], p=p)
    assert bracket_power(A, 1).equals(bracket_power(B, 1))


def test_bracket_well_defined_random_pairs():
    # 100 random regenerating sets of the same ideal
    count = 0
    for p in (2, 3):
        R = ring(p, ("x", "y", "z"))
        rng = seeded(40 + p)
        while count < 50 * (1 if p == 2 else 2):
            gens = [g for g in (random_poly(R, rng, 3, 2) for _ in range(2)) if g]
            if not gens:
                continue
            I = Ideal(R, gens)
            f, *rest = gens
            mixed = [f.scale(rng.randint(1, p - 1))] + [
                g + f.scale(rng.randint(0, p - 1)) for g in rest
            ]
            # append a random combination, which changes the list but not the ideal
            mixed.append(f * random_poly(R, rng, 2, 1))
            J = Ideal(R, [g for g in mixed if g])
            if not I.equals(J):
                continue
            assert bracket_power(I, 1).equals(bracket_power(J, 1))
            count += 1


# --- frobenius roots -----------------------------------------------------------


def test_root_monomial_floor_examples():
    assert frobenius_root(ideal(["a^2*b^2"]), 1).equals(ideal(["a*b"]))
    # a^3 = (a)^2 * a, so the smallest J with a^3 in J^[2] is (a):
    # floor(3/2) = 1.  (a^2)^[2] = (a^4) does not contain a^3.
    got = frobenius_root(ideal(["a^3"]), 1)
    assert got.equals(ideal(["a"]))
    R = got.ring
    assert not bracket_power(ideal(["a^2"]), 1).contains(R.parse("a^3"))
    assert bracket_power(got, 1).contains(R.parse("a^3"))


def test_root_decomposition_example_with_minimality():
    I = ideal(["a^2 + b^3"])
    got = frobenius_root(I, 1)
    assert got.equals(ideal(["a", "b"]))
    # brute force: every monomial ideal J with I <= J^[2] contains (a, b)
    R = I.ring
    f = R.parse("a^2 + b^3")
    monos = [R.monomial(e) for e in itertools.product(range(4), repeat=2) if any(e)]
    for size in (1, 2):
        for gens in itertools.combinations(monos, size):
            J = Ideal(R, list(gens))
            if bracket_power(J, 1).contains(f):
                assert J.contains_ideal(got)


@pytest.mark.parametrize("p", [2, 3])
def test_root_matches_monomial_oracle(p):
    # random monomial ideals: the root maps exponents to floor(a / p^e)
    rng = seeded(7000 + p)
    R = ring(p, ("x", "y", "z"))
    for _ in range(40):
        gens = []
        for _g in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 6) for _ in range(3))
            if any(e):
                gens.append(R.monomial(e))
        if not gens:
            continue
        I = Ideal(R, gens)
        for e in (1, 2):
            q = p**e
            expected = Ideal(R, [R.monomial(tuple(x // q for x in g.lm())) for g in gens])
            assert frobenius_root(I, e).equals(expected)


def test_root_bracket_round_trip_polynomial_ring():
    # root(bracket(J, e), e) = J over the polynomial ring (flat Frobenius)
    for p in (2, 3):
        R = ring(p, ("x", "y"))
        rng = seeded(88 + p)
        done = 0
        while done < 50:
            gens = [g for g in (random_poly(R, rng, 3, 2) for _ in range(2)) if g]
            if not gens:
                continue
            J = Ideal(R, gens)
            for e in (1, 2):
                got = frobenius_root(bracket_power(J, e), e)
                assert got.contains_ideal(J)
                assert got.equals(J)
            done += 1


def test_root_of_a_non_basis_generating_set(monkeypatch):
    # (a^2 + b^3, a^2 + a*b^2) is no Groebner basis: its reduced basis
    # adds a^3 + a^2*b.  The root is read off the generators as given,
    # with no Buchberger run on the input.
    I = ideal(["a^2 + b^3", "a^2 + a*b^2"])
    basis = Ideal(I.ring, I.groebner_basis())
    assert len(basis.gens) == 3
    runs = []

    def counted(*args, original=groebner._buchberger):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    groebner.clear_memory_cache()
    got = frobenius_root(I, 1)
    assert runs == []
    assert got.equals(frobenius_root(basis, 1))
    assert got.equals(ideal(["a", "b"]))


@pytest.mark.parametrize(
    "texts,p,steps,expected",
    [
        (["a"], 2, 2, ["1"]),  # (a) -> (1) -> (1)
        (["a^2 + a*b"], 2, 3, ["1"]),  # (a^2 + a*b) -> (a, 1) -> (1) -> (1)
        (["a^5*b^2 + b^7"], 2, 4, ["1"]),  # -> (a^2*b, b^3) -> (a, b) -> (1) -> (1)
        ([], 3, 1, []),  # the zero ideal repeats at once
    ],
)
def test_root_stops_at_its_fixpoint(texts, p, steps, expected, monkeypatch):
    # e = 10^12 steps would never end; a step that returns the generators
    # it was given ends the loop
    calls = []
    original = frobenius._root_once

    def counted(I):
        calls.append(I.gens)
        return original(I)

    monkeypatch.setattr(frobenius, "_root_once", counted)
    got = frobenius_root(ideal(texts, p=p), 10**12)
    assert len(calls) == steps
    assert got.equals(ideal(expected, p=p))


def test_root_contains_original_in_quotient():
    rel = ideal(["a*b"])
    J = ideal(["a + b"])
    got = frobenius_root(J, 1, relations=rel)
    assert got.contains_ideal(J)


# --- frobenius closure -----------------------------------------------------------


def cusp_relations(p=2):
    return ideal(["b^2 - a^3"], p=p)


def test_closure_cusp_parameter_ideal():
    # b^2 = a^3 lands in (a)^[2], so b joins at the first step
    rel = cusp_relations()
    report = frobenius_closure(ideal(["a"]), relations=rel)
    assert report.status == STABILIZED
    assert report.closure.equals(ideal(["a", "b"]))
    # brute force: (a, b) is closed (degree-bounded scan)
    closed, _status = is_frobenius_closed(ideal(["a", "b"]), relations=rel)
    assert closed


def test_closure_two_lines_already_closed():
    rel = ideal(["a*b"])
    report = frobenius_closure(ideal(["a+b"]), relations=rel)
    assert report.status == STABILIZED
    assert report.closure.equals(Ideal(rel.ring, ideal(["a+b"]).gens + rel.gens))
    # brute-force check deg <= 6: z^2 in I^[2] implies z in I
    R = rel.ring
    stored = Ideal(R, ideal(["a+b"]).gens + rel.gens)
    B = bracket_power(ideal(["a+b"]), 1, relations=rel)
    cands = [R.monomial(e) for e in itertools.product(range(7), repeat=2) if 0 < sum(e) <= 6]
    rng = seeded(6)
    zs = list(cands)
    for _ in range(40):
        z = R.zero()
        for m in cands:
            if rng.random() < 0.25:
                z = z + m
        if not z.is_zero():
            zs.append(z)
    hits = 0
    for z in zs:
        if B.contains(z * z):
            assert stored.contains(z)
            hits += 1
    assert hits  # the scan actually exercised the implication


def test_closure_certified_trivial_variable_powers():
    report = frobenius_closure(ideal(["a^2"], p=3, names=("a",)))
    assert report.status == CERTIFIED_TRIVIAL
    assert report.closure.equals(ideal(["a^2"], p=3, names=("a",)))


def test_closure_polynomial_ring_generic_ideal():
    # no relations: everything is closed by flatness of Frobenius (Kunz),
    # a proof, so no chain is run
    report = frobenius_closure(ideal(["a + b^2", "a*b"]))
    assert report.status == CERTIFIED_TRIVIAL
    assert [e for e, _J in report.chain] == [0]
    assert report.closure.equals(ideal(["a + b^2", "a*b"]))


def test_closure_chain_is_ascending_and_idempotent():
    rel = cusp_relations()
    report = frobenius_closure(ideal(["a"]), relations=rel)
    for (e1, a), (e2, b) in zip(report.chain, report.chain[1:]):
        assert e2 > e1
        assert b.contains_ideal(a)
    # closing the closure adds nothing: the chain beyond level 0 is constant
    again = frobenius_closure(Ideal(rel.ring, report.closure.gens), relations=rel)
    assert again.closure.equals(report.closure)
    for _e, piece in again.chain[1:]:
        assert piece.equals(again.closure)


def test_closure_members_have_bracket_certificates():
    # sampled closure members satisfy the defining property f^q in I^[q]
    rel = cusp_relations()
    I = ideal(["a"])
    report = frobenius_closure(I, relations=rel)
    stabilization = max(e for e, _ in report.chain)
    R = rel.ring
    rng = seeded(13)
    members = [g for g in report.closure.gens]
    for _ in range(20):
        f = R.zero()
        for g in members:
            f = f + g.scale(rng.randint(0, 1))
        if f.is_zero():
            continue
        assert any(
            bracket_power(I, e, relations=rel).contains(f.frobenius(e))
            for e in range(0, stabilization + 1)
        )


def test_closure_rejects_non_primary_in_quotient():
    rel = ideal(["a*b"], names=("a", "b", "c"))
    with pytest.raises(NotSupportedError):
        frobenius_closure(ideal(["a"], names=("a", "b", "c")), relations=rel)


def test_is_frobenius_closed_examples():
    rel = cusp_relations()
    closed, status = is_frobenius_closed(ideal(["a"]), relations=rel)
    assert (closed, status) == (False, STABILIZED)
    closed, status = is_frobenius_closed(ideal(["a"], names=("a",)))
    assert (closed, status) == (True, CERTIFIED_TRIVIAL)
    closed, status = is_frobenius_closed(ideal(["a+b"]), relations=ideal(["a*b"]))
    assert (closed, status) == (True, STABILIZED)


def test_budget_exhausted_status_is_reachable():
    rel = cusp_relations()
    report = frobenius_closure(ideal(["a"]), relations=rel, e_max=1)
    assert report.status == BUDGET_EXHAUSTED


def test_closure_report_json_shape():
    rel = cusp_relations()
    data = frobenius_closure(ideal(["a"]), relations=rel).to_json()
    assert set(data) == {"closure", "status", "chain"}
    assert data["chain"][0]["e"] == 0
    assert all(isinstance(g, str) for g in data["closure"])
