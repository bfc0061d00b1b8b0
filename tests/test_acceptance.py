# Acceptance gate: one test per criterion, each prints a PASS line with
# the exact check it performed.  Everything here is exact arithmetic;
# "tolerance" means equality, and any deviation is a failure.

import io
import itertools
import json
import os

import pytest

from frobstab.cli import main as cli_main
from frobstab.config import RunConfig
from frobstab.field import PrimeField
from frobstab.frobenius import bracket_power, frobenius_root
from frobstab.groebner import Ideal
from frobstab.imperfect import build_example_extension, find_nilpotent_in_tensor
from frobstab.localcoh import GradedRing
from frobstab.poly import PolyRing
from frobstab.semilinear import SemilinearOperator, Subspace
from frobstab.stability import (
    CHAIN_NOT_STABILIZED,
    compatible_closure,
    f_injectivity_witness,
    f_stability,
    frobenius_colon_chain,
)

from helpers import seeded

ZOO = os.path.join(os.path.dirname(__file__), "..", "src", "frobstab", "zoo")
CFG = RunConfig()


def _load(name):
    with open(os.path.join(ZOO, name + ".json")) as fh:
        return GradedRing.from_dict(json.load(fh))


ZOO_NAMES = [
    f"{family}_p{p}"
    for family in ("poly1", "lines2", "lines3", "lines4")
    for p in (2, 3, 5)
] + ["cusp_p2"]


@pytest.fixture(scope="module")
def zoo_rings():
    return {name: _load(name) for name in ZOO_NAMES}


@pytest.fixture(scope="module")
def zoo_reports(zoo_rings):
    return {name: f_stability(ring) for name, ring in zoo_rings.items()}


def ok(n, text):
    label = f"{n:2d}" if isinstance(n, int) else str(n)
    print(f"[acceptance] criterion {label}: PASS - {text}")


def test_criterion_01_main_theorem_agreement(zoo_reports):
    """Certified stable-part verdict and socle-search verdict agree on
    every F-injective zoo ring, exactly."""
    checked = 0
    for name, report in zoo_reports.items():
        if not report.f_injective[0]:
            continue
        assert report.certified_status == "certified", name
        assert report.agreement, f"{name}: routes disagree"
        assert report.certified_verdict == report.socle.found(), name
        checked += 1
    assert checked == 12  # all rings except the cusp
    ok(1, f"both stability routes agree on {checked} F-injective zoo rings")


def test_criterion_02_component_count_desk_instances(zoo_reports):
    """n coordinate lines give n components and stable dimension n-1,
    exactly, for p in {2, 3}."""
    for n, family in ((2, "lines2"), (3, "lines3"), (4, "lines4")):
        for p in (2, 3):
            name = f"{family}_p{p}"
            report = zoo_reports[name]
            assert report.stable_dim == n - 1, name
            sw = report.components
            assert sw["components"] == n, name
            assert sw["formula"] == n, name
            assert sw["agree"], name
    ok(2, "components = n and stable dim = n-1 for n = 2, 3, 4 at p = 2, 3")


def test_criterion_03_f_injectivity_classifications(zoo_rings, zoo_reports):
    """Coordinate lines and polynomial rings F-injective; the cusp is not,
    with witness b; every classification is certified."""
    for name, report in zoo_reports.items():
        value, status = report.f_injective
        assert status == "certified", name
        assert value == (not name.startswith("cusp")), name
    cusp = zoo_rings["cusp_p2"]
    witness = f_injectivity_witness(cusp)
    assert str(witness) == "b"
    stored = Ideal.parse(cusp.ring, ["a", "b^2 - a^3"])
    assert not stored.contains(witness)
    bracket = Ideal.parse(cusp.ring, ["a^2", "b^2 - a^3"])
    assert bracket.contains(witness * witness)
    ok(3, "classifications exact; cusp witness b lies in (a)^F but not (a)")


def test_criterion_04_one_dimensional_domain_consistency(zoo_rings, zoo_reports):
    """The cusp is a 1-dimensional graded domain that is not regular and
    is reported not F-injective; consistent with the fact that
    F-injective complete 1-dim domains over an algebraically closed
    field are regular (consistency check, not a proof)."""
    cusp = zoo_rings["cusp_p2"]
    assert cusp.dim == 1
    # domain (desk check): a factor of b^2 + a^3 linear in b would need
    # f(a)^2 = a^3, impossible by degree parity; enumerate low degrees
    Fa = PolyRing(PrimeField(2), ("a",))
    for coeffs in itertools.product((0, 1), repeat=4):
        f = Fa.from_dict({(i,): c for i, c in enumerate(coeffs)})
        assert f * f != Fa.parse("a^3")
    # not regular: both generators of the maximal ideal survive in m/m^2
    # because every relation is concentrated in degrees >= 2
    for g in cusp.user_relations.gens:
        assert all(sum(e) >= 2 for _c, e in g.terms)
    assert zoo_reports["cusp_p2"].f_injective[0] is False
    ok(4, "cusp: 1-dim graded domain, not regular, reported not F-injective")


def test_criterion_05_frobenius_root_oracle():
    """frobenius_root matches the per-exponent combinatorial oracle on
    100 random monomial ideals and satisfies its minimality contract.

    The oracle maps each exponent a to floor(a / p^e): the spec text
    says ceiling, but that contradicts the operation's own definition
    (smallest J with I inside J^[q]) on e.g. (a^3) at p = 2, where
    (a^2)^[2] = (a^4) fails to contain a^3; see the decisions ledger."""
    rng = seeded(505)
    instances = 0
    while instances < 100:
        p = rng.choice((2, 3))
        R = PolyRing(PrimeField(p), ("x", "y", "z"))
        gens = []
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 6) for _ in range(3))
            if any(e):
                gens.append(R.monomial(e))
        if not gens:
            continue
        I = Ideal(R, gens)
        e = rng.choice((1, 2))
        q = p**e
        got = frobenius_root(I, e)
        oracle = Ideal(R, [R.monomial(tuple(x // q for x in g.lm())) for g in gens])
        assert got.equals(oracle)
        assert bracket_power(got, e).contains_ideal(I)
        instances += 1
    ok(5, "100/100 monomial Frobenius roots match the floor(a/p^e) oracle")


def test_criterion_06_bracket_power_well_defined():
    """100 random pairs of generating sets of equal ideals have equal
    bracket powers, every instance."""
    rng = seeded(606)
    instances = 0
    while instances < 100:
        p = rng.choice((2, 3))
        R = PolyRing(PrimeField(p), ("x", "y"))
        gens = []
        for _ in range(2):
            terms = {
                (rng.randint(0, 2), rng.randint(0, 2)): rng.randrange(p)
                for _ in range(3)
            }
            g = R.from_dict(terms)
            if g:
                gens.append(g)
        if not gens:
            continue
        I = Ideal(R, gens)
        mixed = [gens[0].scale(rng.randint(1, p - 1))]
        for g in gens[1:]:
            mixed.append(g + gens[0].scale(rng.randrange(p)))
        mixed.append(gens[0] * R.from_dict({(1, 0): 1, (0, 1): rng.randrange(p)}))
        J = Ideal(R, [g for g in mixed if g])
        if not I.equals(J):
            continue
        e = rng.choice((1, 2))
        assert bracket_power(I, e).equals(bracket_power(J, e))
        instances += 1
    ok(6, "100/100 generating-set pairs give equal bracket powers")


def test_criterion_07_semilinear_suite():
    """500 random operators over F_2/F_3/F_4 with dim <= 5 pass the
    stable/nil decomposition checks; every F_2 operator lifted to F_4
    and F_8 keeps its stable dimension."""
    from frobstab.field import ExtField

    fields = [PrimeField(2), PrimeField(3), ExtField.of_order(2, 2)]
    rng = seeded(707)
    lifted = 0
    for i in range(500):
        field = fields[i % 3]
        n = rng.randint(1, 5)
        els = list(field.elements())
        A = SemilinearOperator(
            field, n, [[rng.choice(els) for _ in range(n)] for _ in range(n)]
        )
        report = A.fitting_check()
        assert report.ok, report.problems
        assert report.stable_dim + report.nil_dim == n
        if isinstance(field, PrimeField) and field.p == 2:
            d = report.stable_dim
            assert A.base_change(2).stable_part().dim == d
            assert A.base_change(3).stable_part().dim == d
            lifted += 1
    ok(7, f"500/500 fitting checks pass; {lifted} base changes keep stable dim")


def test_criterion_08_socle_existence_equivalence():
    """Over 10^4 sampled injective operators with dim <= 4 over F_2, a
    stable socle vector exists exactly when the socle chain limit
    dimension is positive (socle-like subspaces: preimage-closed)."""
    F2 = PrimeField(2)
    rng = seeded(808)
    sampled = 0
    positives = 0
    while sampled < 10_000:
        n = rng.randint(1, 4)
        A = SemilinearOperator(
            F2, n, [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        )
        if not A.is_injective():
            continue
        raw = Subspace.from_vectors(
            F2, n, [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(2)]
        )
        S = A.preimage_closure(raw)
        res = A.find_stable_socle_element(S)
        chain = A.socle_chain(S, claim_check=False)
        assert res.found() == (chain.limit_dim > 0)
        positives += bool(res.found())
        sampled += 1
    assert 0 < positives < sampled  # both outcomes genuinely exercised
    ok(8, f"10000/10000 sampled injective operators match ({positives} stable)")


def test_criterion_09_compatible_ideals_exact(zoo_rings):
    """On the two-lines ring F_2[a, b]/(ab) the compatible closures of
    every ideal generated by monomials of degree 1 or 2, and of (a + b),
    are exactly (ab), (a), (b) and (a, b), each an intersection of primes
    generated by variables and so radical."""
    graded = zoo_rings["lines2_p2"]
    ring = graded.user_ring
    monomials = ["a", "b", "a^2", "a*b", "b^2"]
    inputs = [["a+b"]] + [
        list(gens)
        for k in range(1, len(monomials) + 1)
        for gens in itertools.combinations(monomials, k)
    ]
    u = ring.parse("a*b")
    reached = set()
    for gens in inputs:
        J = compatible_closure(graded, Ideal.parse(ring, gens))
        assert all(bracket_power(J, 1).contains(u * g) for g in J.gens)
        reached.add(tuple(J.canonical_strings()))
    A, B = Ideal.parse(ring, ["a"]), Ideal.parse(ring, ["b"])
    radical = [A.intersect(B), A, B, Ideal.parse(ring, ["a", "b"])]
    assert reached == {tuple(J.canonical_strings()) for J in radical}
    ok(9, f"{len(inputs)} closures reach exactly (ab), (a), (b), (a, b), all radical")


def test_criterion_10_imperfect_witness():
    """For p = 2 and p = 3 the tensor demo returns a witness whose
    relation verifies exactly and whose certificate coefficient fails
    the p-th power test."""
    for p in (2, 3):
        L = build_example_extension(p)
        witness = find_nilpotent_in_tensor(L)
        assert witness is not None, p
        total = L.zero
        for j, a in enumerate(witness.coefficients):
            total = L.add(total, L.scale(a, L.pow(L.y_power(j), p)))
        assert L.is_zero(total), p
        cert = witness.coefficients[witness.certificate_index]
        assert cert.pth_root() is None, p
    ok(10, "p = 2 and p = 3 tensor witnesses verify; certificates are not p-th powers")


def test_criterion_11_descent_invariant(zoo_rings, zoo_reports):
    """Every computed annihilator chain on an F-injective CM zoo ring
    descends, with zero violations; the colon-of-1 chain on F_p[a] is
    reported not stabilized and claims no limit."""
    chains = 0
    for name, ring in zoo_rings.items():
        if not zoo_reports[name].f_injective[0]:
            continue
        for t in (1, 2):
            numerators = list(ring.socle_of_truncation(t))
            numerators += [
                ring.ring.monomial(m)
                for m in ring.truncation_ideal(t).staircase().monomials
                if any(m)
            ]
            for z in numerators[:6]:
                chain = frobenius_colon_chain(
                    ring, t, z, CFG, expect_descending=True
                )
                assert chain.descending_verified
                chains += 1
    for p in (2, 3, 5):
        ring = zoo_rings[f"poly1_p{p}"]
        chain = frobenius_colon_chain(ring, 1, ring.ring.one(), CFG)
        assert chain.status == CHAIN_NOT_STABILIZED
        assert chain.upper_bound_only
        assert chain.descending_verified
    assert chains >= 40
    ok(11, f"{chains} chains descend with zero violations; colon-of-1 stays unclaimed")


def test_zoo_regression_runs_clean():
    """The committed zoo expectations reproduce exactly (exit code 0)."""
    out = io.StringIO()
    code = cli_main(["zoo"], out=out)
    assert code == 0
    ok("zoo", "all 13 zoo rows match the committed expectations")
