# The headline analyses: annihilator chains, F-injectivity, both
# F-stability routes, compatible closures, component counts.

import io
import json
import os
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import frobstab.groebner as groebner

import frobstab.frobenius as frobenius
import frobstab.localcoh as localcoh
import frobstab.stability as stability
from frobstab.cli import main, zoo_row
from frobstab.config import RunConfig
from frobstab.errors import InconsistencyError, InputError, NotSupportedError
from frobstab.field import PrimeField
from frobstab.frobenius import bracket_power, is_frobenius_closed
from frobstab.groebner import Ideal
from frobstab.linalg import kernel, rows_from_columns
from frobstab.localcoh import CohomologyClass, GradedRing
from frobstab.poly import PolyRing, mono_degree, mono_mul
from frobstab.semilinear import SemilinearOperator
from frobstab.stability import (
    CHAIN_NOT_STABILIZED,
    CHAIN_STABILIZED,
    compatible_closure,
    connected_components_check,
    f_injectivity_witness,
    f_stability,
    frobenius_annihilator,
    frobenius_colon_chain,
    is_f_injective_cm,
    is_f_stable_certified,
    socle_stability_search,
)

from helpers import (
    binary_form_ring,
    brute_force_socle_candidates,
    colon_cm_oracle,
    coordinate_hyperplanes_closure,
    diagonal_hypersurface,
    diagonal_verdicts,
    fedder_f_injective,
    hasse_witt_stable_dim,
    random_hypersurface,
    random_poly,
    random_small_ring,
    seeded,
    staircase_oracle,
)

ZOO = os.path.join(os.path.dirname(__file__), "..", "src", "frobstab", "zoo")
DATA = os.path.join(os.path.dirname(__file__), "data")


def make(p, names, degrees, relations, sop):
    F = PrimeField(p)
    R = PolyRing(F, names)
    return GradedRing(F, names, degrees, [R.parse(t) for t in relations], [R.parse(t) for t in sop])


@pytest.fixture
def lines2():
    return make(2, ("a", "b"), (1, 1), ["a*b"], ["a+b"])


@pytest.fixture
def lines3():
    return make(
        2,
        ("x", "y", "z"),
        (1, 1, 1),
        ["x*y", "x*z", "y*z"],
        ["x+y+z"],
    )


@pytest.fixture
def poly1():
    return make(2, ("a",), (1,), [], ["a"])


@pytest.fixture
def cusp():
    return make(2, ("a", "b"), (2, 3), ["b^2 - a^3"], ["a"])


# --- annihilator chains ---------------------------------------------------------


def test_chain_two_lines_socle_gives_m(lines2):
    # in the module ring, where the sop is T1 = a + b
    chain = frobenius_colon_chain(lines2, 1, lines2.ring.parse("a"))
    assert chain.status == CHAIN_STABILIZED
    assert chain.limit.equals(Ideal.parse(lines2.ring, ["a", "b", "T1"]))
    assert chain.descending_verified
    # brute-force cross-check of the first few colons
    for e in range(3):
        q = 2**e
        B = Ideal.parse(lines2.ring, [f"(a+b)^{q}", "a*b", "T1 - a - b"])
        C = B.colon(lines2.ring.parse("a") ** q)
        assert C.equals(chain.ideals[min(e, len(chain.ideals) - 1)])


def test_chain_colon_of_one_never_stabilizes(poly1):
    chain = frobenius_colon_chain(poly1, 1, poly1.ring.one())
    assert chain.status == CHAIN_NOT_STABILIZED
    assert chain.upper_bound_only
    # strictly descending powers (a), (a^2), (a^4), ..., with T1 = a
    for e, J in enumerate(chain.ideals):
        assert J.equals(Ideal.parse(poly1.ring, [f"a^{2**e}", "T1 - a"]))
        assert J.canonical_strings() == (["a + T1", f"T1^{2**e}"] if e else ["T1", "a"])
    assert chain.descending_verified


def test_chain_with_x_inside_ideal_is_unit(lines2):
    chain = frobenius_colon_chain(lines2, 1, lines2.ring.parse("a+b"))
    assert chain.status == CHAIN_STABILIZED
    assert chain.limit.is_unit_ideal()


def test_chain_monotone_in_the_numerator(lines2):
    # the limit for x divides into the limit for r*x whenever both stabilize
    rng = seeded(99)
    x = lines2.ring.parse("a")
    base = frobenius_colon_chain(lines2, 1, x)
    for _ in range(10):
        terms = {
            (rng.randint(0, 1), rng.randint(0, 1), 0): rng.randint(0, 1) for _ in range(2)
        }
        r = lines2.ring.from_dict(terms)
        if r.is_zero() or (r * x).is_zero():
            continue
        other = frobenius_colon_chain(lines2, 1, r * x)
        if base.status == other.status == CHAIN_STABILIZED:
            assert other.limit.contains_ideal(base.limit)


def test_f_ann_of_socle_class(lines2):
    lines2.check_cm()
    eta = CohomologyClass(lines2, 1, lines2.ring.parse("a"))
    chain = frobenius_annihilator(eta)
    assert chain.status == CHAIN_STABILIZED
    assert chain.limit.equals(lines2.maximal_ideal())


def test_f_ann_rejects_zero_class(lines2):
    lines2.check_cm()
    eta = CohomologyClass(lines2, 1, lines2.ring.parse("a+b"))
    with pytest.raises(InputError):
        frobenius_annihilator(eta)


# --- F-injectivity -----------------------------------------------------------------


def test_f_injective_classifications(lines2, lines3, poly1, cusp):
    for R in (lines2, lines3, poly1, cusp):
        R.check_cm()
    assert is_f_injective_cm(lines2) == (True, "certified")
    assert is_f_injective_cm(lines3) == (True, "certified")
    assert is_f_injective_cm(poly1) == (True, "certified")
    assert is_f_injective_cm(cusp) == (False, "certified")


def test_f_injectivity_witness_for_cusp(cusp):
    cusp.check_cm()
    w = f_injectivity_witness(cusp)
    assert w is not None
    # the witness is in the closure but not the ideal: its square falls
    # into the bracket power
    stored = Ideal.parse(cusp.ring, ["a", "b^2 - a^3"])
    assert not stored.contains(w)
    B = Ideal.parse(cusp.ring, ["a^2", "b^2 - a^3"])
    assert B.contains(w * w)


def _cubic(p, order):
    return make(p, order, (1, 1, 1), ["x^3 + y^3 + z^3"], ["x", "y"])


@pytest.mark.parametrize("order", [("z", "x", "y"), ("x", "y", "z")])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_f_injectivity_matches_fedder_on_the_cubic(p, order):
    # Fedder: the Fermat cubic is F-injective (F-pure) iff p = 1 mod 3
    R = _cubic(p, order)
    R.check_cm()
    assert is_f_injective_cm(R) == (p % 3 == 1, "certified")


def test_f_injective_requires_cm():
    bad = make(2, ("a", "b"), (1, 1), ["a^2", "a*b"], ["b"])
    bad.check_cm()
    with pytest.raises(NotSupportedError):
        is_f_injective_cm(bad)


# --- certified stability route ---------------------------------------------------------


def test_certified_route_zoo(lines2, lines3, poly1):
    for R, expected_dim in ((lines2, 1), (lines3, 2), (poly1, 0)):
        R.check_cm()
        verdict, dim, status = is_f_stable_certified(R)
        assert dim == expected_dim
        assert verdict == (dim > 0)
        assert status == "certified"


def test_certified_route_cusp_unstable(cusp):
    cusp.check_cm()
    verdict, dim, status = is_f_stable_certified(cusp)
    assert (verdict, dim, status) == (False, 0, "certified")


# --- socle search route -----------------------------------------------------------------


def test_socle_search_two_lines_finds_candidate(lines2):
    lines2.check_cm()
    report = socle_stability_search(lines2)
    assert report.found()
    cand = report.candidates[0]
    assert cand.level == 1
    assert cand.limit.equals(Ideal.parse(lines2.user_ring, ["a", "b"]))


def test_socle_search_poly_ring_finds_nothing(poly1):
    poly1.check_cm()
    report = socle_stability_search(poly1)
    assert not report.found()
    assert report.examined > 0


def test_socle_search_cusp_finds_nothing(cusp):
    cusp.check_cm()
    assert not socle_stability_search(cusp).found()
    # the verdict, not the search, says the ring is not F-injective
    assert f_stability(cusp).f_injective[0] is False


def _zoo_ring(name):
    with open(os.path.join(ZOO, name + ".json")) as fh:
        return GradedRing.from_dict(json.load(fh))


PARITY_ZOO = [
    "poly1_p2",
    "poly1_p3",
    "poly1_p5",
    "lines2_p2",
    "lines2_p3",
    "lines2_p5",
    "lines3_p2",
    "lines3_p3",
    "cusp_p2",
]
PARITY_EXTRA = {
    "cusp_p3": (3, ("a", "b"), (2, 3), ["b^2 - a^3"], ["a"]),
    "cusp_p5": (5, ("a", "b"), (2, 3), ["b^2 - a^3"], ["a"]),
    "cubic_zxy_p2": (2, ("z", "x", "y"), (1, 1, 1), ["x^3 + y^3 + z^3"], ["x", "y"]),
    # a cusp and a line through it: not F-injective, and each V_t holds a
    # class in the Frobenius closure of I_t beside one outside it
    "cusp_line_p2": (
        2, ("a", "b", "c"), (2, 3, 1), ["a*c", "b*c", "b^2 - a^3"], ["a + c^2"]
    ),
    # non-reduced and CM; of its two socle classes one leaves the socle
    # under Frobenius, so V^(e) has dimensions 2, 1, 1 and the socle route
    # reaches its fixpoint at e = 2
    "fixpoint_e2_p2": (
        2, ("a", "b", "c", "d"), (1, 1, 2, 2), ["a^4*d", "a*b", "b*d"], ["a^2 + b^2 + c", "c + d"]
    ),
}


ZOO_NAMES = sorted(f[:-5] for f in os.listdir(ZOO) if f.endswith(".json") and "_p" in f)
CUBICS = {
    f"cubic_{''.join(order)}_p{p}": (p, order)
    for order in (("z", "x", "y"), ("x", "y", "z"))
    for p in (2, 3, 5, 7)
}


def _parity_ring(name):
    if name in CUBICS:
        return _cubic(*CUBICS[name])
    return make(*PARITY_EXTRA[name]) if name in PARITY_EXTRA else _zoo_ring(name)


# --- the leads CM gate and the truncation bases it vouches for -------------------------

DATA_NAMES = sorted(f[:-5] for f in os.listdir(DATA) if f.endswith(".json"))
COMMITTED = [f"zoo:{name}" for name in ZOO_NAMES] + [f"data:{name}" for name in DATA_NAMES]
NOT_CM = {"a2_ab_p3": (3, ("a", "b"), (1, 1), ["a^2", "a*b"], ["b"])}


def _gate_ring(key):
    kind, name = key.split(":")
    if kind == "zoo":
        return _zoo_ring(name)
    if kind == "data":
        with open(os.path.join(DATA, name + ".json")) as fh:
            return GradedRing.from_dict(json.load(fh))
    return make(*{**PARITY_EXTRA, **NOT_CM}[name])


def _check_gate_against_colons(graded):
    status, witness = graded.check_cm()
    assert (status == "verified") == colon_cm_oracle(graded)
    assert (witness is None) == (status == "verified")
    if witness is not None:
        # in the user's ring the witness h breaks one colon: for some k,
        # h * theta_k lies in K + (theta_(k+1)..theta_d) and h does not
        h, user = graded.to_user(witness), graded.user_ring
        broken = []
        for k, x in enumerate(graded.user_sop):
            J = Ideal(user, list(graded.user_relations.gens) + list(graded.user_sop[k + 1 :]))
            broken.append(J.contains(h * x) and not J.contains(h))
        assert any(broken)


def _check_truncations_against_buchberger(graded):
    # the vouched basis G (terms T_i^t divides dropped) + T_i^t against a
    # Buchberger run on the generators K' + (T_i^t)
    for t in sorted({1, 2, graded.p}):
        gens = list(graded.relations.gens) + [T**t for T in graded.sop]
        expected = Ideal(graded.ring, gens).canonical_strings()
        assert graded.truncation_ideal(t).canonical_strings() == expected


GATE_RINGS = COMMITTED + [f"extra:{name}" for name in sorted(PARITY_EXTRA) + sorted(NOT_CM)]


@pytest.mark.parametrize("key", GATE_RINGS)
def test_leads_cm_gate_and_truncations_match_colons_and_buchberger(key):
    graded = _gate_ring(key)
    _check_gate_against_colons(graded)
    if graded.cm_status == "verified":
        _check_truncations_against_buchberger(graded)
    assert graded.cm_status == ("failed" if key in ("data:two_planes_p3", "extra:a2_ab_p3") else "verified")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_leads_cm_gate_and_truncations_on_small_rings(seed):
    try:
        graded = GradedRing.from_dict(random_small_ring(seed))
    except InputError:
        return  # the random sop does not cut the ring down to dimension zero
    _check_gate_against_colons(graded)
    if graded.cm_status == "verified":
        _check_truncations_against_buchberger(graded)


@pytest.mark.parametrize("key", COMMITTED)
def test_one_buchberger_run_per_ring_and_none_in_the_phases(monkeypatch, key):
    runs = []
    buchberger = groebner._buchberger

    def counted(ring, gens, *caps):
        runs.append(sorted(map(str, gens)))
        return buchberger(ring, gens, *caps)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    monkeypatch.setattr(groebner, "_cache_dir", None)
    groebner.clear_memory_cache()
    graded = _gate_ring(key)
    status, _witness = graded.check_cm()
    if status != "verified":
        # the sop check completes G and the T_i in a second run
        assert len(runs) == 2
        return
    assert runs == [sorted(map(str, graded.relations.gens))]
    is_f_injective_cm(graded)
    is_f_stable_certified(graded)

    def certified_route(*_args):
        raise AssertionError("the socle route must not use the certified route's carrier")

    # the two routes share level_one_socle() but stay independent
    monkeypatch.setattr(GradedRing, "degree_zero_piece", certified_route)
    monkeypatch.setattr(GradedRing, "frobenius_matrix", certified_route)
    socle_stability_search(graded)
    assert len(runs) == 1


@pytest.mark.parametrize("key", COMMITTED)
def test_each_truncation_level_and_whole_staircase_is_built_once_per_ring(monkeypatch, key):
    built, walked, walking = [], [], []
    ideal, walk = localcoh.Ideal, groebner._standard_monomials
    staircase = groebner.Ideal.staircase

    def counted_ideal(ring, gens=(), reduced=False):
        gens = list(gens)
        built.append((ring, gens))
        return ideal(ring, gens, reduced)

    def counted_staircase(self):
        walking.append(self)
        try:
            return staircase(self)
        finally:
            walking.pop()

    def counted_walk(ends):
        walked.append(walking[-1])
        return walk(ends)

    monkeypatch.setattr(localcoh, "Ideal", counted_ideal)
    monkeypatch.setattr(groebner.Ideal, "staircase", counted_staircase)
    monkeypatch.setattr(groebner, "_standard_monomials", counted_walk)
    graded = _gate_ring(key)
    if graded.check_cm()[0] == "verified":
        zoo_row(graded)
    else:
        with pytest.raises(NotSupportedError):
            zoo_row(graded)
    # a truncation ideal is the one ideal of S' with T_1^t among its generators
    n, p = graded.user_ring.nvars, graded.p
    levels = [
        g.lm()[n]
        for ring, gens in built
        if ring is graded.ring
        for g in gens
        if len(g.terms) == 1 and g.lm()[n] and not any(g.lm()[:n] + g.lm()[n + 1 :])
    ]
    assert set(Counter(levels).values()) == {1}
    for t in levels:
        assert graded.truncation_ideal(t) is graded.truncation_ideal(t)
    I_1 = graded.truncation_ideal(1)
    if graded.cm_status == "verified":
        # a verdict walks one staircase, I_1's whole one: F-injectivity's
        # socle, the a-invariant, the carrier and its lift, the socle route
        # and the component check share it.  The carrier builds no I_T of
        # its own; its images are reduced modulo I_pT
        assert walked == [I_1]
        powers = {p**e for e in range(1, max(levels).bit_length() + 1)}
        top = p * graded.degree_zero_piece().level
        assert {1, p} <= set(levels) <= {1, top} | powers
    else:
        assert walked == []
    assert I_1.staircase() is I_1.staircase()
    assert I_1.staircase().monomials == staircase_oracle(I_1)


def _check_carrier_against_staircase_oracle(graded):
    # the carrier at level T and its lift by T^((p-1)T) are the standard
    # monomials of I_T and of I_pT in degree t * sum deg(T_i), listed by
    # enumerate-and-filter over the box under the pure powers of each
    piece = graded.degree_zero_piece()
    t, p, degsum = piece.level, graded.p, graded.degree_sum()
    shift = (0,) * graded.user_ring.nvars + ((p - 1) * t,) * graded.dim
    lifted = tuple(mono_mul(b, shift) for b in piece.basis)
    assert piece.basis == staircase_oracle(graded.truncation_ideal(t), graded.weights, t * degsum)
    top = staircase_oracle(graded.truncation_ideal(p * t), graded.weights, p * t * degsum)
    assert lifted == top == graded._degree_zero_basis(p * t)
    return piece


@pytest.mark.parametrize("key", [k for k in COMMITTED if k != "data:two_planes_p3"])
def test_carrier_and_its_lift_match_the_staircase_oracle(key):
    graded = _gate_ring(key)
    assert graded.check_cm()[0] == "verified"
    piece = _check_carrier_against_staircase_oracle(graded)
    if key == "data:w16_p17":
        assert (piece.level, len(piece)) == (7, 7)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**6),
    # (n, d, p) of a hypersurface with a(R) = d - n > 0, so its carrier sits above level 1
    st.sampled_from([None, (3, 4, 2), (3, 5, 3), (3, 6, 5), (4, 5, 2), (4, 6, 3)]),
)
def test_carrier_and_its_lift_match_the_staircase_oracle_on_small_rings(seed, hypersurface):
    if hypersurface is None:
        data = random_small_ring(seed)
    else:
        data, _f = random_hypersurface(*hypersurface, seed)
    try:
        graded = GradedRing.from_dict(data)
    except InputError:
        return  # the random sop does not cut the ring down to dimension zero
    if graded.check_cm()[0] == "verified":
        _check_carrier_against_staircase_oracle(graded)


def test_ring_files_parse_in_the_user_ring():
    # one ring object, so ring checks on the inputs take the identity path
    for key in COMMITTED:
        graded = _gate_ring(key)
        inputs = [*graded.user_relations.gens, *graded.user_sop]
        assert all(f.ring is graded.user_ring for f in inputs)


# Fedder on hypersurfaces with the free variable z last, the order in which
# every bracket power once needed its own Buchberger run
FEDDER_TIER = [
    (3, 3, 2), (3, 3, 5), (3, 3, 7), (3, 4, 3), (3, 4, 5), (3, 5, 2), (3, 5, 3),
    (3, 6, 7), (4, 3, 2), (4, 3, 5), (4, 4, 3), (4, 4, 5), (4, 5, 5), (4, 5, 7),
]


@pytest.mark.parametrize("n,d,p", FEDDER_TIER, ids=lambda v: str(v))
def test_f_injectivity_matches_fedder_on_free_variable_last_hypersurfaces(n, d, p):
    ring, f = random_hypersurface(n, d, p, seed=100 * n + 10 * d + p)
    report = f_stability(GradedRing.from_dict(ring))
    assert report.f_injective == (fedder_f_injective(f, p), "certified")


@pytest.mark.parametrize("n,d,p", FEDDER_TIER, ids=lambda v: str(v))
def test_stable_dim_matches_hasse_witt_on_free_variable_last_hypersurfaces(n, d, p):
    ring, f = random_hypersurface(n, d, p, seed=100 * n + 10 * d + p)
    report = f_stability(GradedRing.from_dict(ring))
    assert report.stable_dim == hasse_witt_stable_dim(f, p)


# f = sum a_i x_i^d after a seeded linear change of coordinates, with the
# images of x_1..x_(n-1) as the sop: K' has dense generators, and the
# verdicts are read off the multinomial expansion of f^(p-1)
DIAGONAL_TIER = [(3, 3, 7), (3, 3, 5), (3, 4, 13), (4, 3, 5), (4, 4, 5), (4, 4, 7)]


@pytest.mark.parametrize("n,d,p", DIAGONAL_TIER, ids=lambda v: str(v))
def test_both_verdicts_match_the_closed_form_on_diagonal_hypersurfaces(n, d, p):
    ring, a = diagonal_hypersurface(n, d, p, seed=100 * n + 10 * d + p)
    f = {tuple(d * (i == j) for j in range(n)): c for i, c in enumerate(a)}
    f_injective, stable_dim = diagonal_verdicts(a, d, p)
    assert (fedder_f_injective(f, p), hasse_witt_stable_dim(f, p)) == (f_injective, stable_dim)
    report = f_stability(GradedRing.from_dict(ring))
    assert report.f_injective == (f_injective, "certified")
    assert report.stable_dim == stable_dim


def test_committed_hypersurface_is_the_fedder_tier_ring():
    ring, _f = random_hypersurface(4, 5, 7, seed=457)
    with open(os.path.join(DATA, "hypersurface_n4_d5_p7.json")) as fh:
        assert json.load(fh) == ring


@pytest.mark.parametrize("name", sorted(set(ZOO_NAMES) | set(PARITY_EXTRA) | set(CUBICS)))
def test_f_injectivity_matches_closure_test(name):
    graded = _parity_ring(name)
    graded.check_cm()
    ring, relations = graded.ring, graded.relations
    sop_ideal = Ideal(ring, graded.sop)
    verdict, _status = is_f_injective_cm(graded)
    assert verdict == is_frobenius_closed(sop_ideal, relations=relations)[0]
    w = f_injectivity_witness(graded)
    assert (w is None) == verdict
    if w is not None:
        I1 = graded.truncation_ideal(1)
        assert all(I1.contains(x * w) for x in ring.gens())  # in socle(R/I_1)
        assert not I1.contains(w)
        assert bracket_power(sop_ideal, 1, relations).contains(w.frobenius(1))


@pytest.mark.parametrize("name", PARITY_ZOO + sorted(PARITY_EXTRA))
def test_socle_search_matches_brute_force(name):
    graded = make(*PARITY_EXTRA[name]) if name in PARITY_EXTRA else _zoo_ring(name)
    graded.check_cm()
    report = socle_stability_search(graded)
    brute = brute_force_socle_candidates(graded, RunConfig())
    assert report.found() == bool(brute)
    assert all(c.level == 1 for c in report.candidates)
    # candidates are printed in the user's ring, the brute force runs in the module's
    assert {c.element for c in report.candidates} <= {graded.to_user(u) for u in brute}


@pytest.mark.parametrize("level", [2, 1, 3])
@pytest.mark.parametrize("name", PARITY_ZOO + sorted(PARITY_EXTRA))
def test_socle_candidate_chains_match_colon_chains(name, level):
    # the fixpoint claims C_e = m at every e; the colon loop checks it for
    # e <= s + 2, at level 1 and on the candidate's image (T_1...T_d)^(t-1) u
    # at level t, whose chain is the same because the T_i^q are regular;
    # the chains run in the module ring, the candidate is printed in the user's
    graded = make(*PARITY_EXTRA[name]) if name in PARITY_EXTRA else _zoo_ring(name)
    graded.check_cm()
    report = socle_stability_search(graded)
    e_max = report.examined + 2
    cfg = RunConfig(e_max=e_max, window=e_max)
    lift = graded.sop_product() ** (level - 1)
    user_m = Ideal(graded.user_ring, graded.user_ring.gens())
    for cand in report.candidates:
        u = graded.ring.from_other(cand.element)
        real = frobenius_colon_chain(graded, level, u * lift, cfg)
        assert len(real.ideals) == e_max + 1
        assert all(C.equals(graded.maximal_ideal()) for C in real.ideals)
        assert cand.to_json()["status"] == real.status == CHAIN_STABILIZED
        assert cand.limit.equals(user_m)
        assert cand.to_json()["limit"] == user_m.canonical_strings()


# Fedder: the Fermat cubic is ordinary (F-pure, stable_dim 1) iff p = 1
# mod 3.  The (x, y, z) order puts the sop variable x in the lead of the
# relation, so every bracket power there needs a real Buchberger run.
FEDDER_CUBICS = [
    pytest.param(p, ("z", "x", "y"), id=str(p))
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
] + [pytest.param(p, ("x", "y", "z"), id=f"xyz-{p}") for p in (7, 13, 43)]


@pytest.mark.parametrize("p,order", FEDDER_CUBICS)
def test_both_routes_match_fedder_on_the_noether_order_cubic(p, order):
    ordinary = p % 3 == 1
    report = f_stability(_cubic(p, order))
    assert report.f_injective == (ordinary, "certified")
    assert report.stable_dim == (1 if ordinary else 0)
    assert report.socle.found() == ordinary
    assert report.agreement is True


RECURRENCE_RINGS = {
    "cubic": (("z", "x", "y"), (1, 1, 1), ["x^3 + y^3 + z^3"], ["x", "y"]),
    "cycle4": (("a", "b", "c", "d"), (1, 1, 1, 1), ["a*c", "b*d"], ["a + c", "b + d"]),
    "cusp": (("a", "b"), (2, 3), ["b^2 - a^3"], ["a"]),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(RECURRENCE_RINGS)),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 2),
    st.integers(0, 10**6),
)
def test_frobenius_normal_forms_carry_forward(name, p, t, seed):
    # NF_{B_e}(NF_{B_(e-1)}(f^(p^(e-1)))^p) = NF_{B_e}(f^(p^e)), B_e = I^[p^e] + K:
    # the recurrence `_socle_fixpoint` builds its powers by
    graded = make(p, *RECURRENCE_RINGS[name])
    I = Ideal(graded.ring, [x**t for x in graded.sop])
    f = random_poly(graded.ring, seeded(seed))
    for e in (1, 2):
        prev = bracket_power(I, e - 1, graded.relations).normal_form(f.frobenius(e - 1))
        B = bracket_power(I, e, graded.relations)
        assert B.normal_form(prev.frobenius(1)) == B.normal_form(f.frobenius(e))


def test_socle_route_reduces_no_full_frobenius_power(monkeypatch):
    # each normal form starts from NF(r^(q/p))^p, whose z-degree is at most
    # 2p since z^3 leads the relation, never from r^q with its z^(2q)
    p = 43
    graded = _cubic(p, ("z", "x", "y"))
    graded.check_cm()
    original = Ideal.normal_form
    largest = []

    def budgeted(self, f):
        z = max((mono[0] for _c, mono in f.terms), default=0)
        assert z <= 2 * p, f"normal form of a polynomial with z^{z}"
        largest.append(z)
        return original(self, f)

    monkeypatch.setattr(Ideal, "normal_form", budgeted)
    assert socle_stability_search(graded).found()
    assert max(largest) == 2 * p


def _count_truncation_levels(monkeypatch):
    """The levels t of the `truncation_ideal` calls."""
    levels = []
    truncation_ideal = GradedRing.truncation_ideal

    def counted(self, t):
        levels.append(t)
        return truncation_ideal(self, t)

    monkeypatch.setattr(GradedRing, "truncation_ideal", counted)
    return levels


def test_socle_route_works_at_level_one_and_frobenius_exponent_one(monkeypatch):
    # on the cubic in order (x, y, z) the fixpoint comes at e = 1, so the
    # route reads socle(R/I_1) and the bracket power I_1^[p] = I_p and
    # nothing else
    with open(os.path.join(DATA, "cubic_xyz_p7.json")) as fh:
        graded = GradedRing.from_dict(json.load(fh))
    graded.check_cm()
    levels = []
    socle_of_truncation = GradedRing.socle_of_truncation

    def counted_socle(self, t):
        levels.append(t)
        return socle_of_truncation(self, t)

    monkeypatch.setattr(GradedRing, "socle_of_truncation", counted_socle)
    truncations = _count_truncation_levels(monkeypatch)
    report = socle_stability_search(graded)
    assert report.found() and report.examined == 1
    assert levels == [1]
    assert set(truncations) == {1, graded.p}


def test_socle_route_runs_to_the_fixpoint_past_e_one(monkeypatch):
    graded = _parity_ring("fixpoint_e2_p2")
    graded.check_cm()
    ring, relations = graded.ring, graded.relations
    I = Ideal(ring, graded.sop)
    reps = graded.socle_of_truncation(1)
    # V^(e) from the full powers r^q, without carrying normal forms forward
    columns = [{} for _ in reps]
    dims = [len(reps)]
    for e in (1, 2, 3):
        B = bracket_power(I, e, relations)
        for col, r in zip(columns, reps):
            for j, x in enumerate(ring.gens()):
                for c, mono in B.normal_form(x * r.frobenius(e)).terms:
                    col[(e, j, mono)] = c
        dims.append(len(kernel(rows_from_columns(columns, ring.field), ring.field, ncols=len(reps))))
    assert dims == [2, 1, 1, 1]
    truncations = _count_truncation_levels(monkeypatch)
    report = socle_stability_search(graded)
    assert max(truncations) == graded.p**2
    # Frobenius is nilpotent on that V^inf: the ring is not F-injective
    assert not report.found() and report.examined == 2
    assert is_f_injective_cm(graded) == (False, "certified")


def test_socle_route_requires_cm():
    bad = make(2, ("a", "b"), (1, 1), ["a^2", "a*b"], ["b"])
    bad.check_cm()
    with pytest.raises(NotSupportedError):
        socle_stability_search(bad)


def test_socle_search_reports_a_basis_per_level():
    # socle(R/I_t) = (a+b)^(t-1) * socle(R/I_1) on a CM ring, so one
    # level-1 basis is all there is
    graded = _zoo_ring("lines2_p5")
    graded.check_cm()
    report = socle_stability_search(graded)
    assert len(report.candidates) == 1
    assert [c.level for c in report.candidates] == [1]
    for c in report.candidates:
        assert c.to_json()["status"] == CHAIN_STABILIZED
        assert c.limit.equals(Ideal.parse(graded.user_ring, ["a", "b"]))


def test_missing_socle_candidate_on_an_f_injective_ring_raises(monkeypatch):
    # both routes are exact on an F-injective CM ring, so a positive
    # certified verdict without a candidate is a violation, not a miss
    graded = _zoo_ring("lines2_p2")

    def empty(graded):
        return stability.SocleSearchReport([], 0)

    monkeypatch.setattr(stability, "socle_stability_search", empty)
    with pytest.raises(InconsistencyError):
        f_stability(graded)


@pytest.mark.parametrize("name", ["w16_p17", "fermat4_p5"])
def test_disagreement_off_f_injective_rings_is_only_reported(name):
    # the stability equivalence needs an injective Frobenius action
    if name == "fermat4_p5":
        graded = make(5, ("x", "y", "z"), (1, 1, 1), ["x^4 + y^4 + z^4"], ["x", "y"])
    else:
        with open(os.path.join(DATA, name + ".json")) as fh:
            graded = GradedRing.from_dict(json.load(fh))
    report = f_stability(graded)
    assert report.f_injective == (False, "certified")
    assert report.certified_verdict and not report.socle.found()
    assert report.agreement is False


# --- combined verdicts ---------------------------------------------------------------------


def test_f_stability_agreement_zoo(lines2, lines3, poly1):
    for R, stable, dim in ((lines2, True, 1), (lines3, True, 2), (poly1, False, 0)):
        report = f_stability(R)
        assert report.agreement
        assert report.certified_verdict == stable
        assert report.stable_dim == dim
        assert report.socle.found() == stable


def test_f_stability_p3_lines3():
    R = make(
        3,
        ("x", "y", "z"),
        (1, 1, 1),
        ["x*y", "x*z", "y*z"],
        ["x+y+z"],
    )
    report = f_stability(R)
    assert report.agreement and report.certified_verdict and report.stable_dim == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_octahedron_matches_reisner_and_hochster(p):
    # F_p[a..f]/(ab, cd, ef) is the Stanley-Reisner ring of the octahedron
    # boundary, a 2-sphere, with the colour-class lsop a+b, c+d, e+f.
    # Reisner: a sphere is CM.  Stanley-Reisner rings are F-pure, hence
    # F-injective.  Hochster: stable_dim = dim H~^2(S^2; F_p) = 1.
    with open(os.path.join(DATA, "octahedron_p5.json")) as fh:
        data = dict(json.load(fh), char=p, name=f"octahedron_p{p}")
    graded = GradedRing.from_dict(data)
    assert graded.check_cm() == ("verified", None)
    report = f_stability(graded)
    assert report.f_injective == (True, "certified")
    assert report.certified_verdict and report.certified_status == "certified"
    assert report.stable_dim == 1
    assert report.agreement


# Shioda-Katsura: the Fermat curve x^n + y^n + z^n is ordinary at p = 1
# mod n (the stable part of Frobenius on H^1(O), the degree-zero piece of
# H^2_m, is the whole genus) and supersingular when some p^k = -1 mod n
# (Frobenius nilpotent there).  With sop (x, y), a(R) = n - 3 puts the
# carrier at level n - 2.
FERMAT_STABLE = [
    (4, 5, True), (4, 13, True), (4, 3, False), (4, 7, False),
    (5, 11, True), (5, 2, False), (5, 3, False), (5, 7, False),
    (6, 7, True), (6, 13, True), (6, 5, False),
]


@pytest.mark.parametrize("n,p,ordinary", FERMAT_STABLE)
def test_fermat_curve_stable_dim_matches_shioda_katsura(n, p, ordinary):
    R = make(p, ("x", "y", "z"), (1, 1, 1), [f"x^{n} + y^{n} + z^{n}"], ["x", "y"])
    R.check_cm()
    genus = (n - 1) * (n - 2) // 2
    piece = R.degree_zero_piece()
    assert len(piece) == genus
    assert piece.level == n - 2
    verdict, dim, status = is_f_stable_certified(R)
    assert status == "certified"
    assert dim == (genus if ordinary else 0)
    assert verdict == ordinary


def test_w16_carrier_at_level_seven():
    # z^2 = x^16 + y^16 with deg z = 8: the degree-zero dimensions by level
    # are 0, 0, 0, 1, 3, 5, 7, so three equal levels prove nothing.  The
    # curve w^2 = u^16 + 1 of genus 7 is a quotient of the Fermat curve of
    # degree 16, ordinary at p = 17 (Shioda-Katsura), so all 7 are stable.
    with open(os.path.join(DATA, "w16_p17.json")) as fh:
        graded = GradedRing.from_dict(json.load(fh))
    graded.check_cm()
    piece = graded.degree_zero_piece()
    assert piece.level == 7 and len(piece) == 7
    report = f_stability(graded)
    assert report.certified_status == "certified"
    assert report.certified_verdict and report.stable_dim == 7
    # a(R) = 6 > 0, so R is not F-injective (Fedder-Watanabe)
    assert report.f_injective == (False, "certified")


def test_stability_report_json_schema(lines2):
    data = f_stability(lines2).to_json()
    assert set(data) == {"ring", "f_injective", "f_stable", "sw_check"}
    assert data["sw_check"]["components"] == 2
    fs = data["f_stable"]
    assert fs["certified"] is True and fs["stable_dim"] == 1
    assert fs["agreement"] is True
    cand = fs["heuristic_candidates"][0]
    assert set(cand) == {"t", "u", "limit", "status"}
    assert cand["status"] == "stabilized"


# --- Frobenius-compatible closure -------------------------------------------------------


def _check_compatible(graded, J):
    # u*J inside J^[p], checked by Buchberger on the bracket power rather
    # than by the reduced p-th powers the closure itself reduces against
    ring = graded.user_ring
    u = ring.one()
    for f in graded.user_relations.gens:
        u = u * f
    u = u ** (graded.p - 1)
    assert J.contains_ideal(graded.user_relations)
    B = bracket_power(J, 1)
    assert all(B.contains(u * g) for g in J.gens)


def _closure(graded, gens):
    J = compatible_closure(graded, Ideal.parse(graded.user_ring, gens))
    _check_compatible(graded, J)
    return J


LINES2_CLOSURES = [
    (["a"], ["a"]),
    (["a*b"], ["a*b"]),
    (["a+b"], ["a", "b"]),
    (["b", "a^2"], ["a", "b"]),
    (["a*b", "a^3+b^3"], ["a", "b"]),
]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("gens,expected", LINES2_CLOSURES)
def test_compatible_closure_two_lines(p, gens, expected):
    graded = _zoo_ring(f"lines2_p{p}")
    J = _closure(graded, gens)
    assert J.equals(Ideal.parse(graded.user_ring, expected))


@pytest.mark.parametrize(
    "key,gens",
    [("zoo:cusp_p2", ["a"]), ("data:conic_p3", ["x"]), ("data:cubic_xyz_p7", ["x+y+z"])],
)
def test_compatible_closure_reaches_the_maximal_ideal(key, gens):
    graded = _gate_ring(key)
    J = _closure(graded, gens)
    assert J.equals(Ideal(graded.user_ring, graded.user_ring.gens()))


def test_compatible_closure_polynomial_ring_is_the_unit_ideal():
    # no relations: u = 1, and J inside J^[p] leaves only 0 and (1)
    J = _closure(_zoo_ring("poly1_p2"), ["a"])
    assert J.is_unit_ideal()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.sampled_from([2, 3, 5]),
    st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=1, max_size=3),
)
def test_compatible_closure_coordinate_hyperplanes_oracle(n, p, exponents):
    # F_p[x_1..x_n]/(x_1...x_n), sop x_1 + x_2 (, x_2 + x_3)
    names = ("x1", "x2", "x3")[:n]
    sop = ["x1 + x2", "x2 + x3"][: n - 1]
    graded = make(p, names, (1,) * n, ["*".join(names)], sop)
    ring = graded.user_ring
    monomials = [tuple(e[:n]) for e in exponents]
    J = compatible_closure(graded, Ideal(ring, [ring.monomial(e) for e in monomials]))
    _check_compatible(graded, J)
    expected = coordinate_hyperplanes_closure(monomials, n)
    assert J.equals(Ideal(ring, [ring.monomial(e) for e in expected]))


@pytest.mark.parametrize("key", ["zoo:lines3_p2", "data:two_planes_p3"])
def test_compatible_closure_needs_a_cm_complete_intersection(key):
    # three lines in 3-space need three relations, not n - d = 2; two
    # planes meeting in a point are not CM
    graded = _gate_ring(key)
    with pytest.raises(NotSupportedError):
        compatible_closure(graded, Ideal(graded.user_ring, graded.user_ring.gens()))


# --- component counts -------------------------------------------------------------------------


def _components(graded):
    out = f_stability(graded).components
    return out["components"], out["formula"], out["agree"]


def _check_against_a_second_basis(graded, count):
    """A = K + (theta - 1) from its own reduced basis in the user's ring:
    its standard monomials of degree 0 mod delta are as many as I_1's, and
    Frobenius on their span, by the coordinates of their p-th powers, has
    stable dimension `count`."""
    ring, (theta,), (delta,) = graded.user_ring, graded.user_sop, graded.sop_degrees()
    A = Ideal(ring, graded.user_relations.gens + (theta - ring.one(),))
    stair = A.staircase()
    zero = [mono_degree(b, graded.degrees) % delta == 0 for b in stair.monomials]
    columns = []
    for b, z in zip(stair.monomials, zero):
        if z:
            image = A.coordinates(ring.monomial(b).frobenius(1), stair)
            assert not any(c for c, w in zip(image, zero) if not w)
            columns.append([c for c, w in zip(image, zero) if w])
    stair_1 = graded.truncation_ideal(1).staircase().monomials
    assert len(columns) == sum(1 for b in stair_1 if mono_degree(b, graded.weights) % delta == 0)
    matrix = [list(row) for row in zip(*columns)]
    assert SemilinearOperator(ring.field, len(columns), matrix).stable_part().dim == count


def test_components_two_lines(lines2):
    assert _components(lines2) == (2, 2, True)


def test_components_three_lines(lines3):
    assert _components(lines3) == (3, 3, True)


def test_components_domain_polynomial_ring():
    assert _components(make(5, ("a",), (1,), [], ["a"])) == (1, 1, True)


def test_components_of_a_conic_split_only_over_f9():
    # x^2 + y^2 is prime over F_3 and two lines over F_9: two points of
    # Proj R over the algebraic closure, which the count sees and the
    # formula 1 + stable_dim agrees with
    assert _components(_gate_ring("data:conic_p3")) == (2, 2, True)


def test_components_of_a_non_reduced_ring_count_no_nilpotent():
    # on F_3[x,y]/(x^2 y) the nilpotent xy adds no point: the lines x = 0
    # and y = 0 are the two components
    graded = make(3, ("x", "y"), (1, 1), ["x^2*y"], ["x+y"])
    assert _components(graded) == (2, 2, True)


@pytest.mark.parametrize(
    "p,names,degrees,relation,sop,points,expected",
    [
        # b^2 = a^3 with deg a = 2, theta = a: A = K + (a - 1) has the
        # standard monomials 1 and b, b of odd degree, so (R_a)_0 is F_p
        # and the count is the one point of the cusp.  The whole of A has
        # the points b = +-1, two when p is odd; at p = 2 (cusp_p2) they
        # are one double point, and Frobenius on A finds one point as well
        (2, ("a", "b"), (2, 3), "b^2 - a^3", "a", 2, 1),
        (3, ("a", "b"), (2, 3), "b^2 - a^3", "a", 2, 1),
        (5, ("a", "b"), (2, 3), "b^2 - a^3", "a", 2, 1),
        # two lines with the sop a^2 + b^2 of degree 2: A has the four
        # points (+-1, 0), (0, +-1), and A_0 one per line
        (3, ("a", "b"), (1, 1), "a*b", "a^2 + b^2", 4, 2),
        (5, ("a", "b"), (1, 1), "a*b", "a^2 + b^2", 4, 2),
    ],
)
def test_components_keep_the_degree_zero_part_only(
    p, names, degrees, relation, sop, points, expected
):
    graded = make(p, names, degrees, [relation], [sop])
    ring = graded.user_ring
    A = Ideal(ring, graded.user_relations.gens + (graded.user_sop[0] - ring.one(),))
    assert len(A.staircase()) == points
    assert _components(graded) == (expected, expected, True)
    _check_against_a_second_basis(graded, expected)


BINARY_FORMS = [
    # (p, linear factors ((a, b), multiplicity) for a*x + b*y, non-residues n
    # for x^2 - n*y^2), with the expected count
    (7, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)], [6], 5),  # xy(x+y)(x^2+y^2)
    (3, [((1, 0), 2), ((0, 1), 1), ((1, 1), 1)], [], 3),  # x^2 y (x+y)
    (5, [((1, 0), 1)], [2, 3], 5),
    (11, [((1, 2), 3), ((1, 7), 1)], [2], 4),
    (2, [((1, 0), 1), ((0, 1), 2)], [], 2),
    (3, [], [2], 2),
]


@pytest.mark.parametrize("p,linear,quadratics,expected", BINARY_FORMS)
def test_components_match_the_binary_form_oracle(p, linear, quadratics, expected):
    ring, count = binary_form_ring(p, linear, quadratics)
    assert count == expected
    graded = GradedRing.from_dict(ring)
    assert _components(graded) == (count, count, True)
    _check_against_a_second_basis(graded, count)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_components_match_the_binary_form_oracle_on_random_forms(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    points = [(1, c) for c in range(p)] + [(0, 1)]
    # one F_p-point is left off f for theta
    chosen = data.draw(st.lists(st.sampled_from(points), max_size=min(p, 3), unique=True))
    linear = [(ab, data.draw(st.integers(1, 2))) for ab in chosen]
    residues = {c * c % p for c in range(1, p)}
    non_residues = [n for n in range(1, p) if n not in residues]
    quadratics = []
    if non_residues:
        quadratics = data.draw(st.lists(st.sampled_from(non_residues), max_size=2, unique=True))
    if not linear and not quadratics:
        linear = [((1, 0), 1)]
    ring, count = binary_form_ring(p, linear, quadratics)
    assert _components(GradedRing.from_dict(ring)) == (count, count, True)


def _count_buchberger_runs(monkeypatch):
    runs = []
    original = groebner._buchberger

    def counted(ring, gens, *caps):
        runs.append(ring)
        return original(ring, gens, *caps)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    groebner.clear_memory_cache()
    return runs


def _one_dimensional(key):
    kind, name = key.split(":")
    with open(os.path.join(ZOO if kind == "zoo" else DATA, name + ".json")) as fh:
        return len(json.load(fh)["sop"]) == 1


@pytest.mark.parametrize("key", [k for k in COMMITTED if _one_dimensional(k)])
def test_components_equal_one_plus_stable_dim_with_no_buchberger_run(key, monkeypatch):
    # every committed one-dimensional ring; the check reads K''s basis at
    # T = 1, which the CM gate has already computed
    graded = _gate_ring(key)
    graded.check_cm()
    stable_dim = is_f_stable_certified(graded)[1]
    runs = _count_buchberger_runs(monkeypatch)
    out = connected_components_check(graded, stable_dim)
    assert out == {"components": 1 + stable_dim, "formula": 1 + stable_dim, "agree": True}
    assert runs == []
    _check_against_a_second_basis(graded, out["components"])


def test_components_disagreement_raises(lines2):
    lines2.check_cm()
    with pytest.raises(InconsistencyError, match="geometric points"):
        connected_components_check(lines2, 0)


def test_components_validation_errors():
    # F_3[x,y]/(x^2, xy): the line x = 0 with an embedded point, so y is a
    # zero-divisor and the CM gate fails
    graded = make(3, ("x", "y"), (1, 1), ["x^2", "x*y"], ["y"])
    with pytest.raises(NotSupportedError, match="component check"):
        connected_components_check(graded, 0)


def test_components_rejects_higher_dimension():
    R = make(2, ("a", "b"), (1, 1), [], ["a", "b"])
    with pytest.raises(InputError):
        connected_components_check(R, 0)


def test_zoo_row_runs_each_phase_once(monkeypatch):
    calls = {}

    def counted(name):
        original = getattr(stability, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(stability, name, wrapper)

    names = ("is_f_injective_cm", "is_f_stable_certified", "connected_components_check")
    for name in names:
        counted(name)
    row = zoo_row(_zoo_ring("lines3_p3"), RunConfig())
    assert row["sw"] == {"components": 3, "formula": 3, "agree": True}
    assert calls == {name: 1 for name in names}


def _count_closures(monkeypatch):
    """Counts of `frobenius_closure` calls keyed by the closed ideal's
    generators, through the frobenius module or any frobstab module that
    imported it by name."""
    calls = Counter()
    original = frobenius.frobenius_closure

    def wrapper(I, *args, **kwargs):
        calls[tuple(str(g) for g in I.gens)] += 1
        return original(I, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("frobstab") and getattr(module, "frobenius_closure", None) is original:
            monkeypatch.setattr(module, "frobenius_closure", wrapper)
    return calls


@pytest.mark.parametrize("name", ["lines3_p3", "cusp_line_p2"])
def test_zoo_row_computes_no_frobenius_closure(monkeypatch, name):
    calls = _count_closures(monkeypatch)
    graded = _parity_ring(name)
    row = zoo_row(graded, RunConfig())
    assert row["f_injective"] is (name == "lines3_p3")
    assert row["f_injective_status"] == "certified"
    assert calls == {}


def test_ring_check_computes_no_frobenius_closure(monkeypatch):
    calls = _count_closures(monkeypatch)
    out = io.StringIO()
    argv = ["ring-check", "--ring", os.path.join(ZOO, "cusp_p2.json"), "--json"]
    assert main(argv, out=out) == 0
    assert json.loads(out.getvalue())["f_injective"]["witness"] == "b"
    assert calls == {}
