# Buchberger engine: reduced bases, normal forms, colon/intersection,
# staircases, socles, caching.

import json
import os
import signal
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

import frobstab.groebner as groebner
from frobstab.cli import zoo_row
from frobstab.config import RunConfig
from frobstab.errors import InputError, NotSupportedError, ResourceLimitError
from frobstab.field import PrimeField
from frobstab.groebner import (
    Ideal,
    clear_memory_cache,
    set_cache_dir,
    socle_basis,
)
from frobstab.localcoh import GradedRing
from frobstab.poly import GREVLEX, MonomialOrder, PolyRing, elim_order, mono_divides

from helpers import (
    MacaulayOracle,
    buchberger_oracle,
    dense_socle_oracle,
    random_poly,
    seeded,
    staircase_oracle,
)


ZOO = os.path.join(os.path.dirname(__file__), "..", "src", "frobstab", "zoo")
DATA = os.path.join(os.path.dirname(__file__), "data")


def ring(p=2, names=("a", "b"), order=GREVLEX):
    return PolyRing(PrimeField(p), names, order)


def ideal(texts, p=2, names=("a", "b"), order=GREVLEX):
    R = ring(p, names, order)
    return Ideal.parse(R, texts)


# --- groebner bases ------------------------------------------------------------


def test_gb_already_reduced():
    I = ideal(["a", "b"])
    assert I.canonical_strings() == ["b", "a"]


def test_gb_single_spair_reduces_to_zero():
    # the only S-polynomial of (a^2 + b, b^2) reduces to zero, so the
    # input is already the reduced basis
    I = ideal(["a^2 + b", "b^2"])
    assert sorted(I.canonical_strings()) == ["a^2 + b", "b^2"]
    oracle = MacaulayOracle(list(I.gens), 8)
    for g in I.groebner_basis():
        assert oracle.contains(g)


def test_gb_linear_row_reduction():
    I = ideal(["a+b", "a"])
    assert I.canonical_strings() == ["b", "a"]


def _mixed_generator_sets():
    # 200 random generator triples over F_3[x, y, z], each with a random
    # invertible mix of itself
    rng = seeded(90125)
    R = ring(3, ("x", "y", "z"))
    for trial in range(200):
        gens = []
        while len([g for g in gens if g]) < 2:
            gens = [random_poly(R, rng, max_terms=3, max_exp=2) for _ in range(3)]
        f, g, h = gens
        c = rng.randint(1, 2)
        mixed = [f.scale(c), g + f.scale(rng.randint(0, 2)), h + g.scale(rng.randint(0, 2))]
        yield Ideal(R, gens), Ideal(R, mixed)


def test_gb_uniqueness_under_generator_mixing():
    # random invertible mixes of the same generators give the same
    # reduced basis
    for I, mixed in _mixed_generator_sets():
        assert mixed.canonical_strings() == I.canonical_strings()


def test_gb_is_reduced():
    # every element is monic and no term of it is divisible by the lead
    # of another element
    clear_memory_cache()
    for pair in _mixed_generator_sets():
        for I in pair:
            gb = I.groebner_basis()
            for i, g in enumerate(gb):
                assert g.lc() == 1
                others = [h.lm() for j, h in enumerate(gb) if j != i]
                for _c, mono in g.terms:
                    assert not any(mono_divides(lead, mono) for lead in others), gb


def _count_buchberger_work(monkeypatch):
    """Counts of Buchberger runs, Gebauer-Moeller updates and
    interreductions, with the memory cache cleared and the disk cache off."""
    work = Counter()
    for name in ("_buchberger", "_update", "_interreduce"):

        def counted(*args, name=name, original=getattr(groebner, name)):
            work[name] += 1
            return original(*args)

        monkeypatch.setattr(groebner, name, counted)
    monkeypatch.setattr(groebner, "_cache_dir", None)
    clear_memory_cache()
    return work


def _ring_file(path):
    with open(path) as fh:
        return GradedRing.from_dict(json.load(fh))


@pytest.mark.parametrize("name", ["cubic_zxy_p43", "octahedron_p5"])
def test_zoo_row_builds_no_pair_queue_and_no_final_reduction(name, monkeypatch):
    # from the ring file to the row, the one Buchberger run is K' (in
    # GradedRing's own sop check), whose leads interreduce to coprime ones
    work = _count_buchberger_work(monkeypatch)
    zoo_row(_ring_file(os.path.join(DATA, name + ".json")), RunConfig())
    assert work == {"_buchberger": 1, "_interreduce": 1}


def _count_interreduce_normal_forms(monkeypatch):
    """Normal forms taken inside `_interreduce`, with the memory cache cleared."""
    count = Counter()
    inside = []

    def counted_nf(*args, original=groebner._normal_form_terms):
        count["normal_forms"] += bool(inside)
        return original(*args)

    def counted_interreduce(*args, original=groebner._interreduce):
        inside.append(True)
        try:
            return original(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(groebner, "_normal_form_terms", counted_nf)
    monkeypatch.setattr(groebner, "_interreduce", counted_interreduce)
    monkeypatch.setattr(groebner, "_cache_dir", None)
    clear_memory_cache()
    return count


def test_interreduce_stops_when_no_lead_moves(monkeypatch):
    # a+b reduces by b+c to a+2c: its tail moves, its lead stays, and b+c
    # is already reduced against a, so one pass of two normal forms ends it
    count = _count_interreduce_normal_forms(monkeypatch)
    R = ring(3, ("a", "b", "c"))
    out = groebner._interreduce([R.parse("a + b"), R.parse("b + c")], R)
    assert [str(g) for g in out] == ["a + 2*c", "b + c"]
    assert count["normal_forms"] == 2


# normal forms inside _interreduce for a verdict from the ring file, all of
# them K''s one run (the component check reads K''s basis and runs none); a
# whole further pass after every change took 12 and 6 on the last two
INTERREDUCE_NORMAL_FORMS = {"general_lines12_p13": 23, "octahedron_p5": 12, "w16_p17": 6}


@pytest.mark.parametrize("name", sorted(INTERREDUCE_NORMAL_FORMS))
def test_interreduce_normal_forms_per_verdict(name, monkeypatch):
    count = _count_interreduce_normal_forms(monkeypatch)
    zoo_row(_ring_file(os.path.join(DATA, name + ".json")), RunConfig())
    assert count["normal_forms"] == INTERREDUCE_NORMAL_FORMS[name]


# --- normal form and membership ---------------------------------------------------


@st.composite
def buchberger_cases(draw):
    """A random ideal of 1-3 generators with 1-3 terms of total degree at
    most 3, in 2-4 variables over F_2, F_3 or F_5, under grevlex or the
    elimination order that intersect and colon use."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 4))
    R = ring(p, ("a", "b", "c", "d")[:n], draw(st.sampled_from([GREVLEX, elim_order(1)])))
    monomial = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    terms = st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=3)
    return Ideal(R, [R.from_dict(t) for t in draw(st.lists(terms, min_size=1, max_size=3))])


@settings(max_examples=150, deadline=None)
@given(buchberger_cases())
# criterion B may drop a pair (i, j) for a new element h only when neither
# lcm(i, h) nor lcm(j, h) equals lcm(i, j); these two go wrong otherwise
@example(ideal(["b*c^2", "a^2*c + b", "a*b^2 + b*c"], 2, ("a", "b", "c")))
@example(ideal(["2*a*b^2", "2*b^2*c + b*c*d", "a^2*b + 2*a*c*d + c*d"], 3, ("a", "b", "c", "d"), elim_order(1)))
# the two early exits: K' of the Fermat cubic in order (z, x, y) interreduces
# to the coprime leads z^3, x, y; K' of three lines has leads x, y^2, y*z,
# z^2, and each S-polynomial it keeps reduces to zero
@example(ideal(["x^3 + y^3 + z^3", "T1 - x", "T2 - y"], 43, ("z", "x", "y", "T1", "T2")))
@example(ideal(["x*y", "x*z", "y*z", "T1 - x - y - z"], 3, ("x", "y", "z", "T1")))
def test_gb_matches_criterion_free_buchberger(I):
    assert I.canonical_strings() == buchberger_oracle(I)


def _spoly_calls(monkeypatch):
    """The (f, g) pairs `_spoly` receives, with the memory cache cleared."""
    calls = []

    def recorded(f, g, lcm, original=groebner._spoly):
        calls.append((f, g))
        return original(f, g, lcm)

    monkeypatch.setattr(groebner, "_spoly", recorded)
    clear_memory_cache()
    return calls


def test_no_spair_of_two_monomials_on_the_k_prime_of_six_lines(monkeypatch):
    # K' of six coordinate lines: 20 of the 40 pairs Gebauer-Moeller keeps
    # are pairs of two monomials x_i*x_j, whose S-polynomial is 0
    names = [f"x{i}" for i in range(6)]
    graded = GradedRing.from_dict(
        {
            "char": 2,
            "vars": names,
            "relations": [f"{a}*{b}" for i, a in enumerate(names) for b in names[i + 1 :]],
            "sop": ["+".join(names)],
        }
    )
    calls = _spoly_calls(monkeypatch)
    gb = Ideal(graded.ring, graded.relations.gens).groebner_basis()
    assert len(calls) == 20
    assert not any(len(f.terms) == 1 and len(g.terms) == 1 for f, g in calls)
    assert len(gb) == 16


@st.composite
def monomial_ideals(draw):
    """1-6 monomials of total degree at most 4 in 2-4 variables over F_3."""
    n = draw(st.integers(2, 4))
    R = ring(3, ("a", "b", "c", "d")[:n])
    monomial = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 4)
    return Ideal(R, [R.monomial(e) for e in draw(st.lists(monomial, min_size=1, max_size=6))])


@settings(max_examples=100, deadline=None)
@given(st.one_of(monomial_ideals(), buchberger_cases()))
def test_no_spair_of_two_monomials(I):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _spoly_calls(monkeypatch)
        assert I.canonical_strings() == buchberger_oracle(I)
    assert not any(len(f.terms) == 1 and len(g.terms) == 1 for f, g in calls)
    if all(len(g.terms) == 1 for g in I.gens):
        assert not calls


def test_gb_pair_budget_on_a_bracket_power():
    # the Fermat cubic's bracket power at q = 49 in order (x, y, z): the
    # Gebauer-Moeller update reduces 108 S-pairs, while pair bookkeeping
    # with only the coprime and chain tests reduces 1540 and hits the cap
    R = ring(7, ("x", "y", "z"))
    I = Ideal.parse(R, ["x^49", "y^49", "x^3 + y^3 + z^3"])
    assert len(I.groebner_basis(pair_cap=200)) == 56


def test_normal_form_example():
    I = ideal(["a^2 + b", "b^2"])
    R = I.ring
    assert I.normal_form(R.parse("a^2")) == R.parse("b")
    assert I.normal_form(R.parse("a^2 + b")).is_zero()
    assert I.normal_form(I.normal_form(R.parse("a^2"))) == I.normal_form(R.parse("a^2"))


def test_unit_stays_out_of_proper_ideal():
    I = ideal(["a", "b"])
    assert I.normal_form(I.ring.one()) == I.ring.one()


def test_membership_basics():
    I = ideal(["a"])
    R = I.ring
    assert I.contains(R.parse("a*b"))
    assert not I.contains(R.parse("a + b"))
    assert not ideal(["a^2"]).contains(R.parse("a"))


def test_ideal_equality():
    assert ideal(["a", "b"]).equals(ideal(["a+b", "b"]))
    assert not ideal(["a"]).equals(ideal(["a", "b"]))


def test_membership_matches_macaulay_oracle():
    rng = seeded(314159)
    R = ring(2, ("x", "y", "z"))
    for _ in range(40):
        gens = [random_poly(R, rng, max_terms=3, max_exp=2) for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        I = Ideal(R, gens)
        oracle = MacaulayOracle(gens, 8)
        for _ in range(8):
            f = random_poly(R, rng, max_terms=3, max_exp=2)
            if f.degree() <= 8:
                assert I.contains(f) == oracle.contains(f)


# --- colon ----------------------------------------------------------------------


def test_colon_examples():
    I = ideal(["a*b"])
    R = I.ring
    assert I.colon(R.parse("b")).equals(ideal(["a"]))
    assert ideal(["a"]).colon(R.one()).equals(ideal(["a"]))
    assert ideal(["a^2"]).colon(R.parse("a")).equals(ideal(["a"]))


def test_colon_contract_both_directions():
    rng = seeded(2718)
    R = ring(3, ("x", "y"))
    for _ in range(30):
        gens = [g for g in (random_poly(R, rng, 3, 2) for _ in range(2)) if g]
        f = random_poly(R, rng, 2, 2)
        if not gens or f.is_zero():
            continue
        I = Ideal(R, gens)
        C = I.colon(f)
        for c in C.gens:
            assert I.contains(c * f)  # f * (I : f) is inside I
        for _ in range(4):
            g = random_poly(R, rng, 3, 2)
            if I.contains(g * f):
                assert C.contains(g)


# --- intersection ------------------------------------------------------------------


def test_intersect_coprime_principal():
    assert ideal(["a"]).intersect(ideal(["b"])).equals(ideal(["a*b"]))


def test_intersect_idempotent():
    I = ideal(["a^2 + b", "b^2"])
    assert I.intersect(I).equals(I)


def test_intersect_derived_example_against_oracle():
    I = ideal(["a^2", "b"])
    J = ideal(["a"])
    got = I.intersect(J)
    expected = ideal(["a^2", "a*b"])
    assert got.equals(expected)
    # brute-force degree-bounded check in both directions
    oi = MacaulayOracle(list(I.gens), 8)
    oj = MacaulayOracle(list(J.gens), 8)
    for g in got.gens:
        assert oi.contains(g) and oj.contains(g)


def test_intersect_contained_in_both_random():
    rng = seeded(161803)
    R = ring(2, ("x", "y"))
    for _ in range(20):
        gi = [g for g in (random_poly(R, rng, 2, 2) for _ in range(2)) if g]
        gj = [g for g in (random_poly(R, rng, 2, 2) for _ in range(2)) if g]
        if not gi or not gj:
            continue
        I, J = Ideal(R, gi), Ideal(R, gj)
        K = I.intersect(J)
        for g in K.gens:
            assert I.contains(g) and J.contains(g)


# --- staircases -----------------------------------------------------------------


def test_staircase_full_quotient():
    I = ideal(["a^2", "b"])
    assert I.staircase().monomials == ((0, 0), (1, 0))


def test_staircase_infinite_quotient_rejected():
    with pytest.raises(NotSupportedError):
        ideal(["a"]).staircase()


@st.composite
def small_ideals(draw, artinian):
    """A random polynomial ideal in 1-3 variables; with `artinian`, plus a
    pure power of each variable."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    R = ring(p, ("a", "b", "c")[:n])
    monomial = st.tuples(*[st.integers(0, 3)] * n)
    polys = st.lists(st.dictionaries(monomial, st.integers(1, p - 1), max_size=3), max_size=3)
    gens = [R.from_dict(terms) for terms in draw(polys)]
    if artinian:
        powers = draw(st.tuples(*[st.integers(1, 4)] * n))
        gens += [R.monomial(tuple(k if j == i else 0 for j in range(n))) for i, k in enumerate(powers)]
    return Ideal(R, gens)


@settings(max_examples=150, deadline=None)
@given(small_ideals(artinian=True))
@example(ideal(["a^2", "a*b", "b^3"]))
@example(ideal(["1"]))
def test_staircase_matches_enumerate_and_filter(I):
    assert I.staircase().monomials == staircase_oracle(I)


@contextmanager
def _within(seconds):
    # a staircase whose work grew with the monomials of the degree would
    # list and hold hundreds of millions of tuples; stop it early instead
    def give_up(_signum, _frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_staircase_work_is_bounded_by_the_staircase():
    # the box under the pure powers x^60 in 8 variables holds 60^8 ~ 1.7e14
    # monomials, and only 1 + 8*59 lie outside the products x_i*x_j; the
    # walk sees about 8 times that many prefixes
    R = ring(2, tuple("abcdefgh"))
    xs = R.gens()
    gens = [x**60 for x in xs] + [x * y for i, x in enumerate(xs) for y in xs[i + 1 :]]
    with _within(2.0):
        assert len(Ideal(R, gens).staircase()) == 1 + 8 * 59


def test_staircase_six_variables_matches_enumerate_and_filter():
    # the octahedron's I_3 at p = 3
    R = ring(3, tuple("abcdef"))
    I = Ideal.parse(R, ["a*b", "c*d", "e*f", "(a+b)^3", "(c+d)^3", "(e+f)^3"])
    got = I.staircase().monomials
    assert got and got == staircase_oracle(I)


# --- socles ---------------------------------------------------------------------


def test_socle_examples():
    I = ideal(["a^2", "b"])
    got = socle_basis(I)
    assert [str(g) for g in got] == ["a"]
    assert [str(g) for g in socle_basis(ideal(["a", "b"]))] == ["1"]
    got3 = socle_basis(ideal(["a^2", "a*b", "b^2"]))
    assert sorted(str(g) for g in got3) == ["a", "b"]


def test_socle_contract():
    rng = seeded(808)
    R = ring(3, ("x", "y"))
    I = Ideal.parse(R, ["x^3", "y^2", "x^2*y"])
    reps = socle_basis(I)
    assert reps
    for s in reps:
        for v in R.gens():
            assert I.contains(v * s)
        assert not I.contains(s)
    # no nonzero constant combination of representatives is inside I
    import itertools

    for coeffs in itertools.product(range(3), repeat=len(reps)):
        if not any(coeffs):
            continue
        combo = R.zero()
        for c, s in zip(coeffs, reps):
            combo = combo + s.scale(c)
        assert not I.contains(combo)


COMMITTED_RING_FILES = [
    os.path.join(folder, f)
    for folder in (ZOO, DATA)
    for f in sorted(os.listdir(folder))
    if f.endswith(".json") and "_p" in f
]


@settings(max_examples=150, deadline=None)
@given(small_ideals(artinian=True))
def test_socle_matches_dense_matrix(case):
    # a drawn ideal with m generated by its variables, or I_1 of a
    # committed ring file with m generated by the user's variables, as the
    # F-injectivity criterion and the socle route take it
    if isinstance(case, Ideal):
        I, gens = case, None
    else:
        graded = _ring_file(case)
        I, gens = graded.truncation_ideal(1), graded.user_vars
    assert socle_basis(I, gens) == dense_socle_oracle(I, gens)


for _path in COMMITTED_RING_FILES:
    test_socle_matches_dense_matrix = example(_path)(test_socle_matches_dense_matrix)


def test_socle_takes_single_term_generators_only():
    R = ring(3, ("a", "b"))
    I = Ideal.parse(R, ["a^2", "b^2"])
    with pytest.raises(InputError, match="single-term"):
        socle_basis(I, [R.parse("a + b"), R.var("b")])
    assert socle_basis(I, [R.parse("2*a"), R.var("b")]) == socle_basis(I)


def test_socle_of_octahedron_truncation_matches_dense_matrix():
    # the octahedron's I_3 at p = 3, a six-variable staircase
    R = ring(3, tuple("abcdef"))
    I = Ideal.parse(R, ["a*b", "c*d", "e*f", "(a+b)^3", "(c+d)^3", "(e+f)^3"])
    got = socle_basis(I)
    assert got and got == dense_socle_oracle(I)


def test_socle_requires_artinian():
    with pytest.raises(NotSupportedError):
        socle_basis(ideal(["a"]))


# --- caps and cache ---------------------------------------------------------------


def test_pair_cap_fails_loudly():
    R = ring(3, ("x", "y", "z"))
    I = Ideal.parse(R, ["x^2*y - z^2", "y^2*z - x^2", "z^2*x - y^2"])
    msg = r"S-pair cap 2 exceeded in F_3\[x, y, z\] on 3 generators of top degree 3"
    with pytest.raises(ResourceLimitError, match=msg):
        I.groebner_basis(pair_cap=2)


def test_degree_cap_scales_with_input():
    # bracket-power-sized inputs must not trip the default cap
    R = ring(2, ("a", "b"))
    I = Ideal.parse(R, ["a^64", "a^3 + b^2"])
    gb = I.groebner_basis()
    assert gb  # completes


def test_disk_cache_round_trip(tmp_path):
    set_cache_dir(str(tmp_path))
    clear_memory_cache()
    try:
        I = ideal(["a^2 + b", "b^2"])
        first = I.canonical_strings()
        files = list(tmp_path.iterdir())
        assert files
        clear_memory_cache()
        J = ideal(["a^2 + b", "b^2"])
        assert J.canonical_strings() == first
    finally:
        set_cache_dir(None)
        clear_memory_cache()


def test_cache_keys_tell_weighted_orders_apart(tmp_path):
    # the generators print alike under both orders, but with deg z = 2 the
    # third basis element is led by z^3*y instead of z^2*y^3; a cache key
    # without the weights would hand the weighted ring the plain basis
    set_cache_dir(str(tmp_path))
    clear_memory_cache()
    gens = ["2*z^2*x^2 + z^2*y", "x^2*y^2 + 2*z*y"]
    common = ["x^2*y^2 + 2*z*y", "z^2*x^2 + 2*z^2*y"]
    try:
        plain = PolyRing(PrimeField(3), ("z", "x", "y"))
        weighted = PolyRing(PrimeField(3), ("z", "x", "y"), MonomialOrder("grevlex", weights=(2, 1, 1)))
        assert Ideal.parse(plain, gens).canonical_strings() == common + ["z^2*y^3 + 2*z^3*y"]
        for _ in range(2):  # computed, then read back from the disk
            assert Ideal.parse(weighted, gens).canonical_strings() == common + ["z^3*y + 2*z^2*y^3"]
            clear_memory_cache()
    finally:
        set_cache_dir(None)
        clear_memory_cache()


def test_memory_cache_takes_no_disk_key(monkeypatch):
    # with the disk cache off, no generator is printed or hashed
    def unused(*args):
        raise AssertionError("_cache_key called with the disk cache off")

    monkeypatch.setattr(groebner, "_cache_key", unused)
    monkeypatch.setattr(groebner, "_cache_dir", None)
    clear_memory_cache()
    with open(os.path.join(ZOO, "expectations.json")) as fh:
        expected = json.load(fh)["lines4_p5"]
    assert zoo_row(_ring_file(os.path.join(ZOO, "lines4_p5.json")), RunConfig()) == expected


def test_reordered_and_repeated_generators_share_a_memory_entry(monkeypatch):
    work = _count_buchberger_work(monkeypatch)
    R = ring(3, ("x", "y", "z"))
    f, g, h = R.parse("x^2 - y*z"), R.parse("y^2 - x*z"), R.parse("z^2 - x*y")
    first = Ideal(R, [f, g, h]).canonical_strings()
    assert Ideal(R, [h, f, g, f, h]).canonical_strings() == first
    assert Ideal(R, [g.scale(1), h, f]).canonical_strings() == first
    assert work["_buchberger"] == 1 and len(groebner._memory_cache) == 1


def test_memory_cache_tells_weighted_orders_apart(monkeypatch):
    # the rings of the disk test above, without clearing the memory cache
    # in between: the weighted ring must get its own entry
    work = _count_buchberger_work(monkeypatch)
    gens = ["2*z^2*x^2 + z^2*y", "x^2*y^2 + 2*z*y"]
    plain = PolyRing(PrimeField(3), ("z", "x", "y"))
    weighted = PolyRing(PrimeField(3), ("z", "x", "y"), MonomialOrder("grevlex", weights=(2, 1, 1)))
    assert Ideal.parse(plain, gens).canonical_strings()[-1] == "z^2*y^3 + 2*z^3*y"
    assert Ideal.parse(weighted, gens).canonical_strings()[-1] == "z^3*y + 2*z^2*y^3"
    assert work["_buchberger"] == 2 and len(groebner._memory_cache) == 2


def test_corrupt_disk_cache_is_ignored(tmp_path):
    set_cache_dir(str(tmp_path))
    clear_memory_cache()
    try:
        I = ideal(["a^2 + b", "b^2"])
        expected = I.canonical_strings()
        for f in tmp_path.iterdir():
            f.write_text('{"p": 2, "vars": ["a","b"], "order": ["grevlex", 0], '
                         '"gens": ["a"], "leads": ["a"]}')
        clear_memory_cache()
        J = ideal(["a^2 + b", "b^2"])
        assert J.canonical_strings() == expected
    finally:
        set_cache_dir(None)
        clear_memory_cache()
