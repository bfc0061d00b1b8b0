# Semilinear operators: stable/nil decomposition, socle chains, base change.

import pytest
from hypothesis import given, settings, strategies as st

from frobstab.field import ExtField, PrimeField
from frobstab.semilinear import SemilinearOperator, Subspace

from helpers import linear_stable_part, seeded

F2 = PrimeField(2)
F3 = PrimeField(3)


def op(field, matrix, twist=1):
    return SemilinearOperator(field, len(matrix), matrix, twist)


def random_operator(field, n, rng):
    els = list(field.elements())
    return op(field, [[rng.choice(els) for _ in range(n)] for _ in range(n)])


# --- apply ---------------------------------------------------------------------


def test_apply_identity_over_f2():
    A = op(F2, [[1, 0], [0, 1]])
    assert A.apply((1, 1)) == (1, 1)


def test_apply_zero_matrix():
    A = op(F3, [[0, 0], [0, 0]])
    assert A.apply((2, 1)) == (0, 0)


def test_apply_swap_with_coordinate_frobenius_over_f4():
    F4 = ExtField.of_order(2, 2)
    alpha = (0, 1)  # the class of x
    A = op(F4, [[F4.zero, F4.one], [F4.one, F4.zero]])
    got = A.apply((alpha, F4.zero))
    assert got == (F4.zero, F4.mul(alpha, alpha))


def test_semilinearity_spot_check():
    F4 = ExtField.of_order(2, 2)
    rng = seeded(441)
    els = list(F4.elements())
    A = random_operator(F4, 3, rng)
    for _ in range(50):
        v = tuple(rng.choice(els) for _ in range(3))
        w = tuple(rng.choice(els) for _ in range(3))
        c = rng.choice(els)
        assert A.apply(tuple(F4.add(x, y) for x, y in zip(v, w))) == tuple(
            F4.add(x, y) for x, y in zip(A.apply(v), A.apply(w))
        )
        cv = tuple(F4.mul(c, x) for x in v)
        assert A.apply(cv) == tuple(F4.mul(F4.frobenius(c), x) for x in A.apply(v))


# --- image spans -------------------------------------------------------------------


def test_image_span_identity_and_column_space():
    A = op(F2, [[1, 0], [0, 1]])
    W = A.full_space()
    assert A.image_span(W).rows == W.rows
    # nilpotent Jordan block: image is the span of e_1
    J = op(F2, [[0, 1], [0, 0]])
    assert A.full_space().rows
    assert J.image_span(J.full_space()).rows == ((1, 0),)


def test_image_span_equals_exhaustive_image_set():
    rng = seeded(27182)
    for _ in range(20):
        A = random_operator(F3, 3, rng)
        W = A.full_space()
        span = A.image_span(W)
        imgs = {A.apply(v) for v in W.vectors()}
        # set image of a subspace is a subspace over a perfect field
        spanned = set(span.vectors())
        assert imgs == spanned


# --- stable and nil parts ------------------------------------------------------------


def test_stable_part_identity_is_full():
    A = op(F3, [[1, 0], [0, 1]])
    assert A.stable_part().dim == 2


def test_stable_part_nilpotent_is_zero():
    A = op(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert A.stable_part().is_zero()
    assert A.nil_part().dim == 3


def test_stable_and_nil_parts_spec_example():
    A = op(F2, [[1, 1], [0, 0]])
    S = A.stable_part()
    assert S.rows == ((1, 0),)
    # exhaustive: the image is span{(1,0)} and it is stable under the map
    assert {A.apply(v) for v in A.full_space().vectors()} == {(0, 0), (1, 0)}
    N = A.nil_part()
    assert N.rows == ((1, 1),)
    assert A.apply((1, 1)) == (0, 0)


def test_invertible_has_zero_nil_part():
    A = op(F3, [[2, 1], [1, 1]])
    assert A.nil_part().is_zero()


@pytest.mark.parametrize("field", [F2, F3, ExtField.of_order(2, 2)])
def test_fitting_check_random_sweep(field):
    rng = seeded(1000 + field.p * 10)
    for _ in range(60):
        n = rng.randint(1, 4)
        A = random_operator(field, n, rng)
        report = A.fitting_check()
        assert report.ok, report.problems
        assert report.stable_dim + report.nil_dim == n


def test_stable_part_is_phi_invariant_and_injective_on_it():
    rng = seeded(321)
    for _ in range(40):
        A = random_operator(F2, 4, rng)
        S = A.stable_part()
        assert A.image_span(S).rows == S.rows
        assert A.kernel_space().intersect(S).is_zero()


def test_stable_part_of_an_invertible_operator_takes_one_image_span(monkeypatch):
    A = op(F3, [[2, 1, 0], [1, 1, 0], [0, 1, 1]])
    calls = []
    image_span = SemilinearOperator.image_span

    def counted(self, W):
        calls.append(W.dim)
        return image_span(self, W)

    monkeypatch.setattr(SemilinearOperator, "image_span", counted)
    assert A.stable_part().rows == A.full_space().rows
    assert calls == [3]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.data())
def test_stable_part_is_the_column_span_of_the_nth_power(p, n, data):
    entries = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    matrix = data.draw(st.lists(entries, min_size=n, max_size=n))
    assert op(PrimeField(p), matrix).stable_part().rows == tuple(linear_stable_part(matrix, p))


# --- socle chains ---------------------------------------------------------------------


def test_socle_chain_identity_constant():
    A = op(F2, [[1, 0], [0, 1]])
    S = Subspace.from_vectors(F2, 2, [(1, 0)])
    rep = A.socle_chain(S)
    assert rep.limit_dim == 1
    assert all(d == 1 for d in rep.dims)


def test_socle_chain_nilpotent_dies():
    A = op(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    rep = A.socle_chain(A.full_space())
    assert rep.limit_dim == 0


def test_socle_chain_spec_example():
    A = op(F2, [[1, 1], [0, 0]])
    S = Subspace.from_vectors(F2, 2, [(1, 0)])
    rep = A.socle_chain(S)
    assert rep.limit_dim == 1
    assert rep.claim_holds


# --- stable socle elements --------------------------------------------------------------


def test_find_stable_socle_identity():
    A = op(F3, [[1, 0], [0, 1]])
    S = Subspace.from_vectors(F3, 2, [(1, 2)])
    res = A.find_stable_socle_element(S)
    assert res.found() and S.contains(res.witness)


def test_find_stable_socle_none_when_socle_escapes():
    # e_1 -> e_2 -> 0 escape: S = span{e_1}, image leaves S forever
    A = op(F2, [[0, 0], [1, 0]])
    S = Subspace.from_vectors(F2, 2, [(1, 0)])
    res = A.find_stable_socle_element(S)
    assert not res.found()


def brute_force_has_stable_vector(A, S):
    # exhaustive orbit check over the finite vector space
    for v in S.vectors():
        if all(x == A.field.zero for x in v):
            continue
        w = v
        ok = True
        seen = set()
        while w not in seen:
            seen.add(w)
            w = A.apply(w)
            if not S.contains(w):
                ok = False
                break
        if ok:
            return True
    return False


@pytest.mark.parametrize("field", [F2, F3, ExtField.of_order(2, 2)])
def test_existence_matches_chain_limit_for_injective_ops(field):
    # the existence statement: for injective operators and socle-like
    # subspaces (closed under preimages), a stable socle vector exists
    # iff the chain limit dimension is positive.  Verified against orbit
    # enumeration.
    rng = seeded(777 + field.p)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 3)
        A = random_operator(field, n, rng)
        if not A.is_injective():
            continue
        vecs = [tuple(rng.choice(list(field.elements())) for _ in range(n)) for _ in range(2)]
        S = A.preimage_closure(Subspace.from_vectors(field, n, vecs))
        res = A.find_stable_socle_element(S)
        chain = A.socle_chain(S)
        assert chain.claim_holds
        assert res.found() == (chain.limit_dim > 0)
        assert res.found() == brute_force_has_stable_vector(A, S)
        if res.found():
            w = res.witness
            for _ in range(2 * n + 2):
                assert S.contains(w)
                w = A.apply(w)
        checked += 1


def test_arbitrary_subspaces_can_break_the_existence_statement():
    # without preimage-closedness the chain can cycle through nonzero
    # intersections while no single vector's orbit stays inside S; the
    # find/chain answers must then disagree honestly (find is exact)
    rng = seeded(780)
    found_gap = False
    for _ in range(300):
        n = rng.randint(2, 3)
        A = random_operator(F3, n, rng)
        if not A.is_injective():
            continue
        vecs = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2)]
        S = Subspace.from_vectors(F3, n, vecs)
        res = A.find_stable_socle_element(S)
        assert res.found() == brute_force_has_stable_vector(A, S)
        if A.socle_chain(S).limit_dim > 0 and not res.found():
            found_gap = True
            break
    assert found_gap


# --- base change -----------------------------------------------------------------------


def test_base_change_identity_and_nilpotent():
    A = op(F2, [[1, 0], [0, 1]])
    B = A.base_change(2)
    assert B.stable_part().dim == A.stable_part().dim == 2
    N = op(F2, [[0, 1], [0, 0]]).base_change(3)
    assert N.stable_part().dim == 0


def test_base_change_preserves_stable_dimension_random():
    rng = seeded(2025)
    for _ in range(60):
        n = rng.randint(1, 4)
        A = random_operator(F2, n, rng)
        d = A.stable_part().dim
        assert A.base_change(2).stable_part().dim == d
        assert A.base_change(3).stable_part().dim == d


# --- exact sequence harness ----------------------------------------------------------------


def test_exact_sequence_dimensions_block_triangular():
    # 0 -> N -> M -> L -> 0 with L-action injective:
    # dim N_s <= dim M_s <= dim N_s + dim L_s and N_s = N cap M_s
    rng = seeded(909)
    trials = 0
    while trials < 40:
        k, m = rng.randint(1, 2), rng.randint(1, 2)
        n = k + m
        A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        for r in range(k, n):
            for c in range(k):
                A[r][c] = 0
        M = op(F2, A)
        D = [[A[r][c] for c in range(k, n)] for r in range(k, n)]
        L = op(F2, D)
        if not L.is_injective():
            continue
        B = [[A[r][c] for c in range(k)] for r in range(k)]
        N = op(F2, B)
        ms = M.stable_part()
        ns = N.stable_part()
        ls = L.stable_part()
        assert ns.dim <= ms.dim <= ns.dim + ls.dim
        # N cap M_s equals the stable part of the restriction
        Nspace = Subspace.from_vectors(
            F2, n, [tuple(1 if i == j else 0 for i in range(n)) for j in range(k)]
        )
        inter = Nspace.intersect(ms)
        embedded_ns = Subspace.from_vectors(
            F2, n, [tuple(list(r) + [0] * m) for r in ns.rows]
        )
        assert inter.rows == embedded_ns.rows
        # the projection of M_s to L lands inside L_s
        for row in ms.rows:
            proj = row[k:]
            if any(proj):
                assert ls.contains(proj)
        trials += 1


def test_json_round_trip():
    A = op(F3, [[1, 2], [0, 1]])
    data = A.to_json()
    B = SemilinearOperator.from_json(data)
    assert B.matrix == A.matrix and B.twist == A.twist and B.field == A.field
