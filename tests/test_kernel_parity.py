# The compiled kernels must agree with the pure-Python reference on
# every operation; when the extension is unavailable the suite still
# validates the reference against itself.

import pytest

from frobstab._kernel import _ref, implementation

try:
    from frobstab._kernel import _speedups
except ImportError:
    _speedups = None

from helpers import random_poly, seeded, small_ring

WM_GREVLEX3 = ((1, 1, 1), (0, 0, -1), (0, -1, 0), (-1, 0, 0))


def impls():
    if _speedups is None:
        pytest.skip("compiled kernel not built")
    return _ref, _speedups


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_parity_random_sweep(p):
    ref, fast = impls()
    ring = small_ring(p, ("x", "y", "z"))
    wm = ring._wm
    rng = seeded(999 + p)
    for _ in range(120):
        f = random_poly(ring, rng, max_terms=6, max_exp=5)
        g = random_poly(ring, rng, max_terms=6, max_exp=5)
        assert ref.add_terms(f.terms, g.terms, p, wm) == fast.add_terms(f.terms, g.terms, p, wm)
        assert ref.mul_terms(f.terms, g.terms, p, wm) == fast.mul_terms(f.terms, g.terms, p, wm)
        divisors = [d.terms for d in (f, g) if d]
        if divisors:
            h = random_poly(ring, rng, max_terms=8, max_exp=6)
            assert ref.divmod_terms(h.terms, divisors, p, wm, True) == fast.divmod_terms(
                h.terms, divisors, p, wm, True
            )


def test_parity_empty_inputs():
    ref, fast = impls()
    for impl in (ref, fast):
        assert impl.mul_terms((), ((1, (0, 0, 0)),), 5, WM_GREVLEX3) == ()
        assert impl.add_terms((), (), 5, WM_GREVLEX3) == ()
        assert impl.divmod_terms((), [((1, (1, 0, 0)),)], 5, WM_GREVLEX3, False) == (None, ())


def test_division_invariant_f_equals_qg_plus_r():
    ref, fast = impls()
    ring = small_ring(5, ("x", "y"))
    rng = seeded(4242)
    from frobstab.poly import Polynomial

    for impl in (ref, fast):
        for _ in range(60):
            f = random_poly(ring, rng, max_terms=6, max_exp=5)
            g = random_poly(ring, rng, max_terms=3, max_exp=2)
            if g.is_zero():
                continue
            q, r = impl.divmod_terms(f.terms, [g.terms], 5, ring._wm, True)
            qpoly = Polynomial(ring, q[0])
            rpoly = Polynomial(ring, r)
            assert qpoly * g + rpoly == f
            # no remainder term is divisible by the lead of g
            from frobstab.poly import mono_divides

            assert not any(mono_divides(g.lm(), e) for _c, e in rpoly.terms)


def test_active_implementation_reported():
    assert implementation() in ("c", "python")


# --- the compiled kernel's input checks and reference counts --------------------

WM_GREVLEX2 = ((1, 1), (0, -1))
GOOD = ((1, (1, 2)),)


def compiled():
    if _speedups is None:
        pytest.skip("compiled kernel not built")
    return _speedups


def with_each_kernel_function(terms, p=3, wm=WM_GREVLEX2):
    """Calls of the three kernel functions that read `terms` as a summand,
    a factor, a dividend and a divisor, before and after a good operand."""
    return [
        lambda k: k.add_terms(GOOD, terms, p, wm),
        lambda k: k.mul_terms(terms, GOOD, p, wm),
        lambda k: k.divmod_terms(terms, [GOOD], p, wm, True),
        lambda k: k.divmod_terms(GOOD, [GOOD, terms], p, wm, False),
    ]


BAD_INPUTS = [
    # a term that is not a (coefficient, exponents) pair
    (ValueError, ((1, (1, 2), 0),)),
    (ValueError, ((1,),)),
    (ValueError, (7,)),
    # exponents that are not a tuple as wide as the weight matrix; a short
    # tuple was once read past its end
    (ValueError, ((1, (1,)),)),
    (ValueError, ((1, (1, 2, 0)),)),
    (ValueError, ((1, 5),)),
    # a coefficient or exponent that is not an int (a float was once truncated)
    (TypeError, ((1.5, (1, 2)),)),
    (TypeError, ((1, (1.0, 2)),)),
    (TypeError, (("1", (1, 2)),)),
    # past 64 bits
    (OverflowError, ((2**64, (1, 2)),)),
    (OverflowError, ((-(2**64), (1, 2)),)),
    (OverflowError, ((1, (2**64, 0)),)),
]


@pytest.mark.parametrize("error, terms", BAD_INPUTS)
def test_compiled_kernel_rejects_malformed_terms(error, terms):
    fast = compiled()
    for call in with_each_kernel_function(terms):
        with pytest.raises(error):
            call(fast)


@pytest.mark.parametrize("p", [-3, 0, 1, 2**31, 2**80])
def test_compiled_kernel_rejects_p_outside_2_to_2_31(p):
    fast = compiled()
    for call in with_each_kernel_function(GOOD, p=p):
        with pytest.raises(ValueError):
            call(fast)
    # the ends of the range are accepted
    for p in (2, 3, 2**31 - 1):
        for call in with_each_kernel_function(GOOD, p=p):
            assert call(fast) == call(_ref)


def test_compiled_kernel_reports_keys_and_exponents_past_64_bits():
    fast = compiled()
    big = ((1, (2**62, 0)),)
    with pytest.raises(OverflowError):
        fast.add_terms(((1, (2**62, 2**62)),), (), 3, WM_GREVLEX2)
    with pytest.raises(OverflowError):
        fast.mul_terms(big, big, 3, WM_GREVLEX2)


def test_compiled_kernel_leaks_nothing():
    import gc
    import tracemalloc

    fast = compiled()
    ring = small_ring(5, ("x", "y", "z"))
    wm = ring._wm
    f = ring.parse("x^3 + 2*x*y*z + y^2 + 4*z + 1").terms
    g = ring.parse("x*y + 3*z^2 + 2").terms
    basis = [ring.parse(t).terms for t in ("x^2 - y", "y^2 - z")]
    big = ((1, (2**62, 0)),)
    calls = [
        lambda: fast.add_terms(f, g, 5, wm),
        lambda: fast.mul_terms(f, g, 5, wm),
        lambda: fast.divmod_terms(f, basis, 5, wm, False),
        lambda: fast.divmod_terms(f, basis, 5, wm, True),
        lambda: fast.divmod_terms(f, [], 5, wm, True),
    ]
    # every error path, some of them after buffers were filled
    failing = [
        *with_each_kernel_function(((1, (1, 2), 0),)),
        *with_each_kernel_function(((1, (1,)),)),
        *with_each_kernel_function(((1.5, (1, 2)),)),
        *with_each_kernel_function(((1, (2**64, 0)),)),
        *with_each_kernel_function(GOOD, p=1),
        lambda k: k.mul_terms(big, big, 3, WM_GREVLEX2),
        lambda k: k.divmod_terms(GOOD, [GOOD, ()], 3, WM_GREVLEX2, True),
        lambda k: k.divmod_terms(GOOD, [((3, (1, 0)),)], 3, WM_GREVLEX2, True),
    ]

    def raises(call):
        try:
            call(fast)
        except (ValueError, TypeError, OverflowError, ZeroDivisionError):
            return
        raise AssertionError("no error")

    calls += [lambda call=call: raises(call) for call in failing]
    for call in calls:
        for _ in range(100):
            call()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for call in calls:
            for _ in range(20_000):
                call()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one leaked object or buffer per call would be hundreds of kilobytes
    assert grown < 64 * 1024, grown
