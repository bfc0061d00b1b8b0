"""Pure-Python reference implementation of the polynomial term kernels.

A term list is a tuple of (coefficient, exponent-tuple) pairs, strictly
descending under the monomial order.  The order is passed in as a weight
matrix ``wm`` (tuple of int rows): the sort key of an exponent vector e is
the integer tuple wm @ e, compared lexicographically.  The rows of wm are
chosen by the order module so that keys are injective and additive
(key(a*b) = key(a) + key(b)), which is what lets products stay sorted.

The compiled kernel, built from the hand-written C file ``_speedups.c``,
implements the same three functions with identical results; parity is
enforced by tests.  It holds coefficients, exponents and keys in 64-bit
integers, so unlike this module it rejects malformed input: ValueError for
a term that is not a pair, an exponent tuple whose length is not the width
of wm, or p outside [2, 2^31); TypeError for a non-integer coefficient or
exponent; OverflowError for a value, key or product exponent past 64 bits;
ZeroDivisionError for a divisor with no terms or with a leading
coefficient divisible by p.
"""


def _key(e, wm):
    return tuple(sum(w[i] * e[i] for i in range(len(e))) for w in wm)


def _with_keys(terms, wm):
    return [(_key(e, wm), c, e) for c, e in terms]


def _strip_keys(kterms):
    return tuple((c, e) for _k, c, e in kterms)


def _merge(a, b, p):
    """Merge two key-descending term lists, adding coefficients mod p."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ka, kb = a[i][0], b[j][0]
        if ka > kb:
            out.append(a[i])
            i += 1
        elif ka < kb:
            out.append(b[j])
            j += 1
        else:
            c = (a[i][1] + b[j][1]) % p
            if c:
                out.append((ka, c, a[i][2]))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def add_terms(ta, tb, p, wm):
    """ta + tb in canonical form."""
    return _strip_keys(_merge(_with_keys(ta, wm), _with_keys(tb, wm), p))


def mul_terms(ta, tb, p, wm):
    """ta * tb in canonical form."""
    if not ta or not tb:
        return ()
    kb = _with_keys(tb, wm)
    runs = []
    for ca, ea in ta:
        ka = _key(ea, wm)
        run = []
        for k, c, e in kb:
            cc = (ca * c) % p
            if cc:
                run.append(
                    (
                        tuple(x + y for x, y in zip(ka, k)),
                        cc,
                        tuple(x + y for x, y in zip(ea, e)),
                    )
                )
        runs.append(run)
    while len(runs) > 1:
        nxt = [_merge(runs[i], runs[i + 1], p) for i in range(0, len(runs) - 1, 2)]
        if len(runs) % 2:
            nxt.append(runs[-1])
        runs = nxt
    return _strip_keys(runs[0])


def divmod_terms(tf, gs, p, wm, want_quotients=False):
    """Multivariate division of tf by the list gs.

    Returns (quotients, remainder); quotients is None unless requested.
    At each step the first divisor (in gs order) whose leading monomial
    divides the current lead term is used, so the run is deterministic.
    """
    kgs = [_with_keys(g, wm) for g in gs]
    leads = [(g[0][1], g[0][2]) for g in kgs]
    h = _with_keys(tf, wm)
    rem = []
    quots = [[] for _ in gs] if want_quotients else None
    while h:
        _kh, ch, eh = h[0]
        for i, (lc, le) in enumerate(leads):
            if all(x >= y for x, y in zip(eh, le)):
                mc = (ch * pow(lc, p - 2, p)) % p
                me = tuple(x - y for x, y in zip(eh, le))
                if want_quotients:
                    quots[i].append((mc, me))
                mk = _key(me, wm)
                nmc = (-mc) % p
                shifted = [
                    (
                        tuple(x + y for x, y in zip(mk, k)),
                        (nmc * c) % p,
                        tuple(x + y for x, y in zip(me, e)),
                    )
                    for k, c, e in kgs[i]
                ]
                h = _merge(h, shifted, p)
                break
        else:
            rem.append(h[0])
            h = h[1:]
    if want_quotients:
        return tuple(tuple(q) for q in quots), _strip_keys(rem)
    return None, _strip_keys(rem)
