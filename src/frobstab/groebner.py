"""Buchberger engine and the ideal-theoretic toolkit.

Everything downstream (bracket powers, closures, truncation quotients,
annihilator chains) reduces to the operations here: reduced Groebner
bases, normal forms, colon ideals, intersections (by elimination),
staircase bases and socles.

The Buchberger loop uses the normal selection strategy (smallest lcm in
the monomial order first) and the Gebauer-Moeller update (Gebauer and
Moeller 1988, in the form of Becker and Weispfenning's UPDATE): when an
element joins the basis, criterion B drops the old pairs it makes
redundant, criteria M and F and the product criterion filter its new
pairs, and elements whose leads its lead divides are no longer paired.
Each element's lead and each pair's lcm are computed once.  The loop is
deterministic, and the reduced basis it returns is the unique one for
the ring's order, so ideal equality is a string comparison of canonical
forms.  Resource caps fail loudly instead of degrading the answer.

The input is interreduced first: monic, no term of an element divisible
by another's lead, and sorted ascending by lead.  A further pass of the
interreduction runs only when the last one moved a lead.  The same
routine ends the run when the pair loop joined an element: on a Groebner
basis the non-minimal elements reduce to 0 and the minimal ones keep
their leads, so one pass gives the reduced basis.  The engine skips work
in three cases, all exact.  When no variable divides two of its leads,
the product criterion drops every pair, and no pair queue is built.
When every S-polynomial reduces to zero, the input is a basis already
reduced, and the reduced basis is unique, so no final interreduction
runs.  No pair of two monomials is queued: its S-polynomial is exactly
0, so leaving it out keeps criterion B sound.

Bases are cached in memory for the process, keyed by the ring and the set
of the generators' term tuples, so reordered or repeated generators share
an entry and nothing is printed or hashed.  The on-disk cache that
`set_cache_dir` turns on names its files by a SHA-256 of the printed
generators (`_cache_key`), which is computed only while it is on.

Staircases (the standard monomials of an Artinian quotient) are grown
from the order ideal by a depth-first walk over exponent prefixes that
stops at the first prefix a lead divides, so their cost is about nvars
times the number of standard prefixes, never the size of the box under
the pure powers; they need no cap.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property

from . import _kernel
from .errors import InputError, NotSupportedError, ResourceLimitError
from .poly import (
    Polynomial,
    PolyRing,
    elim_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_PAIR_CAP = 100_000
DEFAULT_DEGREE_CAP = 64

# --- GB cache ----------------------------------------------------------------

_memory_cache = {}
_cache_dir = None


def set_cache_dir(path):
    """Enable (or with None disable) the on-disk GB cache.

    Only the library reaches it, not the command line.  It stays until the
    benchmark's `warm-cache` workload is retired (ROADMAP item 4)."""
    global _cache_dir
    _cache_dir = path
    if path:
        os.makedirs(path, exist_ok=True)


def clear_memory_cache():
    _memory_cache.clear()


def _order_key(ring):
    return [ring.order.kind, ring.order.block, list(ring.order.weights or ())]


def _cache_key(ring, gens):
    payload = json.dumps(
        {
            "p": ring.p,
            "vars": list(ring.names),
            "order": _order_key(ring),
            "gens": sorted(str(g) for g in gens),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _disk_load(ring, gens, key):
    path = os.path.join(_cache_dir, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
        if (
            data["p"] != ring.p
            or data["vars"] != list(ring.names)
            or data["order"] != _order_key(ring)
        ):
            return None
        gb = tuple(ring.parse(s) for s in data["gens"])
    except (OSError, ValueError, KeyError, InputError):
        return None
    # fast re-check before trusting the file: the cached basis must be
    # monic with matching stored leading terms, and every original
    # generator must reduce to zero against it
    if any(g.is_zero() or g.lc() != 1 for g in gb):
        return None
    if data.get("leads") != [str(Polynomial(ring, (g.lt(),))) for g in gb]:
        return None
    gb_terms = [g.terms for g in gb]
    for g in gens:
        _q, r = _kernel.divmod_terms(g.terms, gb_terms, ring.p, ring._wm, False)
        if r:
            return None
    return gb


def _disk_store(ring, gb, key):
    path = os.path.join(_cache_dir, key + ".json")
    data = {
        "p": ring.p,
        "vars": list(ring.names),
        "order": _order_key(ring),
        "gens": [str(g) for g in gb],
        "leads": [str(Polynomial(ring, (g.lt(),))) for g in gb],
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


# --- Buchberger ---------------------------------------------------------------


def _spoly(f, g, lcm):
    return f.shift(1, mono_div(lcm, f.lm())) - g.shift(1, mono_div(lcm, g.lm()))


def _normal_form_terms(terms, basis_terms, ring):
    if not basis_terms:
        return terms
    _q, r = _kernel.divmod_terms(terms, basis_terms, ring.p, ring._wm, False)
    return r


def _interreduce(gens, ring):
    # mutual pre-reduction; hugely shrinks bracket-power inputs against
    # quotient relations before any S-pair is formed.  Each element is
    # reduced against the current others; an element reduced in a pass
    # whose leads stay put has no term divisible by the final leads, so
    # only a moved lead calls for another pass
    terms = [g.monic().terms for g in gens if g]
    moved = True
    while moved and len(terms) > 1:
        moved = False
        i = 0
        while i < len(terms):
            r = _normal_form_terms(terms[i], terms[:i] + terms[i + 1 :], ring)
            if not r:
                del terms[i]
                continue
            if r != terms[i]:
                moved = moved or r[0][1] != terms[i][0][1]
                terms[i] = Polynomial(ring, r).monic().terms
            i += 1
    return [Polynomial(ring, t) for t in terms]


def _buchberger(ring, gens, pair_cap):
    import heapq

    # interreduced elements have distinct leads, so the sort needs no tie-break
    G = sorted(_interreduce(gens, ring), key=lambda g: ring.key(g.lm()))
    if not G:
        return ()
    # G is monic, interreduced and ascending, so once it is a basis it is
    # the reduced one.  With pairwise coprime leads (no variable divides
    # two of them) the product criterion drops every pair, so it is a
    # basis already
    leads = [g.lm() for g in G]
    if all(sum(1 for lead in leads if lead[i]) <= 1 for i in range(ring.nvars)):
        return tuple(G)
    # the cap guards against runaway growth, not against legitimately
    # large inputs such as bracket powers or the (f) and (g) of a gcd: an
    # S-polynomial of two inputs has degree up to the sum of theirs
    top, second = heapq.nlargest(2, (g.degree() for g in G))
    eff_cap = max(DEFAULT_DEGREE_CAP, 2 * (top + second) + 4)
    # normal selection strategy: smallest lcm in the order first, with the
    # pair index as a deterministic tie-break; keys are computed once.
    # `pairs` maps each live pair to its lcm, and a heap entry whose pair
    # an update has dropped is skipped when popped
    gb_terms = [g.terms for g in G]
    given = len(G)
    active = []
    pairs = {}
    heap = []

    def join(t):
        single = len(gb_terms[t]) == 1
        for k, lcm in _update(leads, active, pairs, t):
            if single and len(gb_terms[k]) == 1:
                continue  # the S-polynomial of two monomials is 0
            pairs[k, t] = lcm
            heapq.heappush(heap, (ring.key(lcm), k, t))

    for t in range(len(G)):
        join(t)
    processed = 0
    while pairs:
        _key, i, j = heapq.heappop(heap)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue
        processed += 1
        if processed > pair_cap:
            raise _limit_error(f"S-pair cap {pair_cap} exceeded", ring, gens)
        s = _spoly(G[i], G[j], lcm)
        if s.degree() > eff_cap:
            raise _limit_error(
                f"S-polynomial degree {s.degree()} exceeds cap {eff_cap}", ring, gens
            )
        r = Polynomial(ring, _normal_form_terms(s.terms, gb_terms, ring))
        if r.is_zero():
            continue
        if r.degree() > eff_cap:
            raise _limit_error(
                f"remainder degree {r.degree()} exceeds cap {eff_cap}", ring, gens
            )
        G.append(r.monic())
        gb_terms.append(G[-1].terms)
        leads.append(G[-1].lm())
        join(len(G) - 1)
    if len(G) == given:
        return tuple(G)  # every S-polynomial reduced to zero
    return tuple(sorted(_interreduce(G, ring), key=lambda g: ring.key(g.lm())))


def _update(leads, active, pairs, t):
    """Gebauer-Moeller update (Becker-Weispfenning's UPDATE) for the new
    element t: drops the live pairs that criterion B makes redundant,
    returns the new pairs (k, t) with their lcms, and stops pairing the
    `active` elements whose leads t's lead divides.

    Of the candidates (k, t) for active k, one pair is kept per lcm that no
    other candidate's lcm properly divides (criteria M and F), a coprime
    one when that lcm has one; the product criterion then drops the coprime
    ones.  A proper divisor has smaller total degree, so in ascending
    degree every minimal lcm comes before its multiples.
    """
    lt = leads[t]
    for (i, j), lcm in list(pairs.items()):
        if (
            mono_divides(lt, lcm)
            and mono_lcm(leads[i], lt) != lcm
            and mono_lcm(leads[j], lt) != lcm
        ):
            del pairs[i, j]
    classes = {}
    degree = sum(lt)
    for k in active:
        lcm = mono_lcm(leads[k], lt)
        # the lcm divides the product, so they are equal when degrees agree
        coprime = sum(lcm) == sum(leads[k]) + degree
        if coprime or lcm not in classes:
            classes[lcm] = (k, coprime)
    minimal = []
    for lcm in sorted(classes, key=sum):
        if not any(mono_divides(m, lcm) for m in minimal):
            minimal.append(lcm)
    new = [(classes[lcm][0], lcm) for lcm in minimal if not classes[lcm][1]]
    active[:] = [k for k in active if not mono_divides(lt, leads[k])]
    active.append(t)
    return new


def _limit_error(message, ring, gens):
    top = max(g.degree() for g in gens)
    return ResourceLimitError(
        f"{message} in F_{ring.p}[{', '.join(ring.names)}] "
        f"on {len(gens)} generators of top degree {top}"
    )


# --- staircases ---------------------------------------------------------------


@dataclass(frozen=True)
class StaircaseBasis:
    """Monomials outside the leading-term ideal, ascending in the order."""

    ring: PolyRing
    monomials: tuple

    def __len__(self):
        return len(self.monomials)

    @cached_property
    def index(self):
        """Position of each monomial, built once per basis."""
        return {m: i for i, m in enumerate(self.monomials)}


class Ideal:
    """An ideal with a lazily computed, cached reduced Groebner basis, or
    with `reduced` the caller's word that `gens` is it (nothing checks)."""

    __slots__ = ("ring", "gens", "_gb", "_stair")

    def __init__(self, ring, gens=(), reduced=False):
        self.ring = ring
        seen = set()
        kept = []
        for g in gens:
            if g.ring != ring:
                raise InputError("generator from a different ring")
            if g.is_zero() or g.terms in seen:
                continue
            seen.add(g.terms)
            kept.append(g)
        self.gens = tuple(kept)
        self._gb = tuple(sorted(kept, key=lambda g: (ring.key(g.lm()), g.terms))) if reduced else None
        self._stair = None

    @classmethod
    def parse(cls, ring, texts):
        return cls(ring, [ring.parse(t) for t in texts])

    def __repr__(self):
        return f"Ideal({', '.join(map(str, self.gens)) or '0'})"

    def is_unit_ideal(self):
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0] == self.ring.one()

    # --- groebner basis -------------------------------------------------------

    def groebner_basis(self, pair_cap=DEFAULT_PAIR_CAP):
        """The reduced Groebner basis, ascending by lead, cached.

        `pair_cap` bounds the S-pairs that survive the Gebauer-Moeller
        criteria, that is the S-polynomials actually reduced;
        DEFAULT_DEGREE_CAP bounds their degrees, raised to twice the sum of
        the two largest input degrees plus 4 so that bracket powers and the
        (f) and (g) of an intersection fit.  Either cap raises
        ResourceLimitError instead of returning a partial basis.
        """
        if self._gb is not None:
            return self._gb
        if not self.gens:
            self._gb = ()
            return self._gb
        key = (self.ring, frozenset(g.terms for g in self.gens))
        hit = _memory_cache.get(key)
        if hit is not None:
            self._gb = tuple(Polynomial(self.ring, t) for t in hit)
            return self._gb
        if _cache_dir:
            name = _cache_key(self.ring, self.gens)
            loaded = _disk_load(self.ring, self.gens, name)
            if loaded is not None:
                self._gb = loaded
                _memory_cache[key] = tuple(g.terms for g in loaded)
                return self._gb
        gb = _buchberger(self.ring, self.gens, pair_cap)
        self._gb = gb
        _memory_cache[key] = tuple(g.terms for g in gb)
        if _cache_dir:
            _disk_store(self.ring, gb, name)
        return gb

    def canonical_strings(self):
        return [str(g) for g in self.groebner_basis()]

    # --- membership and comparison --------------------------------------------

    def normal_form(self, f):
        if f.ring != self.ring:
            raise InputError("polynomial from a different ring")
        gb = self.groebner_basis()
        return Polynomial(self.ring, _normal_form_terms(f.terms, [g.terms for g in gb], self.ring))

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def equals(self, other):
        return self.contains_ideal(other) and other.contains_ideal(self)

    # --- colon and intersection -------------------------------------------------

    def intersect(self, other):
        if other.ring != self.ring:
            raise InputError("intersection across different rings")
        if not self.gens or not other.gens:
            return Ideal(self.ring, ())
        ring2, t = _extended_ring(self.ring)
        pos = [i + 1 for i in range(self.ring.nvars)]
        lift = lambda g: ring2.from_other(g, pos)
        gens2 = [t * lift(g) for g in self.gens]
        gens2 += [(ring2.one() - t) * lift(g) for g in other.gens]
        J = Ideal(ring2, gens2)
        kept = [g for g in J.groebner_basis() if all(e[0] == 0 for _c, e in g.terms)]
        back = [self.ring.from_other(g, list(range(-1, self.ring.nvars))) for g in kept]
        return Ideal(self.ring, [g for g in back if g])

    def colon(self, f):
        """(I : f) = {g : g*f in I} for a nonzero polynomial f."""
        if f.is_zero():
            raise InputError("colon by zero")
        if len(f.terms) == 1 and not any(f.lm()):
            return Ideal(self.ring, self.gens)  # colon by a unit
        inter = self.intersect(Ideal(self.ring, [f]))
        return Ideal(self.ring, [g.exact_quotient(f) for g in inter.gens])

    # --- staircases and quotient structure ---------------------------------------

    def leading_monomials(self):
        return [g.lm() for g in self.groebner_basis()]

    def is_artinian(self):
        """True when the quotient by this ideal is finite dimensional."""
        lts = self.leading_monomials()
        if any(sum(e) == 0 for e in lts):
            return True  # unit ideal
        n = self.ring.nvars
        for i in range(n):
            if not any(e[i] > 0 and all(e[j] == 0 for j in range(n) if j != i) for e in lts):
                return False
        return True

    def staircase(self):
        """Standard monomials of an Artinian quotient, ascending in the order.

        They are grown by a depth-first walk over exponent prefixes (see
        `_standard_monomials`), so the work is about nvars times the number
        of standard prefixes, not the size of the box under the pure
        powers.  The staircase is walked once per ideal and kept.
        """
        if self._stair is not None:
            return self._stair
        lts = self.leading_monomials()
        if lts and not any(lts[0]):
            return StaircaseBasis(self.ring, ())  # unit ideal
        n = self.ring.nvars
        ends = _leads_by_end(lts, n)
        for i in range(n):
            # a pure power of x_i is a lead ending at x_i with nothing before
            if not any(not any(head) for heads in ends[i].values() for head in heads):
                raise NotSupportedError(
                    "quotient not finite-dimensional: no pure power of "
                    f"{self.ring.names[i]} in the leading-term ideal"
                )
        out = _standard_monomials(ends)
        out.sort(key=self.ring.key)
        self._stair = StaircaseBasis(self.ring, tuple(out))
        return self._stair

    def coordinates(self, f, stair):
        """Coordinates of f's class in the staircase basis.

        Raises when the normal form leaves the basis span, which for the
        graded pieces signals a stabilization failure upstream.
        """
        idx = stair.index
        r = self.normal_form(f)
        coords = [0] * len(stair.monomials)
        for c, e in r.terms:
            if e not in idx:
                raise NotSupportedError(f"normal form {r} leaves the staircase span")
            coords[idx[e]] = c
        return tuple(coords)


def _leads_by_end(lts, n):
    """For each variable x_i, the leads whose last nonzero exponent is at
    x_i, as {exponent of x_i: [exponents before x_i]}."""
    ends = [{} for _ in range(n)]
    for lead in lts:
        i = max(j for j in range(n) if lead[j])
        ends[i].setdefault(lead[i], []).append(lead[:i])
    return ends


def _standard_monomials(ends):
    """Monomials no lead divides, unsorted; the caller has checked that a
    pure power of each variable is a lead.

    A depth-first walk sets x_0, x_1, ... in turn and raises each exponent
    from 0 until a lead divides the prefix; standard monomials are closed
    under division, so nothing above that prefix is standard.  Setting x_i
    to e tests only the leads that end at x_i with exponent e: every other
    lead was tested on a shorter prefix or cannot divide a monomial that is
    zero after x_i.  The work is about n times the number of standard
    prefixes.
    """
    n = len(ends)
    out = []
    prefix = [0] * n

    def divides(heads):
        return any(all(a <= b for a, b in zip(head, prefix)) for head in heads)

    def walk(i):
        leads = ends[i]
        e = 0
        while True:
            heads = leads.get(e)
            if heads and divides(heads):
                break
            prefix[i] = e
            if i + 1 < n:
                walk(i + 1)
            else:
                out.append(tuple(prefix))
            e += 1
        prefix[i] = 0

    walk(0)
    return out


def _extended_ring(ring):
    """ring with one fresh variable, t or the first free t1, t2, ...,
    prepended under the elimination order, and that variable."""
    taken = set(ring.names)
    name = next(n for n in ("t", *(f"t{i}" for i in range(1, len(taken) + 2))) if n not in taken)
    ring2 = PolyRing(ring.field, (name,) + ring.names, elim_order(1))
    return ring2, ring2.var(name)


def socle_basis(ideal, maximal_ideal_gens=None):
    """Representatives of a basis of (I : m)/I for an Artinian quotient,
    m generated by single terms (by default the variables).

    The socle is the kernel of multiplication by m's generators in
    staircase coordinates: each staircase monomial s gives one sparse
    column, keyed by (generator, standard monomial).  A product x*s that
    is standard is its own coordinate, and each other one, a border
    monomial, is reduced once.  Rows that no column touches are never
    built, and the kernel comes from a canonical RREF; representatives
    come back in normal form, canonically ordered.
    """
    from .linalg import kernel, rows_from_columns

    ring, field = ideal.ring, ideal.ring.field
    gens = ring.gens() if maximal_ideal_gens is None else maximal_ideal_gens
    if any(len(v.terms) != 1 for v in gens):
        raise InputError("socle_basis takes single-term generators of the maximal ideal")
    # a unit scalar on a generator does not change the ideal
    leads = [v.lm() for v in gens]
    stair = ideal.staircase()  # raises NotSupportedError unless Artinian
    idx, gb_terms, border = stair.index, [g.terms for g in ideal.groebner_basis()], {}
    columns = []
    for s in stair.monomials:
        col = {}
        for j, x in enumerate(leads):
            e = mono_mul(x, s)
            if e in idx:
                col[j, e] = 1
                continue
            if e not in border:
                border[e] = _normal_form_terms(((1, e),), gb_terms, ring)
            for c, f in border[e]:
                col[j, f] = c
        columns.append(col)
    basis = kernel(rows_from_columns(columns, field), field, ncols=len(columns))
    # the staircase ascends and a representative's terms descend
    terms = [reversed(list(zip(stair.monomials, vec))) for vec in basis]
    return [Polynomial(ring, tuple((c, m) for m, c in t if c)) for t in terms]
