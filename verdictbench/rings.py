"""Workload rings and the references every verdict is checked against.

Each workload is a list of ``Case``: a ring in the CLI's ring-file schema
and a reference for the ``zoo_row`` it must produce.  References come from
two places that do not depend on this code's algorithms:

* the committed zoo rows in ``src/frobstab/zoo/expectations.json``;
* closed forms from the literature for generated rings:
  - Fermat cubic cones x^3+y^3+z^3 (Fedder's criterion): the Hasse
    invariant, the coefficient of (xyz)^(p-1) in f^(p-1), is nonzero
    exactly when p = 1 mod 3, and then the ring is F-injective with
    stable dimension 1; otherwise it is not F-injective and the stable
    part is 0;
  - Stanley-Reisner rings (Hochster's formula): the degree-zero stable
    dimension is dim H~^(d-1)(Delta; F_p), which is n - 1 for n
    coordinate lines and 1 for the 4-cycle; Stanley-Reisner rings are
    F-pure, hence F-injective; n lines have n punctured-spectrum
    components.

The seed draws a diagonal rescaling x_i -> c_i x_i with c_i in F_p^x for
the generated rings.  It is a graded automorphism, so the closed-form
answers hold unchanged, and it keeps every monomial support.  The
committed zoo files are used exactly as they are.

This module does not import frobstab.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

ZOO_DIR = Path(__file__).resolve().parent.parent / "src" / "frobstab" / "zoo"


@dataclass(frozen=True)
class Case:
    """One verdict to compute: a ring file and the fields its row must have.

    ``expected`` maps row keys to values; with ``exact`` the row must equal
    it as a whole.
    """

    ring: dict
    expected: dict
    exact: bool

    @property
    def name(self):
        return self.ring["name"]

    def mismatches(self, row):
        """Row keys whose value differs from the reference."""
        keys = set(self.expected) | set(row) if self.exact else set(self.expected)
        return sorted(k for k in keys if row.get(k, object()) != self.expected.get(k))


# --- polynomials as term lists: [(coefficient, {var: exponent}), ...] -------------


def _render(terms, p, scale):
    parts = []
    for coeff, exps in terms:
        c = coeff
        for var, e in exps.items():
            c = c * pow(scale[var], e, p)
        c %= p
        if c == 0:
            continue
        factors = [] if c == 1 and exps else [str(c)]
        factors += [v if e == 1 else f"{v}^{e}" for v, e in exps.items()]
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


def _mono(*names):
    return [(1, {v: 1 for v in names})]


def draw_scale(names, p, rng):
    """The seeded diagonal rescaling: a unit of F_p for each variable."""
    return {v: rng.randrange(1, p) for v in names}


def _ring(name, p, names, relations, sop, scale, minimal_primes=None):
    ring = {
        "name": name,
        "char": p,
        "vars": list(names),
        "degrees": [1] * len(names),
        "relations": [_render(f, p, scale) for f in relations],
        "sop": [_render(f, p, scale) for f in sop],
    }
    if minimal_primes is not None:
        ring["minimal_primes"] = [[_render(f, p, scale) for f in P] for P in minimal_primes]
    return ring


def lines_ring(n, p, scale):
    """n coordinate lines through the origin: F_p[x0..]/(xi*xj : i < j)."""
    names = [f"x{i}" for i in range(n)]
    relations = [_mono(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    sop = [[(1, {v: 1}) for v in names]]
    primes = [[_mono(w) for w in names if w != v] for v in names]
    return _ring(f"lines{n}_p{p}", p, names, relations, sop, scale, primes)


def cubic_ring(p, order, scale):
    """The Fermat cubic cone x^3+y^3+z^3 with sop (x, y), variables in `order`."""
    relation = [(1, {"x": 3}), (1, {"y": 3}), (1, {"z": 3})]
    sop = [_mono("x"), _mono("y")]
    return _ring(f"cubic_{''.join(order)}_p{p}", p, order, [relation], sop, scale)


def cycle4_ring(p, scale):
    """Stanley-Reisner ring of the 4-cycle a-b-c-d-a: F_p[a,b,c,d]/(ac, bd)."""
    names = ["a", "b", "c", "d"]
    sop = [[(1, {"a": 1}), (1, {"c": 1})], [(1, {"b": 1}), (1, {"d": 1})]]
    return _ring(f"c4_p{p}", p, names, [_mono("a", "c"), _mono("b", "d")], sop, scale)


def _oracle(ring, f_injective, stable_dim, components=None):
    expected = {
        "name": ring["name"],
        "p": ring["char"],
        "cm": "verified",
        "f_injective": f_injective,
        "f_stable": stable_dim > 0,
        "stable_dim": stable_dim,
        "agreement": True,
    }
    if components is not None:
        expected["sw"] = {"components": components, "formula": components, "agree": True}
    return expected


def oracle_lines(n, p, rng):
    ring = lines_ring(n, p, draw_scale([f"x{i}" for i in range(n)], p, rng))
    return Case(ring, _oracle(ring, True, n - 1, components=n), exact=False)


def oracle_cubic(p, order, rng):
    ring = cubic_ring(p, order, draw_scale(order, p, rng))
    ordinary = p % 3 == 1
    return Case(ring, _oracle(ring, ordinary, 1 if ordinary else 0), exact=False)


def oracle_cycle4(p, rng):
    ring = cycle4_ring(p, draw_scale("abcd", p, rng))
    return Case(ring, _oracle(ring, True, 1), exact=False)


# --- workloads ----------------------------------------------------------------------


def zoo_cases():
    """The committed zoo rings with their committed rows, sorted by name."""
    expectations = json.loads((ZOO_DIR / "expectations.json").read_text())
    cases = []
    for path in sorted(ZOO_DIR.glob("*.json")):
        if path.name == "expectations.json":
            continue
        ring = json.loads(path.read_text())
        cases.append(Case(ring, expectations[ring["name"]], exact=True))
    return cases


def lines_cases(seed):
    rng = random.Random(seed)
    return zoo_cases() + [oracle_lines(5, 2, rng), oracle_lines(6, 2, rng)]


def cones_cases(seed):
    rng = random.Random(seed)
    cases = [oracle_cubic(p, ("z", "x", "y"), rng) for p in (2, 5, 7, 13, 19)]
    cases += [oracle_cubic(p, ("x", "y", "z"), rng) for p in (5, 7)]
    cases += [oracle_cycle4(p, rng) for p in (2, 3, 5)]
    return cases


WORKLOADS = {
    "lines": lines_cases,
    "cones": cones_cases,
    "warm-cache": lambda seed: zoo_cases(),
}

# The rings of each workload that take under 0.1 s.  Two things make their
# times noisy, and each has a remedy.
# - The first verdicts of a process run 15-40% slower, while the
#   interpreter specialises its bytecode and grows its allocator arenas.
#   Without a warm-up, that cost falls on whichever rings a seed puts first.
#   So set-up runs each short ring once.  On warm-cache, set-up is a whole
#   cold pass, which warms up too.
# - The host's speed changes faster than a few-millisecond verdict can
#   average out.  So a pass runs each short ring REPEAT_SHORT times in a row,
#   and its median verdict time is taken over all these runs.
_ZOO_SHORT = (
    "cusp_p2", "poly1_p2", "poly1_p3", "poly1_p5",
    "lines2_p2", "lines2_p3", "lines2_p5", "lines3_p2", "lines3_p3",
)
SHORT = {
    "lines": _ZOO_SHORT,
    "cones": ("c4_p2", "c4_p3", "c4_p5", "cubic_zxy_p2", "cubic_zxy_p5", "cubic_zxy_p7"),
    "warm-cache": _ZOO_SHORT,
}
REPEAT_SHORT = 7
