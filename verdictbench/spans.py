"""In-memory spans for the traced run, and the per-layer numbers drawn from them.

``Tracer.instrument()`` wraps the public functions of each frobstab layer
from outside, records one span per call (name, start, end, parent span,
verdict id) in flat arrays, and restores the originals on exit.  Nothing
under ``src/`` changes.  A few counts that a span cannot carry are
recorded beside the spans, per verdict:

* ``groebner.gb.misses``: ``groebner_basis`` calls that added an entry to
  the in-memory GB cache;
* ``groebner.disk.*``: lookups, hits and writes of the on-disk GB cache,
  counted on its two private helpers, which get no span of their own so
  that reading a cached basis stays in ``groebner_basis``'s self time;
* ``stability.socle.*``: ``examined`` and the candidate count of each
  ``SocleSearchReport``.

``save``/``load`` write and read the spans: one JSON header line, then the
columns as raw native arrays.
"""

import array
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> (owner, attribute); owners are "module" or "module:Class"
TARGETS = {
    "phase.cm_gate": ("frobstab.localcoh:GradedRing", "check_cm"),
    "phase.f_injectivity": ("frobstab.stability", "is_f_injective_cm"),
    "phase.certified_route": ("frobstab.stability", "is_f_stable_certified"),
    "phase.socle_route": ("frobstab.stability", "socle_stability_search"),
    "phase.components": ("frobstab.stability", "connected_components_check"),
    "stability.chain": ("frobstab.stability", "frobenius_colon_chain"),
    "localcoh.carrier": ("frobstab.localcoh:GradedRing", "degree_zero_piece"),
    "localcoh.frobenius_matrix": ("frobstab.localcoh:GradedRing", "frobenius_matrix"),
    "localcoh.socle_of_truncation": ("frobstab.localcoh:GradedRing", "socle_of_truncation"),
    "semilinear.stable_part": ("frobstab.semilinear:SemilinearOperator", "stable_part"),
    "frobenius.bracket_power": ("frobstab.frobenius", "bracket_power"),
    "frobenius.closure": ("frobstab.frobenius", "frobenius_closure"),
    "groebner.gb": ("frobstab.groebner:Ideal", "groebner_basis"),
    "groebner.colon": ("frobstab.groebner:Ideal", "colon"),
    "groebner.intersect": ("frobstab.groebner:Ideal", "intersect"),
    "groebner.normal_form": ("frobstab.groebner:Ideal", "normal_form"),
    "kernel.add_terms": ("frobstab._kernel", "add_terms"),
    "kernel.mul_terms": ("frobstab._kernel", "mul_terms"),
    "kernel.divmod_terms": ("frobstab._kernel", "divmod_terms"),
    **{
        f"linalg.{fn}": ("frobstab.linalg", fn)
        for fn in ("rref", "rank", "kernel", "solve", "mat_vec", "in_row_space",
                   "residual_map_rows")
    },
}

PHASES = tuple(n for n in TARGETS if n.startswith("phase."))


class Tracer:
    """Spans in flat arrays; the index of a span is its id."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.name = array.array("l")
        self.verdict = array.array("l")
        self.counts = defaultdict(Counter)
        self.verdict_id = -1
        self._stack = []

    def __len__(self):
        return len(self.start)

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name, start, end, parent=-1, verdict=-1):
        """Record a finished span directly; returns its id."""
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.name.append(self._intern(name))
        self.verdict.append(verdict)
        return len(self.start) - 1

    def count(self, key, n=1):
        self.counts[self.verdict_id][key] += n

    def wrap(self, name, fn):
        nid = self._intern(name)
        start, end, parent, names, verdict = (
            self.start, self.end, self.parent, self.name, self.verdict
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            verdict.append(self.verdict_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    @contextmanager
    def instrument(self):
        """Wrap every target for the duration of the block."""
        import frobstab.groebner as groebner

        cache = groebner._memory_cache

        def count_misses(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = len(cache)
                result = fn(*args, **kwargs)
                if len(cache) > before:
                    self.count("groebner.gb.misses")
                return result

            return wrapper

        def count_disk_loads(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.count("groebner.disk.lookups")
                if result is not None:
                    self.count("groebner.disk.hits")
                return result

            return wrapper

        def count_disk_writes(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.count("groebner.disk.writes")
                return fn(*args, **kwargs)

            return wrapper

        def count_socle(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                report = fn(*args, **kwargs)
                self.count("stability.socle.examined", report.examined)
                self.count("stability.socle.candidates", len(report.candidates))
                return report

            return wrapper

        extra = {"groebner.gb": count_misses, "phase.socle_route": count_socle}
        patches = []
        try:
            for name, (owner, attr) in TARGETS.items():
                original = getattr(_resolve(owner), attr)
                wrapped = self.wrap(name, extra.get(name, lambda f: f)(original))
                patches += _patch_everywhere(owner, attr, original, wrapped)
            for attr, counter in (("_disk_load", count_disk_loads),
                                  ("_disk_store", count_disk_writes)):
                original = getattr(groebner, attr)
                patches += _patch_everywhere("frobstab.groebner", attr, original,
                                             counter(original))
            yield self
        finally:
            for obj, attr, original in reversed(patches):
                setattr(obj, attr, original)

    def save(self, path, verdicts):
        """Write the spans; `verdicts` describes each verdict id."""
        header = {
            "format": "verdictbench-spans-1",
            "names": self.names,
            "verdicts": verdicts,
            "counts": {str(v): dict(c) for v, c in self.counts.items()},
            "spans": len(self),
            "columns": [
                [col, getattr(self, col).typecode, getattr(self, col).itemsize]
                for col in ("start", "end", "parent", "name", "verdict")
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in ("start", "end", "parent", "name", "verdict"):
                getattr(self, col).tofile(fh)


def load(path):
    """(tracer, verdicts) from a file written by ``Tracer.save``."""
    tracer = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for col, typecode, _size in header["columns"]:
            column = array.array(typecode)
            column.fromfile(fh, header["spans"])
            setattr(tracer, col, column)
    tracer.names = header["names"]
    tracer._name_ids = {n: i for i, n in enumerate(tracer.names)}
    for v, c in header["counts"].items():
        tracer.counts[int(v)] = Counter(c)
    return tracer, header["verdicts"]


def _resolve(owner):
    module_name, _, cls = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


def _patch_everywhere(owner, attr, original, wrapped):
    """Replace `original` on its owner and in every frobstab module that
    imported it by name; the kernel implementations themselves stay."""
    targets = [_resolve(owner)]
    if ":" not in owner:
        for mod_name, mod in list(sys.modules.items()):
            if (
                mod_name.startswith("frobstab")
                and not mod_name.startswith("frobstab._kernel.")
                and mod is not targets[0]
                and getattr(mod, attr, None) is original
            ):
                targets.append(mod)
    patches = []
    for obj in targets:
        patches.append((obj, attr, original))
        setattr(obj, attr, wrapped)
    return patches


# --- analysis ---------------------------------------------------------------------


def self_times(start, end, parent):
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children are counted once)."""
    n = len(start)
    covered = [0.0] * n
    run = {}  # parent -> [lo, hi] of the merged child interval being built
    for i in sorted(range(n), key=start.__getitem__):
        q = parent[i]
        if q < 0:
            continue
        lo, hi = max(start[i], start[q]), min(end[i], end[q])
        if hi <= lo:
            continue
        cur = run.get(q)
        if cur is None or lo > cur[1]:
            if cur is not None:
                covered[q] += cur[1] - cur[0]
            run[q] = [lo, hi]
        elif hi > cur[1]:
            cur[1] = hi
    for q, (lo, hi) in run.items():
        covered[q] += hi - lo
    return [end[i] - start[i] - covered[i] for i in range(n)]


def _outermost(tracer, ids, group):
    """Spans among `ids` with no ancestor whose name is in `group`."""
    names, name, parent = tracer.names, tracer.name, tracer.parent
    out = []
    for i in ids:
        q = parent[i]
        while q >= 0 and names[name[q]] not in group:
            q = parent[q]
        if q < 0:
            out.append(i)
    return out


def summarize(tracer, group_of, incl_names=()):
    """Per-name totals over spans, grouped by verdict.

    `group_of` maps a verdict id to its group (a pass, say); spans of
    other verdicts are ignored.  Returns {group: {"calls": {name: n},
    "self_s": {name: s}, "incl_s": {name: s}, "counts": Counter}}.
    ``incl_s`` is filled for `incl_names` only and counts a span only when
    no ancestor has the same name; all phase spans count as one name, so
    nested phases are not counted twice.
    """
    members = [i for i, v in enumerate(tracer.verdict) if v in group_of]
    local = {i: k for k, i in enumerate(members)}
    own = self_times(
        [tracer.start[i] for i in members],
        [tracer.end[i] for i in members],
        [local.get(tracer.parent[i], -1) for i in members],
    )
    ids = defaultdict(lambda: defaultdict(list))
    for k, i in enumerate(members):
        ids[group_of[tracer.verdict[i]]][tracer.name[i]].append((i, own[k]))
    out = {}
    for group in set(group_of.values()):
        calls, self_s, incl_s = {}, {}, {}
        for nid, spans in ids[group].items():
            name = tracer.names[nid]
            calls[name] = len(spans)
            self_s[name] = sum(s for _i, s in spans)
            if name in incl_names:
                group_names = set(PHASES) if name in PHASES else {name}
                outer = _outermost(tracer, [i for i, _s in spans], group_names)
                incl_s[name] = sum(tracer.end[i] - tracer.start[i] for i in outer)
        counts = Counter()
        for v, g in group_of.items():
            if g == group:
                counts.update(tracer.counts.get(v, {}))
        out[group] = {"calls": calls, "self_s": self_s, "incl_s": incl_s, "counts": counts}
    return out
