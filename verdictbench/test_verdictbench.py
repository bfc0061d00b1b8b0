"""Tests for the benchmark's own arithmetic, references and inputs.

    PYTHONPATH=src python -m pytest -q verdictbench
"""

import json
import math
import random
import sys

import pytest

import hostspeed
import kernelbuild
import rings
import spans

if str(kernelbuild.SRC) not in sys.path:
    sys.path.insert(0, str(kernelbuild.SRC))


# --- self time ------------------------------------------------------------------------


def _tree():
    t = spans.Tracer()
    root = t.add("phase.socle_route", 0.0, 10.0, verdict=0)
    a = t.add("groebner.gb", 1.0, 4.0, root, verdict=0)
    t.add("kernel.divmod_terms", 2.0, 3.0, a, verdict=0)
    b = t.add("linalg.rank", 5.0, 9.0, root, verdict=0)
    t.add("linalg.rref", 5.0, 7.0, b, verdict=0)  # overlaps its sibling
    t.add("linalg.rref", 6.0, 8.0, b, verdict=0)
    t.add("kernel.add_terms", 9.5, 11.0, root, verdict=0)  # sticks out of root
    outer = t.add("phase.f_injectivity", 20.0, 22.0, verdict=1)
    t.add("phase.cm_gate", 20.5, 21.0, outer, verdict=1)
    chain = t.add("stability.chain", 21.0, 21.5, outer, verdict=1)
    t.add("stability.chain", 21.1, 21.2, chain, verdict=1)
    return t


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    t = _tree()
    own = spans.self_times(t.start, t.end, t.parent)
    # root: 10 - ([1,4] + [5,9] + [9.5,10]) = 10 - 7.5
    assert own == pytest.approx([2.5, 2.0, 1.0, 1.0, 2.0, 2.0, 1.5, 1.0, 0.5, 0.4, 0.1])


def test_self_time_does_not_depend_on_span_order():
    t = _tree()
    order = [6, 2, 0, 5, 3, 1, 4]
    start = [t.start[i] for i in order]
    end = [t.end[i] for i in order]
    where = {old: new for new, old in enumerate(order)}
    parent = [where.get(t.parent[i], -1) for i in order]
    own = spans.self_times(start, end, parent)
    expected = [2.5, 2.0, 1.0, 1.0, 2.0, 2.0, 1.5]
    assert own == pytest.approx([expected[i] for i in order])


def test_summarize_groups_by_verdict_and_counts_nested_phases_once():
    t = _tree()
    t.counts[0]["groebner.gb.misses"] = 1
    incl = spans.PHASES + ("stability.chain",)
    out = spans.summarize(t, {0: "a", 1: "b"}, incl_names=incl)
    a, b = out["a"], out["b"]
    assert a["calls"]["linalg.rref"] == 2 and a["calls"]["groebner.gb"] == 1
    assert a["self_s"]["linalg.rank"] == pytest.approx(1.0)
    assert a["incl_s"]["phase.socle_route"] == pytest.approx(10.0)
    assert a["counts"]["groebner.gb.misses"] == 1 and not b["counts"]
    # a phase inside a phase and a chain inside a chain are not counted twice
    assert b["incl_s"]["phase.f_injectivity"] == pytest.approx(2.0)
    assert b["incl_s"]["phase.cm_gate"] == 0.0
    assert b["calls"]["stability.chain"] == 2
    assert b["incl_s"]["stability.chain"] == pytest.approx(0.5)
    assert b["self_s"]["phase.f_injectivity"] == pytest.approx(1.0)
    assert spans.summarize(t, {1: "b"}, incl)["b"] == b


def test_spans_round_trip_through_the_span_file(tmp_path):
    t = _tree()
    t.counts[1]["stability.socle.examined"] = 3
    path = tmp_path / "spans.bin"
    t.save(path, [{"pass": 0, "ring": "r"}, {"pass": 0, "ring": "s"}])
    back, verdicts = spans.load(path)
    assert verdicts[1]["ring"] == "s"
    assert back.names == t.names
    for col in ("start", "end", "parent", "name", "verdict"):
        assert list(getattr(back, col)) == list(getattr(t, col))
    assert back.counts[1]["stability.socle.examined"] == 3


# --- references -----------------------------------------------------------------------


def _hasse_invariant(p):
    """Coefficient of (xyz)^(p-1) in (x^3+y^3+z^3)^(p-1) mod p (Fedder)."""
    if (p - 1) % 3:
        return 0
    k = (p - 1) // 3
    return math.factorial(p - 1) // math.factorial(k) ** 3 % p


@pytest.mark.parametrize("p", [2, 5, 7, 13, 19, 31, 37, 41])
def test_cubic_oracle_is_fedders_criterion(p):
    for order in (("z", "x", "y"), ("x", "y", "z")):
        case = rings.oracle_cubic(p, order, random.Random(0))
        ordinary = _hasse_invariant(p) != 0
        assert ordinary == (p % 3 == 1)
        assert case.expected["f_injective"] is ordinary
        assert case.expected["f_stable"] is ordinary
        assert case.expected["stable_dim"] == (1 if ordinary else 0)
        assert case.expected["cm"] == "verified" and "sw" not in case.expected


def test_stanley_reisner_oracles():
    rng = random.Random(0)
    for n in (2, 5, 6):
        case = rings.oracle_lines(n, 2, rng)
        assert case.expected["stable_dim"] == n - 1
        assert case.expected["sw"] == {"components": n, "formula": n, "agree": True}
        assert len(case.ring["minimal_primes"]) == n
    for p in (2, 3, 5):
        case = rings.oracle_cycle4(p, rng)
        assert case.expected["stable_dim"] == 1 and case.expected["f_injective"]


def test_workload_tables():
    zoo = rings.zoo_cases()
    assert len(zoo) == 13 and all(c.exact for c in zoo)
    names = [c.name for c in rings.lines_cases(0)]
    assert names[-2:] == ["lines5_p2", "lines6_p2"]
    assert [c.name for c in rings.cones_cases(0)] == [
        "cubic_zxy_p2", "cubic_zxy_p5", "cubic_zxy_p7", "cubic_zxy_p13",
        "cubic_zxy_p19", "cubic_xyz_p5", "cubic_xyz_p7", "c4_p2", "c4_p3", "c4_p5",
    ]
    assert [c.ring for c in rings.WORKLOADS["warm-cache"](7)] == [c.ring for c in zoo]


def test_mismatches_report_the_differing_fields():
    exact = rings.Case({"name": "r"}, {"a": 1, "b": 2}, exact=True)
    assert exact.mismatches({"a": 1, "b": 2}) == []
    assert exact.mismatches({"a": 1, "b": 3, "c": 0}) == ["b", "c"]
    partial = rings.Case({"name": "r"}, {"a": 1}, exact=False)
    assert partial.mismatches({"a": 1, "b": 3}) == []
    assert partial.mismatches({"b": 3}) == ["a"]


# --- the seeded rescaling ------------------------------------------------------------------


def _supports(ring):
    from frobstab.localcoh import GradedRing

    graded = GradedRing.from_dict(ring)
    polys = list(graded.relations.gens) + list(graded.sop)
    return [sorted(e for _c, e in f.terms) for f in polys]


class _NoRescaling:
    """Stands in for the seeded generator and draws c_i = 1 for every variable."""

    @staticmethod
    def randrange(_start, _stop):
        return 1


CHEAP = [
    lambda rng: rings.oracle_cubic(5, ("z", "x", "y"), rng),
    lambda rng: rings.oracle_cubic(7, ("z", "x", "y"), rng),
    lambda rng: rings.oracle_cycle4(3, rng),
]


@pytest.mark.parametrize("make", CHEAP, ids=["cubic_zxy_p5", "cubic_zxy_p7", "c4_p3"])
def test_seeded_rescaling_keeps_answers_and_supports(make):
    from frobstab.cli import zoo_row
    from frobstab.config import RunConfig
    from frobstab.groebner import clear_memory_cache
    from frobstab.localcoh import GradedRing

    plain = make(_NoRescaling()).ring
    rescaled = 0
    for seed in (1, 2):
        case = make(random.Random(seed))
        rescaled += case.ring != plain
        assert _supports(case.ring) == _supports(plain)
        clear_memory_cache()
        row = zoo_row(GradedRing.from_dict(case.ring), RunConfig(seed=seed))
        assert case.mismatches(row) == []
    assert rescaled, "the seeds drew no rescaling"


# --- host-speed correction -----------------------------------------------------------


def test_meter_removes_probe_time_and_scales_by_the_mean_speed():
    ref, k = hostspeed.REFERENCE_S, hostspeed.MIN_WINDOW
    meter = hostspeed.Meter(native=None)
    meter.probe_s.extend([ref] * k + [2 * ref] * k)
    # 10 s of CPU time, 1 s of it in probes, all at half speed
    assert meter.seconds((0.0, 0.0, k, 0.0), (10.0, 1.0, 2 * k, 12.0)) == pytest.approx(4.5)
    # speeds 1 and 1/2 in equal measure
    assert meter.seconds((0.0, 0.0, k // 2, 0.0), (9.0, 0.0, k + k // 2, 9.0)) == pytest.approx(
        9.0 * 0.75
    )
    # one probe inside: the latest MIN_WINDOW stand in
    assert meter.seconds((0.0, 0.0, k, 0.0), (1.0, 0.0, k + 1, 1.0)) == pytest.approx(
        ((k - 1) + 0.5) / k
    )
    # wall time is kept apart, probes included
    assert meter.wall_seconds((0.0, 0.0, k, 2.0), (10.0, 1.0, 2 * k, 14.5)) == 12.5


def test_meter_probes_on_its_timer_and_stops():
    meter = hostspeed.Meter(native=lambda: 0)
    meter.start()
    try:
        start = meter.mark()
        deadline = start[0] + 10 * hostspeed.PERIOD_S
        while meter.mark()[0] < deadline:
            pass
        with meter.paused():
            paused = meter.mark()
            hostspeed.probe(meter.native)
            assert meter.mark()[2] == paused[2]
    finally:
        meter.stop()
    assert meter.mark()[2] - start[2] >= 3
    assert meter.seconds(start, paused) > 0


def test_benchmark_json_names_the_metrics_the_run_prints():
    import run

    spec = json.loads((kernelbuild.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(rings.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_short_rings_belong_to_their_workloads():
    for workload, names in rings.SHORT.items():
        assert set(names) <= {case.name for case in rings.WORKLOADS[workload](1)}
