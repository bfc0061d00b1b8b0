#!/usr/bin/env python3
"""Time-to-verdict benchmark for frobstab.

    python3 verdictbench/run.py --workload lines --seed 1 --seconds 20 --trace 0

A verdict is one ``zoo_row(GradedRing.from_dict(ring), RunConfig(seed=...))``
call, the unit ``frobstab zoo`` and ``frobstab stability`` serve, on the
compiled C kernel (see ``kernelbuild.py``), starting from an empty in-memory
Groebner-basis cache like a fresh CLI process.  One client runs verdicts in a
closed loop: a pass is every ring of the workload once, in an order shuffled
by the seed, and passes repeat until ``--seconds`` have elapsed; the first
pass always completes, and the verdict in progress at the deadline finishes.
Every row is checked against its reference (``rings.py``).

Times are in reference seconds: CPU time corrected for the shared host's
changing speed by probes taken during the run (``hostspeed.py``); the wall
times of the passes are on the line before the result.

``--trace 0`` prints the end-to-end metrics, measured without tracing.
``--trace 1`` runs untraced passes for half the time, traced passes for the
other half, the kernel parity gate and the kernel micro-benchmarks, writes
the spans to ``verdictbench/_out/`` and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and details.  The exit code is 0 only when every
verdict matched its reference and, with tracing, the parity gate passed.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import kernelbuild
import rings
import spans

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"

# set-up samples per run, this process included; the others are fresh
# processes run one after another.  A warm-cache set-up is a whole cold pass
# (10-15 s of wall time), so it takes fewer to keep a run under a minute.
SETUP_SAMPLES = {"lines": 3, "cones": 3, "warm-cache": 2}
PARITY_RING = "lines3_p3"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "verdict_geomean_s": "s",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "phase.cm_gate_s": "s",
    "phase.f_injectivity_s": "s",
    "phase.certified_route_s": "s",
    "phase.socle_route_s": "s",
    "phase.components_s": "s",
    "stability.chain.calls": "count",
    "stability.chain.incl_s": "s",
    "stability.socle.examined": "count",
    "stability.socle.useful_ratio": "ratio",
    "localcoh.carrier.incl_s": "s",
    "localcoh.frobenius_matrix.incl_s": "s",
    "localcoh.socle_of_truncation.incl_s": "s",
    "semilinear.stable_part.calls": "count",
    "semilinear.stable_part.self_s": "s",
    "frobenius.bracket_power.calls": "count",
    "frobenius.closure.calls": "count",
    "frobenius.closure.incl_s": "s",
    "groebner.gb.calls": "count",
    "groebner.gb.misses": "count",
    "groebner.gb.self_s": "s",
    "groebner.colon.calls": "count",
    "groebner.intersect.calls": "count",
    "groebner.intersect.self_s": "s",
    "groebner.normal_form.calls": "count",
    "groebner.normal_form.self_s": "s",
    "groebner.cache.memory_entries": "count",
    "groebner.disk.writes": "count",
    "groebner.disk.hit_ratio": "ratio",
    "kernel.mul_terms.calls": "count",
    "kernel.mul_terms.self_s": "s",
    "kernel.divmod_terms.calls": "count",
    "kernel.divmod_terms.self_s": "s",
    "kernel.add_terms.calls": "count",
    "kernel.add_terms.self_s": "s",
    "kernel.micro.mul_terms.c_s": "s",
    "kernel.micro.mul_terms.python_s": "s",
    "kernel.micro.divmod_terms.c_s": "s",
    "kernel.micro.divmod_terms.python_s": "s",
    "linalg.calls": "count",
    "linalg.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

INCL_SPANS = spans.PHASES + tuple(
    key[: -len(".incl_s")] for key in PER_LAYER if key.endswith(".incl_s")
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(rings.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one extra set-up sample in a fresh process
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Verdicts attempted, failed (raised) and matching their reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = 0
        self.problems = []

    def check(self, case, row, error, reference=None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.problems.append({"ring": case.name, "error": error})
            return
        bad = case.mismatches(row)
        if reference is not None and _canonical(row) != reference:
            bad.append("bytes differ from the cold row")
        if bad:
            self.problems.append({"ring": case.name, "fields": bad, "row": row})
        else:
            self.correct += 1


def _canonical(row):
    return json.dumps(row, sort_keys=True)


class Verdicts:
    """The frobstab entry points, imported once the kernel is registered."""

    def __init__(self, seed, meter):
        from frobstab import errors, groebner
        from frobstab.cli import zoo_row
        from frobstab.config import RunConfig
        from frobstab.localcoh import GradedRing

        self.seed = seed
        self.meter = meter
        self.groebner = groebner
        self._error = errors.FrobstabError
        self._zoo_row = zoo_row
        self._config = RunConfig
        self._ring = GradedRing

    def validate(self, cases):
        for case in cases:
            self._ring.from_dict(case.ring)

    def run(self, case):
        """(row or None, reference seconds, error text or None) for one verdict.

        Like a fresh CLI process, the verdict starts with an empty in-memory
        GB cache and a heap without garbage: the collection before it is
        not timed, so the collections inside it are the ones its own
        allocations cause, whatever ran before it."""
        self.groebner.clear_memory_cache()
        gc.collect()
        start = self.meter.mark()
        try:
            row = self._zoo_row(self._ring.from_dict(case.ring), self._config(seed=self.seed))
        except self._error as err:
            return None, self.meter.seconds(start), f"{type(err).__name__}: {err}"
        return row, self.meter.seconds(start), None


def set_up(args, verdicts, cases, work_dir, start, build_s):
    """This process's set-up since the mark `start`, less the reference
    seconds `build_s` of a compiler build; returns (setup_s, fill).

    On warm-cache the set-up fills an empty disk cache with one cold pass;
    elsewhere it runs the short rings (`rings.SHORT`) once.  `fill`
    lists the [ring, row, error] triples of these verdicts.
    """
    verdicts.validate(cases)
    if args.workload == "warm-cache":
        verdicts.groebner.set_cache_dir(str(work_dir / "gbcache"))
        warm = cases
    else:
        verdicts.groebner.set_cache_dir(None)
        warm = [case for case in cases if case.name in rings.SHORT[args.workload]]
    fill = []
    for case in warm:
        row, _seconds, error = verdicts.run(case)
        fill.append([case.name, row, error])
    return verdicts.meter.seconds(start) - build_s, fill


def check_fill(fill, cases, tally):
    """Check set-up rows; returns the canonical cold rows by ring name."""
    by_name = {case.name: case for case in cases}
    for name, row, error in fill:
        tally.check(by_name[name], row, error)
    return {name: _canonical(row) for name, row, _error in fill if row is not None}


def setup_probes(args, count, work_dir, tally, cases, meter):
    """Set-up times of `count` fresh processes; their rows are checked.
    This process takes no speed probes while a child runs."""
    samples = []
    for k in range(count):
        probe_dir = work_dir / f"probe{k}"
        probe_dir.mkdir(parents=True)
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe", str(probe_dir),
        ]
        try:
            with meter.paused():
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-4000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"])
        check_fill(probe["fill"], cases, tally)
    return samples


def run_passes(verdicts, cases, seconds, rng, tally, cold, short=(), on_verdict=None):
    """Closed-loop passes until `seconds` of wall time have elapsed.  A pass
    runs each ring once, and each ring named in `short` REPEAT_SHORT times in
    a row.  The first pass always completes; a later one stops after the
    verdict in progress at the deadline and is kept with pass times None.
    Returns [(pass_s, wall_s, {ring: [verdict_s, ...]})], times in reference
    seconds but wall_s, which is wall time."""
    meter = verdicts.meter
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        order = list(cases)
        rng.shuffle(order)
        times = {}
        start = meter.mark()
        complete = True
        for case in order:
            if passes and time.perf_counter() >= deadline:
                complete = False
                break
            times[case.name] = []
            for _ in range(rings.REPEAT_SHORT if case.name in short else 1):
                if on_verdict is not None:
                    on_verdict(len(passes), case)
                row, seconds_taken, error = verdicts.run(case)
                times[case.name].append(seconds_taken)
                tally.check(case, row, error, cold.get(case.name))
        if not complete:
            passes.append((None, None, times))
            break
        end = meter.mark()
        passes.append((meter.seconds(start, end), meter.wall_seconds(start, end), times))
    return passes


def whole(passes):
    """The passes that ran every ring."""
    return [p for p in passes if p[0] is not None]


def percentile_beyond(values, beyond=10):
    """(percentile, value) of the highest percentile with at least `beyond`
    samples above it, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def ring_medians(passes):
    """Each ring's median verdict time over the passes, an unfinished one
    included."""
    return {
        name: statistics.median(t for _, _, times in passes for t in times.get(name, ()))
        for name in passes[0][2]
    }


def end_to_end(setup_samples, passes, tally):
    medians = ring_medians(passes).values()
    geomean = math.exp(statistics.fmean(math.log(t) for t in medians))
    return {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(p for p, _, _ in whole(passes)),
        "verdict_geomean_s": geomean,
        "correct_ratio": tally.correct / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# --- traced run -----------------------------------------------------------------------


def traced_passes(verdicts, cases, short, seconds, rng, tally, cold, tracer, verdict_log):
    memory = {}

    def on_verdict(pass_index, case):
        if tracer.verdict_id >= 0:
            memory[tracer.verdict_id] = len(verdicts.groebner._memory_cache)
        tracer.verdict_id = len(verdict_log)
        verdict_log.append({"pass": pass_index, "ring": case.name})

    first = len(verdict_log)
    with tracer.instrument():
        passes = run_passes(verdicts, cases, seconds, rng, tally, cold, short, on_verdict)
    memory[tracer.verdict_id] = len(verdicts.groebner._memory_cache)
    tracer.verdict_id = -1
    group_of = {v: verdict_log[v]["pass"] for v in range(first, len(verdict_log))}
    summaries = spans.summarize(tracer, group_of, INCL_SPANS)
    per_pass = []
    for index, (pass_s, _, _) in enumerate(passes):
        if pass_s is not None:
            mem = max(memory[v] for v, g in group_of.items() if g == index)
            per_pass.append(layer_metrics(summaries[index], mem))
    return passes, per_pass


def layer_metrics(summary, memory_entries):
    """The per-layer metrics of one traced pass."""
    calls, own, incl, counts = (
        summary["calls"], summary["self_s"], summary["incl_s"], summary["counts"]
    )
    out = {f"{phase}_s": incl.get(phase, 0.0) for phase in spans.PHASES}
    for key in PER_LAYER:
        span, _, kind = key.rpartition(".")
        if kind == "calls" and span in spans.TARGETS:
            out[key] = calls.get(span, 0)
        elif kind == "self_s" and span in spans.TARGETS:
            out[key] = own.get(span, 0.0)
        elif kind == "incl_s":
            out[key] = incl.get(span, 0.0)
    examined = counts["stability.socle.examined"]
    lookups = counts["groebner.disk.lookups"]
    out["stability.socle.examined"] = examined
    out["stability.socle.useful_ratio"] = (
        counts["stability.socle.candidates"] / examined if examined else 0.0
    )
    out["groebner.gb.misses"] = counts["groebner.gb.misses"]
    out["groebner.cache.memory_entries"] = memory_entries
    out["groebner.disk.writes"] = counts["groebner.disk.writes"]
    out["groebner.disk.hit_ratio"] = counts["groebner.disk.hits"] / lookups if lookups else 0.0
    out["linalg.calls"] = sum(n for k, n in calls.items() if k.startswith("linalg."))
    out["linalg.self_s"] = sum(s for k, s in own.items() if k.startswith("linalg."))
    return out


def parity_gate(verdicts, case, tracer, verdict_log):
    """Trace one verdict under each kernel; rows and every call count must
    be identical.  Returns (ok, details)."""
    import frobstab._kernel as kernel
    from frobstab._kernel import _ref

    compiled = {name: getattr(kernel, name) for name in kernelbuild.KERNEL_FUNCTIONS}
    results = {}
    for label in ("c", "python"):
        impl = compiled if label == "c" else {n: getattr(_ref, n) for n in compiled}
        for name, fn in impl.items():
            setattr(kernel, name, fn)
        try:
            tracer.verdict_id = len(verdict_log)
            verdict_log.append({"pass": f"parity-{label}", "ring": case.name})
            with tracer.instrument():
                row, _seconds, error = verdicts.run(case)
        finally:
            tracer.verdict_id = -1
            for name, fn in compiled.items():
                setattr(kernel, name, fn)
        summary = spans.summarize(tracer, {len(verdict_log) - 1: label})[label]
        results[label] = {
            "row": row,
            "error": error,
            "calls": summary["calls"],
            "counts": dict(summary["counts"]),
        }
    c, py = results["c"], results["python"]
    ok = (
        c["error"] is None
        and c["row"] == py["row"]
        and not case.mismatches(c["row"])
        and c["calls"] == py["calls"]
        and c["counts"] == py["counts"]
    )
    return ok, results


def kernel_micro():
    """Seconds per call of mul_terms and divmod_terms on fixed inputs, per
    kernel, and whether both kernels return the same results."""
    from frobstab._kernel import _ref
    from frobstab.field import PrimeField
    from frobstab.poly import PolyRing

    R = PolyRing(PrimeField(5), ("x", "y", "z"))
    f = R.parse("x + y + z + 1") ** 9
    g = R.parse("x + 2*y + 3*z + 4") ** 9
    basis = [R.parse(t).terms for t in ("x^3 - y", "y^4 - z", "z^5 - 1")]
    impls = {"c": sys.modules[kernelbuild.MODULE_NAME], "python": _ref}
    metrics, outputs = {}, {}
    for label, impl in impls.items():
        product = impl.mul_terms(f.terms, g.terms, R.p, R._wm)
        calls = {
            "mul_terms": lambda: impl.mul_terms(f.terms, g.terms, R.p, R._wm),
            "divmod_terms": lambda: impl.divmod_terms(product, basis, R.p, R._wm, False),
        }
        for name, call in calls.items():
            samples = []
            budget = time.perf_counter() + 0.25
            while len(samples) < 5 or time.perf_counter() < budget:
                start = time.perf_counter()
                result = call()
                samples.append(time.perf_counter() - start)
            outputs[(label, name)] = result
            metrics[f"kernel.micro.{name}.{label}_s"] = statistics.median(samples)
    same = all(outputs[("c", n)] == outputs[("python", n)] for n in ("mul_terms", "divmod_terms"))
    return metrics, same


def run_traced(args, verdicts, cases, rng, tally, cold):
    half = args.seconds / 2
    short = rings.SHORT[args.workload]
    untraced = run_passes(verdicts, cases, half, rng, tally, cold, short)
    tracer = spans.Tracer()
    verdict_log = []
    traced, per_pass = traced_passes(
        verdicts, cases, short, half, rng, tally, cold, tracer, verdict_log
    )
    by_name = {case.name: case for case in rings.zoo_cases()}
    parity_ok, parity = parity_gate(verdicts, by_name[PARITY_RING], tracer, verdict_log)
    micro, micro_same = kernel_micro()
    # counts repeat exactly from pass to pass; times are medians
    metrics = {
        key: statistics.median_low(p[key] for p in per_pass)
        if PER_LAYER[key] == "count" else statistics.median(p[key] for p in per_pass)
        for key in per_pass[0]
    }
    counts_repeat = all(
        len({p[key] for p in per_pass}) == 1 for key in per_pass[0] if PER_LAYER[key] == "count"
    )
    metrics.update(micro)
    metrics["trace.overhead_ratio"] = statistics.median(
        p for p, _, _ in whole(traced)
    ) / statistics.median(p for p, _, _ in whole(untraced))
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
    tracer.save(span_file, verdict_log)
    details = {
        "untraced_passes": len(whole(untraced)),
        "traced_passes": len(whole(traced)),
        "spans": len(tracer),
        "counts_repeat": counts_repeat,
        "span_file": str(span_file.relative_to(BENCH_DIR.parent)),
        "parity": {
            "ok": parity_ok,
            "kernel_micro_outputs_equal": micro_same,
            "calls_c": parity["c"]["calls"],
            "calls_python": parity["python"]["calls"],
        },
    }
    return metrics, parity_ok and micro_same, details


# --- main -------------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not kernelbuild.C_SOURCE.is_file() or not rings.ZOO_DIR.is_dir():
        print(
            f"error: no frobstab sources at {kernelbuild.SRC}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    try:
        native = kernelbuild.load_probe()
    except kernelbuild.KernelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    meter = hostspeed.Meter(native)
    meter.start()
    try:
        return measure(args, meter)
    finally:
        meter.stop()


def measure(args, meter):
    start = meter.mark()
    try:
        env = kernelbuild.load()
    except kernelbuild.KernelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # a compiler build is reported, not counted in set-up
    build_s = meter.seconds(start) if env["kernel_built_now"] else 0.0
    cases = rings.WORKLOADS[args.workload](args.seed)
    verdicts = Verdicts(args.seed, meter)
    if args.setup_probe:
        setup_s, fill = set_up(args, verdicts, cases, Path(args.setup_probe), start, build_s)
        print(json.dumps({"setup_s": setup_s, "fill": fill}))
        return 0

    work_dir = WORK_DIR / f"run{os.getpid()}"
    tally = Tally()
    try:
        work_dir.mkdir(parents=True)
        setup_s, fill = set_up(args, verdicts, cases, work_dir, start, build_s)
        cold = check_fill(fill, cases, tally)
        rng = random.Random(args.seed)
        info = {"workload": args.workload, "seed": args.seed, "env": env}
        ok = True
        if args.trace:
            metrics, ok, info["trace"] = run_traced(args, verdicts, cases, rng, tally, cold)
            units = PER_LAYER
        else:
            samples = [setup_s] + setup_probes(
                args, SETUP_SAMPLES[args.workload] - 1, work_dir, tally, cases, meter
            )
            passes = run_passes(
                verdicts, cases, args.seconds, rng, tally, cold, rings.SHORT[args.workload]
            )
            metrics = end_to_end(samples, passes, tally)
            info.update(
                setup_s_samples=samples,
                passes=len(whole(passes)),
                pass_s_all=[p for p, _, _ in whole(passes)],
                pass_wall_s_all=[w for _, w, _ in whole(passes)],
                pass_s_percentile=percentile_beyond([p for p, _, _ in whole(passes)]),
                verdict_s_median=ring_medians(passes),
            )
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    ok = ok and tally.correct == tally.attempted
    info["speed_probes"] = {
        "count": len(meter.probe_s),
        "median_s": statistics.median(meter.probe_s),
        "reference_s": hostspeed.REFERENCE_S,
    }
    info["failed_ratio"] = tally.failed / tally.attempted
    info["problems"] = tally.problems[:20]
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
