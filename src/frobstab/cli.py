"""Command-line surface: ring checks, stability reports, ideal tools,
the regression zoo and the imperfect-field demo.

Exit codes: 0 ok, 2 bad input, 3 resource cap hit, 4 internal
inconsistency (a certified cross-check failed, or the zoo deviated from
its committed expectations).
"""

import argparse
import json
import os
import sys

from .errors import (
    InconsistencyError,
    InputError,
    NotSupportedError,
    ResourceLimitError,
)
from .frobenius import (
    DEFAULT_E_MAX, DEFAULT_WINDOW, bracket_power, frobenius_closure, frobenius_root
)
from .groebner import Ideal
from .imperfect import build_example_extension, find_nilpotent_in_tensor
from .localcoh import GradedRing
from .stability import f_injectivity_witness, f_stability

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCES = 3
EXIT_INCONSISTENT = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frobstab",
        description="Frobenius singularity invariants for graded quotient rings",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    sub = parser.add_subparsers(dest="command", required=True)

    ring_check = sub.add_parser(
        "ring-check", parents=[common], help="CM gate and F-injectivity"
    )
    ring_check.add_argument("--ring", required=True, help="ring definition JSON file")

    stability = sub.add_parser(
        "stability", parents=[common], help="full F-stability report"
    )
    stability.add_argument("--ring", required=True)

    ideal = sub.add_parser(parents=[common], name="ideal", help="ideal operations")
    ideal.add_argument(
        "op", choices=["gb", "member", "colon", "bracket", "froot", "fclosure"]
    )
    ideal.add_argument("--ring", required=True)
    ideal.add_argument("--gens", required=True, help="comma-separated generators")
    ideal.add_argument("--poly", help="polynomial argument for member/colon")
    ideal.add_argument("--e", type=int, default=1, help="Frobenius exponent")
    ideal.add_argument(
        "--emax", type=int, default=DEFAULT_E_MAX, help="chain length budget of fclosure"
    )
    ideal.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW, help="stabilization window of fclosure"
    )

    zoo = sub.add_parser(parents=[common], name="zoo", help="run the regression zoo")
    zoo.add_argument("--dir", default=None, help="zoo directory override")

    demo = sub.add_parser(parents=[common], name="demo", help="worked demonstrations")
    demo.add_argument("topic", choices=["imperfect"])
    demo.add_argument("--p", type=int, default=2, help="characteristic for the demo")

    return parser


def _read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {what}: {err}") from None
    except ValueError as err:
        raise InputError(f"{what} is not valid JSON: {err}") from None


def _load_ring(path):
    return GradedRing.from_dict(_read_json(path, "ring file"))


def _emit(report, as_json, out):
    if as_json:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        _render(report, out)


def _render(value, out, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)):
                out.write(f"{pad}{key}:\n")
                _render(inner, out, indent + 1)
            else:
                out.write(f"{pad}{key}: {inner}\n")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                _render(item, out, indent)
                out.write("\n" if indent == 0 else "")
            else:
                out.write(f"{pad}- {item}\n")
    else:
        out.write(f"{pad}{value}\n")


# --- commands --------------------------------------------------------------------


def cmd_ring_check(args, out):
    graded = _load_ring(args.ring)
    status, witness = graded.check_cm()
    report = graded.describe()
    user_text = lambda w: None if w is None else str(graded.to_user(w))
    report["cm"] = {"status": status, "witness": user_text(witness)}
    if status == "verified":
        # the witness is the first vector of the kernel whose emptiness
        # `is_f_injective_cm` decides, so one kernel gives both
        witness = f_injectivity_witness(graded)
        report["f_injective"] = {
            "value": witness is None,
            "status": "certified",
            "witness": user_text(witness),
        }
    else:
        report["f_injective"] = {
            "value": None,
            "status": "unavailable: CM gate failed",
            "witness": None,
        }
    _emit(report, args.json, out)
    return EXIT_OK


def cmd_stability(args, out):
    graded = _load_ring(args.ring)
    _emit(f_stability(graded).to_json(), args.json, out)
    return EXIT_OK


def cmd_ideal(args, out):
    graded = _load_ring(args.ring)
    # in the user's ring: a Frobenius root of T_i - theta_i is the unit ideal
    ring = graded.user_ring
    gens = [ring.parse(t.strip()) for t in args.gens.split(",") if t.strip()]
    I = Ideal(ring, gens)
    relations = graded.user_relations
    stored = Ideal(ring, I.gens + relations.gens)
    report = {"ring": graded.name, "op": args.op, "gens": [str(g) for g in I.gens]}
    if args.op == "gb":
        report["result"] = stored.canonical_strings()
    elif args.op == "member":
        if not args.poly:
            raise InputError("member needs --poly")
        f = ring.parse(args.poly)
        report["poly"] = str(f)
        report["normal_form"] = str(stored.normal_form(f))
        report["result"] = stored.contains(f)
    elif args.op == "colon":
        if not args.poly:
            raise InputError("colon needs --poly")
        f = ring.parse(args.poly)
        report["poly"] = str(f)
        report["result"] = stored.colon(f).canonical_strings()
    elif args.op == "bracket":
        report["e"] = args.e
        report["result"] = bracket_power(I, args.e, relations=relations).canonical_strings()
    elif args.op == "froot":
        report["e"] = args.e
        report["result"] = frobenius_root(I, args.e, relations=relations).canonical_strings()
    elif args.op == "fclosure":
        closure = frobenius_closure(I, args.emax, args.window, relations=relations)
        report["result"] = closure.to_json()
    _emit(report, args.json, out)
    return EXIT_OK


def zoo_row(graded, cfg=None):
    """One regression row; everything in it is deterministic.  No verdict
    reads a run configuration; `cfg` is accepted because `verdictbench`
    passes one."""
    status, _witness = graded.check_cm()
    row = {
        "name": graded.name,
        "p": graded.p,
        "dim": graded.dim,
        "cm": status,
    }
    report = f_stability(graded)
    row["f_injective"] = report.f_injective[0]
    row["f_injective_status"] = report.f_injective[1]
    row["f_stable"] = report.certified_verdict
    row["stable_dim"] = report.stable_dim
    row["stable_status"] = report.certified_status
    row["socle_found"] = report.socle.found()
    row["agreement"] = report.agreement
    row["sw"] = report.components
    return row


def _zoo_dir(args):
    if args.dir:
        return args.dir
    from importlib import resources

    return str(resources.files("frobstab.zoo"))


def cmd_zoo(args, out):
    directory = _zoo_dir(args)
    try:
        names = sorted(
            f for f in os.listdir(directory) if f.endswith(".json") and f != "expectations.json"
        )
    except OSError as err:
        raise InputError(f"cannot read zoo directory: {err}") from None
    if not names:
        raise InputError(f"zoo directory {directory} holds no ring files")
    expectations = {}
    expect_path = os.path.join(directory, "expectations.json")
    if os.path.exists(expect_path):
        expectations = _read_json(expect_path, "expectations file")
        if not isinstance(expectations, dict):
            raise InputError("expectations file must be a JSON object of rows by ring name")
    rows = []
    for fname in names:
        graded = _load_ring(os.path.join(directory, fname))
        rows.append(zoo_row(graded))
    mismatches = []
    for row in rows:
        expected = expectations.get(row["name"])
        if expected is not None and expected != row:
            mismatches.append({"name": row["name"], "expected": expected, "got": row})
    if args.json:
        out.write(
            json.dumps(
                {"rows": rows, "mismatches": mismatches}, indent=2, sort_keys=True
            )
            + "\n"
        )
    else:
        _print_zoo_table(rows, out)
        for m in mismatches:
            out.write(f"MISMATCH {m['name']}: expected {m['expected']}, got {m['got']}\n")
    if mismatches:
        raise InconsistencyError(f"{len(mismatches)} zoo rows deviate from expectations")
    return EXIT_OK


def _print_zoo_table(rows, out):
    headers = [
        "ring", "p", "dim", "CM", "F-inj", "status", "F-stable", "dim_s", "agree", "SW"
    ]
    table = []
    for r in rows:
        sw = r["sw"]
        sw_text = f"{sw['components']}={sw['formula']}" if sw else "-"
        table.append(
            [
                r["name"],
                str(r["p"]),
                str(r["dim"]),
                r["cm"],
                str(r["f_injective"]),
                r["f_injective_status"],
                str(r["f_stable"]),
                str(r["stable_dim"]),
                str(r["agreement"]),
                sw_text,
            ]
        )
    widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out.write(line + "\n")
    out.write("-" * len(line) + "\n")
    for row in table:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")


def cmd_demo(args, out):
    if args.topic == "imperfect":
        L = build_example_extension(args.p)
        witness = find_nilpotent_in_tensor(L)
        if witness is None:
            report = {"p": args.p, "witness": None}
        else:
            report = {"p": args.p, **witness.to_json()}
        _emit(report, args.json, out)
    return EXIT_OK


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "ring-check": cmd_ring_check,
        "stability": cmd_stability,
        "ideal": cmd_ideal,
        "zoo": cmd_zoo,
        "demo": cmd_demo,
    }
    try:
        return handlers[args.command](args, out)
    except (InputError, NotSupportedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCES
    except InconsistencyError as err:
        print(f"inconsistency: {err}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    raise SystemExit(main())
