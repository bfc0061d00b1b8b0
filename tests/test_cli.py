# CLI surface: subcommands, exit codes, determinism, no GB cache option.

import io
import json
import os
import shutil

import pytest

import frobstab.stability as stability
from frobstab.cli import main
from frobstab.groebner import clear_memory_cache

ZOO = os.path.join(os.path.dirname(__file__), "..", "src", "frobstab", "zoo")


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def ring_path(name):
    return os.path.join(ZOO, name + ".json")


def test_ring_check_ok_and_json():
    code, text = run(["ring-check", "--ring", ring_path("lines2_p2"), "--json"])
    assert code == 0
    data = json.loads(text)
    assert data["cm"]["status"] == "verified"
    assert data["f_injective"]["value"] is True


def test_ring_check_cusp_reports_witness():
    code, text = run(["ring-check", "--ring", ring_path("cusp_p2"), "--json"])
    assert code == 0
    data = json.loads(text)
    assert data["f_injective"]["value"] is False
    assert data["f_injective"]["witness"] == "b"


def test_ring_check_takes_the_f_injectivity_kernel_once(monkeypatch):
    # the witness and the value come from one kernel of the socle map
    calls = []
    kernel = stability.kernel

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(stability, "kernel", counted)
    code, text = run(["ring-check", "--ring", ring_path("cusp_p2"), "--json"])
    assert code == 0
    assert json.loads(text)["f_injective"] == {"status": "certified", "value": False, "witness": "b"}
    assert len(calls) == 1


def test_stability_report_schema():
    code, text = run(["stability", "--ring", ring_path("lines3_p2"), "--json"])
    assert code == 0
    data = json.loads(text)
    assert data["f_stable"]["certified"] is True
    assert data["f_stable"]["stable_dim"] == 2
    assert data["f_stable"]["agreement"] is True
    assert data["sw_check"]["components"] == 3


def test_stability_text_output_ends_with_component_check():
    code, text = run(["stability", "--ring", ring_path("lines3_p2")])
    assert code == 0
    lines = text.splitlines()
    sw = lines.index("sw_check:")
    assert lines.index("f_stable:") < sw
    assert all(line.startswith("  ") for line in lines[sw + 1 :])
    assert "  components: 3" in lines[sw + 1 :]


def test_malformed_ring_file_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(["ring-check", "--ring", str(bad)])
    assert code == 2
    missing = tmp_path / "missing_keys.json"
    missing.write_text(json.dumps({"char": 2, "vars": ["a"]}))
    code, _ = run(["ring-check", "--ring", str(missing)])
    assert code == 2
    code, _ = run(["ring-check", "--ring", str(tmp_path / "nope.json")])
    assert code == 2


LINES2 = {"char": 2, "vars": ["a", "b"], "relations": ["a*b"], "sop": ["a+b"]}
AXES = {"char": 2, "vars": ["x", "y", "z"], "relations": ["x*y", "x*z", "y*z"], "sop": ["x+y+z"]}


@pytest.mark.parametrize(
    "data",
    [
        ["not", "an", "object"],
        {**LINES2, "degrees": ["x", 1]},
        {**LINES2, "degrees": [1.5, 1]},
        {**LINES2, "degrees": [True, 1]},
        {**LINES2, "degrees": True},
        {**LINES2, "degrees": 0},
        {**LINES2, "degrees": []},
        {**LINES2, "relations": [1]},
        {"char": 2, "vars": ["a", "b"], "relations": "a", "sop": ["b"]},
        {"char": 2, "vars": ["a"], "relations": [], "sop": "a"},
        {**LINES2, "vars": "ab"},
        {**LINES2, "name": ["x", {"y": 1}]},
        {**LINES2, "name": 0},
    ],
    ids=[
        "not-an-object",
        "string-degree",
        "float-degree",
        "bool-degree",
        "bool-degrees",
        "zero-degrees",
        "empty-degrees",
        "int-relation",
        "string-relations",
        "string-sop",
        "string-vars",
        "list-name",
        "zero-name",
    ],
)
def test_malformed_ring_schema_exit_2(data, tmp_path, capsys):
    # each was a traceback (exit 1) or read as something else (exit 0)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run(["stability", "--ring", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "ring,primes",
    [(LINES2, ["a", "b"]), (AXES, [["x", "y"], ["x", "z"], "yz"])],
    ids=["lines2", "axes"],
)
def test_a_minimal_primes_key_is_ignored(ring, primes, tmp_path):
    # the component count reads nothing from the file but the ring, so a
    # minimal_primes key, well formed or not, loads and changes no byte
    rows = []
    for data in (ring, {**ring, "minimal_primes": primes}):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(data))
        code, text = run(["stability", "--ring", str(path), "--json"])
        assert code == 0
        rows.append(text)
    assert rows[0] == rows[1]


def test_ideal_subcommands():
    code, text = run(
        ["ideal", "bracket", "--ring", ring_path("lines2_p2"), "--gens", "a, b", "--e", "1", "--json"]
    )
    assert code == 0
    data = json.loads(text)
    assert set(data["result"]) == {"a^2", "b^2", "a*b"}

    code, text = run(
        ["ideal", "froot", "--ring", ring_path("poly1_p2"), "--gens", "a^2", "--e", "1", "--json"]
    )
    assert code == 0
    assert json.loads(text)["result"] == ["a"]

    code, text = run(
        ["ideal", "member", "--ring", ring_path("lines2_p2"), "--gens", "a+b", "--poly", "a^2+b^2", "--json"]
    )
    assert code == 0
    assert json.loads(text)["result"] is True

    code, text = run(
        ["ideal", "fclosure", "--ring", ring_path("cusp_p2"), "--gens", "a", "--json"]
    )
    assert code == 0
    assert set(json.loads(text)["result"]["closure"]) == {"a", "b"}


def test_chain_flags_belong_to_ideal():
    # --emax and --window bound `ideal fclosure` only; elsewhere they are
    # unknown arguments
    for argv in (
        ["stability", "--ring", ring_path("lines2_p2"), "--emax", "3"],
        ["ring-check", "--ring", ring_path("lines2_p2"), "--window", "1"],
        ["zoo", "--emax", "3"],
    ):
        with pytest.raises(SystemExit) as exited:
            run(argv)
        assert exited.value.code == 2
    fclosure = ["ideal", "fclosure", "--ring", ring_path("cusp_p2"), "--gens", "a"]
    code, text = run(fclosure + ["--emax", "1", "--window", "1", "--json"])
    assert code == 0
    assert set(json.loads(text)["result"]["closure"]) == {"a", "b"}
    code, _ = run(fclosure + ["--emax", "0"])
    assert code == 2


def test_ideal_missing_poly_is_input_error():
    code, _ = run(["ideal", "member", "--ring", ring_path("lines2_p2"), "--gens", "a"])
    assert code == 2


def test_ideal_parse_error_exit_2():
    code, _ = run(["ideal", "gb", "--ring", ring_path("lines2_p2"), "--gens", "a + %"])
    assert code == 2


# the demo's witness JSON byte for byte: the extension arithmetic under it
# may change, the witness may not
DEMO_WITNESS_JSON = {
    2: """{
  "basis": [
    "1",
    "y",
    "y^2",
    "y^3"
  ],
  "certificate_index": 0,
  "p": 2,
  "relation": [
    "v",
    "u",
    "1",
    "0"
  ]
}
""",
    3: """{
  "basis": [
    "1",
    "y",
    "y^2",
    "y^3",
    "y^4",
    "y^5"
  ],
  "certificate_index": 0,
  "p": 3,
  "relation": [
    "2*v",
    "u",
    "1",
    "0",
    "0",
    "0"
  ]
}
""",
}


def test_demo_imperfect_json():
    for p, expected in DEMO_WITNESS_JSON.items():
        code, text = run(["demo", "imperfect", "--p", str(p), "--json"])
        assert code == 0
        assert text == expected


def test_json_reports_are_byte_identical():
    argv = ["stability", "--ring", ring_path("lines2_p2"), "--json"]
    _, first = run(argv)
    clear_memory_cache()
    _, second = run(argv)
    assert first == second


def test_the_gb_cache_is_not_reachable_from_the_cli(tmp_path, monkeypatch):
    # the on-disk cache accepts the basis of any larger ideal, so the CLI
    # offers no way to it: --cache is an unknown argument (exit 2), and
    # FROBSTAB_CACHE is neither read nor written to
    with pytest.raises(SystemExit) as exited:
        run(["stability", "--ring", ring_path("lines2_p3"), "--cache", str(tmp_path)])
    assert exited.value.code == 2
    argv = ["stability", "--ring", ring_path("lines2_p3"), "--json"]
    clear_memory_cache()
    _, plain = run(argv)
    monkeypatch.setenv("FROBSTAB_CACHE", str(tmp_path))
    clear_memory_cache()
    code, with_env = run(argv)
    assert code == 0 and with_env == plain
    assert not any(tmp_path.iterdir())


def test_zoo_small_dir_and_expectation_mismatch(tmp_path):
    small = tmp_path / "zoo"
    small.mkdir()
    shutil.copy(ring_path("poly1_p2"), small / "poly1_p2.json")
    code, text = run(["zoo", "--dir", str(small), "--json"])
    assert code == 0
    rows = json.loads(text)["rows"]
    assert len(rows) == 1 and rows[0]["f_stable"] is False

    wrong = dict(rows[0])
    wrong["f_stable"] = True
    (small / "expectations.json").write_text(json.dumps({rows[0]["name"]: wrong}))
    code, text = run(["zoo", "--dir", str(small), "--json"])
    assert code == 4


def test_zoo_empty_dir_exit_2(tmp_path):
    empty = tmp_path / "zoo"
    empty.mkdir()
    code, _ = run(["zoo", "--dir", str(empty)])
    assert code == 2


def test_zoo_malformed_expectations_exit_2(tmp_path, capsys):
    # invalid JSON and a JSON list were tracebacks (exit 1)
    small = tmp_path / "zoo"
    small.mkdir()
    shutil.copy(ring_path("poly1_p2"), small / "poly1_p2.json")
    for text in ("{not json", json.dumps(["poly1_p2"])):
        (small / "expectations.json").write_text(text)
        code, _ = run(["zoo", "--dir", str(small), "--json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: expectations file ")


def test_terms_past_the_64_bit_kernel_exit_3(tmp_path, capsys):
    # the compiled kernel printed a wrong normal form for the first and an
    # OverflowError traceback for the second; both kernels now refuse them
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({**LINES2, "relations": [], "sop": ["a", "b"]}))
    big = "a^4611686018427387904*b^4611686018427387904+a"
    code, _ = run(["ideal", "member", "--ring", str(plane), "--gens", big, "--poly", "a"])
    assert code == 3
    bracket = ["ideal", "bracket", "--ring", ring_path("lines2_p2"), "--gens", "a+b", "--json"]
    code, _ = run(bracket + ["--e", "63"])
    assert code == 3
    assert capsys.readouterr().err.count("resource limit: ") == 2
    code, text = run(bracket + ["--e", "61"])
    assert code == 0
    assert json.loads(text)["result"] == [
        "a*b", "a^2305843009213693952 + b^2305843009213693952", "b^2305843009213693953"
    ]


# --- integers past Python's 4300-digit int/str conversion limit -------------------


def test_frobenius_degree_past_the_str_limit_exit_3(capsys):
    # 2^100000 has 30103 digits; putting it in the message was a ValueError
    # traceback (exit 1).  e = 10^12 must fail as fast, without forming 2^e.
    bracket = ["ideal", "bracket", "--ring", ring_path("lines2_p2"), "--gens", "a"]
    for e in ("100000", "1000000000000"):
        code, _ = run(bracket + ["--e", e])
        assert code == 3
        assert capsys.readouterr().err.startswith("resource limit: a term of weighted degree ")


def test_power_degree_past_the_str_limit_exit_3(capsys):
    # two 3000-digit exponents multiply to a 6000-digit degree
    n = "9" * 3000
    member = ["ideal", "member", "--ring", ring_path("lines2_p2"), "--gens", "a"]
    code, _ = run(member + ["--poly", f"(a^{n})^{n}"])
    assert code == 3
    assert capsys.readouterr().err.startswith("resource limit: a term of weighted degree 2^")


def test_frobenius_power_of_a_constant_at_any_e():
    # Fermat fixes every constant, so its bracket power never grows
    bracket = ["ideal", "bracket", "--ring", ring_path("lines2_p2"), "--gens", "1", "--json"]
    code, text = run(bracket + ["--e", "100000"])
    assert code == 0
    assert json.loads(text)["result"] == ["1"]


def test_frobenius_root_at_any_e():
    # the root of (a) is (1) after one step, and a repeated step ends the loop
    froot = ["ideal", "froot", "--ring", ring_path("lines2_p2"), "--gens", "a", "--json"]
    code, text = run(froot + ["--e", "1000000000000"])
    assert code == 0
    assert json.loads(text)["result"] == ["1"]


@pytest.mark.parametrize(
    "poly", ["a^" + "9" * 5000, "9" * 5000 + "*a"], ids=["exponent", "coefficient"]
)
def test_literal_past_the_str_limit_exit_2(poly, capsys):
    # an exponent or coefficient of 5000 digits was a ValueError traceback
    member = ["ideal", "member", "--ring", ring_path("lines2_p2"), "--gens", "a"]
    code, _ = run(member + ["--poly", poly])
    assert code == 2
    assert "integer literal of 5000 digits is too long" in capsys.readouterr().err
