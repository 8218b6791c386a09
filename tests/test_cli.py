"""Command line interface: exit codes, output shape, determinism."""

import io
import json
import math
import os
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from skewcodes import cli
from skewcodes.cli import MAX_ALGEBRA_DIM, load_workspace, main

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
W = os.path.join(HERE, "workspaces")


def ws(name):
    return os.path.join(W, name + ".json")


def ws_json(name):
    """The parsed workspace file, read without leaving it open."""
    return json.loads(pathlib.Path(ws(name)).read_text(encoding="utf-8"))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,series,laurent", [
    ("m2f4_e12", "series: yes", "laurent: yes"),
    ("f4c5", "series: yes", "laurent: yes"),
    ("m2f4_diag", "series: no", "laurent: no"),
    ("fyz_quotient", "series: yes", "laurent: no"),
])
def test_verify_verdicts(name, series, laurent):
    rc, out, err = run(["verify", "-w", ws(name)])
    assert rc == 0, err
    assert series in out and laurent in out
    assert "polynomials: yes" in out


def test_mul_poly_commutation():
    rc, out, err = run(["mul", "-w", ws("m2f4_e12"), "-r", "poly",
                        "x", "e21"])
    assert rc == 0, err
    assert out.strip() == "(E11 + E22) + E21*X"


def test_mul_series_identity():
    rc, out, _ = run(["mul", "-w", ws("m2f4_e12"), "-r", "series",
                      "one", "s1"])
    assert rc == 0
    assert "O(X^" in out


def test_mul_laurent_exact_inverse():
    rc, out, err = run(["mul", "-w", ws("m2f4_e12"), "-r", "laurent",
                        "xinv", "x"])
    assert rc == 0, err
    assert out.strip() == "(E11 + E22)"


def test_series_refused_on_non_nilpotent_delta():
    rc, out, err = run(["mul", "-w", ws("m2f4_diag"), "-r", "series",
                        "one", "one"])
    assert rc == 1
    assert "check failed:" in err and "nilpotent" in err


def test_laurent_refused_without_delta_prime_nilpotency():
    rc, out, err = run(["mul", "-w", ws("fyz_quotient"), "-r", "laurent",
                        "one", "one"])
    assert rc == 1
    assert "check failed:" in err


@pytest.mark.parametrize("name", ["fyz_quotient", "m2f4_diag"])
def test_negative_order_without_laurent_ring_is_a_check_failure(name):
    """With no m_delta', the negative-order bound takes m' = 1, and a
    payload inside it meets the missing ring: exit 1, not a TypeError."""
    dim = load_workspace(ws(name)).algebra.dim
    payload = json.dumps({"ord": -3, "coeffs": [[1] + [0] * (dim - 1)]})
    rc, out, err = run(["mul", "-w", ws(name), "-r", "laurent", payload, payload])
    assert rc == 1 and out == "" and "laurent ring unavailable" in err, err


def test_nop_table():
    rc, out, err = run(["nop", "-w", ws("f4c5"), "-i", "1", "-n", "3"])
    assert rc == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "N_1^3 on basis elements:"
    assert lines[1] == "  1 -> 0"
    assert len(lines) == 6


def test_ore_witness():
    rc, out, err = run(["ore", "-w", ws("f4c5"), "-f", "f1"])
    assert rc == 0, err
    assert "verified: yes" in out
    assert "X^4 f = g X^1 with" in out


@pytest.mark.parametrize("argv", [["mul", "-r", "poly", "bad", "x"],
                                  ["ore", "-f", "bad"]], ids=["mul", "ore"])
def test_parent_matrix_that_is_not_a_list_is_input_error(tmp_path, argv):
    raw = ws_json("m2f4_e12")
    raw["polynomials"]["bad"] = [{"parent_matrix": 5}]
    path = tmp_path / "parent.json"
    path.write_text(json.dumps(raw))
    rc, out, err = run([argv[0], "-w", str(path), *argv[1:]])
    assert rc == 2 and out == "" and "parent_matrix must be 2x2" in err, err


@pytest.mark.parametrize("name", ["m2f4_e12", "f4c5"])
def test_code_closure_roundtrip_encode(name):
    rc, out, err = run(["code", "closure", "-w", ws(name)])
    assert rc == 0, err
    assert "pure (direct summand): yes" in out
    assert "stable (A-action): yes" in out
    rc, out, err = run(["code", "roundtrip", "-w", ws(name)])
    assert rc == 0, (err, out)
    assert "FAIL" not in out
    rc, out, err = run(["code", "encode", "-w", ws(name), "-m", "m0"])
    assert rc == 0, err
    assert "decode returns the message: yes" in out


def test_code_check_verdict_drives_exit_code():
    rc, out, _ = run(["code", "check", "-w", ws("f4c5")])
    assert rc == 0
    assert "stable (A-action): yes" in out
    rc, out, _ = run(["code", "check", "-w", ws("m2f4_e12")])
    assert rc == 1, "plain span of e1 is not an A-submodule"
    assert "stable (A-action): no" in out


def test_inline_generator_payload():
    rc, out, _ = run(["code", "check", "-w", ws("m2f4_e12"),
                      "-g", "[[1, 0, 0, 0]]"])
    assert rc == 1
    assert "rate: 1/4" in out
    rc, out, _ = run(["code", "closure", "-w", ws("m2f4_e12"),
                      "-g", "[[1, 0, 0, 0]]"])
    assert rc == 0
    assert "rate: 4/4" in out, "closure in a simple module is full rate"


@pytest.mark.parametrize("name", ["m2f4-inner", "f4c5-group", "m2f4-diag",
                                  "fyz-quotient"])
def test_example_bundles(name):
    rc, out, err = run(["example", name])
    assert rc == 0, (out, err)
    assert "FAIL" not in out
    assert "ok" in out


def test_unknown_example_is_input_error():
    rc, _, err = run(["example", "no-such-context"])
    assert rc == 2


def test_missing_workspace_is_input_error():
    rc, _, err = run(["verify", "-w", ws("does_not_exist")])
    assert rc == 2
    assert "input error:" in err


def test_unknown_name_is_input_error():
    rc, _, err = run(["mul", "-w", ws("f4c5"), "-r", "poly", "nope", "x"])
    assert rc == 2


def test_wrong_width_inline_payload_is_input_error():
    rc, _, err = run(["mul", "-w", ws("f4c5"), "-r", "poly",
                      "[[0, 1]]", "x"])
    assert rc == 2
    assert "input error:" in err


def test_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(["verify", "-w", str(bad)])
    assert rc == 2


def test_schema_violation_is_input_error(tmp_path):
    doc = ws_json("f4c5")
    doc["field"]["p"] = "two"
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(["verify", "-w", str(bad)])
    assert rc == 2
    assert "input error:" in err


def _edited_f4c5(tmp_path, key, value):
    doc = ws_json("f4c5")
    doc[key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_generator_ref_that_is_not_a_string_is_input_error(tmp_path):
    path = _edited_f4c5(tmp_path, "generators", [[]])
    rc, out, err = run(["code", "closure", "-w", path])
    assert rc == 2 and err.startswith("input error:") and out == "", err


def test_message_of_the_wrong_length_is_input_error(tmp_path):
    """e1 generates the whole regular module, so the code has k = 5 and the
    one-entry message m0 does not fit it."""
    path = _edited_f4c5(tmp_path, "vectors", {"ones": [[1, 0, 0, 0, 0]]})
    rc, out, err = run(["code", "encode", "-w", path, "-m", "m0"])
    assert rc == 2 and err.startswith("input error:") and out == "", err
    assert "code dimension 5" in err


@pytest.mark.parametrize("n", [0, -1, 10**9])
def test_trivial_module_size_is_refused_before_building(tmp_path, monkeypatch, n):
    """Refusal path only: a size outside [1, MAX_ALGEBRA_DIM] exits 2 before
    any action array is built."""
    def never(*args, **kwargs):
        raise AssertionError("trivial action built before its size was checked")

    monkeypatch.setattr(cli.np, "broadcast_to", never)
    path = _edited_f4c5(tmp_path, "module", {"kind": "trivial", "n": n})
    rc, out, err = run(["code", "closure", "-w", path])
    assert (rc, out) == (2, "") and err == (
        f"input error: trivial module size n must lie in [1, {MAX_ALGEBRA_DIM}]\n"), err


def test_trivial_module_of_a_valid_size_builds(tmp_path):
    path = _edited_f4c5(tmp_path, "module", {"kind": "trivial", "n": 5})
    rc, out, err = run(["code", "closure", "-w", path])
    assert rc == 0 and out.startswith("rate: 1/5\n"), err


@pytest.mark.parametrize("value", ["false", 0, None])
def test_restrict_scalars_that_is_not_a_boolean_is_input_error(tmp_path, value):
    doc = ws_json("m2f4_e12")
    doc["algebra"]["restrict_scalars"] = value
    path = tmp_path / "restrict.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(["verify", "-w", str(path)])
    assert (rc, out, err) == (2, "", "input error: restrict_scalars must be true or false\n")


@pytest.mark.parametrize("prec", [True, 0, 2.5, "8"])
def test_prec_that_is_not_a_positive_integer_is_input_error(tmp_path, prec):
    rc, out, err = run(["verify", "-w", _edited_f4c5(tmp_path, "prec", prec)])
    assert (rc, out, err) == (2, "", "input error: prec must be a positive integer\n")


@pytest.mark.parametrize("t", [True, 0, 1.5])
def test_frobenius_power_that_is_not_a_positive_integer_is_input_error(tmp_path, t):
    doc = ws_json("m2f4_e12")
    doc["sigma"]["t"] = t
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(["verify", "-w", str(path)])
    assert (rc, out, err) == (2, "", "input error: frobenius power t must be a positive integer\n")


def test_nested_modulus_entries_are_input_error(tmp_path):
    """[[1], [1], [1]] reached the field cache, which could not hash it:
    "bad field: unhashable type: 'list'"."""
    raw = ws_json("f4c5")
    raw["field"] = {"p": 2, "k": 2, "modulus": [[1], [1], [1]]}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(raw))
    rc, out, err = run(["verify", "-w", str(path)])
    assert (rc, out, err) == (2, "", "input error: field modulus must be a list of integers\n")


@pytest.mark.parametrize("payload", [
    '{"ord": -1, "coeffs": [[1, 0, 0, 0, 0]], "end": -1}',
    '{"ord": "-1", "coeffs": [[1, 0, 0, 0, 0]]}',
    '{"ord": 0, "coeffs": [[1, 0, 0, 0, 0]], "end": 1.5}',
])
def test_bad_laurent_window_is_input_error(payload):
    rc, out, err = run(["mul", "-w", ws("f4c5"), "-r", "laurent",
                        payload, "x"])
    assert rc == 2
    assert err.startswith("input error:") and out == ""


@pytest.mark.parametrize("ring,rhs", [("series", "s1"), ("laurent", "x")])
def test_bare_list_series_payload_is_input_error(ring, rhs):
    """The schema makes a series or Laurent payload an object with a "coeffs"
    key; a bare list of elements is not one."""
    rc, out, err = run(["mul", "-w", ws("f4c5"), "-r", ring, "[[1, 0, 0, 0, 0]]", rhs])
    assert (rc, out, err) == (2, "", "input error: missing key 'coeffs'\n")


def test_sizes_over_the_table_limit_are_refused(tmp_path, monkeypatch):
    """Refusal path only: every size is one past its limit, and is refused
    with exit 2 before the N-table is built."""
    def never(*args):
        raise AssertionError("ore_left ran on a refused k")

    monkeypatch.setattr(cli, "ore_left", never)
    limits = load_workspace(ws("f4c5"))
    ore_k = limits.max_n // limits.algebra.dim
    too_far = limits.max_n + 1
    # X^{-n} reads the opposite context's table up to column block n m' - 1 <= max_n
    too_low = -((limits.max_n + 1) // limits.ctx.opposite.m_delta + 1)
    assert too_low == -290
    raw = ws_json("f4c5")
    raw["prec"] = limits.max_prec + 1
    big_prec = tmp_path / "big_prec.json"
    big_prec.write_text(json.dumps(raw))
    for argv in (["nop", "-w", ws("f4c5"), "-i", "0", "-n", str(too_far)],
                 ["mul", "-w", ws("f4c5"), "-r", "series", "one", "s1",
                  "--prec", str(limits.max_prec + 1)],
                 ["mul", "-w", ws("f4c5"), "-r", "series", "one",
                  json.dumps({"coeffs": [[1, 0, 0, 0, 0]], "prec": limits.max_prec + 1})],
                 ["mul", "-w", ws("f4c5"), "-r", "laurent",
                  json.dumps({"ord": too_far, "coeffs": [[1, 0, 0, 0, 0]]}), "x"],
                 ["mul", "-w", ws("f4c5"), "-r", "laurent",
                  json.dumps({"ord": too_low, "coeffs": [[1, 0, 0, 0, 0]]}), "x"],
                 ["mul", "-w", ws("f4c5"), "-r", "laurent",
                  json.dumps({"ord": 0, "coeffs": [[1, 0, 0, 0, 0]], "end": too_far + 1}), "x"],
                 ["verify", "-w", str(big_prec)],
                 ["ore", "-w", ws("f4c5"), "-f", "f1", "-k", "0"],
                 ["ore", "-w", ws("f4c5"), "-f", "f1", "-k", str(ore_k + 1)]):
        rc, out, err = run(argv)
        assert rc == 2, (argv, err)
        assert err.startswith("input error:") and "limit" in err and out == "", argv


@pytest.mark.parametrize("fs,algebra", [
    ({"p": 2}, {"kind": "group_cyclic", "n": 0}),
    ({"p": 2}, {"kind": "matrix", "n": -1}),
    ({"p": 2}, {"kind": "quotient_tn", "poly": []}),
    ({"p": 3}, {"kind": "quotient_tn", "poly": [1, 2]}),
    ({"p": 2}, {"kind": "quotient_yz", "restrict_scalars": True}),
    ({"p": 2}, {"kind": "group_cyclic", "n": MAX_ALGEBRA_DIM + 1}),
    ({"p": 2}, {"kind": "matrix", "n": math.isqrt(MAX_ALGEBRA_DIM) + 1}),
    ({"p": 2}, {"kind": "quotient_tn", "poly": [1] * (MAX_ALGEBRA_DIM + 2)}),
    ({"p": 2, "k": 2}, {"kind": "group_cyclic", "n": MAX_ALGEBRA_DIM // 2 + 1,
                        "restrict_scalars": True}),
])
def test_bad_algebra_sizes_are_refused_before_building(tmp_path, monkeypatch,
                                                      fs, algebra):
    """Refusal path only: each size is empty, not monic, or one past the
    dimension limit; no algebra constructor may run."""
    def never(*args):
        raise AssertionError("algebra built before its size was checked")
    for name in ("matrix_algebra", "group_algebra_cyclic",
                 "quotient_algebra_tn", "quotient_algebra_yz"):
        monkeypatch.setattr(cli, name, never)
    doc = {"field": fs, "algebra": algebra, "sigma": {"kind": "identity"},
           "delta": {"kind": "zero"}}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(["verify", "-w", str(path)])
    assert rc == 2 and err.startswith("input error:") and out == "", err


@pytest.mark.parametrize("fs", [{"p": 2**61 - 1}, {"p": 3, "k": 10**8}])
def test_huge_fields_exit_2_at_once(tmp_path, run_python, fs):
    """A prime p = 2^61 - 1 and a degree k = 10^8 are refused before the
    primality test or p**k runs; in a subprocess, so a hang fails the test."""
    raw = ws_json("f4c5")
    raw["field"] = fs
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    r = run_python("import sys; from skewcodes.cli import main; sys.exit(main(sys.argv[1:]))",
                   "verify", "-w", str(path))
    assert r.returncode == 2 and r.stdout == "", r.stderr
    assert r.stderr.startswith("input error: bad field: "), r.stderr


def test_workspace_schema_reads_the_same_in_readme_and_cli_help():
    """The schema block of the cli docstring and the one in README agree up
    to whitespace, so neither can drift from the other."""
    def words(text):
        return " ".join(text.split())

    doc = cli.__doc__.split("are optional):\n\n", 1)[1].split("\n\n", 1)[0]
    readme = pathlib.Path(HERE, "README.md").read_text(encoding="utf-8")
    block = readme.split("### Workspace schema", 1)[1].split("```\n", 2)[1]
    assert words(doc).startswith("field {") and words(doc) == words(block)


def test_prec_override():
    """--prec sets operand precision; the product window is prec // m."""
    rc, out, _ = run(["mul", "-w", ws("m2f4_e12"), "-r", "series",
                      "one", "s1"])
    assert rc == 0 and "O(X^4)" in out
    rc, out, _ = run(["mul", "-w", ws("m2f4_e12"), "-r", "series",
                      "one", "s1", "--prec", "4"])
    assert rc == 0 and "O(X^2)" in out


def test_double_runs_byte_identical():
    for argv in (["verify", "-w", ws("m2f4_e12")],
                 ["code", "roundtrip", "-w", ws("f4c5")],
                 ["code", "closure", "-w", ws("m2f4_e12"),
                  "-g", "[[1, 0, 0, 0]]"],
                 ["example", "f4c5-group"],
                 ["nop", "-w", ws("f4c5"), "-i", "2", "-n", "4"]):
        first = run(argv)
        second = run(argv)
        assert first == second, argv


@pytest.mark.parametrize("fs", [{"p": 2, "k": 2, "modulus": [1.7, True, 1]},
                                {"p": 2, "k": 2, "modulus": "111"},
                                {"p": 2, "k": True}])
def test_field_entry_that_is_not_an_integer_is_input_error(tmp_path, fs):
    """Nothing is coerced: each of these ran as some field with exit 0."""
    raw = ws_json("f4c5")
    raw["field"] = fs
    path = tmp_path / "field.json"
    path.write_text(json.dumps(raw))
    rc, out, err = run(["verify", "-w", str(path)])
    assert rc == 2 and out == "" and err.startswith("input error:"), err


@pytest.mark.parametrize("digits", [[0.5, 1], [True, 0], [0, 1, 1, 1],
                                    [2, 0], [-1, 0]])
def test_bad_digit_list_is_input_error(tmp_path, digits):
    """A digit list must hold at most k ints in [0, p): nothing is
    truncated, cast or dropped."""
    raw = ws_json("f4c5")
    raw["polynomials"]["g"] = [[0, digits, 0, 0, 0]]
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(raw))
    rc, out, err = run(["mul", "-w", str(path), "-r", "poly", "g", "x"])
    assert rc == 2 and out == "" and err.startswith("input error: bad field element"), err


def test_digit_list_names_the_same_element_as_its_index(tmp_path):
    raw = ws_json("f4c5")
    outs = []
    for coord in ([0, 1], 2):
        raw["polynomials"]["g"] = [[0, coord, 0, 0, 0]]
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(raw))
        rc, out, err = run(["mul", "-w", str(path), "-r", "poly", "g", "x"])
        assert rc == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


def _workspace(tmp_path, doc):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_quotient_tn_with_identity_sigma_and_zero_delta(tmp_path):
    """F3[t]/(t^3 + 1) with sigma = id and delta = 0: the commutative case,
    with series and Laurent rings at m_delta = m_delta' = 1."""
    path = _workspace(tmp_path, {
        "field": {"p": 3}, "algebra": {"kind": "quotient_tn", "poly": [1, 0, 0, 1]},
        "sigma": {"kind": "identity"}, "delta": {"kind": "zero"},
        "vectors": {"g": [[1, 1, 0]]}, "generators": ["g"]})
    rc, out, err = run(["verify", "-w", path])
    assert rc == 0, err
    lines = out.splitlines()
    assert "m_delta: 1" in lines and "laurent: yes (m_delta' = 1)" in lines
    rc, out, err = run(["code", "closure", "-w", path])
    assert rc == 0, err
    lines = out.splitlines()
    assert lines[0] == "rate: 2/3" and lines[-2:] == ["[1, 0, 2]", "[0, 1, 1]"]
    rc, out, err = run(["code", "roundtrip", "-w", path])
    assert rc == 0, err
    assert sum(line.startswith("ok ") for line in out.splitlines()) == 3


def test_non_invertible_sigma_is_reported_and_refuses_laurent(tmp_path):
    """The YZ quotient with sigma the projection onto 1 and delta = 0:
    verify reports sigma as not invertible, and a Laurent product exits 1."""
    path = _workspace(tmp_path, {
        "field": {"p": 2}, "algebra": {"kind": "quotient_yz"},
        "sigma": {"kind": "matrix", "matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]},
        "delta": {"kind": "zero"},
        "laurent": {"one": {"ord": 0, "coeffs": [[1, 0, 0]], "end": 1}}})
    rc, out, err = run(["verify", "-w", path])
    assert rc == 0, err
    lines = out.splitlines()
    assert "sigma: endomorphism ok (not invertible)" in lines
    assert "laurent: no (sigma is not invertible)" in lines
    rc, out, err = run(["mul", "-w", path, "-r", "laurent", "one", "one"])
    assert rc == 1 and out == ""
    assert "check failed: laurent ring unavailable: sigma is not invertible" in err


def _edited(name, **sections):
    doc = ws_json(name)
    doc.update(sections)
    return doc


# (id, workspace: a bundled name or a document, argv with WS for its path,
#  the message or, where json words it, its start)
CLI_REFUSALS = [
    ("workspace-not-an-object", [], ["verify", "-w", "WS"],
     "workspace must be a JSON object"),
    ("field-p-not-prime", _edited("f4c5", field={"p": 4}), ["verify", "-w", "WS"],
     "bad field: p = 4 is not prime"),
    ("unknown-algebra-kind", _edited("f4c5", algebra={"kind": "lie"}),
     ["verify", "-w", "WS"], "unknown algebra kind 'lie'"),
    ("frobenius-sigma-without-restriction", _edited("f4c5", sigma={"kind": "frobenius"}),
     ["verify", "-w", "WS"], "frobenius sigma needs restrict_scalars"),
    ("group-power-sigma-on-a-matrix-algebra",
     _edited("m2f4_e12", sigma={"kind": "group_power", "power": 2}),
     ["verify", "-w", "WS"], "group_power sigma needs a group_cyclic algebra"),
    ("unknown-sigma-kind", _edited("f4c5", sigma={"kind": "shift"}),
     ["verify", "-w", "WS"], "unknown sigma kind 'shift'"),
    ("unknown-delta-kind", _edited("f4c5", delta={"kind": "outer"}),
     ["verify", "-w", "WS"], "unknown delta kind 'outer'"),
    ("natural-module-of-a-group-algebra", _edited("f4c5", module={"kind": "natural"}),
     ["code", "closure", "-w", "WS"],
     "natural module needs a scalar-restricted matrix algebra"),
    ("unknown-module-kind", _edited("f4c5", module={"kind": "free"}),
     ["code", "closure", "-w", "WS"], "unknown module kind 'free'"),
    ("field-element-not-an-integer", "f4c5", ["mul", "-w", "WS", "[[1.5, 0, 0, 0, 0]]", "x"],
     "bad field element 1.5"),
    ("field-element-index-out-of-range", "f4c5",
     ["mul", "-w", "WS", "[[7, 0, 0, 0, 0]]", "x"],
     "bad field element 7: index 7 outside [0, 4)"),
    ("element-object-without-parent-matrix", "m2f4_e12", ["mul", "-w", "WS", "[{}]", "x"],
     "element object needs a parent_matrix key"),
    ("parent-matrix-off-a-matrix-algebra", "f4c5",
     ["mul", "-w", "WS", '[{"parent_matrix": [[1]]}]', "x"],
     "parent_matrix needs a scalar-restricted matrix algebra"),
    ("ring-polynomial-not-a-list", "f4c5", ["mul", "-w", "WS", '{"coeffs": []}', "x"],
     "ring polynomial must be a list of elements"),
    ("series-prec-negative", "f4c5",
     ["mul", "-w", "WS", "-r", "series", '{"coeffs": [], "prec": -1}', "s1"],
     "series prec must be a nonnegative integer"),
    ("inline-payload-not-json", "f4c5", ["mul", "-w", "WS", "[1 2", "x"],
     "bad inline payload: Expecting ',' delimiter: line 1 column "),
    ("nop-i-above-n", "f4c5", ["nop", "-w", "WS", "-i", "3", "-n", "2"],
     "need 0 <= i <= n, got i=3, n=2"),
    ("closure-without-generators", "fyz_quotient", ["code", "closure", "-w", "WS"],
     "no generators: pass -g or add a 'generators' list to the workspace"),
    ("encode-without-a-message", "f4c5", ["code", "encode", "-w", "WS"],
     "encode needs -m MESSAGE"),
    ("message-not-a-list", "f4c5", ["code", "encode", "-w", "WS", "-m", '{"m0": 1}'],
     "message must be a list of F[X] polynomials"),
    ("message-entry-not-a-list", "f4c5", ["code", "encode", "-w", "WS", "-m", "[1]"],
     "each message entry must be a coefficient list"),
]


@pytest.mark.parametrize("workspace,argv,message", [row[1:] for row in CLI_REFUSALS],
                         ids=[row[0] for row in CLI_REFUSALS])
def test_cli_refusals(tmp_path, workspace, argv, message):
    """Each malformed workspace or argument exits 2 with its one-line
    message on stderr, prints nothing to stdout and raises no traceback."""
    path = ws(workspace) if isinstance(workspace, str) else _workspace(tmp_path, workspace)
    rc, out, err = run([path if a == "WS" else a for a in argv])
    assert (rc, out) == (2, ""), err
    assert err.startswith(f"input error: {message}") and err.count("\n") == 1, err
