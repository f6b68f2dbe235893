"""End-to-end checks of the command-line front end.

Everything runs in-process through cli.main so exit codes and emitted
bytes are asserted exactly.
"""

import ast
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbtaut import cli, combinat, symrep, tautops
from hilbtaut.rroch import BUILTIN_SURFACES
from hilbtaut.tautops import EXPONENT_RULES


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- chi ---------------------------------------------------------------


def test_chi_spot_values(capsys):
    rc, out, _ = run(capsys, "chi", "--surface", "p2", "--n", "3", "--k", "3",
                     "--L", "2", "--A", "0")
    assert rc == 0 and "chi=56" in out
    rc, out, _ = run(capsys, "chi", "--surface", "p2", "--n", "2", "--k", "3",
                     "--L", "3", "--A", "1")
    assert rc == 0 and "chi=540" in out
    rc, out, _ = run(capsys, "chi", "--surface", "k3", "--n", "1", "--k", "0",
                     "--L", "0", "--A", "0")
    assert rc == 0 and "chi=2" in out


def test_chi_answers_at_a_huge_number_of_points(capsys):
    rc, out, _ = run(capsys, "chi", "--surface", "p2", "--n", "200000", "--k", "1",
                     "--L", "1", "--A", "0")
    assert rc == 0 and out.strip().endswith("chi=3")


def test_chi_csv_columns_two_points(capsys):
    rc, out, _ = run(capsys, "chi", "--surface", "p1xp1", "--n", "2", "--k", "2",
                     "--L", "1:2", "--A", "0:0", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "surface,n,k,L,A,chi,gr_0,gr_1"
    assert lines[1].startswith("p1xp1,2,2,1:2,0:0,")
    # graded pieces add up to the total column
    cells = lines[1].split(",")
    assert int(cells[5]) == int(cells[6]) + int(cells[7])


def test_chi_csv_no_graded_columns_beyond_two_points(capsys):
    rc, out, _ = run(capsys, "chi", "--surface", "p2", "--n", "3", "--k", "2",
                     "--L", "1", "--A", "0", "--format", "csv")
    assert rc == 0
    assert out.strip().split("\n")[0] == "surface,n,k,L,A,chi"


def test_chi_batch_rows_in_flag_order(capsys):
    rc, out, _ = run(capsys, "chi", "--surface", "p2", "--n", "2", "--k", "2",
                     "--L", "1", "--L", "2", "--A", "0", "--format", "json")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [r["L"] for r in rows] == [[1], [2]]


def test_chi_rejects_unsupported_pair(capsys):
    rc, _, err = run(capsys, "chi", "--surface", "p2", "--n", "3", "--k", "7",
                     "--L", "1", "--A", "0")
    assert rc == 2 and "unsupported" in err


def test_chi_rejects_unknown_surface(capsys):
    rc, _, err = run(capsys, "chi", "--surface", "enriques", "--n", "2",
                     "--k", "2", "--L", "1", "--A", "0")
    assert rc == 2 and "error:" in err


def test_chi_missing_surface_file_names_the_builtins(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, "chi", "--surface", "p3", "--n", "2", "--k", "2",
                       "--L", "1", "--A", "0")
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: cannot read surface model: [Errno 2]")
    assert f"builtins: {sorted(BUILTIN_SURFACES)}" in err


def test_chi_loads_surface_model_from_json(capsys, tmp_path):
    model = {"name": "quadric", "rank": 2, "intersection": [[0, 1], [1, 0]],
             "K": [-2, -2], "chiO": 1, "c2": 4}
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps(model))
    rc, out, _ = run(capsys, "chi", "--surface", str(path), "--n", "2",
                     "--k", "3", "--L", "2:2", "--A", "0:0", "--format", "json")
    assert rc == 0
    rc2, out2, _ = run(capsys, "chi", "--surface", "p1xp1", "--n", "2",
                      "--k", "3", "--L", "2:2", "--A", "0:0", "--format", "json")
    assert rc2 == 0
    assert json.loads(out)["rows"][0]["chi"] == json.loads(out2)["rows"][0]["chi"]


@pytest.mark.parametrize("argv", [
    ("--n", "3", "--k", "3", "--L", "0", "--A", "0"),
    ("--n", "2", "--k", "3", "--L", "0", "--A", "0"),
    ("--n", "2", "--k", "2", "--L", "1", "--A", "0"),
])
def test_chi_rejects_non_characteristic_K(capsys, tmp_path, argv):
    # Noether holds, but e.e - K.e = 1 is odd, so half of it is no chi
    model = {"name": "odd", "rank": 1, "intersection": [[1]], "K": [0],
             "chiO": 1, "c2": 12}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(model))
    rc, out, err = run(capsys, "chi", "--surface", str(path), *argv)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "non-characteristic K" in err


def test_chi_rejects_non_object_surface_json(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    rc, _, err = run(capsys, "chi", "--surface", str(path), "--n", "2",
                     "--k", "2", "--L", "1", "--A", "0")
    assert rc == 2
    assert err.count("\n") == 1 and "must be a JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field,value", [
    ("c2", None),
    ("K", -3),
    ("intersection", [1]),
    ("rank", 1.5),
    ("chiO", True),
    ("c2", "3"),
    ("name", 7),
])
def test_chi_rejects_wrongly_typed_surface_json(capsys, tmp_path, field, value):
    model = {"name": "plane", "rank": 1, "intersection": [[1]], "K": [-3],
             "chiO": 1, "c2": 3}
    model[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    rc, out, err = run(capsys, "chi", "--surface", str(path), "--n", "2",
                       "--k", "2", "--L", "1", "--A", "0")
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and repr(field) in err
    assert "Traceback" not in err


# Python's limit on converting an int to a decimal string; 0 means none.
STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_str_limit = pytest.mark.skipif(
    STR_DIGITS != 4300, reason="needs the default integer string limit")


@needs_str_limit
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_chi_too_long_to_print_is_a_usage_error(capsys, fmt):
    rc, out, err = run(capsys, "chi", "--surface", "p2", "--n", "2", "--k", "4",
                       "--L", "9" * 1200, "--A", "0", "--format", fmt)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "more than 4300 digits" in err


@pytest.mark.parametrize("k,L", [("4000000", "1"), ("5000000", "1:2")])
def test_chi_gr_row_over_the_cap_exits_two_before_any_piece(capsys, monkeypatch, k, L):
    # the cap comes before the class is read, so a class of the wrong
    # shape is refused for the size of its row
    def uncomputed(*args):
        raise AssertionError("chi computed before the gr row was sized")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    for name in ("chi_sym_power", "chi_graded_pieces_n2"):
        monkeypatch.setattr(cli, name, uncomputed)
    rc, out, err = run(capsys, "chi", "--surface", "p2", "--n", "2", "--k", k,
                       "--L", L, "--A", "0")
    assert rc == 2 and out == ""
    assert err == (f"error: chi gr row (2,{k}): 1 x {int(k) // 2 + 1} matrix exceeds the "
                   "entry cap 2000000; set HILBTAUT_MAX_MATRIX_ENTRIES to raise it\n")


def test_chi_gr_row_refused_exactly_when_over_the_cap(capsys, monkeypatch):
    # k = 4 and 5 have 3 pieces, k = 6 has 4; no other n has a gr row
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "3")
    for n, k, rc_want in [(2, 4, 0), (2, 5, 0), (2, 6, 2), (1, 4, 0), (3, 4, 0)]:
        rc, out, err = run(capsys, "chi", "--surface", "p2", "--n", str(n), "--k", str(k),
                           "--L", "1", "--A", "0")
        assert rc == rc_want, (n, k, err)
        assert ("gr=" in out) == (rc == 0 and n == 2), (n, k, out)


@needs_str_limit
def test_chi_too_long_to_print_from_surface_json(capsys, tmp_path):
    model = {"name": "huge", "rank": 1, "intersection": [[2 * (10**4000 - 1)]],
             "K": [0], "chiO": 0, "c2": 0}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(model))
    rc, out, err = run(capsys, "chi", "--surface", str(path), "--n", "2",
                       "--k", "4", "--L", "1", "--A", "0")
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "more than 4300 digits" in err


@needs_str_limit
@pytest.mark.parametrize("show,name", [("--det", "det"), ("--minors", "minor 1")])
def test_toeplitz_too_long_to_print_is_a_usage_error(capsys, show, name):
    rc, out, err = run(capsys, "toeplitz", "--kind", "T", "--n", "8000",
                       "--m", "1", show)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and f"{name} has more than 4300 digits" in err


@needs_str_limit
def test_printable_limit_is_exact():
    limit = STR_DIGITS
    assert cli._printable(-(10**limit - 1), "chi") == -(10**limit - 1)
    str(10**limit - 1)
    with pytest.raises(cli.UsageError, match=f"gr_0 has more than {limit} digits"):
        cli._printable(10**limit, "gr_0")
    with pytest.raises(ValueError):
        str(10**limit)


@needs_str_limit
def test_printable_follows_a_changed_limit():
    # the bound is built once per limit, so a lowered limit must not
    # reuse the default one
    assert cli._printable(10**640, "det") == 10**640
    sys.set_int_max_str_digits(640)
    try:
        assert cli._printable(10**640 - 1, "det") == 10**640 - 1
        with pytest.raises(cli.UsageError, match="det has more than 640 digits"):
            cli._printable(-(10**640), "det")
    finally:
        sys.set_int_max_str_digits(STR_DIGITS)
    assert cli._printable(10**640, "det") == 10**640


def test_chi_rejects_deeply_nested_surface_json(capsys, tmp_path):
    # the JSON decoder recurses once per bracket
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    rc, out, err = run(capsys, "chi", "--surface", str(path), "--n", "2",
                       "--k", "2", "--L", "1", "--A", "0")
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "nested too deeply" in err


_PLANE = {"name": "plane", "rank": 1, "intersection": [[1]], "K": [-3],
          "chiO": 1, "c2": 3}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _surface_models(draw):
    """Any JSON value, or a valid model with one field retyped, a ragged or
    resized matrix, a K of the wrong length, c2 off Noether, a field
    dropped or an extra key."""
    model = draw(st.sampled_from([
        _PLANE,
        {"name": "quadric", "rank": 2, "intersection": [[0, 1], [1, 0]],
         "K": [-2, -2], "chiO": 1, "c2": 4},
    ]))
    model = json.loads(json.dumps(model))
    kind = draw(st.sampled_from(
        ["any", "retype", "ragged", "K", "noether", "drop", "extra", "valid"]))
    field = draw(st.sampled_from(sorted(model)))
    if kind == "any":
        return draw(_JSON)
    if kind == "retype":
        model[field] = draw(_JSON)
    elif kind == "ragged":
        row = draw(st.integers(0, len(model["intersection"]) - 1))
        model["intersection"][row] = draw(st.lists(st.integers(-3, 3), max_size=3))
    elif kind == "K":
        model["K"] = draw(st.lists(st.integers(-3, 3), max_size=3))
    elif kind == "noether":
        model["c2"] += draw(st.integers(-5, 5))
    elif kind == "drop":
        del model[field]
    elif kind == "extra":
        model[draw(st.text(max_size=3))] = draw(_JSON)
    return model


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(model=_surface_models(), n=st.integers(0, 3), k=st.integers(0, 3),
       vec=st.sampled_from(["1", "0:1", "-1"]))
def test_fuzzed_surface_json_exits_cleanly(tmp_path_factory, model, n, k, vec):
    path = tmp_path_factory.mktemp("surface") / "model.json"
    path.write_text(json.dumps(model))
    argv = ["chi", "--surface", str(path), "--n", str(n), "--k", str(k),
            "--L", vec, "--A", vec]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, model
        assert err.getvalue().startswith("error:"), model
    else:
        assert rc == 0, (model, argv, err.getvalue())


# --- kernel / graded ---------------------------------------------------


def test_kernel_spot_vector(capsys):
    rc, out, _ = run(capsys, "kernel", "--n", "2", "--k", "2",
                     "--max-degree", "2", "--invariant")
    assert rc == 0 and "[1, 5, 18]" in out


def test_kernel_full_mode_differs(capsys):
    _, inv, _ = run(capsys, "kernel", "--n", "2", "--k", "2",
                    "--max-degree", "2", "--format", "json")
    _, full, _ = run(capsys, "kernel", "--n", "2", "--k", "2",
                     "--max-degree", "2", "--full", "--format", "json")
    inv_dims = json.loads(inv)["cumulative"]
    full_dims = json.loads(full)["cumulative"]
    assert inv_dims == [1, 5, 18]
    assert all(f >= i for f, i in zip(full_dims, inv_dims))
    assert full_dims != inv_dims


def test_exploratory_gate_and_conjectural_flag(capsys):
    rc, _, err = run(capsys, "kernel", "--n", "3", "--k", "5",
                     "--max-degree", "1")
    assert rc == 2 and "--exploratory" in err
    rc, out, _ = run(capsys, "kernel", "--n", "3", "--k", "5",
                     "--max-degree", "1", "--exploratory", "--format", "json")
    assert rc == 0 and json.loads(out)["conjectural"] is True
    rc, out, _ = run(capsys, "kernel", "--n", "2", "--k", "5",
                     "--max-degree", "1", "--format", "json")
    assert rc == 0 and "conjectural" not in json.loads(out)


def test_graded_marks_conjectural_sizes(capsys):
    argv = ("graded", "--n", "3", "--k", "5", "--max-degree", "2", "--exploratory")
    rc, out, _ = run(capsys, *argv, "--format", "json")
    assert rc == 0 and json.loads(out)["conjectural"] is True
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and out.rstrip("\n").split("\n")[-1] == "  (conjectural)"
    rc, out, _ = run(capsys, "graded", "--n", "2", "--k", "5", "--max-degree", "2")
    assert rc == 0 and "(conjectural)" not in out


def test_graded_totals_match_kernel(capsys):
    rc, out, _ = run(capsys, "graded", "--n", "2", "--k", "2",
                     "--max-degree", "2", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "mu,deg_0,deg_1,deg_2"
    assert lines[-1] == "total,1,5,18"
    assert any(line.startswith("1:1,") for line in lines)


# --- toeplitz / reps ---------------------------------------------------


def test_toeplitz_det_and_minors(capsys):
    rc, out, _ = run(capsys, "toeplitz", "--kind", "T", "--even", "--n", "1",
                     "--m", "3", "--det")
    assert rc == 0 and "det = 4" in out
    rc, out, _ = run(capsys, "toeplitz", "--kind", "T", "--even", "--n", "1",
                     "--m", "3", "--minors", "--format", "json")
    assert rc == 0 and json.loads(out)["minors"] == [2, 3, 4]


def test_toeplitz_rank_and_domain(capsys):
    rc, out, _ = run(capsys, "toeplitz", "--kind", "R", "--l", "2", "--k", "4",
                     "--j", "1", "--format", "json")
    assert rc == 0 and json.loads(out)["rank"] == 3
    rc, _, err = run(capsys, "toeplitz", "--kind", "R", "--l", "9", "--k", "4",
                     "--j", "1")
    assert rc == 2 and "empty matrix" in err


@pytest.mark.parametrize("parity", ["--even", "--odd"])
def test_toeplitz_takes_zero_n(capsys, parity):
    rc, out, _ = run(capsys, "toeplitz", "--kind", "T", parity, "--n", "0",
                     "--m", "3")
    assert rc == 0 and "det = 1" in out


@pytest.mark.parametrize("argv", [
    ("--kind", "T", "--n", "1", "--m", "1415"),
    ("--kind", "R", "--l", "1", "--k", "2000", "--j", "0"),
])
def test_toeplitz_entry_cap_refuses_before_building(capsys, monkeypatch, argv):
    def unbuilt(*args):
        raise AssertionError("matrix built before the cap was checked")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    for name in ("t_even", "t_odd", "r_matrix"):
        monkeypatch.setattr(cli, name, unbuilt)
    rc, out, err = run(capsys, "toeplitz", *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "exceeds the entry cap 2000000" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command,extra", [
    ("chi", ("--L", "1", "--A", "0")),
    ("kernel", ("--max-degree", "1")),
    ("graded", ("--max-degree", "1")),
])
def test_zero_points_exit_two(capsys, command, extra):
    rc, out, err = run(capsys, command, "--n", "0", "--k", "2", *extra)
    assert rc == 2 and out == ""
    assert err == "error: --n must be at least 1\n"


def test_reps_refuses_k_below_one(capsys):
    # one rule, and one message, for zero and for negative k
    for k in ("0", "-1"):
        rc, out, err = run(capsys, "reps", "--k", k)
        assert rc == 2 and out == ""
        assert err == "error: --k must be at least 1\n", k


def test_reps_over_the_cap_exits_two_unlisted(capsys, monkeypatch):
    # one class polynomial per cycle type, a partition of 500 at most 500 wide
    def unlisted(*args):
        raise AssertionError("cycle types listed before the cap was checked")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    monkeypatch.setattr(symrep, "_partitions", unlisted)
    rc, out, err = run(capsys, "reps", "--k", "500")
    assert rc == 2 and out == ""
    assert err.startswith("error: partitions of 500 into at most 500 parts:") and "cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,flag", [
    (("--kind", "T", "--n", "2"), "--m"),
    (("--kind", "R", "--l", "1", "--k", "3"), "--j"),
])
def test_toeplitz_missing_dimension_exits_two(capsys, argv, flag):
    rc, out, err = run(capsys, "toeplitz", *argv)
    assert rc == 2 and out == ""
    assert err == f"error: {flag} is required\n"


def test_reps_series(capsys):
    rc, out, _ = run(capsys, "reps", "--k", "3")
    assert rc == 0
    assert "3 t^2 + 6 t^3 + 3 t^4" in out
    first = out.strip().split("\n")[0]
    assert first.endswith("3 t^2")


def test_reps_averages_the_characters_once(capsys, monkeypatch):
    # rho is R divided by the invariant line's (1 + t)^2, not a second
    # average, in the reps command and in the reps suite alike
    calls = []
    real = cli.antiinv_dims_R

    def counted(k):
        calls.append(k)
        return real(k)

    monkeypatch.setattr(cli, "antiinv_dims_R", counted)
    monkeypatch.setattr(symrep, "antiinv_dims_R", counted)
    rc, out, _ = run(capsys, "reps", "--k", "6", "--format", "json")
    assert rc == 0 and calls == [6]
    report = json.loads(out)
    assert tuple(report["rho"]["dims"]) == symrep.rho_from_R(real(6))
    assert tuple(report["R"]["dims"]) == real(6)
    calls.clear()
    rc, _, _ = run(capsys, "verify", "--suite", "reps")
    assert rc == 0 and calls == list(range(1, 8))


# --- verify ------------------------------------------------------------


def test_verify_suite_passes_and_reports(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "toeplitz", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True and report["failed"] == 0
    keys = [c["key"] for c in report["cases"]]
    assert keys == sorted(keys)
    assert all(c["status"] == "pass" for c in report["cases"])
    assert all("seconds" in c for c in report["cases"])


def test_verify_all_runs_every_suite(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "all", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True and report["failed"] == 0
    keys = [f"{suite}: {key}" for suite, key, _, _ in cli._cases(0)]
    assert [c["key"] for c in report["cases"]] == sorted(keys)
    assert len({c["key"].split(": ")[0] for c in report["cases"]}) == 6


def test_verify_case_keys_are_pinned():
    # each suite's keys, from its own ranges, in the order the cases run
    expected = {
        "toeplitz": [f"{family} n={n}" for n in range(1, 7)
                     for family in ("even minors", "odd dets")]
        + [f"R ranks k={k}" for k in range(2, 13)],
        "reps": [f"anti-invariant dims k={k}" for k in range(1, 8)]
        + [f"omega recursion k={k}" for k in range(2, 7)]
        + [f"sym map k={k}" for k in (2, 3, 4)],
        "recursion": ["difference recursion l<=8", "rescaling transition l<=4",
                      "local formulas k=3", "local formulas k=4"],
        "chi-consistency": [f"chi routes {name} k={k}"
                            for name in sorted(BUILTIN_SURFACES) for k in (3, 4)],
        "kernel-vs-graded": [f"kernel=graded n={n} k={k}"
                             for n, k in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))],
        "combinatorics": [f"orbit counts n={n} k={k}" for n in range(1, 5) for k in range(1, 6)]
        + ["listed summand sets"],
    }
    rows = [(suite, key) for suite, key, _, _ in cli._cases(0)]
    assert rows == [(suite, key) for suite, keys in expected.items() for key in keys]
    assert {suite: len(keys) for suite, keys in expected.items()} == {
        "toeplitz": 23, "reps": 15, "recursion": 4, "chi-consistency": 8,
        "kernel-vs-graded": 5, "combinatorics": 21,
    }


def test_verify_echoes_seed(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "chi-consistency",
                     "--seed", "7")
    assert rc == 0 and "[seed 7]" in out


def test_verify_kernel_vs_graded_fixes_its_degrees(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "kernel-vs-graded", "--format", "json")
    assert rc == 0
    cases = {c["key"]: c for c in json.loads(out)["cases"]}
    assert {key: c["max_degree"] for key, c in cases.items()} == {
        f"kernel-vs-graded: kernel=graded n={n} k={k}": 4 if n == 2 else 3
        for n, k in ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))
    }
    assert cases["kernel-vs-graded: kernel=graded n=2 k=2"]["spot"] == [1, 5, 18]
    rc, out, err = run(capsys, "verify", "--suite", "kernel-vs-graded", "--max-degree", "2")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "--max-degree" in err
    assert err.count("\n") == 1


def test_verify_failure_exits_one(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("forced failure")

    monkeypatch.setattr(cli, "_minors", boom)
    rc, out, _ = run(capsys, "verify", "--suite", "toeplitz")
    assert rc == 1 and "FAIL" in out and "forced failure" in out


def test_unknown_suite_flag_exits_two(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "nonsense")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "nonsense" in err
    assert err.count("\n") == 1


def test_missing_argument_exits_two_with_one_line(capsys):
    rc, out, err = run(capsys, "kernel", "--n", "2", "--k", "3")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "--max-degree" in err
    assert err.count("\n") == 1


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter importing the CLI loads neither dataclasses
    nor inspect, nor the ast, dis and tokenize modules inspect pulls in;
    -S keeps site's own imports out of the count.  Nor does it load what
    only some commands use: fractions with the decimal and numbers it
    pulls in, json and random, which load on first use; importing
    tautops alone loads none of them either.  Nor heapq, which a heap
    of leading columns in the sparse elimination would add to every
    start-up: it keeps them in a sorted list with bisect instead."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    unloaded = {"dataclasses", "inspect", "ast", "dis", "tokenize",
                "fractions", "decimal", "numbers", "json", "random", "heapq"}
    for module in ("hilbtaut.cli", "hilbtaut.tautops"):
        code = f"import sys, {module}; print(*sorted(sys.modules))"
        loaded = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                                text=True, env=env, check=True).stdout.split()
        assert module in loaded
        assert not unloaded & set(loaded), module


def test_parser_built_once_answers_as_a_fresh_process(capsys):
    """main builds its parser on the first call only; a later call, a
    usage error included, answers as a new process does."""
    cli._build_parser.cache_clear()
    calls = [("reps", "--k", "3"), ("kernel", "--n", "2", "--k", "3")]
    got = [run(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    rc, out, err = got[1]
    assert rc == 2 and out == "" and err.count("\n") == 1
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv, mine in zip(calls, got):
        fresh = subprocess.run([sys.executable, "-m", "hilbtaut.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert mine == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_closed_stdout_exits_141_without_a_traceback():
    """A reader that hangs up early is not an internal fault: the CLI exits
    141, 128 + SIGPIPE, and writes nothing to stderr.  The output, about
    200 KB, is more than a pipe holds, so the CLI is still writing when the
    pipe closes."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ("graded", "--n", "2", "--k", "20000", "--max-degree", "0")
    proc = subprocess.Popen([sys.executable, "-m", "hilbtaut.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_missing_argument_precedes_a_bad_bundle_vector(capsys):
    # argparse reports a missing option before any vector is parsed
    argv = ("chi", "--surface", "p2", "--n", "3", "--k", "3", "--L", "x")
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "the following arguments are required: --A" in err
    rc, out, err = run(capsys, *argv, "--A", "0")
    assert rc == 2 and out == ""
    assert err == "error: bad bundle vector 'x'; want ints joined by ':'\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "--help"])
    assert exc.value.code == 0
    assert "--max-degree" in capsys.readouterr().out


def test_negative_bundle_class_after_equals_sign(capsys):
    rc, out, _ = run(capsys, "chi", "--surface", "p1xp1", "--n", "2", "--k", "2",
                     "--L=-1:2", "--A=0:-1", "--format", "json")
    assert rc == 0
    row = json.loads(out)["rows"][0]
    assert row["L"] == [-1, 2] and row["A"] == [0, -1]


def test_verify_entry_cap_exits_two_with_one_line(capsys, monkeypatch):
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "10")
    rc, out, err = run(capsys, "verify", "--suite", "kernel-vs-graded")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("fault", [TypeError, ValueError, ArithmeticError])
def test_verify_internal_fault_exits_three_with_traceback(capsys, monkeypatch, fault):
    # a case fails only by AssertionError: any other exception is a fault
    def boom(*args):
        raise fault("internal fault")

    monkeypatch.setattr(cli, "_minors", boom)
    rc, out, err = run(capsys, "verify", "--suite", "toeplitz")
    assert rc == 3 and out == ""
    assert "Traceback" in err and f"{fault.__name__}: internal fault" in err


def test_internal_fault_exits_three_with_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "kernel_nullity", broken)
    rc, out, err = run(capsys, "kernel", "--n", "2", "--k", "3",
                       "--max-degree", "3")
    assert rc == 3 and out == ""
    assert "Traceback" in err and "RecursionError" in err


def test_entry_cap_exits_two_with_one_line(capsys, monkeypatch):
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "10")
    rc, out, err = run(capsys, "kernel", "--n", "2", "--k", "3",
                       "--max-degree", "3")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "cap" in err
    assert err.count("\n") == 1


def test_library_value_error_exits_three_with_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("library fault")

    monkeypatch.setattr(cli, "kernel_nullity", broken)
    rc, out, err = run(capsys, "kernel", "--n", "2", "--k", "3",
                       "--max-degree", "3")
    assert rc == 3 and out == ""
    assert "Traceback" in err and "ValueError: library fault" in err


@pytest.mark.parametrize("argv", [
    ("kernel", "--n", "2", "--k", "3", "--max-degree", "3"),
    ("verify", "--suite", "kernel-vs-graded"),
])
def test_bad_cap_value_exits_two_with_one_line(capsys, monkeypatch, argv):
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "lots")
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: HILBTAUT_MAX_MATRIX_ENTRIES") and "'lots'" in err
    assert err.count("\n") == 1


def test_orbit_keys_over_the_cap_exit_two(capsys):
    # 720,000 columns keyed by 600 triples each: refused before keying
    rc, out, err = run(capsys, "kernel", "--n", "600", "--k", "1",
                       "--max-degree", "1")
    assert rc == 2 and out == ""
    assert err.startswith("error: column orbit keys") and "cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,prefix", [
    # 718,800 unfolded keys of 600 slots at degree 1, refused unbuilt
    (("kernel", "--full", "--n", "600", "--k", "1", "--max-degree", "1"),
     "error: column keys: 718800 x 600"),
    # the table is checked once, at max-degree, where it is largest
    (("kernel", "--full", "--n", "600", "--k", "1", "--max-degree", "2"),
     "error: column keys: 430920600 x 600"),
])
def test_column_keys_over_the_cap_exit_two(capsys, argv, prefix):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith(prefix) and "cap" in err
    assert err.count("\n") == 1


_GRADED_600 = ("graded", "--n", "600", "--k", "1", "--max-degree", "2")


def test_graded_answers_six_hundred_points_at_degree_two(capsys, monkeypatch):
    # the piece (1) is solved on its one point, and the other 599 points are
    # only symmetrized: 1, 4 and 13 in degrees 0, 1 and 2
    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    rc, out, _ = run(capsys, *_GRADED_600, "--format", "json")
    assert rc == 0 and json.loads(out)["totals"] == [1, 5, 18]


def test_graded_column_orbit_keys_over_a_lowered_cap_exit_two(capsys, monkeypatch):
    # the widest piece's key table, checked at max-degree 2 before any
    # partition is listed, is its 3 monomials on one point
    monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", "2")
    rc, out, err = run(capsys, *_GRADED_600)
    assert rc == 2 and out == ""
    assert err.startswith("error: column orbit keys: 3 x 1") and "cap" in err
    assert err.count("\n") == 1


# The key table of a piece (1, 1) at a max-degree of 2^21 or more: it is
# checked at degree 2^21, over the default cap of 21 bits, where it is already
# over, C(2^21 + 3, 3) exponents times 2 slots.
_KEYS_AT_THE_CAP = f"{comb(2 ** 21 + 3, 3)} x 2"


@pytest.mark.parametrize("k,cap,prefix", [
    # no parts: the piece is M(2, .) alone, a 3 x (10^21 + 1) table, refused
    # before it or any placeholder of one slot per degree is built
    ("0", None, "error: symmetric polynomials on 2 free points: 3 x 1" + "0" * 20 + "1"),
    # the widest piece, (1, 1) on two points: its key table, C(d + 3, 3)
    # exponents of degree d times 2 slots, already over the cap at degree
    # 2^21, refused before any partition is listed or any degree walked
    ("2", None, "error: column orbit keys: " + _KEYS_AT_THE_CAP),
])
def test_graded_at_a_huge_max_degree_exits_two(capsys, monkeypatch, k, cap, prefix):
    if cap is None:
        monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    else:
        monkeypatch.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", cap)
    rc, out, err = run(capsys, "graded", "--n", "2", "--k", k, "--max-degree", "1" + "0" * 21)
    assert rc == 2 and out == ""
    assert err.startswith(prefix) and "cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,prefix", [
    # C(59, 30) compositions of 30 slots
    (("kernel", "--exploratory", "--n", "30", "--k", "30", "--max-degree", "0"),
     "error: column orbit keys: 59132290782430712 x 30"),
    # 190,569,292 partitions of 100, counted until they are too many
    (("graded", "--exploratory", "--n", "100", "--k", "100", "--max-degree", "0"),
     "error: partitions of 100 into at most 100 parts: at least 46262 x 100"),
    # 10^6 compositions times 10^6 exponents at max-degree, before any
    # composition or shift is listed
    (("kernel", "--full", "--n", "2", "--k", "999999", "--max-degree", "999999"),
     "error: column keys: 1000000000000 x 2"),
    # the widest piece's key table at max-degree, before any partition is
    # listed or any degree walked
    (("graded", "--n", "2", "--k", "2", "--max-degree", "1" + "0" * 21),
     "error: column orbit keys: " + _KEYS_AT_THE_CAP),
    # a max-degree of 1501 digits: the tables are checked at degree 2^21, so
    # no binomial of thousands of digits is computed or printed
    (("graded", "--n", "2", "--k", "2", "--max-degree", "1" + "0" * 1500),
     "error: column orbit keys: " + _KEYS_AT_THE_CAP),
    (("kernel", "--n", "2", "--k", "1", "--max-degree", "1" + "0" * 1500),
     f"error: column orbit keys: {2 * comb(2 ** 21 + 3, 3)} x 2"),
    # 200,000 variables: the table is refused at degree 21, the cap's bit
    # length, where it is already over, with no binomial of 10^5 factors
    # computed
    (("kernel", "--n", "100000", "--k", "0", "--max-degree", "100000"),
     f"error: column orbit keys: {comb(200020, 21)} x 100000"),
    # C(19999, 10000) compositions, past the interpreter's limit for
    # printing an integer, are named by their digit count
    (("kernel", "--exploratory", "--n", "10000", "--k", "10000", "--max-degree", "0"),
     "error: column orbit keys: a 6019-digit number x 10000"),
])
def test_enumerations_over_the_cap_exit_two_unlisted(capsys, monkeypatch, argv, prefix):
    def unlisted(*args):
        raise AssertionError("listed before the cap was checked")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    monkeypatch.setattr(tautops, "enumerate_compositions", unlisted)
    monkeypatch.setattr(tautops, "enumerate_partitions", unlisted)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith(prefix) and "cap" in err
    assert err.count("\n") == 1


def test_full_stack_over_the_cap_exits_two_before_labels_are_listed(capsys, monkeypatch):
    # 4950 pairs times the 100 compositions of 1: 495,000 rows by the 5050
    # compositions of 2 at degree 0, counted from sizes, whose key table,
    # 5050 x 100, passes.  Only the columns' compositions of 2 and the
    # shifts' compositions of 1 are listed, and no support is built.
    real = tautops.enumerate_compositions

    def listed(n, k):
        assert k in (2, 1), f"compositions of {k} listed"
        return real(n, k)

    def unbuilt(*args):
        raise AssertionError("support built before the cap was checked")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    monkeypatch.setattr(tautops, "enumerate_compositions", listed)
    monkeypatch.setattr(tautops, "_difference_support", unbuilt)
    rc, out, err = run(capsys, "kernel", "--full", "--n", "100", "--k", "2",
                       "--max-degree", "0")
    assert rc == 2 and out == ""
    assert err == ("error: kernel system (100,2): 495000 x 5050 matrix exceeds the entry "
                   "cap 2000000; set HILBTAUT_MAX_MATRIX_ENTRIES to raise it\n")


@pytest.mark.parametrize("mode,rows", [("--full", 20000), ("--invariant", 10000)])
def test_stack_refused_at_degree_zero_lists_no_higher_order(capsys, monkeypatch, mode, rows):
    # Degree 0 takes only order 1's shifts, the compositions of 19999; the
    # columns' compositions of 20000 are the only others listed before the
    # stack is refused, though max_deg + 1 = 5 orders would be built.  At
    # max-degree 4 the key table, 20001 compositions times C(4 + 2p - 1, 4)
    # exponents on p = 1 or 2 points, times 2 slots, passes.
    real = tautops.enumerate_compositions

    def listed(n, k):
        assert k in (20000, 19999), f"compositions of {k} listed"
        return real(n, k)

    def unbuilt(*args):
        raise AssertionError("support built before the cap was checked")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    monkeypatch.setattr(tautops, "enumerate_compositions", listed)
    monkeypatch.setattr(tautops, "_difference_support", unbuilt)
    rc, out, err = run(capsys, "kernel", mode, "--n", "2", "--k", "20000",
                       "--max-degree", "4")
    assert rc == 2 and out == ""
    assert err == (f"error: kernel system (2,20000): {rows} x {rows + 1} matrix exceeds the "
                   "entry cap 2000000; set HILBTAUT_MAX_MATRIX_ENTRIES to raise it\n")


def test_orders_without_a_jet_are_not_built_before_the_cap_exits_two(capsys, monkeypatch):
    # Through degree 2 only orders 1 to 3 impose a jet, so the invariant
    # (2, 3000) stack is refused with no support of a higher order built.
    real = tautops._difference_support

    def live(mu, a0, a1, order):
        assert order <= 3, f"order {order} built"
        return real(mu, a0, a1, order)

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    monkeypatch.setattr(tautops, "_difference_support", live)
    rc, out, err = run(capsys, "kernel", "--exploratory", "--n", "2", "--k", "3000",
                       "--max-degree", "2")
    assert rc == 2 and out == ""
    assert err.startswith("error: kernel system (2,3000): 1500 x 1501") and "cap" in err
    assert err.count("\n") == 1


def test_row_stack_over_the_cap_exits_two_before_building(capsys):
    # 136,800 rows by 7,980 columns at degree 1, counted from sizes, whose
    # key table, 7,980 x 20, passes
    rc, out, err = run(capsys, "kernel", "--full", "--n", "20", "--k", "2",
                       "--max-degree", "1")
    assert rc == 2 and out == ""
    assert err.startswith("error: kernel system (20,2): 136800 x 7980") and "cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,shape", [
    (("kernel", "--n", "2", "--k", "1", "--max-degree", "143"),
     "column orbit keys: 1016160 x 2"),
    (("kernel", "--full", "--n", "2", "--k", "20000", "--max-degree", "4"),
     "kernel system (2,20000): 20000 x 20001"),
    (("kernel", "--n", "2", "--k", "1", "--max-degree", "3000"),
     "column orbit keys: 9018011002 x 2"),
    (("graded", "--n", "3000", "--k", "1", "--max-degree", "1500"),
     "symmetric polynomials on 2999 free points: 1501 x 1501"),
    # a piece of one part has no pair, so no engine runs: answered, as
    # Q[x, y] on its point times M(1, .), C(d + 3, 3) in degree d
    (("graded", "--n", "2", "--k", "1", "--max-degree", "2000"), None),
    # the 10^6 compositions of k fill the key table to the cap, and the
    # degree-0 stack, 999,999 shifts by 10^6 columns, is refused from counts
    # before any composition is listed
    (("kernel", "--full", "--n", "2", "--k", "999999", "--max-degree", "0"),
     "kernel system (2,999999): 999999 x 1000000"),
    # every piece is planned before the first is solved, so the pieces
    # before (30, 4, 3, 2, 1) are not solved and thrown away
    (("graded", "--n", "5", "--k", "40", "--max-degree", "4", "--exploratory",
      "--rule", "per_pair_2mu"), "graded piece (30, 4, 3, 2, 1) (5,40): 6555 x 715"),
])
def test_sizes_refuse_before_any_table_is_built(capsys, monkeypatch, argv, shape):
    # Every system is planned from counts before a composition, a shift or a
    # column table is listed or a stack solved: a system with no rows refused
    # at its key table, checked once at max-degree, full ones refused at a
    # stack, and a graded piece of one part refused at its free-point table
    # build none first, nor does a graded piece refused after others.
    def unbuilt(*args):
        raise AssertionError("listed, built or solved before the cap refused")

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    for name in ("_column_tables", "_upper_half", "enumerate_compositions", "_stack", "_nullities"):
        monkeypatch.setattr(tautops, name, unbuilt)
    rc, out, err = run(capsys, *argv)
    if shape is None:
        cumulative = [comb(d + 4, 4) for d in range(2001)]
        assert (rc, err) == (0, "")
        assert out == ("graded pieces n=2 k=1 rule=uniform_2m_mu\n"
                       f"  mu=1: {cumulative}\n  total: {cumulative}\n")
        return
    assert (rc, out) == (2, "")
    assert err == (f"error: {shape} matrix exceeds the entry cap 2000000; "
                   "set HILBTAUT_MAX_MATRIX_ENTRIES to raise it\n")


def test_invariant_stack_over_the_cap_exits_two_before_partitions_are_listed(capsys, monkeypatch):
    # The folded columns, the 500,000 multisets of two items of weight
    # 999,999, and the 499,999 order-1 shifts are counted, not listed, so the
    # degree-0 stack is refused before any partition of k is listed.
    calls = []
    real = combinat._partitions

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    monkeypatch.setattr(combinat, "_partitions", counted)
    monkeypatch.setattr(tautops, "_partitions", counted, raising=False)
    rc, out, err = run(capsys, "kernel", "--n", "2", "--k", "999999", "--max-degree", "0")
    assert (rc, out, calls) == (2, "", [])
    assert err == ("error: kernel system (2,999999): 499999 x 500000 matrix exceeds the entry "
                   "cap 2000000; set HILBTAUT_MAX_MATRIX_ENTRIES to raise it\n")


@pytest.mark.parametrize("mode", ["--invariant", "--full"])
def test_systems_without_rows_answer_from_column_counts(capsys, monkeypatch, mode):
    # One point has no pair, so no row: the kernel is its columns, the d + 1
    # monomials of degree d on the point, C(d + 2, 2) through degree d, and
    # no column table is built.
    def unbuilt(*args):
        raise AssertionError("a column table was built for a system with no rows")

    monkeypatch.setattr(tautops, "_column_tables", unbuilt)
    monkeypatch.setattr(tautops, "_upper_half", unbuilt)
    rc, out, err = run(capsys, "kernel", mode, "--n", "1", "--k", "5", "--max-degree", "2000")
    cumulative = [comb(d + 2, 2) for d in range(2001)]
    assert (rc, err) == (0, "")
    assert out == f"kernel n=1 k=5 {mode[2:]} cumulative by degree: {cumulative}\n"


def test_five_point_invariant_stack_under_the_cap_answers(capsys, monkeypatch):
    # The cap counts each stacked block's own jet degree, so this proven-range
    # system fits under the default cap.
    monkeypatch.delenv("HILBTAUT_MAX_MATRIX_ENTRIES", raising=False)
    rc, out, _ = run(capsys, "kernel", "--n", "5", "--k", "4", "--max-degree", "4",
                     "--format", "json")
    assert rc == 0 and json.loads(out)["cumulative"] == [1, 5, 21, 73, 231]


def test_unfolded_columns_under_the_cap_answer(capsys):
    rc, out, _ = run(capsys, "kernel", "--full", "--n", "30", "--k", "1",
                     "--max-degree", "2", "--format", "json")
    assert rc == 0 and json.loads(out)["cumulative"] == [30, 1830, 56730]


@pytest.mark.parametrize("argv,key,want", [
    (("kernel", "--n", "600", "--k", "1", "--max-degree", "0"), "cumulative", [1]),
    (("kernel", "--n", "600", "--k", "1", "--max-degree", "0", "--full"),
     "cumulative", [600]),
    (("graded", "--n", "600", "--k", "1", "--max-degree", "0"), "totals", [1]),
])
def test_six_hundred_points_at_degree_zero(capsys, argv, key, want):
    # enumerations deeper than the recursion limit must still answer
    rc, out, _ = run(capsys, *argv, "--format", "json")
    assert rc == 0 and json.loads(out)[key] == want


# --- determinism -------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("chi", "--surface", "p1xp1", "--n", "2", "--k", "4", "--L", "2:1",
     "--A", "1:0", "--format", "csv"),
    ("graded", "--n", "2", "--k", "3", "--max-degree", "3", "--format", "json"),
    ("kernel", "--n", "2", "--k", "3", "--max-degree", "3", "--format", "csv"),
    ("reps", "--k", "4", "--format", "json"),
    ("toeplitz", "--kind", "T", "--odd", "--n", "2", "--m", "5", "--minors",
     "--format", "csv"),
    ("toeplitz", "--kind", "T", "--odd", "--n", "2", "--m", "5", "--det",
     "--format", "json"),
])
def test_identical_config_identical_bytes(capsys, argv):
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def _readme_examples() -> list:
    """(command, output lines) for each `$ hilbtaut ...` line of README's
    sh blocks: the output runs to the next blank line or the block's end."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for chunk in block.strip("\n").split("\n\n"):
            command, *output = chunk.split("\n")
            if command.startswith("$ hilbtaut "):
                examples.append((command.removeprefix("$ hilbtaut "), output))
    return examples


_README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command,output", _README_EXAMPLES,
                         ids=[command for command, _ in _README_EXAMPLES])
def test_readme_examples_replay(capsys, command, output):
    # an output shown with ... is compared on its last line alone
    rc, out, _ = run(capsys, *shlex.split(command))
    lines = out.rstrip("\n").split("\n")
    if "..." in output:
        lines, output = lines[-1:], output[-1:]
    assert rc == 0 and lines == output


# --- argv fuzz ---------------------------------------------------------

_CHEAP_SUITES = ("toeplitz", "reps", "chi-consistency", "recursion", "combinatorics")
_SMALL = st.integers(-2, 4)
_OFTEN = st.sampled_from((True,) * 7 + (False,))
_STRAY = ("--bogus", "--format=xml", "--rule=cubic", "--kind=Q",
          "--suite=nonsense", "--surface=no-such.json", "--m=2")


@st.composite
def _argvs(draw):
    """An argv for cli.main: a subcommand, most of its own flags with
    small values, and sometimes a bogus value or a flag it does not take."""
    command = draw(st.sampled_from(sorted(cli._HANDLERS)))
    ints = {
        "chi": ("n", "k"),
        "kernel": ("n", "k", "max-degree"),
        "graded": ("n", "k", "max-degree"),
        "toeplitz": ("n", "m", "l", "k", "j"),
        "reps": ("k",),
        "verify": ("seed",),
    }[command]
    groups = {
        "chi": [[f"--surface={name}" for name in sorted(BUILTIN_SURFACES) + ["enriques"]]],
        "kernel": [["--full", "--invariant"], ["--exploratory"]],
        "graded": [[f"--rule={rule}" for rule in EXPONENT_RULES], ["--exploratory"]],
        "toeplitz": [["--kind=T", "--kind=R"], ["--even", "--odd"], ["--det", "--minors"]],
    }.get(command, [])
    flags = [f"--{name}={draw(_SMALL)}" for name in ints if draw(_OFTEN)]
    for group in groups:
        flags += draw(st.lists(st.sampled_from(group), max_size=1))
    if command == "verify":
        # always name one cheap suite: all adds kernel-vs-graded to every
        # example, and test_verify_all_runs_every_suite runs it once
        flags.append(f"--suite={draw(st.sampled_from(_CHEAP_SUITES))}")
    if command == "chi":
        vec = st.lists(_SMALL, min_size=1, max_size=2).map(
            lambda v: ":".join(map(str, v)))
        for name in ("L", "A"):
            flags += [f"--{name}={v}" for v in draw(st.lists(vec, min_size=1, max_size=2))]
    if draw(st.booleans()):
        flags.append(f"--format={draw(st.sampled_from(cli.FORMATS))}")
    if not draw(_OFTEN):
        flags.append(draw(st.sampled_from(_STRAY)))
    return [command] + draw(st.permutations(flags))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
        assert err.getvalue().startswith("error:"), argv
    else:
        assert rc == 0 or (rc == 1 and argv[0] == "verify"), (argv, err.getvalue())


# --- sizes planned before listing --------------------------------------


@st.composite
def _sized_argvs(draw):
    """A kernel or graded argv of small sizes, either mode or rule, and
    an entry cap from 10^2 to 10^4."""
    command = draw(st.sampled_from(["kernel", "graded"]))
    flags = ["--exploratory"] + [f"--{name}={draw(st.integers(low, high))}"
                                 for name, low, high in (("n", 1, 6), ("k", 0, 9),
                                                         ("max-degree", 0, 6))]
    choices = (["--full", "--invariant"] if command == "kernel"
               else [f"--rule={rule}" for rule in EXPONENT_RULES])
    return [command, draw(st.sampled_from(choices))] + flags, draw(st.integers(10**2, 10**4))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_sized_argvs())
def test_small_caps_answer_or_refuse_listing_within_the_cap(case):
    # A call is planned from counts before anything is listed, so it answers
    # or exits 2, never 3.  Each list of compositions or partitions, and each
    # column table, holds at most cap entries: each is bounded by the key
    # table or the partition table, and those were checked against the cap.
    # All of them together hold at most twice the cap (under 0.95 times it
    # on 3,000 random calls of these sizes).
    argv, cap = case
    listed = []
    tables = []
    build = tautops._column_tables

    def counted(listing):
        def wrapped(*args):
            out = listing(*args)
            listed.append(len(out))
            return out
        return wrapped

    def recorded(*args):
        built = build(*args)
        tables.append(built[0])
        return built

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HILBTAUT_MAX_MATRIX_ENTRIES", str(cap))
        for name in ("enumerate_compositions", "enumerate_partitions"):
            mp.setattr(tautops, name, counted(getattr(tautops, name)))
        mp.setattr(tautops, "_column_tables", recorded)
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    assert rc in (0, 2), (argv, cap, err.getvalue())
    listed += [sum(map(len, t.values())) for t in tables]
    assert max(listed, default=0) <= cap, (argv, cap, listed)
    assert sum(listed) <= 2 * cap, (argv, cap, listed)


# --- reachability ------------------------------------------------------


def _identifiers(nodes) -> set:
    """The names that nodes hold, tagged by how they are used:
    ("name", id) for a bare name and ("attr", attr) for an attribute."""
    return {
        ("name", sub.id) if isinstance(sub, ast.Name) else ("attr", sub.attr)
        for node in nodes
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_definition_is_reached_from_main():
    """Every module-level function and class of the package, and every
    method but a dunder, is reached from cli.main.

    The walk reads the source.  A reached definition reaches every
    module-level function and class, in any module, whose name its body
    holds as a bare name, and every method whose name it holds as an
    attribute; so does every module-level statement but an import.  A
    class's own body, its dunder methods included, goes with it, and its
    other methods are definitions of their own.  Names are matched
    without scope or module, so a collision can only make the walk
    lenient: it may take a definition for reached, never one that runs
    for unreached.  argparse calls _Parser.error, which no line names.
    """
    refs = {}  # qualified name -> tagged identifiers its body holds
    by_name = {}  # tagged identifier -> definitions it reaches
    roots = {("name", "main")}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    roots |= _identifiers([stmt])
                continue
            qual = f"{path.stem}.{stmt.name}"
            own = [stmt]
            if isinstance(stmt, ast.ClassDef):
                methods = [m for m in stmt.body if isinstance(m, ast.FunctionDef)
                           and not (m.name.startswith("__") and m.name.endswith("__"))]
                for m in methods:
                    refs[f"{qual}.{m.name}"] = _identifiers([m])
                    by_name.setdefault(("attr", m.name), []).append(f"{qual}.{m.name}")
                own = stmt.decorator_list + stmt.bases + [
                    m for m in stmt.body if m not in methods]
            refs[qual] = _identifiers(own)
            by_name.setdefault(("name", stmt.name), []).append(qual)
    reached = set()
    todo = [qual for name in roots for qual in by_name.get(name, ())]
    while todo:
        qual = todo.pop()
        if qual not in reached:
            reached.add(qual)
            todo += [q for name in refs[qual] for q in by_name.get(name, ())]
    assert sorted(set(refs) - reached - {"cli._Parser.error"}) == []
