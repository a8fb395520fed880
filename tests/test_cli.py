import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicfeas
from padicfeas.cli import main
from padicfeas.config import Config
from padicfeas.plaisted import Cnf3, satisfies
from padicfeas.reduce import TRANSCRIPT_FORMAT_V1, pipeline
from padicfeas.sparsepoly import poly_to_obj

from helpers import P256_HARD, order_route_binomial


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    return json.loads(out)


def test_decide_binomial_exit_codes(capsys):
    code, out, err = run_cli(capsys, ["decide-binomial", "1", "2", "-7", "0", "--prime", "7"])
    assert code == 1
    r = report(out)
    assert r["feasible"] is False and r["rule"] == "valuation-mismatch"

    code, out, _ = run_cli(capsys, ["decide-binomial", "1", "2", "-2", "0", "--prime", "7"])
    assert code == 0 and report(out)["feasible"] is True

    code, out, _ = run_cli(capsys, ["decide-binomial", "1", "2", "-17", "0", "--prime", "2"])
    assert code == 0 and report(out)["rule"] == "two-adic"

    code, _, err = run_cli(capsys, ["decide-binomial", "1", "2", "-2", "0", "--prime", "6"])
    assert code == 2 and "not prime" in err


def test_decide_binomial_huge_exponents(capsys):
    big = str(10 ** 40)
    code, out, _ = run_cli(capsys, ["decide-binomial", "1", big, "-2", "0", "--prime", "7"])
    assert code in (0, 1)
    assert report(out)["input"]["a1"] == big


def _run_module(module, argv):
    env = dict(os.environ)
    env.pop("PADICFEAS_SEED", None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(padicfeas.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("module", ["padicfeas", "padicfeas.cli"])
def test_python_m_runs_the_cli(module, capsys):
    for argv in (
        ["decide-binomial", "1", "2", "-3", "0", "--prime", "5"],
        ["decide-binomial", "1", "2", "-4", "0", "--prime", "5"],
        ["decide-binomial", "1", "2", "-2", "0", "--prime", "6"],
    ):
        expected = run_cli(capsys, argv)
        proc = _run_module(module, argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert expected[0] == 2
    assert _run_module(module, []).returncode == 2


MAX_DIGITS = 4000
SMALL = 10**6


@st.composite
def _integers(draw, kinds, signs):
    """Zero, small values, values of up to MAX_DIGITS digits, and b**k * r
    with large k, which give large p-adic valuations; the kind is drawn from
    kinds and the sign from signs."""
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return 0
    if kind == "small":
        n = draw(st.integers(1, 70))
    elif kind == "digits":
        n = draw(st.integers(1, 10**MAX_DIGITS - 1))
    else:
        b = draw(st.sampled_from((2, 3, 5, 7, 1009)))
        k = draw(st.integers(0, int((MAX_DIGITS - 3) / math.log10(b))))
        n = b**k * draw(st.integers(1, 999))
    return draw(st.sampled_from(signs)) * n


_COEFFICIENTS = _integers(("small", "digits", "power") * 3 + ("zero",), (1, -1))
_EXPONENTS = _integers(("small", "digits", "power", "zero") * 2, (1,) * 7 + (-1,))
_PRIMES = st.one_of(
    st.sampled_from((2, 3, 5, 7, 11, 13)),
    st.sampled_from((1009, 2**61 - 1, 2**255 - 19, P256_HARD)),
    st.sampled_from((4, 6, 9, 91, 561, 2**61 + 1, (2**61 - 1) ** 2)),  # composite
    st.integers(-(10**6), 1),  # zero, one and negative
    st.integers(2, 10**4),  # prime or composite
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_COEFFICIENTS, _EXPONENTS, _COEFFICIENTS, _EXPONENTS, _PRIMES)
def test_decide_binomial_arguments_fuzz(c1, a1, c2, a2, p):
    argv = ["decide-binomial", *map(str, (c1, a1, c2, a2)), "--prime", str(p)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and not out.getvalue()
        return
    assert report(out.getvalue())["feasible"] is (code == 0)
    if max(abs(c1), abs(c2), a1, a2, p) < SMALL:  # small enough for the order route
        feasible, rule = order_route_binomial(c1, a1, c2, a2, p)
        assert (code, report(out.getvalue())["rule"]) == (0 if feasible else 1, rule)


def test_decide_poly_file(tmp_path, capsys):
    f = tmp_path / "poly.json"
    f.write_text('{"terms": [["-2", "0"], ["1", "2"]]}')
    code, out, _ = run_cli(capsys, ["decide", str(f), "--prime", "7"])
    assert code == 0 and report(out)["rule"] == "hensel-certified"

    g = tmp_path / "poly.txt"
    g.write_text("x^2 + 1")
    code, out, _ = run_cli(capsys, ["decide", str(g), "--prime", "7"])
    assert code == 1 and report(out)["rule"] == "exhausted"

    code, _, _ = run_cli(capsys, ["decide", str(tmp_path / "nope"), "--prime", "7"])
    assert code == 2


@pytest.mark.parametrize("text", [
    '{"terms": 7}', '{"terms": [5]}', '{"terms": [[null, 1]]}',
    # coefficients and exponents are JSON integers or decimal strings only
    '{"terms": [[1.5, 2]]}', '{"terms": [[true, 2]]}', '{"terms": [[1, 2.0]]}',
    '{"terms": [[1, false]]}',
    # strings are an optional '-' and ASCII digits only: no space, '_', '+' or other digits
    '{"terms": [["-2", "0"], [" 1_0", "\u0662"]]}', '{"terms": [[" 1", "2"]]}',
    '{"terms": [["1_0", "2"]]}', '{"terms": [["+1", "2"]]}', '{"terms": [["1", "\u0662"]]}',
    '{"terms": [["", "2"]]}', '{"terms": [["-", "2"]]}', "x^\u0662 - 2",
])
def test_decide_malformed_poly_file_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, ["decide", str(bad), "--prime", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_decide_caps_exit(tmp_path, capsys):
    f = tmp_path / "big.txt"
    f.write_text("x^1000 - 2")
    code, _, err = run_cli(capsys, ["decide", str(f), "--prime", "7", "--degree-cap", "10"])
    assert code == 3 and "cap" in err.lower()


def test_degenerate(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("x^4 - 4*x^2 + 4")  # (x^2-2)^2
    code, out, _ = run_cli(capsys, ["degenerate", str(f), "--prime", "7"])
    assert code == 0 and report(out)["degenerate_root"] is True
    f.write_text("x^4 - 14*x^2 + 49")  # (x^2-7)^2
    code, out, _ = run_cli(capsys, ["degenerate", str(f), "--prime", "7"])
    assert code == 1


def test_find_prime(capsys):
    code, out, _ = run_cli(capsys, ["find-prime", "3", "--strategy", "scan"])
    assert code == 0
    r = report(out)
    assert r["p"] == "31" and r["k"] == "1"
    code, out, _ = run_cli(capsys, ["find-prime", "4", "--strategy", "sample", "--seed", "9"])
    assert code == 0
    assert int(report(out)["p"]) % 210 == 1
    code, _, _ = run_cli(capsys, ["find-prime", "5", "--k-max", "0"])
    assert code == 3


def test_density(capsys):
    code, out, _ = run_cli(capsys, ["density", "1", "10000", "30", "100000"])
    assert code == 0
    r = report(out)
    assert r["rows"][0]["count"] == 1229
    assert 0.9 <= r["rows"][1]["ratio"] <= 1.1
    assert "not a verification" in r["note"]
    code, _, err = run_cli(capsys, ["density", "1", "10000", "30"])
    assert code == 2  # odd number of values
    code, _, err = run_cli(capsys, ["density", "30", "100000", "--sieve-cap", "100"])
    assert code == 3 and "cap" in err.lower()


def test_reduce_and_verify(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    out_file = tmp_path / "t.json"
    code, out1, _ = run_cli(
        capsys, ["reduce", str(cnf), "--seed", "5", "--out", str(out_file)]
    )
    assert code == 0
    r = report(out1)
    assert r["verdict"] is True and r["repeats"] == 5
    witness = r["witness"]
    assert witness is not None
    assert satisfies(Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3]]), witness)

    # byte-identical rerun
    code, out2, _ = run_cli(capsys, ["reduce", str(cnf), "--seed", "5"])
    assert out1 == out2

    # a different seed still agrees on the verdict
    code, out3, _ = run_cli(capsys, ["reduce", str(cnf), "--seed", "6"])
    assert report(out3)["verdict"] is True

    code, vout, _ = run_cli(capsys, ["verify-transcript", str(out_file)])
    assert code == 0 and report(vout)["ok"] is True

    # tamper with one run and the verifier objects
    obj = json.loads(out_file.read_text())
    obj["runs"][2]["witness"] = [0, 0, 0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, vout, _ = run_cli(capsys, ["verify-transcript", str(bad)])
    assert code == 1 and report(vout)["ok"] is False


def test_reduce_unsat_exit(tmp_path, capsys):
    cnf = tmp_path / "u.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run_cli(capsys, ["reduce", str(cnf), "--mode", "deterministic"])
    assert code == 1
    r = report(out)
    assert r["verdict"] is False and r["witness"] is None
    assert r["repeats"] == 1  # deterministic mode runs once


def test_reduce_deterministic_reproducible(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 4 3\n1 2 3 0\n-2 3 -4 0\n1 -3 4 0\n")
    code, out1, _ = run_cli(capsys, ["reduce", str(cnf), "--mode", "deterministic"])
    code, out2, _ = run_cli(
        capsys, ["reduce", str(cnf), "--mode", "deterministic", "--seed", "99"]
    )
    r1, r2 = report(out1), report(out2)
    assert r1["runs"] == r2["runs"]  # deterministic runs ignore the seed


@pytest.mark.parametrize("text", ["5", '{"runs": [5]}', "[]", '{"runs": []}', '{"runs": 5}'])
def test_verify_transcript_malformed_json_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, ["verify-transcript", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_transcript_variable_cap(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    out_file = tmp_path / "t.json"
    run_cli(capsys, ["reduce", str(cnf), "--seed", "2", "--out", str(out_file)])
    obj = json.loads(out_file.read_text())
    for run in obj["runs"]:
        run["n"] = 10
        run["cnf"]["num_vars"] = 10
    crafted = tmp_path / "n10.json"
    crafted.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, ["verify-transcript", str(crafted)])
    assert code == 3 and "cap" in err
    assert time.perf_counter() - start < 1.0
    code, _, _ = run_cli(capsys, ["verify-transcript", str(out_file), "--max-vars", "2"])
    assert code == 3
    code, _, _ = run_cli(capsys, ["verify-transcript", str(out_file), "--max-vars", "3"])
    assert code == 0


def test_reduce_malformed_dimacs(tmp_path, capsys):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 4 0\n")
    code, _, err = run_cli(capsys, ["reduce", str(cnf)])
    assert code == 2


def test_reduce_max_vars_cap(tmp_path, capsys):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 7 1\n1 2 7 0\n")
    code, _, _ = run_cli(capsys, ["reduce", str(cnf)])
    assert code == 3


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    monkeypatch.setenv("PADICFEAS_SEED", "5")
    code, out_env, _ = run_cli(capsys, ["reduce", str(cnf)])
    monkeypatch.delenv("PADICFEAS_SEED")
    code, out_flag, _ = run_cli(capsys, ["reduce", str(cnf), "--seed", "5"])
    assert out_env == out_flag


def test_config_echoed_in_report(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    code, out, _ = run_cli(capsys, ["reduce", str(cnf), "--seed", "8", "--repeats", "3"])
    r = report(out)
    assert r["config"]["seed"] == "8"
    assert r["config"]["repeats"] == 3
    assert r["config"]["mode"] == "randomized"


# -- loader fuzzing --------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6,
)
_POLY_FILES = st.one_of(
    # dense polynomials of degree <= 8, entries as JSON integers or strings
    st.lists(st.tuples(st.integers(-30, 30), st.booleans()), min_size=1, max_size=9).map(
        lambda coeffs: json.dumps({"terms": [[str(c) if as_text else c, e]
                                             for e, (c, as_text) in enumerate(coeffs) if c]})),
    st.lists(st.lists(_SCALARS, min_size=2, max_size=2), max_size=3).map(
        lambda terms: json.dumps({"terms": terms})),
    _JSON.map(lambda terms: json.dumps({"terms": terms})),
    _JSON.map(json.dumps),
    st.text(alphabet="x^*+-0123456789 ", max_size=16),
)
_JUNK_LINES = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(lambda h: "p cnf %d %d" % h),
    st.lists(st.integers(-4, 4), max_size=5).map(lambda lits: " ".join(map(str, lits))),
    st.sampled_from(("c comment", "%", "p cnf", "p dnf 3 1", "1 x 0", "0")),
    st.text(max_size=6),
)


@st.composite
def _dimacs_files(draw):
    """A header and clauses, mostly well formed, with junk lines mixed in."""
    clause = st.one_of(
        st.lists(st.sampled_from((1, 2, 3, -1, -2, -3)), min_size=1, max_size=3),
        st.lists(st.integers(-5, 5), max_size=4),
    )
    clauses = draw(st.lists(clause, max_size=5))
    num_vars = draw(st.sampled_from((3, 3, 3, 2, 1, 0, -1, 4)))
    declared = draw(st.sampled_from((len(clauses),) * 3 + (len(clauses) + 1,)))
    lines = [f"p cnf {num_vars} {declared}"] + [" ".join(map(str, c + [0])) for c in clauses]
    for line in draw(st.lists(_JUNK_LINES, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


def _run_loader(tmp_path_factory, argv, text):
    """Run a subcommand on text written to a file; no exception may escape."""
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2, 3), err.getvalue()
    if code in (2, 3):
        assert err.getvalue().startswith("error: ") and not out.getvalue()
    return code, out.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_POLY_FILES, st.sampled_from(("decide", "degenerate")), st.sampled_from((2, 3, 7, 4, -3)))
def test_decide_poly_file_fuzz(tmp_path_factory, text, command, p):
    argv = [command, "--prime", str(p), "--degree-cap", "8"]
    code, out = _run_loader(tmp_path_factory, argv, text)
    if code in (0, 1):
        r = report(out)
        assert r.get("feasible", r.get("degenerate_root")) is (code == 0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_dimacs_files(), st.sampled_from(("randomized", "deterministic")))
def test_reduce_dimacs_fuzz(tmp_path_factory, text, mode):
    argv = ["reduce", "--max-vars", "3", "--repeats", "1", "--mode", mode]
    code, out = _run_loader(tmp_path_factory, argv, text)
    if code in (0, 1):
        r = report(out)
        assert r["verdict"] is (code == 0)
        if r["verdict"]:
            cnf = Cnf3.from_signed(r["runs"][0]["cnf"]["num_vars"], r["runs"][0]["cnf"]["clauses"])
            assert satisfies(cnf, r["witness"])


def _valid_runs():
    """Valid n <= 3 transcripts: a randomized run with combination vectors, a
    deterministic one, and the v1 form of the randomized one."""
    randomized = pipeline(Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3], [1, -2, 3]]),
                          Config(seed=13))
    deterministic = pipeline(Cnf3.from_signed(2, [[1, 2], [-1, 2]]), Config(mode="deterministic"))
    v1 = randomized.to_obj() | {"format": TRANSCRIPT_FORMAT_V1,
                                "h": poly_to_obj(randomized.h)}
    return [randomized.to_obj(), deterministic.to_obj(), v1]


_RUNS = _valid_runs()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(range(len(_RUNS))),
    st.data(),
    st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=6),
              st.lists(_SCALARS, max_size=4)),
    st.booleans(),
)
def test_verify_transcript_field_fuzz(tmp_path_factory, index, data, value, as_report):
    run = dict(_RUNS[index])
    field = data.draw(st.sampled_from(sorted(run)))
    run[field] = value
    obj = {"runs": [run]} if as_report else run
    argv = ["verify-transcript", "--max-vars", "3"]
    code, out = _run_loader(tmp_path_factory, argv, json.dumps(obj))
    if code in (0, 1):
        assert report(out)["ok"] is (code == 0)
