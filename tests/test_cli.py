import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicfeas
import padicfeas.primes as primes_mod
import padicfeas.reduce as reduce_mod
from padicfeas import bigmod, cli
from padicfeas.bigmod import primorial
from padicfeas.cli import main
from padicfeas.config import Caps, Config
from padicfeas.plaisted import Cnf3, satisfies
from padicfeas.reduce import MAX_REPEATS, pipeline
from padicfeas.sparsepoly import poly_to_obj

from helpers import (
    P256_HARD,
    REMOVED_CAPS,
    REMOVED_CONFIG,
    from_dense,
    order_route_binomial,
    report_digest,
    taylor_shift,
)


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# integer arguments are an optional '-' and ASCII digits, as in input files
BAD_INTEGERS = [" 2", "7_0", "\u0667", "+1"]  # U+0667 is the Arabic-Indic digit 7


def assert_rejected(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and "error:" in err and "Traceback" not in err, argv


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

    for bad in BAD_INTEGERS:
        assert_rejected(capsys, ["decide-binomial", "1", "2", "-2", "0", "--prime", bad])


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


# exit code and report_digest of stdout and stderr of argparse's own text at
# COLUMNS=80: help, version, and each kind of usage error, one of them
# ("--bogus") raised by the top-level parser after a subcommand parsed; the
# calls whose arguments parse print a JSON report.
# argparse words these differently across minor Python releases ("optional
# arguments:" on 3.10), so the digests are those of Python 3.11, the
# benchmark's Python; other releases check the exit codes alone.
NO_TEXT = report_digest("")
CLI_TEXT_DIGESTS = {
    "": (2, NO_TEXT,
         "bd5099435d5897d556185743c75523e8b1330e9922ed4a029d85b31b4c18a191"),
    "-h": (0, "e36b705264b2d8ac4502af7a1777c49a4e287ac59eb2e81ee2806b839bac7046",
           NO_TEXT),
    "--help": (0, "e36b705264b2d8ac4502af7a1777c49a4e287ac59eb2e81ee2806b839bac7046",
               NO_TEXT),
    "--version": (0, "f32b997fe0baf18bb8f7a3fab0ea8f3d2edd7d91b3d8d4415d78e57790cfb714",
                  NO_TEXT),
    "--version decide": (0, "f32b997fe0baf18bb8f7a3fab0ea8f3d2edd7d91b3d8d4415d78e57790cfb714",
                         NO_TEXT),
    "nope": (2, NO_TEXT,
             "1e27cc8a045e16f96be829ff452c6aaa8065a59fc7479d3b7a25c4677f8e2b60"),
    "decide-binomial --help": (0, "17d79b3dbe2006d60357a4afb75373eca9843eaee534527551cef901e37bc18f",
                               NO_TEXT),
    "decide --help": (0, "72769134e024995788e781251c6ac3c861cee8c57151ed70db3dbb7ef9c3c1f6",
                      NO_TEXT),
    "degenerate --help": (0, "0f07955dc0e332fa1a63051098329f8774c09ff1e74a6d5987a1d96123ac773c",
                          NO_TEXT),
    "reduce --help": (0, "1b2b995c6b7618a0dbbddce8a5c208f1190df9f2be52bd56506be5d227704bc0",
                      NO_TEXT),
    "find-prime --help": (0, "9ec59d1087994990dc306cdcb20f1546ee2b0683ede0e5544ee45a5ec46975d4",
                          NO_TEXT),
    "density --help": (0, "6a63d59720c491458b20cc5d93b4acc8508db7fcfd69371fe83e31812c6ed400",
                       NO_TEXT),
    "verify-transcript --help": (0, "84425004ff101140d3a0eeb5341938dd2f1e3f6958ada858d6b2e66eb37b0a26",
                                 NO_TEXT),
    "decide": (2, NO_TEXT,
               "071d62d0c6d5edca7b27684dbc1a131115a40e9b1b20b05ebe3cc93c48f1e7f0"),
    "decide --prime": (2, NO_TEXT,
                       "8fad088b23b9b3e68ded828b283c5152b7d8394fcbf2e4411fa6fd09c9c3c419"),
    "decide-binomial 1 2": (2, NO_TEXT,
                            "e427ef0b1be0c3f129b229277565c0bd86527cec56a5a9459bd248fc2be54f7c"),
    "find-prime x": (2, NO_TEXT,
                     "ad2aa784fcb304ca31eee33084ef0ad50797db577f3a16ed5863acd62dbb97e2"),
    "reduce f --mode bad": (2, NO_TEXT,
                            "f3e985cc1faa908acffe1c4a711ecbaa00b90d098ae1b625103601c626712db6"),
    "density": (2, NO_TEXT,
                "dadb7553ccc40cb64390944e0f995315dbe10db06322ec9cf6123a0f83338e49"),
    "decide f --prime 7 --bogus": (2, NO_TEXT,
                                   "835280b9ab6beab9512168190591e8c6843ed9a68557ce191e7294a02926d8ab"),
    # a subcommand's own parser parses its arguments, and the top-level
    # parser reports what it leaves over; these pin the corners of that split
    "decide-binomial 1 2 -2 0 --prime 7 --version": (
        2, NO_TEXT, "ccfa0623fb16bab3c1bca927ae9eba9fd225901f94fba68813dfd7ba2dbf6b61"),
    "decide-binomial 1 2 -2 0 --prime 7 -h": (
        0, "17d79b3dbe2006d60357a4afb75373eca9843eaee534527551cef901e37bc18f", NO_TEXT),
    "decide-binomial 1 2 -2 0 --prime 7 --": (
        2, NO_TEXT, "e4668b1223371bb1a884172a9b08c86af6088e6467b6970fd81447db3df9aff5"),
    "decide-binomial --prime 7 -- 1 2 -2 0": (
        0, "77224b5a0a1cb29c1d848dc7541b8cb4c3658fc75f0b68e8d88821573fea2a2d",
        "c79e1c7740b4513b714e5f2bfc4acbe5b1b473b3631eb42c0ba80330eb8da565"),
    "decide-binomial 1 2 -17 0 --pri 2": (
        0, "5b2484afbd4dae000ddd9dfd46b06634efd8dd03b4a5d8c75f264cc74fe64a1c",
        "8a109a842cf7547655526c0e705c5746967f70fae8533d6601769aab3d309040"),
    "decide-binomial 1 2 -17 0 --prime=2": (
        0, "5b2484afbd4dae000ddd9dfd46b06634efd8dd03b4a5d8c75f264cc74fe64a1c",
        "8a109a842cf7547655526c0e705c5746967f70fae8533d6601769aab3d309040"),
    "decide-binomial --bogus 1 2 -2 0 --prime 7": (
        2, NO_TEXT, "835280b9ab6beab9512168190591e8c6843ed9a68557ce191e7294a02926d8ab"),
    "find-prime 3 4": (2, NO_TEXT,
                       "8f0ce72606115a255e70e9acd0e8b66381fdef20654289f44ccc7ff1007dda29"),
    # the top-level parser alone rejects "--=x", as ambiguous between --help
    # and --version
    "decide-binomial 1 2 -2 0 --prime 7 --=x": (
        2, NO_TEXT, "372a6ecec92ee566b5b087fb8e0b363758c3807ae832755926d34daa90786625"),
}


@pytest.mark.parametrize("args", CLI_TEXT_DIGESTS)
def test_cli_text_digests(capsys, monkeypatch, args):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, args.split())
    expected = CLI_TEXT_DIGESTS[args]
    if sys.version_info[:2] != (3, 11):
        assert code == expected[0]
        return
    digests = tuple(report_digest(text) for text in (out, err))
    assert (code, *digests) == expected


ALL_COMMANDS = ["decide-binomial", "decide", "degenerate", "reduce", "find-prime", "density",
                "verify-transcript"]


@pytest.mark.parametrize("argv, built", [
    (["decide", "f.poly", "--prime", "7"], ["decide"]),
    (["verify-transcript"], ["verify-transcript"]),
    ([], ALL_COMMANDS),
    (["--help"], ALL_COMMANDS),
    (["--version", "decide"], ALL_COMMANDS),
    (["nope", "decide"], ALL_COMMANDS),
])
def test_a_call_builds_only_the_parser_of_its_subcommand(argv, built):
    """All of them when the first argument names none; the text either way
    is pinned by CLI_TEXT_DIGESTS."""
    (sub,) = [a for a in cli._parser(cli._command(argv))[0]._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == built


def test_a_kept_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """One process makes a sequence of calls with the parsers kept between
    them: a flag and then its default (an environment seed set and then
    unset), a cap and then none, a usage error, help and version (which exit
    through SystemExit) and then a valid call.  Each call's exit code,
    stdout and stderr equal those of the same call on freshly built
    parsers, and two calls of one subcommand share its parser."""
    monkeypatch.setenv("COLUMNS", "80")
    cnf, poly = tmp_path / "f.cnf", tmp_path / "f.poly"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    poly.write_text("x^10 - 2")
    reduce, decide = ["reduce", str(cnf)], ["decide", str(poly), "--prime", "7"]
    calls = [  # (argv, PADICFEAS_SEED or None)
        (reduce + ["--seed", "5"], None),
        (reduce, "7"),
        (reduce, None),
        (decide + ["--degree-cap", "9"], None),
        (decide, None),
        (["decide", str(poly)], None),
        (decide, None),
        (["--help"], None),
        (["decide", "--help"], None),
        (decide, None),
        (["--version"], None),
        (reduce, None),
    ]

    def run(argv, seed):
        if seed is None:
            monkeypatch.delenv("PADICFEAS_SEED", raising=False)
        else:
            monkeypatch.setenv("PADICFEAS_SEED", seed)
        return run_cli(capsys, argv)

    cli._parser.cache_clear()
    kept = [run(argv, seed) for argv, seed in calls]
    fresh = []
    for argv, seed in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv, seed))
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 0, 0, 3, 0, 2, 0, 0, 0, 0, 0, 0]
    assert len({out for _, out, _ in kept[:3]}) == 3  # three seeds, three reports
    assert (cli._parser(cli._command(decide))[0]
            is cli._parser(cli._command(["decide", "--help"]))[0])
    assert cli._parser(cli._command(["--help"]))[0] is cli._parser(cli._command([]))[0]


@pytest.mark.parametrize("argv", [
    ["decide-binomial", "1", "2", "-2", "0", "--prime", "7"],
    ["decide", "f.poly", "--prime", "7", "--degree-cap", "9"],
    ["degenerate", "f.poly", "--prime=7"],
    ["reduce", "f.cnf", "--mode", "deterministic", "--seed", "3", "--repeats", "2",
     "--prime-strategy", "sample", "--max-vars", "4", "--out", "t.json"],
    ["find-prime", "5", "--strategy", "sample", "--seed", "7", "--k-max", "10"],
    ["density", "30", "1000", "--sieve-cap", "5000"],
    ["verify-transcript", "t.json", "--max-vars", "4"],
    ["reduce", "f.cnf"],  # every default
], ids=lambda argv: argv[0] + ("-defaults" if len(argv) == 2 else ""))
def test_main_parses_as_the_two_level_parse_args(argv):
    """main's one pass through the subcommand's parser gives the namespace
    of the top-level parse_args, without the `command` that only the
    top-level pass sets."""
    two_level = vars(cli._parser(cli._command(argv))[0].parse_args(argv))
    assert two_level.pop("command") == argv[0]
    assert vars(cli._parse_args(argv)) == two_level


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


NESTED = "[" * 200_000 + "]" * 200_000
NESTED_TERMS = '{"terms": ' + NESTED + "}"


@pytest.mark.parametrize("text", [
    '{"terms": 7}', '{"terms": [5]}', '{"terms": [[null, 1]]}',
    # coefficients and exponents are JSON integers or decimal strings only
    '{"terms": [[1.5, 2]]}', '{"terms": [[true, 2]]}', '{"terms": [[1, 2.0]]}',
    '{"terms": [[1, false]]}',
    # strings are an optional '-' and ASCII digits only: no space, '_', '+' or other digits
    '{"terms": [["-2", "0"], [" 1_0", "\u0662"]]}', '{"terms": [[" 1", "2"]]}',
    '{"terms": [["1_0", "2"]]}', '{"terms": [["+1", "2"]]}', '{"terms": [["1", "\u0662"]]}',
    '{"terms": [["", "2"]]}', '{"terms": [["-", "2"]]}', "x^\u0662 - 2",
    # nested deeper than the stack: json raises RecursionError
    pytest.param(NESTED_TERMS, id="nested-terms"),
])
def test_decide_malformed_poly_file_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, ["decide", str(bad), "--prime", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_degenerate_deeply_nested_poly_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(NESTED_TERMS)
    code, out, err = run_cli(capsys, ["degenerate", str(bad), "--prime", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_decide_caps_exit(tmp_path, capsys):
    f = tmp_path / "big.txt"
    f.write_text("x^1000 - 2")
    code, _, err = run_cli(capsys, ["decide", str(f), "--prime", "7", "--degree-cap", "10"])
    assert code == 3 and "cap" in err.lower()
    f.write_text("x^20 - 2")
    code, out, err = run_cli(capsys, ["degenerate", str(f), "--prime", "7", "--degree-cap", "10"])
    assert (code, out, err) == (3, "", "error: degree 20 exceeds the oracle cap 10\n")


@pytest.mark.parametrize("text, p, level", [
    ("x^2 - 2", 2 ** 61 - 1, 1),  # 2 is a square mod p, and level 1 tries every residue
    ("x^2 - 10009*x + 10008", 10007, 3),  # (x - 1)(x - 1 - p): every lift of 1 survives level 2
])
def test_residue_search_past_its_budget_exits_3(tmp_path, capsys, text, p, level):
    f = tmp_path / "f.txt"
    f.write_text(text)
    code, out, err = run_cli(capsys, ["decide", str(f), "--prime", str(p)])
    assert (code, out) == (3, "")
    assert err == (f"error: the residue search at p = {p} exceeds its budget of 16777216 "
                   f"steps at level {level}\n")


@pytest.mark.parametrize("prime", ["4", "1", "-7"])
def test_zero_polynomial_with_a_non_prime_exits_2(tmp_path, capsys, prime):
    z = tmp_path / "z.txt"
    z.write_text("0")
    for command in ("decide", "degenerate"):
        assert_rejected(capsys, [command, str(z), "--prime", prime])


@pytest.mark.parametrize("argv", [
    ["decide", "POLY", "--prime", "7", "--degree-cap", "-1"],
    ["degenerate", "POLY", "--prime", "7", "--degree-cap", "-1"],
    ["find-prime", "5", "--k-max", "-1"],
    ["density", "30", "100000", "--sieve-cap", "-1"],
    ["reduce", "CNF", "--max-vars", "-1"],
    ["verify-transcript", "JSON", "--max-vars", "-1"],
])
def test_negative_caps_exit_2(tmp_path, capsys, argv):
    """A negative cap is malformed input, not a cap that is already spent."""
    (tmp_path / "p.txt").write_text("x^2 - 2")
    (tmp_path / "f.cnf").write_text("p cnf 3 1\n1 2 3 0\n")
    (tmp_path / "t.json").write_text("{}")
    files = {name: str(tmp_path / file)
             for name, file in (("POLY", "p.txt"), ("CNF", "f.cnf"), ("JSON", "t.json"))}
    argv = [files.get(arg, arg) for arg in argv]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "") and err.startswith("error: cap ") and "nonnegative" in err
    assert err.count("\n") == 1


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
    for bad in BAD_INTEGERS:
        assert_rejected(capsys, ["find-prime", bad])
        assert_rejected(capsys, ["find-prime", "4", "--strategy", "sample", "--seed", bad])
    # n beyond the search limit is refused before any primality test
    for argv in (["find-prime", "100000"], ["find-prime", "28", "--strategy", "sample"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == "" and err.startswith("error:") and "limit" in err
        assert time.perf_counter() - start < 1.0


# exit code, report_digest of stdout and stderr of `find-prime` with these arguments:
# the scanned k, the sampled k (which fixes the order of the seeded draws and
# the trial count) and the exhausted scan
FIND_PRIME_DIGESTS = {
    "1": (0, "592f129428259e2ccf140c616b966caaad7707c5c4437b25502cd157651d3044",
          "p = 3 = 1 + 1 * 2\n"),
    "3": (0, "0ff7dc9d7d31dabb3d3ebcc2ea3076749cc3b534a5e57c064f400ba8157189f9",
          "p = 31 = 1 + 1 * 30\n"),
    "6": (0, "e511f2a314a3c27932623462439b417620e7615dd4faaeb9f8cfab48208158a4",
          "p = 120121 = 1 + 4 * 30030\n"),
    "12": (0, "ffb9a1c33bf27c24e9b32d38331034ea8138ef1d7f1b7399e63a24672ea94c72",
           "p = 29682952539241 = 1 + 4 * 7420738134810\n"),
    "4 --strategy sample --seed 0": (
        0, "171fe7cb0dae1e9e8b92f3bb7b2ed8dfd5907688e76a9494191914e240351f89",
        "p = 1114471 = 1 + 5307 * 210\n"),
    "4 --strategy sample --seed 7": (
        0, "1bb104c2d25004928a42de414ee84d62ddbd418ec3e680953d43f493264317c4",
        "p = 1329091 = 1 + 6329 * 210\n"),
    "5 --strategy sample --seed 0": (
        0, "fce1cbecaf3bdd7aa5386585011b002aa42f97311c5a43237a69fb884db634a7",
        "p = 59721296251 = 1 + 25853375 * 2310\n"),
    "5 --strategy sample --seed 7": (
        0, "4a781911246f95e394cc40d6348990d137c410386ee10b33c06c952696ec5c6e",
        "p = 61206122671 = 1 + 26496157 * 2310\n"),
    "8 --strategy sample --seed 0": (
        0, "e25eaa0f607fe5d1f1ae67c47f27e30ce39afdf39b266c0339ecb0cb5c49ca43",
        "p = 90302458579173410931100741 = 1 + 9309829342914403546 * 9699690\n"),
    "8 --strategy sample --seed 7": (
        0, "9aede6fd511c31a978386f7ec8b922baf3c1b65de1b180315775dffe8b094549",
        "p = 96743681742090255198856531 = 1 + 9973894190648387237 * 9699690\n"),
    "4 --k-max 0": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "error: no prime 1 + k*210 for k <= 0 (0 trials)\n"),
}


@pytest.mark.parametrize("args", sorted(FIND_PRIME_DIGESTS))
def test_find_prime_digests(capsys, args):
    code, out, err = run_cli(capsys, ["find-prime"] + args.split())
    assert (code, report_digest(out), err) == FIND_PRIME_DIGESTS[args]


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
    for bad in BAD_INTEGERS:
        assert_rejected(capsys, ["density", "1", bad])
        assert_rejected(capsys, ["density", bad, "10000"])
    # Li(2) = 0 predicts no primes, so there is no ratio to report
    for argv in (["density", "1", "2"], ["density", "30", "100", "7", "2"]):
        assert_rejected(capsys, argv)


# report_digest of the full `density` stdout and the exit code, as the integer sieve
# printed them: the benchmark's rows, then M = 1 and 2, M sharing factors with
# the base primes, M >= x and x = q*q for q = 1 (mod M)
DENSITY_DIGESTS = {
    "1 10000 30 1000000 210 1000000 30 10000000": (
        0, "c0b8fafb835cbc7f78c43bf04d1c7c860238b379af4196cc0c7e8800e79bb250"
    ),
    "1 3 2 3 2 1000 6 49 4 25 10 121 12 13 13 13 500 3 30 421 7 100000": (
        0, "ca157e180400464ed6e076ce4caffa397cc9ca9e2387bd19ae83ac55e9b884dc"
    ),
}


@pytest.mark.parametrize("rows", sorted(DENSITY_DIGESTS))
def test_density_report_digests(capsys, rows):
    code, out, _ = run_cli(capsys, ["density"] + rows.split())
    assert (code, report_digest(out)) == DENSITY_DIGESTS[rows]


def _dense_coeffs(degree, seed):
    """Seeded coefficients in [-9, 9] with nonzero constant and leading terms."""
    rng = random.Random(f"decide:{degree}:{seed}")
    coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or 1
    return coeffs


def _shifted(degree, seed):
    """g(x) * g(x + 7) for the seeded g of degree degree/2, its constant term
    moved so that g(1) = 0 mod 7: every root mod 7 is then multiple."""
    g = _dense_coeffs(degree // 2, seed)
    g[0] -= sum(g) % 7
    return from_dense(g) * from_dense(taylor_shift(g, 7))


def _decide_input(name):
    """The file text of a DECIDE_REPORT_DIGESTS input.  'dense-D-S' is the
    seeded degree-D polynomial and 'shifted-D-S' the degree-D g(x) * g(x + 7)
    (JSON), and '^2' squares either; 'h-unsat' is the single polynomial of
    the seed-0 reduction run on the unsatisfiable formula with all eight sign
    patterns over x1, x2, x3 (p = 31); any other name is the polynomial's
    text."""
    if name == "h-unsat":
        every = [[a, 2 * b, 3 * c] for a, b, c in itertools.product((1, -1), repeat=3)]
        f = pipeline(Cnf3.from_signed(3, every), Config(seed=0)).h
    elif name.startswith(("dense-", "shifted-")):
        kind, degree, seed = name.removesuffix("^2").split("-")
        if kind == "dense":
            f = from_dense(_dense_coeffs(int(degree), int(seed)))
        else:
            f = _shifted(int(degree), int(seed))
        if name.endswith("^2"):
            f = f.square()
    else:
        return name
    return json.dumps(poly_to_obj(f))


# report_digest of the full stdout and the exit code of "command prime input", as
# the decider printed them when it computed the squarefree part once per
# search: dense inputs at p = 2, 3 and 7, feasible and infeasible, with
# witnesses at ell = 1, 3 and 5 and roots found only by the reversed search
# (dense-16-1 at p = 2, dense-24-0 and dense-48-3 at p = 3), plus roots of
# negative valuation, a witness at ell = 3 and an unsatisfiable n = 3 h
DECIDE_REPORT_DIGESTS = {
    "decide 2 dense-8-1": (
        0, "ffd1bcc9fd27709f3bd630376782f3190678b37af244c58078bba8c836d57d64"
    ),
    "decide 3 dense-8-2": (
        1, "9c611c0845871f35778e03a9b6bbc129e28d7bafff222315e07fb12f9612627d"
    ),
    "decide 7 dense-8-0": (
        0, "c57b63d46731cf5ccc77e4af8300fd8b7c280f04e8dc68c41f7a367b914aa669"
    ),
    "decide 2 dense-16-1": (
        0, "599b3440de5fe20bc57ddff941fb090f2e06a5bf439f1d1f3462dc838beede8b"
    ),
    "decide 3 dense-16-0": (
        1, "2e20f1ac74234033432c8b42162e144eadee934207f97a9243630f18faa2fd1c"
    ),
    "decide 7 dense-16-0": (
        1, "8b4d7cae5c2f9e72fd5804c8be22924e0b496b5a1df29c81ace8c73161d407b9"
    ),
    "decide 2 dense-24-2": (
        1, "861f0d410913eab52e9af51d765fe9779e360aa8e83896e0afe51e232de049a6"
    ),
    "decide 3 dense-24-0": (
        0, "b4958fd2dbc53e30c2abe9ea355cfb802577737409d5c94b9cd027b7b92dd009"
    ),
    "decide 2 dense-32-2": (
        0, "626c52c243bf2d023e8f02b98fdecf757181a1e8ce30af8250532d6c63eac3bc"
    ),
    "decide 7 dense-32-1": (
        1, "b819070c3b8fb6496f4e16d0e3f9ec20b03ac3a7a3c30fbb5d13bc8490a58f2e"
    ),
    "decide 2 dense-40-0": (
        1, "572af17b0c6d383d54d06f5ebca275d6f0d24b46d8b7441f65e8815be4c40cdd"
    ),
    "decide 3 dense-40-3": (
        0, "e3ecf2684ce5063cd1845e863052a35866f2158b56959a7030eff58f057206ba"
    ),
    "decide 2 dense-48-2": (
        0, "bfcfa7ca29e0ccb1496881e9c1f761e26de8784780c61e0ec4e1f7fa580fd161"
    ),
    "decide 3 dense-48-3": (
        0, "4fdfc16660d34671014594f08ed7e31591cb8c6b74976844375c59863f7576c0"
    ),
    "decide 7 dense-48-0": (
        1, "3fc6c7da5df48baa373d67393b10e60d5d837d51d84a9d0259cb3684730df501"
    ),
    "decide 2 2*x-1": (
        0, "161fca8ad956f03d17852eaf8224c4340d23973741989857fa6b33bc24ae61d9"
    ),
    "decide 7 49*x^2-1": (
        0, "c6f79cc301da2509a20b0c868ab4e8edd3abda72996c3dee829a022eb8c2dcab"
    ),
    "decide 2 x^2-17": (
        0, "35ff80b3f309e10a9e147939b140de5d20cf3f1cfa524818609a6bb497be908a"
    ),
    "decide 31 h-unsat": (
        1, "8c72633038812507366162b508ff0070dd12006290eb62fb06e487a9d647974a"
    ),
    "degenerate 2 dense-8-1^2": (
        0, "51dda11e3f0beeacd6cae7b2d5f11265abcada41cb43d44da364264859c26e71"
    ),
    "degenerate 3 dense-16-0^2": (
        1, "137b8e583a4769002ba40e41227e67ccf6be866929634791bd63f5e3772d9e1e"
    ),
    "degenerate 2 dense-16-1^2": (
        0, "e2253c34aa42f63489cca81cefbd34915b756a4ecc954fa2c5ad4c451d61f0d4"
    ),
    "degenerate 2 dense-24-2^2": (
        1, "ea06f98959e0b3931148df75e87f72878ae6032caac5daf2d439aba1b8030a4e"
    ),
    # at the degree cap, and a degree-256 square, as the subresultant gcd
    # computed their squarefree parts (the first took about 20 s that way)
    "decide 7 dense-512-1": (
        1, "bc311d45411c0d3e2e820906ad7f26604594ea2bd895179dd494675e59fcd3f6"
    ),
    "degenerate 3 dense-128-1^2": (
        0, "69962a03db7fd2eb7daa45e6bb3c62ef6c8c1f952fc952ebd3d252a95ebb8822"
    ),
    # every root mod 7 multiple, as the decider printed them when it computed
    # the resultant to bound the refinement depth (157 s and 23 s that way)
    "decide 7 shifted-256-0": (
        0, "69786e0c7d29832ff401b65f7bb3c00b2e079ae41b3b18218971e50767705fe5"
    ),
    "degenerate 7 shifted-128-0^2": (
        1, "33e8ba0ee3f9d0440bdf3d05fe86b60ef5d5d83cce0df389850f2ecdd2f16b06"
    ),
    # the zero and constant polynomials; gcd(f, f') = x**2 with its root at
    # 0; the root 1/2 of gcd(f, f') = 2x - 1, found only by the reversed
    # search; a squarefree f; and a root certified on the squarefree part
    # x - 1 but not on f = (x - 1)**3, so the witness is null
    "decide 7 0": (
        0, "227aac7cfcb260bd9f0013ae2fe5931d6c65cf6891dfa1ed7dfd2455f3c7411b"
    ),
    "decide 7 5": (
        1, "1d0977dff82c054c3ae77d338436aa8f8adf4eca420efeb87015fcff133fe29e"
    ),
    "degenerate 7 0": (
        0, "ccc3702c9e7d015256b28acde15aecb9f9ba5adac9d00cb375e61fc83f1506ca"
    ),
    "degenerate 7 5": (
        1, "f12a497ddf8a6017c07406e501e1b5272f05211fc71a2f52686a8cea7b4cb6e6"
    ),
    "degenerate 5 x^3": (
        0, "f1bcf08a61505a0452eb0eb3ce58f9cefa26773b853f6d6ddffdb47d86159dbb"
    ),
    "degenerate 2 4*x^2-4*x+1": (
        0, "bd3c22ca0e66cf0a7cb6873ef9355bf4b8ffbe853afd1c962d35396b9bf1ad66"
    ),
    "degenerate 7 x^2-2": (
        1, "9a9fcbf9b8886cc5f7d12fa1ae1f0c7df79c9c9fa74424cf005d2a9a24d8395c"
    ),
    "decide 2 x^3-3*x^2+3*x-1": (
        0, "84b70bfea7cf723a36eadfd51d3c22eca012da0af7cc3c70dc6db8a77981e0f6"
    ),
}


@pytest.mark.parametrize("case", sorted(DECIDE_REPORT_DIGESTS))
def test_decide_report_digests(tmp_path, capsys, case):
    command, prime, name = case.split(" ")
    path = tmp_path / "poly"
    path.write_text(_decide_input(name))
    code, out, _ = run_cli(capsys, [command, str(path), "--prime", prime])
    assert (code, report_digest(out)) == DECIDE_REPORT_DIGESTS[case]


def test_each_cap_flag_sets_its_caps_field(tmp_path, capsys):
    """Each cap flag's dest is its Caps field, so the flag's value reaches
    the report's config."""
    poly, cnf = tmp_path / "f.txt", tmp_path / "f.cnf"
    poly.write_text("x^2 - 2")
    cnf.write_text("p cnf 1 1\n1 0\n")
    for argv, keys, value in (
        (["decide", str(poly), "--prime", "7", "--degree-cap", "9"], ["degree_cap"], 9),
        (["degenerate", str(poly), "--prime", "7", "--degree-cap", "8"], ["degree_cap"], 8),
        (["density", "30", "1000", "--sieve-cap", "1001"], ["sieve_cap"], 1001),
        (["find-prime", "2", "--k-max", "7"], ["k_max"], 7),
        (["reduce", str(cnf), "--max-vars", "2"], ["caps", "max_vars"], 2),
    ):
        _, out, _ = run_cli(capsys, argv)
        config = report(out)["config"]
        for key in keys:
            config = config[key]
        assert config == value, argv


def test_raised_caps_exit_3_without_a_traceback(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text(f"x^{10 ** 12} + 1")
    wide = tmp_path / "wide.cnf"
    wide.write_text("p cnf 40 3\n1 2 3 0\n-1 2 40 0\n3 -39 5 0\n")
    for argv in (
        ["density", "1", "9" * 26, "--sieve-cap", "9" * 27],
        ["decide", str(huge), "--prime", "3", "--degree-cap", str(10 ** 13)],
        ["degenerate", str(huge), "--prime", "3", "--degree-cap", str(10 ** 13)],
        ["reduce", str(wide), "--max-vars", "40"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


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


# every sign pattern over variables 1-3: unsatisfiable
ALL_SIGNS = "p cnf 3 8\n" + "".join(f"{a} {2 * b} {3 * c} 0\n"
                                    for a, b, c in itertools.product((1, -1), repeat=3))


@pytest.mark.parametrize("edit", [
    pytest.param({"verdict": True, "feasible_runs": 5, "witness": [1, 1, 1]}, id="feasible"),
    pytest.param({"verdict": True}, id="verdict"),
    pytest.param({"verdict": 0}, id="verdict-not-boolean"),
    pytest.param({"feasible_runs": 1}, id="feasible_runs"),
    pytest.param({"repeats": 4}, id="repeats"),
    pytest.param({"witness": [1, 1, 1]}, id="witness"),
])
def test_verify_transcript_checks_a_reports_summary(tmp_path, capsys, edit):
    """A report whose summary fields disagree with its runs fails: exit 1
    and one stderr line naming the fields, though every run verifies."""
    cnf = tmp_path / "u.cnf"
    cnf.write_text(ALL_SIGNS)
    out_file = tmp_path / "t.json"
    code, out, _ = run_cli(capsys, ["reduce", str(cnf), "--seed", "1", "--out", str(out_file)])
    assert code == 1
    assert run_cli(capsys, ["verify-transcript", str(out_file)])[0] == 0
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(report(out) | edit))
    code, vout, err = run_cli(capsys, ["verify-transcript", str(forged)])
    r = report(vout)
    assert code == 1 and r["ok"] is False and all(run["ok"] for run in r["runs"])
    assert err == ("transcript verification FAILED: the summary disagrees with the runs on "
                   f"{', '.join(edit)}\n")


def config_edit(**changes):
    """The edit of a report that changes these keys of its config."""
    return lambda r: r | {"config": r["config"] | changes}


def config_disagrees(fields):
    return f"transcript verification FAILED: the config disagrees with the runs on {fields}\n"


def unknown_keys(keys):
    return f"transcript verification FAILED: the report has unknown keys {keys}\n"


@pytest.mark.parametrize("mode, edit, code, err", [
    pytest.param("randomized", config_edit(mode="deterministic", repeats=2, seed="999"), 1,
                 config_disagrees("mode, repeats, seed"), id="relabelled"),
    pytest.param("randomized", config_edit(seed="2"), 1, config_disagrees("seed"), id="seed"),
    pytest.param("randomized", config_edit(repeats=4), 1, config_disagrees("repeats"),
                 id="repeats"),
    pytest.param("randomized", config_edit(repeats=10 ** 12), 1, config_disagrees("repeats"),
                 id="repeats-huge"),
    pytest.param("randomized", config_edit(prime_strategy="sample"), 1,
                 config_disagrees("prime_strategy"), id="prime_strategy"),
    pytest.param("deterministic", config_edit(mode="randomized"), 1,
                 config_disagrees("mode, repeats, seed"), id="deterministic-relabelled"),
    pytest.param("randomized", lambda r: r | {"config": r["config"] | REMOVED_CONFIG | {
        "caps": r["config"]["caps"] | REMOVED_CAPS}}, 1, unknown_keys(
            "config.sample_c, config.sample_cprime, config.threads, config.caps.gcd_degree, "
            "config.caps.rho_iterations, config.caps.trial_division_bound"), id="removed-keys"),
    pytest.param("deterministic", config_edit(seed="7", prime_strategy="sample"), 0,
                 "transcript ok\n", id="deterministic-unread-keys"),
    pytest.param("randomized", lambda r: {k: v for k, v in r.items() if k != "config"}, 0,
                 "transcript ok\n", id="no-config"),
    pytest.param("randomized", lambda r: r | {"config": 5}, 2, None, id="config-not-an-object"),
    pytest.param("randomized", lambda r: r | {"config": {k: v for k, v in r["config"].items()
                                                         if k != "seed"}},
                 2, None, id="seed-missing"),
    pytest.param("randomized", config_edit(seed="x"), 2, None, id="seed-not-an-integer"),
    pytest.param("randomized", lambda r: r | {"extra": 1}, 1, unknown_keys("extra"),
                 id="unknown-key"),
    pytest.param("randomized", config_edit(bogus=3), 1, unknown_keys("config.bogus"),
                 id="unknown-config-key"),
    pytest.param("randomized", config_edit(caps={**Caps().asdict(), "nope": 5}), 1,
                 unknown_keys("config.caps.nope"), id="unknown-caps-key"),
    pytest.param("deterministic", lambda r: r | {"extra": 1, "config": r["config"] | {
        "bogus": 3, "caps": r["config"]["caps"] | {"nope": 5}}}, 1,
                 unknown_keys("extra, config.bogus, config.caps.nope"), id="unknown-keys"),
    pytest.param("randomized", config_edit(caps=5), 2, None, id="caps-not-an-object"),
])
def test_verify_transcript_checks_a_reports_config(tmp_path, capsys, mode, edit, code, err):
    """A report's config must be the one that made its runs: a mismatch in
    its seed, mode, repeats or prime_strategy exits 1 with the reason, and
    a malformed config exits 2, each within a second.  A key that reduce
    does not write, at the top level, in the config or in its caps, exits 1
    with its name, and so do those that versions before transcript v3 wrote.
    A deterministic config's seed and prime strategy are not read, and a
    report without a config is not checked against one."""
    cnf, forged = tmp_path / "f.cnf", tmp_path / "forged.json"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    _, out, _ = run_cli(capsys, ["reduce", str(cnf), "--seed", "1", "--mode", mode])
    r = report(out)
    assert r.keys() == reduce_mod._REPORT_KEYS and r["config"].keys() == Config._names
    assert r["config"]["caps"].keys() == Caps._names
    forged.write_text(json.dumps(edit(r)))
    start = time.perf_counter()
    got, vout, verr = run_cli(capsys, ["verify-transcript", str(forged)])
    assert time.perf_counter() - start < 1.0
    if code == 2:
        assert (got, vout) == (2, "") and verr.startswith("error: ") and verr.count("\n") == 1
    else:
        assert (got, verr) == (code, err) and all(run["ok"] for run in report(vout)["runs"])


def test_reports_in_the_indented_layout_still_verify(tmp_path, capsys):
    """Reports were written as json.dumps(obj, sort_keys=True, indent=2) and a
    newline before they were compact.  verify-transcript reads a report, and
    a bare transcript, in that layout as it reads it in the compact one."""
    cnf, path = tmp_path / "f.cnf", tmp_path / "t.json"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    _, out, _ = run_cli(capsys, ["reduce", str(cnf), "--seed", "1"])
    for obj in (report(out), report(out)["runs"][0]):
        results = []
        for layout in ({"separators": (",", ":")}, {"indent": 2}):
            path.write_text(json.dumps(obj, sort_keys=True, **layout) + "\n")
            results.append(run_cli(capsys, ["verify-transcript", str(path)]))
        assert results[0] == results[1] and results[0][0] == 0


def test_verify_transcript_checks_a_report_is_of_one_formula(tmp_path, capsys):
    """The runs of two formulas' reports each verify as a report without a
    summary, and together fail."""
    runs = []
    for text in (ALL_SIGNS, "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n"):
        cnf, bare = tmp_path / "f.cnf", tmp_path / "bare.json"
        cnf.write_text(text)
        _, out, _ = run_cli(capsys, ["reduce", str(cnf), "--seed", "1"])
        runs += report(out)["runs"]
        bare.write_text(json.dumps({"runs": report(out)["runs"]}))
        assert run_cli(capsys, ["verify-transcript", str(bare)])[0] == 0
    bare.write_text(json.dumps({"runs": runs}))
    code, vout, err = run_cli(capsys, ["verify-transcript", str(bare)])
    assert code == 1 and report(vout)["ok"] is False
    assert err == "transcript verification FAILED: the runs are of different formulas\n"


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


@pytest.mark.parametrize("text", [
    "5", '{"runs": [5]}', "[]", '{"runs": []}', '{"runs": 5}',
    pytest.param(NESTED, id="nested"), pytest.param('{"runs": ' + NESTED + "}", id="nested-runs"),
])
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


def test_verify_transcript_exits_3_when_rho_cannot_split_k(tmp_path, capsys):
    """The generator check factors p - 1 = k*q_n.  Here n = 10, k = 47*r1*r2
    for the primes r1, r2 just above 2**45 + 12345 and 2**46 + 999, p =
    1 + Q_10*k is prime and omega = g**k, so every check before it passes
    (k < 2**(10**2), so sampling can return it), and Pollard rho spends its
    budget on r1*r2.  The runs of a 3-variable formula, relabelled as of 10
    variables, reach that check without a scan."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    out_file = tmp_path / "t.json"
    run_cli(capsys, ["reduce", str(cnf), "--seed", "2", "--prime-strategy", "sample",
                     "--out", str(out_file)])
    obj = json.loads(out_file.read_text())
    k, q_n = 116366363735663950312298646751, primorial(10)
    for run in obj["runs"]:
        run["n"], run["q_n"], run["cnf"]["num_vars"] = 10, str(q_n), 10
        run["prime"].update(n=10, q_n=str(q_n), k=str(k), p=str(1 + q_n * k))
        run["omega"] = str(pow(int(run["generator"]), k, 1 + q_n * k))
    crafted = tmp_path / "crafted.json"
    crafted.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, ["verify-transcript", str(crafted), "--max-vars", "10"])
    assert (code, out) == (3, "")
    assert err == ("error: pollard-rho budget of 1000000 iterations exhausted on "
                   "2475880079482211708772311633\n")


# A forged prime that no search returns: (field edits, the parse check's
# detail).  Each p = 1 + k*q_n has thousands of bits; the first has no factor
# below 100, so is_prime's Miller-Rabin rounds on it took 7 s.
FORGED_PRIMES = {
    "k": ({"k": 10**4199 + 2},
          "k is larger than either prime search returns at n = 3"),
    "n": ({"n": 10**4000, "q_n": 10**4000},
          f"n = {10**4000} exceeds the scan prime search limit 120"),
    "q_n": ({"q_n": 30 * (10**4000 + 1)},
            "q_n is not the product of the first 3 primes"),
}


@pytest.mark.parametrize("field", FORGED_PRIMES)
def test_verify_transcript_refuses_an_unsearchable_prime_before_testing_it(
        tmp_path, capsys, monkeypatch, field):
    """The transcript's prime reader refuses an n above the scan limit, a q_n
    that is not Q_n and a k above what either search returns at n (the scan
    cap, or 2**(n**2) for sampling) before is_prime runs: here is_prime
    fails the test on any p of more than 1000 bits.  The report exits 1."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    out_file = tmp_path / "t.json"
    run_cli(capsys, ["reduce", str(cnf), "--seed", "1", "--out", str(out_file)])
    (run, *_) = json.loads(out_file.read_text())["runs"]
    edits, detail = FORGED_PRIMES[field]
    prime = {name: int(value) for name, value in run["prime"].items()} | edits
    prime["p"] = 1 + prime["k"] * prime["q_n"]
    run["prime"] = {name: str(value) for name, value in prime.items()}
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps({"runs": [run]}))

    def is_prime(n):
        assert n.bit_length() <= 1000, f"is_prime ran on a {n.bit_length()}-bit p"
        return bigmod.is_prime(n)

    monkeypatch.setattr(primes_mod, "is_prime", is_prime)
    code, out, _ = run_cli(capsys, ["verify-transcript", str(forged)])
    assert code == 1
    assert report(out)["runs"][0]["checks"] == [{"name": "parse", "ok": False, "detail": detail}]


def test_reduce_malformed_dimacs(tmp_path, capsys):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 4 0\n")
    code, _, err = run_cli(capsys, ["reduce", str(cnf)])
    assert code == 2
    # a second problem line must not widen the formula it follows
    cnf.write_text("p cnf 1 1\n1 0\np cnf 5 1\n")
    code, out, err = run_cli(capsys, ["reduce", str(cnf), "--mode", "deterministic"])
    assert (code, out) == (2, "") and err.startswith("error: second problem line")
    for text, expected in (("p cnf 3\n1 2 3 0\n", "error: malformed problem line: 'p cnf 3'\n"),
                           ("c only a comment\n", "error: missing problem line\n")):
        cnf.write_text(text)
        assert run_cli(capsys, ["reduce", str(cnf)]) == (2, "", expected)


def test_reduce_max_vars_cap(tmp_path, capsys):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 7 1\n1 2 7 0\n")
    code, _, _ = run_cli(capsys, ["reduce", str(cnf)])
    assert code == 3


def test_reduce_repeats_cap(tmp_path, capsys):
    """More than MAX_REPEATS randomized runs are refused within a second,
    before any run; deterministic mode makes its one run whatever --repeats
    says."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 6 2\n1 -2 6 0\n-1 3 0\n")
    argv = ["reduce", str(cnf), "--seed", "4", "--repeats", str(MAX_REPEATS + 1)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"error: {MAX_REPEATS + 1} repeats exceed the cap of {MAX_REPEATS} runs\n"
    code, out, _ = run_cli(capsys, argv + ["--mode", "deterministic"])
    _, default, _ = run_cli(capsys, argv[:-2] + ["--mode", "deterministic"])
    r, expected = report(out), report(default)
    assert code == 0 and r["repeats"] == 1
    assert r["config"].pop("repeats") == MAX_REPEATS + 1
    assert expected["config"].pop("repeats") == 5
    assert r == expected


def test_verify_transcript_refuses_more_runs_than_the_cap(tmp_path, capsys, monkeypatch):
    """A report with more than MAX_REPEATS runs, which no reduce call makes,
    is refused before any run is verified: exit 3, one stderr line and no
    report.  Copies of one run make such a report."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    out_file = tmp_path / "t.json"
    run_cli(capsys, ["reduce", str(cnf), "--seed", "1", "--out", str(out_file)])
    run = json.loads(out_file.read_text())["runs"][0]
    copies = tmp_path / "copies.json"

    def verify(count):
        copies.write_text(json.dumps({"runs": [run] * count}))
        return run_cli(capsys, ["verify-transcript", str(copies)])

    count = MAX_REPEATS + 1
    assert verify(count) == (3, "", f"error: {count} runs exceed the cap of {MAX_REPEATS} runs\n")
    monkeypatch.setattr(reduce_mod, "MAX_REPEATS", 3)
    assert verify(3)[0] == 0
    assert verify(4) == (3, "", "error: 4 runs exceed the cap of 3 runs\n")


def test_reduce_repeats_cap_shrinks_with_q_n(tmp_path, capsys):
    """Beyond n = 6 the cap shrinks in proportion to Q_n: at n = 7 it is
    MAX_REPEATS * Q_6 // Q_7 = 29 runs, and 30 are refused within a second,
    before any run, with the same message and exit code."""
    assert reduce_mod._repeats_cap(6) == MAX_REPEATS
    assert reduce_mod._repeats_cap(7) == MAX_REPEATS * 30030 // 510510 == 29
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 7 2\n1 -2 7 0\n-1 3 0\n")
    argv = ["reduce", str(cnf), "--max-vars", "7", "--seed", "4", "--repeats", "30"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "error: 30 repeats exceed the cap of 29 runs\n"


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    monkeypatch.setenv("PADICFEAS_SEED", "5")
    code, out_env, _ = run_cli(capsys, ["reduce", str(cnf)])
    monkeypatch.delenv("PADICFEAS_SEED")
    code, out_flag, _ = run_cli(capsys, ["reduce", str(cnf), "--seed", "5"])
    assert out_env == out_flag
    for bad in BAD_INTEGERS:
        assert_rejected(capsys, ["reduce", str(cnf), "--seed", bad])
        monkeypatch.setenv("PADICFEAS_SEED", bad)
        assert_rejected(capsys, ["reduce", str(cnf)])
        assert_rejected(capsys, ["find-prime", "3"])


def test_config_echoed_in_report(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    code, out, _ = run_cli(capsys, ["reduce", str(cnf), "--seed", "8", "--repeats", "3"])
    r = report(out)
    assert r["config"]["seed"] == "8"
    assert r["config"]["repeats"] == 3
    assert r["config"]["mode"] == "randomized"


# -- the output contract ---------------------------------------------------------

# the files that the argv cases below name; REPORT and FORGED are a reduce
# report of SAT with --seed 1 and that report with its verdict flipped
FILES = {
    "POLY": '{"terms": [["-2", "0"], ["1", "2"]]}',  # x^2 - 2
    "NOROOT": "x^2 + 1",
    "SQUARE": "x^4 - 4*x^2 + 4",  # (x^2 - 2)^2
    "SEVEN": "x^4 - 14*x^2 + 49",  # (x^2 - 7)^2
    "SAT": "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n",
    "UNSAT": ALL_SIGNS,
    "DET": "p cnf 4 3\n1 2 3 0\n-2 3 -4 0\n1 -3 4 0\n",
}


def contract_files(tmp_path, capsys):
    """Write FILES, REPORT and FORGED to tmp_path; return the name -> path map."""
    paths = {name: str(tmp_path / name) for name in (*FILES, "REPORT", "FORGED")}
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    assert main(["reduce", paths["SAT"], "--seed", "1", "--out", paths["REPORT"]]) == 0
    capsys.readouterr()
    r = json.loads((tmp_path / "REPORT").read_text())
    (tmp_path / "FORGED").write_text(json.dumps(r | {"verdict": not r["verdict"]}))
    return paths


@pytest.mark.parametrize("argv, code, err", [
    pytest.param(["decide-binomial", "1", "2", "-2", "0", "--prime", "7"], 0,
                 "feasible over Q_7 (cyclic-order)\n", id="decide-binomial-feasible"),
    pytest.param(["decide-binomial", "1", "2", "-7", "0", "--prime", "7"], 1,
                 "infeasible over Q_7 (valuation-mismatch)\n", id="decide-binomial-infeasible"),
    pytest.param(["decide", "POLY", "--prime", "7"], 0,
                 "feasible over Q_7 (hensel-certified)\n", id="decide-feasible"),
    pytest.param(["decide", "NOROOT", "--prime", "7"], 1,
                 "infeasible over Q_7 (exhausted)\n", id="decide-infeasible"),
    pytest.param(["degenerate", "SQUARE", "--prime", "7"], 0,
                 "has repeated degree-1 factor over Q_7\n", id="degenerate-has"),
    pytest.param(["degenerate", "SEVEN", "--prime", "7"], 1,
                 "no repeated degree-1 factor over Q_7\n", id="degenerate-no"),
    pytest.param(["reduce", "SAT", "--seed", "1"], 0,
                 "satisfiable (5/5 runs feasible, mode=randomized, p=31)\n", id="reduce-sat"),
    pytest.param(["reduce", "UNSAT", "--seed", "1"], 1,
                 "unsatisfiable (0/5 runs feasible, mode=randomized, p=31)\n", id="reduce-unsat"),
    pytest.param(["reduce", "DET", "--mode", "deterministic"], 0,
                 "satisfiable (1/1 runs feasible, mode=deterministic, p=211)\n",
                 id="reduce-deterministic"),
    pytest.param(["find-prime", "3"], 0, "p = 31 = 1 + 1 * 30\n", id="find-prime"),
    pytest.param(["density", "1", "10000", "30", "100000"], 0,
                 "M=1 x=10000: 1229 primes, ratio 0.9871\n"
                 "M=30 x=100000: 1189 primes, ratio 0.9879\n", id="density-two-rows"),
    pytest.param(["verify-transcript", "REPORT"], 0, "transcript ok\n", id="verify-ok"),
    pytest.param(["verify-transcript", "FORGED"], 1,
                 "transcript verification FAILED: the summary disagrees with the runs on verdict\n",
                 id="verify-forged"),
])
def test_each_subcommand_prints_its_summary_and_exits_by_its_verdict(
        tmp_path, capsys, argv, code, err):
    """A report on stdout, exactly the summary lines on stderr, and the
    verdict's exit code."""
    files = contract_files(tmp_path, capsys)
    got_code, out, got_err = run_cli(capsys, [files.get(arg, arg) for arg in argv])
    assert (got_code, got_err) == (code, err)
    assert report(out)["command"] == argv[0]


def test_out_holds_the_bytes_printed_on_stdout(tmp_path, capsys):
    files = contract_files(tmp_path, capsys)
    out_file = tmp_path / "t.json"
    code, out, err = run_cli(capsys, ["reduce", files["UNSAT"], "--seed", "2",
                                      "--out", str(out_file)])
    assert code == 1 and err.startswith("unsatisfiable ") and err.count("\n") == 1
    assert out_file.read_bytes() == out.encode()


@pytest.mark.parametrize("target", ["a-directory", "missing/t.json"])
def test_unwritable_out_exits_2_and_prints_no_report(tmp_path, capsys, target):
    """An --out that cannot be written is an input error: no report on
    stdout, one error line and no summary on stderr."""
    files = contract_files(tmp_path, capsys)
    (tmp_path / "a-directory").mkdir()
    code, out, err = run_cli(capsys, ["reduce", files["SAT"], "--seed", "1",
                                      "--out", str(tmp_path / target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


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
    """Valid n <= 3 transcripts: a randomized run with combination vectors and
    a deterministic one."""
    randomized = pipeline(Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3], [1, -2, 3]]),
                          Config(seed=13))
    deterministic = pipeline(Cnf3.from_signed(2, [[1, 2], [-1, 2]]), Config(mode="deterministic"))
    return [randomized.to_obj(), deterministic.to_obj()]


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
    """One field of a valid run, or of the summary of its one-run report, set
    to any JSON value, or a key added to the run: no traceback, a changed
    summary field exits 1, and an added key (the g1, g2 or h of an older
    format, or any other) fails the run's parse check alone."""
    run = dict(_RUNS[index])
    summary = {"verdict": run["verdict"], "feasible_runs": int(run["verdict"]), "repeats": 1,
               "witness": run["witness"] if run["verdict"] else None}
    obj = {"runs": [run], **summary} if as_report else run
    fields = [("run", name) for name in sorted(run)]
    if as_report:
        fields += [("summary", name) for name in sorted(summary)]
    added = st.sampled_from(("g1", "g2", "h")) | st.text(max_size=6).filter(lambda k: k not in run)
    where, field = data.draw(st.sampled_from(fields) | st.tuples(st.just("added"), added))
    (obj if where == "summary" else run)[field] = value
    argv = ["verify-transcript", "--max-vars", "3"]
    code, out = _run_loader(tmp_path_factory, argv, json.dumps(obj))
    if code in (0, 1):
        assert report(out)["ok"] is (code == 0)
    if where == "summary":
        assert code == (0 if json.dumps(value) == json.dumps(summary[field]) else 1)
    if where == "added":
        checks = (report(out)["runs"][0] if as_report else report(out))["checks"]
        assert code == 1 and [c["name"] for c in checks if not c["ok"]] == ["parse"]
