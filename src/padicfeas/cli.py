"""Command-line front end.

Every subcommand writes one JSON report (sorted keys, compact layout, one
line) to stdout; `reduce --out FILE` writes the same bytes to FILE first,
and `python -m json.tool FILE` indents it for reading.  Stderr
gets one summary line per result (one per row for `density`).  The exit
code comes from the verdict: 0 feasible/true/verified, 1 infeasible/false/
failed check.  Exits 2 (input error) and 3 (cap or budget exhausted) print
nothing on stdout and one `error:` line on stderr.  Each `_cmd_*` returns
(report, summary, verdict), and `main` alone prints them.  Runs are
deterministic given --seed (or the PADICFEAS_SEED environment variable)
and the inputs.

A call uses only the parser of the subcommand it names (all of them when
its first argument names none), built by the first such call in the process
and kept for later ones, and parses its arguments in one pass through that
subcommand's parser.  It loads only the modules that subcommand runs:
`padic`, `plaisted`, `primes` and `reduce` are the package's lazy
submodules, read as attributes at call time, and each executes on its first
attribute use.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import __version__, padic, plaisted, primes, reduce
from .config import Caps, Config
from .errors import CapsExceeded, InexactDivision
from .sparsepoly import parse_int, parse_poly, poly_from_obj, poly_to_obj, transcript_dumps

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAPS = 3


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PADICFEAS_SEED")
    if env is not None:
        return parse_int(env)
    return 0


def _load_poly(path: str):
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        return poly_from_obj(json.loads(stripped))
    return parse_poly(stripped)


def _caps_from_args(args) -> Caps:
    """The caps that the subcommand's cap flags set; each flag's dest is its
    Caps field."""
    return Caps(**{name: value for name in Caps._fields
                   if (value := getattr(args, name, None)) is not None})


# -- subcommands -----------------------------------------------------------------


def _report_decision(report: dict, decision, p: int):
    """Add a decision's verdict, rule and witness to the report; return it
    with its summary and verdict."""
    witness = decision.witness
    report["feasible"] = decision.feasible
    report["rule"] = decision.rule
    report["witness"] = None if witness is None else {
        "residue": str(witness.residue),
        "p": str(witness.modulus.p),
        "ell": witness.modulus.ell,
        "valuation_shift": str(witness.valuation_shift),
    }
    verdict = "feasible" if decision.feasible else "infeasible"
    return report, f"{verdict} over Q_{p} ({decision.rule})", decision.feasible


def _cmd_decide_binomial(args):
    decision = padic.decide_binomial(args.c1, args.a1, args.c2, args.a2, args.prime)
    report = {
        "command": "decide-binomial",
        "config": {},
        "input": {
            "c1": str(args.c1),
            "a1": str(args.a1),
            "c2": str(args.c2),
            "a2": str(args.a2),
            "prime": str(args.prime),
        },
    }
    return _report_decision(report, decision, args.prime)


def _decide_poly_file(args, command: str, decide):
    """Load the polynomial file and the caps, decide, and return the report
    head with the result."""
    f = _load_poly(args.poly_file)
    caps = _caps_from_args(args)
    result = decide(f, args.prime, caps)
    report = {
        "command": command,
        "config": {"degree_cap": caps.degree},
        "input": {"poly": poly_to_obj(f), "prime": str(args.prime)},
    }
    return report, result


def _cmd_decide(args):
    report, decision = _decide_poly_file(args, "decide", padic.bruteforce_decision)
    return _report_decision(report, decision, args.prime)


def _cmd_degenerate(args):
    report, result = _decide_poly_file(args, "degenerate", padic.has_degenerate_root_qp)
    report["degenerate_root"] = result
    return report, f"{'has' if result else 'no'} repeated degree-1 factor over Q_{args.prime}", result


def _cmd_reduce(args):
    with open(args.cnf_file) as fh:
        cnf = plaisted.parse_dimacs(fh.read())
    config = Config(
        seed=_resolve_seed(args),
        mode=args.mode,
        repeats=args.repeats,
        prime_strategy=args.prime_strategy,
        caps=_caps_from_args(args),
    )
    _, _, transcripts = reduce.run_with_majority(cnf, config)
    report = reduce.reduce_report(config, transcripts)
    verdict_word = "satisfiable" if report["verdict"] else "unsatisfiable"
    summary = (f"{verdict_word} ({report['feasible_runs']}/{report['repeats']} runs feasible, "
               f"mode={config.mode}, p={transcripts[0].prime.p})")
    return report, summary, report["verdict"]


def _cmd_find_prime(args):
    seed = _resolve_seed(args)
    rng = random.Random(seed)
    caps = _caps_from_args(args)
    result = primes.find_prime_in_progression(
        args.n, strategy=args.strategy, rng=rng, caps=caps
    )
    report = {
        "command": "find-prime",
        "config": {"seed": str(seed), "k_max": caps.k_max},
        "strategy": args.strategy,
        **result.to_obj(),
    }
    return report, f"p = {result.p} = 1 + {result.k} * {result.q_n}", True


def _cmd_density(args):
    values = args.pairs
    if len(values) % 2 != 0:
        raise ValueError("density expects pairs: M x [M x ...]")
    caps = _caps_from_args(args)
    rows = []
    for m, x in zip(values[::2], values[1::2]):
        r = primes.prime_density_experiment(m, x, caps)
        rows.append(
            {
                "M": r.m,
                "x": str(r.x),
                "count": r.count,
                "predicted": r.predicted,
                "ratio": r.ratio,
            }
        )
    report = {
        "command": "density",
        "config": {"sieve_cap": caps.sieve_limit},
        "rows": rows,
        "note": primes.DENSITY_NOTE,
    }
    lines = [
        f"M={row['M']} x={row['x']}: {row['count']} primes, ratio {row['ratio']:.4f}"
        for row in rows
    ]
    return report, "\n".join(lines), True


def _cmd_verify_transcript(args):
    with open(args.file) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("a transcript file must hold a JSON object")
    caps = _caps_from_args(args)
    why = ""
    if "runs" in obj:
        ok, runs, why = reduce.verify_report(obj, caps)
        report = {"command": "verify-transcript", "ok": ok, "runs": runs}
    else:
        ok, checks = reduce.verify_transcript(obj, caps)
        report = {"command": "verify-transcript", "ok": ok, "checks": checks}
    line = "transcript ok" if ok else "transcript verification FAILED"
    return report, f"{line}: {why}" if why else line, ok


# -- parser ------------------------------------------------------------------------


def _binomial_arguments(p):
    for name in ("c1", "a1", "c2", "a2"):
        p.add_argument(name, type=parse_int)
    p.add_argument("--prime", type=parse_int, required=True)


def _poly_file_arguments(p):
    p.add_argument("poly_file")
    p.add_argument("--prime", type=parse_int, required=True)
    p.add_argument("--degree-cap", dest="degree", metavar="DEGREE_CAP", type=parse_int)


def _reduce_arguments(p):
    p.add_argument("cnf_file")
    p.add_argument("--mode", choices=("randomized", "deterministic"), default="randomized")
    p.add_argument("--seed", type=parse_int, default=None)
    p.add_argument("--repeats", type=parse_int, default=5)
    p.add_argument("--prime-strategy", choices=("scan", "sample"), default="scan")
    p.add_argument("--max-vars", type=parse_int)
    p.add_argument("--out", default=None, help="also write the report to this file")


def _find_prime_arguments(p):
    p.add_argument("n", type=parse_int)
    p.add_argument("--strategy", choices=("scan", "sample"), default="scan")
    p.add_argument("--seed", type=parse_int, default=None)
    p.add_argument("--k-max", type=parse_int)


def _density_arguments(p):
    p.add_argument("pairs", type=parse_int, nargs="+", metavar="M_OR_X")
    p.add_argument("--sieve-cap", dest="sieve_limit", metavar="SIEVE_CAP", type=parse_int)


def _verify_arguments(p):
    p.add_argument("file")
    p.add_argument("--max-vars", type=parse_int)


# name: (help line, the function that adds its arguments, the function that
# runs it), in the order the top-level help lists them
_COMMANDS = {
    "decide-binomial": ("decide c1*x^a1 + c2*x^a2 over Q_p", _binomial_arguments,
                        _cmd_decide_binomial),
    "decide": ("decide a polynomial file over Q_p (brute force)", _poly_file_arguments,
               _cmd_decide),
    "degenerate": ("detect a repeated degree-1 factor over Q_p", _poly_file_arguments,
                   _cmd_degenerate),
    "reduce": ("run the 3SAT reduction pipeline on a DIMACS file", _reduce_arguments,
               _cmd_reduce),
    "find-prime": ("find a prime p = 1 + k*Q_n", _find_prime_arguments, _cmd_find_prime),
    "density": ("count primes = 1 (mod M) up to x vs Li(x)/phi(M)", _density_arguments,
                _cmd_density),
    "verify-transcript": ("re-verify a reduction transcript", _verify_arguments,
                          _cmd_verify_transcript),
}


def _command(argv: list[str]) -> str | None:
    """The subcommand that argv[0] names, or None when it names none (no
    arguments, an option first, an unknown command)."""
    return argv[0] if argv and argv[0] in _COMMANDS else None


@functools.cache
def _parser(command: str | None) -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser with the subparser of command alone, or with all
    of them for None, and its subparsers by name.  Each is built on first use
    and kept, so a process holds at most one per subcommand and one whole
    tree; parsing leaves a parser as it found it, so a kept one parses each
    call afresh.  Built with one subparser, the top-level usage that an
    "unrecognized arguments" error prints would list that command alone, so
    the subparsers' metavar lists all of them; the whole tree keeps
    argparse's own, because its "required" and "invalid choice" errors name
    the argument by its metavar ("command" without one)."""
    names = list(_COMMANDS) if command is None else [command]
    parser = argparse.ArgumentParser(
        prog="padicfeas",
        description="Root feasibility of sparse integer polynomials over the "
        "p-adic rationals, and a 3SAT-to-polynomial reduction pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        text, add_arguments, func = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed in one pass when argv[0] names a subcommand: its subparser
    parses argv[1:] and the top-level parser rejects what is left over, as
    the two-level parse_args does, but without the top-level pass over every
    argument (the namespace lacks that pass's `command`, which nothing
    reads).  The whole tree parses an argv that names no subcommand, and so
    does the top-level parser for one holding an argument that starts with
    "--=", which it alone rejects as ambiguous between --help and --version."""
    command = _command(argv)
    parser, subparsers = _parser(command)
    if command is None or any(a.startswith("--=") for a in argv):
        return parser.parse_args(argv)
    args, extras = subparsers[command].parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        report, summary, verdict = args.func(args)
        text = transcript_dumps(report)
        if getattr(args, "out", None):
            with open(args.out, "w") as fh:
                fh.write(text)
        sys.stdout.write(text)
        sys.stderr.write(summary + "\n")
        return EXIT_TRUE if verdict else EXIT_FALSE
    except (CapsExceeded, MemoryError, OverflowError) as exc:  # raised caps admit the last two
        why = exc if isinstance(exc, CapsExceeded) else f"too large to allocate ({type(exc).__name__})"
        sys.stderr.write(f"error: {why}\n")
        return EXIT_CAPS
    # JSONDecodeError is a ValueError; json raises RecursionError on deep nesting
    except (ValueError, InexactDivision, OSError, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
