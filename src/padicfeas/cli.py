"""Command-line front end.

Every subcommand writes one JSON report (sorted keys, stable layout) to
stdout; `reduce --out FILE` writes the same bytes to FILE first.  Stderr
gets one summary line per result (one per row for `density`).  The exit
code comes from the verdict: 0 feasible/true/verified, 1 infeasible/false/
failed check.  Exits 2 (input error) and 3 (cap or budget exhausted) print
nothing on stdout and one `error:` line on stderr.  Each `_cmd_*` returns
(report, summary, verdict), and `main` alone prints them.  Runs are
deterministic given --seed (or the PADICFEAS_SEED environment variable)
and the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__
from .config import Caps, Config
from .errors import CapsExceeded, InexactDivision
from .padic import bruteforce_decision, decide_binomial, has_degenerate_root_qp
from .plaisted import parse_dimacs
from .primes import DENSITY_NOTE, find_prime_in_progression, prime_density_experiment
from .reduce import reduce_report, run_with_majority, transcript_dumps, verify_report, verify_transcript
from .sparsepoly import parse_int, parse_poly, poly_from_obj, poly_to_obj

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
    decision = decide_binomial(args.c1, args.a1, args.c2, args.a2, args.prime)
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
    report, decision = _decide_poly_file(args, "decide", bruteforce_decision)
    return _report_decision(report, decision, args.prime)


def _cmd_degenerate(args):
    report, result = _decide_poly_file(args, "degenerate", has_degenerate_root_qp)
    report["degenerate_root"] = result
    return report, f"{'has' if result else 'no'} repeated degree-1 factor over Q_{args.prime}", result


def _cmd_reduce(args):
    with open(args.cnf_file) as fh:
        cnf = parse_dimacs(fh.read())
    config = Config(
        seed=_resolve_seed(args),
        mode=args.mode,
        repeats=args.repeats,
        prime_strategy=args.prime_strategy,
        caps=_caps_from_args(args),
    )
    _, _, transcripts = run_with_majority(cnf, config)
    report = reduce_report(config, transcripts)
    verdict_word = "satisfiable" if report["verdict"] else "unsatisfiable"
    summary = (f"{verdict_word} ({report['feasible_runs']}/{report['repeats']} runs feasible, "
               f"mode={config.mode}, p={transcripts[0].prime.p})")
    return report, summary, report["verdict"]


def _cmd_find_prime(args):
    seed = _resolve_seed(args)
    rng = random.Random(seed)
    caps = _caps_from_args(args)
    result = find_prime_in_progression(
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
        r = prime_density_experiment(m, x, caps)
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
        "note": DENSITY_NOTE,
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
        ok, runs, why = verify_report(obj, caps)
        report = {"command": "verify-transcript", "ok": ok, "runs": runs}
    else:
        ok, checks = verify_transcript(obj, caps)
        report = {"command": "verify-transcript", "ok": ok, "checks": checks}
    line = "transcript ok" if ok else "transcript verification FAILED"
    return report, f"{line}: {why}" if why else line, ok


# -- parser ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicfeas",
        description="Root feasibility of sparse integer polynomials over the "
        "p-adic rationals, and a 3SAT-to-polynomial reduction pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("decide-binomial", help="decide c1*x^a1 + c2*x^a2 over Q_p")
    for name in ("c1", "a1", "c2", "a2"):
        pb.add_argument(name, type=parse_int)
    pb.add_argument("--prime", type=parse_int, required=True)
    pb.set_defaults(func=_cmd_decide_binomial)

    for name, text, func in (
        ("decide", "decide a polynomial file over Q_p (brute force)", _cmd_decide),
        ("degenerate", "detect a repeated degree-1 factor over Q_p", _cmd_degenerate),
    ):
        pd = sub.add_parser(name, help=text)
        pd.add_argument("poly_file")
        pd.add_argument("--prime", type=parse_int, required=True)
        pd.add_argument("--degree-cap", dest="degree", metavar="DEGREE_CAP", type=parse_int)
        pd.set_defaults(func=func)

    pr = sub.add_parser("reduce", help="run the 3SAT reduction pipeline on a DIMACS file")
    pr.add_argument("cnf_file")
    pr.add_argument("--mode", choices=("randomized", "deterministic"), default="randomized")
    pr.add_argument("--seed", type=parse_int, default=None)
    pr.add_argument("--repeats", type=parse_int, default=5)
    pr.add_argument("--prime-strategy", choices=("scan", "sample"), default="scan")
    pr.add_argument("--max-vars", type=parse_int)
    pr.add_argument("--out", default=None, help="also write the report to this file")
    pr.set_defaults(func=_cmd_reduce)

    pf = sub.add_parser("find-prime", help="find a prime p = 1 + k*Q_n")
    pf.add_argument("n", type=parse_int)
    pf.add_argument("--strategy", choices=("scan", "sample"), default="scan")
    pf.add_argument("--seed", type=parse_int, default=None)
    pf.add_argument("--k-max", type=parse_int)
    pf.set_defaults(func=_cmd_find_prime)

    pe = sub.add_parser("density", help="count primes = 1 (mod M) up to x vs Li(x)/phi(M)")
    pe.add_argument("pairs", type=parse_int, nargs="+", metavar="M_OR_X")
    pe.add_argument("--sieve-cap", dest="sieve_limit", metavar="SIEVE_CAP", type=parse_int)
    pe.set_defaults(func=_cmd_density)

    pv = sub.add_parser("verify-transcript", help="re-verify a reduction transcript")
    pv.add_argument("file")
    pv.add_argument("--max-vars", type=parse_int)
    pv.set_defaults(func=_cmd_verify_transcript)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
