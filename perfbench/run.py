"""Benchmark for padicfeas: seeded workloads driven through the CLI in-process.

    python3 perfbench/run.py --workload reduce-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # each workload in its own process

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one caller, no threads: each call to
``padicfeas.cli.main(argv)`` starts after the previous one returned (a
closed loop), with stdout and stderr captured, so argument parsing, JSON
reports, transcript files and exit codes are all inside the timing.

A run is a sequence of rounds -- fixed mixes of calls on fresh seeded inputs
-- until ``--seconds`` have passed, finishing the round in progress.  Each
round is set up first (fresh package import, the round's inputs written to
files, one warm-up call), round 0 three times; ``setup_s`` is the median of
all set-ups, which spreads them over the whole run.  Every answer is checked by an
oracle in ``workloads.py``.  numtheory also makes a few known-limit probe
calls once per run (``workloads.numtheory_probes``), which may exit 3; they
are reported apart and count towards neither the ops nor the end-to-end
metrics.  With ``--trace 1`` each call runs untraced and then traced; the
traced calls give the per-layer metrics and the difference gives the
tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  The lines
before it are the full report, and ``.perfbench/results/`` keeps every op's
record, the environment and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 3  # for round 0; every later round is set up once more
SAMPLE_EVERY_S = 0.1  # how often the reference loop is timed during an untraced call

# The metric name under which each kind of call reports its wall times.
KIND_METRICS = {
    "reduce": "reduce_s",
    "reduce_det": "reduce_det_s",
    "verify": "verify_s",
    "decide": "decide_s",
    "degenerate": "degenerate_s",
    "decide_binomial": "decide_binomial_s",
    "find_prime": "find_prime_s",
    "density": "density_s",
}

# The end-to-end metrics every workload reports on its last line (BENCHMARK.json).
END_TO_END = ("setup_s", "call_rel.geomean", "call_rel.balanced", "peak_rss_mb")


# -- statistics ------------------------------------------------------------------


def tail(values: list[float]):
    """(percentile, value) of the highest percentile with ten samples beyond
    it, by nearest rank; None with fewer than 11 samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


# -- running ops -----------------------------------------------------------------


def reference_time() -> float:
    """Best of three runs of a fixed pure-Python loop (integer arithmetic
    modulo a prime and a dict).  On a shared virtual machine the CPU speed
    drifts by up to 1.6x within seconds; a call's time divided by this one,
    taken while the call runs, cancels that drift."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        counts, x = {}, 12345
        for i in range(1500):
            x = (x * x + i) % 1_000_000_007
            counts[x & 1023] = counts.get(x & 1023, 0) + 1
        best = min(best, time.perf_counter() - start)
    return best


class SpeedSampler:
    """Times the reference loop right before a call and then every
    SAMPLE_EVERY_S seconds while it runs, from a SIGALRM handler, so a long
    call is divided by the speed the machine had during it and not at one
    instant before it.  The handler's own time is taken out of the call's."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_time())
        self.handler_s += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.handler_s = [reference_time()], 0.0
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def reference(self) -> float:
        return statistics.median(self.samples)


class Runner:
    """Calls the CLI, checks each answer and keeps one record per call."""

    def __init__(self, cli):
        self.cli = cli
        self.records: list[dict] = []
        self.state: dict = {}  # per round: verdicts that later calls cross-check

    def call(self, op) -> tuple[float, int | None, str, str | None]:
        out, err = io.StringIO(), io.StringIO()
        tb = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failure to record, not to crash on
                code, tb = None, traceback.format_exc()
            wall = time.perf_counter() - start
        return wall, code, out.getvalue(), tb

    def run(self, op, round_index: int, traced: bool) -> dict:
        """One checked call.  Untraced calls are timed under the speed sampler;
        traced ones only against the reference time before them, so that their
        spans add up to their wall time."""
        if traced:
            ref = reference_time()
            wall, code, out, tb = self.call(op)
        else:
            with SpeedSampler() as speed:
                wall, code, out, tb = self.call(op)
            wall -= speed.handler_s
            ref = speed.reference()
        incorrect = False
        if tb is not None:
            reason, incorrect = "traceback: " + tb.strip().splitlines()[-1], True
        elif code == 3:
            reason = "exit 3 (cap or budget exhausted)"
        else:
            try:
                report = json.loads(out) if out.strip() else {}
            except json.JSONDecodeError:
                report = {}
            state = self.state.setdefault(round_index, {})
            reason = op.check(code, report, state)
            incorrect = reason is not None
        record = {
            "kind": op.kind, "round": round_index, "traced": traced, "wall_s": wall, "ref_s": ref,
            "exit": code, "failure": reason, "incorrect": incorrect, "props": op.props,
            "command": op.argv[0], "probe": op.probe,
        }
        if op.out_file and code in (0, 1):
            record["transcript_bytes"] = os.path.getsize(op.out_file)
        self.records.append(record)
        return record


def fresh_import():
    """Import the package as a new process would (bytecode already cached)."""
    for name in [m for m in sys.modules if m == "padicfeas" or m.startswith("padicfeas.")]:
        del sys.modules[name]
    return importlib.import_module("padicfeas.cli")


def setup(workload: Workload, index: int):
    """One full set-up of round `index`: a fresh import, the round's inputs
    on disk, and one warm-up call.  Returns the set-up time, the part of it
    spent in the package (import and warm-up), the ops and the CLI module."""
    start = time.perf_counter()
    cli = fresh_import()
    imported = time.perf_counter()
    ops = workload.round(index)
    generated = time.perf_counter()
    Runner(cli).call(next(op for op in ops if not op.props.get("slow")))
    end = time.perf_counter()
    return end - start, (imported - start) + (end - generated), ops, cli


def traced_call(runner, tracer, op, index, op_spans) -> float:
    tracer.op_index, tracer.op = len(runner.records), op
    first = len(tracer.spans)
    tracer.install()
    try:
        rec = runner.run(op, index, traced=True)
    finally:
        tracer.uninstall()
    op_spans.append((rec, first, len(tracer.spans)))
    tracer.finish_op(first)
    return rec["wall_s"]


def run_workload(args) -> int:
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = Workload(args.workload, args.seed, str(workdir))
        setups, package_setups = [], []
        for _ in range(SETUP_REPEATS):
            elapsed, package, ops, cli = setup(workload, 0)
            setups.append(elapsed)
            package_setups.append(package)
        runner = Runner(cli)
        tracer = Tracer() if args.trace else None
        pairs = []  # (untraced, traced) wall time of each traced call
        op_spans = []  # (record, first span, last span) of traced calls
        start = time.perf_counter()
        deadline = start + args.seconds
        # The known-limit probes run once, traced when the run is, and count
        # towards neither the ops nor the end-to-end metrics.
        for op in [] if args.smoke else workload.probes():
            if tracer is None:
                runner.run(op, -1, traced=False)
            else:
                traced_call(runner, tracer, op, -1, op_spans)
        index = 0
        while True:
            if args.smoke:
                ops = [op for op in ops if not op.props.get("slow")]
            for i, op in enumerate(ops):
                if tracer is None:
                    runner.run(op, index, traced=False)
                    continue
                # Each call runs untraced and traced back to back, alternating
                # which goes first, so both twins see the same machine state
                # and their ratio measures the tracing overhead.
                if i % 2:
                    traced = traced_call(runner, tracer, op, index, op_spans)
                    untraced = runner.run(op, index, traced=False)["wall_s"]
                else:
                    untraced = runner.run(op, index, traced=False)["wall_s"]
                    traced = traced_call(runner, tracer, op, index, op_spans)
                pairs.append((untraced, traced))
            index += 1
            if args.smoke or time.perf_counter() >= deadline:
                break
            elapsed, package, ops, runner.cli = setup(workload, index)
            setups.append(elapsed)
            package_setups.append(package)
        measured = time.perf_counter() - start
        return report(args, runner, setups, package_setups, index, measured, tracer,
                      op_spans, pairs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- metrics ---------------------------------------------------------------------


def kind_metrics(records: list[dict]) -> dict:
    """Per-kind p50 and tail of the call times, with sample counts."""
    out = {}
    for kind, metric in KIND_METRICS.items():
        walls = [r["wall_s"] for r in records if r["kind"] == kind]
        if not walls:
            continue
        out[f"{metric}.p50"] = {"value": statistics.median(walls), "unit": "s", "n": len(walls)}
        t = tail(walls)
        if t is not None:
            out[f"{metric}.tail"] = {"value": t[1], "unit": "s", "n": len(walls),
                                     "percentile": round(t[0], 1)}
    sizes = [r["transcript_bytes"] for r in records if "transcript_bytes" in r]
    if sizes:
        out["transcript_mb"] = {"value": statistics.mean(sizes) / 1e6, "unit": "MB",
                                "n": len(sizes)}
    return out


def end_to_end(records, setups, package_setups) -> dict:
    """The gated metrics and the figures behind them.  call_rel.geomean weighs
    every call the same, so the many cheap calls set it.  call_rel.balanced
    gives the slow calls (the tail each workload exists for, flagged `slow` in
    workloads.py) half the weight, whatever their number.  call_rel.mean, an
    arithmetic mean, is time-weighted; it is printed but not gated, because it
    follows the cost of the few heaviest inputs of each seed."""
    walls = [r["wall_s"] for r in records]
    rels = [r["wall_s"] / r["ref_s"] for r in records]
    slow = [rel for rel, r in zip(rels, records) if r["props"].get("slow")]
    fast = [rel for rel, r in zip(rels, records) if not r["props"].get("slow")]
    balanced = math.sqrt(statistics.geometric_mean(slow) * statistics.geometric_mean(fast)) \
        if slow and fast else statistics.geometric_mean(rels)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups)},
        "setup_package_s": {"value": statistics.median(package_setups), "unit": "s",
                            "n": len(package_setups)},
        "call_rel.geomean": {"value": statistics.geometric_mean(rels), "unit": "x",
                             "n": len(rels)},
        "call_rel.balanced": {"value": balanced, "unit": "x", "n": len(rels)},
        "call_rel.mean": {"value": statistics.mean(rels), "unit": "x", "n": len(rels)},
        "call_s.geomean": {"value": statistics.geometric_mean(walls), "unit": "s",
                           "n": len(walls)},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB", "n": 1},
    }


class SpanStats:
    """Per-span-name aggregates over the traced calls."""

    def __init__(self, spans, op_spans):
        selfs = self_times(spans)
        self.spans = spans
        self.calls, self.errors, self.kinds = Counter(), Counter(), Counter()
        self.incl, self.self_ = defaultdict(float), defaultdict(float)
        self.infos, self.cli_self = defaultdict(list), defaultdict(list)
        self.children = defaultdict(Counter)
        for i, s in enumerate(spans):
            self.calls[s.name] += 1
            self.incl[s.name] += s.end - s.start
            self.self_[s.name] += selfs[i]
            if s.info:
                self.infos[s.name].append(s.info)
            if s.error:
                self.errors[s.name, s.error] += 1
            if s.parent is not None:
                self.children[s.parent][s.name] += 1
        # Every op's first span is cli.main, whose self time is the CLI call
        # minus the library call.  `gaps` is how far the self times of an op's
        # spans fall short of its traced wall time, as a share of it.
        self.gaps = []
        for rec, first, last in op_spans:
            self.kinds[rec["kind"]] += 1
            self.cli_self[rec["kind"]].append(selfs[first])
            self.gaps.append((rec["wall_s"] - sum(selfs[first:last])) / rec["wall_s"])

    def mean_incl(self, name):
        return self.incl[name] / self.calls[name] if self.calls[name] else 0.0

    def mean_self(self, name):
        return self.self_[name] / self.calls[name] if self.calls[name] else 0.0

    def mean_info(self, name, value):
        """Mean over the calls of `name` of an info key, or of a function of the info."""
        get = value if callable(value) else (lambda info: info[value])
        vals = [v for v in map(get, self.infos[name]) if v is not None]
        return statistics.mean(vals) if vals else 0.0

    def cli_overhead(self, kinds):
        vals = [v for k in kinds for v in self.cli_self[k]]
        return statistics.mean(vals) if vals else 0.0

    def per_op(self, total, kinds):
        n = sum(self.kinds[k] for k in kinds)
        return total / n if n else 0.0

    def reversed_searches(self):
        """Each search of the brute-force decider computes one resultant, so
        resultants beyond the first are searches of the reversed polynomial."""
        counts = [max(0, self.children[i]["sparsepoly.resultant_dense"] - 1)
                  for i, s in enumerate(self.spans) if s.name == "padic.bruteforce_decision"]
        return statistics.mean(counts) if counts else 0.0

    def budget_exhausted(self):
        """decide-binomial calls that ended in an exhausted factoring budget."""
        return self.errors["padic.decide_binomial", "FactorBudgetExceeded"]


# (metric, unit, how it is computed from the spans) -- the per-layer metrics of
# BENCHMARK.json.  "_s" metrics of a wrapped function are its mean inclusive
# time per call; "derived" ones are the mean self time of the enclosing span.
def layer_metrics(st: SpanStats, overhead_pct: float) -> dict:
    reduce_kinds = ("reduce", "reduce_det")
    serialize = st.incl.get("reduce.to_obj", 0.0) + st.incl.get("reduce.transcript_dumps", 0.0)
    values = {
        "reduce.scan_s": (st.mean_self("reduce.pipeline"), "s"),
        "reduce.scan_work": (st.mean_info("reduce.pipeline",
                                          lambda i: i["scanned"] and i["q_n"] * i["scanned"]),
                             "count"),
        "reduce.pair_to_single_s": (st.mean_incl("reduce.pair_to_single"), "s"),
        "reduce.h_terms": (st.mean_info("reduce.pair_to_single", "h_terms"), "count"),
        "reduce.h_coeff_bits": (st.mean_info("reduce.pair_to_single", "h_coeff_bits"), "count"),
        "reduce.random_combine_s": (st.mean_incl("reduce.random_combine"), "s"),
        "reduce.g_terms": (st.mean_info("reduce.random_combine", "g_terms"), "count"),
        "plaisted.encode_system_s": (st.mean_incl("plaisted.encode_system"), "s"),
        "plaisted.clause_terms": (st.mean_info("plaisted.encode_system", "clause_terms"), "count"),
        "primes.find_prime_in_progression_s": (st.mean_incl("primes.find_prime_in_progression"), "s"),
        "primes.prime_trials": (st.mean_info("primes.find_prime_in_progression", "prime_trials"),
                                "count"),
        "bigmod.find_generator_s": (st.mean_incl("bigmod.find_generator"), "s"),
        "reduce.pipeline_s": (st.mean_incl("reduce.pipeline"), "s"),
        "reduce.run_with_majority_s": (st.mean_incl("reduce.run_with_majority"), "s"),
        "reduce.verify_transcript_s": (st.mean_incl("reduce.verify_transcript"), "s"),
        "reduce.transcript_serialize_s": (st.per_op(serialize, reduce_kinds), "s"),
        "reduce.transcript_bytes": (st.mean_info("reduce.transcript_dumps", "transcript_bytes"),
                                    "count"),
        "cli.reduce_overhead_s": (st.cli_overhead(reduce_kinds), "s"),
        "cli.verify_overhead_s": (st.cli_overhead(("verify",)), "s"),
        "cli.overhead_s": (st.cli_overhead(tuple(KIND_METRICS)), "s"),
        "sparsepoly.resultant_dense_s": (st.mean_incl("sparsepoly.resultant_dense"), "s"),
        "padic.resultant_bits": (st.mean_info("sparsepoly.resultant_dense", "resultant_bits"),
                                 "count"),
        "padic.depth_bound": (st.mean_info("sparsepoly.resultant_dense", "depth_bound"), "count"),
        "sparsepoly.gcd_dense_s": (st.mean_incl("sparsepoly.gcd_dense"), "s"),
        "sparsepoly.exact_div_s": (st.mean_incl("sparsepoly.exact_div"), "s"),
        "padic.bruteforce_decision_s": (st.mean_incl("padic.bruteforce_decision"), "s"),
        "padic.refine_s": (st.mean_self("padic.bruteforce_decision"), "s"),
        "padic.reversed_searches": (st.reversed_searches(), "count"),
        "padic.has_degenerate_root_qp_s": (st.mean_incl("padic.has_degenerate_root_qp"), "s"),
        "padic.decide_binomial_s": (st.mean_incl("padic.decide_binomial"), "s"),
        "bigmod.multiplicative_order_s": (st.mean_incl("bigmod.multiplicative_order"), "s"),
        "bigmod.factor_s": (st.mean_incl("bigmod.factor"), "s"),
        "bigmod.decompose_2adic_unit_s": (st.mean_incl("bigmod.decompose_2adic_unit"), "s"),
        "bigmod.factor_budget_exhausted": (st.budget_exhausted(), "count"),
        "primes.sieve_primes_s": (st.mean_self("primes.prime_density_experiment"), "s"),
        "primes.logarithmic_integral_s": (st.mean_incl("primes.logarithmic_integral"), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# -- report ----------------------------------------------------------------------


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def report(args, runner, setups, package_setups, rounds, measured, tracer, op_spans,
           pairs) -> int:
    records = [r for r in runner.records if not r["probe"]]
    probes = [r for r in runner.records if r["probe"]]
    attempted = len(records)
    failed = sum(1 for r in records if r["failure"])
    correct = not any(r["incorrect"] for r in runner.records)
    env = environment(args)
    print("# padicfeas benchmark  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# rounds={rounds}  measured_s={measured:.3f}  attempted={attempted}  "
          f"failed={failed}  fail_share={failed / attempted:.4f}  correct={correct}")
    untraced = [r for r in records if not r["traced"]]
    e2e = end_to_end(untraced, setups, package_setups)
    per_kind = kind_metrics(untraced)
    named = {**e2e, **per_kind,
             "fail_share": {"value": failed / attempted, "unit": "share", "n": attempted}}
    if probes:
        named["probe_fail_share"] = {"value": sum(1 for r in probes if r["failure"]) / len(probes),
                                     "unit": "share", "n": len(probes)}
    for name, m in named.items():
        extra = f"  p{m['percentile']}" if "percentile" in m else ""
        print(f"{name:28s} {m['value']:.6g} {m['unit']}  (n={m['n']}{extra})")
    for r in records:
        if r["failure"]:
            print(f"# failure: {r['kind']} {json.dumps(r['props'], sort_keys=True)}: {r['failure']}")
    for r in probes:
        print(f"# probe: {r['kind']} {json.dumps(r['props'], sort_keys=True)}: exit {r['exit']} "
              f"in {r['wall_s']:.3f} s{': ' + r['failure'] if r['failure'] else ''}")
    props = property_shares(records)
    for line in props:
        print("# input " + line)

    result_doc = {"environment": env, "setups_s": setups, "metrics": named,
                  "records": runner.records}
    if tracer is not None:
        st = SpanStats(tracer.spans, op_spans)
        overhead = 100.0 * (statistics.median(t / u for u, t in pairs) - 1)
        metrics = layer_metrics(st, overhead)
        untraced, traced = (sum(x) for x in zip(*pairs))
        print(f"# tracing overhead {overhead:.2f}% (median over {len(pairs)} calls of traced over "
              f"untraced; in total {traced:.3f} s traced vs {untraced:.3f} s untraced)")
        worst = max(st.gaps, default=0.0)
        print(f"# per op, self times add up to the traced wall time within {worst:.2e} "
              f"of it (the rest is the root wrapper)")
        print(f"# {'span':38s} {'calls':>7s} {'incl_s':>10s} {'self_s':>10s}")
        for name in sorted(st.calls, key=lambda n: -st.self_[n]):
            print(f"# {name:38s} {st.calls[name]:7d} {st.incl[name]:10.4f} {st.self_[name]:10.4f}")
        for name, m in metrics.items():
            print(f"{name:34s} {m['value']:.6g} {m['unit']}")
        result_doc["layer_metrics"] = metrics
        result_doc["spans"] = [[s.name, s.start, s.end, s.parent, s.op, s.info, s.error]
                               for s in tracer.spans]
        out_metrics = metrics
    else:
        out_metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in END_TO_END}
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(result_doc, fh, default=str)
    print(f"# records written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


def property_shares(records) -> list[str]:
    """Share of calls with each value of each cost-driving input property."""
    lines = []
    for key in sorted({k for r in records for k in r["props"]}):
        counts = Counter(r["props"][key] for r in records if key in r["props"])
        if len(counts) > 12:  # numeric properties with many values: give the range
            lines.append(f"{key}: {len(counts)} values in [{min(counts)}, {max(counts)}]")
            continue
        total = sum(counts.values())
        lines.append(f"{key}: " + ", ".join(
            f"{v}={c / total:.2f}" for v, c in sorted(counts.items(), key=lambda x: str(x[0]))))
    return lines


# -- entry -----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run round 0 once without its slow calls, ignoring --seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "padicfeas" / "cli.py").is_file():
        sys.stderr.write(f"error: no package source at {ROOT / 'src' / 'padicfeas'}; "
                         "run from a padicfeas source checkout\n")
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            cmd += ["--smoke"] if args.smoke else []
            status |= subprocess.run(cmd, check=False).returncode
        return status
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("PADICFEAS_SEED", None)  # the CLI's default seed, whatever the shell sets
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
