"""Spans around calls into the package's public functions.

The tracer swaps each traced function for a wrapper in every `padicfeas`
module that holds a reference to it, records one span per call (name,
start, end, parent span, op id) in memory, and puts the originals back after
each traced call.  Functions without a public entry point are not wrapped; their
time shows up as the self time of the enclosing span, which the layer table
labels as derived.  Counts are taken from each call's inputs and outputs
after the op has finished, so computing them costs no traced time.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict | None = None
    error: str | None = None
    pending: tuple | None = None  # (hook, result), evaluated after the op


# -- counts recorded at span boundaries, from the call's own inputs and outputs ---


def _poly_bits(f) -> int:
    return max((abs(c).bit_length() for c, _ in f.terms), default=0)


def _pair_info(result, op):
    h, _ = result
    return {"h_terms": len(h.terms), "h_coeff_bits": _poly_bits(h)}


def _combine_info(result, op):
    g1, g2, _, _ = result
    return {"g_terms": len(g1.terms) + len(g2.terms)}


def _encode_info(result, op):
    return {"clause_terms": sum(len(f.terms) for f in result)}


def _pipeline_info(result, op):
    """Randomized runs scan (g1, g2); deterministic runs scan the clause
    polynomials, which encode_system's count covers."""
    scanned = None if result.g1 is None else len(result.g1.terms) + len(result.g2.terms)
    return {"q_n": result.q_n, "scanned": scanned}


def _prime_info(result, op):
    return {"prime_trials": result.trials_used}


def _dumps_info(result, op):
    return {"transcript_bytes": len(result)}


def _resultant_info(result, op):
    bits = abs(result.numerator).bit_length()
    p, rho = op.props.get("p"), 0
    if p and result:
        n = abs(result.numerator)
        while n % p == 0:
            n //= p
            rho += 1
    return {"resultant_bits": bits, "depth_bound": 1 + 2 * rho}


# (module, attribute, span name, counts hook).  Dotted attributes are methods.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("reduce", "run_with_majority", "reduce.run_with_majority", None),
    ("reduce", "pipeline", "reduce.pipeline", _pipeline_info),
    ("reduce", "random_combine", "reduce.random_combine", _combine_info),
    ("reduce", "pair_to_single", "reduce.pair_to_single", _pair_info),
    ("reduce", "verify_transcript", "reduce.verify_transcript", None),
    ("reduce", "transcript_dumps", "reduce.transcript_dumps", _dumps_info),
    ("reduce", "ReductionTranscript.to_obj", "reduce.to_obj", None),
    ("plaisted", "encode_system", "plaisted.encode_system", _encode_info),
    ("primes", "find_prime_in_progression", "primes.find_prime_in_progression", _prime_info),
    ("primes", "prime_density_experiment", "primes.prime_density_experiment", None),
    ("primes", "logarithmic_integral", "primes.logarithmic_integral", None),
    ("bigmod", "find_generator", "bigmod.find_generator", None),
    ("bigmod", "factor", "bigmod.factor", None),
    ("bigmod", "euler_phi", "bigmod.euler_phi", None),
    ("bigmod", "multiplicative_order", "bigmod.multiplicative_order", None),
    ("bigmod", "decompose_2adic_unit", "bigmod.decompose_2adic_unit", None),
    ("sparsepoly", "exact_div", "sparsepoly.exact_div", None),
    ("sparsepoly", "gcd_dense", "sparsepoly.gcd_dense", None),
    ("sparsepoly", "resultant_dense", "sparsepoly.resultant_dense", _resultant_info),
    ("padic", "decide_binomial", "padic.decide_binomial", None),
    ("padic", "bruteforce_decision", "padic.bruteforce_decision", None),
    ("padic", "has_degenerate_root_qp", "padic.has_degenerate_root_qp", None),
)


class Tracer:
    """Records spans while installed; `install` and `uninstall` bracket each
    traced call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        self._built_for = None
        self.op_index = -1
        self.op = None

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op_index)
            spans.append(span)
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.pending = (hook, result)
            return result

        return traced

    def finish_op(self, first_span: int):
        """Evaluate the count hooks of one op's spans, outside its timing."""
        for span in self.spans[first_span:]:
            if span.pending is not None:
                hook, result = span.pending
                span.info, span.pending = hook(result, self.op), None

    def install(self):
        """Swap the wrappers in.  The swap list is built once per import of
        the package, since each round re-imports it."""
        cli = sys.modules["padicfeas.cli"]
        if self._built_for is not cli:
            self._swaps, self._built_for = self._build(), cli
        for obj, attr, wrapper, _ in self._swaps:
            setattr(obj, attr, wrapper)

    def uninstall(self):
        for obj, attr, _, original in self._swaps:
            setattr(obj, attr, original)

    def _build(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "padicfeas" or k.startswith("padicfeas.")]
        swaps = []
        for mod, attr, name, hook in TRACED:
            owner = sys.modules[f"padicfeas.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, meth)
                swaps.append((cls, meth, self.wrap(name, original, hook), original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            swaps += [(m, key, wrapper, original)
                      for m in modules for key, value in vars(m).items() if value is original]
        return swaps


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out
