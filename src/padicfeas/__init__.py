"""Root feasibility of sparse integer polynomials over the p-adic rationals,
with a 3CNF-to-single-polynomial reduction pipeline and supporting number
theory (orders, primality, primes in progressions, Hensel lifting).

The names below are the library surface; everything else is importable from
its submodule."""

__version__ = "0.1.0"

__all__ = [
    "Caps",
    "Config",
    "CapsExceeded",
    "PadicDecision",
    "Witness",
    "decide_binomial",
    "bruteforce_decision",
    "has_degenerate_root_qp",
    "Cnf3",
    "parse_dimacs",
    "encode_system",
    "expand",
    "find_prime_in_progression",
    "prime_density_experiment",
    "pipeline",
    "run_with_majority",
    "verify_transcript",
    "ReductionTranscript",
    "SparsePoly",
    "parse_poly",
]

from .config import Caps, Config
from .errors import CapsExceeded
from .padic import (
    PadicDecision,
    Witness,
    bruteforce_decision,
    decide_binomial,
    has_degenerate_root_qp,
)
from .plaisted import Cnf3, encode_system, expand, parse_dimacs
from .primes import find_prime_in_progression, prime_density_experiment
from .reduce import ReductionTranscript, pipeline, run_with_majority, verify_transcript
from .sparsepoly import SparsePoly, parse_poly
