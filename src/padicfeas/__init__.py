"""Root feasibility of sparse integer polynomials over the p-adic rationals,
with a 3CNF-to-single-polynomial reduction pipeline and supporting number
theory (orders, primality, primes in progressions, Hensel lifting).

The names in `__all__` are the library surface; everything else is
importable from its submodule.  Submodules load on first use: importing the
package runs this file alone, the modules that some CLI subcommand does not
run (bigmod, padic, plaisted, primes, reduce) wait in `sys.modules` as lazy
modules that execute on their first attribute access, and each public name
is read from its submodule when it is first asked for (PEP 562), so a CLI
call loads only the modules it runs."""

import importlib.util
import sys

__version__ = "0.1.0"

# each public name and the submodule that defines it
_EXPORTS = {
    "Caps": "config",
    "Config": "config",
    "CapsExceeded": "errors",
    "PadicDecision": "padic",
    "Witness": "padic",
    "decide_binomial": "padic",
    "bruteforce_decision": "padic",
    "has_degenerate_root_qp": "padic",
    "Cnf3": "plaisted",
    "parse_dimacs": "plaisted",
    "encode_system": "plaisted",
    "expand": "plaisted",
    "find_prime_in_progression": "primes",
    "prime_density_experiment": "primes",
    "pipeline": "reduce",
    "run_with_majority": "reduce",
    "verify_transcript": "reduce",
    "ReductionTranscript": "reduce",
    "SparsePoly": "sparsepoly",
    "parse_poly": "sparsepoly",
}
__all__ = list(_EXPORTS)


def _lazy(name: str):
    """Register the submodule `name` in sys.modules and on the package
    without executing it; its first attribute access runs it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bigmod, padic, plaisted, primes, reduce = map(
    _lazy, ("bigmod", "padic", "plaisted", "primes", "reduce"))


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
