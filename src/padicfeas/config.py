"""Run configuration and resource caps."""

from __future__ import annotations

from .record import Record
from .sparsepoly import parse_int


class Caps(Record):
    """Resource limits; exceeding any of them raises instead of degrading."""

    # At the degree cap with small coefficients a decision takes under a
    # second, even when every root mod p is multiple.  The cap bounds neither
    # p nor the coefficient size, and the time grows with both.
    degree: int = 512
    term_count: int = 1_000_000    # dense length of one expanded clause product
    k_max: int = 1_000_000         # sequential prime-scan bound on k
    sieve_limit: int = 100_000_000  # density's x; M = 1 at the cap takes 0.7 s (2 vCPU, Py 3.11)
    max_vars: int = 6              # formula size accepted by the reduction pipeline

    def __post_init__(self):
        for name, value in self.asdict().items():
            if value < 0:
                raise ValueError(f"cap {name} must be nonnegative, not {value}")


class Config(Record):
    """Effective configuration of a pipeline or CLI run."""

    seed: int = 0
    mode: str = "randomized"       # "randomized" | "deterministic"
    repeats: int = 5               # independent repetitions for majority vote
    prime_strategy: str = "scan"   # "scan" | "sample"
    caps: Caps = Caps()

    def __post_init__(self):
        if type(self.seed) is not int:  # a transcript records the seed as an integer
            raise ValueError(f"the seed must be an integer, not {self.seed!r}")
        if self.mode not in ("randomized", "deterministic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.prime_strategy not in ("scan", "sample"):
            raise ValueError(f"unknown prime strategy {self.prime_strategy!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")

    def to_obj(self) -> dict:
        return {
            "seed": str(self.seed),
            "mode": self.mode,
            "repeats": self.repeats,
            "prime_strategy": self.prime_strategy,
            "caps": self.caps.asdict(),
        }

    @classmethod
    def from_obj(cls, obj) -> "Config":
        """The config that to_obj wrote, read from its seed, mode, repeats and
        prime_strategy.  The caps are not read: a run's caps are those of its
        verifier.  Other keys are not read either; reduce.verify_report
        refuses a key that to_obj does not write, here or in the caps."""
        try:
            return cls(seed=parse_int(obj["seed"]), mode=obj["mode"],
                       repeats=parse_int(obj["repeats"]), prime_strategy=obj["prime_strategy"])
        except (KeyError, TypeError):
            raise ValueError("a report's config must be an object with seed, mode, repeats "
                             "and prime_strategy") from None
