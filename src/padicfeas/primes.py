"""Primes congruent to 1 modulo a primorial, and prime-density bookkeeping.

The search strategies mirror the two ways to win: a deterministic scan over
k = 1, 2, 3, ... (cheap at desk scale) and uniform random sampling of k from
{1, ..., 2**(n**C)} with at most 9*n**C' trials.  The density experiment
compares exact counts of primes p = 1 (mod M), from a sieve over the
progression 1 + j*M, against Li(x)/phi(M); it is an empirical consistency
check of that predicted density, not a verification of any hypothesis behind it.
"""

from __future__ import annotations

import math
import random

from .bigmod import euler_phi, is_prime, primorial
from .config import Caps
from .errors import CapsExceeded, PrimeSearchExhausted
from .record import Record

DENSITY_NOTE = (
    "empirical consistency check of the predicted density Li(x)/phi(M); "
    "not a verification of the underlying hypothesis"
)

SAMPLE_C = 2       # sample k uniformly from {1, ..., 2**(n**SAMPLE_C)}
SAMPLE_CPRIME = 2  # allow at most 9 * n**SAMPLE_CPRIME sampling trials
# The largest n that find_prime_in_progression searches, per strategy, for a
# budget of about 1 s on one core.  Scanned candidates have about log2(Q_n)
# bits (915 at n = 120) and sampled ones n**SAMPLE_C more (864 at n = 27).
# Measured in-process on 2 vCPU: scan 0.33 s at n = 120, at most 0.82 s over
# even n <= 122, 0.99 s at 124 and 1.4 s at 160; sample over ten seeds,
# median 0.49 s and at most 1.2 s at n = 27, 1.6 s and 3.2 s at 30.
SEARCH_MAX_N = {"scan": 120, "sample": 27}


class ProgressionPrime(Record):
    """A verified prime p = 1 + k * Q_n."""

    n: int
    q_n: int
    k: int
    p: int
    trials_used: int

    def __post_init__(self):
        if self.p != 1 + self.k * self.q_n:
            raise ValueError("p must equal 1 + k * q_n")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def to_obj(self) -> dict:
        """The JSON fields of the prime, with big integers as decimal strings."""
        return {"n": self.n, "q_n": str(self.q_n), "k": str(self.k), "p": str(self.p),
                "trials_used": self.trials_used}


class DensityReport(Record):
    m: int
    x: int
    count: int
    predicted: float
    ratio: float


def find_prime_in_progression(
    n: int,
    strategy: str = "scan",
    rng: random.Random | None = None,
    caps: Caps | None = None,
) -> ProgressionPrime:
    """Find a prime p = 1 + k*Q_n; raises PrimeSearchExhausted (with the trial
    count) rather than ever returning an unverified candidate, and
    CapsExceeded for n above SEARCH_MAX_N[strategy] before any test."""
    if n < 1:
        raise ValueError("n must be positive")
    if strategy not in SEARCH_MAX_N:
        raise ValueError(f"unknown strategy {strategy!r}")
    if n > SEARCH_MAX_N[strategy]:
        raise CapsExceeded(
            f"n = {n} exceeds the {strategy} prime search limit {SEARCH_MAX_N[strategy]}"
        )
    caps = caps or Caps()
    q = primorial(n)
    if strategy == "scan":
        ks = range(1, caps.k_max + 1)
        exhausted = f"no prime 1 + k*{q} for k <= {caps.k_max} ({caps.k_max} trials)"
    elif rng is None:
        raise ValueError("the sampling strategy needs an rng")
    else:
        interval = 2 ** (n ** SAMPLE_C)
        max_trials = 9 * n ** SAMPLE_CPRIME
        ks = (rng.randint(1, interval) for _ in range(max_trials))
        exhausted = f"no prime 1 + k*{q} found in {max_trials} sampling trials"
    for trial, k in enumerate(ks, 1):  # a scan's trial count is k
        if is_prime(p := 1 + k * q):
            return ProgressionPrime(n, q, k, p, trials_used=trial)
    raise PrimeSearchExhausted(exhausted)


# -- logarithmic integral -------------------------------------------------------


def _adaptive_simpson(f, a, fa, b, fb, whole, m, fm, tol, depth) -> float:
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15 * tol:
        return left + right + delta / 15
    return _adaptive_simpson(
        f, a, fa, m, fm, left, lm, flm, tol / 2, depth - 1
    ) + _adaptive_simpson(f, m, fm, b, fb, right, rm, frm, tol / 2, depth - 1)


def logarithmic_integral(x) -> float:
    """Li(x) = integral of dt/log t from 2 to x, by adaptive Simpson
    quadrature to relative error well under 1e-6."""
    if x < 2:
        raise ValueError("Li is evaluated for x >= 2")
    x = float(x)
    if x == 2.0:
        return 0.0

    def f(t):
        return 1.0 / math.log(t)

    a, b = 2.0, x
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    tol = 1e-10 * (1.0 + abs(whole))
    return _adaptive_simpson(f, a, fa, b, fb, whole, m, fm, tol, 60)


# -- sieving ---------------------------------------------------------------------


def _count_progression_primes(m: int, x: int, segment_size: int = 1 << 20) -> int:
    """Primes p <= x with p = 1 (mod m), counted by a segmented sieve over j, p = 1 + j*m:
    a prime q <= isqrt(x) not dividing m divides 1 + j*m exactly when j = -m**-1 (mod q),
    and crosses those j off from the first with 1 + j*m >= q*q, so q itself stays
    counted.  Memory: isqrt(x) bytes plus one segment of at most segment_size."""
    root, j_max = math.isqrt(x), (x - 1) // m
    crossed = bytearray(root + 1)  # crossed[i]: i >= 2 is composite
    for i in range(2, math.isqrt(root) + 1):
        if not crossed[i]:
            crossed[i * i :: i] = b"\1" * len(range(i * i, root + 1, i))
    # (q, the residue of j that q crosses off, the first j it crosses off)
    sieving = [(q, -pow(m, -1, q) % q, (q * q + m - 2) // m)
               for q in range(2, root + 1) if not crossed[q] and m % q]
    count = 0
    for lo in range(1, j_max + 1, segment_size):
        seg = bytearray(min(segment_size, j_max + 1 - lo))
        for q, r, first in sieving:
            if first >= lo + len(seg):
                break
            start = max(lo, first) - lo
            start += (r - lo - start) % q
            seg[start::q] = b"\1" * len(range(start, len(seg), q))
        count += seg.count(0)
    return count


def prime_density_experiment(m: int, x: int, caps: Caps | None = None) -> DensityReport:
    """Exact count of primes p <= x with p = 1 (mod m), against Li(x)/phi(m)."""
    caps = caps or Caps()
    if m < 1:
        raise ValueError("modulus must be positive")
    if x < 3:
        raise ValueError("x must be at least 3 (Li(2) = 0 predicts no primes)")
    if x > caps.sieve_limit:
        raise CapsExceeded(f"x = {x} exceeds the sieve cap {caps.sieve_limit}")
    count = _count_progression_primes(m, x)
    predicted = logarithmic_integral(x) / euler_phi(m)
    return DensityReport(m=m, x=x, count=count, predicted=predicted, ratio=count / predicted)
