"""Arbitrary-precision integer and modular arithmetic.

Valuations, multiplicative orders, primality, factoring,
quadratic non-residues, primorials, and the unit-group decomposition modulo
powers of two.  Everything here is a pure function of its inputs; random
choices always come from an explicitly passed ``random.Random``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from .errors import FactorBudgetExceeded
from .record import Record

# Miller-Rabin with the first 13 primes as witnesses is a proven primality
# test below this bound (Sorenson & Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_RANDOM_ROUNDS = 40  # beyond the bound: error probability < 4**-40


def is_prime(n: int) -> bool:
    """Primality test: deterministic below _MR_DETERMINISTIC_BOUND."""
    if n < 0:
        raise ValueError("primality is defined for nonnegative integers")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        witnesses = _MR_WITNESSES
    else:
        rng = random.Random(n)  # deterministic per n, still pseudo-random bases
        witnesses = (rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Modulus(Record):
    """A prime-power modulus p**ell."""

    p: int
    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("exponent must be positive")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


def _valuation(n: int, p: int) -> int:
    """ord_p(n) for n != 0, without re-checking that p is prime: the lowest
    set bit for p = 2; otherwise divide by p, p**2, p**4, ... while they
    divide, then by the same powers from the largest down, so a valuation v
    costs O(log v) divisions instead of v."""
    n = abs(n)
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    powers = [p]  # powers[j] = p**(2**j)
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for j in range(len(powers) - 2, -1, -1):
        if n % powers[j] == 0:
            n //= powers[j]
            v += 1 << j
    return v


def _pollard_rho_brent(n: int, c: int, max_iters: int) -> tuple[int | None, int]:
    """Brent's cycle-finding variant; returns (factor or None, iterations used)."""
    y, r, q, g = 2, 1, 1, 1
    x = ys = y
    iters = 0
    m = 128
    while g == 1 and iters < max_iters:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        iters += r
        k = 0
        while k < r and g == 1:
            ys = y
            steps = min(m, r - k)
            for _ in range(steps):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            iters += steps
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    if 1 < g < n:
        return g, iters
    return None, iters


def factor(
    n: int,
    *,
    trial_bound: int = 1_000_000,
    rho_iterations: int = 1_000_000,
) -> dict[int, int]:
    """Factor n >= 2 into {prime: exponent}; raises FactorBudgetExceeded rather
    than ever returning an unverified factorization."""
    if n < 2:
        raise ValueError("factor requires n >= 2")
    out: dict[int, int] = {}

    def record(p, e=1):
        out[p] = out.get(p, 0) + e

    for p in (2, 3):
        while n % p == 0:
            record(p)
            n //= p
    d = 5
    while d <= trial_bound and d * d <= n:
        for cand in (d, d + 2):
            while n % cand == 0:
                record(cand)
                n //= cand
        d += 6
    if n == 1:
        return out
    if is_prime(n):
        record(n)
        return out

    budget = rho_iterations
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            record(m)
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        for c in range(1, 64):
            found, used = _pollard_rho_brent(m, c, budget)
            budget -= used
            if found is not None or budget <= 0:
                break
        if found is None:
            raise FactorBudgetExceeded(
                f"pollard-rho budget of {rho_iterations} iterations exhausted on {m}"
            )
        stack.extend((found, m // found))
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("totient requires n >= 1")
    if n == 1:
        return 1
    phi = 1
    for p, e in factor(n).items():
        phi *= p ** (e - 1) * (p - 1)
    return phi


def multiplicative_order(a: int, m: int) -> int:
    """Least t >= 1 with a**t = 1 (mod m), via the factored group order."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    t = euler_phi(m)
    for q in factor(t) if t > 1 else {}:
        while t % q == 0 and pow(a, t // q, m) == 1:
            t //= q
    return t


@functools.lru_cache(maxsize=None)
def first_primes(n: int) -> tuple[int, ...]:
    """The first n primes."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    cand = 2
    while len(out) < n:
        if is_prime(cand):
            out.append(cand)
        cand += 1
    return tuple(out)


def primorial(n: int) -> int:
    """Product of the first n primes (1 for n = 0)."""
    return math.prod(first_primes(n))


def find_qnr(p: int, rng: random.Random) -> int:
    """A quadratic non-residue modulo an odd prime p, by repeated random draws.

    Draws one candidate at a time until one passes the Euler criterion; half
    of 1, ..., p - 1 do, so the expected number of draws is 2.
    """
    if p == 2:
        raise ValueError("no quadratic non-residue is used modulo 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    e = (p - 1) // 2
    while True:
        a = rng.randrange(1, p)
        if pow(a, e, p) == p - 1:
            return a


def decompose_2adic_unit(alpha: int, ell: int) -> tuple[int, int]:
    """Write an odd alpha as (-1)**a * 5**b modulo 2**ell (ell >= 3).

    The representation is unique with a in {0, 1} and 0 <= b < 2**(ell-2).
    b is found one bit at a time: 5**(2**i) = 1 + 2**(i+2) modulo 2**(i+3),
    so once 5**b agrees with the target modulo 2**(i+2), adding 2**i to b or
    not makes it agree modulo 2**(i+3).
    """
    if ell < 3:
        raise ValueError("requires ell >= 3")
    if alpha % 2 == 0:
        raise ValueError("alpha must be odd")
    m = 1 << ell
    alpha %= m
    a = int(alpha % 4 == 3)
    target = m - alpha if a else alpha
    b, power, step = 0, 1, 5  # power = 5**b and step = 5**(2**i), modulo m
    for i in range(ell - 2):
        if (power - target) >> (i + 2) & 1:
            b, power = b + (1 << i), power * step % m
        step = step * step % m
    assert power == target
    return a, b


def is_generator(g: int, p: int, primes) -> bool:
    """Whether no g**((p - 1)/q) with q in primes is 1 modulo p: for primes
    holding every prime of p - 1, whether g generates F_p^*."""
    return all(pow(g, (p - 1) // q, p) != 1 for q in primes)


def find_generator(p: int, rng: random.Random | None = None) -> int:
    """A generator of the multiplicative group modulo a prime p.

    With an rng, tries random candidates first (each succeeds with
    probability phi(p-1)/(p-1)); always falls back to a deterministic scan.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    qs = list(factor(p - 1))
    draws = () if rng is None else (rng.randrange(2, p) for _ in range(64))
    return next(g for g in itertools.chain(draws, range(2, p)) if is_generator(g, p, qs))
