"""p-adic decision procedures.

The binomial decision algorithm, Hensel lifting, the brute-force residue
refinement that decides root existence over the p-adic rationals for any
polynomial of capped degree, and degenerate-root detection (a p-adic root of
gcd(f, f')).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bigmod import Modulus, _valuation, is_prime
from .config import Caps
from .errors import CapsExceeded
from .sparsepoly import (
    SparsePoly,
    _primitive,
    exact_div,
    from_dense,
    gcd_dense,
    resultant_dense,
    to_dense,
)

# Branches that can decide feasibility; every decision names the one that fired.
RULE_ZERO_ROOT = "zero-root"
RULE_VALUATION_MISMATCH = "valuation-mismatch"
RULE_CYCLIC_ORDER = "cyclic-order"
RULE_TWO_ADIC = "two-adic"
RULE_HENSEL_CERTIFIED = "hensel-certified"
RULE_EXHAUSTED = "exhausted"

RULES = (
    RULE_ZERO_ROOT,
    RULE_VALUATION_MISMATCH,
    RULE_CYCLIC_ORDER,
    RULE_TWO_ADIC,
    RULE_HENSEL_CERTIFIED,
    RULE_EXHAUSTED,
)


@dataclass(frozen=True)
class Witness:
    """A certified approximate root: f(p**valuation_shift * residue) = 0
    (mod p**ell) and the Newton condition holds, so a true root exists."""

    residue: int
    modulus: Modulus
    valuation_shift: int = 0


@dataclass(frozen=True)
class PadicDecision:
    feasible: bool
    rule: str
    witness: Witness | None = None

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown decision rule {self.rule!r}")


@dataclass(frozen=True)
class HenselSeed:
    """An approximate root x0 of f modulo p**ell with ord_p f'(x0) = vprime
    and 2*vprime < ell, sufficient for Newton iteration to converge."""

    x0: int
    ell: int
    vprime: int


# -- Hensel lifting -----------------------------------------------------------


def _check_seed(f: SparsePoly, seed: HenselSeed, p: int) -> int:
    if seed.ell < 1 or seed.vprime < 0:
        raise ValueError("seed precision and derivative valuation must be nonnegative")
    if 2 * seed.vprime >= seed.ell:
        raise ValueError("seed violates the Newton condition 2*vprime < ell")
    x0 = seed.x0 % p ** seed.ell
    if f.eval_mod(x0, p ** seed.ell) != 0:
        raise ValueError("seed is not a root to the claimed precision")
    v = seed.vprime
    fp = f.derivative().eval_mod(x0, p ** (v + 1))
    if fp % p ** v != 0 or fp == 0:
        raise ValueError("seed derivative valuation differs from vprime")
    return x0


def hensel_lift_trace(
    f: SparsePoly, seed: HenselSeed, p: int, target_ell: int
) -> tuple[int, list[tuple[int, int]]]:
    """Newton-lift a certified approximate root to precision p**target_ell.

    Returns (residue, steps) where steps lists the (precision, residue) after
    each iteration; precision at least doubles minus 2*vprime per step, and
    the output agrees with the seed modulo p**(ell - vprime).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if target_ell < 1:
        raise ValueError("target precision must be positive")
    x = _check_seed(f, seed, p)
    v = seed.vprime
    ell = seed.ell
    fprime = f.derivative()
    steps = [(ell, x % p ** ell)]
    while ell < target_ell:
        ell_next = min(target_ell, 2 * ell - 2 * v)
        big = p ** (ell_next + v)
        fx = f.eval_mod(x, big)
        u = fprime.eval_mod(x, p ** ell_next) // p ** v
        delta = (fx // p ** v) * pow(u, -1, p ** ell_next)
        x = (x - delta) % p ** ell_next
        ell = ell_next
        steps.append((ell, x))
    return x % p ** target_ell, steps


# -- binomial decision --------------------------------------------------------


def decide_binomial(c1: int, a1: int, c2: int, a2: int, p: int) -> PadicDecision:
    """Decide whether c1*x**a1 + c2*x**a2 has a root in the p-adic rationals.

    After normalizing to x**d = alpha with alpha a p-adic unit, one modular
    power decides; the order of alpha is never computed.  With v = ord_p(d),
    x**d = alpha is solvable for odd p (and for p = 2 with d odd) exactly
    when alpha**((p-1)/gcd(d, p-1)) = 1 (mod p**(v+1)), and for p = 2 with
    v >= 1 exactly when alpha = 1 (mod 2**(v+2)).  Both are the paper's test
    modulo p**ell, ell = 1 + 2v: the first is alpha**(N/gcd(d, N)) = 1 in the
    cyclic group (Z/p**ell Z)* of order N = p**(ell-1)*(p-1).
    """
    if c1 == 0 or c2 == 0:
        raise ValueError("coefficients must be nonzero")
    if a1 < 0 or a2 < 0:
        raise ValueError("exponents must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a1 < a2:
        c1, a1, c2, a2 = c2, a2, c1, a1
    if a1 == a2:
        c = c1 + c2
        if c == 0:
            return PadicDecision(True, RULE_ZERO_ROOT)  # the zero polynomial
        return PadicDecision(a1 > 0, RULE_ZERO_ROOT)
    if a2 > 0:
        return PadicDecision(True, RULE_ZERO_ROOT)  # x divides, so 0 is a root

    # x**d = alpha with alpha = -c2/c1, nonzero.
    d = a1 - a2
    num, den = -c2, c1
    vnum, vden = _valuation(num, p), _valuation(den, p)
    if (vnum - vden) % d != 0:
        return PadicDecision(False, RULE_VALUATION_MISMATCH)

    v = _valuation(d, p)
    unum = num // p ** vnum
    uden = den // p ** vden
    if p == 2 and v > 0:
        # The units of Z_2 are {+-1} x (1 + 4 Z_2), so their d-th powers are
        # exactly 1 + 2**(v+2) Z_2.
        m = 1 << (v + 2)
        return PadicDecision(unum * pow(uden, -1, m) % m == 1, RULE_TWO_ADIC)

    # The units of Z_p are mu_(p-1) x (1 + p Z_p), and 1 + p Z_p is isomorphic
    # to Z_p for odd p, so the d-th powers are mu_(p-1)**gcd(d, p-1) x
    # (1 + p**(v+1) Z_p); for p = 2 with d odd every unit is a d-th power.
    # alpha**(N/gcd(d, N)) modulo p**ell tests the same with an exponent and a
    # modulus about p**v times larger: seconds once v is in the thousands.
    m = p ** (v + 1)
    alpha = unum * pow(uden, -1, m) % m
    feasible = pow(alpha, (p - 1) // math.gcd(d, p - 1), m) == 1
    return PadicDecision(feasible, RULE_CYCLIC_ORDER)


# -- brute-force feasibility oracle --------------------------------------------


def _squarefree_primitive(dense: list[int]) -> list[int]:
    """Primitive integer representative of f / gcd(f, f'), same root set as f.
    The gcd is primitive, so by Gauss's lemma the quotient is an integer
    polynomial and the division is exact in the integers."""
    f = from_dense(dense)
    g = gcd_dense(f, f.derivative(), degree_cap=len(dense))
    return _primitive(to_dense(exact_div(f, g), len(dense)))


def _eval_dense_mod(coeffs: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _eval_dense(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _integral_root_witness(g: SparsePoly, p: int, caps: Caps):
    """Search for a certified root of g in the p-adic integers.

    Runs a residue-refinement tree on the squarefree part sf of g: candidates
    x with sf(x) = 0 (mod p**ell) are certified as soon as
    ord_p sf'(x) < ell/2, and the tree depth is capped at
    1 + 2*ord_p Res(sf, sf'), beyond which every surviving candidate
    necessarily certifies.  Returns (residue, ell) or None.
    """
    dense = to_dense(g, caps.degree)
    sf = _squarefree_primitive(dense)
    if len(sf) <= 1:
        return None
    sfd = [c * e for e, c in enumerate(sf)][1:]
    res = resultant_dense(from_dense(sf), from_dense(sfd), caps.degree)
    assert res != 0 and res.denominator == 1
    rho = _valuation(int(res), p)
    ell_max = 1 + 2 * rho
    candidates = [x for x in range(p) if _eval_dense_mod(sf, x, p) == 0]
    for ell in range(1, ell_max + 1):
        for x in candidates:
            dv = _eval_dense(sfd, x)
            if dv != 0 and 2 * _valuation(dv, p) < ell:
                return x, ell
        if ell == ell_max:
            break
        mod_next = p ** (ell + 1)
        step = p ** ell
        candidates = [
            y
            for x in candidates
            for y in (x + t * step for t in range(p))
            if _eval_dense_mod(sf, y, mod_next) == 0
        ]
        if not candidates:
            return None
    if candidates:
        raise AssertionError("refinement passed the resultant depth uncertified")
    return None


def bruteforce_decision(f: SparsePoly, p: int, caps: Caps | None = None) -> PadicDecision:
    """Decide root existence in the p-adic rationals by exhaustive residue
    refinement; independent of decide_binomial.  Integral roots are searched
    directly, negative-valuation roots through the reversed polynomial."""
    caps = caps or Caps()
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.is_zero:
        return PadicDecision(True, RULE_ZERO_ROOT)
    if f.degree > caps.degree:
        raise CapsExceeded(f"degree {f.degree} exceeds the oracle cap {caps.degree}")
    if f.degree == 0:
        return PadicDecision(False, RULE_EXHAUSTED)
    if f.min_exponent > 0:
        return PadicDecision(True, RULE_ZERO_ROOT)

    direct = _integral_root_witness(f, p, caps)
    if direct is not None:
        x, ell = direct
        witness = None
        fx = f.eval_mod(x, p ** ell)
        dv = f.derivative().evaluate(x)
        if fx == 0 and dv != 0 and 2 * _valuation(dv, p) < ell:
            witness = Witness(x, Modulus(p, ell), 0)
        return PadicDecision(True, RULE_HENSEL_CERTIFIED, witness)
    if _integral_root_witness(f.reverse(), p, caps) is not None:
        return PadicDecision(True, RULE_HENSEL_CERTIFIED)
    return PadicDecision(False, RULE_EXHAUSTED)


# -- degenerate roots ----------------------------------------------------------


def has_degenerate_root_qp(f: SparsePoly, p: int, caps: Caps | None = None) -> bool:
    """Whether f is divisible by the square of a degree-1 polynomial over the
    p-adic rationals, i.e. whether gcd(f, f') has a p-adic root.  f has a
    p-adic root exactly when f.square() has a degenerate one."""
    caps = caps or Caps()
    if f.is_zero:
        return True
    if f.degree > caps.degree:
        raise CapsExceeded(f"degree {f.degree} exceeds the oracle cap {caps.degree}")
    g = gcd_dense(f, f.derivative(), degree_cap=caps.degree)
    return bruteforce_decision(g, p, caps).feasible
