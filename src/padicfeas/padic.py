"""p-adic decision procedures.

The binomial decision algorithm, Hensel lifting, the brute-force residue
refinement that decides root existence over the p-adic rationals for any
polynomial of capped degree, and degenerate-root detection (a p-adic root of
gcd(f, f')).
"""

from __future__ import annotations

import math

from .bigmod import Modulus, _valuation, is_prime
from .config import Caps
from .errors import CapsExceeded
from .record import Record
from .sparsepoly import SparsePoly, _derivative, _horner, _primitive, _quotient, gcd_dense, to_dense

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

# The residue search's work bound, in coefficient steps of Horner's rule: at
# most this many, summed over its levels, per search.
SEARCH_BUDGET = 1 << 24


class Witness(Record):
    """A certified approximate root: f(p**valuation_shift * residue) = 0
    (mod p**ell) and the Newton condition holds, so a true root exists."""

    residue: int
    modulus: Modulus
    valuation_shift: int = 0


class PadicDecision(Record):
    feasible: bool
    rule: str
    witness: Witness | None = None

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown decision rule {self.rule!r}")


class HenselSeed(Record):
    """An approximate root x0 of f modulo p**ell with ord_p f'(x0) = vprime
    and 2*vprime < ell, sufficient for Newton iteration to converge."""

    x0: int
    ell: int
    vprime: int


# -- Hensel lifting -----------------------------------------------------------


def _check_seed(f: SparsePoly, seed: HenselSeed, p: int) -> int:
    if seed.ell < 1 or seed.vprime < 0:
        raise ValueError("seed precision ell must be >= 1 and derivative valuation vprime >= 0")
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


def _dense(f: SparsePoly, p: int, caps: Caps | None) -> list[int]:
    """f's coefficient list, [] for the zero polynomial, once p is prime and
    f's degree is within the oracle cap."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return to_dense(f, (caps or Caps()).degree)


def _squarefree_primitive(dense: list[int]) -> list[int]:
    """Primitive integer representative of f / gcd(f, f'), same root set as f.
    The gcd is the heuristic gcd, checked by exact division, or the
    subresultant gcd when that fails.  It is primitive, so by Gauss's lemma
    the quotient of the primitive part of f by it is an integer polynomial,
    itself primitive with a positive leading coefficient."""
    a = _primitive(dense)
    return _quotient(gcd_dense(a, _derivative(a)), a)


def _integral_root_witness(sf: list[int], p: int):
    """Search for a certified root in the p-adic integers of the squarefree
    primitive polynomial sf (a coefficient list).

    Runs a residue-refinement tree: each level lifts every candidate x mod
    p**(ell-1) to the p residues y = x (mod p**(ell-1)) with sf(y) = 0 (mod
    p**ell), from the one candidate 0 mod 1, and certifies y as soon as
    ord_p sf'(y) < ell/2, which sf'(y) mod p**ell decides.  Level 1 costs
    O(p * deg) evaluations and decides alone when sf has no root mod p
    (None) or a simple one (certified).  The tree ends by level 1 + 2*rho,
    rho = ord_p Res(sf, sf'), without computing rho.  As sf is squarefree,
    Res is a nonzero integer, and Res = A*sf + B*sf' with A, B in Z[x], so
    min(ord_p sf(x), ord_p sf'(x)) <= rho for every integer x.  A candidate
    at level ell > 2*rho has ord_p sf(x) >= ell > rho, hence ord_p sf'(x) <=
    rho < ell/2, and it certifies.  Returns (residue, ell) or None; raises
    CapsExceeded before a level that would take the search past
    SEARCH_BUDGET coefficient steps (candidates * p * len(sf) per level).
    """
    sfd = _derivative(sf)
    candidates, mod, ell, steps = [0], 1, 0, 0
    while candidates:
        steps += len(candidates) * p * len(sf)
        if steps > SEARCH_BUDGET:
            raise CapsExceeded(f"the residue search at p = {p} exceeds its budget of "
                               f"{SEARCH_BUDGET} steps at level {ell + 1}")
        prev, mod, ell = mod, mod * p, ell + 1
        candidates = [y for x in candidates for y in range(x, x + mod, prev)
                      if _horner(sf, y, mod) == 0]
        for x in candidates:
            if _certified(sfd, x, p, ell):
                return x, ell
    return None


def _certified(da: list[int], x: int, p: int, ell: int) -> bool:
    """The Newton condition at x modulo p**ell for a polynomial with
    derivative da: 2*ord_p da(x) < ell, which da(x) mod p**ell decides."""
    dv = _horner(da, x, p ** ell)
    return dv != 0 and 2 * _valuation(dv, p) < ell


def _decide_dense(a: list[int], p: int) -> PadicDecision:
    """bruteforce_decision on the coefficient list a, [] for the zero
    polynomial.  A witness of the direct search is certified on a itself, so
    it is null when a root certifies on the squarefree part but not on a.
    Only a's Newton test can fail there: x is certified on sf at ell, so
    sf(x) = 0 (mod p**ell), and a = c*g*sf in Z[x], c its content and g the
    gcd that _squarefree_primitive divides by, so a(x) = 0 (mod p**ell)
    already."""
    if len(a) == 1:
        return PadicDecision(False, RULE_EXHAUSTED)
    if not a or a[0] == 0:
        return PadicDecision(True, RULE_ZERO_ROOT)
    sf = _squarefree_primitive(a)
    if (direct := _integral_root_witness(sf, p)) is not None:
        x, ell = direct
        witness = Witness(x, Modulus(p, ell), 0) if _certified(_derivative(a), x, p, ell) else None
        return PadicDecision(True, RULE_HENSEL_CERTIFIED, witness)
    if _integral_root_witness(_primitive(sf[::-1]), p) is not None:
        return PadicDecision(True, RULE_HENSEL_CERTIFIED)
    return PadicDecision(False, RULE_EXHAUSTED)


def bruteforce_decision(f: SparsePoly, p: int, caps: Caps | None = None) -> PadicDecision:
    """Decide root existence in the p-adic rationals by exhaustive residue
    refinement; independent of decide_binomial.  Integral roots are searched
    directly, negative-valuation roots through the reversed polynomial.

    The squarefree part sf = f / gcd(f, f') is computed once per decision.
    Past the zero-root test f(0) != 0, so the roots of x**deg * f(1/x) are
    the reciprocals of f's, and its squarefree primitive part is sf's
    coefficient list read backwards.  Its gcd is a heuristic gcd checked by exact division, with
    the subresultant sequence as the fallback.  Each search first finds the
    roots of sf mod p by trying every residue, O(p * deg) work, and raises
    CapsExceeded past SEARCH_BUDGET steps.  The gcd's arithmetic grows with
    the coefficients, which no cap bounds.  With every root mod 7
    multiple, f = g(x) * g(x + 7) of degree 512 decides in 0.5 s when g has
    coefficients in [-9, 9], and in about 15 s when f has 4600-bit ones,
    nearly all of it in the heuristic gcd's integer gcd and evaluations."""
    return _decide_dense(_dense(f, p, caps), p)


# -- degenerate roots ----------------------------------------------------------


def has_degenerate_root_qp(f: SparsePoly, p: int, caps: Caps | None = None) -> bool:
    """Whether f is divisible by the square of a degree-1 polynomial over the
    p-adic rationals, i.e. whether gcd(f, f') has a p-adic root, decided by
    the same core as bruteforce_decision.  f has a p-adic root exactly when
    f.square() has a degenerate one."""
    a = _dense(f, p, caps)
    return not a or _decide_dense(gcd_dense(a, _derivative(a)), p).feasible
