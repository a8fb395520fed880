"""Shared oracles, reference routines and generators for the test suite.

The brute-force oracles are deliberately naive: trial division, truth tables,
dense Fraction arithmetic.  They must stay independent of the package's own
algorithms so that agreement between the two routes is evidence, not an echo.
The reference routines (CRT, roots of unity modulo p, solvability in a cyclic
group, literal polynomials, DIMACS output, assignment encoding, sparse size)
are exact helpers that only the tests use.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator

from padicfeas.bigmod import (
    _MR_DETERMINISTIC_BOUND,
    _MR_RANDOM_ROUNDS,
    _MR_WITNESSES,
    decompose_2adic_unit,
    find_generator,
    first_primes,
    is_prime,
    multiplicative_order,
    ord_p,
    primorial,
)
from padicfeas.errors import InexactDivision
from padicfeas.plaisted import BinomialProduct, Cnf3, Literal, satisfies
from padicfeas.sparsepoly import SparsePoly, exact_div


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def eager_is_prime(n: int) -> bool:
    """bigmod.is_prime as it was before it drew its Miller-Rabin bases lazily:
    above the deterministic bound it draws all seeded bases before the first
    test, so the lazy version must reach the same verdict on every n."""
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
        rng = random.Random(n)
        witnesses = tuple(rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
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


def sieve_primes(limit: int, segment_size: int = 1 << 20) -> Iterator[int]:
    """All primes <= limit, via a segmented sieve of Eratosthenes over every
    integer: the oracle for the package's sieve over a progression."""
    if limit < 2:
        return
    root = math.isqrt(limit)
    base = bytearray([1]) * (root + 1)
    base[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(root) + 1):
        if base[i]:
            base[i * i :: i] = bytearray(len(base[i * i :: i]))
    base_primes = [i for i in range(2, root + 1) if base[i]]
    yield from base_primes
    lo = root + 1
    while lo <= limit:
        hi = min(lo + segment_size - 1, limit)
        seg = bytearray([1]) * (hi - lo + 1)
        for p in base_primes:
            start = max(p * p, (lo + p - 1) // p * p)
            seg[start - lo :: p] = bytearray(len(seg[start - lo :: p]))
        for i, flag in enumerate(seg):
            if flag:
                yield lo + i
        lo = hi + 1


def naive_order(a: int, m: int) -> int:
    a %= m
    assert math.gcd(a, m) == 1
    x = a
    t = 1
    while x != 1:
        x = x * a % m
        t += 1
    return t


# A 256-bit prime p for which factor(p - 1) exhausts its default budget, so
# the order route cannot decide binomials over Q_p.
P256_HARD = int(
    "1061206852532668136443761674146031365505"
    "18703637353323082256951950028664619221"
)


def order_route_binomial(c1: int, a1: int, c2: int, a2: int, p: int) -> tuple[bool, str]:
    """(feasible, rule) for c1*x**a1 + c2*x**a2 over Q_p by the order route.

    Normalizes to x**d = alpha, then reads solvability modulo p**ell,
    ell = 1 + 2*ord_p(d), off the multiplicative order of alpha (odd p, or d
    odd) or off alpha = (-1)**a * 5**b (p = 2, d even).  It factors the group
    order, so it only suits small p and small ord_p(d).
    """
    if a1 < a2:
        c1, a1, c2, a2 = c2, a2, c1, a1
    if a1 == a2:
        return (c1 + c2 == 0 or a1 > 0), "zero-root"
    if a2 > 0:
        return True, "zero-root"
    d = a1 - a2
    num, den = -c2, c1
    vnum, vden = ord_p(num, p), ord_p(den, p)
    if (vnum - vden) % d != 0:
        return False, "valuation-mismatch"
    ell = 1 + 2 * ord_p(d, p)
    m = p ** ell
    alpha = (num // p ** vnum) * pow(den // p ** vden, -1, m) % m
    if p != 2 or ell == 1:
        group_order = p ** (ell - 1) * (p - 1)
        t = multiplicative_order(alpha, m)
        return solvable_in_cyclic(t, d, group_order), "cyclic-order"
    sign, b = decompose_2adic_unit(alpha, ell)
    half_group = 1 << (ell - 2)
    order_5b = half_group // math.gcd(b, half_group)
    return sign == 0 and solvable_in_cyclic(order_5b, d, half_group), "two-adic"


def truth_table_sat(cnf: Cnf3):
    """First satisfying assignment by exhaustive enumeration, or None."""
    for bits in itertools.product((0, 1), repeat=cnf.num_vars):
        if satisfies(cnf, bits):
            return bits
    return None


def mobius_clause_poly(clause, n: int) -> BinomialProduct:
    """plaisted.clause_poly by Moebius inversion over the subsets of the
    clause's distinct variables: with T the set of satisfying local patterns,
    e_S = sum_{delta subset of S} (-1)**|S - delta| * [delta in T]."""
    vars_ = sorted({idx for idx, _ in clause})
    for idx in vars_:
        if not 1 <= idx <= n:
            raise ValueError(f"variable index {idx} out of range for n={n}")
    j = len(vars_)
    pos = {v: i for i, v in enumerate(vars_)}
    sat_masks = set()
    for delta in range(1 << j):
        for idx, neg in clause:
            value = bool(delta >> pos[idx] & 1)
            if value != neg:
                sat_masks.add(delta)
                break
    q = primorial(n)
    primes = first_primes(n)
    factors: dict[int, int] = {}
    for s_mask in range(1 << j):
        e = 0
        sub = s_mask
        while True:
            inside = 1 if sub in sat_masks else 0
            e += inside if (bin(s_mask ^ sub).count("1") % 2 == 0) else -inside
            if sub == 0:
                break
            sub = (sub - 1) & s_mask
        if e:
            m = q
            for i, v in enumerate(vars_):
                if s_mask >> i & 1:
                    m //= primes[v - 1]
            factors[m] = e
    return BinomialProduct.from_dict(n, factors)


def sparse_expand(bp: BinomialProduct) -> SparsePoly:
    """plaisted.expand on sparse polynomials: multiply out the positive
    factors (increasing m), then divide exactly by each negative one."""
    poly = SparsePoly.one()
    negatives = []
    for m, e in bp.factors:
        binom = SparsePoly(((-1, 0), (1, m)))
        if e > 0:
            for _ in range(e):
                poly = poly * binom
        else:
            negatives.extend([binom] * (-e))
    for binom in negatives:
        poly = exact_div(poly, binom)
    return poly


def random_cnf(rng: random.Random, max_vars: int = 5, max_clauses: int = 8) -> Cnf3:
    n = rng.randint(2, max_vars)
    k = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(k):
        clause = []
        for _ in range(3):
            v = rng.randint(1, n)
            clause.append(-v if rng.random() < 0.5 else v)
        clauses.append(clause)
    return Cnf3.from_signed(n, clauses)


def random_sparse(rng: random.Random, max_terms=4, max_exp=10, max_coeff=9) -> SparsePoly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms.append((c, rng.randint(0, max_exp)))
    return SparsePoly(terms)


def random_nonzero_sparse(rng: random.Random, **kwargs) -> SparsePoly:
    while True:
        f = random_sparse(rng, **kwargs)
        if not f.is_zero:
            return f


# -- dense rational-arithmetic oracle ------------------------------------------


def dense(f: SparsePoly) -> list[Fraction]:
    if f.is_zero:
        return []
    out = [Fraction(0)] * (int(f.degree) + 1)
    for c, e in f.terms:
        out[e] = Fraction(c)
    return out


def dense_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def dense_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return dense_trim(out)


def dense_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and dense_trim(a):
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        top = a[-1] / b[-1]
        q[shift] = top
        for i, c in enumerate(b):
            a[shift + i] -= top * c
        dense_trim(a)
    return dense_trim(q), a


def dense_gcd_monic(a, b):
    a, b = list(a), list(b)
    while dense_trim(b):
        _, a = dense_divmod(a, b)
        a, b = b, a
    a = dense_trim(a)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def dense_to_sparse_primitive(a) -> SparsePoly:
    """Integer primitive representative with positive leading coefficient."""
    if not a:
        return SparsePoly.zero()
    lcm_den = 1
    for c in a:
        lcm_den = lcm_den * c.denominator // math.gcd(lcm_den, c.denominator)
    ints = [int(c * lcm_den) for c in a]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return SparsePoly((c, e) for e, c in enumerate(ints) if c)


def sparse_exact_div(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """f / g by schoolbook long division over the rationals on a dict of
    terms.  Raises InexactDivision unless the remainder is zero and every
    quotient coefficient is an integer."""
    cg, eg = g.terms[-1]
    rem = {e: Fraction(c) for c, e in f.terms}
    quot = {}
    while rem and max(rem) >= eg:
        top = max(rem)
        qc = rem[top] / cg
        quot[top - eg] = qc
        for c, e in g.terms:
            te = top - eg + e
            rem[te] = rem.get(te, 0) - qc * c
            if rem[te] == 0:
                del rem[te]
    if rem:
        raise InexactDivision("nonzero remainder")
    if any(c.denominator != 1 for c in quot.values()):
        raise InexactDivision("quotient is not an integer polynomial")
    return SparsePoly((int(c), e) for e, c in quot.items())


# -- reference routines --------------------------------------------------------


def crt(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences x = r_i (mod m_i) into (x, lcm); moduli must be coprime."""
    r, m = 0, 1
    for ri, mi in pairs:
        s = pow(m, -1, mi)  # raises ValueError when m and mi share a factor
        r = (r + (ri - r) * s % mi * m) % (m * mi)
        m *= mi
    return r, m


def solvable_in_cyclic(order_a: int, d: int, group_order: int) -> bool:
    """Whether x**d = a is solvable in a cyclic group of the given order,
    where a has order order_a."""
    if order_a < 1 or group_order < 1:
        raise ValueError("orders must be positive")
    if group_order % order_a != 0:
        raise ValueError("element order must divide the group order")
    return (group_order // math.gcd(d, group_order)) % order_a == 0


def roots_of_unity_mod_p(
    p: int, m: int, rng: random.Random | None = None
) -> list[int]:
    """All M residues r with r**M = 1 (mod p); requires M | p - 1.

    Generated as consecutive powers of g**((p-1)/M) for a generator g."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("M must be positive")
    if (p - 1) % m != 0:
        raise ValueError(f"{m} does not divide {p} - 1")
    g = find_generator(p, rng)
    omega = pow(g, (p - 1) // m, p)
    out = [1]
    cur = 1
    for _ in range(m - 1):
        cur = cur * omega % p
        out.append(cur)
    return out


def literal_poly(lit: Literal, n: int) -> BinomialProduct:
    """X_i maps to x**(Q/p_i) - 1; a negated literal to the complementary
    divisor (x**Q - 1) / (x**(Q/p_i) - 1)."""
    idx, neg = lit
    if not 1 <= idx <= n:
        raise ValueError(f"variable index {idx} out of range for n={n}")
    q = primorial(n)
    m = q // first_primes(n)[idx - 1]
    if neg:
        return BinomialProduct.from_dict(n, {q: 1, m: -1})
    return BinomialProduct.from_dict(n, {m: 1})


def format_dimacs(cnf: Cnf3) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.to_signed():
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def assignment_to_root(bits, n: int) -> int:
    """The exponent t modulo Q_n encoding an assignment: p_i | t exactly for
    the variables set to 1 (false variables get residue 1, fixed for
    determinism)."""
    if len(bits) != n:
        raise ValueError("assignment length does not match n")
    pairs = []
    for bit, p in zip(bits, first_primes(n)):
        if bit not in (0, 1):
            raise ValueError("assignment entries must be 0 or 1")
        pairs.append((0 if bit else 1, p))
    return crt(pairs)[0]


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def size(f: SparsePoly) -> int:
    """Sparse bit-size: per term, 1 + ceil(log2(2+|c|)) + ceil(log2(2+e))."""
    return sum(1 + _ceil_log2(2 + abs(c)) + _ceil_log2(2 + e) for c, e in f.terms)
