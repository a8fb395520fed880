"""Shared oracles, reference routines and generators for the test suite.

The brute-force oracles are deliberately naive: trial division, truth tables,
dense Fraction arithmetic, counting roots modulo a prime power.  They must
stay independent of the package's own algorithms so that agreement between
the two routes is evidence, not an echo.
The reference routines (CRT, roots of unity modulo p, solvability in a cyclic
group, literal polynomials, DIMACS output, assignment encoding, sparse size,
the resultant-first integral root search, the subresultant gcd, the DFT
route to a polynomial's value table) are exact helpers that only the tests
use.  report_digest is the one digest of the CLI's output that the tests pin.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mod, mul, neg
from struct import Struct
from typing import Iterator

from padicfeas.bigmod import (
    _MR_DETERMINISTIC_BOUND,
    _MR_RANDOM_ROUNDS,
    _MR_WITNESSES,
    _valuation,
    decompose_2adic_unit,
    find_generator,
    first_primes,
    is_prime,
    multiplicative_order,
    primorial,
)
from padicfeas.errors import InexactDivision
from padicfeas.plaisted import BinomialProduct, Cnf3, Literal, satisfies
from padicfeas.reduce import _Tables
from padicfeas.sparsepoly import (
    SparsePoly,
    _horner,
    _pack,
    _primitive,
    _subresultant_prs,
    exact_div,
    gcd_dense,
    resultant_dense,
    to_dense,
)


# Config and caps keys that earlier versions wrote into a report's config.
REMOVED_CONFIG = {"threads": 1, "sample_c": 2, "sample_cprime": 2}
REMOVED_CAPS = {"gcd_degree": 100_000, "rho_iterations": 1_000_000,
                "trial_division_bound": 1_000_000}
# The transcript formats that earlier versions wrote: v2 also recorded g1 and
# g2, and v1 h as well.  verify_transcript reads neither.
TRANSCRIPT_FORMAT_V2 = "padicfeas-transcript-v2"
TRANSCRIPT_FORMAT_V1 = "padicfeas-transcript-v1"


def report_digest(text: str) -> str:
    """The sha256 of a command's output, as the digest tables pin it.  A JSON
    report must be in the compact layout that reports are written in, and
    is hashed in the indented layout it was written in when those tables
    were made, json.dumps(obj, sort_keys=True, indent=2) plus a newline, so
    an unedited table pins the content of a report byte for byte.  Other
    text (help, usage, `error:` lines and empty output) is hashed as it is."""
    if text.startswith("{"):
        obj = json.loads(text)
        assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


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


def naive_valuation(n: int, p: int) -> int:
    """The largest v with p**v | n, for n != 0, one division at a time."""
    n, v = abs(n), 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


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
    vnum, vden = naive_valuation(num, p), naive_valuation(den, p)
    if (vnum - vden) % d != 0:
        return False, "valuation-mismatch"
    ell = 1 + 2 * naive_valuation(d, p)
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


def from_dense(coeffs: list[int]) -> SparsePoly:
    return SparsePoly((c, e) for e, c in enumerate(coeffs) if c != 0)


def min_exponent(f: SparsePoly):
    """The least exponent of f, or None for the zero polynomial."""
    return f.terms[0][1] if f.terms else None


def _eval_dense(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eager_integral_root_witness(sf: list[int], p: int):
    """padic._integral_root_witness as it was before the depth bound became
    lazy and certification moved modulo p**ell: it computes
    rho = ord_p Res(sf, sf') before looking at a residue, refines up to depth
    1 + 2*rho, and certifies with the exact integer sf'(x).  The lazy search
    must return the same (residue, ell) or None on every squarefree sf."""
    if len(sf) <= 1:
        return None
    sfd = [c * e for e, c in enumerate(sf)][1:]
    res = resultant_dense(from_dense(sf), from_dense(sfd))
    assert res != 0
    ell_max = 1 + 2 * _valuation(res, p)
    candidates = [x for x in range(p) if _horner(sf, x, p) == 0]
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
            if _horner(sf, y, mod_next) == 0
        ]
        if not candidates:
            return None
    if candidates:
        raise AssertionError("refinement passed the resultant depth uncertified")
    return None


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
    poly = SparsePoly([(1, 0)])
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


def fraction_resultant(f: SparsePoly, g: SparsePoly) -> Fraction:
    """Res(f, g) by the Euclidean remainder sequence over the rationals:
    sparsepoly.resultant_dense as it was before the subresultant sequence.
    Each step a, b -> b, a mod b multiplies by (-1)**(deg a * deg b) *
    lc(b)**(deg a - deg(a mod b))."""
    a, b = dense(f), dense(g)
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * b[0] ** da
        _, r = dense_divmod(a, b)
        if not r:
            return Fraction(0)
        res *= (-1) ** (da * db) * b[-1] ** (da - (len(r) - 1))
        a, b = b, r


def squarefree_oracle(f: SparsePoly) -> SparsePoly:
    """f / gcd(f, f') by Euclid and long division over the rationals, as the
    primitive integer polynomial with positive leading coefficient."""
    a = dense(f)
    q, r = dense_divmod(a, dense_gcd_monic(a, dense(f.derivative())))
    assert not r
    return dense_to_sparse_primitive(q)


def flat_root_oracle(f: SparsePoly, p: int, budget: int) -> bool | None:
    """Whether f has a root in the p-adic rationals, by a flat search over
    residues: no refinement tree, nothing from padic and not gcd_dense.
    None when neither search finds a root and one of them would run over
    more than budget residues.

    sf = squarefree_oracle(f) has f's roots, simply.  Unless 0 is one of
    them, sf read backwards has their inverses, and its roots in Z_p are the
    inverses of sf's roots of valuation <= 0.  For g each of the two, as a
    primitive integer list, let rho = ord_p Res(g, g').
    A root of g in Z_p gives a residue x mod p**(2*rho + 1) with g(x) = 0
    there.  Conversely, Res = A*g + B*g' with A, B in Z[x], so
    min(ord_p g(x), ord_p g'(x)) <= rho: g(x) = 0 mod p**(2*rho + 1) leaves
    ord_p g'(x) <= rho, and Hensel's lemma lifts x to a root.  So f has a
    root exactly when one of the two counts of such residues is positive,
    and each search stops at its first such residue."""
    if not f.degree:
        return f.is_zero  # the zero polynomial vanishes everywhere, a constant nowhere
    sf = to_dense(squarefree_oracle(f), f.degree)
    over_budget = False
    for g in (sf, sf[::-1]) if sf[0] else (sf,):
        g_poly = from_dense(g)
        m = p ** (2 * naive_valuation(int(fraction_resultant(g_poly, g_poly.derivative())), p) + 1)
        if m > budget:
            over_budget = True
        elif any(_eval_dense(g, x) % m == 0 for x in range(m)):
            return True
    return None if over_budget else False


def subresultant_gcd(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """The gcd over the rationals by the integer subresultant sequence alone,
    as sparsepoly.gcd_dense computed it before the heuristic gcd: primitive,
    with positive leading coefficient."""
    a = _primitive(to_dense(f, f.degree or 0))
    b = _primitive(to_dense(g, g.degree or 0))
    if len(a) < len(b):
        a, b = b, a
    a, b, _, _ = _subresultant_prs(a, b)
    return from_dense(_primitive(b or a))


def sparse_gcd(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """sparsepoly.gcd_dense on the coefficient lists of f and g."""
    return from_dense(gcd_dense(to_dense(f, f.degree), to_dense(g, g.degree)))


def taylor_shift(coeffs: list[int], t: int) -> list[int]:
    """The coefficient list of g(x + t) for g given by coeffs, by Horner's
    rule on polynomials."""
    out = []
    for c in reversed(coeffs):
        out = [t * a + b for a, b in zip(out + [0], [0] + out)]
        out[0] += c
    return out


def dense_to_sparse_primitive(a) -> SparsePoly:
    """Integer primitive representative with positive leading coefficient."""
    if not a:
        return SparsePoly()
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


def root_to_assignment(r: int, p: int, n: int) -> tuple[int, ...]:
    """Decode a Q_n-th root of unity r modulo p back to an assignment: bit i
    is 1 exactly when r**(Q_n/p_i) = 1 (mod p)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = primorial(n)
    if (p - 1) % q != 0:
        raise ValueError(f"the primorial {q} does not divide {p} - 1")
    if pow(r, q, p) != 1:
        raise ValueError(f"{r} is not a {q}-th root of unity modulo {p}")
    return tuple(
        1 if pow(r, q // pi, p) == 1 else 0 for pi in first_primes(n)
    )


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def size(f: SparsePoly) -> int:
    """Sparse bit-size: per term, 1 + ceil(log2(2+|c|)) + ceil(log2(2+e))."""
    return sum(1 + _ceil_log2(2 + abs(c)) + _ceil_log2(2 + e) for c, e in f.terms)


# -- the DFT route to value tables -------------------------------------------------


def _layout(polys, q_n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Each polynomial as (P, c), with P = q_n/gcd(q_n, exponents) its own
    period (for a clause polynomial, the product of its clause's primes;
    Plaisted 1984) and c_j the sum of its coefficients at exponents
    e = j*q_n/P (mod q_n), so that its value at omega**t is
    sum_j c_j * w**(j*t), w = omega**(q_n/P): it depends only on t mod P."""
    layout = []
    for f in polys:
        period = q_n // math.gcd(q_n, *(e for _, e in f.terms))
        step, coeffs = q_n // period, [0] * period
        for c, e in f.terms:
            coeffs[e // step % period] += c
        layout.append((period, tuple(coeffs)))
    return layout


def _chirp(period: int, w: int, p: int):
    """What the DFTs at w, a primitive period-th root of unity modulo p, share:
    the width in bytes of a slot (a sum of period products of residues), the
    inverse chirp w**-C(j, 2) for j < period, the packed reversed chirp
    w**C(s, 2) for s < 2*period - 1 and a Struct that cuts period slots."""
    powers = list(accumulate(repeat(w, period - 1), lambda x, _: x * w % p, initial=1))
    tri = list(map(mod, accumulate(range(2 * period - 2), initial=0), repeat(period)))
    width = ((period * (p - 1) ** 2).bit_length() + 7) // 8
    inverse = list(map(powers.__getitem__, map(neg, tri[:period])))
    packed = _pack(map(powers.__getitem__, reversed(tri)), width)
    return width, inverse, packed, Struct(f"{width}s" * period)


def _dft(coeffs, chirp, p: int) -> list[int]:
    """[sum_j coeffs[j] * w**(j*k) mod p for k < period] by one big-integer
    product (Bluestein 1970).  As j*k = C(j+k, 2) - C(j, 2) - C(k, 2), value k
    is w**-C(k, 2) times sum_j a_j * w**C(j+k, 2), a_j = coeffs[j] * w**-C(j, 2):
    slot 2*period - 2 - k of the packed a_j times the packed reversed chirp,
    that is slot k, read big-endian, of the window from slot period - 1 on."""
    width, inverse, packed, cut = chirp
    period = len(inverse)
    a = _pack(map(mod, map(mul, coeffs, inverse), repeat(p)), width)
    product = (a * packed).to_bytes((3 * period - 2) * width, "big")
    slots = map(int.from_bytes, cut.unpack_from(product, (period - 1) * width), repeat("big"))
    return list(map(mod, map(mul, slots, inverse), repeat(p)))


class DftTables(_Tables):
    """reduce._Tables over any polynomials laid out by _layout: each table is
    the _dft of the laid-out coefficients, with one chirp per period.  It is
    the reference that the closed-form tables of _Tables.make are checked
    against, and it lets the scan tests scan arbitrary polynomials."""

    def __init__(self, layout, omega0: int, p: int, n: int):
        super().__init__(layout, omega0, p, n)
        self.chirps: dict[int, tuple] = {}  # P: the chirp of period P

    def make(self, period: int, coeffs) -> int:
        if period not in self.chirps:
            self.chirps[period] = _chirp(period, pow(self.omega0, self.q_n // period, self.p),
                                         self.p)
        return _pack(_dft(coeffs, self.chirps[period], self.p), self.width)
