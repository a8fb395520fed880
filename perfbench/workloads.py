"""Seeded inputs and answer oracles for the benchmark workloads.

A workload is a list of rounds.  Each round is a fixed mix of operations
(one `padicfeas` CLI call each) whose inputs are drawn from
``random.Random(f"{seed}:{workload}:{round}")``, so a seed fixes every input
and every round of a run keeps the same mix of input sizes.

Every oracle here is the benchmark's own code: truth tables, a Miller-Rabin
test, the one-modular-power rule for binomials, and direct polynomial
evaluation.  None of them calls the package's verdict routes, so agreement is
evidence and not an echo.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# An oracle returns None when the answer checks, or a one-line reason.
Check = Callable[[int, dict, dict], "str | None"]


@dataclass
class Op:
    """One CLI call: its argv, the metric family it feeds, the input
    properties that drive its cost, and the oracle that checks its answer."""

    kind: str
    argv: list[str]
    props: dict
    check: Check
    out_file: str | None = None  # a transcript the call writes
    probe: bool = False  # a known-limit probe: reported, not one of the workload's ops


# -- independent number theory ---------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 20 primes as bases (proven below 3.3e24,
    error below 4**-20 beyond)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not probable_prime(n):
        n += 1
    return n


def valuation(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def binomial_feasible(c1: int, a1: int, c2: int, a2: int, p: int) -> bool:
    """Whether c1*x^a1 + c2*x^a2 has a root in Q_p, by one modular power.

    x^d = u in Z_p^* is solvable exactly when u^(N/gcd(d, N)) = 1 in the
    cyclic group (Z/p^l)^* of order N, l = 1 + 2*ord_p(d), for odd p or odd
    d; for p = 2 and v = ord_2(d) >= 1 exactly when u = 1 (mod 2^(v+2)).
    """
    if a1 == a2:
        return c1 + c2 == 0 or a1 > 0
    if min(a1, a2) > 0:
        return True
    if a1 < a2:
        c1, a1, c2, a2 = c2, a2, c1, a1
    d = a1 - a2
    num, den = -c2, c1
    v = valuation(num, p) - valuation(den, p)
    if v % d:
        return False
    e = valuation(d, p)
    mod = p ** (1 + 2 * e)
    u = (num // p ** valuation(num, p)) * pow(den // p ** valuation(den, p), -1, mod) % mod
    if p == 2 and e >= 1:
        return u % (1 << (e + 2)) == 1
    order = p ** (2 * e) * (p - 1)
    return pow(u, order // math.gcd(d, order), mod) == 1


def first_primes(n: int) -> list[int]:
    return [q for q in range(2, 64) if probable_prime(q)][:n]


# -- formulas and polynomials ------------------------------------------------------


def random_formula(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """k clauses of three distinct variables with random signs."""
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        for _ in range(k)
    ]


def satisfies(clauses, bits) -> bool:
    return all(any((lit > 0) == bool(bits[abs(lit) - 1]) for lit in c) for c in clauses)


def truth_table_sat(n: int, clauses) -> bool:
    return any(satisfies(clauses, bits) for bits in itertools.product((0, 1), repeat=n))


def dimacs(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def poly_json(coeffs: list[int]) -> str:
    """Dense coefficients [c0, c1, ...] in the package's polynomial file format."""
    return json.dumps({"terms": [[str(c), str(e)] for e, c in enumerate(coeffs) if c]})


def random_dense(rng: random.Random, degree: int) -> list[int]:
    """Degree-`degree` polynomial with coefficients in [-9, 9] and nonzero
    constant and leading terms (so x = 0 is never a root)."""
    coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
    coeffs[0] = coeffs[0] or rng.choice((-1, 1))
    coeffs[-1] = coeffs[-1] or rng.choice((-1, 1))
    return coeffs


def dense_square(a: list[int]) -> list[int]:
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return out


def eval_poly(coeffs: list[int], x: int, mod: int | None = None) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if mod:
            acc %= mod
    return acc


def newton_certified(coeffs: list[int], witness: dict, p: int) -> bool:
    """f(x) = 0 (mod p^l) and 2*ord_p f'(x) < l: a root lifts to Z_p."""
    x, ell = int(witness["residue"]), int(witness["ell"])
    if int(witness["p"]) != p or int(witness["valuation_shift"]) != 0:
        return False
    deriv = [e * c for e, c in enumerate(coeffs)][1:]
    dv = eval_poly(deriv, x)
    return eval_poly(coeffs, x, p ** ell) == 0 and dv != 0 and 2 * valuation(dv, p) < ell


def coeff_bits(coeffs) -> int:
    return max(abs(c).bit_length() for c in coeffs)


# -- oracles -----------------------------------------------------------------------


def _check_reduce(clauses, sat: bool) -> Check:
    def check(code, report, state):
        if code != (0 if sat else 1):
            return f"exit {code}, truth table says {'sat' if sat else 'unsat'}"
        witness = report.get("witness")
        if sat and (witness is None or not satisfies(clauses, witness)):
            return f"witness {witness} does not satisfy the formula"
        return None

    return check


def _check_verify(code, report, state):
    if code != 0 or report.get("ok") is not True:
        return f"verify-transcript exit {code} on a transcript the benchmark wrote"
    return None


# -- workload: reduce-small --------------------------------------------------------

# (n, k) per formula in one round: clause counts on both sides of the
# satisfiability threshold.  Calls at n = 3 and 4 are cheap, so their fixed
# costs are measured on many inputs.  The one n = 5 formula, at the threshold
# (k = 21), is where the expansion of h and the root scan take most of the
# time; it takes about two thirds of a round.
REDUCE_GRID = ((3, 4), (3, 8), (3, 12), (3, 16), (4, 8), (4, 14), (4, 20), (4, 26), (5, 21))


def reduce_round(rng: random.Random, workdir: str, tag: str) -> list[Op]:
    ops = []
    for i, (n, k) in enumerate(REDUCE_GRID):
        clauses = random_formula(rng, n, k)
        sat = truth_table_sat(n, clauses)
        cnf = os.path.join(workdir, f"{tag}-{i}.cnf")
        out = os.path.join(workdir, f"{tag}-{i}.transcript.json")
        with open(cnf, "w") as fh:
            fh.write(dimacs(n, clauses))
        q = math.prod(first_primes(n))
        props = {"n": n, "k": k, "Q": q, "sat": sat, "slow": n >= 5}
        check = _check_reduce(clauses, sat)
        ops.append(Op("reduce", ["reduce", cnf, "--out", out], props, check, out_file=out))
        ops.append(Op("verify", ["verify-transcript", out], props, _check_verify))
        ops.append(Op("reduce_det", ["reduce", cnf, "--mode", "deterministic"], props, check))
    return ops


# -- workload: decide --------------------------------------------------------------

DECIDE_PRIMES = (2, 3, 7)
DECIDE_DEGREES = (8, 16, 24, 32, 40, 48)   # every prime, every round
DECIDE_HEAVY_DEGREE = 64                   # one per round, the prime rotates
DEGENERATE_MAX_DEGREE = 32                 # degenerate runs on f^2, deg f^2 <= 64
H_CLAUSES = (3, 4, 5, 6)  # clause counts of the n = 3 formulas, one per round in turn
H_PRIME = 31              # 1 + Q at n = 3 (Q = 30), so Z_31 holds the 30th roots of unity


def _check_decide(coeffs, p: int, key: str) -> Check:
    def check(code, report, state):
        if code not in (0, 1):
            return f"exit {code}"
        state[key] = code == 0
        witness = report.get("witness")
        if witness is not None and not newton_certified(coeffs, witness, p):
            return f"witness {witness} fails the Newton condition"
        return None

    return check


def _check_degenerate(key: str) -> Check:
    def check(code, report, state):
        if code not in (0, 1):
            return f"exit {code}"
        if key in state and state[key] != (code == 0):
            return f"degenerate on f^2 says {code == 0}, decide on f says {state[key]}"
        return None

    return check


def _check_h(coeffs, p: int, sat: bool) -> Check:
    inner = _check_decide(coeffs, p, "h")

    def check(code, report, state):
        reason = inner(code, report, state)
        if reason is None and (code == 0) != sat:
            reason = f"decide on h says {code == 0}, truth table says {sat}"
        return reason

    return check


def formula_h(rng: random.Random, clauses) -> list[int]:
    """The single polynomial h = g1^2 - a*g2^2 of one n = 3 formula at p = 31,
    drawn the way the randomized reduction draws it but from the benchmark's
    own seeded randomness: g1 and g2 combine the clause polynomials with
    coefficients in {1, ..., 18*d*k^2}, and a is a quadratic non-residue
    modulo 31.  Only the clause polynomials come from the package, through
    its public encoding (plaisted.encode_system)."""
    from padicfeas.plaisted import Cnf3, encode_system

    polys = [f.terms for f in encode_system(Cnf3.from_signed(3, clauses))]
    degree = max(max(e for _, e in terms) for terms in polys)
    bound = 18 * max(degree, 1) * len(polys) ** 2
    g1, g2 = [0] * (degree + 1), [0] * (degree + 1)
    for terms in polys:
        a, b = rng.randint(1, bound), rng.randint(1, bound)
        for c, e in terms:
            g1[e] += a * c
            g2[e] += b * c
    qnr = rng.randrange(2, H_PRIME)
    while pow(qnr, (H_PRIME - 1) // 2, H_PRIME) == 1:
        qnr = rng.randrange(2, H_PRIME)
    h = [x - qnr * y for x, y in zip(dense_square(g1), dense_square(g2))]
    while h and h[-1] == 0:
        h.pop()
    return h


def decide_round(rng: random.Random, workdir: str, tag: str, index: int) -> list[Op]:
    ops = []
    jobs = [(p, d) for d in DECIDE_DEGREES for p in DECIDE_PRIMES]
    jobs.append((DECIDE_PRIMES[index % len(DECIDE_PRIMES)], DECIDE_HEAVY_DEGREE))
    for i, (p, degree) in enumerate(jobs):
        coeffs = random_dense(rng, degree)
        path = os.path.join(workdir, f"{tag}-{i}.json")
        with open(path, "w") as fh:
            fh.write(poly_json(coeffs))
        key = f"f{i}"
        props = {"p": p, "degree": degree, "terms": sum(1 for c in coeffs if c),
                 "coeff_bits": coeff_bits(coeffs), "group": "dense", "slow": degree >= 40}
        ops.append(Op("decide", ["decide", path, "--prime", str(p)], props,
                      _check_decide(coeffs, p, key)))
        if degree <= DEGENERATE_MAX_DEGREE:
            sq = dense_square(coeffs)
            sq_path = os.path.join(workdir, f"{tag}-{i}.sq.json")
            with open(sq_path, "w") as fh:
                fh.write(poly_json(sq))
            sq_props = dict(props, degree=2 * degree, terms=sum(1 for c in sq if c),
                            coeff_bits=coeff_bits(sq))
            ops.append(Op("degenerate", ["degenerate", sq_path, "--prime", str(p)], sq_props,
                          _check_degenerate(key)))
    # Decide on one h takes 0.6-9 s, and a run holds only three or four, so
    # the rounds take the clause counts in turn and every run gets the same
    # mix of k.  With k <= 6 < 2^3 every formula is satisfiable.
    clauses = random_formula(rng, 3, H_CLAUSES[index % len(H_CLAUSES)])
    sat = truth_table_sat(3, clauses)
    coeffs = formula_h(rng, clauses)
    path = os.path.join(workdir, f"{tag}-h.json")
    with open(path, "w") as fh:
        fh.write(poly_json(coeffs))
    props = {"p": H_PRIME, "degree": len(coeffs) - 1, "terms": sum(1 for c in coeffs if c),
             "coeff_bits": coeff_bits(coeffs), "group": "h", "n": 3, "k": len(clauses),
             "sat": sat, "slow": True}
    ops.append(Op("decide", ["decide", path, "--prime", str(H_PRIME)], props,
                  _check_h(coeffs, H_PRIME, sat)))
    return ops


# -- workload: numtheory -----------------------------------------------------------

BINOMIAL_SMALL_PRIMES = (2, 3, 5, 7, 1009)
EXPONENT_BITS = (64, 256, 1024, 4096)
DENSITY_ROWS = ((30, 10**6), (210, 10**6), (30, 10**7))
PI_1E4 = 1229
SLOW_SHAPES = ("2^v-large", "large-p")  # the 0.05-1 s tail
V_LARGE_STRATA = (100, 150, 200, 250)


def _check_binomial(c1, a1, c2, a2, p) -> Check:
    expected = binomial_feasible(c1, a1, c2, a2, p)

    def check(code, report, state):
        if code != (0 if expected else 1):
            return f"exit {code}, the power rule says {'feasible' if expected else 'infeasible'}"
        return None

    return check


def _check_find_prime(n: int) -> Check:
    q = math.prod(first_primes(n))

    def check(code, report, state):
        if code != 0:
            return f"exit {code}"
        p, k = int(report["p"]), int(report["k"])
        if p != 1 + k * q or int(report["q_n"]) != q or not probable_prime(p):
            return f"p = {p} is not a prime 1 + k*{q}"
        return None

    return check


def _check_density(rows) -> Check:
    def check(code, report, state):
        if code != 0:
            return f"exit {code}"
        got = [(r["M"], int(r["x"]), r["count"]) for r in report["rows"]]
        if [(m, x) for m, x, _ in got] != list(rows):
            return f"rows {got} do not match the request"
        counts = {(m, x): c for m, x, c in got}
        if (1, 10**4) in counts and counts[(1, 10**4)] != PI_1E4:
            return f"pi(10^4) = {counts[(1, 10**4)]}, expected {PI_1E4}"
        if counts.get((30, 10**6), 0) > counts.get((30, 10**7), math.inf):
            return "count up to 10^6 exceeds the count up to 10^7"
        return None

    return check


def _unit(rng, p: int) -> int:
    while True:
        c = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        if c % p:
            return c


def _binomial_op(rng, p: int, d: int, shape: str, index: int = 0) -> Op:
    """Coefficients are p-adic units times p^(0, 0, 1, 2)[index % 4]: calls
    with index % 4 in (2, 3) end at the valuation test, the others reach the
    order computation, and index % 4 == 1 lists the terms in reverse."""
    c1 = _unit(rng, p)
    c2 = _unit(rng, p) * p ** (0, 0, 1, 2)[index % 4]
    a1, a2 = d, 0
    if index % 4 == 1:
        c1, a1, c2, a2 = c2, a2, c1, a1
    props = {"p": p, "p_bits": p.bit_length(), "exponent_bits": d.bit_length(),
             "p_divides_d": d % p == 0, "v2": valuation(d, 2) if p == 2 else 0,
             "shape": shape, "slow": shape in SLOW_SHAPES}
    argv = ["decide-binomial", str(c1), str(a1), str(c2), str(a2), "--prime", str(p)]
    return Op("decide_binomial", argv, props, _check_binomial(c1, a1, c2, a2, p))


def _big_prime(rng, bits: int) -> int:
    return next_prime(rng.getrandbits(bits) | (1 << (bits - 1)))


def numtheory_round(rng: random.Random, index: int) -> list[Op]:
    # Fresh large primes every round: their cost depends on how p - 1 factors.
    big = {name: _big_prime(rng, bits) for name, bits in (("p40", 40), ("p61", 61))}
    ops = []
    for i, (p, bits) in enumerate(itertools.product(BINOMIAL_SMALL_PRIMES, EXPONENT_BITS)):
        d = rng.getrandbits(bits) | (1 << (bits - 1))
        ops.append(_binomial_op(rng, p, d, "plain", i))
    for i, p in enumerate((3, 5, 7, 1009)):  # p | d
        odd = rng.getrandbits(EXPONENT_BITS[i]) | 1
        ops.append(_binomial_op(rng, p, p ** rng.randint(1, 3) * odd, "p|d", i % 2))
    for i in range(4):  # p = 2, d = 2^v * odd with small v
        d = (rng.getrandbits(256) | 1) << rng.randint(1, 8)
        ops.append(_binomial_op(rng, 2, d, "2^v", i % 2))
    # p = 2, d = 2^v * odd with v up to a few hundred.  The cost grows steeply
    # with v, so the rounds take the four strata of [100, 300) in turn.
    v = V_LARGE_STRATA[index % len(V_LARGE_STRATA)] + rng.randrange(50)
    ops.append(_binomial_op(rng, 2, (rng.getrandbits(64) | 1) << v, "2^v-large"))
    for name in ("p40", "p61"):
        ops.append(_binomial_op(rng, big[name], rng.getrandbits(1024) | 1, "large-p"))
    for n in range(1, 13):
        argv = ["find-prime", str(n), "--strategy", "sample", "--seed", str(rng.getrandbits(32))]
        ops.append(Op("find_prime", argv, {"n": n}, _check_find_prime(n)))
    rows = ((1, 10**4),) + DENSITY_ROWS
    argv = ["density"] + [str(v) for row in rows for v in row]
    ops.append(Op("density", argv, {"rows": len(rows), "max_x": 10**7}, _check_density(rows)))
    rng.shuffle(ops)
    return ops


def numtheory_probes(rng: random.Random) -> list[Op]:
    """Binomials that the order-based decider cannot always answer: large p
    with p | d needs the factors of p - 1 and p, and a 256-bit p needs those
    of p - 1 even for d = 6.  Whether the factoring budget suffices depends
    on how p - 1 factors, so whether a call exits 3 (budget exhausted)
    depends on the drawn prime.  A workload's ops must not fail, so these
    calls are not among them: each run makes them once, after its set-up,
    and reports their exits and times apart from its ops."""
    ops = []
    for bits in (40, 61):
        p = _big_prime(rng, bits)
        ops.append(_binomial_op(rng, p, p * (rng.getrandbits(64) | 1), "large-p|d"))
    ops.append(_binomial_op(rng, _big_prime(rng, 256), 6, "256-bit-p"))
    for op in ops:
        op.probe = True
    return ops


# -- registry ----------------------------------------------------------------------

WORKLOADS = ("reduce-small", "decide", "numtheory")


class Workload:
    """Generates the rounds of one workload for one seed."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed, self.workdir = name, seed, workdir

    def round(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{self.name}:{index}")
        tag = f"r{index}"
        if self.name == "reduce-small":
            return reduce_round(rng, self.workdir, tag)
        if self.name == "decide":
            return decide_round(rng, self.workdir, tag, index)
        return numtheory_round(rng, index)

    def probes(self) -> list[Op]:
        """The known-limit probes of this workload and seed (numtheory only)."""
        if self.name != "numtheory":
            return []
        return numtheory_probes(random.Random(f"{self.seed}:{self.name}:probes"))
