"""Encoding 3CNF formulas as sparse divisors of x**Q - 1, Q a primorial.

Variable i is tied to the i-th prime p_i: at a Q-th root of unity w**t, the
binomial x**(Q/p_i) - 1 vanishes exactly when p_i divides t, so divisibility
patterns of t play the role of truth assignments (reduce._decode_witness
states the decoding rule).  A clause maps to the squarefree divisor of
x**Q - 1 whose roots are the encodings of its satisfying local assignments
(Plaisted 1984), a product of binomials x**m - 1 whose exponents have a
closed form.  Every m is a multiple of Q/P, P the product of the clause's
primes, so the product is multiplied out as a dense coefficient list in
x**(Q/P) before it becomes a SparsePoly.
"""

from __future__ import annotations

from itertools import accumulate, compress
from math import gcd, prod
from operator import add, neg, sub

from .bigmod import first_primes, primorial
from .errors import CapsExceeded, InexactDivision
from .record import Record
from .sparsepoly import SparsePoly, parse_int

Literal = tuple[int, bool]  # (1-based variable index, negated?)


class Cnf3(Record):
    """A 3CNF formula: clauses of at most three literals over num_vars variables."""

    num_vars: int
    clauses: tuple[tuple[Literal, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("number of variables must be nonnegative")
        for clause in self.clauses:
            if not 1 <= len(clause) <= 3:
                raise ValueError("clauses must have between 1 and 3 literals")
            for idx, neg in clause:
                if not 1 <= idx <= self.num_vars:
                    raise ValueError(f"variable index {idx} out of range")
                if not isinstance(neg, bool):
                    raise ValueError("negation flag must be a bool")

    @classmethod
    def from_signed(cls, num_vars: int, clauses) -> "Cnf3":
        """Build from signed-integer clauses, e.g. [[1, -2, 3], [2]]."""
        conv = []
        for clause in clauses:
            lits = []
            for lit in clause:
                if lit == 0:
                    raise ValueError("literal 0 is not allowed")
                lits.append((abs(lit), lit < 0))
            conv.append(tuple(lits))
        return cls(num_vars, tuple(conv))

    def to_signed(self) -> list[list[int]]:
        return [[-i if neg else i for i, neg in clause] for clause in self.clauses]


def satisfies(cnf: Cnf3, bits) -> bool:
    """Whether the 0/1 assignment satisfies every clause."""
    if len(bits) != cnf.num_vars:
        raise ValueError("assignment length does not match the formula")
    return all(
        any(bool(bits[i - 1]) != neg for i, neg in clause) for clause in cnf.clauses
    )


# -- DIMACS ------------------------------------------------------------------


def parse_dimacs(text: str) -> Cnf3:
    """Parse DIMACS CNF; clauses with more than three literals and a second
    problem line are rejected."""
    num_vars = None
    num_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ValueError(f"second problem line: {line!r}")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            num_vars, num_clauses = parse_int(fields[2]), parse_int(fields[3])
            continue
        if num_vars is None:
            raise ValueError("clause data before the problem line")
        for tok in line.split():
            lit = parse_int(tok)
            if lit == 0:
                if not current:
                    raise ValueError("empty clauses are not representable")
                if len(current) > 3:
                    raise ValueError("clauses with more than 3 literals are rejected")
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        raise ValueError("trailing clause without terminating 0")
    if num_vars is None:
        raise ValueError("missing problem line")
    if num_clauses is not None and num_clauses != len(clauses):
        raise ValueError(
            f"header declares {num_clauses} clauses but {len(clauses)} were given"
        )
    return Cnf3.from_signed(num_vars, clauses)


# -- clause polynomials --------------------------------------------------------


class BinomialProduct(Record):
    """A formal product prod_m (x**m - 1)**e_m with every m dividing Q_n."""

    n: int
    factors: tuple[tuple[int, int], ...]  # (m, exponent), sorted by m, exponents nonzero

    def __post_init__(self):
        q = primorial(self.n)
        seen = set()
        for m, e in self.factors:
            if e == 0:
                raise ValueError("zero exponents must be omitted")
            if m < 1 or q % m != 0:
                raise ValueError(f"{m} does not divide the primorial {q}")
            if m in seen:
                raise ValueError("duplicate factor")
            seen.add(m)

    @classmethod
    def from_dict(cls, n: int, factors: dict[int, int]) -> "BinomialProduct":
        return cls(n, tuple(sorted((m, e) for m, e in factors.items() if e != 0)))


def clause_poly(clause, n: int) -> BinomialProduct:
    """The squarefree divisor of x**Q - 1 vanishing exactly at the roots of
    unity that encode local assignments satisfying the clause.

    Worked out on the cube of the clause's distinct variables, where the set
    S contributes the factor x**(Q / prod_{s in S} p_s) - 1 and the exponents
    e_S solve sum_{S subset of delta} e_S = [delta satisfies the clause] by
    Moebius inversion over subsets.  A clause fails at exactly one local
    pattern u0 (its negated variables true, the others false), so
    e_S = [S empty] - (-1)**|S - u0| * [u0 subset of S].  A clause with both
    x and not-x holds everywhere and gives x**Q - 1.
    """
    lits = set(clause)
    for idx, _ in lits:
        if not 1 <= idx <= n:
            raise ValueError(f"variable index {idx} out of range for n={n}")
    q, primes = primorial(n), first_primes(n)
    if any((idx, not neg) in lits for idx, neg in lits):
        return BinomialProduct.from_dict(n, {q: 1})
    terms = [(q // prod(primes[idx - 1] for idx, neg in lits if neg), -1)]
    for idx, neg in lits:
        if not neg:
            terms += [(m // primes[idx - 1], -e) for m, e in terms]
    factors = dict(terms)
    factors[q] = factors.get(q, 0) + 1
    return BinomialProduct.from_dict(n, factors)


def expand(bp: BinomialProduct, *, term_cap: int = 1_000_000) -> SparsePoly:
    """Multiply out a binomial product on a dense coefficient list in y = x**M,
    M the gcd of its m's, as prod (1 - y**(m/M))**e times (-1)**sum(e):
    positive factors first (each a shifted subtraction), then exact division
    by each negative one (prefix sums over the residue classes modulo m/M, or
    block by block, whichever loops fewer times).  Raises CapsExceeded when
    the dense length 1 + sum_{e > 0} e*m/M exceeds term_cap, before any work,
    and InexactDivision when a division leaves a remainder, which signals a
    malformed product."""
    step = gcd(*(m for m, _ in bp.factors)) or 1
    if 1 + sum(e * m // step for m, e in bp.factors if e > 0) > term_cap:
        raise CapsExceeded(f"expanding {bp.factors} exceeds the term cap of {term_cap}")
    coeffs = [1]
    for m, e in sorted(bp.factors, key=lambda f: f[1] < 0):
        d = m // step
        for _ in range(abs(e)):
            if e > 0:
                coeffs = list(map(sub, coeffs + [0] * d, [0] * d + coeffs))
                continue
            top = len(coeffs) - d
            if d * d <= len(coeffs):
                sums = coeffs[:]
                for r in range(d):
                    sums[r::d] = accumulate(coeffs[r::d])
            else:
                sums = coeffs[:d]
                for i in range(d, len(coeffs), d):
                    sums += map(add, sums[i - d:i], coeffs[i:i + d])
            if top <= 0 or any(sums[top:]):
                raise InexactDivision(
                    f"binomial product {bp.factors} does not expand to a polynomial"
                )
            coeffs = sums[:top]
    nonzero = filter(None, coeffs)
    out = SparsePoly()
    out._terms = tuple(zip(map(neg, nonzero) if sum(e for _, e in bp.factors) % 2 else nonzero,
                           compress(range(0, len(coeffs) * step, step), coeffs)))
    return out


def encode_system(cnf: Cnf3, *, term_cap: int = 1_000_000) -> list[SparsePoly]:
    """One expanded clause polynomial per clause.  A clause's polynomial
    depends only on its set of literals, so each distinct set is expanded
    once per call."""
    keys = list(map(frozenset, cnf.clauses))
    polys = {key: expand(clause_poly(key, cnf.num_vars), term_cap=term_cap)
             for key in dict.fromkeys(keys)}
    return [polys[key] for key in keys]

