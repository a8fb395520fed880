"""Encoding 3CNF formulas as sparse divisors of x**Q - 1, Q a primorial.

Variable i is tied to the i-th prime p_i: at a Q-th root of unity w**t, the
binomial x**(Q/p_i) - 1 vanishes exactly when p_i divides t, so divisibility
patterns of t play the role of truth assignments.  A clause maps to the
squarefree divisor of x**Q - 1 whose roots are the encodings of its
satisfying local assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bigmod import crt, first_primes, is_prime, primorial
from .errors import InexactDivision
from .sparsepoly import SparsePoly, exact_div, parse_int

Literal = tuple[int, bool]  # (1-based variable index, negated?)


@dataclass(frozen=True)
class Cnf3:
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
    """Parse DIMACS CNF; clauses with more than three literals are rejected."""
    num_vars = None
    num_clauses = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
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


def format_dimacs(cnf: Cnf3) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.to_signed():
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# -- clause polynomials --------------------------------------------------------


@dataclass(frozen=True)
class BinomialProduct:
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


def clause_poly(clause, n: int) -> BinomialProduct:
    """The squarefree divisor of x**Q - 1 vanishing exactly at the roots of
    unity that encode local assignments satisfying the clause.

    Worked out on the cube of the clause's distinct variables: with
    T the set of satisfying local patterns, the exponents e_S solve
    sum_{S subset of delta} e_S = [delta in T] by Moebius inversion over
    subsets, and S contributes the factor x**(Q / prod_{s in S} p_s) - 1.
    """
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


def expand(bp: BinomialProduct, *, term_cap: int = 1_000_000) -> SparsePoly:
    """Multiply out a binomial product: positive factors first (increasing m),
    then exact division by each negative factor.  Inexact division signals a
    malformed product."""
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
        try:
            poly = exact_div(poly, binom, term_cap=term_cap)
        except InexactDivision as exc:
            raise InexactDivision(
                f"binomial product {bp.factors} does not expand to a polynomial"
            ) from exc
    return poly


def encode_system(cnf: Cnf3, *, term_cap: int = 1_000_000) -> list[SparsePoly]:
    """One expanded clause polynomial per clause."""
    return [
        expand(clause_poly(clause, cnf.num_vars), term_cap=term_cap)
        for clause in cnf.clauses
    ]


# -- assignments and roots ------------------------------------------------------


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
    """Decode a Q_n-th root of unity modulo p back to an assignment."""
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
