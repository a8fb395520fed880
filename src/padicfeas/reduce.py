"""The 3CNF-to-single-polynomial reduction pipeline.

A formula becomes a system of clause polynomials dividing x**Q - 1; a random
integer combination collapses the system to a pair (g1, g2) whose common zero
set equals the system's with probability at least 8/9; an anisotropic
quadratic form collapses the pair to one polynomial h.  Feasibility over the
p-adics is then decided exactly by enumerating the Q-th roots of unity modulo
a prime p = 1 (mod Q): each common root among them lifts to a true root
because x**Q - 1 is separable modulo p.  The scan reads g1 and g2 (or, in
deterministic mode, each clause polynomial) as rows of integers over the
clause polynomials.  Each clause polynomial's values at the roots of unity
are computed once per (formula, p), at the first run's root omega0, from
their closed form in the clause's literals (_Tables.make), so the scan never
expands a clause polynomial; a run whose root is omega0**u scans s = u*t,
reading each table in its own order.  Every run is recorded in a transcript
that can be re-verified without re-running any randomness.  A transcript
records the combination vectors a and b, not the polynomials, and
verify_transcript re-runs the scan on them; g1, g2 and h are expanded only
on request (ReductionTranscript.pair and .h), from a, b, the non-residue and
the formula's clause polynomials (plaisted.encode_system).
"""

from __future__ import annotations

import json
import random
import sys
from itertools import accumulate, combinations, compress, repeat
from math import lcm, prod
from operator import mod, mul, not_
from struct import iter_unpack

from .bigmod import factor, find_generator, find_qnr, first_primes, is_generator, primorial
from .config import Caps, Config
from .errors import CapsExceeded
from .plaisted import Cnf3, clause_poly, encode_system, satisfies
from .primes import SAMPLE_C, SEARCH_MAX_N, ProgressionPrime, find_prime_in_progression
from .record import Record
# transcript_dumps lives in sparsepoly, which every CLI call loads; the tests
# and perfbench's tracer read it as reduce.transcript_dumps
from .sparsepoly import SparsePoly, _pack, parse_int, transcript_dumps

TRANSCRIPT_FORMAT = "padicfeas-transcript-v3"

# Randomized runs per run_with_majority call at n <= 6, where 500 runs took
# 3.0-6.7 s for 10 to 160 clauses with the default prime search and 9-13 s
# with sampled primes (2 vCPU, Python 3.11).
MAX_REPEATS = 500


def _repeats_cap(n: int) -> int:
    """MAX_REPEATS, shrunk beyond n = 6 in proportion to Q_n, which a run's
    scan grows with: 29 runs at n = 7, which took 3.0-3.5 s for 30 clauses."""
    return min(MAX_REPEATS, MAX_REPEATS * primorial(6) // primorial(n))


class ReductionTranscript(Record):
    """Full record of one pipeline run; every field is reproducible from
    (cnf, seed, config) and re-checkable without the rng.  The pair (g1, g2)
    and the single polynomial h are not fields: a, b and the formula fix the
    pair, and the pair and qnr fix h, so each is rebuilt on read."""

    mode: str
    n: int
    q_n: int
    k: int
    cnf: Cnf3
    seed: int | None
    prime: ProgressionPrime
    prime_strategy: str
    generator: int
    omega: int
    max_degree: int | None       # randomized mode only
    big_n: int | None            # 18 * max_degree * k**2, randomized with k >= 3
    a: tuple[int, ...] | None
    b: tuple[int, ...] | None
    qnr: int | None              # randomized mode with k >= 1 only
    match_count: int
    first_match: int | None      # least exponent t with omega**t a common root
    verdict: bool
    witness: tuple[int, ...] | None

    def __post_init__(self):
        deterministic = self.mode == "deterministic"
        if self.mode != "randomized" and not deterministic:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.prime_strategy not in ("scan", "sample"):
            raise ValueError(f"unknown prime strategy {self.prime_strategy!r}")
        if deterministic and self.prime_strategy != "scan":
            raise ValueError("a deterministic run scans for its prime")
        if deterministic != (self.seed is None):
            raise ValueError("a randomized run records its seed, a deterministic run none")

    def pair(self) -> tuple[SparsePoly | None, SparsePoly | None]:
        """(g1, g2), rebuilt from a, b and the clause polynomials on each
        call; (None, None) in deterministic mode and for an empty formula."""
        if self.mode != "randomized" or self.k == 0:
            return None, None
        return _pair(self.a, self.b, encode_system(self.cnf))

    @property
    def g1(self) -> SparsePoly | None:
        return self.pair()[0]

    @property
    def g2(self) -> SparsePoly | None:
        return self.pair()[1]

    @property
    def h(self) -> SparsePoly | None:
        """The single polynomial of the reduction, expanded on each read;
        None in deterministic mode."""
        g1, g2 = self.pair()
        return None if g1 is None else _quadratic_form(g1, g2, self.qnr)

    def to_obj(self) -> dict:
        return {"format": TRANSCRIPT_FORMAT,
                **{name: write(getattr(self, name)) for name, (write, _) in _FIELDS.items()}}

    @classmethod
    def from_obj(cls, obj: dict) -> "ReductionTranscript":
        """Parse a transcript of TRANSCRIPT_FORMAT, the one format read.  A
        key that is not one of its fields, such as the g1, g2 or h that older
        formats recorded, raises ValueError, and a missing one KeyError."""
        if not isinstance(obj, dict):
            raise ValueError("a transcript must be a JSON object")
        if obj.get("format") != TRANSCRIPT_FORMAT:
            raise ValueError(f"unknown transcript format {obj.get('format')!r}")
        if unknown := obj.keys() - {"format", *_FIELDS}:
            raise ValueError(f"unknown transcript fields {sorted(unknown)}")
        return cls(**{name: read(obj[name]) for name, (_, read) in _FIELDS.items()})


def _same(v):
    return v


def _optional(convert):
    """convert, passing None through."""
    return lambda v: None if v is None else convert(v)


def _ints(v) -> tuple[int, ...]:
    if type(v) is not list:
        raise ValueError(f"{v!r} is not a list of integers")
    return tuple(map(parse_int, v))


def _flag(v) -> bool:
    if type(v) is not bool:
        raise ValueError(f"{v!r} is not true or false")
    return v


def _read_prime(o) -> ProgressionPrime:
    """The transcript's prime.  A prime that neither search can return, by
    its n, q_n or k, is refused before ProgressionPrime tests p for
    primality, which would take seconds on a forged k of thousands of
    digits; a p that is not 1 + k*q_n is still refused first, as the record
    refuses it."""
    n, q_n, k, p, trials_used = (parse_int(o[name]) for name in ProgressionPrime._fields)
    if p == 1 + k * q_n:
        if n > SEARCH_MAX_N["scan"]:
            raise ValueError(f"n = {n} exceeds the scan prime search limit {SEARCH_MAX_N['scan']}")
        if q_n != primorial(n):
            raise ValueError(f"q_n is not the product of the first {n} primes")
        if k > max(Caps().k_max, 2 ** (min(n, SEARCH_MAX_N["sample"]) ** SAMPLE_C)):
            raise ValueError(f"k is larger than either prime search returns at n = {n}")
    return ProgressionPrime(n, q_n, k, p, trials_used)


# Each transcript field's JSON form, as (write, read): big integers are
# decimal strings.  from_obj reads the fields in this order, prime first.
_OPT_INT = (_optional(str), _optional(parse_int))
_OPT_INTS = (_optional(lambda v: list(map(str, v))), _optional(_ints))
_FIELDS = {
    "prime": (ProgressionPrime.to_obj, _read_prime),
    "mode": (_same, _same),
    "n": (_same, parse_int),
    "q_n": (str, parse_int),
    "k": (_same, parse_int),
    "cnf": (lambda cnf: {"num_vars": cnf.num_vars, "clauses": cnf.to_signed()},
            lambda o: Cnf3.from_signed(parse_int(o["num_vars"]), map(_ints, o["clauses"]))),
    "seed": _OPT_INT,
    "prime_strategy": (_same, _same),
    "generator": (str, parse_int),
    "omega": (str, parse_int),
    "max_degree": _OPT_INT,
    "big_n": _OPT_INT,
    "a": _OPT_INTS,
    "b": _OPT_INTS,
    "qnr": _OPT_INT,
    "match_count": (_same, parse_int),
    "first_match": _OPT_INT,
    "verdict": (_same, _flag),
    "witness": (_optional(list), _optional(_ints)),
}


# -- stages ----------------------------------------------------------------------


def random_combine(polys, rng: random.Random):
    """Collapse k >= 3 nonzero polynomials to two random integer combinations
    with coefficients uniform in {1, ..., 18*d*k**2}; with probability at
    least 8/9 the common zero set is preserved.  For k <= 2 the pair is
    already at hand and is passed through untouched."""
    k = len(polys)
    if k == 0:
        raise ValueError("need at least one polynomial")
    if any(f.is_zero for f in polys):
        raise ValueError("zero polynomials are not allowed")
    a = b = None
    if k > 2:
        a, b = _draw(k, _combination_bound(max(f.degree for f in polys), k)[1], rng)
    return (*_pair(a, b, polys), a, b)


def _draw(k: int, bound: int, rng: random.Random):
    """The combination vectors (a, b): k integers each, uniform in
    {1, ..., bound}, a drawn first."""
    return tuple(tuple(rng.randint(1, bound) for _ in range(k)) for _ in "ab")


def _combination_bound(degree: int, k: int) -> tuple[int, int]:
    """(d, 18*d*k**2) for k polynomials of largest degree degree, where
    d = max(degree, 1) (all-constant systems have empty zero sets)."""
    return max(degree, 1), 18 * max(degree, 1) * k ** 2


def _pair(a, b, polys) -> tuple[SparsePoly, SparsePoly]:
    """(g1, g2): the combinations of polys by the two randomized _rows."""
    return tuple(_combine(row, polys) for row in _rows(True, a, b, len(polys)))


def _combine(row, polys) -> SparsePoly:
    """The combination of polys by a row of (index, coefficient) pairs, as
    _rows makes and _scan_roots reads, accumulated in one pass."""
    k = len(polys)
    return SparsePoly((r * c, e) for i, r in row if i < k for c, e in polys[i].terms)


def _quadratic_form(f: SparsePoly, g: SparsePoly, qnr: int | None) -> SparsePoly:
    """f**2 - qnr*g**2, or f**2 + f*g + g**2 when qnr is None (p = 2)."""
    if qnr is None:
        return f * f + f * g + g * g
    return f * f - qnr * (g * g)


def pair_to_single(f: SparsePoly, g: SparsePoly, p: int, rng: random.Random):
    """Collapse (f, g) to one polynomial with the same p-adic zero set.

    For odd p, h = f**2 - a*g**2 with a a quadratic non-residue; for p = 2,
    h = f**2 + f*g + g**2.  Either quadratic form vanishes over the p-adics
    only at (0, 0)."""
    a = None if p == 2 else find_qnr(p, rng)
    return _quadratic_form(f, g, a), a


def _shape(lits, primes, term_cap: int):
    """(P, shape, degree) of the clause polynomial of a set of literals, read
    from clause_poly's exponents without expanding them: P, the product of
    its primes, is the period of its values at the roots of unity (exponents
    are multiples of Q/P); shape = (p_N, Pos), the product of the negated
    literals' primes and the positive literals' primes, ascending, which
    _Tables.make reads; the degree is Q - (Q/P)*prod_{q in Pos} (q - 1).  A
    tautology (x**Q - 1) has P = 1, shape None and degree Q.  The product
    clause_poly gives would expand (plaisted.expand) to a dense list of
    1 + [p_N > 1]*P + sum_{T subset of Pos, |T| odd} P/(p_N*prod T)
    coefficients, 2 for a tautology: beyond term_cap, CapsExceeded is raised
    with expand's message."""
    q_n = prod(primes)
    if any((i, not neg) in lits for i, neg in lits):
        period, shape, degree, length = 1, None, q_n, 2
    else:
        negative = prod(primes[i - 1] for i, neg in lits if neg)
        pos = tuple(sorted(primes[i - 1] for i, neg in lits if not neg))
        period, shape = negative * prod(pos), (negative, pos)
        degree = q_n - q_n // period * prod(q - 1 for q in pos)
        length = 1 + (negative > 1) * period + sum(period // negative // prod(t)
                                                   for r in (1, 3) for t in combinations(pos, r))
    if length > term_cap:
        factors = clause_poly(lits, len(primes)).factors
        raise CapsExceeded(f"expanding {factors} exceeds the term cap of {term_cap}")
    return period, shape, degree


def _encoding(encodings: dict | None, cnf: Cnf3, term_cap: int):
    """(degree, layout, tables) of cnf: the largest degree of its clause
    polynomials, the layout of its clauses that _Tables reads, and a dict of
    their _Tables by prime, made on first use and kept in encodings (when
    given) under cnf, so that the runs of a report share them.  Each distinct
    set of literals is read once, by _shape, in order.  A clause's layout is
    (P, shape), its own period and shape: periods combine only in the scan
    (_scan_roots)."""
    encodings = {} if encodings is None else encodings
    if cnf not in encodings:
        primes, keys = first_primes(cnf.num_vars), list(map(frozenset, cnf.clauses))
        shapes = {key: _shape(key, primes, term_cap) for key in dict.fromkeys(keys)}
        encodings[cnf] = (max((degree for _, _, degree in shapes.values()), default=0),
                          [shapes[key][:2] for key in keys], {})
    return encodings[cnf]


def _rows(randomized: bool, a, b, k: int) -> list:
    """The rows over the k clause polynomials that a run scans, each a list
    of (index, coefficient) pairs (missing entries are 0): a and b, the first
    and last polynomial when a is None (k <= 2), or, not randomized, every
    polynomial on its own."""
    if not randomized:
        return [[(i, 1)] for i in range(k)]
    return [[(0, 1)], [(k - 1, 1)]] if a is None else [[*enumerate(a)], [*enumerate(b or ())]]


def _root_log(omega: int, omega0: int, p: int, n: int) -> int:
    """u in [0, Q_n) with omega0**u = omega modulo p, for omega0 a primitive
    Q_n-th root of unity and omega a Q_n-th root (Pohlig and Hellman 1978).
    Q_n is squarefree, so for each of its primes q, u mod q is the place of
    omega**(Q_n/q) among the q powers of the primitive q-th root
    omega0**(Q_n/q); the Chinese remainder theorem joins them.  A root that
    is no power of omega0 raises ValueError."""
    q_n, u = primorial(n), 0
    for q in first_primes(n):
        rest = q_n // q
        g = pow(omega0, rest, p)
        powers = list(accumulate(repeat(g, q - 1), lambda x, _: x * g % p, initial=1))
        u += powers.index(pow(omega, rest, p)) * rest * pow(rest, -1, q)
    return u % q_n


class _Tables:
    """The value tables of a formula's clause polynomials modulo p, shared by
    every run at p.  layout[i] = (P, shape) lays out clause i (_encoding):
    its table has P slots, its clause's own period, and slot s holds the
    clause polynomial's value at omega0**s, where omega0 is the primitive
    Q_n-th root of unity of the first run at p.  table(i) makes it by make
    on first use and packs it into one integer of little-endian slots, wide
    enough for a sum of k products of residues: 1, 2, 4 or 8 bytes, read as
    native integers of format code, when that suffices on a little-endian
    host.  packed keeps the tables by layout entry, so equal entries
    (repeated clauses) share one table.
    The scan adds one product per row entry, so a slot stays within the
    k*(p - 1)**2 it is packed for only because a row holds each index at
    most once, as each of _rows does."""

    def __init__(self, layout, omega0: int, p: int, n: int):
        self.layout, self.omega0, self.p, self.q_n = layout, omega0, p, primorial(n)
        bits = (len(layout) * (p - 1) ** 2).bit_length()
        native = [(w, c) for w, c in zip((1, 2, 4, 8), "BHIQ") if bits <= 8 * w]
        self.width, self.code = (native[0] if native and sys.byteorder == "little"
                                 else ((bits + 7) // 8, None))
        self.packed: dict[tuple, int] = {}  # layout entry: its packed table
        self.factors: dict[int, list[int]] = {}  # m: _factor's list for a product m of primes

    def table(self, i: int) -> int:
        """The packed table of clause i, shared by every clause laid out as
        it is, made on first use."""
        entry = self.layout[i]
        if entry not in self.packed:
            self.packed[entry] = self.make(*entry)
        return self.packed[entry]

    def make(self, period: int, shape) -> int:
        """The packed table of the clause polynomial of this shape (_shape),
        from its closed form, with period slots: P, its own period.  By
        clause_poly's exponents it is
        (x**Q - 1) * prod_{T subset of Pos} (x**(Q/(p_N*prod T)) - 1)**e_T,
        e_T = (-1)**(|T| + 1).  At x = omega0**s the factor of T vanishes when
        p_N*prod(T) divides s, and x**Q - 1 always does.  So the value is 0
        unless s = p_N*j with j prime to every q in Pos, where only the factor
        of T = {} vanishes with x**Q - 1, their quotient tending to p_N, and the
        value is p_N * prod_{T nonempty} (omega0**((Q/prod T)*j) - 1)**e_T.
        That product already vanishes where some q in Pos divides j, by its
        factor for T = {q}, once a vanishing factor with e_T = -1 is taken as
        0.  It depends on j mod prod(Pos), so the prod(Pos) values of j, each
        packed at slot p_N*j, fill the P = p_N*prod(Pos) slots.  A
        tautology's table is 0."""
        if shape is None:
            return 0
        negative, pos = shape
        size = prod(pos)
        columns = [self._factor(prod(t), r % 2 == 0) * (size // prod(t))
                   for r in range(1, len(pos) + 1) for t in combinations(pos, r)]
        values = map(mod, map(prod, zip(repeat(negative, size), *columns)), repeat(self.p))
        return _pack(values, negative * self.width)

    def _factor(self, m: int, invert: bool) -> list[int]:
        """[w**j - 1 for j < m] modulo p, w = omega0**(Q_n/m) (a primitive m-th
        root of unity), or their inverses when invert, 0 for w**0 - 1."""
        if m not in self.factors:
            w, p = pow(self.omega0, self.q_n // m, self.p), self.p
            col = [x - 1 for x in accumulate(repeat(w, m - 1), lambda x, _: x * w % p, initial=1)]
            self.factors[m] = [pow(x, -1, p) if x else 0 for x in col] if invert else col
        return self.factors[m]

    def widen(self, sums: dict[int, int], size: int) -> int:
        """The packed sums[P] of P slots, each repeated to size slots, added."""
        return sum(int.from_bytes(x.to_bytes(period * self.width, "little") * (size // period),
                                  "little") for period, x in sums.items())

    def read(self, size: int, packed: int):
        """The size slots of packed: values, not yet reduced modulo p."""
        raw = packed.to_bytes(size * self.width, "little")
        if self.code:
            return memoryview(raw).cast(self.code)
        return [int.from_bytes(slot, "little") for slot, in iter_unpack(f"{self.width}s", raw)]


def _scan_roots(shared: _Tables, rows, omega: int, p: int, n: int) -> list[int]:
    """Exponents t in [0, Q_n), ascending, at which every row's combination
    of the laid-out polynomials vanishes at omega**t modulo p.

    With omega = omega0**u (_root_log), the value at omega**t is that at
    omega0**s, s = u*t, where a polynomial of period P (its own, as
    _encoding lays it out) reads slot s mod P of its table: the scan runs
    over s and maps matches back by t = s/u mod Q_n (u is a unit, as omega
    is primitive).  Per row and period, the packed tables are summed by one
    multiply-add per row entry whose coefficient is nonzero modulo p;
    repeated clauses read one table.  Only here do periods combine: while
    survivors times periods reach the lcm L of the periods, the periods
    dividing a common Q_n/q (q the largest prime dividing none of them) are
    added at their lcm, these few sums are repeated to L and added, and one
    pass reads their zeros modulo p to mask the exponents; then each
    survivor sums its own slots.  Rows stop once none survive, and a
    polynomial's table is only made when a row first reaches it."""
    q_n, k, primes = primorial(n), len(shared.layout), first_primes(n)
    v = pow(_root_log(omega, shared.omega0, p, n), -1, q_n)
    mask, survivors = int.from_bytes(b"\1" * q_n, "little"), None  # byte s: does s survive?
    for row in rows:
        if not (mask if survivors is None else survivors):
            break
        sums: dict[int, int] = {}
        for i, r in row:
            if i < k and r % p:
                period = shared.layout[i][0]
                sums[period] = sums.get(period, 0) + r % p * shared.table(i)
        size = lcm(*sums)
        if sums and survivors is None and mask.bit_count() * len(sums) >= size:
            groups: dict[int, dict[int, int]] = {}
            for period, x in sums.items():
                groups.setdefault(max((q for q in primes if period % q), default=1), {})[period] = x
            total = shared.widen({lcm(*g): shared.widen(g, lcm(*g)) for g in groups.values()}, size)
            zeros = bytes(map(not_, map(mod, shared.read(size, total), repeat(p))))
            mask &= int.from_bytes(zeros * (q_n // size), "little")
        elif sums:
            if survivors is None:
                survivors = list(compress(range(q_n), mask.to_bytes(q_n, "little")))
            values = map(sum, zip(*[map(shared.read(P, x).__getitem__, map(mod, survivors, repeat(P)))
                                    for P, x in sums.items()]))
            survivors = list(compress(survivors, map(not_, map(mod, values, repeat(p)))))
    if survivors is None:
        survivors = compress(range(q_n), mask.to_bytes(q_n, "little"))
    return sorted(map(mod, map(mul, survivors, repeat(v)), repeat(q_n))) if v > 1 else list(survivors)


def _decode_witness(cnf: Cnf3, matches) -> tuple[int, ...] | None:
    """The assignment of the first matching exponent t that satisfies cnf:
    bit i is 1 exactly when p_i, the i-th prime, divides t.  With omega a
    primitive Q_n-th root of unity modulo p, (omega**t)**(Q_n/p_i) = 1 exactly
    when p_i divides t, so this is the assignment the root omega**t encodes
    (Plaisted 1984).  Every run reaches it with such an omega: pipeline
    raises a generator to (p - 1)/Q_n, and verify_transcript checks that
    omega is that power of a generator before the scan."""
    primes = first_primes(cnf.num_vars)
    for t in matches:
        bits = tuple(int(t % pi == 0) for pi in primes)
        if satisfies(cnf, bits):
            return bits
    return None


def _run(encoding, cnf: Cnf3, mode: str, seed, prime: ProgressionPrime, strategy: str,
         generator: int, a, b, qnr) -> ReductionTranscript:
    """The transcript of the run on cnf with these choices, the one place that
    derives what they fix, for pipeline and verify_transcript alike: omega =
    generator**((p - 1)/Q_n); for a randomized run with k >= 3 clauses, the
    max_degree and big_n that bound a and b (k <= 2 passes the clause
    polynomials through); and the exponents that _scan_roots finds for the
    run's _rows on the tables at p of cnf's _encoding (made from the omega of
    the first run at p), with the witness decoded from them.  The generator
    must generate F_p^*, so that omega is a primitive Q_n-th root of unity."""
    degree, layout, by_prime = encoding
    n, k, p = cnf.num_vars, len(cnf.clauses), prime.p
    omega = pow(generator, prime.k, p)
    combined = mode == "randomized" and k > 0
    max_degree, big_n = _combination_bound(degree, k) if combined and k > 2 else (None, None)
    if p not in by_prime:
        by_prime[p] = _Tables(layout, omega, p, n)
    matches = _scan_roots(by_prime[p], _rows(combined, a, b, k), omega, p, n)
    return ReductionTranscript(
        mode=mode,
        n=n,
        q_n=prime.q_n,
        k=k,
        cnf=cnf,
        seed=seed,
        prime=prime,
        prime_strategy=strategy,
        generator=generator,
        omega=omega,
        max_degree=max_degree,
        big_n=big_n,
        a=a,
        b=b,
        qnr=qnr,
        match_count=len(matches),
        first_match=matches[0] if matches else None,
        verdict=bool(matches),
        witness=_decode_witness(cnf, matches),
    )


def _check_size(cnf: Cnf3, caps: Caps):
    if cnf.num_vars > caps.max_vars:
        raise CapsExceeded(f"{cnf.num_vars} variables exceed the pipeline cap {caps.max_vars}")
    if cnf.num_vars < 1:
        raise ValueError("the pipeline needs at least one variable")


def pipeline(
    cnf: Cnf3, config: Config | None = None, encodings: dict | None = None
) -> ReductionTranscript:
    """Run the full reduction on one formula and record everything.

    Deterministic mode draws no randomness: it scans the roots of unity and
    tests every clause polynomial directly.  Randomized mode takes every draw
    from random.Random(config.seed), so the recorded seed reproduces the run:
    the prime (when sampled), the generator, the rows a and b that combine
    the clause polynomials into (g1, g2) and the non-residue that fixes
    h = g1**2 - qnr*g2**2.  It declares h feasible exactly when some root of
    unity is a common root of g1 and g2 modulo p; the scan reads a and b, so
    g1, g2, h and the clause polynomials are never expanded here.
    encodings, a dict shared by the runs of one report (and by
    verify_transcript on them), keeps each formula's _encoding: its largest
    clause degree, its layout and its value tables per prime."""
    config = config or Config()
    _check_size(cnf, config.caps)
    randomized = config.mode == "randomized"
    rng = random.Random(config.seed) if randomized else None
    k = len(cnf.clauses)
    encoding = _encoding(encodings, cnf, config.caps.term_count)
    strategy = config.prime_strategy if randomized else "scan"
    prime = find_prime_in_progression(cnf.num_vars, strategy=strategy, rng=rng, caps=config.caps)
    gen = find_generator(prime.p, rng)
    a = b = qnr = None
    if randomized and k > 0:  # empty conjunction: every encoding works
        if k > 2:
            a, b = _draw(k, _combination_bound(encoding[0], k)[1], rng)
        qnr = find_qnr(prime.p, rng)  # p = 1 + k*q_n is odd
    return _run(encoding, cnf, config.mode, config.seed if randomized else None, prime, strategy,
                gen, a, b, qnr)


def run_with_majority(
    cnf: Cnf3, config: Config | None = None
) -> tuple[bool, tuple[int, ...] | None, list[ReductionTranscript]]:
    """Repeat the pipeline config.repeats times (once in deterministic mode)
    on independent seeded streams and take the majority verdict; more
    randomized runs than _repeats_cap allows raise CapsExceeded before any
    seed is drawn.  The clauses are read and laid out once for all the runs,
    and their value tables made once per prime."""
    config = config or Config()
    _check_size(cnf, config.caps)
    repeats = config.repeats if config.mode == "randomized" else 1
    cap = _repeats_cap(cnf.num_vars)
    if repeats > cap:
        raise CapsExceeded(f"{repeats} repeats exceed the cap of {cap} runs")
    encodings: dict = {}
    transcripts = [pipeline(cnf, config.replace(seed=seed), encodings)
                   for seed in _seeds(config.seed, repeats)]
    summary = _summary([t.verdict for t in transcripts], [t.witness for t in transcripts])
    return summary["verdict"], summary["witness"], transcripts


def _seeds(seed: int, count: int) -> list[int]:
    """The seeds of the first count runs of a report made with this seed."""
    base = random.Random(seed)
    return [base.getrandbits(64) for _ in range(count)]


def _summary(verdicts, witnesses) -> dict:
    """The summary fields of a report on runs with these verdicts and
    witnesses: the majority verdict, the feasible and total run counts and,
    when the majority is true, the first witness among the runs'.  Each
    run's witness satisfies the formula: it is decoded only from a
    satisfying match, and verify_transcript checks it."""
    verdict = sum(verdicts) * 2 > len(verdicts)
    return {"verdict": verdict, "feasible_runs": sum(verdicts), "repeats": len(verdicts),
            "witness": next((w for w in witnesses if w is not None), None) if verdict else None}


# the keys of a `reduce` report outside its runs: reduce_report's and _summary's
_REPORT_KEYS = {"command", "config", "verdict", "feasible_runs", "repeats", "witness", "runs"}


def reduce_report(config: Config, runs) -> dict:
    """The JSON object of a `reduce` report: the config, the summary and
    the transcripts of the runs that run_with_majority made with it."""
    return {"command": "reduce", "config": config.to_obj(),
            **_summary([run.verdict for run in runs], [run.witness for run in runs]),
            "runs": [run.to_obj() for run in runs]}


# -- transcript re-verification ----------------------------------------------------


def verify_transcript(
    obj, caps: Caps | None = None, encodings: dict | None = None
) -> tuple[bool, list[dict]]:
    """Re-check every reproducible claim in a transcript object without
    re-running any randomness.  Returns (all_ok, per-check results).  Once
    the transcript's prime and omega pass, _run derives the run from its
    recorded choices, as pipeline does, and the recorded bound, verdict,
    matches and witness are compared with the derived ones; no polynomial is
    expanded.  Only TRANSCRIPT_FORMAT is read, with exactly its fields, so a
    transcript of an older format, or a run that carries a g1, g2 or h, fails
    the parse check (ReductionTranscript.from_obj).  A formula with more than
    caps.max_vars variables raises CapsExceeded before any work that grows
    with it.  encodings, as in pipeline, is a dict shared by the calls on the
    runs of one report; its value tables at p are made from the omega of the
    first run at p that passes its omega check."""
    caps = caps or Caps()
    checks: list[dict] = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    try:
        t = ReductionTranscript.from_obj(obj)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        check("parse", False, str(exc))
        return False, checks
    check("parse", True)

    cnf = t.cnf
    widest = max(t.n, cnf.num_vars)
    if widest > caps.max_vars:
        raise CapsExceeded(f"{widest} variables exceed the pipeline cap {caps.max_vars}")
    ok_shape = (
        t.n == cnf.num_vars >= 1
        and t.k == len(cnf.clauses)
        and t.q_n == primorial(t.n)
    )
    check("shape", ok_shape, "n, k, q_n consistent with the formula")

    # parsing checked that p = 1 + k*q_n is prime; a scanned k is the k-th trial
    prime_ok = (t.prime.n, t.prime.q_n) == (t.n, t.q_n) and (
        t.prime_strategy == "sample" or t.prime.trials_used == t.prime.k)
    check("prime", prime_ok, f"p = {t.prime.p}")
    if not (ok_shape and prime_ok):
        return False, checks

    # omega is g**k for a generator g of F_p^*, p - 1 = k*q_n
    p, g, k = t.prime.p, t.generator, t.prime.k
    omega_ok = 0 < g < p and t.omega == pow(g, k, p) and is_generator(g, p, factor(p - 1))
    check("omega", omega_ok, "omega is a primitive q_n-th root of unity")
    if not omega_ok:
        return False, checks

    encoding = _encoding(encodings, cnf, caps.term_count)
    run = _run(encoding, cnf, t.mode, t.seed, t.prime, t.prime_strategy, g, t.a, t.b, t.qnr)
    if t.mode == "randomized" and t.k > 0:
        bound_ok = (t.max_degree, t.big_n) == (run.max_degree, run.big_n)
        if run.big_n is None:
            check("combination-bound", bound_ok and t.a is None and t.b is None,
                  "pass-through for k <= 2")
        else:
            check("combination-bound", bound_ok, f"N = 18*{run.max_degree}*{t.k}^2")
            check("combination-range", len(t.a or ()) == len(t.b or ()) == t.k
                  and all(1 <= v <= run.big_n for v in t.a + t.b))
        qnr_ok = t.qnr is not None and pow(t.qnr, (p - 1) // 2, p) == p - 1
        check("qnr", qnr_ok, "passes the Euler criterion")  # p = 1 + k*q_n is odd
    else:
        nulls = (t.a, t.b, t.qnr, t.big_n, t.max_degree)
        check("no-combination", all(v is None for v in nulls),
              "deterministic runs carry no combination data")

    for field in ("verdict", "match_count", "first_match", "witness"):
        check(field.replace("_", "-"), getattr(t, field) == getattr(run, field))
    if t.witness is not None:
        check("witness-satisfies",
              len(t.witness) == cnf.num_vars and satisfies(cnf, t.witness))

    return all(c["ok"] for c in checks), checks


def verify_report(obj: dict, caps: Caps | None = None) -> tuple[bool, list[dict], str]:
    """Re-check a `reduce` report: each run by verify_transcript, the runs
    sharing one encodings dict, and then, when every run passes, the report
    around them.  The runs must be of one formula.  The config, when
    present, must be the one that made them: the mode, the run count (one in
    deterministic mode), and each run's prime strategy and seed, drawn by
    _seeds from the config's seed (a deterministic run scans and records no
    seed).  Each summary field present must be the one _summary gives.
    The report holds no key that reduce_report does not write: at the top
    level, in the config (the fields of Config, which to_obj writes) or in
    its caps (those of Caps).  Returns (all_ok, per-run results, why the
    report fails although its runs pass, or '').  Malformed runs or a
    malformed config raise ValueError, and more than MAX_REPEATS runs,
    which no run_with_majority call makes, raise CapsExceeded, before any
    run is verified."""
    runs = obj.get("runs")
    if not (isinstance(runs, list) and runs and all(isinstance(r, dict) for r in runs)):
        raise ValueError("'runs' must be a non-empty list of transcript objects")
    config = Config.from_obj(obj["config"]) if "config" in obj else None
    written = obj.get("config", {})
    caps_written = written.get("caps", {})
    if not isinstance(caps_written, dict):
        raise ValueError("a report's config caps must be an object")
    unknown = [*sorted(obj.keys() - _REPORT_KEYS),
               *(f"config.{key}" for key in sorted(written.keys() - Config._names)),
               *(f"config.caps.{key}" for key in sorted(caps_written.keys() - Caps._names))]
    if len(runs) > MAX_REPEATS:
        raise CapsExceeded(f"{len(runs)} runs exceed the cap of {MAX_REPEATS} runs")
    encodings: dict = {}
    verified = [verify_transcript(run, caps, encodings) for run in runs]
    results = [{"run": i, "ok": ok, "checks": checks} for i, (ok, checks) in enumerate(verified)]
    if not all(ok for ok, _ in verified):
        return False, results, ""
    if unknown:
        return False, results, f"the report has unknown keys {', '.join(unknown)}"
    if len(encodings) > 1:
        return False, results, "the runs are of different formulas"
    # every run verified, so each of these fields reads as from_obj reads it
    read = {name: [_FIELDS[name][1](run[name]) for run in runs]
            for name in ("mode", "prime_strategy", "seed", "verdict", "witness")}
    parts = []
    if config is not None:
        randomized, count = config.mode == "randomized", len(runs)
        made = {"mode": [config.mode] * count,
                "prime_strategy": [config.prime_strategy if randomized else "scan"] * count,
                "repeats": config.repeats if randomized else 1,
                "seed": _seeds(config.seed, count) if randomized else [None] * count}
        parts.append(("config", made, {**read, "repeats": count}))
    parts.append(("summary", _summary(read["verdict"], read["witness"]), obj))
    for part, expected, given in parts:
        wrong = [name for name, value in expected.items()
                 if name in given and json.dumps(given[name]) != json.dumps(value)]
        if wrong:
            return False, results, f"the {part} disagrees with the runs on {', '.join(wrong)}"
    return True, results, ""
