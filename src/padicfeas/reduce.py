"""The 3CNF-to-single-polynomial reduction pipeline.

A formula becomes a system of clause polynomials dividing x**Q - 1; a random
integer combination collapses the system to a pair (g1, g2) whose common zero
set equals the system's with probability at least 8/9; an anisotropic
quadratic form collapses the pair to one polynomial h.  Feasibility over the
p-adics is then decided exactly by enumerating the Q-th roots of unity modulo
a prime p = 1 (mod Q): each common root among them lifts to a true root
because x**Q - 1 is separable modulo p.  The scan has one path: period
tables from short Good-Thomas prime-factor DFTs over F_p, repeated and
summed.  Every run is recorded in a transcript that can be re-verified
without re-running any randomness.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import repeat
from math import gcd, prod
from operator import add, mod, mul

from .bigmod import find_generator, find_qnr, first_primes, is_prime, primorial
from .config import Caps, Config
from .errors import CapsExceeded
from .plaisted import Cnf3, encode_system, root_to_assignment, satisfies
from .primes import ProgressionPrime, find_prime_in_progression
from .sparsepoly import SparsePoly, parse_int, poly_from_obj, poly_to_obj

# v2 omits h, which g1, g2 and qnr fix; v1 transcripts, which record it, still verify.
TRANSCRIPT_FORMAT = "padicfeas-transcript-v2"
TRANSCRIPT_FORMAT_V1 = "padicfeas-transcript-v1"


@dataclass(frozen=True)
class ReductionTranscript:
    """Full record of one pipeline run; every field is reproducible from
    (cnf, seed, config) and re-checkable without the rng."""

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
    qnr: int | None              # None for p = 2 (the x^2+xy+y^2 form) and k <= 2 n/a
    g1: SparsePoly | None
    g2: SparsePoly | None
    match_count: int
    first_match: int | None      # least exponent t with omega**t a common root
    verdict: bool
    witness: tuple[int, ...] | None

    @property
    def h(self) -> SparsePoly | None:
        """The single polynomial of the reduction, expanded on each read;
        None in deterministic mode."""
        return None if self.g1 is None else _quadratic_form(self.g1, self.g2, self.qnr)

    def to_obj(self) -> dict:
        def poly(f):
            return None if f is None else poly_to_obj(f)

        return {
            "format": TRANSCRIPT_FORMAT,
            "mode": self.mode,
            "n": self.n,
            "q_n": str(self.q_n),
            "k": self.k,
            "cnf": {"num_vars": self.cnf.num_vars, "clauses": self.cnf.to_signed()},
            "seed": None if self.seed is None else str(self.seed),
            "prime": {
                "n": self.prime.n,
                "q_n": str(self.prime.q_n),
                "k": str(self.prime.k),
                "p": str(self.prime.p),
                "trials_used": self.prime.trials_used,
            },
            "prime_strategy": self.prime_strategy,
            "generator": str(self.generator),
            "omega": str(self.omega),
            "max_degree": None if self.max_degree is None else str(self.max_degree),
            "big_n": None if self.big_n is None else str(self.big_n),
            "a": None if self.a is None else [str(v) for v in self.a],
            "b": None if self.b is None else [str(v) for v in self.b],
            "qnr": None if self.qnr is None else str(self.qnr),
            "g1": poly(self.g1),
            "g2": poly(self.g2),
            "match_count": self.match_count,
            "first_match": None if self.first_match is None else str(self.first_match),
            "verdict": self.verdict,
            "witness": None if self.witness is None else list(self.witness),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ReductionTranscript":
        """Parse a v2 or v1 transcript; a v1 transcript's recorded h is left
        to verify_transcript."""
        if not isinstance(obj, dict):
            raise ValueError("a transcript must be a JSON object")
        if obj.get("format") not in (TRANSCRIPT_FORMAT, TRANSCRIPT_FORMAT_V1):
            raise ValueError(f"unknown transcript format {obj.get('format')!r}")

        def opt_int(v):
            return None if v is None else parse_int(v)

        def opt_ints(v):
            if v is not None and type(v) is not list:
                raise ValueError(f"{v!r} is not a list of integers")
            return None if v is None else tuple(map(parse_int, v))

        def opt_poly(v):
            return None if v is None else poly_from_obj(v)

        prime = ProgressionPrime(
            n=parse_int(obj["prime"]["n"]),
            q_n=parse_int(obj["prime"]["q_n"]),
            k=parse_int(obj["prime"]["k"]),
            p=parse_int(obj["prime"]["p"]),
            trials_used=parse_int(obj["prime"]["trials_used"]),
        )
        return cls(
            mode=obj["mode"],
            n=parse_int(obj["n"]),
            q_n=parse_int(obj["q_n"]),
            k=parse_int(obj["k"]),
            cnf=Cnf3.from_signed(parse_int(obj["cnf"]["num_vars"]),
                                 [opt_ints(c) for c in obj["cnf"]["clauses"]]),
            seed=opt_int(obj["seed"]),
            prime=prime,
            prime_strategy=obj["prime_strategy"],
            generator=parse_int(obj["generator"]),
            omega=parse_int(obj["omega"]),
            max_degree=opt_int(obj["max_degree"]),
            big_n=opt_int(obj["big_n"]),
            a=opt_ints(obj["a"]),
            b=opt_ints(obj["b"]),
            qnr=opt_int(obj["qnr"]),
            g1=opt_poly(obj["g1"]),
            g2=opt_poly(obj["g2"]),
            match_count=parse_int(obj["match_count"]),
            first_match=opt_int(obj["first_match"]),
            verdict=bool(obj["verdict"]),
            witness=opt_ints(obj["witness"]),
        )


def transcript_dumps(obj) -> str:
    """Canonical JSON: sorted keys, fixed layout, trailing newline, so equal
    runs serialize to identical bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
    if k == 1:
        return polys[0], polys[0], None, None
    if k == 2:
        return polys[0], polys[1], None, None
    _, n_bound = _combination_bound(polys)
    a = tuple(rng.randint(1, n_bound) for _ in range(k))
    b = tuple(rng.randint(1, n_bound) for _ in range(k))
    return _combine(a, polys), _combine(b, polys), a, b


def _combination_bound(polys) -> tuple[int, int]:
    """(d, 18*d*k**2) for k polynomials of largest degree d, where d is at
    least 1 (all-constant systems have empty zero sets)."""
    d = max(max(f.degree for f in polys), 1)
    return d, 18 * d * len(polys) ** 2


def _combine(coeffs, polys) -> SparsePoly:
    """sum(a * f for a, f in zip(coeffs, polys)), accumulated in one pass."""
    acc: dict[int, int] = {}
    for a, f in zip(coeffs, polys):
        for c, e in f.terms:
            acc[e] = acc.get(e, 0) + a * c
    return SparsePoly((c, e) for e, c in acc.items())


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


def _pfa_values(terms, omega: int, p: int, primes) -> list[int]:
    """Values modulo p of sum c*x**e, over the (c, e) terms, at x = omega**t
    for every t < Q = prod(primes), in the order of _pfa_exponents.

    This is the length-Q DFT over F_p by the Good-Thomas prime-factor
    algorithm.  Put the coefficient of x**e at the digits (e mod q_i) of a
    q_1 x ... x q_n array, and read position (k_1, ..., k_n) of the output as
    t = sum k_i * Q/q_i (mod Q).  Then omega**(e*t) = prod w_i**((e mod q_i) * k_i)
    with w_i = omega**(Q/q_i), so the transform is a length-q_i DFT along each
    axis in turn: about Q * sum(q_i) multiply-adds.  Each pass transforms the
    outermost axis and writes it back as the innermost, so every pass reads
    contiguous slices and the axes end in their starting order."""
    q_n = prod(primes)
    vals = [0] * q_n
    for c, e in terms:
        pos = 0
        for q in primes:
            pos = pos * q + e % q
        vals[pos] += c
    for q in primes:
        m = q_n // q
        ws = [pow(omega, m * j, p) for j in range(q)]
        rows = [vals[j * m:(j + 1) * m] for j in range(q)]
        for k in range(q):
            scaled = [row if j * k == 0 else map(mul, row, repeat(ws[j * k % q]))
                      for j, row in enumerate(rows)]
            vals[k::q] = map(mod, map(sum, zip(*scaled)), repeat(p))
    return vals


def _pfa_exponents(primes) -> list[int]:
    """The exponent t of each position of _pfa_values's output."""
    q_n = prod(primes)
    ts = [0]
    for q in primes:
        step = q_n // q
        ts = [(t + k * step) % q_n for t in ts for k in range(q)]
    return ts


def _scan_roots(polys, omega: int, p: int, n: int) -> list[int]:
    """Exponents t in [0, Q_n), ascending, at which every polynomial vanishes
    at omega**t modulo p, by one path built on term periods.

    A term c*x**e has period P = Q_n/gcd(Q_n, e): its value at omega**t
    depends only on t mod P.  Each polynomial splits into parts by term
    period, and each part is folded into a maximal period P that its own
    period divides.  Its exponents are then multiples of M = Q_n/P, and
    _pfa_values over P's own primes at omega**M gives its P-long value table.
    The tables, each repeated M times, sum to the polynomial's values.  A
    clause polynomial is one part of its clause's length.  The polynomials
    filter the exponents in turn and stop once none survive."""
    primes = first_primes(n)
    q_n = primorial(n)
    orders: dict[int, list[int]] = {}  # per period: positions of _pfa_values in order of t
    survivors = range(q_n)
    for f in polys:
        if not survivors:
            break
        parts: dict[int, list] = {}
        for c, e in f.terms:
            if c % p:
                parts.setdefault(q_n // gcd(q_n, e), []).append((c % p, e))
        folded: dict[int, list] = {}
        for period in sorted(parts, reverse=True):
            top = next((big for big in folded if big % period == 0), period)
            folded.setdefault(top, []).extend(parts[period])
        values = [0] * q_n
        for period, terms in folded.items():
            m = q_n // period
            own = [q for q in primes if period % q == 0]
            part = _pfa_values([(c, e // m) for c, e in terms], pow(omega, m, p), p, own)
            if period not in orders:
                orders[period] = sorted(range(period), key=_pfa_exponents(own).__getitem__)
            values = list(map(add, values, [part[i] for i in orders[period]] * m))
        survivors = [t for t in survivors if not values[t] % p]
    return list(survivors)


def _decode_witness(cnf: Cnf3, matches, omega: int, p: int) -> tuple[int, ...] | None:
    """The assignment of the first matching root of unity that satisfies cnf."""
    for t in matches:
        bits = root_to_assignment(pow(omega, t, p), p, cnf.num_vars)
        if satisfies(cnf, bits):
            return bits
    return None


def _check_size(cnf: Cnf3, caps: Caps):
    if cnf.num_vars > caps.max_vars:
        raise CapsExceeded(
            f"{cnf.num_vars} variables exceed the pipeline cap {caps.max_vars}"
        )
    if cnf.num_vars < 1:
        raise ValueError("the pipeline needs at least one variable")


def pipeline(
    cnf: Cnf3,
    config: Config | None = None,
    rng: random.Random | None = None,
    polys: list[SparsePoly] | None = None,
) -> ReductionTranscript:
    """Run the full reduction on one formula and record everything.

    Deterministic mode draws no randomness: it scans the roots of unity and
    tests every clause polynomial directly.  Randomized mode combines the
    clause polynomials into (g1, g2), draws the non-residue that fixes the
    single polynomial h = g1**2 - qnr*g2**2, and declares h feasible exactly
    when some root of unity is a common root of g1 and g2 modulo p.  h itself
    is never expanded here.  polys, when given, must be encode_system(cnf)."""
    config = config or Config()
    _check_size(cnf, config.caps)
    randomized = config.mode == "randomized"
    if rng is None:
        rng = random.Random(config.seed)
    n = cnf.num_vars
    q_n = primorial(n)
    k = len(cnf.clauses)
    if polys is None:
        polys = encode_system(cnf, term_cap=config.caps.term_count)

    strategy = config.prime_strategy if randomized else "scan"
    prime = find_prime_in_progression(
        n, strategy=strategy, rng=rng if randomized else None, caps=config.caps
    )
    p = prime.p
    gen = find_generator(p, rng if randomized else None)
    omega = pow(gen, (p - 1) // q_n, p)

    max_degree = big_n = avec = bvec = qnr = g1 = g2 = None
    scan_polys = polys  # empty conjunction: every encoding works
    if randomized and k > 0:
        g1, g2, avec, bvec = random_combine(polys, rng)
        if avec is not None:
            max_degree, big_n = _combination_bound(polys)
        qnr = None if p == 2 else find_qnr(p, rng)
        scan_polys = [g1, g2]
    matches = _scan_roots(scan_polys, omega, p, n)
    witness = _decode_witness(cnf, matches, omega, p)

    return ReductionTranscript(
        mode=config.mode,
        n=n,
        q_n=q_n,
        k=k,
        cnf=cnf,
        seed=config.seed if randomized else None,
        prime=prime,
        prime_strategy=strategy,
        generator=gen,
        omega=omega,
        max_degree=max_degree,
        big_n=big_n,
        a=avec,
        b=bvec,
        qnr=qnr,
        g1=g1,
        g2=g2,
        match_count=len(matches),
        first_match=matches[0] if matches else None,
        verdict=bool(matches),
        witness=witness,
    )


def run_with_majority(
    cnf: Cnf3, config: Config | None = None
) -> tuple[bool, tuple[int, ...] | None, list[ReductionTranscript]]:
    """Repeat the pipeline config.repeats times (once in deterministic mode)
    on independent seeded streams and take the majority verdict.  The clause
    polynomials are encoded once for all the runs."""
    config = config or Config()
    _check_size(cnf, config.caps)
    polys = encode_system(cnf, term_cap=config.caps.term_count)
    repeats = config.repeats if config.mode == "randomized" else 1
    base = random.Random(config.seed)
    child_seeds = [base.getrandbits(64) for _ in range(repeats)]
    transcripts = []
    for child in child_seeds:
        run_config = replace(config, seed=child)
        transcripts.append(pipeline(cnf, run_config, random.Random(child), polys))
    yes = sum(1 for t in transcripts if t.verdict)
    verdict = yes * 2 > len(transcripts)
    witness = None
    if verdict:
        for t in transcripts:
            if t.verdict and t.witness is not None and satisfies(cnf, t.witness):
                witness = t.witness
                break
    return verdict, witness, transcripts


# -- transcript re-verification ----------------------------------------------------


def verify_transcript(
    obj, caps: Caps | None = None, encodings: dict | None = None
) -> tuple[bool, list[dict]]:
    """Re-check every reproducible claim in a transcript (given as a dict or a
    ReductionTranscript) without re-running any randomness.  Returns
    (all_ok, per-check results).  A formula with more than caps.max_vars
    variables raises CapsExceeded before any work that grows with it.
    encodings, a dict shared by the calls on the runs of one report, keeps
    each formula's clause polynomials so that they are encoded once."""
    caps = caps or Caps()
    encodings = {} if encodings is None else encodings
    checks: list[dict] = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    v1, recorded_h = False, None
    try:
        if isinstance(obj, ReductionTranscript):
            t = obj
        else:
            t = ReductionTranscript.from_obj(obj)
            v1 = obj["format"] == TRANSCRIPT_FORMAT_V1
            if v1 and obj["h"] is not None:
                recorded_h = poly_from_obj(obj["h"])
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

    prime_ok = (
        t.prime.p == 1 + t.prime.k * t.prime.q_n
        and t.prime.q_n == t.q_n
        and is_prime(t.prime.p)
    )
    check("prime", prime_ok, f"p = {t.prime.p}")
    if not (ok_shape and prime_ok):
        return False, checks

    p = t.prime.p
    omega_ok = pow(t.omega, t.q_n, p) == 1 and all(
        pow(t.omega, t.q_n // q, p) != 1 for q in first_primes(t.n)
    )
    check("omega", omega_ok, "omega is a primitive q_n-th root of unity")
    if not omega_ok:
        return False, checks

    if cnf not in encodings:
        encodings[cnf] = encode_system(cnf, term_cap=caps.term_count)
    polys = encodings[cnf]
    if t.mode == "randomized" and t.k > 0:
        if t.a is not None:
            d, bound = _combination_bound(polys)
            ok_n = t.max_degree == d and t.big_n == bound
            check("combination-bound", ok_n, f"N = 18*{d}*{t.k}^2")
            ok_range = (
                t.b is not None
                and t.big_n is not None
                and len(t.a) == len(t.b) == t.k
                and all(1 <= v <= t.big_n for v in t.a + t.b)
            )
            check("combination-range", ok_range)
            g1 = _combine(t.a, polys)
            g2 = _combine(t.b or (), polys)
        else:
            check("combination-bound", t.big_n is None and t.max_degree is None
                  and t.b is None, "pass-through for k <= 2")
            g1 = polys[0]
            g2 = polys[-1]
        check("g1", t.g1 == g1)
        check("g2", t.g2 == g2)
        if p == 2:
            check("qnr", t.qnr is None, "p = 2 uses the x^2+xy+y^2 form")
        else:
            qnr_ok = t.qnr is not None and pow(t.qnr, (p - 1) // 2, p) == p - 1
            check("qnr", qnr_ok, "passes the Euler criterion")
        if v1:
            check("h", recorded_h == _quadratic_form(g1, g2, t.qnr))
        scan_polys = [g1, g2]
    else:
        nulls = (t.g1, t.g2, t.a, t.b, t.qnr, t.big_n, t.max_degree)
        if v1:
            nulls += (recorded_h,)
        check("no-combination", all(v is None for v in nulls),
              "deterministic runs carry no combination data")
        scan_polys = polys

    matches = _scan_roots(scan_polys, t.omega, p, t.n)
    check("verdict", t.verdict == bool(matches))
    check("match-count", t.match_count == len(matches))
    check("first-match", t.first_match == (matches[0] if matches else None))

    check("witness", t.witness == _decode_witness(cnf, matches, t.omega, p))
    if t.witness is not None:
        check("witness-satisfies",
              len(t.witness) == cnf.num_vars and satisfies(cnf, t.witness))

    return all(c["ok"] for c in checks), checks
