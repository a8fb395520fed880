import copy
import itertools
import json
import math
import random
import time

import pytest

import padicfeas.padic as padic_mod
import padicfeas.plaisted as plaisted_mod
import padicfeas.reduce as reduce_mod
from padicfeas.bigmod import find_generator, first_primes, primorial
from padicfeas.cli import main
from padicfeas.config import Caps, Config
from padicfeas.errors import CapsExceeded
from padicfeas.padic import bruteforce_decision
from padicfeas.plaisted import Cnf3, clause_poly, encode_system, expand, satisfies
from padicfeas.primes import find_prime_in_progression
from padicfeas.reduce import (
    TRANSCRIPT_FORMAT,
    ReductionTranscript,
    _combine,
    _decode_witness,
    _encoding,
    _root_log,
    _rows,
    _scan_roots,
    _shape,
    _Tables,
    pair_to_single,
    pipeline,
    random_combine,
    run_with_majority,
    transcript_dumps,
    verify_transcript,
)
from padicfeas.sparsepoly import SparsePoly, parse_poly, poly_to_obj

import helpers
from helpers import (REMOVED_CAPS, REMOVED_CONFIG, TRANSCRIPT_FORMAT_V1, TRANSCRIPT_FORMAT_V2,
                     DftTables, _chirp, _dft, _layout, format_dimacs, random_cnf,
                     random_nonzero_sparse, report_digest, sparse_gcd, truth_table_sat)

CANONICAL_SHAPES = [[1, 2, 3], [-1, 2, 3], [-1, -2, 3], [-1, -2, -3]]


def seeded_formula(n, k, seed):
    rng = random.Random(seed)
    return Cnf3.from_signed(
        n, [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3)] for _ in range(k)]
    )


def _poly_obj(f):
    return None if f is None else poly_to_obj(f)


def to_v2(run):
    """The v2 form of a v3 transcript object: the same fields plus the
    rebuilt g1 and g2."""
    old = copy.deepcopy(run)
    old["format"] = TRANSCRIPT_FORMAT_V2
    g1, g2 = ReductionTranscript.from_obj(run).pair()
    old["g1"], old["g2"] = _poly_obj(g1), _poly_obj(g2)
    return old


def to_v1(run):
    """The v1 form of a v3 transcript object: its v2 form plus the expanded
    h."""
    old = to_v2(run)
    old["format"] = TRANSCRIPT_FORMAT_V1
    old["h"] = _poly_obj(ReductionTranscript.from_obj(run).h)
    return old


def exhaustive_small_formulas():
    """Every formula built from at most 3 of the four canonical negation
    shapes over the fixed triple (1, 2, 3)."""
    out = []
    for r in (1, 2, 3):
        for combo in itertools.combinations(range(4), r):
            out.append(Cnf3.from_signed(3, [CANONICAL_SHAPES[i] for i in combo]))
    return out


# -- random_combine ---------------------------------------------------------------


def test_random_combine_bound_and_ranges():
    rng = random.Random(0)
    polys = [parse_poly("x^2-1"), parse_poly("x-2"), parse_poly("x^2+x")]
    g1, g2, a, b = random_combine(polys, rng)
    n_bound = 18 * 2 * 9  # 18 * d * k^2 = 324
    assert len(a) == len(b) == 3
    assert all(1 <= v <= n_bound for v in a + b)
    expect1 = SparsePoly()
    for ai, f in zip(a, polys):
        expect1 = expect1 + ai * f
    assert g1 == expect1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_random_combine_equals_the_term_by_term_sum(n):
    rng = random.Random(40 + n)
    systems = [encode_system(seeded_formula(n, k, 50 * n + k)) for k in (3, 8, 21)]
    systems.append([random_nonzero_sparse(rng, max_exp=30) for _ in range(6)])
    for i, polys in enumerate(systems):
        g1, g2, a, b = random_combine(polys, random.Random(i))
        k = len(polys)
        n_bound = 18 * max(max(f.degree for f in polys), 1) * k * k
        old = random.Random(i)
        assert a == tuple(old.randint(1, n_bound) for _ in range(k))
        assert b == tuple(old.randint(1, n_bound) for _ in range(k))
        e1 = e2 = SparsePoly()
        for ai, bi, f in zip(a, b, polys):
            e1 = e1 + ai * f
            e2 = e2 + bi * f
        assert (g1, g2) == (e1, e2)
    f = parse_poly("x^3 - 2*x + 1")
    assert reduce_mod._combine([(0, 2), (1, 1)], [f, -2 * f]).is_zero


def test_random_combine_passthrough_and_errors():
    rng = random.Random(1)
    f, g = parse_poly("x-1"), parse_poly("x-2")
    assert random_combine([f], rng) == (f, f, None, None)
    assert random_combine([f, g], rng) == (f, g, None, None)
    with pytest.raises(ValueError):
        random_combine([f, SparsePoly(), g], rng)
    with pytest.raises(ValueError):
        random_combine([], rng)


def test_random_combine_scalar_family_always_preserves_gcd():
    rng = random.Random(5)
    f = parse_poly("x^2 - 3*x + 2")
    base = sparse_gcd(f, f)
    for _ in range(50):
        scalars = [rng.randint(1, 9) for _ in range(4)]
        polys = [s * f for s in scalars]
        g1, g2, _, _ = random_combine(polys, rng)
        assert sparse_gcd(g1, g2) == base


def test_random_combine_preserves_gcd_in_most_trials():
    rng = random.Random(12)
    good = 0
    trials = 120
    for i in range(trials):
        k = rng.choice((3, 4, 5))
        if i % 2 == 0:
            common = random_nonzero_sparse(rng, max_terms=3, max_exp=3, max_coeff=5)
            polys = [
                common * random_nonzero_sparse(rng, max_terms=3, max_exp=5, max_coeff=5)
                for _ in range(k)
            ]
        else:
            polys = [
                random_nonzero_sparse(rng, max_terms=4, max_exp=8, max_coeff=10)
                for _ in range(k)
            ]
        target = polys[0]
        for f in polys[1:]:
            target = sparse_gcd(target, f)
        g1, g2, _, _ = random_combine(polys, rng)
        if sparse_gcd(g1, g2) == target:
            good += 1
    assert good / trials >= 8 / 9


# -- pair_to_single -----------------------------------------------------------------


def test_quadratic_form_value_soundness_exhaustive():
    # odd p: u^2 - a*v^2 = 0 (mod p) only at (0, 0), for every non-residue a
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            if a in squares:
                continue
            for u in range(p):
                for v in range(p):
                    vanishes = (u * u - a * v * v) % p == 0
                    assert vanishes == (u == 0 and v == 0)
    # p = 2: u^2 + u*v + v^2, checked over residues mod 2 and mod 4
    for u in range(2):
        for v in range(2):
            assert ((u * u + u * v + v * v) % 2 == 0) == (u == 0 and v == 0)
    for u in range(4):
        for v in range(4):
            vanishes = (u * u + u * v + v * v) % 4 == 0
            assert vanishes == (u % 2 == 0 and v % 2 == 0)


def test_pair_to_single_odd_p():
    rng = random.Random(9)
    f, g = parse_poly("x - 1"), parse_poly("x - 2")
    h, a = pair_to_single(f, g, 7, rng)
    assert pow(a, 3, 7) == 6  # Euler criterion: a is a non-residue
    assert h == f * f - a * (g * g)
    # polynomial-level soundness over F_p
    for r in range(7):
        assert (h.eval_mod(r, 7) == 0) == (
            f.eval_mod(r, 7) == 0 and g.eval_mod(r, 7) == 0
        )
    h2, a2 = pair_to_single(f, f, 7, rng)
    assert h2 == (1 - a2) * (f * f)


def test_pair_to_single_p2():
    rng = random.Random(10)
    f = parse_poly("x")
    h, a = pair_to_single(f, f, 2, rng)
    assert a is None
    assert h == parse_poly("3*x^2")
    g = parse_poly("x + 1")
    h, _ = pair_to_single(f, g, 2, rng)
    for r in range(4):
        assert (h.eval_mod(r, 4) == 0) == (
            f.eval_mod(r, 2) == 0 and g.eval_mod(r, 2) == 0
        )


def test_pair_to_single_random_polynomial_soundness():
    rng = random.Random(90)
    for p in (3, 5, 7, 11, 13):
        for _ in range(20):
            f = random_nonzero_sparse(rng, max_terms=3, max_exp=6, max_coeff=8)
            g = random_nonzero_sparse(rng, max_terms=3, max_exp=6, max_coeff=8)
            h, _ = pair_to_single(f, g, p, rng)
            for r in range(p):
                assert (h.eval_mod(r, p) == 0) == (
                    f.eval_mod(r, p) == 0 and g.eval_mod(r, p) == 0
                )


# -- the pipeline --------------------------------------------------------------------


def test_pipeline_single_clause():
    cnf = Cnf3.from_signed(3, [[1, 2, 3]])
    t = pipeline(cnf, Config(mode="deterministic"))
    assert t.verdict and t.prime.p == 31
    assert t.witness is not None and satisfies(cnf, t.witness)
    assert t.match_count == 22  # degree of the clause polynomial
    assert t.g1 is None and t.h is None and t.seed is None


def test_pipeline_contradictions():
    cnf = Cnf3.from_signed(1, [[1], [-1]])
    assert not pipeline(cnf, Config(mode="deterministic")).verdict
    assert not pipeline(cnf, Config(mode="randomized", seed=3)).verdict
    # same contradiction written with repeated literals
    rep = Cnf3.from_signed(1, [[1, 1, 1], [-1, -1, -1]])
    assert not pipeline(rep, Config(mode="deterministic")).verdict
    assert not pipeline(rep, Config(mode="randomized", seed=3)).verdict
    # all eight sign patterns over one triple: unsatisfiable
    allsigns = Cnf3.from_signed(
        3, [[s1 * 1, s2 * 2, s3 * 3] for s1, s2, s3 in itertools.product((1, -1), repeat=3)]
    )
    assert truth_table_sat(allsigns) is None
    assert not pipeline(allsigns, Config(mode="deterministic")).verdict
    v, w, _ = run_with_majority(allsigns, Config(mode="randomized", seed=17, repeats=5))
    assert not v and w is None


def test_pipeline_empty_formula_is_vacuously_satisfiable():
    cnf = Cnf3(2, ())
    t = pipeline(cnf, Config(mode="deterministic"))
    assert t.verdict and t.witness is not None
    assert t.match_count == t.q_n


def test_pipeline_caps():
    cnf = Cnf3.from_signed(7, [[1, 2, 7]])
    with pytest.raises(CapsExceeded):
        pipeline(cnf, Config(caps=Caps(max_vars=6)))


def test_pipeline_randomized_records_reduction():
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1, 2, 3], [1, -2, -3]])
    t = pipeline(cnf, Config(mode="randomized", seed=21))
    polys = encode_system(cnf)
    d = max(f.degree for f in polys)
    assert t.big_n == 18 * d * 9
    assert t.g1 is not None and t.g2 is not None and t.h is not None
    assert t.h == t.g1 * t.g1 - t.qnr * (t.g2 * t.g2)
    assert pow(t.qnr, (t.prime.p - 1) // 2, t.prime.p) == t.prime.p - 1
    assert t.verdict == (truth_table_sat(cnf) is not None)
    assert t.witness is not None and satisfies(cnf, t.witness)


def test_pipeline_exhaustive_small_formulas_deterministic():
    for cnf in exhaustive_small_formulas():
        t = pipeline(cnf, Config(mode="deterministic"))
        want = truth_table_sat(cnf) is not None
        assert t.verdict == want
        if t.verdict:
            assert t.witness is not None and satisfies(cnf, t.witness)


def test_pipeline_majority_matches_sat_on_random_instances():
    rng = random.Random(404)
    for i in range(25):
        cnf = random_cnf(rng)
        want = truth_table_sat(cnf) is not None
        det = pipeline(cnf, Config(mode="deterministic")).verdict
        v, w, runs = run_with_majority(cnf, Config(mode="randomized", seed=500 + i, repeats=5))
        assert det == want
        assert v == want
        assert len(runs) == 5
        if v:
            assert w is not None and satisfies(cnf, w)


@pytest.fixture
def searches(monkeypatch):
    """The (sf, p, result) of each padic._integral_root_witness call, kept by
    a spy so that no search has to run twice."""
    calls = []
    real = padic_mod._integral_root_witness

    def spy(sf, p):
        calls.append((sf, p, real(sf, p)))
        return calls[-1][2]

    monkeypatch.setattr(padic_mod, "_integral_root_witness", spy)
    return calls


def decide_and_decode(t, searches, caps=None) -> tuple[bool, bool]:
    """(feasible, decoded): the decider's verdict on the run's h at its prime,
    and whether the root of its direct search names an assignment.  When that
    root's residue x mod p is a common root of every clause polynomial, the
    bits [x**(Q/p_i) = 1 mod p] satisfy the formula (Plaisted's map), which
    is asserted.  It is not decoded when the search finds no root, or a root
    that the run's random combination added."""
    searches.clear()
    p = t.prime.p
    feasible = bruteforce_decision(t.h, p, caps).feasible
    direct = searches[0][2] if searches else None  # the first search is the direct one
    if direct is None:
        return feasible, False
    x = direct[0] % p
    if any(f.eval_mod(x, p) for f in encode_system(t.cnf)):
        return feasible, False
    bits = tuple(int(pow(x, t.q_n // q, p) == 1) for q in first_primes(t.n))
    assert satisfies(t.cnf, bits), (t.cnf, x, p)
    return feasible, True


def test_bruteforce_decides_h_as_the_run_and_the_truth_table_do(searches):
    """The package's two halves agree: the p-adic decider, given a run's
    single polynomial h and prime, reaches the run's verdict, and both match
    the truth table, and its root of h decodes to a satisfying assignment
    (decide_and_decode).  The formula with all eight sign patterns over x1,
    x2, x3 is unsatisfiable, and its h has multiple roots mod p = 31."""
    every_pattern = [[a * 1, b * 2, c * 3]
                     for a, b, c in itertools.product((1, -1), repeat=3)]
    formulas = exhaustive_small_formulas() + [
        Cnf3.from_signed(3, every_pattern),
        Cnf3.from_signed(3, every_pattern[1:]),
        Cnf3.from_signed(1, [[1], [-1]]),
        Cnf3.from_signed(2, [[1, 2], [-1, 2], [1, -2], [-1, -2]]),
    ]
    rng = random.Random(2024)
    formulas += [random_cnf(rng, max_vars=3, max_clauses=8) for _ in range(12)]
    seen, decoded = set(), 0
    for i, cnf in enumerate(formulas):
        want = truth_table_sat(cnf) is not None
        seen.add(want)
        for seed in (i, 1000 + i):
            t = pipeline(cnf, Config(seed=seed))
            if t.k == 0:
                continue
            assert t.verdict == want, (cnf, seed)
            feasible, named = decide_and_decode(t, searches)
            assert feasible == want, (cnf, seed)
            decoded += named
    assert seen == {False, True} and decoded


def test_bruteforce_decides_h_as_the_run_and_the_truth_table_do_at_n_4(searches):
    """The cross-half oracle, with decide_and_decode, at n = 4 (p = 211,
    deg h <= 420).  Seven of the eight sign patterns over x1, x2, x4 plus
    (x3 or x4) is satisfiable, and its h has coefficients of about 48 bits;
    all eight patterns make it unsatisfiable."""
    patterns = [[a * 1, b * 2, c * 4] for a, b, c in itertools.product((1, -1), repeat=3)]
    formulas = [Cnf3.from_signed(4, patterns[1:] + [[3, 4]]),
                Cnf3.from_signed(4, patterns + [[3, 4]])]
    formulas += [seeded_formula(4, k, 211 + k) for k in (4, 5, 6, 8, 10, 12, 14, 16)]
    seen, decoded = set(), 0
    for i, cnf in enumerate(formulas):
        want = truth_table_sat(cnf) is not None
        seen.add(want)
        for seed in (i, 1000 + i):
            t = pipeline(cnf, Config(seed=seed))
            assert t.k > 0 and t.prime.p == 211 and t.h.degree <= 420, (cnf, seed)
            assert t.verdict == want, (cnf, seed)
            feasible, named = decide_and_decode(t, searches)
            assert feasible == want, (cnf, seed)
            decoded += named
    assert seen == {False, True} and decoded


def test_bruteforce_decides_h_as_the_run_and_the_truth_table_do_at_n_5(searches):
    """The cross-half oracle, with decide_and_decode, at n = 5 (p = 2311,
    deg h <= 2*Q_5 = 4620, above the default degree cap): seven of the eight
    sign patterns over x1, x2, x4 plus (x3 or x5) is satisfiable, and its
    root of h decodes; all eight patterns make it unsatisfiable.  Each
    decision takes about 2 s."""
    patterns = [[a * 1, b * 2, c * 4] for a, b, c in itertools.product((1, -1), repeat=3)]
    for seed, clauses, want in ((0, patterns[1:], True), (1, patterns, False)):
        cnf = Cnf3.from_signed(5, clauses + [[3, 5]])
        assert (truth_table_sat(cnf) is not None) == want
        t = pipeline(cnf, Config(seed=seed))
        assert t.k > 0 and t.prime.p == 2311 and t.h.degree <= 4620, seed
        assert t.verdict == want, seed
        assert decide_and_decode(t, searches, Caps(degree=5000)) == (want, want), seed


def test_pipeline_single_runs_agree_in_at_least_8_of_9():
    rng = random.Random(31337)
    for i in range(12):
        cnf = random_cnf(rng, max_vars=4, max_clauses=6)
        want = truth_table_sat(cnf) is not None
        agree = 0
        for j in range(9):
            t = pipeline(cnf, Config(mode="randomized", seed=9000 + 100 * i + j))
            agree += t.verdict == want
        assert agree >= 8, (i, agree)


def test_pipeline_sample_prime_strategy():
    cnf = Cnf3.from_signed(3, [[1, -2, 3]])
    t = pipeline(cnf, Config(mode="randomized", seed=5, prime_strategy="sample"))
    assert t.verdict
    assert t.prime.p % t.q_n == 1
    ok, _ = verify_transcript(t.to_obj())
    assert ok


# -- the root scan ----------------------------------------------------------------------


def naive_roots(polys, omega, p, q_n):
    """Every t < q_n at which every polynomial vanishes at omega**t, one
    modular power per term."""
    out = []
    for t in range(q_n):
        x = pow(omega, t, p)
        if all(f.eval_mod(x, p) == 0 for f in polys):
            out.append(t)
    return out


def scan_polys(polys, omega, p, n):
    """The scan of the polynomials themselves: one unit row each."""
    return _scan_roots(DftTables(_layout(polys, primorial(n)), omega, p, n),
                       _rows(False, None, None, len(polys)), omega, p, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
def test_scan_roots_is_exact_on_seeded_formulas(n, mode):
    k = {1: 2, 2: 4, 3: 7, 4: 10, 5: 8}[n]
    for seed in range(3 if n < 5 else 1):
        cnf = seeded_formula(n, k, 70 + seed)
        t = pipeline(cnf, Config(mode=mode, seed=seed))
        polys = encode_system(cnf) if mode == "deterministic" else [t.g1, t.g2]
        want = naive_roots(polys, t.omega, t.prime.p, t.q_n)
        assert scan_polys(polys, t.omega, t.prime.p, n) == want
        assert t.match_count == len(want)
        assert t.first_match == (want[0] if want else None)


def random_huge_sparse(rng, p, terms, step=1):
    """Random coefficients of any sign, some divisible by p, and exponents up
    to 10**40, all multiples of step, some equal modulo Q."""
    out = []
    for _ in range(terms):
        c = rng.choice((rng.randint(-10 ** 20, 10 ** 20), p * rng.randint(-3, 3) or 1))
        out.append((c, step * rng.randint(0, 10 ** 40 // step)))
    if out:
        c, e = out[0]
        out.append((rng.randint(1, 9), e + 30030 * step * rng.randint(1, 10 ** 6)))
    return SparsePoly(out)


def scan_setting(n, rng):
    """A prime p = 1 (mod Q_n) and a primitive Q_n-th root of unity modulo it."""
    q_n = primorial(n)
    p = find_prime_in_progression(n, strategy="scan").p
    return p, q_n, pow(find_generator(p, rng), (p - 1) // q_n, p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chirp_dft_values_match_naive_evaluation(n):
    """At every period P dividing Q_n, _dft of a polynomial in x**(Q_n/P)
    gives its values at omega**t for t < P, and its layout's table repeats
    them for every t < Q_n; coefficients all 0 modulo p give zeros."""
    rng = random.Random(100 + n)
    p, q_n, omega = scan_setting(n, rng)
    primes = first_primes(n)
    for r in range(n + 1):
        for chosen in itertools.combinations(primes, r):
            period = math.prod(chosen)
            step = q_n // period
            chirp = _chirp(period, pow(omega, step, p), p)
            for terms in (0, 1, 3, 8):
                f = random_huge_sparse(rng, p, terms, step)
                coeffs = [0] * period
                for c, e in f.terms:
                    coeffs[e // step % period] += c
                table = _dft(coeffs, chirp, p)
                want = [f.eval_mod(pow(omega, t, p), p) for t in range(period)]
                assert table == want
                (own, laid), = _layout([f], q_n)
                assert period % own == 0
                table = _dft(laid, _chirp(own, pow(omega, q_n // own, p), p), p)
                assert [table[t % own] for t in range(q_n)] == [want[t % period]
                                                              for t in range(q_n)]
            zeros = [p * rng.randint(-5, 5) for _ in range(period)]
            assert _dft(zeros, chirp, p) == [0] * period


# Clauses of every special shape at n = 6: a tautology, a repeated literal,
# one- and two-literal clauses, all-negative and all-positive clauses.
SHAPED_CLAUSES = [[1, -1, 4], [2, 2, -5], [3], [-4, 6], [-1, -2, -3], [4, 5, 6]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_tables_match_the_dft_of_the_expanded_clauses(n):
    """_Tables.make's tables, read from the clauses' literals, are the packed
    DFTs of the expanded, laid-out clause polynomials (and at n <= 3 their
    values at every slot), at a scanned and a sampled prime and two
    primitive roots omega0 each; each table's period is the product of its
    clause's variables' primes (1 for a tautology), and _shape's degree and
    dense length are those of the expansion.  The clauses are every one of
    1 to 3 literals, repeats and tautologies among them, at n <= 5, and
    seeded ones with SHAPED_CLAUSES at n = 6."""
    rng = random.Random(800 + n)
    if n <= 5:
        lits = [(i, neg) for i in range(1, n + 1) for neg in (False, True)]
        cnf = Cnf3(n, tuple(c for r in (1, 2, 3)
                            for c in itertools.combinations_with_replacement(lits, r)))
    else:
        cnf = Cnf3.from_signed(6, seeded_formula(6, 40, 806).to_signed() + SHAPED_CLAUSES)
    q_n, primes = primorial(n), first_primes(n)
    for key in map(frozenset, cnf.clauses):
        bp = clause_poly(key, n)
        step = math.gcd(*(m for m, _ in bp.factors))
        length = 1 + sum(e * m // step for m, e in bp.factors if e > 0)
        assert _shape(key, primes, length)[2] == expand(bp, term_cap=length).degree
        refusals = []
        for refuse in (lambda: _shape(key, primes, length - 1),
                       lambda: expand(bp, term_cap=length - 1)):
            with pytest.raises(CapsExceeded) as exc:
                refuse()
            refusals.append(str(exc.value))
        assert refusals[0] == refusals[1]
    polys = encode_system(cnf)
    degree, layout, _ = _encoding(None, cnf, 10 ** 6)
    laid = _layout(polys, q_n)
    assert degree == max(f.degree for f in polys)
    own = [1 if any((i, not neg) in key for i, neg in key)
           else math.prod(primes[i - 1] for i in {i for i, _ in key})
           for key in map(frozenset, cnf.clauses)]
    assert [period for period, _ in layout] == [period for period, _ in laid] == own
    for strategy in ("scan", "sample"):
        prime = find_prime_in_progression(n, strategy=strategy, rng=rng)
        p = prime.p
        omega = pow(find_generator(p, rng), prime.k, p)
        unit = rng.choice([v for v in range(2, q_n) if math.gcd(v, q_n) == 1] or [1])
        for omega0 in (omega, pow(omega, unit, p)):
            ours, dft = _Tables(layout, omega0, p, n), DftTables(laid, omega0, p, n)
            for i, (period, _) in enumerate(layout):
                assert ours.table(i) == dft.table(i), cnf.clauses[i]
                if n <= 3:
                    values = [polys[i].eval_mod(pow(omega0, s, p), p) for s in range(period)]
                    assert list(ours.read(period, ours.table(i))) == values


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_roots_is_exact_on_random_sparse_polynomials(n):
    rng = random.Random(200 + n)
    p, q_n, omega = scan_setting(n, rng)
    # two clause polynomials of different periods (for n >= 2) and a random part
    clauses = encode_system(Cnf3.from_signed(n, [[1], [-n]]))
    mixed = clauses[0] + clauses[1] + random_huge_sparse(rng, p, 3)
    systems = [[random_huge_sparse(rng, p, rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
               for _ in range(6)] + [[mixed]]
    for polys in systems:
        # a common root at a random omega**t makes the answer non-trivial
        t0 = rng.randrange(q_n)
        x0 = pow(omega, t0, p)
        polys = [f - SparsePoly([(f.eval_mod(x0, p), 0)]) for f in polys]
        want = naive_roots(polys, omega, p, q_n)
        assert t0 in want
        assert scan_polys(polys, omega, p, n) == want
    # a constant (period 1) and a polynomial whose coefficients are all 0 mod p
    for polys in ([SparsePoly([(p + 1, 0)])], [p * random_huge_sparse(rng, p, 4)]):
        want = naive_roots(polys, omega, p, q_n)
        assert want == ([] if polys[0].degree == 0 else list(range(q_n)))
        assert scan_polys(polys, omega, p, n) == want


def random_row(rng, p, k):
    """A sparse row of (index, integer) pairs for k polynomials, of length
    k - 2 to k + 2 (missing entries count as 0, extra ones are ignored), with
    zeros, multiples of p, negative and large entries."""
    pick = [lambda: 0, lambda: p * rng.randint(-3, 3), lambda: rng.randint(-10 ** 12, 10 ** 12),
            lambda: rng.randint(1, 9)]
    return [(i, rng.choice(pick)()) for i in range(max(0, k + rng.randint(-2, 2)))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rows_scan_matches_the_combined_polynomials(n):
    """Scanning rows over the laid-out clause polynomials finds exactly the
    common roots of the rows' combinations, for random integer rows and for
    the rows of every mode."""
    rng = random.Random(300 + n)
    p, q_n, omega = scan_setting(n, rng)
    for k in (1, 2, 3, 6, 12):
        polys = encode_system(seeded_formula(n, k, 900 + 10 * n + k))
        layout = _layout(polys, q_n)
        # tables made at another primitive root, shared by every row set below
        unit = rng.choice([v for v in range(1, q_n + 1) if math.gcd(v, q_n) == 1])
        tables = DftTables(layout, pow(omega, unit, p), p, n)
        row_sets = [[random_row(rng, p, k) for _ in range(rng.randint(1, 3))] for _ in range(4)]
        row_sets += [[[]], [[(i, 0) for i in range(k)], random_row(rng, p, k)],
                     _rows(True, None, None, k), _rows(False, None, None, k)]
        a, b = (tuple(rng.randint(1, 10 ** 9) for _ in range(k)) for _ in "ab")
        row_sets += [_rows(True, a, b, k), _rows(True, a, None, k), _rows(True, a[:-1], b + b, k)]
        for rows in row_sets:
            want = naive_roots([_combine(row, polys) for row in rows], omega, p, q_n)
            assert _scan_roots(tables, rows, omega, p, n) == want, rows


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scan_of_repeated_clauses_matches_the_combined_polynomials(n):
    """Copies of a clause share one table: scanning a row of every clause
    makes one table per distinct layout entry, and no later scan makes
    another.  The scan still finds exactly the common roots of each row's
    combination: when the entries of two copies sum to 0 modulo p (the
    clause drops out of the row) and when they do not."""
    rng = random.Random(700 + n)
    p, q_n, omega = scan_setting(n, rng)
    base = seeded_formula(n, 4, 710 + n).to_signed()
    cnf = Cnf3.from_signed(n, base + [base[0][::-1], base[1]])  # 4 copies 0, 5 copies 1
    polys = encode_system(cnf)
    k = len(polys)
    layout = _layout(polys, q_n)
    tables, made = DftTables(layout, omega, p, n), []
    make = tables.make
    tables.make = lambda *entry: made.append(entry) or make(*entry)
    everything = [[(i, 1) for i in range(k)]]
    assert _scan_roots(tables, everything, omega, p, n) == naive_roots(
        [sum(polys, SparsePoly())], omega, p, q_n)
    assert len(made) == len(set(made)) == len(set(layout)) <= 4
    for _ in range(4):
        r, s = rng.randint(1, 10 ** 12), rng.randint(1, p - 1)
        cancel = [(0, r), (4, p * rng.randint(-3, 3) - r), (2, rng.randint(1, 9))]
        kept = [(1, s), (5, rng.randint(1, 10 ** 12) * p + s), (3, rng.randint(1, 9))]
        alone = [(4, r), (0, p * rng.randint(-3, 3) - r)]
        for rows in ([cancel], [kept], [alone], [cancel, kept], [kept, cancel],
                     [alone, [(i, rng.randint(1, 10 ** 9)) for i in range(k)]]):
            combos = [sum((c * polys[i] for i, c in row), SparsePoly()) for row in rows]
            assert _scan_roots(tables, rows, omega, p, n) == naive_roots(combos, omega, p, q_n)
    assert len(made) == len(set(layout))


def test_pipeline_matches_the_truth_table_at_six_variables():
    """At n = 6 the deterministic matches are exactly the exponents t whose
    assignment (p_i | t) satisfies the formula; randomized matches include
    them, and both transcripts verify."""
    primes = first_primes(6)
    for seed, k in enumerate((10, 20, 40)):
        cnf = seeded_formula(6, k, 600 + seed)
        good = {bits for bits in itertools.product((0, 1), repeat=6) if satisfies(cnf, bits)}
        sat = [t for t in range(primorial(6))
               if tuple(int(t % q == 0) for q in primes) in good]
        det = pipeline(cnf, Config(mode="deterministic"))
        assert scan_polys(encode_system(cnf), det.omega, det.prime.p, 6) == sat
        assert (det.match_count, det.first_match) == (len(sat), sat[0] if sat else None)
        rnd = pipeline(cnf, Config(mode="randomized", seed=seed))
        layout = _layout(encode_system(cnf), primorial(6))
        rows = _rows(True, rnd.a, rnd.b, len(cnf.clauses))
        tables = DftTables(layout, rnd.omega, rnd.prime.p, 6)
        assert set(sat) <= set(_scan_roots(tables, rows, rnd.omega, rnd.prime.p, 6))
        assert rnd.match_count >= len(sat)
        for t in (det, rnd):
            ok, checks = verify_transcript(t.to_obj())
            assert ok, checks


def test_pipeline_matches_the_truth_table_at_seven_variables():
    """With Caps(max_vars=7), on a 30-clause formula at n = 7 whose tables
    reach 17*13*11 = 2431 slots, the deterministic matches are exactly the
    exponents t < Q_7 = 510510 whose assignment (p_i | t) satisfies the
    formula, the matches of each run of a 5-run randomized report, scanned
    on the DFTs of the expanded clauses, include them, and every run
    verifies with the same caps."""
    caps, primes, q_n = Caps(max_vars=7), first_primes(7), primorial(7)
    cnf = seeded_formula(7, 30, 700)
    assert 17 * 13 * 11 in {period for period, _ in _encoding(None, cnf, caps.term_count)[1]}
    good = {bits for bits in itertools.product((0, 1), repeat=7) if satisfies(cnf, bits)}
    sat = [t for t in range(q_n) if tuple(int(t % q == 0) for q in primes) in good]
    assert sat
    det = pipeline(cnf, Config(mode="deterministic", caps=caps))
    assert (det.match_count, det.first_match) == (len(sat), sat[0])
    verdict, _, runs = run_with_majority(cnf, Config(seed=7, repeats=5, caps=caps))
    assert verdict and len(runs) == 5
    layout = _layout(encode_system(cnf), q_n)
    for t in runs:
        tables = DftTables(layout, t.omega, t.prime.p, 7)
        matches = _scan_roots(tables, _rows(True, t.a, t.b, len(cnf.clauses)), t.omega,
                              t.prime.p, 7)
        assert set(sat) <= set(matches)
        assert (t.match_count, t.first_match) == (len(matches), matches[0])
    for t in (det, *runs):
        ok, checks = verify_transcript(t.to_obj(), caps)
        assert ok, checks


def test_scan_is_linear_in_repeated_clauses():
    """Thousands of copies of one clause: a deterministic run scans one
    one-entry row per clause and a randomized run two rows, so neither the
    rows nor the layout grow with k**2, and both transcripts verify."""
    cnf = Cnf3.from_signed(2, [[1]] * 5000 + [[-2]])
    start = time.perf_counter()
    for mode in ("deterministic", "randomized"):
        t = pipeline(cnf, Config(mode=mode, seed=3))
        assert t.verdict and t.witness == (1, 0)
        ok, checks = verify_transcript(t.to_obj())
        assert ok, checks
    assert time.perf_counter() - start < 5.0


# -- value tables shared by the runs of a report --------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_log_matches_brute_force(n):
    """For every primitive Q_n-th root omega0 and every Q_n-th root omega,
    _root_log finds the one u < Q_n with omega0**u = omega; a number that is
    no Q_n-th root raises ValueError."""
    rng = random.Random(400 + n)
    p, q_n, omega = scan_setting(n, rng)
    roots = [pow(omega, t, p) for t in range(q_n)]
    for unit in (v for v in range(1, q_n + 1) if math.gcd(v, q_n) == 1):
        omega0 = roots[unit % q_n]
        powers = [pow(omega0, u, p) for u in range(q_n)]
        for x in roots:
            assert _root_log(x, omega0, p, n) == powers.index(x)
    for x in [x for x in range(2, p) if pow(x, q_n, p) != 1][:3]:
        with pytest.raises(ValueError):
            _root_log(x, omega, p, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", ["default", "deterministic", "sample"])
def test_every_run_of_a_report_matches_the_naive_scan_at_its_own_omega(n, mode, monkeypatch):
    """The runs of a report (and their re-verification) read value tables
    made at the first run's omega, one set per prime, yet each run's scan
    finds exactly the naive common roots at its own omega."""
    extra = {"default": {}, "deterministic": {"mode": "deterministic"},
             "sample": {"prime_strategy": "sample", "repeats": 3}}[mode]
    scans = []
    real = reduce_mod._scan_roots
    monkeypatch.setattr(reduce_mod, "_scan_roots",
                        lambda *args: scans.append((args[2], real(*args))) or scans[-1][1])
    # (k, formula seed, run seed); in the default mode a later run of
    # (12, 180, *) has a spurious match, which it finds only at its own root
    cases = {1: [(2, 171, 0), (6, 172, 1)], 2: [(4, 171, 0), (12, 172, 1), (12, 180, 1)],
             3: [(7, 171, 0), (20, 172, 1), (12, 180, 2)], 4: [(10, 171, 0), (30, 172, 1)],
             5: [(8, 171, 0)]}[n]
    for k, formula_seed, seed in cases:
        cnf = seeded_formula(n, k, formula_seed)
        _, _, runs = run_with_majority(cnf, Config(seed=seed, **extra))
        assert len(runs) == {"default": 5, "deterministic": 1, "sample": 3}[mode]
        if mode == "sample" and n > 1:
            assert len({t.prime.p for t in runs}) > 1
        if mode == "default" and n > 1:
            assert len({t.omega for t in runs}) > 1
        encodings = {}
        for t in runs:
            ok, checks = verify_transcript(t.to_obj(), None, encodings)
            assert ok, checks
        assert [omega for omega, _ in scans] == [t.omega for t in runs] * 2
        for t, (_, matches), (_, verified) in zip(runs, scans, scans[len(runs):]):
            polys = encode_system(cnf) if t.g1 is None else [t.g1, t.g2]
            assert matches == verified == naive_roots(polys, t.omega, t.prime.p, t.q_n)
            assert (t.match_count, t.witness) == (len(matches), _decode_witness(cnf, matches))
        scans.clear()


def test_a_report_whose_first_omega_is_not_primitive():
    """A tampered first run fails its omega check and makes no tables; the
    later runs make them at their own omega and verify."""
    cnf = seeded_formula(4, 10, 171)
    _, _, runs = run_with_majority(cnf, Config(seed=1))
    objs = [t.to_obj() for t in runs]
    objs[0]["omega"] = str(pow(runs[0].omega, 2, runs[0].prime.p))
    encodings = {}
    results = [verify_transcript(obj, None, encodings) for obj in objs]
    assert [ok for ok, _ in results] == [False, True, True, True, True]
    assert {c["name"]: c["ok"] for c in results[0][1]}["omega"] is False
    (by_prime,) = [encoded[2] for encoded in encodings.values()]
    assert {p: tables.omega0 for p, tables in by_prime.items()} == {runs[1].prime.p: runs[1].omega}


def test_a_report_makes_each_table_once_and_expands_nothing(monkeypatch):
    """Five runs at n = 5, and their re-verification, make the table of each
    distinct clause polynomial once (a repeated clause shares its table),
    and neither a run nor its verification expands a clause polynomial or
    transforms one; a deterministic scan that empties early makes only the
    tables of the clauses it reached."""
    cnf = seeded_formula(5, 21, 0)
    assert truth_table_sat(cnf) is not None  # so no scan empties early
    distinct = set(_layout(encode_system(cnf), primorial(5)))
    assert len(distinct) < 21
    signs = itertools.product((1, -1), repeat=3)
    unsat = Cnf3.from_signed(3, [[1], [-1]] + [[a, 2 * b, 3 * c] for a, b, c in signs])
    assert len(set(encode_system(unsat))) == len(unsat.clauses) == 10
    made = []
    real = _Tables.make
    monkeypatch.setattr(_Tables, "make", lambda self, *args: made.append(args) or real(self, *args))

    def refuse(*args, **kwargs):
        raise AssertionError("a clause polynomial was expanded or transformed")

    for owner, name in ((reduce_mod, "encode_system"), (plaisted_mod, "encode_system"),
                        (plaisted_mod, "expand"), (helpers, "_dft")):
        monkeypatch.setattr(owner, name, refuse)
    verdict, _, runs = run_with_majority(cnf, Config(seed=2))
    assert verdict and len(runs) == 5 and len({t.omega for t in runs}) == 5
    assert len({t.prime.p for t in runs}) == 1
    assert len(made) == len(set(made)) == len(distinct)
    made.clear()
    encodings = {}
    assert all(verify_transcript(t.to_obj(), None, encodings)[0] for t in runs)
    assert len(made) == len(distinct)
    made.clear()
    _, _, (run,) = run_with_majority(unsat, Config(mode="deterministic"))
    assert not run.verdict
    assert len(made) == 2


# -- transcripts ----------------------------------------------------------------------


def test_transcript_reproducibility():
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3]])
    for mode in ("deterministic", "randomized"):
        cfg = Config(mode=mode, seed=123)
        t1 = pipeline(cnf, cfg)
        t2 = pipeline(cnf, cfg)
        assert transcript_dumps(t1.to_obj()) == transcript_dumps(t2.to_obj())
    # different seeds draw different combinations
    cnf3 = Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3], [1, -2, 3]])
    a = pipeline(cnf3, Config(mode="randomized", seed=1))
    b = pipeline(cnf3, Config(mode="randomized", seed=2))
    assert a.a != b.a


def test_transcript_round_trip_and_verify():
    """from_obj reads back what to_obj writes, through JSON, for a run of
    each kind, and each verifies; a transcript with a bad prime and a bad n
    fails to parse on its prime, which from_obj reads first."""
    k3 = Cnf3.from_signed(3, [[1, 2, 3], [-1, 2, -3], [1, -2, 3]])
    runs = {
        "randomized, k >= 3": (k3, Config(seed=99)),
        "randomized, k <= 2": (Cnf3.from_signed(3, [[1, 2, 3], [-1, 2, -3]]), Config(seed=99)),
        "k = 0": (Cnf3.from_signed(3, []), Config(seed=99)),
        "deterministic": (k3, Config(mode="deterministic")),
        "sampled prime": (k3, Config(seed=99, prime_strategy="sample")),
    }
    shapes = {}
    for kind, (cnf, config) in runs.items():
        t = pipeline(cnf, config)
        obj = json.loads(transcript_dumps(t.to_obj()))
        assert ReductionTranscript.from_obj(obj) == t, kind
        ok, checks = verify_transcript(obj)
        assert ok, (kind, checks)
        shapes[kind] = (t.mode, t.k, t.a is not None, t.qnr is not None, t.prime_strategy)
    assert shapes == {
        "randomized, k >= 3": ("randomized", 3, True, True, "scan"),
        "randomized, k <= 2": ("randomized", 2, False, True, "scan"),
        "k = 0": ("randomized", 0, False, False, "scan"),
        "deterministic": ("deterministic", 3, False, False, "scan"),
        "sampled prime": ("randomized", 3, True, True, "sample"),
    }
    obj = pipeline(k3, Config(seed=99)).to_obj()
    assert obj["prime"]["p"] == "31"
    obj["prime"]["p"], obj["n"] = "61", 2.5
    assert verify_transcript(obj) == (
        False, [{"name": "parse", "ok": False, "detail": "p must equal 1 + k * q_n"}])


def pinned(first, *edits):
    """The edits as pytest params with fixed ids, <lambda>first and on: the
    ids that pytest gave them by position, so that adding a case renames no
    other.  A new case takes the next free number (40 and on)."""
    return [pytest.param(edit, id=f"<lambda>{i}") for i, edit in enumerate(edits, first)]


TAMPERINGS = pinned(
    0,
    lambda o: o.__setitem__("verdict", not o["verdict"]),
    lambda o: o.__setitem__("match_count", o["match_count"] + 1),
    lambda o: o.__setitem__("witness", None),
    lambda o: o.__setitem__("qnr", "2"),
    lambda o: o.__setitem__("omega", "2"),
    lambda o: o["prime"].__setitem__("p", "61"),
    lambda o: o["cnf"]["clauses"].__setitem__(0, [-1, 2, 3]),
    lambda o: o.__setitem__("big_n", "17"),
    lambda o: o.__setitem__("first_match", "0"),
    lambda o: o.__setitem__("big_n", None),
    lambda o: o.__setitem__("b", None),
    lambda o: o.__setitem__("witness", [1, 0]),
    # integer fields: JSON integers or an optional '-' and ASCII digits
    lambda o: o["prime"].__setitem__("p", " " + o["prime"]["p"]),
    lambda o: o.__setitem__("n", float(o["n"])),
    # combination vectors out of their range or of the wrong length
    lambda o: o["a"].__setitem__(0, "0"),
    lambda o: o["a"].__setitem__(0, str(int(o["big_n"]) + 1)),
    lambda o: o["b"].pop(),
    # the verdict is a JSON boolean, not any value with a truth value
    lambda o: o.__setitem__("verdict", "false"),
    lambda o: o.__setitem__("verdict", "no"),
    lambda o: o.__setitem__("verdict", 1),
    lambda o: o.__setitem__("verdict", [0]),
    # a run's mode, prime strategy and seed agree, and its prime is for its n
    lambda o: as_deterministic(o, mode="banana"),
    lambda o: as_deterministic(o, mode="banana", seed="7"),
    lambda o: as_deterministic(o, prime_strategy="banana"),
    lambda o: as_deterministic(o, prime_strategy="sample"),
    lambda o: as_deterministic(o, seed="7"),
    lambda o: o.__setitem__("prime_strategy", "banana"),
    lambda o: o.__setitem__("seed", None),
    lambda o: o["prime"].__setitem__("n", 2),
    # omega is a power of a recorded generator, and a scanned k is its k-th trial
    lambda o: o.__setitem__("generator", "0"),
    lambda o: o.__setitem__("generator", "1"),
    lambda o: o.__setitem__("generator", str(int(o["prime"]["p"]) + 5)),
    lambda o: o.__setitem__("generator", str(int(o["prime"]["p"]) + int(o["generator"]))),
    lambda o: o.__setitem__("generator", str(pow(int(o["generator"]), 7, int(o["prime"]["p"])))),
    lambda o: o["prime"].__setitem__("trials_used", 999),
) + pinned(
    40,
    # a k >= 3 run carries its combination vectors
    lambda o: as_pass_through(o),
)
# Edits of what only the v2 and v1 formats recorded, which are no longer read:
# in v3, g1 is rebuilt from a, so an in-range change of a[0] is a different
# but consistent run, and there is no g1 or h to edit.
V2_TAMPERINGS = pinned(
    35,
    lambda o: o["a"].__setitem__(0, "1"),
    lambda o: o["g1"]["terms"].__setitem__(0, ["1", "0"]),
)
V1_TAMPERINGS = pinned(
    37,
    lambda o: o["h"]["terms"].__setitem__(0, [str(int(o["h"]["terms"][0][0]) + 1),
                                              o["h"]["terms"][0][1]]),
    lambda o: o.__setitem__("h", None),
    lambda o: o.pop("h"),
)


def as_deterministic(o, **changes):
    """Relabel a randomized run without spurious matches as the deterministic
    run it then equals: the same matches, no seed and no combination data;
    changes are applied on top."""
    nulls = ("seed", "a", "b", "qnr", "big_n", "max_degree")
    o.update(dict.fromkeys(nulls), **{"mode": "deterministic", **changes})


def v3_form(o):
    """A run object's TRANSCRIPT_FORMAT fields under that format: the run
    itself in v3, and without its recorded polynomials in v2 or v1."""
    v3 = {key: value for key, value in o.items() if key not in {"g1", "g2", "h"}}
    return v3 | {"format": TRANSCRIPT_FORMAT}


def claim_scan(o, polys):
    """Set the run's verdict, match count, first match and witness to those
    of the common roots of polys among the powers of its omega."""
    t = ReductionTranscript.from_obj(v3_form(o))
    matches = naive_roots(polys, t.omega, t.prime.p, t.q_n)
    witness = _decode_witness(t.cnf, matches)
    o.update(verdict=bool(matches), match_count=len(matches),
             first_match=str(matches[0]) if matches else None,
             witness=None if witness is None else list(witness))


def as_pass_through(o):
    """Drop a run's combination vectors and bound, and claim the scan of its
    first and last clause polynomials, as a run with k <= 2 would."""
    o.update(dict.fromkeys(("a", "b", "big_n", "max_degree")))
    polys = encode_system(ReductionTranscript.from_obj(v3_form(o)).cnf)
    claim_scan(o, [polys[0], polys[-1]])


def tampering_subject():
    # three clauses (real combination vectors), and the all-true encoding
    # t = 0 is not a match, so first_match tampering is detectable
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3], [1, -2, 3]])
    return pipeline(cnf, Config(mode="randomized", seed=13))


@pytest.mark.parametrize("mutate", TAMPERINGS)
def test_verify_transcript_detects_tampering(mutate):
    t = tampering_subject()
    assert t.first_match != 0
    obj = t.to_obj()
    assert obj["format"] == TRANSCRIPT_FORMAT and not {"g1", "g2", "h"} & obj.keys()
    ok, _ = verify_transcript(obj)
    assert ok
    mutate(obj)
    ok, checks = verify_transcript(obj)
    assert not ok, checks


def test_the_tampering_subject_relabelled_as_deterministic_verifies():
    """The TAMPERINGS that build on as_deterministic fail only for their
    changes."""
    obj = tampering_subject().to_obj()
    as_deterministic(obj)
    ok, checks = verify_transcript(obj)
    assert ok, checks
    assert "no-combination" in {c["name"] for c in checks}


def test_verify_transcript_refuses_combination_vectors_below_three_clauses():
    """A randomized run with k = 2 passes its clause polynomials through, so
    a run that carries a and b fails combination-bound, even when its bound
    and scan fields are those of its a and b."""
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3]])
    obj = pipeline(cnf, Config(seed=0)).to_obj()
    assert obj["a"] is None and verify_transcript(obj)[0]
    polys = encode_system(cnf)
    d = max(f.degree for f in polys)
    obj.update(a=["1", "1"], b=["1", "1"], max_degree=str(d), big_n=str(18 * d * 2 ** 2))
    claim_scan(obj, [polys[0] + polys[1]])
    ok, checks = verify_transcript(obj)
    assert not ok
    assert [c["name"] for c in checks if not c["ok"]] == ["combination-bound"]


def test_verify_transcript_tests_the_generator_at_the_primes_of_k():
    """A generator that misses a prime q of k = (p - 1)/q_n not dividing q_n
    fails the omega check, though its k-th power is the recorded omega: g**e
    with e = 1 modulo q_n and e = 0 modulo q."""
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3], [1, -2, 3]])
    t = pipeline(cnf, Config(seed=0, prime_strategy="sample"))
    (p, k), q = (t.prime.p, t.prime.k), 83
    assert k == 5 * q and verify_transcript(t.to_obj())[0]
    g = pow(t.generator, q * pow(q, -1, t.q_n), p)
    assert pow(g, k, p) == t.omega and pow(g, (p - 1) // q, p) == 1
    ok, checks = verify_transcript(t.to_obj() | {"generator": str(g)})
    assert [c["name"] for c in checks if not c["ok"]] == ["omega"]


def test_verify_transcript_deterministic_mode():
    cnf = Cnf3.from_signed(2, [[1, 2], [-1, 2]])
    t = pipeline(cnf, Config(mode="deterministic"))
    obj = t.to_obj()
    ok, _ = verify_transcript(obj)
    assert ok
    obj["g1"] = {"terms": [["1", "0"]]}
    ok, _ = verify_transcript(obj)
    assert not ok


def test_verify_transcript_rejects_unknown_format():
    ok, checks = verify_transcript({"format": "something-else"})
    assert not ok and checks[0]["name"] == "parse"


def test_verify_transcript_refuses_a_transcript_that_is_not_an_object():
    assert verify_transcript([]) == (False, [
        {"name": "parse", "ok": False, "detail": "a transcript must be a JSON object"}])


@pytest.mark.parametrize("mode", ["randomized", "deterministic"])
def test_old_transcript_formats_are_refused(mode, tmp_path, capsys):
    """Only TRANSCRIPT_FORMAT is read: a v2 or v1 transcript, bare or as the
    run of a report, fails the parse check by its format, and
    verify-transcript exits 1 on it."""
    cnf = Cnf3.from_signed(4, [[1, 2, 3], [-1, -2, 4], [2, -3, -4], [1, -4, 3]])
    run = pipeline(cnf, Config(mode=mode, seed=8)).to_obj()
    assert verify_transcript(run)[0]
    for old, name in ((to_v2(run), TRANSCRIPT_FORMAT_V2), (to_v1(run), TRANSCRIPT_FORMAT_V1)):
        assert old["format"] == name
        refusal = [{"name": "parse", "ok": False, "detail": f"unknown transcript format '{name}'"}]
        assert verify_transcript(old) == (False, refusal)
        as_run = {"run": 0, "ok": False, "checks": refusal}
        for obj, results in ((old, {"checks": refusal}), ({"runs": [old]}, {"runs": [as_run]})):
            path = tmp_path / "old.json"
            path.write_text(transcript_dumps(obj))
            assert main(["verify-transcript", str(path)]) == 1
            out = json.loads(capsys.readouterr().out)
            assert out == {"command": "verify-transcript", "ok": False, **results}


def assert_refused_tampered(old, mutate):
    """A v2 or v1 transcript object, edited by mutate, fails the parse check
    by its format, and, relabelled as TRANSCRIPT_FORMAT, by the polynomials
    it records.  Without them it is a v3 run, which verifies exactly when the
    edit touched only what v3 does not record."""
    name = old["format"]
    mutate(old)
    assert verify_transcript(old) == (False, [
        {"name": "parse", "ok": False, "detail": f"unknown transcript format '{name}'"}])
    recorded = sorted({"g1", "g2", "h"} & old.keys())
    assert verify_transcript(old | {"format": TRANSCRIPT_FORMAT}) == (False, [
        {"name": "parse", "ok": False, "detail": f"unknown transcript fields {recorded}"}])
    ok, checks = verify_transcript(v3_form(old))
    old_only = [param.values[0] for param in V2_TAMPERINGS + V1_TAMPERINGS]
    assert ok == (mutate in old_only), checks


@pytest.mark.parametrize("mutate", TAMPERINGS + V2_TAMPERINGS)
def test_verify_transcript_v2_detects_tampering(mutate):
    assert_refused_tampered(to_v2(tampering_subject().to_obj()), mutate)


@pytest.mark.parametrize("mutate", TAMPERINGS + V2_TAMPERINGS + V1_TAMPERINGS)
def test_verify_transcript_v1_detects_tampering(mutate):
    assert_refused_tampered(to_v1(tampering_subject().to_obj()), mutate)


@pytest.mark.parametrize("convert", [lambda o: o, to_v2, to_v1])
@pytest.mark.parametrize("name", ["g1", "g2", "h"])
def test_deterministic_runs_carry_no_polynomials(convert, name):
    """A deterministic run that carries a g1, g2 or h fails the parse check:
    in TRANSCRIPT_FORMAT for that field, which no format read has, and in
    the v2 and v1 forms for their format, which is no longer read."""
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1, 2, -3]])
    run = pipeline(cnf, Config(mode="deterministic")).to_obj()
    assert verify_transcript(run)[0]
    obj = convert(run)
    obj[name] = {"terms": [["1", "0"]]}
    ok, checks = verify_transcript(obj)
    assert not ok
    assert [c["name"] for c in checks if not c["ok"]] == ["parse"]
    detail = (f"unknown transcript fields ['{name}']" if obj["format"] == TRANSCRIPT_FORMAT
              else f"unknown transcript format '{obj['format']}'")
    assert checks[0]["detail"] == detail


def test_pair_is_rebuilt_from_the_drawn_combination(monkeypatch):
    """g1 and g2 read from a transcript, also after a round trip through its
    v3 object, are the combinations of the clause polynomials by the a and b
    that the run drew (k >= 3), or the first and last clause polynomial (no
    draw for k <= 2)."""
    drawn = []
    real = reduce_mod._draw
    monkeypatch.setattr(reduce_mod, "_draw", lambda *args: drawn.append(real(*args)) or drawn[-1])
    for clauses in ([[1, 2, 3]], [[1, 2, 3], [-1, 2, -3]], [[1, 2, 3], [-1, -2, -3], [1, -2, 3]]):
        cnf = Cnf3.from_signed(3, clauses)
        polys = encode_system(cnf)
        t = pipeline(cnf, Config(seed=5))
        if len(clauses) > 2:
            a, b = drawn.pop()
            pair = tuple(sum((c * f for c, f in zip(v, polys)), SparsePoly()) for v in (a, b))
        else:
            a = b = None
            pair = (polys[0], polys[-1])
        assert not drawn and (t.a, t.b) == (a, b)
        assert t.pair() == pair == ReductionTranscript.from_obj(t.to_obj()).pair()


# Digests of the reports that the v1 code (before transcript v2) printed for
# `reduce` on seeded formulas.  A v3 report with the rebuilt g1 and g2 and the
# expanded h put back into every run, the v1 format string, and the config
# keys removed since then ("threads": 1, the sampling exponents and three
# unread caps) put back must reproduce them byte for byte: the verdicts,
# matches, witnesses and every other recorded value are unchanged.
V1_REPORT_DIGESTS = {
    ((1, 2, 11), 0): "ba1e1eef1054300c64898f3a085f4d42738916c66a9fe19c1f252e44145aaced",
    ((1, 2, 11), 1): "162b256f3fba72da9e03c265f9e42e55b382de9a52f62c3f1eaa410ec2e7d987",
    ((1, 2, 11), 2): "e9109bb0bf7410d1ac05e3f8fae3bf33c8ed29b25b19d9fea6c01dfc406f9e3c",
    ((2, 4, 12), 0): "2228d012b01cd103e3998d9b1b536f75cff20118cd8ce8935cee794454fa00e4",
    ((2, 4, 12), 1): "78a4653bde99645ad8f9d417f581bc2e3f00aa2ff184a1a48c649a7d4fa4d3cf",
    ((2, 4, 12), 2): "18306c139b0154f8fb6da354718b14c4293bccd13a81f2073bb10f87518c7e61",
    ((3, 7, 13), 0): "ae824fa2807e955435e50f732ea80fb27d322ae4401e0b12c9e9421af52e2e8f",
    ((3, 7, 13), 1): "250444c6b1ae2e274f01e8d1e5670a29b03f874903a30ff5082e95f92785adea",
    ((3, 7, 13), 2): "b57fafe2e27378e61f58826b60cc54aeb00f6b6948b0fe29143c636dba1814d3",
    ((4, 12, 14), 0): "6ef8ba350c3b08525991e8207512411ac67d29c688ad497abfe1013eaaeafca2",
    ((4, 12, 14), 1): "4ba8bb326daf9c621fc0d67fa50bbf0031941c0804c30700934efe23e88b603f",
    ((4, 12, 14), 2): "f9bd184550004f71b37836c200fdd2cc602dee28a8db63850790aecadf769e8a",
    ((5, 21, 15), 0): "643e9b5fe229ff0428eb89c5534db088c1ceb8095c4933948607e988d61fdf0e",
    ((5, 21, 15), 1): "21a765c52d46fdcb10e1608999ff6a4d42219e8b4a5b068b21fd7b6171a822fe",
    ((5, 21, 15), 2): "a9a75058bf1095dd66aae75dc488c4267cd63bd839f56e918382562d77c724df",
    ((3, 16, 16), 0): "27fb14cd821666c32ee81ee5c630784db5b2120ccddf33525b8ff8e930ff28e3",
    ((3, 16, 16), 1): "91de866cfd2275a046711e0ea69d0a3bca470f45cded9c24a0f8eab64754b0a7",
    ((3, 16, 16), 2): "cd26f2689a3289c7a8133dc95f7b0b30c0822ac3d3353cb740f6c47951b3cf61",
}
V1_REPORT_ARGS = [
    ["--seed", "3"],
    ["--mode", "deterministic"],
    ["--seed", "4", "--prime-strategy", "sample", "--repeats", "3"],
]


# Digests of the reports that the v2 code (before transcript v3) printed for
# the same formulas and arguments.  A v3 report with the rebuilt g1 and g2 put
# back into every run and the v2 format string must reproduce them.
V2_REPORT_DIGESTS = {
    ((1, 2, 11), 0): "6fb601bf86249288398aff52e710b0b8bc020cf9c421718ccbe8042dec5ac4d6",
    ((1, 2, 11), 1): "3131900e127e07e0b9c6fda6299db3f9a22bcb8c84a7590b58f540ddafe1bc37",
    ((1, 2, 11), 2): "3748f7b46e88d1a76924cd095005b197d4fd5b10601e729c42433620ff96dfb1",
    ((2, 4, 12), 0): "2841a433c873a2ac9feef0e18792233e76f41f0d94d3166d2014622bc30918c4",
    ((2, 4, 12), 1): "d0c9dc8ab192ba80865326f2503696971d48b347bd1e6c08d06b154fe86a6313",
    ((2, 4, 12), 2): "22501e2e88781b8db541b62b9e4a5a8b41a430ec8902d0b102a2e6bffc28ed23",
    ((3, 7, 13), 0): "95ed4acf2dd5fc77b33e9b599f7acb05c6673332d0452e7e94c62b30dd595149",
    ((3, 7, 13), 1): "b05608c197fe6e29e0f0c9ed6b21d0c4509fc4c25602b2c84ccc0438fa85fc5f",
    ((3, 7, 13), 2): "b9544334dbdb151fc7ef3cc76e60f9c2ae424e74e19b4f8cbb0685d7e7fdcfad",
    ((4, 12, 14), 0): "757704cbd8bf0800ecdbc3760569b34c605a97f896c9701fea2317206aa57a74",
    ((4, 12, 14), 1): "fbd9ef07e95a48957f3bc34e3c7abe2da1583265ff5745a1cfecdfdb56573e6c",
    ((4, 12, 14), 2): "29cf71954af6db1d56c357d4feb05e6728d302dad9e963615e5784f92e7eae25",
    ((5, 21, 15), 0): "712895b6389d26a7caf328d3c5ddc3781ae2cb9ba7214b0a068079b5c56d5e7d",
    ((5, 21, 15), 1): "b54b8c43dcfceb9badc7363b7f7bac01211235ba677fb6772c7fa35b5f7fe12c",
    ((5, 21, 15), 2): "035a615ff07f7d2f834f202dd491322a2c5f5611366bfc8cdd22ab96f5cfabad",
    ((3, 16, 16), 0): "afbba63bc498aa1dc0b659c764a9b8c686c2cdc4a2743b38744de22f8d4ffbe1",
    ((3, 16, 16), 1): "61ebbbbc0b9289726a90e62aeb8412404028c1f259888c519a8bee898874568a",
    ((3, 16, 16), 2): "f167b50980604dff0da2fb8c98fb9d756537da886934f79947a5cc48b3296081",
}


def reduce_reports(formula, tmp_path, capsys):
    """The report of `reduce` on a seeded formula, for each V1_REPORT_ARGS."""
    path = tmp_path / "f.cnf"
    path.write_text(format_dimacs(seeded_formula(*formula)))
    for args in V1_REPORT_ARGS:
        main(["reduce", str(path)] + args)
        report = json.loads(capsys.readouterr().out)
        for run in report["runs"]:
            assert run["format"] == TRANSCRIPT_FORMAT and not {"g1", "g2", "h"} & run.keys()
        yield report


@pytest.mark.parametrize("formula", sorted({f for f, _ in V2_REPORT_DIGESTS}))
def test_v3_report_is_the_v2_report_without_g1_and_g2(formula, tmp_path, capsys):
    for i, report in enumerate(reduce_reports(formula, tmp_path, capsys)):
        report["runs"] = [to_v2(run) for run in report["runs"]]
        text = transcript_dumps(report)
        assert report_digest(text) == V2_REPORT_DIGESTS[formula, i]


@pytest.mark.parametrize("formula", sorted({f for f, _ in V1_REPORT_DIGESTS}))
def test_v2_report_is_the_v1_report_without_h(formula, tmp_path, capsys):
    for i, report in enumerate(reduce_reports(formula, tmp_path, capsys)):
        config = report["config"]
        assert not REMOVED_CONFIG.keys() & config.keys()
        assert not REMOVED_CAPS.keys() & config["caps"].keys()
        config.update(REMOVED_CONFIG)
        config["caps"].update(REMOVED_CAPS)
        report["runs"] = [to_v1(run) for run in report["runs"]]
        text = transcript_dumps(report)
        assert report_digest(text) == V1_REPORT_DIGESTS[formula, i]


# Digests of the verify-transcript reports on the reduce reports of the
# V1_REPORT_DIGESTS formulas and arguments.  Their v2 and v1 forms, which
# verified up to transcript v3, now fail the parse check of every run.
VERIFY_REPORT_DIGESTS = {
    ((1, 2, 11), 0, "v3"): "84c721c52e14a4158bd6a843104c14b1de7d3d77a070dd976d9529d475c16bb7",
    ((1, 2, 11), 1, "v3"): "f3889dbaa679064bd0f832029a5c9b6b4a55c0e740492a5e4646f4cdb4234dbd",
    ((1, 2, 11), 2, "v3"): "0aa079561d3e9808f8f45bbd090634a9962aad8dee6b237c384c0889e9897a4b",
    ((2, 4, 12), 0, "v3"): "910d43e81475445f9d2c70d5384c62687aab78222c2099cccc48cdd11258736c",
    ((2, 4, 12), 1, "v3"): "284d6bdc1e14c016d774beb08258dcae416c65bbe898f56b2bdd23488514a04e",
    ((2, 4, 12), 2, "v3"): "53c2e93b129b19426edc2c32622f683d97043e957aa3d8663ae075f49c4953c7",
    ((3, 7, 13), 0, "v3"): "eda0fb53f3de82eb24ccda7601960e360f23ff150aeb30c91f868c91b5acfe68",
    ((3, 7, 13), 1, "v3"): "0d9c391fb83309ea761e169c761e727925ff2220dc3db93c0278a779a5f5a8f5",
    ((3, 7, 13), 2, "v3"): "8f32770376876763c74debdaa44f38233275b06f6eebc27992b0ff02c6981e52",
    ((3, 16, 16), 0, "v3"): "0eb0fb1164a55c2fd09a373ec2e7338943a3180d0762ffa074b81904c6ccf0cf",
    ((3, 16, 16), 1, "v3"): "bdd27283e263ac0ff504bda9897651b5aa9342d87572361341a6d92e7fac9f82",
    ((3, 16, 16), 2, "v3"): "3fc789f2ecca247181c1589ea1cfac37132740e8d48d0702de2dc3df63210314",
    ((4, 12, 14), 0, "v3"): "e2f5ee42a14b715ef6196a308e89f1ca5250a9f7466ef16d09337bd7eaa60669",
    ((4, 12, 14), 1, "v3"): "0af71b6a14a4a4c2fdbfeb3c2a0d109dfaf27d6c5391baea26173d4940d6da5e",
    ((4, 12, 14), 2, "v3"): "ae4671c8c06caec9f5c02a7dc155e020a58cb8126b25e6fe10afd2de945166cf",
    ((5, 21, 15), 0, "v3"): "5992efdb2318081f48fcad201be184ea9b630a6387ce05af6ae73f383708bdea",
    ((5, 21, 15), 1, "v3"): "4c57736817139f49d5e69cc52fb4b8a80ecd3e9991a8f826f40a5ef1ee699f32",
    ((5, 21, 15), 2, "v3"): "b35bfa96f24595bd56f31876ac9d38ef08fb96110ac6fc27c190f2e893ee34b0",
}


@pytest.mark.parametrize("formula", sorted({f for f, _, _ in VERIFY_REPORT_DIGESTS}))
def test_verify_reports_are_unchanged(formula, tmp_path, capsys):
    forms = {"v3": lambda run: run, "v2": to_v2, "v1": to_v1}
    for i, report in enumerate(list(reduce_reports(formula, tmp_path, capsys))):
        for form, convert in forms.items():
            path = tmp_path / f"{form}.json"
            path.write_text(transcript_dumps(report | {"runs": list(map(convert, report["runs"]))}))
            code = main(["verify-transcript", str(path)])
            out = capsys.readouterr().out
            if form == "v3":
                assert code == 0
                digest = report_digest(out)
                assert digest == VERIFY_REPORT_DIGESTS[formula, i, form]
            else:
                runs = json.loads(out)["runs"]
                assert code == 1 and len(runs) == len(report["runs"])
                assert all([c["name"] for c in run["checks"] if not c["ok"]] == ["parse"]
                           for run in runs)


# Digests of the v3 `reduce` reports, and of `verify-transcript` on them, that
# the scan printed before it read the tables in their own order, for one
# satisfiable formula at n = 5 and one at n = 6 and each V1_REPORT_ARGS.
V3_REPORT_DIGESTS = {
    ((5, 21, 17), 0, "reduce"): "ff6ddc7b3cf6ed4ea1b7643760dcb89a4c2c8061200962b3adcc9d747dc160a1",
    ((5, 21, 17), 0, "verify"): "5992efdb2318081f48fcad201be184ea9b630a6387ce05af6ae73f383708bdea",
    ((5, 21, 17), 1, "reduce"): "76d60521b442cb828b05baa57b359986c9ea99c18342abec30ea70eb5e0d0c88",
    ((5, 21, 17), 1, "verify"): "4c57736817139f49d5e69cc52fb4b8a80ecd3e9991a8f826f40a5ef1ee699f32",
    ((5, 21, 17), 2, "reduce"): "0e87169f9016284a33655df09f3a0261f63ad6551c222aa1c5956d8ad899c01a",
    ((5, 21, 17), 2, "verify"): "b35bfa96f24595bd56f31876ac9d38ef08fb96110ac6fc27c190f2e893ee34b0",
    ((6, 30, 18), 0, "reduce"): "f2db0b0029eb3a9af40805f3ac29ca41c0fe147b407fb0a16cb10d91f4391cff",
    ((6, 30, 18), 0, "verify"): "76688f111c01a89cad1a9b1abe281407ceebcaeb87e5928c0885f3d50474fbbd",
    ((6, 30, 18), 1, "reduce"): "84889d4ef88c9aa01ce2e22b8663dd81b7016817986c3fb1df0d9dbda8e29288",
    ((6, 30, 18), 1, "verify"): "1724ab1d3ae0e6e318af6ceeceba1ce2d9218a2efaac02eb0bdb60d0327f80b5",
    ((6, 30, 18), 2, "reduce"): "f615068b0cd16e0ca362cf3a90051c4e33cb7469172b632f1dabc0e87e22a863",
    ((6, 30, 18), 2, "verify"): "7cacaa9b3075baf759f9d06c58554913e31ee63d007293531edb37b23e2c55fe",
}


@pytest.mark.parametrize("formula", sorted({f for f, _, _ in V3_REPORT_DIGESTS}))
def test_v3_reduce_and_verify_reports_are_unchanged(formula, tmp_path, capsys):
    path, report = tmp_path / "f.cnf", tmp_path / "t.json"
    path.write_text(format_dimacs(seeded_formula(*formula)))
    for i, args in enumerate(V1_REPORT_ARGS):
        assert main(["reduce", str(path)] + args) == 0
        report.write_text(capsys.readouterr().out)
        assert main(["verify-transcript", str(report)]) == 0
        digests = {kind: report_digest(text)
                   for kind, text in (("reduce", report.read_text()),
                                      ("verify", capsys.readouterr().out))}
        assert digests == {kind: V3_REPORT_DIGESTS[formula, i, kind] for kind in digests}


# Digests of the `reduce` reports, and of `verify-transcript` on them, on two
# n = 6 formulas, 24 seeded 3-literal clauses with SHAPED_CLAUSES
# (satisfiable with seed 21, not with seed 20), for each V1_REPORT_ARGS:
# scanned and sampled primes, randomized and deterministic.  They were
# computed when each value table was the DFT of an expanded clause polynomial.
SHAPED_REPORT_DIGESTS = {
    (21, 0, "reduce"): "4a7aef7eeff86554e337de096c088d1a0380f14876dda19d3930ac41511a4828",
    (21, 0, "verify"): "76688f111c01a89cad1a9b1abe281407ceebcaeb87e5928c0885f3d50474fbbd",
    (21, 1, "reduce"): "7e8becb5c7f5af53da0f7f43d0074eb1a489b7bc46603db9ff9c4ccbb323283c",
    (21, 1, "verify"): "1724ab1d3ae0e6e318af6ceeceba1ce2d9218a2efaac02eb0bdb60d0327f80b5",
    (21, 2, "reduce"): "615cbaaa3e2f671d4e0f679ec83c187ed29f052341a5cb63c44f119cc8121cb3",
    (21, 2, "verify"): "7cacaa9b3075baf759f9d06c58554913e31ee63d007293531edb37b23e2c55fe",
    (20, 0, "reduce"): "6491b3c1c96d16409cfd7d1fba628da2d279fc6c77921320f9f9dba2d3f4db58",
    (20, 0, "verify"): "94cb8968fe40f31e7d38274a29fb18105570882eb3b5d3fbe7dfd0c4691f4b10",
    (20, 1, "reduce"): "194e2d54348bf279159c4c37e83681a62d2887b1949d5f65d569985e7dba76ff",
    (20, 1, "verify"): "2acfbd028050eaac6837caefb0219374b3afeec289d8aa160d5d11af7a22367b",
    (20, 2, "reduce"): "9674825cf48b1160640c7a2323dc1ed0c1e1171d8172ed1d7692d5cb1f951150",
    (20, 2, "verify"): "391c784dac3818d3deb042a893ce95db08364bf6f02523f4a9c0bbae3dcfb8b1",
}


@pytest.mark.parametrize("seed", [21, 20])
def test_reports_on_every_clause_shape_at_six_variables_are_unchanged(seed, tmp_path, capsys):
    path, report = tmp_path / "f.cnf", tmp_path / "t.json"
    cnf = Cnf3.from_signed(6, seeded_formula(6, 24, seed).to_signed() + SHAPED_CLAUSES)
    path.write_text(format_dimacs(cnf))
    for i, args in enumerate(V1_REPORT_ARGS):
        assert main(["reduce", str(path)] + args) == {21: 0, 20: 1}[seed]
        report.write_text(capsys.readouterr().out)
        assert main(["verify-transcript", str(report)]) == 0
        digests = {kind: report_digest(text)
                   for kind, text in (("reduce", report.read_text()),
                                      ("verify", capsys.readouterr().out))}
        assert digests == {kind: SHAPED_REPORT_DIGESTS[seed, i, kind] for kind in digests}


# What Caps(term_count=cap) makes pipeline and verify_transcript raise on the
# SHAPED_CLAUSES formula of seed 21 with its shaped clauses first: the first
# distinct clause whose expansion is longer than cap names its product.
# Pinned when every clause polynomial was expanded.
TERM_CAP_REFUSALS = {
    1: "expanding ((30030, 1),) exceeds the term cap of 1",
    2: "expanding ((910, 1), (2730, -1), (30030, 1)) exceeds the term cap of 2",
    30: "expanding ((910, 1), (2730, -1), (30030, 1)) exceeds the term cap of 30",
    100: "expanding ((30, 1), (210, -1), (330, -1), (390, -1), (2310, 1), (2730, 1), (4290, 1))"
         " exceeds the term cap of 100",
    201: "expanding ((30, 1), (210, -1), (330, -1), (390, -1), (2310, 1), (2730, 1), (4290, 1))"
         " exceeds the term cap of 201",
    1001: "expanding ((30, -1), (210, 1), (390, 1), (2730, -1), (30030, 1))"
          " exceeds the term cap of 1001",
    10 ** 6: None,
}


def test_term_cap_refusals_are_unchanged():
    """pipeline refuses before the prime search, in both modes, and
    verify_transcript once the omega check passes: a run whose omega fails
    is refused by its checks, not by the cap."""
    cnf = Cnf3.from_signed(6, SHAPED_CLAUSES + seeded_formula(6, 24, 21).to_signed())
    objs = [pipeline(cnf, Config(mode=mode, seed=1)).to_obj()
            for mode in ("randomized", "deterministic")]
    forged = objs[0] | {"omega": "1"}
    for cap, message in TERM_CAP_REFUSALS.items():
        caps = Caps(term_count=cap)
        calls = [lambda: pipeline(cnf, Config(seed=1, caps=caps)),
                 lambda: pipeline(cnf, Config(mode="deterministic", caps=caps))]
        calls += [lambda obj=obj: verify_transcript(obj, caps)[0] or pytest.fail("not verified")
                  for obj in objs]
        for call in calls:
            if message is None:
                call()
                continue
            with pytest.raises(CapsExceeded) as exc:
                call()
            assert str(exc.value) == message
        ok, checks = verify_transcript(forged, caps)
        assert not ok and [c["name"] for c in checks if not c["ok"]] == ["omega"]


def test_term_cap_refuses_as_the_expansion_does():
    """On random formulas and caps, the closed-form guard refuses exactly
    when encode_system does, with its message."""
    rng = random.Random(32)
    for _ in range(150):
        cnf = random_cnf(rng, max_vars=6, max_clauses=8)
        cap = rng.choice((rng.randint(1, 40), rng.randint(1, 1200)))
        refusals = []
        for encode in (lambda: encode_system(cnf, term_cap=cap),
                       lambda: _encoding(None, cnf, cap)):
            try:
                encode()
                refusals.append(None)
            except CapsExceeded as exc:
                refusals.append(str(exc))
        assert refusals[0] == refusals[1], (cnf, cap)


def test_verify_transcript_caps_variables_before_any_work():
    obj = pipeline(Cnf3.from_signed(3, [[1, -2, 3]]), Config(seed=2)).to_obj()
    obj["n"] = 10
    obj["cnf"]["num_vars"] = 10
    # Q_10 is about 6.5e9: any table of that length would not finish
    for candidate in (obj, to_v2(obj), to_v1(obj)):
        start = time.perf_counter()
        if candidate is obj:
            with pytest.raises(CapsExceeded):
                verify_transcript(candidate)
        else:  # an old format is refused as it is parsed
            ok, checks = verify_transcript(candidate)
            assert not ok and [c["name"] for c in checks] == ["parse"]
        assert time.perf_counter() - start < 1.0
    with pytest.raises(CapsExceeded):
        verify_transcript(obj | {"n": 3}, Caps(max_vars=3))
