import copy
import hashlib
import itertools
import json
import math
import random
import time

import pytest

import padicfeas.reduce as reduce_mod
from padicfeas.bigmod import find_generator, first_primes, primorial
from padicfeas.cli import main
from padicfeas.config import Caps, Config
from padicfeas.errors import CapsExceeded
from padicfeas.plaisted import Cnf3, encode_system, satisfies
from padicfeas.primes import find_prime_in_progression
from padicfeas.reduce import (
    TRANSCRIPT_FORMAT,
    TRANSCRIPT_FORMAT_V1,
    TRANSCRIPT_FORMAT_V2,
    ReductionTranscript,
    _chirp,
    _combine,
    _dft,
    _layout,
    _rows,
    _scan_roots,
    pair_to_single,
    pipeline,
    random_combine,
    run_with_majority,
    transcript_dumps,
    verify_transcript,
)
from padicfeas.sparsepoly import SparsePoly, gcd_dense, parse_poly, poly_to_obj

from helpers import format_dimacs, random_cnf, random_nonzero_sparse, truth_table_sat

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
    expect1 = SparsePoly.zero()
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
        e1 = e2 = SparsePoly.zero()
        for ai, bi, f in zip(a, b, polys):
            e1 = e1 + ai * f
            e2 = e2 + bi * f
        assert (g1, g2) == (e1, e2)
    f = parse_poly("x^3 - 2*x + 1")
    assert reduce_mod._combine((2, 1), [f, -2 * f]).is_zero


def test_random_combine_passthrough_and_errors():
    rng = random.Random(1)
    f, g = parse_poly("x-1"), parse_poly("x-2")
    assert random_combine([f], rng) == (f, f, None, None)
    assert random_combine([f, g], rng) == (f, g, None, None)
    with pytest.raises(ValueError):
        random_combine([f, SparsePoly.zero(), g], rng)
    with pytest.raises(ValueError):
        random_combine([], rng)


def test_random_combine_scalar_family_always_preserves_gcd():
    rng = random.Random(5)
    f = parse_poly("x^2 - 3*x + 2")
    base = gcd_dense(f, f)
    for _ in range(50):
        scalars = [rng.randint(1, 9) for _ in range(4)]
        polys = [s * f for s in scalars]
        g1, g2, _, _ = random_combine(polys, rng)
        assert gcd_dense(g1, g2) == base


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
            target = gcd_dense(target, f)
        g1, g2, _, _ = random_combine(polys, rng)
        if gcd_dense(g1, g2) == target:
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
    t = pipeline(cnf, Config(mode="randomized", seed=21), random.Random(21))
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
    return _scan_roots(_layout(polys, primorial(n)), _rows(False, None, None, len(polys)),
                       omega, p, n)


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
        polys = [f - SparsePoly.constant(f.eval_mod(x0, p)) for f in polys]
        want = naive_roots(polys, omega, p, q_n)
        assert t0 in want
        assert scan_polys(polys, omega, p, n) == want
    # a constant (period 1) and a polynomial whose coefficients are all 0 mod p
    for polys in ([SparsePoly.constant(p + 1)], [p * random_huge_sparse(rng, p, 4)]):
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


def dense(row):
    """The coefficient list of a sparse row, for _combine."""
    out = [0] * (1 + max((i for i, _ in row), default=-1))
    for i, r in row:
        out[i] += r
    return out


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
        row_sets = [[random_row(rng, p, k) for _ in range(rng.randint(1, 3))] for _ in range(4)]
        row_sets += [[[]], [[(i, 0) for i in range(k)], random_row(rng, p, k)],
                     _rows(True, None, None, k), _rows(False, None, None, k)]
        a, b = (tuple(rng.randint(1, 10 ** 9) for _ in range(k)) for _ in "ab")
        row_sets += [_rows(True, a, b, k), _rows(True, a, None, k), _rows(True, a[:-1], b + b, k)]
        for rows in row_sets:
            want = naive_roots([_combine(dense(row), polys) for row in rows], omega, p, q_n)
            assert _scan_roots(layout, rows, omega, p, n) == want, rows


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
        assert set(sat) <= set(_scan_roots(layout, rows, rnd.omega, rnd.prime.p, 6))
        assert rnd.match_count >= len(sat)
        for t in (det, rnd):
            ok, checks = verify_transcript(t.to_obj())
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


# -- transcripts ----------------------------------------------------------------------


def test_transcript_reproducibility():
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3]])
    for mode in ("deterministic", "randomized"):
        cfg = Config(mode=mode, seed=123)
        t1 = pipeline(cnf, cfg, random.Random(123))
        t2 = pipeline(cnf, cfg, random.Random(123))
        assert transcript_dumps(t1.to_obj()) == transcript_dumps(t2.to_obj())
    # different seeds draw different combinations
    cnf3 = Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3], [1, -2, 3]])
    a = pipeline(cnf3, Config(mode="randomized", seed=1), random.Random(1))
    b = pipeline(cnf3, Config(mode="randomized", seed=2), random.Random(2))
    assert a.a != b.a


def test_transcript_round_trip_and_verify():
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1, 2, -3]])
    t = pipeline(cnf, Config(mode="randomized", seed=99), random.Random(99))
    obj = t.to_obj()
    back = ReductionTranscript.from_obj(obj)
    assert back == t
    ok, checks = verify_transcript(obj)
    assert ok, checks
    ok, checks = verify_transcript(t)
    assert ok


TAMPERINGS = [
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
]
# Edits that only contradict a recorded g1: in v3, g1 is rebuilt from a, so an
# in-range change of a[0] is a different but consistent run, and there is no
# g1 to edit.
V2_TAMPERINGS = [
    lambda o: o["a"].__setitem__(0, "1"),
    lambda o: o["g1"]["terms"].__setitem__(0, ["1", "0"]),
]
V1_TAMPERINGS = [
    lambda o: o["h"]["terms"].__setitem__(0, [str(int(o["h"]["terms"][0][0]) + 1),
                                              o["h"]["terms"][0][1]]),
    lambda o: o.__setitem__("h", None),
    lambda o: o.pop("h"),
]


def tampering_subject():
    # three clauses (real combination vectors), and the all-true encoding
    # t = 0 is not a match, so first_match tampering is detectable
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1, -2, -3], [1, -2, 3]])
    return pipeline(cnf, Config(mode="randomized", seed=13), random.Random(13))


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


@pytest.mark.parametrize("mutate", TAMPERINGS + V2_TAMPERINGS)
def test_verify_transcript_v2_detects_tampering(mutate):
    obj = to_v2(tampering_subject().to_obj())
    ok, checks = verify_transcript(obj)
    assert ok, checks
    assert {"g1", "g2"} <= {c["name"] for c in checks}
    mutate(obj)
    ok, checks = verify_transcript(obj)
    assert not ok, checks


@pytest.mark.parametrize("mutate", TAMPERINGS + V2_TAMPERINGS + V1_TAMPERINGS)
def test_verify_transcript_v1_detects_tampering(mutate):
    obj = to_v1(tampering_subject().to_obj())
    ok, checks = verify_transcript(obj)
    assert ok, checks
    assert any(c["name"] == "h" for c in checks)
    mutate(obj)
    ok, checks = verify_transcript(obj)
    assert not ok, checks


def test_v1_transcripts_still_verify():
    cnf = Cnf3.from_signed(4, [[1, 2, 3], [-1, -2, 4], [2, -3, -4], [1, -4, 3]])
    for mode in ("randomized", "deterministic"):
        obj = to_v1(pipeline(cnf, Config(mode=mode, seed=8)).to_obj())
        assert obj["format"] == TRANSCRIPT_FORMAT_V1
        assert (obj["h"] is None) == (mode == "deterministic")
        ok, checks = verify_transcript(obj)
        assert ok, checks
    # a deterministic v1 run must not carry an h
    obj["h"] = {"terms": [["1", "0"]]}
    ok, _ = verify_transcript(obj)
    assert not ok


@pytest.mark.parametrize("convert", [lambda o: o, to_v2, to_v1])
@pytest.mark.parametrize("name", ["g1", "g2", "h"])
def test_deterministic_runs_carry_no_polynomials(convert, name):
    """A deterministic run of any format that carries a g1, g2 or h fails
    the no-combination check."""
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1, 2, -3]])
    obj = convert(pipeline(cnf, Config(mode="deterministic")).to_obj())
    assert verify_transcript(obj)[0]
    obj[name] = {"terms": [["1", "0"]]}
    ok, checks = verify_transcript(obj)
    assert not ok
    assert [c["name"] for c in checks if not c["ok"]] == ["no-combination"]


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
            pair = tuple(sum((c * f for c, f in zip(v, polys)), SparsePoly.zero()) for v in (a, b))
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
REMOVED_CONFIG = {"threads": 1, "sample_c": 2, "sample_cprime": 2}
REMOVED_CAPS = {"gcd_degree": 100_000, "rho_iterations": 1_000_000,
                "trial_division_bound": 1_000_000}
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
        assert hashlib.sha256(text.encode()).hexdigest() == V2_REPORT_DIGESTS[formula, i]


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
        assert hashlib.sha256(text.encode()).hexdigest() == V1_REPORT_DIGESTS[formula, i]


def test_verify_transcript_caps_variables_before_any_work():
    obj = pipeline(Cnf3.from_signed(3, [[1, -2, 3]]), Config(seed=2)).to_obj()
    obj["n"] = 10
    obj["cnf"]["num_vars"] = 10
    # Q_10 is about 6.5e9: any table of that length would not finish
    for candidate in (obj, to_v2(obj), to_v1(obj)):
        start = time.perf_counter()
        with pytest.raises(CapsExceeded):
            verify_transcript(candidate)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(CapsExceeded):
        verify_transcript(obj | {"n": 3}, Caps(max_vars=3))
