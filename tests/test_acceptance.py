"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with its measurements (run with -s to watch them live)."""

import itertools
import random
import time

from padicfeas.bigmod import find_generator, first_primes, primorial
from padicfeas.config import Config
from padicfeas.padic import (
    bruteforce_decision,
    decide_binomial,
    has_degenerate_root_qp,
    hensel_lift_trace,
)
from padicfeas.plaisted import (
    Cnf3,
    clause_poly,
    expand,
    satisfies,
)
from padicfeas.primes import prime_density_experiment
from padicfeas.reduce import pipeline, random_combine, run_with_majority, transcript_dumps
from padicfeas.sparsepoly import SparsePoly, exact_div

from helpers import (
    assignment_to_root,
    random_cnf,
    random_nonzero_sparse,
    size,
    sparse_gcd,
    truth_table_sat,
)
from test_padic import _random_certified_seed

PRIMES = (2, 3, 5, 7, 11, 13)
ALL_SHAPES = list(itertools.product((False, True), repeat=3))
CANONICAL_SHAPES = [[1, 2, 3], [-1, 2, 3], [-1, -2, 3], [-1, -2, -3]]


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_binomial_oracle_equivalence():
    start = time.time()
    disagreements = 0
    cases = 0
    for p in PRIMES:
        for d in range(1, 13):
            for alpha in range(-20, 21):
                if alpha == 0:
                    continue
                cases += 1
                fast = decide_binomial(1, d, -alpha, 0, p).feasible
                slow = bruteforce_decision(SparsePoly(((1, d), (-alpha, 0))), p).feasible
                disagreements += fast != slow
    elapsed = time.time() - start
    _report(
        "criterion-1 binomial-oracle-equivalence",
        disagreements == 0 and elapsed < 60,
        f"{cases} cases, {disagreements} disagreements, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_clause_root_correspondence_f31():
    p, n = 31, 3
    omega = pow(find_generator(p), (p - 1) // 30, p)
    failures = 0
    checks = 0
    for shape in ALL_SHAPES:
        clause = tuple((v, neg) for v, neg in zip((1, 2, 3), shape))
        poly = expand(clause_poly(clause, n))
        cnf = Cnf3(n, (clause,))
        for bits in itertools.product((0, 1), repeat=3):
            t = assignment_to_root(bits, n)
            vanishes = poly.eval_mod(pow(omega, t, p), p) == 0
            checks += 1
            failures += vanishes != satisfies(cnf, bits)
    _report(
        "criterion-2 clause-root-correspondence",
        failures == 0,
        f"{checks} shape/assignment pairs at p=31, {failures} failures",
    )


def test_criterion_3_clause_size_bound_and_divisibility():
    worst = {}
    division_failures = 0
    certificate_failures = 0
    for n in range(3, 9):
        q = primorial(n)
        primes = first_primes(n)
        target = SparsePoly(((-1, 0), (1, q)))
        worst[n] = 0
        for shape in ALL_SHAPES:
            clause = tuple((v, neg) for v, neg in zip((1, 2, 3), shape))
            bp = clause_poly(clause, n)
            poly = expand(bp)
            worst[n] = max(worst[n], size(poly))
            # exact divisibility, twice over: cyclotomic-multiplicity
            # certificate on the divisor lattice for every n ...
            for mask in range(1 << n):
                d = 1
                for i in range(n):
                    if mask >> i & 1:
                        d *= primes[i]
                mult = sum(e for m, e in bp.factors if m % (q // d) == 0)
                certificate_failures += mult not in (0, 1)
            # ... and by sparse long division where the quotient stays desk-sized
            if n <= 6:
                quotient = exact_div(target, poly)
                division_failures += quotient * poly != target
    ratios = {n: worst[n] / n ** 2 for n in worst}
    c = max(ratios.values())
    bounded = all(worst[n] <= c * n ** 2 for n in worst)
    fitted_by_smallest = c == ratios[3] and all(
        ratios[n + 1] <= ratios[n] for n in range(3, 8)
    )
    _report(
        "criterion-3 clause-size-bound",
        bounded and fitted_by_smallest and division_failures == 0 and certificate_failures == 0,
        f"fitted c = {c:.2f} (sizes {worst}), divisibility exact for n=3..8",
    )


def test_criterion_4_combination_preserves_zero_sets():
    rng = random.Random(20240817)
    trials = 500
    preserved = 0
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
        preserved += sparse_gcd(g1, g2) == target
    freq = preserved / trials
    _report(
        "criterion-4 random-combination-success-rate",
        freq >= 8 / 9,
        f"{preserved}/{trials} trials preserved the common zero set "
        f"(frequency {freq:.3f} >= 8/9 = {8/9:.3f})",
    )


def _exhaustive_formulas():
    out = []
    for r in (1, 2, 3):
        for combo in itertools.combinations(range(4), r):
            out.append(Cnf3.from_signed(3, [CANONICAL_SHAPES[i] for i in combo]))
    return out


def test_criterion_5_end_to_end_pipeline_matches_sat():
    start = time.time()
    rng = random.Random(5150)
    corpus = _exhaustive_formulas()
    corpus += [random_cnf(rng, max_vars=5, max_clauses=8) for _ in range(100)]
    det_bad = 0
    rand_bad = 0
    witness_bad = 0
    for i, cnf in enumerate(corpus):
        want = truth_table_sat(cnf) is not None
        det = pipeline(cnf, Config(mode="deterministic"))
        det_bad += det.verdict != want
        if det.verdict:
            witness_bad += det.witness is None or not satisfies(cnf, det.witness)
        verdict, witness, _ = run_with_majority(
            cnf, Config(mode="randomized", seed=77000 + i, repeats=5)
        )
        rand_bad += verdict != want
        if verdict:
            witness_bad += witness is None or not satisfies(cnf, witness)
    elapsed = time.time() - start
    _report(
        "criterion-5 end-to-end-pipeline",
        det_bad == 0 and rand_bad == 0 and witness_bad == 0 and elapsed < 600,
        f"{len(corpus)} formulas: deterministic {det_bad} wrong, majority-of-5 "
        f"{rand_bad} wrong, {witness_bad} bad witnesses, {elapsed:.0f}s (< 600s)",
    )


def test_criterion_6_hensel_contract():
    rng = random.Random(616)
    lifts = 0
    failures = 0
    for _ in range(1000):
        f, p, seed, _ = _random_certified_seed(rng)
        target = seed.ell + rng.randint(1, 25)
        r, steps = hensel_lift_trace(f, seed, p, target)
        lifts += 1
        ok = f.eval_mod(r, p ** target) == 0
        agree = p ** (seed.ell - seed.vprime)
        ok = ok and r % agree == seed.x0 % agree
        for (e1, _), (e2, x2) in zip(steps, steps[1:]):
            ok = ok and e2 >= min(target, 2 * e1 - 2 * seed.vprime)
            ok = ok and f.eval_mod(x2, p ** e2) == 0
        failures += not ok
    _report(
        "criterion-6 hensel-contract",
        failures == 0,
        f"{lifts} certified lifts, {failures} contract violations",
    )


def test_criterion_7_squared_polynomial_equivalence():
    """bruteforce_decision(f) and has_degenerate_root_qp(f**2) agree.  Both
    run the same refinement search on the same squarefree part up to sign,
    as gcd(f**2, 2*f*f') has f's squarefree part as its own, so this checks
    sparsepoly.gcd_dense, not the search; test_padic's flat-oracle test
    checks the search."""
    rng = random.Random(7007)
    disagreements = 0
    total = 0
    for p in PRIMES:
        for _ in range(200):
            f = random_nonzero_sparse(rng, max_terms=4, max_exp=8, max_coeff=9)
            total += 1
            feasible = bruteforce_decision(f, p).feasible
            degenerate = has_degenerate_root_qp(f.square(), p)
            disagreements += feasible != degenerate
    _report(
        "criterion-7 squared-polynomial-equivalence",
        disagreements == 0,
        f"{total} random polynomials across p in {PRIMES}, {disagreements} disagreements",
    )


def test_criterion_8_density_harness():
    start = time.time()
    exact = prime_density_experiment(1, 10 ** 4).count
    ratios = {m: prime_density_experiment(m, 10 ** 6).ratio for m in (30, 210)}
    elapsed = time.time() - start
    in_band = all(0.9 <= r <= 1.1 for r in ratios.values())
    _report(
        "criterion-8 density-harness",
        exact == 1229 and in_band and elapsed < 60,
        f"pi(10^4)={exact} (=1229), ratios {ratios}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_9_reproducibility():
    rng = random.Random(909)
    corpora = _exhaustive_formulas() + [random_cnf(rng) for _ in range(20)]
    mismatched = 0
    for i, cnf in enumerate(corpora):
        for mode in ("deterministic", "randomized"):
            cfg = Config(mode=mode, seed=4321 + i)
            one = transcript_dumps(pipeline(cnf, cfg).to_obj())
            two = transcript_dumps(pipeline(cnf, cfg).to_obj())
            mismatched += one != two
    # binomial decisions and density reports are pure values: identical by construction
    a = decide_binomial(1, 6, -64, 0, 2)
    b = decide_binomial(1, 6, -64, 0, 2)
    mismatched += a != b
    r1 = prime_density_experiment(30, 10 ** 4)
    r2 = prime_density_experiment(30, 10 ** 4)
    mismatched += r1 != r2
    _report(
        "criterion-9 reproducibility",
        mismatched == 0,
        f"{len(corpora)} formulas x 2 modes serialized twice, {mismatched} byte mismatches",
    )
