import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padicfeas.bigmod import euler_phi, primorial
from padicfeas.config import Caps
from padicfeas.errors import CapsExceeded, PrimeSearchExhausted
from padicfeas.primes import (
    SEARCH_MAX_N,
    DensityReport,
    _count_progression_primes,
    ProgressionPrime,
    find_prime_in_progression,
    logarithmic_integral,
    prime_density_experiment,
)

from helpers import naive_is_prime, sieve_primes


def naive_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = 0
    return [i for i in range(2, limit + 1) if flags[i]]


# -- prime search -----------------------------------------------------------------


def test_scan_examples():
    assert find_prime_in_progression(1).p == 3
    assert find_prime_in_progression(2).p == 7
    r = find_prime_in_progression(3)
    assert (r.k, r.p, r.q_n) == (1, 31, 30)
    with pytest.raises(ValueError):
        find_prime_in_progression(0)


def test_progression_prime_invariants():
    for n in range(1, 7):
        r = find_prime_in_progression(n)
        assert r.p == 1 + r.k * r.q_n
        assert r.q_n == primorial(n)
        if r.p < 10 ** 9:
            assert naive_is_prime(r.p)
    with pytest.raises(ValueError):
        ProgressionPrime(3, 30, 2, 62, 1)  # 1 + 2*30 = 61, and 62 is not it
    with pytest.raises(ValueError):
        ProgressionPrime(3, 30, 3, 91, 1)  # 91 = 7 * 13


def test_sampling_strategy_finds_primes():
    for n in range(1, 7):
        rng = random.Random(n)
        r = find_prime_in_progression(n, strategy="sample", rng=rng)
        assert r.p % r.q_n == 1
        assert 1 <= r.k <= 2 ** (n ** 2)
        assert r.trials_used <= 9 * n ** 2
    with pytest.raises(ValueError):
        find_prime_in_progression(3, strategy="sample")  # rng required
    with pytest.raises(ValueError):
        find_prime_in_progression(3, strategy="roulette")


def test_search_refuses_large_n_before_any_test(monkeypatch):
    def no_tests(p):
        raise AssertionError("a primality test ran")

    monkeypatch.setattr("padicfeas.primes.is_prime", no_tests)
    for strategy, limit in SEARCH_MAX_N.items():
        for n in (limit + 1, 100_000):
            with pytest.raises(CapsExceeded):
                find_prime_in_progression(n, strategy=strategy, rng=random.Random(0))
    with pytest.raises(ValueError):
        find_prime_in_progression(10**6, strategy="roulette")


def test_search_exhaustion_is_explicit():
    with pytest.raises(PrimeSearchExhausted):
        find_prime_in_progression(4, caps=Caps(k_max=0))

    class AlwaysComposite:
        def randint(self, lo, hi):
            return 4  # 1 + 4*Q_n is divisible by 5 for n >= 3

    with pytest.raises(PrimeSearchExhausted) as info:
        find_prime_in_progression(3, strategy="sample", rng=AlwaysComposite())
    assert "81" in str(info.value)  # 9 * 3^2 trials reported


def test_sample_trial_count_sanity():
    # mean trials should be within a factor of 3 of the density heuristic
    n = 5
    q = primorial(n)
    trials = []
    ps = []
    for seed in range(100):
        r = find_prime_in_progression(n, strategy="sample", rng=random.Random(seed))
        trials.append(r.trials_used)
        ps.append(r.p)
    mean = sum(trials) / len(trials)
    mean_p = sum(ps) / len(ps)
    expected = euler_phi(q) / q * math.log(mean_p)
    assert expected / 3 <= mean <= expected * 3


# -- logarithmic integral ------------------------------------------------------------


def test_li_basics():
    assert logarithmic_integral(2) == 0.0
    assert logarithmic_integral(10 ** 5) > logarithmic_integral(10 ** 4)
    with pytest.raises(ValueError):
        logarithmic_integral(1.5)


def test_li_against_independent_quadratures():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for x in (10, 100, 10 ** 4, 10 ** 6):
        reference = float(mpmath.li(x) - mpmath.li(2))
        mine = logarithmic_integral(x)
        assert abs(mine - reference) <= 1e-6 * reference
    # frozen value computed from the reference route
    assert abs(logarithmic_integral(10 ** 4) - 1245.0920521192710) < 1e-6


def test_li_simpson_vs_trapezoid():
    # coarse independent quadrature: composite trapezoid on a fine grid
    x = 10 ** 4
    steps = 200_000
    h = (x - 2) / steps
    total = 0.5 / math.log(2) + 0.5 / math.log(x)
    total += sum(1.0 / math.log(2 + i * h) for i in range(1, steps))
    trapezoid = total * h
    assert abs(logarithmic_integral(x) - trapezoid) < 1e-4 * trapezoid


# -- sieve and density ----------------------------------------------------------------


def test_sieve_matches_naive():
    assert list(sieve_primes(10 ** 4)) == naive_sieve(10 ** 4)
    assert list(sieve_primes(1)) == []
    assert list(sieve_primes(2)) == [2]
    # segment boundaries
    assert list(sieve_primes(70_000, segment_size=1000)) == naive_sieve(70_000)


def test_density_examples():
    assert prime_density_experiment(1, 10 ** 4).count == 1229
    assert prime_density_experiment(2, 10 ** 4).count == 1228
    r = prime_density_experiment(30, 10 ** 5)
    assert 0.9 <= r.ratio <= 1.1
    assert r.predicted == pytest.approx(logarithmic_integral(10 ** 5) / 8)
    with pytest.raises(CapsExceeded):
        prime_density_experiment(30, 10 ** 7, Caps(sieve_limit=10 ** 6))
    with pytest.raises(ValueError):
        prime_density_experiment(0, 100)


def test_density_report_fields():
    r = prime_density_experiment(6, 10 ** 4)
    assert isinstance(r, DensityReport)
    assert r.ratio == r.count / r.predicted


def test_residue_class_partition():
    # primes <= x split into the coprime classes mod M plus the primes dividing M
    x = 10 ** 5
    primes = naive_sieve(x)
    for m in (6, 30):
        per_class = {}
        for p in primes:
            per_class[p % m] = per_class.get(p % m, 0) + 1
        coprime_total = sum(
            per_class.get(a, 0) for a in range(m) if math.gcd(a, m) == 1
        )
        dividing = sum(1 for p in primes if m % p == 0)
        assert coprime_total + dividing == len(primes)
        # and the package's count for class 1 agrees with the naive bucket
        assert prime_density_experiment(m, x).count == per_class.get(1, 0)


def oracle_count(m, x):
    return sum(1 for p in sieve_primes(x) if p % m == 1 % m)


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(1, 500),
    x=st.integers(3, 2 * 10 ** 5),
    segment=st.sampled_from([1, 7, 1000]),
)
def test_progression_count_matches_the_oracle(m, x, segment):
    # each segment loops over the base primes in Python: bound their number
    assume((x - 1) // m <= 5000 * segment)
    assert _count_progression_primes(m, x, segment) == oracle_count(m, x)


@pytest.mark.parametrize("segment", [1, 7, 1000, 1 << 20])
def test_progression_count_edge_cases(segment):
    cases = [
        (1, 3, 2), (1, 4, 2), (1, 1000, 168), (2, 3, 1), (2, 1000, 167),
        # M sharing prime factors with the base primes, up to all of them
        (4, 1000, None), (6, 1000, None), (9, 1000, None), (12, 1000, None),
        (30, 10 ** 4, None), (210, 10 ** 4, None), (2 * 3 * 5 * 7 * 11 * 13, 10 ** 5, None),
        # M >= x, and the single candidate x itself
        (13, 13, 0), (500, 3, 0), (10 ** 6, 10 ** 4, 0), (12, 13, 1), (12, 25, 1),
        # x = q*q for q = 1 (mod M): q counts, q*q does not
        (6, 49, 6), (4, 25, 3), (10, 121, 6), (30, 31 * 31, None),
    ]
    for m, x, want in cases:
        want = oracle_count(m, x) if want is None else want
        assert _count_progression_primes(m, x, segment) == want, (m, x)
    # x on a segment boundary: the last index (x - 1)//M is a multiple of the
    # segment size, or one either side of it
    for m in (1, 2, 30):
        for k in (1, 2, 3):
            for j_max in (k * segment - 1, k * segment, k * segment + 1):
                for x in (1 + j_max * m, 1 + j_max * m + m - 1):
                    if 3 <= x <= 2 * 10 ** 5:
                        assert _count_progression_primes(m, x, segment) == oracle_count(m, x), (m, x)
