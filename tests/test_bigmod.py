import math
import random

import pytest

from padicfeas.bigmod import (
    _MR_DETERMINISTIC_BOUND,
    INFINITY,
    Modulus,
    _valuation,
    decompose_2adic_unit,
    euler_phi,
    factor,
    find_generator,
    find_qnr,
    first_primes,
    is_prime,
    multiplicative_order,
    ord_p,
    primorial,
)
from padicfeas.errors import FactorBudgetExceeded

from helpers import crt, eager_is_prime, naive_is_prime, naive_order, solvable_in_cyclic


def test_ord_p_examples():
    assert ord_p(8, 2) == 3
    assert ord_p(10, 3) == 0
    assert ord_p(0, 5) == INFINITY
    assert ord_p(-24, 2) == 3
    with pytest.raises(ValueError):
        ord_p(10, 4)


def naive_valuation(n, p):
    n, v = abs(n), 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def test_valuation_matches_the_naive_loop():
    rng = random.Random(77)
    # the naive loop divides a p**v-sized number v times, so the 61-bit
    # prime gets smaller valuations
    tops = {2: 10**4, 3: 10**4, 5: 10**4, 7: 10**4, 1009: 10**4, 2**61 - 1: 300}
    for p, top in tops.items():
        assert _valuation(1, p) == _valuation(-1, p) == 0
        for _ in range(12):
            j = rng.randint(0, top.bit_length() - 1)
            v = rng.choice((0, 1, 2, 2**j - 1, 2**j, rng.randint(0, top)))
            unit = rng.randrange(1, 10**6)
            unit += unit % p == 0  # coprime to p
            n = rng.choice((1, -1)) * p**v * unit
            assert _valuation(n, p) == naive_valuation(n, p) == v


def test_modulus_invariants():
    m = Modulus(3, 4)
    assert m.value == 81
    with pytest.raises(ValueError):
        Modulus(4, 2)
    with pytest.raises(ValueError):
        Modulus(3, 0)


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 7) == naive_order(2, 7) == 3
    assert multiplicative_order(5, 8) == naive_order(5, 8) == 2
    assert multiplicative_order(1, 97) == 1
    with pytest.raises(ValueError):
        multiplicative_order(6, 8)
    with pytest.raises(ValueError):
        multiplicative_order(3, 1)


def test_multiplicative_order_exhaustive_small_moduli():
    # the claimed order satisfies a^t = 1 and no prime-divisor quotient does
    for m in range(2, 1001):
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            t = multiplicative_order(a, m)
            assert pow(a, t, m) == 1
            for q, _ in factor(t).items() if t > 1 else ():
                assert pow(a, t // q, m) != 1


def test_is_prime_examples():
    assert is_prime(31)
    assert not is_prime(30031)  # 59 * 509
    assert not is_prime(1)
    assert not is_prime(0)
    with pytest.raises(ValueError):
        is_prime(-7)


def test_is_prime_agrees_with_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == naive_is_prime(n), n
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 10 ** 6)
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_large_values():
    assert is_prime(2 ** 89 - 1)  # Mersenne prime
    assert not is_prime((2 ** 89 - 1) * (2 ** 61 - 1))
    assert is_prime(10 ** 18 + 9)
    assert not is_prime(10 ** 18 + 7)


def test_is_prime_matches_eager_bases_above_the_deterministic_bound():
    # the randomized range draws its seeded bases lazily; verdicts must not move
    rng = random.Random(23)
    lo = _MR_DETERMINISTIC_BOUND
    odd = [rng.randrange(lo, 2 ** 128) | 1 for _ in range(2000)]
    primes = []
    while len(primes) < 80:
        n = rng.randrange(lo, 2 ** rng.choice((82, 90, 100, 128))) | 1
        while not eager_is_prime(n):
            n += 2
        primes.append(n)
    semiprimes = [rng.choice(primes) * rng.choice(primes) for _ in range(200)]
    mersenne = [2 ** e - 1 for e in (89, 107, 127)] + [2 ** e - 1 for e in (97, 101, 131)]
    for n in odd + primes + semiprimes + mersenne + [lo, lo + 1, lo + 2]:
        assert is_prime(n) == eager_is_prime(n), n
    assert all(map(is_prime, primes)) and not any(map(is_prime, semiprimes))
    assert sum(map(is_prime, odd)) > 10


def test_factor_examples_and_recompose():
    assert factor(30) == {2: 1, 3: 1, 5: 1}
    assert factor(30031) == {59: 1, 509: 1}
    assert factor(2 ** 10) == {2: 10}
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(2, 10 ** 12)
        fac = factor(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n
    with pytest.raises(ValueError):
        factor(1)


def test_factor_budget_is_explicit():
    p = 1_000_000_007
    q = 1_000_000_009
    with pytest.raises(FactorBudgetExceeded):
        factor(p * q, trial_bound=1000, rho_iterations=1)
    # with a real budget the same number factors fine
    assert factor(p * q) == {p: 1, q: 1}


def test_primorial_examples():
    assert primorial(3) == 30
    assert primorial(5) == 2310
    assert primorial(0) == 1
    assert first_primes(4) == (2, 3, 5, 7)


def test_euler_phi():
    assert euler_phi(1) == 1
    for n in range(2, 300):
        assert euler_phi(n) == sum(1 for a in range(1, n) if math.gcd(a, n) == 1)


def test_find_qnr_exhaustive_small_primes():
    rng = random.Random(3)
    for p in range(3, 201):
        if not naive_is_prime(p):
            continue
        squares = {x * x % p for x in range(1, p)}
        non_residues = [a for a in range(1, p) if a not in squares]
        assert len(non_residues) == (p - 1) // 2
        for _ in range(5):
            a = find_qnr(p, rng)
            assert pow(a, (p - 1) // 2, p) == p - 1
            assert a in non_residues
    assert find_qnr(3, rng) == 2  # the only non-residue mod 3


def test_find_qnr_rejects_bad_p():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        find_qnr(2, rng)
    with pytest.raises(ValueError):
        find_qnr(9, rng)


def test_solvable_in_cyclic_examples():
    assert solvable_in_cyclic(3, 2, 6)       # x^2 = 2 mod 7 has the root 3
    assert not solvable_in_cyclic(6, 2, 6)   # a generator is a non-square
    for d in (0, 1, 2, 7, 2 ** 64):
        assert solvable_in_cyclic(1, d, 12)
    with pytest.raises(ValueError):
        solvable_in_cyclic(4, 2, 6)


def test_solvable_in_cyclic_against_power_enumeration():
    moduli = [m for m in range(3, 501) if len(factor(m)) == 1 and m % 2 == 1]
    for m in moduli:
        phi = euler_phi(m)
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        for d in (1, 2, 3, 4, 6, 12, 2 ** 40 + 6):
            powers = {pow(x, d, m) for x in units}
            for a in units:
                expected = a in powers
                assert solvable_in_cyclic(multiplicative_order(a, m), d, phi) == expected


def test_decompose_2adic_unit_examples():
    assert decompose_2adic_unit(1, 3) == (0, 0)
    assert decompose_2adic_unit(7, 3) == (1, 0)
    assert decompose_2adic_unit(5, 3) == (0, 1)
    with pytest.raises(ValueError):
        decompose_2adic_unit(4, 3)
    with pytest.raises(ValueError):
        decompose_2adic_unit(3, 2)


def test_decompose_2adic_unit_is_a_bijection():
    for ell in range(3, 11):
        m = 1 << ell
        seen = set()
        for alpha in range(1, m, 2):
            a, b = decompose_2adic_unit(alpha, ell)
            assert a in (0, 1) and 0 <= b < (1 << (ell - 2))
            assert (-1) ** a * pow(5, b, m) % m == alpha
            seen.add((a, b))
        assert len(seen) == m // 2


def test_xgcd_and_crt():
    r, m = crt([(1, 3), (2, 5), (3, 7)])
    assert m == 105 and r % 3 == 1 and r % 5 == 2 and r % 7 == 3
    with pytest.raises(ValueError):
        crt([(0, 4), (1, 6)])


def test_find_generator():
    for p in (3, 7, 31, 97, 211):
        g = find_generator(p)
        assert naive_order(g, p) == p - 1
    rng = random.Random(9)
    g = find_generator(31, rng)
    assert naive_order(g, 31) == 30
