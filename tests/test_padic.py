import random

import pytest

from padicfeas import bigmod, padic
from padicfeas.bigmod import is_prime, ord_p
from padicfeas.config import Caps
from padicfeas.errors import CapsExceeded
from padicfeas.padic import (
    RULE_CYCLIC_ORDER,
    RULE_HENSEL_CERTIFIED,
    RULE_TWO_ADIC,
    RULE_VALUATION_MISMATCH,
    RULE_ZERO_ROOT,
    HenselSeed,
    bruteforce_decision,
    decide_binomial,
    has_degenerate_root_qp,
    hensel_lift_trace,
)
from padicfeas.sparsepoly import SparsePoly, from_dense, parse_poly, to_dense

from helpers import (
    P256_HARD,
    dense,
    dense_divmod,
    dense_gcd_monic,
    dense_to_sparse_primitive,
    order_route_binomial,
    random_nonzero_sparse,
    roots_of_unity_mod_p,
)

PRIMES = (2, 3, 5, 7, 11, 13)


# -- Hensel lifting ------------------------------------------------------------


def test_hensel_lift_examples():
    f = parse_poly("x^2 - 2")
    r = hensel_lift_trace(f, HenselSeed(3, 1, 0), 7, 2)[0]
    assert r == 10 and pow(10, 2, 49) == 2

    g = parse_poly("x - 5")
    for target in (1, 3, 7):
        assert hensel_lift_trace(g, HenselSeed(2, 1, 0), 3, target)[0] == 5 % 3 ** target

    # x^2 - 17 over Q_2: enumerate the residues mod 16 that square to 17
    h = parse_poly("x^2 - 17")
    oracle = {x for x in range(16) if (x * x - 17) % 16 == 0}
    r = hensel_lift_trace(h, HenselSeed(1, 3, 1), 2, 4)[0]
    assert r in oracle
    assert r % 4 == 1  # agrees with the seed mod p**(ell - vprime)


def test_hensel_seed_validation():
    f = parse_poly("x^2 - 2")
    with pytest.raises(ValueError):
        hensel_lift_trace(f, HenselSeed(1, 1, 0), 7, 3)  # 1 is not a root mod 7
    with pytest.raises(ValueError):
        hensel_lift_trace(f, HenselSeed(3, 1, 1), 7, 3)  # wrong derivative valuation
    with pytest.raises(ValueError):
        hensel_lift_trace(f, HenselSeed(3, 2, 1), 7, 3)  # violates 2*vprime < ell
    with pytest.raises(ValueError):
        hensel_lift_trace(f, HenselSeed(3, 1, 0), 6, 3)  # p not prime


def _random_certified_seed(rng):
    """Construct (f, p, seed) by planting an exact root with known
    derivative valuation."""
    p = rng.choice(PRIMES)
    t = rng.randint(-30, 30)
    v = rng.choice((0, 0, 0, 1, 2))
    s = rng.choice([u for u in range(1, p)])  # unit scale for the twin root
    h = random_nonzero_sparse(rng, max_terms=3, max_exp=5, max_coeff=5)
    while h.eval_mod(t, p) == 0:
        h = random_nonzero_sparse(rng, max_terms=3, max_exp=5, max_coeff=5)
    root = SparsePoly(((1, 1), (-t, 0)))
    twin = SparsePoly(((1, 1), (-(t + s * p ** v), 0)))
    f = root * twin * h
    dv = f.derivative().evaluate(t)
    assert dv != 0
    vprime = ord_p(dv, p)
    ell = 2 * vprime + 1 + rng.randint(0, 3)
    return f, p, HenselSeed(t % p ** ell, ell, vprime), t


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hensel_contract_random(seed):
    rng = random.Random(seed)
    for _ in range(60):
        f, p, hseed, t = _random_certified_seed(rng)
        target = hseed.ell + rng.randint(1, 30)
        r, steps = hensel_lift_trace(f, hseed, p, target)
        assert f.eval_mod(r, p ** target) == 0
        assert r % p ** (hseed.ell - hseed.vprime) == hseed.x0 % p ** (
            hseed.ell - hseed.vprime
        )
        # precision at least doubles minus 2*vprime per step, verified on f itself
        for (e1, _), (e2, x2) in zip(steps, steps[1:]):
            assert e2 >= min(target, 2 * e1 - 2 * hseed.vprime)
            assert f.eval_mod(x2, p ** e2) == 0


# -- binomial decisions ----------------------------------------------------------


def test_decide_binomial_examples():
    d = decide_binomial(1, 2, -7, 0, 7)
    assert (d.feasible, d.rule) == (False, RULE_VALUATION_MISMATCH)
    d = decide_binomial(1, 2, -2, 0, 7)
    assert (d.feasible, d.rule) == (True, RULE_CYCLIC_ORDER)
    d = decide_binomial(1, 2, -17, 0, 2)
    assert (d.feasible, d.rule) == (True, RULE_TWO_ADIC)
    d = decide_binomial(1, 3, -2, 0, 2)
    assert (d.feasible, d.rule) == (False, RULE_VALUATION_MISMATCH)


def test_decide_binomial_normalization():
    # swapped exponent order
    assert decide_binomial(-2, 0, 1, 2, 7).feasible
    # common factor of x: zero is a root
    d = decide_binomial(3, 5, 7, 2, 11)
    assert d.feasible and d.rule == RULE_ZERO_ROOT
    # equal exponents collapsing to zero polynomial / monomial / constant
    assert decide_binomial(2, 3, -2, 3, 5).feasible
    assert decide_binomial(2, 3, 3, 3, 5).feasible          # 5x^3: root 0
    assert not decide_binomial(2, 0, 3, 0, 5).feasible      # nonzero constant
    # rational alpha with negative valuation: 4x^2 - 1 has root 1/2 in Q_2
    assert decide_binomial(4, 2, -1, 0, 2).feasible
    # but 2x^2 - 1 has none (odd valuation)
    d = decide_binomial(2, 2, -1, 0, 2)
    assert (d.feasible, d.rule) == (False, RULE_VALUATION_MISMATCH)
    with pytest.raises(ValueError):
        decide_binomial(0, 2, 1, 0, 7)
    with pytest.raises(ValueError):
        decide_binomial(1, 2, 1, 0, 6)


def test_decide_binomial_two_adic_cases():
    # x^2 - alpha over Q_2 is feasible exactly for alpha = 1 mod 8 (unit alpha)
    for alpha in (1, 9, 17, 25, 33):
        assert decide_binomial(1, 2, -alpha, 0, 2).feasible
    for alpha in (3, 5, 7, 11, 13, 15):
        assert not decide_binomial(1, 2, -alpha, 0, 2).feasible
    # x^4 - 16 = (x^2-4)(x^2+4): root 2
    assert decide_binomial(1, 4, -16, 0, 2).feasible
    # odd d is always feasible for unit alpha
    for alpha in (3, 5, 7, 9, 11):
        assert decide_binomial(1, 5, -alpha, 0, 2).feasible
        assert decide_binomial(1, 5, alpha, 0, 2).feasible


def test_binomial_agrees_with_bruteforce_small():
    for p in (2, 3, 5):
        for d in range(1, 7):
            for alpha in range(-10, 11):
                if alpha == 0:
                    continue
                f = SparsePoly(((1, d), (-alpha, 0)))
                fast = decide_binomial(1, d, -alpha, 0, p).feasible
                slow = bruteforce_decision(f, p).feasible
                assert fast == slow, (p, d, alpha)


def test_general_binomials_agree_with_bruteforce():
    # random coefficients on both terms, including shared powers of x and
    # collapsing exponent pairs
    rng = random.Random(555)
    for _ in range(1500):
        p = rng.choice(PRIMES)
        a2 = rng.randint(0, 4)
        a1 = a2 + rng.randint(0, 8)
        c1 = rng.randint(-30, 30)
        c2 = rng.randint(-30, 30)
        if c1 == 0 or c2 == 0:
            continue
        f = SparsePoly(((c1, a1), (c2, a2)))
        fast = decide_binomial(c1, a1, c2, a2, p).feasible
        assert fast == bruteforce_decision(f, p).feasible, (p, c1, a1, c2, a2)


def _binomial_case(rng: random.Random, p: int, stratum: int):
    """Coefficients are units times p**(0..2), and d comes from one of four
    strata.  Two in five cases take the units so that x**d = -u2/u1 is
    solvable, which random units rarely are for p = 2 and large ord_2(d), and
    half share one valuation, so that more cases pass the valuation test."""
    if stratum == 0:
        d = rng.randint(1, 60)
    elif stratum == 1:  # p | d
        d = p ** rng.randint(1, 3) * rng.randint(1, 30)
    elif stratum == 2:  # 2**v | d
        d = (2 * rng.randint(0, 20) + 1) << rng.randint(1, 12)
    else:  # equal exponents or a shared power of x
        d = rng.randint(0, 5)

    def unit():
        while True:
            u = rng.choice((-1, 1)) * rng.randint(1, 10**4)
            if u % p:
                return u

    u1, u2 = unit(), unit()
    if d and rng.random() < 0.4:  # -u2/u1 a d-th power modulo p**(2 + 2*ord_p(d))
        u2 = -u1 * pow(unit(), d, p ** (2 + 2 * ord_p(d, p)))
    a2 = rng.randint(0, 3) if stratum == 3 else 0
    v1 = rng.randint(0, 2)
    v2 = v1 if rng.random() < 0.5 else rng.randint(0, 2)
    case = (u1 * p**v1, a2 + d, u2 * p**v2, a2)
    if rng.random() < 0.5:  # swapped term order
        case = (case[2], case[3], case[0], case[1])
    return case + (p,)


def test_decide_binomial_agrees_with_the_order_route():
    rng = random.Random(20261018)
    rules = {}
    for i in range(12_000):
        case = _binomial_case(rng, PRIMES[i % len(PRIMES)], i // len(PRIMES) % 4)
        d = decide_binomial(*case)
        assert (d.feasible, d.rule) == order_route_binomial(*case), case
        rules[d.rule, d.feasible] = rules.get((d.rule, d.feasible), 0) + 1
    for key in (
        (RULE_CYCLIC_ORDER, True),
        (RULE_CYCLIC_ORDER, False),
        (RULE_TWO_ADIC, True),
        (RULE_TWO_ADIC, False),
        (RULE_VALUATION_MISMATCH, False),
        (RULE_ZERO_ROOT, True),
        (RULE_ZERO_ROOT, False),
    ):
        assert rules.get(key, 0) >= 50, (key, rules)


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(p):
            return p


def _non_residue(rng: random.Random, p: int) -> int:
    while True:
        r = rng.randrange(2, p)
        if pow(r, (p - 1) // 2, p) == p - 1:  # Euler's criterion
            return r


def _known_binomials(rng: random.Random):
    """(d, alpha, p, feasible) for x**d = alpha, with the answer known by
    construction.  alpha = beta**d mod p**(1 + 2*ord_p(d)) is a root of
    x**d - alpha to that precision with 2*ord_p(d * beta**(d-1)) below it,
    so Hensel's lemma lifts beta to a root.  For even d, x**d is a square, and
    a non-residue modulo p, or 3 or 5 in Q_2, is not.  For 3 | d, x**d is a
    cube, and the unit cubes modulo 9 are +-1, so 4 is not one."""
    p256, p61 = P256_HARD, _random_prime(rng, 61)
    cases = []
    for p, d in (
        (p256, 6),
        (p61, 2 * p61 * (rng.randrange(1, p61) | 1)),
        (2, 2**3000),
        (3, 3**2000),
        (3, 2 * 3**2000),
    ):
        m = p ** (1 + 2 * ord_p(d, p))
        beta = rng.randrange(1, p**2)
        if beta % p == 0:
            beta += 1
        cases.append((d, pow(beta, d, m), p, True))
    cases += [
        (6, _non_residue(rng, p256), p256, False),
        (2 * p61 * 3, _non_residue(rng, p61), p61, False),
        (2**3000, 3, 2, False),
        (2**3000, 5, 2, False),
        (3**2000, 4, 3, False),
        (2 * 3**2000, 2, 3, False),
    ]
    return cases


def test_decide_binomial_answers_what_the_order_route_cannot(monkeypatch):
    def off_the_path(*args, **kwargs):
        raise AssertionError("the binomial decider factors or takes an order")

    for name in ("factor", "multiplicative_order", "decompose_2adic_unit"):
        monkeypatch.setattr(bigmod, name, off_the_path)
    rng = random.Random(77)
    for d, alpha, p, feasible in _known_binomials(rng):
        rule = RULE_TWO_ADIC if p == 2 else RULE_CYCLIC_ORDER
        for c in (1, -7, 11):  # the same alpha from other unit coefficients
            if c % p == 0:
                continue
            got = decide_binomial(c, d, -c * alpha, 0, p)
            assert (got.feasible, got.rule) == (feasible, rule), (d, alpha, p)
            got = decide_binomial(-c * alpha, 0, c, d, p)
            assert (got.feasible, got.rule) == (feasible, rule), (d, alpha, p)


def test_decide_binomial_tests_primality_once(monkeypatch):
    calls = []
    real = bigmod.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(bigmod, "is_prime", counting)
    monkeypatch.setattr(padic, "is_prime", counting)
    p256 = 2**255 - 19
    for case in (
        (1, 6, -5, 0, p256),
        (25, 0, -1, 2 * p256, p256),
        (1, 3 << 40, -17, 0, 2),
        (9, 0, -1, 4, 3),
        (1, 4, 3, 0, 7),
    ):
        calls.clear()
        decide_binomial(*case)
        assert calls == [case[-1]], case


# -- roots of unity ----------------------------------------------------------------


def test_roots_of_unity_examples():
    assert sorted(roots_of_unity_mod_p(31, 30)) == list(range(1, 31))
    assert sorted(roots_of_unity_mod_p(31, 2)) == [1, 30]
    assert sorted(roots_of_unity_mod_p(7, 3)) == [1, 2, 4]


def test_roots_of_unity_contract():
    rng = random.Random(2)
    for p, m in ((31, 30), (31, 15), (211, 210), (13, 4), (1009, 12)):
        roots = roots_of_unity_mod_p(p, m, rng)
        assert len(set(roots)) == m
        for r in roots:
            assert pow(r, m, p) == 1
        # brute-force oracle: exactly the residues with r^m = 1
        assert set(roots) == {r for r in range(1, p) if pow(r, m, p) == 1}
    with pytest.raises(ValueError):
        roots_of_unity_mod_p(31, 4)
    with pytest.raises(ValueError):
        roots_of_unity_mod_p(32, 4)


def test_roots_of_unity_all_hensel_certifiable():
    # every root of x^Q - 1 mod p certifies at precision 1 and lifts uniquely
    p, q = 31, 30
    f = SparsePoly(((1, q), (-1, 0)))
    for r in roots_of_unity_mod_p(p, q):
        dv = f.derivative().eval_mod(r, p)
        assert dv != 0  # derivative is a unit, so the precision-1 seed certifies
        lifted = hensel_lift_trace(f, HenselSeed(r, 1, 0), p, 4)[0]
        assert f.eval_mod(lifted, p ** 4) == 0
        assert lifted % p == r


# -- brute-force oracle ---------------------------------------------------------------


def test_bruteforce_examples():
    f = parse_poly("x^2-2") * parse_poly("x^2-7")
    assert bruteforce_decision(f, 7).feasible
    assert not bruteforce_decision(parse_poly("x^2 + 1"), 7).feasible
    assert bruteforce_decision(parse_poly("x"), 5).feasible
    assert bruteforce_decision(SparsePoly.zero(), 3).feasible
    assert not bruteforce_decision(SparsePoly.constant(4), 3).feasible


def test_bruteforce_decision_details():
    d = bruteforce_decision(parse_poly("x^2 - 2"), 7)
    assert d.feasible and d.rule == RULE_HENSEL_CERTIFIED
    assert d.witness is not None
    w = d.witness
    f = parse_poly("x^2 - 2")
    assert f.eval_mod(w.residue, w.modulus.value) == 0
    assert 2 * ord_p(f.derivative().evaluate(w.residue), 7) < w.modulus.ell

    d = bruteforce_decision(parse_poly("x^3"), 5)
    assert d.feasible and d.rule == RULE_ZERO_ROOT


def test_bruteforce_negative_valuation_roots():
    # 2x - 1 has the root 1/2: not a 2-adic integer, caught by the reverse pass
    assert bruteforce_decision(parse_poly("2*x - 1"), 2).feasible
    assert bruteforce_decision(parse_poly("4*x^2 - 1"), 2).feasible
    assert not bruteforce_decision(parse_poly("2*x^2 - 1"), 2).feasible
    # 3x^2 + 2x - 1 = (3x - 1)(x + 1): root 1/3 and -1
    assert bruteforce_decision(parse_poly("3*x^2 + 2*x - 1"), 3).feasible


def test_bruteforce_repeated_roots():
    assert bruteforce_decision(parse_poly("x^2 - 2*x + 1"), 7).feasible  # (x-1)^2
    assert bruteforce_decision(parse_poly("x-3").square() * parse_poly("x^2+1"), 5).feasible


def squarefree_oracle(f: SparsePoly) -> SparsePoly:
    """f / gcd(f, f') by Euclid and long division over the rationals, as the
    primitive integer polynomial with positive leading coefficient."""
    a = dense(f)
    q, r = dense_divmod(a, dense_gcd_monic(a, dense(f.derivative())))
    assert not r
    return dense_to_sparse_primitive(q)


def test_squarefree_part_matches_rational_oracle():
    rng = random.Random(41)
    seen = dict.fromkeys(("repeated", "x^k", "negative", "content"), 0)
    for _ in range(400):
        content = rng.choice((1, 1, 2, 6, 9, 35))
        f = SparsePoly.constant(rng.choice((1, -1)) * content)
        multiplicities = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 2))]
            coeffs.append(rng.choice((1, 2, 3, -1, -2)))  # degree 1 or 2
            m = rng.choice((1, 1, 2, 3))
            multiplicities.append(m)
            for _ in range(m):
                f = f * from_dense(coeffs)
        k = rng.choice((0, 0, 1, 2, 3))
        f = f * SparsePoly.x_power(k)
        seen["repeated"] += max(multiplicities) > 1
        seen["x^k"] += k > 0
        seen["negative"] += f.terms[-1][0] < 0
        seen["content"] += content > 1
        ours = padic._squarefree_primitive(to_dense(f, f.degree))
        assert from_dense(ours) == squarefree_oracle(f), f
    assert min(seen.values()) >= 50, seen


def test_bruteforce_caps():
    with pytest.raises(CapsExceeded):
        bruteforce_decision(SparsePoly(((1, 10 ** 9), (-1, 0))), 5, Caps(degree=100))


# -- degenerate-root reduction -----------------------------------------------------


def test_degenerate_reduction_examples():
    assert parse_poly("x - 1").square() == parse_poly("x^2 - 2*x + 1")
    assert parse_poly("x^2 - 2").square() == parse_poly("x^4 - 4*x^2 + 4")
    assert SparsePoly.zero().square().is_zero


def test_has_degenerate_root_examples():
    assert has_degenerate_root_qp(parse_poly("x-1").square(), 5)
    assert has_degenerate_root_qp(parse_poly("x^2 - 2").square(), 7)
    assert not has_degenerate_root_qp(parse_poly("x^2 - 7").square(), 7)
    assert not has_degenerate_root_qp(parse_poly("x^2 - 2"), 7)  # squarefree
    assert not has_degenerate_root_qp(parse_poly("x + 3"), 7)
    assert has_degenerate_root_qp(SparsePoly.zero(), 7)
    assert not has_degenerate_root_qp(SparsePoly.constant(5), 7)


def test_degenerate_equivalence_random_sample():
    rng = random.Random(77)
    for p in (2, 5):
        for _ in range(40):
            f = random_nonzero_sparse(rng, max_terms=4, max_exp=8, max_coeff=9)
            lhs = bruteforce_decision(f, p).feasible
            rhs = has_degenerate_root_qp(f.square(), p)
            assert lhs == rhs, (p, f)
