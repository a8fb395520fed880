import itertools
import random
import time
from fractions import Fraction

import pytest

from padicfeas.bigmod import find_generator, first_primes, primorial
from padicfeas.errors import CapsExceeded, InexactDivision
from padicfeas.plaisted import (
    BinomialProduct,
    Cnf3,
    clause_poly,
    encode_system,
    expand,
    parse_dimacs,
    root_to_assignment,
    satisfies,
)
from padicfeas.primes import find_prime_in_progression
from padicfeas.sparsepoly import SparsePoly, exact_div

from helpers import (
    assignment_to_root,
    dense,
    dense_divmod,
    dense_gcd_monic,
    dense_mul,
    dense_to_sparse_primitive,
    format_dimacs,
    literal_poly,
    mobius_clause_poly,
    size,
    sparse_exact_div,
    sparse_expand,
)

ALL_SHAPES = list(itertools.product((False, True), repeat=3))


def shape_clause(shape, variables=(1, 2, 3)):
    return tuple((v, neg) for v, neg in zip(variables, shape))


def binom(m):
    return SparsePoly(((-1, 0), (1, m)))


# -- types ------------------------------------------------------------------------


def test_cnf3_validation():
    with pytest.raises(ValueError):
        Cnf3(2, (((3, False),),))  # index out of range
    with pytest.raises(ValueError):
        Cnf3(3, ((),))  # empty clause
    with pytest.raises(ValueError):
        Cnf3(3, (((1, False), (2, False), (3, False), (1, True)),))
    with pytest.raises(ValueError):
        Cnf3.from_signed(3, [[0]])
    cnf = Cnf3.from_signed(3, [[1, -2, 3]])
    assert cnf.to_signed() == [[1, -2, 3]]


def test_satisfies():
    cnf = Cnf3.from_signed(3, [[1, -2, 3]])
    assert satisfies(cnf, (1, 1, 0))
    assert not satisfies(cnf, (0, 1, 0))
    assert satisfies(Cnf3(2, ()), (0, 0))  # empty conjunction
    with pytest.raises(ValueError):
        satisfies(cnf, (0, 1))


def test_binomial_product_validation():
    BinomialProduct.from_dict(3, {30: 1, 15: -1})
    with pytest.raises(ValueError):
        BinomialProduct.from_dict(3, {4: 1})  # 4 does not divide 30
    with pytest.raises(ValueError):
        BinomialProduct(3, ((15, 0),))
    with pytest.raises(ValueError):
        BinomialProduct(3, ((15, 1), (15, 1)))


# -- DIMACS -----------------------------------------------------------------------


def test_dimacs_round_trip():
    text = "c comment\np cnf 4 3\n1 -2 3 0\n-4 0\n2 3 0\n"
    cnf = parse_dimacs(text)
    assert cnf.num_vars == 4
    assert cnf.to_signed() == [[1, -2, 3], [-4], [2, 3]]
    assert parse_dimacs(format_dimacs(cnf)) == cnf


def test_dimacs_rejects_malformed():
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 1\n1 2 3 4 0\n")  # too many literals
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 1\n0\n")  # empty clause
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")  # missing header
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 2\n1 2 0\n")  # clause count mismatch
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 1\n1 2\n")  # missing terminator
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 -3 0\n")  # index out of range
    # tokens are an optional '-' and ASCII digits only
    for bad in ("p cnf 30 1\n+1 2 0\n", "p cnf 30 1\n1_0 2 0\n", "p cnf \u0663 1\n1 2 0\n",
                "p cnf 30 1\n\u0661 2 0\n"):
        with pytest.raises(ValueError):
            parse_dimacs(bad)


# -- literal and clause polynomials --------------------------------------------------


def test_literal_poly_examples():
    assert expand(literal_poly((1, False), 3)) == binom(15)
    assert expand(literal_poly((1, True), 3)) == SparsePoly(((1, 0), (1, 15)))
    assert expand(literal_poly((3, False), 3)) == binom(6)
    with pytest.raises(ValueError):
        literal_poly((4, False), 3)


def test_clause_poly_examples():
    full = expand(clause_poly(shape_clause((False, False, False)), 3))
    assert full.degree == 22  # 30 - phi(30)
    two = expand(clause_poly(((1, False), (2, False)), 3))
    assert two == SparsePoly([(-1, 0), (-1, 5), (1, 15), (1, 20)])
    single = expand(clause_poly(((1, False),), 3))
    assert single == binom(15)


def test_clause_poly_degenerate_shapes():
    # repeated literals collapse
    assert clause_poly(((1, False), (1, False), (1, False)), 3) == clause_poly(
        ((1, False),), 3
    )
    # a tautological clause vanishes on every encoding root
    assert expand(clause_poly(((1, False), (1, True)), 3)) == binom(30)
    assert expand(clause_poly(((2, True), (2, False), (1, False)), 4)) == binom(210)


def test_expand_handles_higher_multiplicities():
    # (x^15 - 1)^2 / (x^5 - 1)
    bp = BinomialProduct.from_dict(3, {15: 2, 5: -1})
    expected = binom(15) * exact_div(binom(15), binom(5))
    assert expand(bp) == expected
    # a malformed product is flagged, not silently truncated
    with pytest.raises(InexactDivision):
        expand(BinomialProduct.from_dict(3, {15: 1, 30: -1}))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_clause_poly_and_expand_match_the_mobius_route(n):
    # every ordered clause of 1-3 literals, repeated and complementary ones too
    lits = [(idx, neg) for idx in range(1, n + 1) for neg in (False, True)]
    for size in (1, 2, 3):
        for clause in itertools.product(lits, repeat=size):
            ours, ref = clause_poly(clause, n), mobius_clause_poly(clause, n)
            assert ours.factors == ref.factors, clause
            assert expand(ours).terms == sparse_expand(ref).terms, clause


def test_expand_matches_sparse_route_on_random_products():
    rng = random.Random(17)
    inexact = 0
    for _ in range(1500):
        n = rng.randint(1, 4)
        q = primorial(n)
        divisors = [m for m in range(1, q + 1) if q % m == 0]
        bp = BinomialProduct.from_dict(
            n, {rng.choice(divisors): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))})
        try:
            ref = sparse_expand(bp)
        except InexactDivision:
            inexact += 1
            with pytest.raises(InexactDivision):
                expand(bp)
            continue
        assert expand(bp).terms == ref.terms, bp
    assert 300 < inexact < 1200  # both outcomes are exercised


def test_expand_checks_term_cap_before_allocating():
    with pytest.raises(CapsExceeded):
        expand(BinomialProduct.from_dict(3, {30: 2000}), term_cap=100)
    start = time.perf_counter()
    with pytest.raises(CapsExceeded):
        expand(BinomialProduct.from_dict(3, {30: 10 ** 9}))
    assert time.perf_counter() - start < 1
    # the dense length is counted in units of the gcd of the m's: 1 + 2 + 3
    assert len(expand(BinomialProduct.from_dict(3, {10: 1, 15: 1}), term_cap=6).terms) == 4
    with pytest.raises(CapsExceeded):
        expand(BinomialProduct.from_dict(3, {10: 1, 15: 1}), term_cap=5)


def test_every_clause_at_n7_expands_under_the_default_cap():
    lits = [(idx, neg) for idx in range(1, 8) for neg in (False, True)]
    for size in (1, 2, 3):
        for clause in itertools.combinations(lits, size):
            poly = expand(clause_poly(clause, 7))
            assert poly.degree <= primorial(7)


def test_clause_poly_matches_dense_lcm_oracle():
    # definitional route: lcm of the literal polynomials, via dense arithmetic
    rng = random.Random(5)
    for n in (3, 4):
        shapes = list(itertools.product((False, True), repeat=3))
        for shape in shapes:
            for _ in range(2):
                variables = sorted(rng.sample(range(1, n + 1), 3))
                clause = shape_clause(shape, variables)
                ours = expand(clause_poly(clause, n))
                lcm = [Fraction(1)]
                for lit in clause:
                    lp = dense(expand(literal_poly(lit, n)))
                    g = dense_gcd_monic(lcm, lp)
                    q, r = dense_divmod(lp, g)
                    assert not r
                    lcm = dense_mul(lcm, q)
                assert dense_to_sparse_primitive(lcm) == ours


def test_clause_poly_divides_cyclotomic_product():
    for n in range(3, 7):
        q = primorial(n)
        target = binom(q)
        for shape in ALL_SHAPES:
            poly = expand(clause_poly(shape_clause(shape), n))
            quotient = exact_div(target, poly)
            assert quotient * poly == target
        # small and degenerate clause shapes too
        for clause in (((1, False),), ((1, True), (2, False)), ((1, False), (1, True))):
            poly = expand(clause_poly(clause, n))
            assert exact_div(target, poly) * poly == target


def test_clause_poly_root_multiplicities_certificate():
    # exact divisibility certificate on the divisor lattice: the expansion of
    # the factored product has multiplicity 0 or 1 at every q-th root of unity
    for n in (3, 6, 8):
        primes = first_primes(n)
        q = primorial(n)
        for shape in ALL_SHAPES:
            bp = clause_poly(shape_clause(shape), n)
            for mask in range(1 << n):
                d = 1
                for i in range(n):
                    if mask >> i & 1:
                        d *= primes[i]
                mult = sum(e for m, e in bp.factors if m % (q // d) == 0)
                assert mult in (0, 1)


def test_vanishing_pattern_exhaustive_f31():
    p, n = 31, 3
    gen = find_generator(p)
    omega = pow(gen, (p - 1) // 30, p)
    for shape in ALL_SHAPES:
        clause = shape_clause(shape)
        poly = expand(clause_poly(clause, n))
        cnf = Cnf3(n, (clause,))
        for bits in itertools.product((0, 1), repeat=3):
            t = assignment_to_root(bits, n)
            vanishes = poly.eval_mod(pow(omega, t, p), p) == 0
            assert vanishes == satisfies(cnf, bits), (shape, bits)


def test_size_growth_at_most_quadratic():
    # every negation shape over the canonical variable triple (1, 2, 3)
    worst = {}
    for n in range(3, 9):
        worst[n] = max(
            size(expand(clause_poly(shape_clause(shape), n))) for shape in ALL_SHAPES
        )
    ratios = {n: worst[n] / n ** 2 for n in worst}
    c = max(ratios.values())
    assert all(worst[n] <= c * n ** 2 for n in worst)
    # the single fitted constant is set by the smallest n: growth is genuinely
    # sub-quadratic (term count is fixed, only exponent bit-lengths grow)
    assert c == ratios[3]
    assert all(ratios[n + 1] <= ratios[n] for n in range(3, 8))


def test_encode_system():
    cnf = Cnf3.from_signed(3, [[1, 2, 3], [-1]])
    polys = encode_system(cnf)
    assert len(polys) == 2
    assert polys[1] == SparsePoly(((1, 0), (1, 15)))
    assert encode_system(Cnf3(3, ())) == []


def test_encode_system_on_repeated_and_permuted_clauses():
    # one literal set twice in another order, and a repeated literal that
    # leaves a two-literal set; k = 16 with a tautology at the end
    cnf = Cnf3.from_signed(3, [[1, -2, 3], [3, 1, -2], [1, 1, -2]] * 5 + [[-2, 2, 2]])
    polys = encode_system(cnf)
    assert len(polys) == 16
    for clause, poly in zip(cnf.clauses, polys):
        assert poly == expand(clause_poly(clause, 3)), clause
    assert polys[0] == polys[1] != polys[2]
    assert polys[-1] == binom(30)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_encode_system_matches_rational_expansion(n):
    rng = random.Random(300 + n)
    clauses = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
               for _ in range(24)]
    cnf = Cnf3.from_signed(n, clauses)
    polys = encode_system(cnf)
    assert len(polys) == len(cnf.clauses)
    for clause, poly in zip(cnf.clauses, polys):
        expected = SparsePoly.one()
        factors = clause_poly(clause, n).factors
        for m, e in factors:
            for _ in range(max(e, 0)):
                expected = expected * binom(m)
        for m, e in factors:
            for _ in range(max(-e, 0)):
                expected = sparse_exact_div(expected, binom(m))
        assert poly == expected, clause


# -- assignment/root correspondence ----------------------------------------------


def test_assignment_to_root_examples():
    assert assignment_to_root((1, 0, 0), 3) == 16
    assert assignment_to_root((1, 1, 1), 3) == 0
    assert assignment_to_root((0, 0, 0), 3) == 1
    with pytest.raises(ValueError):
        assignment_to_root((1, 0), 3)
    with pytest.raises(ValueError):
        assignment_to_root((2, 0, 0), 3)


def test_root_to_assignment_examples():
    assert root_to_assignment(1, 31, 3) == (1, 1, 1)
    gen = find_generator(31)  # has full order 30, so no power condition holds
    assert root_to_assignment(gen, 31, 3) == (0, 0, 0)
    with pytest.raises(ValueError):
        root_to_assignment(3, 31, 4)  # 210 does not divide 30
    with pytest.raises(ValueError):
        root_to_assignment(0, 31, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_assignment_round_trip(n):
    prime = find_prime_in_progression(n, strategy="scan")
    p, q = prime.p, prime.q_n
    gen = find_generator(p)
    omega = pow(gen, (p - 1) // q, p)
    for bits in itertools.product((0, 1), repeat=n):
        t = assignment_to_root(bits, n)
        assert root_to_assignment(pow(omega, t, p), p, n) == bits
