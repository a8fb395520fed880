import random
from fractions import Fraction

import pytest

from padicfeas.errors import CapsExceeded, InexactDivision
from padicfeas.sparsepoly import (
    SparsePoly,
    exact_div,
    from_dense,
    gcd_dense,
    parse_poly,
    poly_from_obj,
    poly_to_obj,
    resultant_dense,
    to_dense,
)

from helpers import (
    dense,
    dense_gcd_monic,
    dense_to_sparse_primitive,
    random_nonzero_sparse,
    random_sparse,
    size,
    sparse_exact_div,
)

X = SparsePoly.x_power


def binom(m):
    return SparsePoly(((-1, 0), (1, m)))  # x^m - 1


def test_construction_normalizes():
    f = SparsePoly([(2, 3), (1, 0), (-2, 3), (0, 5)])
    assert f.terms == ((1, 0),)
    assert SparsePoly().is_zero
    assert SparsePoly().degree is None
    with pytest.raises(ValueError):
        SparsePoly([(1, -1)])


def test_arithmetic_examples():
    assert (X(1) + SparsePoly.one()).square() == parse_poly("x^2 + 2*x + 1")
    assert binom(15) * (X(5) + SparsePoly.one()) == parse_poly("x^20 + x^15 - x^5 - 1")
    f = random_sparse(random.Random(1))
    assert (f + (-f)).is_zero


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(1000):
        f, g, h = (random_sparse(rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)


def test_scalar_mul():
    f = parse_poly("x^2 - 3")
    assert 2 * f == f * 2 == parse_poly("2*x^2 - 6")
    assert (0 * f).is_zero


def test_eval_mod_examples():
    assert SparsePoly([(1, 2 ** 20), (1, 0)]).eval_mod(3, 7) == 5
    assert binom(15).eval_mod(2, 31) == 0  # 2^5 = 32 = 1 mod 31
    rng = random.Random(3)
    for _ in range(50):
        f = random_sparse(rng)
        m = rng.randint(2, 97)
        assert f.eval_mod(0, m) == f.constant_term % m
    with pytest.raises(ValueError):
        binom(3).eval_mod(1, 1)


def test_eval_mod_is_multiplicative():
    rng = random.Random(8)
    for _ in range(300):
        f, g = random_sparse(rng), random_sparse(rng)
        x = rng.randint(-20, 20)
        m = rng.randint(2, 1000)
        assert (f * g).eval_mod(x, m) == f.eval_mod(x, m) * g.eval_mod(x, m) % m


def test_eval_mod_huge_exponent():
    f = SparsePoly([(1, 10 ** 30), (1, 0)])
    # order of 2 mod 101 divides 100; reduce the exponent independently
    assert f.eval_mod(2, 101) == (pow(2, 10 ** 30 % 100, 101) + 1) % 101


def test_derivative_examples():
    d = 2 ** 40
    assert SparsePoly([(1, d), (-3, 0)]).derivative() == SparsePoly([(d, d - 1)])
    assert SparsePoly.constant(9).derivative().is_zero
    assert binom(30).derivative() == SparsePoly([(30, 29)])


def test_derivative_leibniz():
    rng = random.Random(12)
    for _ in range(300):
        f, g = random_sparse(rng), random_sparse(rng)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


def test_exact_div_examples():
    assert exact_div(binom(30), binom(15)) == X(15) + SparsePoly.one()
    assert exact_div(binom(10), binom(5)) == X(5) + SparsePoly.one()
    with pytest.raises(InexactDivision):
        exact_div(parse_poly("x^2 + 1"), parse_poly("x + 1"))
    with pytest.raises(InexactDivision):
        exact_div(parse_poly("x"), parse_poly("2*x"))  # quotient 1/2 not integral
    with pytest.raises(ValueError):
        exact_div(binom(3), SparsePoly.zero())
    assert exact_div(SparsePoly.zero(), binom(3)).is_zero


def test_exact_div_round_trip():
    rng = random.Random(99)
    for _ in range(300):
        f = random_sparse(rng)
        g = random_sparse(rng)
        if g.is_zero:
            continue
        assert exact_div(f * g, g) == f


def outcome(div, f, g):
    try:
        return div(f, g)
    except InexactDivision:
        return InexactDivision


def test_exact_div_matches_rational_oracle():
    rng = random.Random(2024)
    cases = [
        (parse_poly("x^2 + x"), parse_poly("2*x")),  # quotient (x + 1)/2
        (parse_poly("3*x^4 - 3"), parse_poly("3*x^2 + 3")),
        (parse_poly("2*x^3 + 4*x + 1"), parse_poly("2*x")),  # integral steps, remainder 1
        (parse_poly("x^3 - 1"), parse_poly("-x + 1")),
    ]
    for _ in range(400):
        g = random_nonzero_sparse(rng, max_coeff=6)
        q = random_sparse(rng, max_exp=20)
        r = random_sparse(rng, max_exp=max(g.degree - 1, 0), max_coeff=3)
        cases += [(q * g, g), (q * g, 2 * g), (q * g + r, g), (random_sparse(rng), g)]
    inexact = exact = 0
    for f, g in cases:
        expected = outcome(sparse_exact_div, f, g)
        assert outcome(exact_div, f, g) == expected, (f, g)
        if expected is InexactDivision:
            inexact += 1
        else:
            exact += 1
            assert expected * g == f
    assert exact > 400 and inexact > 400
    with pytest.raises(InexactDivision, match="not an integer polynomial"):
        exact_div(parse_poly("x^2 + x"), parse_poly("2*x"))
    with pytest.raises(InexactDivision, match="nonzero remainder"):
        exact_div(parse_poly("2*x^3 + 4*x + 1"), parse_poly("2*x"))


def test_exact_div_term_cap():
    with pytest.raises(CapsExceeded):
        exact_div(binom(1000), binom(1), term_cap=10)


def test_size_examples():
    f = binom(5)  # x^5 - 1
    assert size(f) == 10
    assert size(SparsePoly.zero()) == 0


def test_reverse_examples():
    assert parse_poly("x^2 - 2").reverse() == parse_poly("-2*x^2 + 1")
    d = 2 ** 33
    assert SparsePoly([(1, d), (-7, 0)]).reverse() == SparsePoly([(-7, d), (1, 0)])
    assert SparsePoly.constant(5).reverse() == SparsePoly.constant(5)
    with pytest.raises(ValueError):
        SparsePoly.zero().reverse()
    rng = random.Random(4)
    for _ in range(100):
        f = random_sparse(rng)
        if f.is_zero or f.min_exponent > 0:
            continue
        assert f.reverse().reverse() == f


def test_gcd_dense_power_binomials_exhaustive():
    import math

    for a in range(1, 61):
        for b in range(1, 61):
            assert gcd_dense(binom(a), binom(b)) == binom(math.gcd(a, b))


def test_gcd_dense_examples():
    f = parse_poly("x-1") * parse_poly("x-2")
    g = parse_poly("x-1") * parse_poly("x-3")
    assert gcd_dense(f, g) == parse_poly("x - 1")
    assert gcd_dense(f, SparsePoly.zero()) == f  # already primitive and monic
    assert gcd_dense(SparsePoly.zero(), SparsePoly.zero()).is_zero
    # non-monic rational gcd comes back as the primitive integer associate
    f2 = parse_poly("2*x+1") * parse_poly("x+1")
    g2 = parse_poly("2*x+1") * parse_poly("x+2")
    assert gcd_dense(f2, g2) == parse_poly("2*x+1")
    with pytest.raises(CapsExceeded):
        gcd_dense(X(10 ** 7), X(2), degree_cap=100)


def test_gcd_dense_against_fraction_euclid():
    rng = random.Random(21)
    for _ in range(150):
        f = random_sparse(rng, max_terms=4, max_exp=8)
        g = random_sparse(rng, max_terms=4, max_exp=8)
        expected = dense_to_sparse_primitive(dense_gcd_monic(dense(f), dense(g)))
        assert gcd_dense(f, g) == expected


def test_gcd_and_resultant_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(31)

    def to_sympy(f):
        return sum(c * x ** e for c, e in f.terms)

    for _ in range(80):
        f = random_sparse(rng, max_terms=4, max_exp=7)
        g = random_sparse(rng, max_terms=4, max_exp=7)
        if f.is_zero or g.is_zero:
            continue
        ours = gcd_dense(f, g)
        theirs = sympy.Poly(sympy.gcd(to_sympy(f), to_sympy(g), x), x)
        _, prim = theirs.primitive()
        if prim.LC() < 0:
            prim = -prim
        assert sympy.Poly(to_sympy(ours), x) == prim
        if f.degree > 0 or g.degree > 0:
            # sympy's PRS resultant can drop the sign when deg f < deg g,
            # so compare magnitude here and the sign against Sylvester below
            assert abs(resultant_dense(f, g)) == abs(
                Fraction(int(sympy.resultant(to_sympy(f), to_sympy(g), x)))
            )


def test_resultant_sign_matches_sylvester_determinant():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(63)
    for _ in range(60):
        f = random_sparse(rng, max_terms=3, max_exp=5)
        g = random_sparse(rng, max_terms=3, max_exp=5)
        if f.is_zero or g.is_zero or f.degree == 0 and g.degree == 0:
            continue
        df, dg = int(f.degree), int(g.degree)
        if df == 0 or dg == 0:
            continue
        fd = to_dense(f, 10)[::-1]
        gd = to_dense(g, 10)[::-1]
        rows = []
        for i in range(dg):
            rows.append([0] * i + fd + [0] * (dg - 1 - i))
        for i in range(df):
            rows.append([0] * i + gd + [0] * (df - 1 - i))
        det = sympy.Matrix(rows).det()
        assert resultant_dense(f, g) == Fraction(int(det))


def test_dense_round_trip():
    f = parse_poly("3*x^4 - x + 2")
    assert from_dense(to_dense(f, 10)) == f
    with pytest.raises(CapsExceeded):
        to_dense(X(1000), 10)


def test_serialization_round_trip():
    f = SparsePoly([(3, 50), (-2, 3), (1, 0), (10 ** 40, 10 ** 30)])
    obj = poly_to_obj(f)
    assert obj["terms"][0] == ["1", "0"]
    assert poly_from_obj(obj) == f
    assert poly_from_obj(poly_to_obj(SparsePoly.zero())).is_zero


def test_serialization_rejects_malformed():
    with pytest.raises(ValueError):
        poly_from_obj({"terms": [["0", "1"]]})
    with pytest.raises(ValueError):
        poly_from_obj({"terms": [["1", "5"], ["2", "3"]]})  # not increasing
    with pytest.raises(ValueError):
        poly_from_obj({"nope": []})
    with pytest.raises(ValueError):
        poly_from_obj({"terms": [["1"]]})
    for terms in (7, [5], [[None, 1]], [["1", {}]], "12", [[" 1", "0"]], [["1_0", "0"]],
                  [["+1", "0"]], [["1", "\u0662"]], [["", "0"]], [["-", "0"]], [["1", "1.0"]]):
        with pytest.raises(ValueError):
            poly_from_obj({"terms": terms})


def test_parse_poly():
    assert parse_poly("3*x^50 - 2*x^3 + 1") == SparsePoly([(3, 50), (-2, 3), (1, 0)])
    assert parse_poly("x") == X(1)
    assert parse_poly("-x^2 + x") == SparsePoly([(-1, 2), (1, 1)])
    assert parse_poly("7") == SparsePoly.constant(7)
    assert parse_poly("2x^3+1") == SparsePoly([(2, 3), (1, 0)])
    exp = 10 ** 25
    assert parse_poly(f"x^{exp} - 1") == binom(exp)
    for bad in ("", "y + 1", "x^", "3**x", "1 + + 2", "x^\u0662", "\u0663*x"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_str_round_trips_through_parse():
    rng = random.Random(17)
    for _ in range(200):
        f = random_sparse(rng)
        assert parse_poly(str(f)) == f or f.is_zero and str(f) == "0"
