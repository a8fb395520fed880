import enum
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfeas import sparsepoly
from padicfeas.errors import CapsExceeded, InexactDivision
from padicfeas.sparsepoly import (
    SparsePoly,
    _horner,
    exact_div,
    parse_poly,
    poly_from_obj,
    poly_to_obj,
    resultant_dense,
    to_dense,
    transcript_dumps,
)

from helpers import (
    dense,
    dense_divmod,
    dense_gcd_monic,
    dense_mul,
    dense_to_sparse_primitive,
    dense_trim,
    fraction_resultant,
    from_dense,
    random_nonzero_sparse,
    random_sparse,
    size,
    sparse_exact_div,
    sparse_gcd,
    subresultant_gcd,
)

ONE = SparsePoly([(1, 0)])


def X(e):
    return SparsePoly([(1, e)])  # x^e


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
    assert (X(1) + ONE).square() == parse_poly("x^2 + 2*x + 1")
    assert binom(15) * (X(5) + ONE) == parse_poly("x^20 + x^15 - x^5 - 1")
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


def test_ring_operations_match_the_dense_oracle():
    """*, binary - and unary - agree with the rational dense oracle, with
    integer scalars on either side, and return normalized polynomials."""
    rng = random.Random(27)
    for _ in range(300):
        f, g = random_sparse(rng), random_sparse(rng)
        a, b = dense(f), dense(g)
        difference = dense_trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])
        results = [(f * g, dense_mul(a, b)), (f - g, difference), (-f, [-x for x in a])]
        for k in (-2, -1, 0, 1, 3):
            results += [(k * f, dense_mul([Fraction(k)], a)), (f * k, dense_mul(a, [Fraction(k)]))]
        for h, expected in results:
            assert dense(h) == expected and SparsePoly(h.terms) == h, (f, g, h)


def test_eval_mod_examples():
    assert SparsePoly([(1, 2 ** 20), (1, 0)]).eval_mod(3, 7) == 5
    assert binom(15).eval_mod(2, 31) == 0  # 2^5 = 32 = 1 mod 31
    rng = random.Random(3)
    for _ in range(50):
        f = random_sparse(rng)
        m = rng.randint(2, 97)
        assert f.eval_mod(0, m) == sum(c for c, e in f.terms if e == 0) % m
    with pytest.raises(ValueError):
        binom(3).eval_mod(1, 1)


def test_eval_mod_is_multiplicative():
    rng = random.Random(8)
    for _ in range(300):
        f, g = random_sparse(rng), random_sparse(rng)
        x = rng.randint(-20, 20)
        m = rng.randint(2, 1000)
        assert (f * g).eval_mod(x, m) == f.eval_mod(x, m) * g.eval_mod(x, m) % m
        for y in (x, x + m, x - 2 * m):  # the dense Horner agrees, x >= m and x < 0 included
            assert _horner(to_dense(f, 10), y, m) == f.eval_mod(y, m)
            assert _horner(to_dense(f, 10), y) == sum(c * y ** e for c, e in f.terms)


def test_eval_mod_huge_exponent():
    f = SparsePoly([(1, 10 ** 30), (1, 0)])
    # order of 2 mod 101 divides 100; reduce the exponent independently
    assert f.eval_mod(2, 101) == (pow(2, 10 ** 30 % 100, 101) + 1) % 101


def test_derivative_examples():
    d = 2 ** 40
    assert SparsePoly([(1, d), (-3, 0)]).derivative() == SparsePoly([(d, d - 1)])
    assert SparsePoly([(9, 0)]).derivative().is_zero
    assert binom(30).derivative() == SparsePoly([(30, 29)])


def test_derivative_leibniz():
    rng = random.Random(12)
    for _ in range(300):
        f, g = random_sparse(rng), random_sparse(rng)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


def test_exact_div_examples():
    assert exact_div(binom(30), binom(15)) == X(15) + ONE
    assert exact_div(binom(10), binom(5)) == X(5) + ONE
    with pytest.raises(InexactDivision):
        exact_div(parse_poly("x^2 + 1"), parse_poly("x + 1"))
    with pytest.raises(InexactDivision):
        exact_div(parse_poly("x"), parse_poly("2*x"))  # quotient 1/2 not integral
    with pytest.raises(ValueError):
        exact_div(binom(3), SparsePoly())
    assert exact_div(SparsePoly(), binom(3)).is_zero
    # divided in y = x^(10^6), the exponents' gcd: two coefficients, not 2*10^6
    assert exact_div(binom(2 * 10 ** 6), binom(10 ** 6)) == X(10 ** 6) + ONE


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
    # exponents with gcd 1: the dividend's coefficient list would hold 10^7 + 1
    with pytest.raises(CapsExceeded):
        exact_div(X(10 ** 7) + X(10 ** 7 - 1), X(1) + ONE)


def test_size_examples():
    f = binom(5)  # x^5 - 1
    assert size(f) == 10
    assert size(SparsePoly()) == 0


def test_gcd_dense_power_binomials_exhaustive():
    for a in range(1, 61):
        for b in range(1, 61):
            assert sparse_gcd(binom(a), binom(b)) == binom(math.gcd(a, b))


def test_gcd_dense_examples():
    f = parse_poly("x-1") * parse_poly("x-2")
    g = parse_poly("x-1") * parse_poly("x-3")
    assert sparse_gcd(f, g) == parse_poly("x - 1")
    assert sparse_gcd(f, SparsePoly()) == f  # already primitive and monic
    assert sparse_gcd(SparsePoly(), SparsePoly()).is_zero
    # non-monic rational gcd comes back as the primitive integer associate
    f2 = parse_poly("2*x+1") * parse_poly("x+1")
    g2 = parse_poly("2*x+1") * parse_poly("x+2")
    assert sparse_gcd(f2, g2) == parse_poly("2*x+1")


def test_gcd_dense_against_fraction_euclid():
    rng = random.Random(21)
    for _ in range(150):
        f = random_sparse(rng, max_terms=4, max_exp=8)
        g = random_sparse(rng, max_terms=4, max_exp=8)
        expected = dense_to_sparse_primitive(dense_gcd_monic(dense(f), dense(g)))
        assert sparse_gcd(f, g) == expected


def _random_dense(rng, degree):
    """A polynomial of exactly this degree with coefficients in [-9, 9]; the
    zero polynomial for degree -1."""
    if degree < 0:
        return SparsePoly()
    lead = rng.choice((-1, 1)) * rng.randint(1, 9)
    return from_dense([rng.randint(-9, 9) for _ in range(degree)] + [lead])


def test_subresultant_gcd_and_resultant_match_rational_oracles():
    """Degrees up to 20: 12 for the random part, plus a shared factor of
    degree up to 6 or a squared one of degree up to 4, or f = q*g + r."""
    rng = random.Random(1967)
    seen = dict.fromkeys(("plain", "shared", "squared", "jump", "content", "odd*odd",
                          "deg f < deg g", "constant", "zero", "nonzero resultant"), 0)
    for _ in range(800):
        f = _random_dense(rng, rng.randint(-1, 12))
        g = _random_dense(rng, rng.randint(-1, 12))
        kind = rng.choice(("plain", "shared", "squared", "jump"))
        if kind == "jump":  # deg (f mod g) < deg g - 1: the sequence skips a degree
            g = _random_dense(rng, rng.randint(2, 8))
            r = _random_dense(rng, rng.randint(0, g.degree - 2))
            f = _random_dense(rng, rng.randint(0, 6)) * g + r
        elif kind == "shared":
            common = _random_dense(rng, rng.randint(1, 6))
            f, g = f * common, g * common
        elif kind == "squared":
            common = _random_dense(rng, rng.randint(1, 4))
            f, g = f * common.square(), g * common
        if rng.random() < 0.3:
            f = f * rng.choice((-2, 3, 6, -9, 35))
        if rng.random() < 0.3:
            g = g * rng.choice((2, -4, 15, 49))
        expected = fraction_resultant(f, g)
        assert expected.denominator == 1
        res = resultant_dense(f, g)
        assert type(res) is int and res == expected, (f, g)
        expected_gcd = dense_to_sparse_primitive(dense_gcd_monic(dense(f), dense(g)))
        assert sparse_gcd(f, g) == expected_gcd, (f, g)
        if f.is_zero or g.is_zero:
            seen["zero"] += 1
            continue
        df, dg = f.degree, g.degree
        seen[kind] += 1
        seen["content"] += any(math.gcd(*(c for c, _ in h.terms)) > 1 for h in (f, g))
        seen["odd*odd"] += df % 2 == 1 and dg % 2 == 1
        seen["deg f < deg g"] += df < dg
        seen["constant"] += df == 0 or dg == 0
        seen["nonzero resultant"] += expected != 0
    assert min(seen.values()) >= 15, seen


@st.composite
def _gcd_pairs(draw):
    """f = u * c**e and g = v * c, or g = f', with total degree at most 48:
    coprime pairs (c constant), shared, squared and cubed factors, content
    above 1, either sign of leading coefficient, coefficients up to 10**30,
    constants and the zero polynomial."""
    bound = draw(st.sampled_from((9, 10 ** 6, 10 ** 30)))

    def poly(max_degree):
        return from_dense(draw(st.lists(st.integers(-bound, bound), max_size=max_degree + 1)))

    c = poly(8)
    if c.is_zero:
        c = ONE
    f = poly(16)
    for _ in range(draw(st.integers(1, 3))):
        f = f * c
    g = f.derivative() if draw(st.booleans()) else poly(16) * c
    return f * draw(st.sampled_from((1, -1, 6, -35))), g * draw(st.sampled_from((1, 4, -15)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=_gcd_pairs())
def test_gcd_dense_matches_the_subresultant_gcd(pair):
    f, g = pair
    assert sparse_gcd(f, g) == subresultant_gcd(f, g)


def _product(*factors):
    """The product of parse_poly(text) over the factors, each a text or a
    (text, power) pair."""
    out = ONE
    for factor in factors:
        text, power = factor if isinstance(factor, tuple) else (factor, 1)
        for _ in range(power):
            out = out * parse_poly(text)
    return out


_BIG = f"{10 ** 30}*x^3 + 7*x - {10 ** 30 - 1}"


@pytest.mark.parametrize("f, g", [
    (("2*x+1", ("x-3", 2)), ("x-3", "x+5")),                       # a square
    ((("x^2+x+1", 3), "x-1"), (("x^2+x+1", 2), "x+2")),            # repeated quadratic
    (("6", "x-1", "x+1"), ("-15", ("x-1", 2))),                    # content, negative lc
    (("-1", _BIG), (_BIG, f"x^2 - {10 ** 30}")),                   # 10**30 coefficients
    (("-1", (_BIG, 2)), ("3", _BIG, f"{10 ** 30}*x - 1")),
    (("x^5 + 3",), ("12",)),                                       # a constant
    (("x^5 + 3",), ("0",)),                                        # the zero polynomial
    (("0",), ("-4*x^2 + 8",)),
    (("0",), ("0",)),
    (("-7",), ("0",)),
])
def test_gcd_dense_named_cases(f, g):
    f, g = _product(*f), _product(*g)
    assert sparse_gcd(f, g) == subresultant_gcd(f, g)
    assert sparse_gcd(f, f.derivative()) == subresultant_gcd(f, f.derivative())


def test_gcd_dense_falls_back_to_the_subresultant_sequence(monkeypatch):
    """When every evaluation point yields a candidate that divides neither
    operand, gcd_dense tries six growing points, then returns exactly what
    the subresultant sequence returns."""
    points = []

    def failing_value(a, xi):
        points.append(xi)
        return xi ** len(a)  # gcd xi**len(b) reads back as x**(deg b + 1)

    monkeypatch.setattr(sparsepoly, "_horner", failing_value)
    rng = random.Random(1989)
    pairs = []
    for _ in range(200):
        f = _random_dense(rng, rng.randint(-1, 10))
        g = _random_dense(rng, rng.randint(-1, 10)) * _random_dense(rng, rng.randint(0, 3))
        pairs.append((f * g if rng.random() < 0.5 else f, g))
    # 1330-bit coefficients: a float fourth root of xi would overflow here
    big = parse_poly(f"{10 ** 400}*x + 1")
    pairs.append((big * parse_poly("x + 2"), big * parse_poly("x - 3")))
    for f, g in pairs:
        points.clear()
        assert sparse_gcd(f, g) == subresultant_gcd(f, g), (f, g)
        if min(f.degree or 0, g.degree or 0) >= 1:
            assert len(points) == 12 and points[::2] == sorted(set(points[::2])), points


def test_gcd_dense_routes_agree_when_the_heuristic_gcd_gives_up(monkeypatch):
    """On pairs with a common factor of degree >= 1, the subresultant route
    that gcd_dense takes when _heuristic_gcd returns None gives the gcd that
    the heuristic route accepted."""
    rng = random.Random(1989)
    pairs = []
    for _ in range(200):
        c = _random_dense(rng, rng.randint(1, 4))
        pairs.append((_random_dense(rng, rng.randint(0, 8)) * c,
                      _random_dense(rng, rng.randint(0, 8)) * c * c))
    accepted = []
    heuristic_gcd = sparsepoly._heuristic_gcd

    def recorded(a, b):
        accepted.append(heuristic_gcd(a, b))
        return accepted[-1]

    monkeypatch.setattr(sparsepoly, "_heuristic_gcd", recorded)
    heuristic = [sparse_gcd(f, g) for f, g in pairs]
    assert len(accepted) == len(pairs) and None not in accepted
    assert min(h.degree for h in heuristic) >= 1
    monkeypatch.setattr(sparsepoly, "_heuristic_gcd", lambda a, b: None)
    assert [sparse_gcd(f, g) for f, g in pairs] == heuristic


def test_divides_matches_division_over_the_rationals():
    """The heuristic gcd's check: a primitive h divides a in Z[x] exactly
    when the rational remainder is zero, and then the quotient times h is a.
    Flooring the inexact top quotient of (3x + 1) / (2x + 1) would leave a
    zero remainder."""
    with pytest.raises(InexactDivision):
        sparsepoly._quotient([1, 2], [1, 3])
    rng = random.Random(1971)
    for _ in range(400):
        h = _random_dense(rng, rng.randint(0, 5))
        a = h * _random_dense(rng, rng.randint(0, 6))
        if rng.random() < 0.5:
            a = a + _random_dense(rng, rng.randint(0, 7))
        if a.is_zero:
            continue
        hd = sparsepoly._primitive(to_dense(h, 5))
        ad = sparsepoly._primitive(to_dense(a, 12))
        expected = not dense_divmod(dense(a), dense(h))[1]
        try:
            q = sparsepoly._quotient(hd, ad)
        except InexactDivision:
            q = None
        assert (q is not None) == expected, (h, a)
        if q is not None:
            assert from_dense(q) * from_dense(hd) == from_dense(ad), (h, a)


def test_gcd_dense_accepts_a_constant_gcd_without_dividing(monkeypatch):
    """Most squarefree f give gcd(f, f') = 1, so the heuristic gcd accepts a
    constant candidate without checking it by division: _quotient only ever
    sees candidates of positive degree, and coprime operands whose first
    evaluation point gives a constant never reach it."""
    divisors = []
    quotient = sparsepoly._quotient

    def spy(h, a):
        divisors.append(h)
        return quotient(h, a)

    monkeypatch.setattr(sparsepoly, "_quotient", spy)
    rng = random.Random(1989)
    undivided = 0
    for f in (_random_dense(rng, rng.randint(2, 12)) for _ in range(100)):
        g = f.derivative()
        divisors.clear()
        gcd = sparse_gcd(f, g)
        assert gcd == subresultant_gcd(f, g) and all(len(h) > 1 for h in divisors), (f, g)
        undivided += gcd == ONE and not divisors
    assert undivided >= 50


@pytest.mark.parametrize("f, g, candidate", [
    # x + 2 divides f but not g: only the check on g rejects it
    ("2*x^3 - 3*x^2 - 11*x + 6", "3*x^3 - 7*x^2 - 5*x - 3", "x + 2"),
    # the candidate is g itself and does not divide f: only the check on f rejects it
    ("3*x^4 - x^2 - 2*x - 3", "2*x - 1", "2*x - 1"),
])
def test_a_candidate_dividing_one_operand_only_is_rejected(monkeypatch, f, g, candidate):
    f, g = parse_poly(f), parse_poly(g)
    tried = []
    quotient = sparsepoly._quotient

    def spy(h, a):
        tried.append(from_dense(h))
        return quotient(h, a)

    monkeypatch.setattr(sparsepoly, "_quotient", spy)
    assert sparse_gcd(f, g) == subresultant_gcd(f, g) != parse_poly(candidate)
    assert tried[0] == parse_poly(candidate)


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
        ours = sparse_gcd(f, g)
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
    assert poly_from_obj(poly_to_obj(SparsePoly())).is_zero


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
    assert parse_poly("7") == SparsePoly([(7, 0)])
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


class _Level(enum.IntEnum):
    LOW = 3


class _Text(str):
    pass


class _Real(float):
    pass


@pytest.mark.parametrize("obj", [
    {}, [], (), [[]], [{}], {"a": []}, {"a": {}}, "", 0, -0.0, None, True,
    {"b": [1, (2, 3)], "a": {"c": None, "B": False}},
    [_Level.LOW, _Text("x"), _Real(1.5)],  # subclasses of int, str and float
])
def test_transcript_dumps_named_cases(obj):
    """One line and a newline, read back by json as json writes obj."""
    text = transcript_dumps(obj)
    assert text.endswith("\n") and "\n" not in text[:-1] and ": " not in text
    assert json.loads(text) == json.loads(json.dumps(obj))


# Each case keeps the id it had when the list began with {1: "a"} and
# {"a": {None: 1}}, which json.dumps writes with string keys.
@pytest.mark.parametrize("obj", [{1, 2}, [frozenset()], b"x", {"a": object()}],
                         ids=["obj2", "obj3", "x", "obj5"])
def test_transcript_dumps_rejects_what_no_report_holds(obj):
    """No report holds a set, bytes or any other object, and transcript_dumps
    refuses them, as json.dumps does."""
    with pytest.raises(TypeError):
        transcript_dumps(obj)
