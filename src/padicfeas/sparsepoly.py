"""Sparse univariate integer polynomials with arbitrary-precision exponents.

A polynomial is a tuple of (coefficient, exponent) terms with strictly
increasing nonnegative exponents and no zero coefficients; the empty tuple is
the zero polynomial.  Exponents may be astronomically larger than the term
count, so nothing here ever expands to a dense representation except the
explicitly dense helpers (gcd, resultant) that the brute-force decider runs
on, each guarded by a degree cap.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from math import gcd as _int_gcd

from .errors import CapsExceeded, InexactDivision


class SparsePoly:
    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict[int, int] = {}
        for c, e in terms:
            if e < 0:
                raise ValueError("negative exponents are not representable; rescale first")
            acc[e] = acc.get(e, 0) + c
        self._terms = tuple((c, e) for e, c in sorted(acc.items()) if c != 0)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def one(cls) -> "SparsePoly":
        return cls(((1, 0),))

    @classmethod
    def constant(cls, c: int) -> "SparsePoly":
        return cls(((c, 0),))

    @classmethod
    def x_power(cls, e: int) -> "SparsePoly":
        return cls(((1, e),))

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return self._terms[-1][1] if self._terms else None

    @property
    def constant_term(self) -> int:
        if self._terms and self._terms[0][1] == 0:
            return self._terms[0][0]
        return 0

    @property
    def min_exponent(self):
        return self._terms[0][1] if self._terms else None

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, SparsePoly) and self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        return f"SparsePoly({list(self._terms)!r})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for c, e in reversed(self._terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{e}" if mag == 1 else f"{mag}*x^{e}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return SparsePoly(self._terms + other._terms)

    def __neg__(self):
        out = SparsePoly()
        out._terms = tuple((-c, e) for c, e in self._terms)
        return out

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return SparsePoly((c * other, e) for c, e in self._terms)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for c1, e1 in self._terms:
            for c2, e2 in other._terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        out = SparsePoly()
        out._terms = tuple((c, e) for e, c in sorted(acc.items()) if c != 0)
        return out

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def square(self) -> "SparsePoly":
        return self * self

    # -- evaluation ---------------------------------------------------------

    def eval_mod(self, x: int, m: int) -> int:
        """f(x) mod m; one modular powering per term, so exponents may be huge."""
        if m < 2:
            raise ValueError("modulus must be at least 2")
        x %= m
        total = 0
        for c, e in self._terms:
            total += c * pow(x, e, m)
        return total % m

    def evaluate(self, x: int) -> int:
        """Exact integer evaluation; only sensible for small degrees."""
        return sum(c * x ** e for c, e in self._terms)

    def derivative(self) -> "SparsePoly":
        return SparsePoly((c * e, e - 1) for c, e in self._terms if e > 0)

    def reverse(self) -> "SparsePoly":
        """x**deg(f) * f(1/x): exponent e becomes deg(f) - e."""
        if not self._terms:
            raise ValueError("cannot reverse the zero polynomial")
        d = self.degree
        return SparsePoly((c, d - e) for c, e in self._terms)


# -- exact division ----------------------------------------------------------


def exact_div(f: SparsePoly, g: SparsePoly, *, term_cap: int = 1_000_000) -> SparsePoly:
    """Integer quotient q with f = q*g, by sparse long division from the top
    term in integer arithmetic.

    Each step divides the top remainder coefficient by lc(g).  Raises
    InexactDivision("quotient is not an integer polynomial") as soon as that
    division leaves a remainder, InexactDivision("nonzero remainder") when
    a term below deg(g) is left over, and CapsExceeded if the working term
    count blows past term_cap (a dense-blowup guard, not a correctness limit).
    """
    if g.is_zero:
        raise ValueError("division by the zero polynomial")
    if f.is_zero:
        return SparsePoly.zero()
    cg, eg = g.terms[-1]
    lower = g.terms[:-1]  # the leading term cancels exactly
    rem = {e: c for c, e in f.terms}
    heap = [-e for e in rem]
    heapq.heapify(heap)
    quot = []  # one term per step, exponents strictly descending
    while rem:
        if len(rem) + len(quot) > term_cap:
            raise CapsExceeded(f"exact_div exceeded the term cap of {term_cap}")
        er = -heapq.heappop(heap)
        cr = rem.pop(er, None)
        if cr is None:
            continue  # stale heap entry
        if er < eg:
            raise InexactDivision("nonzero remainder")
        qc, r = divmod(cr, cg)
        if r:
            raise InexactDivision("quotient is not an integer polynomial")
        qe = er - eg
        quot.append((qc, qe))
        for c, e in lower:
            te = qe + e
            new = rem.get(te, 0) - qc * c
            if new == 0:
                rem.pop(te, None)
            else:
                if te not in rem:
                    heapq.heappush(heap, -te)
                rem[te] = new
    out = SparsePoly()
    out._terms = tuple(reversed(quot))
    return out


# -- dense helpers (the brute-force decider's route) --------------------------


def to_dense(f: SparsePoly, degree_cap: int) -> list[int]:
    """Coefficient list [c_0, ..., c_d]; refuses degrees beyond degree_cap."""
    if f.is_zero:
        return []
    if f.degree > degree_cap:
        raise CapsExceeded(f"degree {f.degree} exceeds the dense cap of {degree_cap}")
    out = [0] * (int(f.degree) + 1)
    for c, e in f.terms:
        out[e] = c
    return out


def from_dense(coeffs: list[int]) -> SparsePoly:
    return SparsePoly((c, e) for e, c in enumerate(coeffs) if c != 0)


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a: list[int]) -> list[int]:
    """Divide out the content; normalize the leading coefficient positive."""
    g = 0
    for c in a:
        g = _int_gcd(g, c)
    if g == 0:
        return []
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of lc(b)**s * a modulo b in the integers, with s the number
    of elimination steps.  Each step multiplies by lc(b) once and can lower
    the degree by more than one, so s <= deg a - deg b + 1: the result is
    the classical pseudo-remainder divided by a power of lc(b), which
    gcd_dense, taking primitive parts, does not see."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        top = a[-1]
        a = [c * lb for c in a]
        shift = da - db
        for i, c in enumerate(b):
            a[shift + i] -= top * c
        _trim(a)
    return a


def gcd_dense(f: SparsePoly, g: SparsePoly, degree_cap: int = 100_000) -> SparsePoly:
    """Gcd over the rationals, computed densely with a primitive remainder
    sequence; returned as the primitive integer polynomial with positive
    leading coefficient (the canonical associate of the monic gcd)."""
    a = _primitive(to_dense(f, degree_cap))
    b = _primitive(to_dense(g, degree_cap))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return from_dense(a)


def resultant_dense(f: SparsePoly, g: SparsePoly, degree_cap: int = 100_000) -> Fraction:
    """Resultant Res(f, g), computed densely over the rationals."""
    a = [Fraction(c) for c in to_dense(f, degree_cap)]
    b = [Fraction(c) for c in to_dense(g, degree_cap)]
    if not a or not b:
        return Fraction(0)
    res = Fraction(1)
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * b[0] ** da
        # r = a mod b
        r = list(a)
        while len(r) - 1 >= db and r:
            top = r[-1] / b[-1]
            shift = len(r) - 1 - db
            for i, c in enumerate(b):
                r[shift + i] -= top * c
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return Fraction(0)
        dr = len(r) - 1
        res *= (-1) ** (da * db) * b[-1] ** (da - dr)
        a, b = b, r


# -- text and object formats --------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<coef>\d+)?(?P<x>\*?x(?:\^(?P<exp>\d+))?)?$", re.ASCII
)


def parse_poly(text: str) -> SparsePoly:
    """Parse a human-readable expression like '3*x^50 - 2*x^3 + 1'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial expression")
    pieces = []
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i != start and s[i - 1] not in "+-*^":
            pieces.append(s[start:i])
            start = i
    pieces.append(s[start:])
    terms = []
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if not m or (m.group("coef") is None and m.group("x") is None):
            raise ValueError(f"cannot parse polynomial term {piece!r}")
        c = int(m.group("coef")) if m.group("coef") else 1
        if m.group("sign") == "-":
            c = -c
        if m.group("x"):
            e = int(m.group("exp")) if m.group("exp") else 1
        else:
            e = 0
        terms.append((c, e))
    return SparsePoly(terms)


def parse_int(v) -> int:
    """v as an int: a JSON integer, or an optional '-' and ASCII digits.  int()
    alone also takes floats, bools, '+', '_', spaces and non-ASCII digits."""
    if type(v) is int:
        return v
    if type(v) is str:
        digits = v[1:] if v.startswith("-") else v
        if digits.isascii() and digits.isdigit():
            return int(v)
    raise ValueError(f"{v!r} is not an integer")


def poly_to_obj(f: SparsePoly) -> dict:
    """Serializable form: {'terms': [[coeff, exp], ...]} with decimal strings,
    exponents strictly increasing."""
    return {"terms": [[str(c), str(e)] for c, e in f.terms]}


def poly_from_obj(obj) -> SparsePoly:
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ValueError("polynomial object must be a mapping with a 'terms' key")
    if not isinstance(obj["terms"], (list, tuple)):
        raise ValueError("'terms' must be a list of [coefficient, exponent] pairs")
    terms = []
    prev = -1
    for entry in obj["terms"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError("each term must be a [coefficient, exponent] pair")
        c, e = parse_int(entry[0]), parse_int(entry[1])
        if c == 0:
            raise ValueError("zero coefficients are not allowed in the file format")
        if e <= prev:
            raise ValueError("exponents must be strictly increasing")
        prev = e
        terms.append((c, e))
    return SparsePoly(terms)
