"""Sparse univariate integer polynomials with arbitrary-precision exponents,
and the package's one home for arithmetic on dense coefficient lists.

A polynomial is a tuple of (coefficient, exponent) terms with strictly
increasing nonnegative exponents and no zero coefficients; the empty tuple is
the zero polynomial.  Exponents may be astronomically larger than the term
count, so eval_mod, derivative and Hensel lifting never expand to a dense
representation: they work term by term, one modular power per term, which
is what lets Hensel lifting take exponents that no coefficient list can
hold.  exact_div does expand, to coefficient lists in x**s for s the gcd
of the exponents, under a degree cap.

A coefficient list [c_0, ..., c_d] comes from to_dense, guarded by a degree
cap, or from a caller that builds it (the reduction's laid-out clause
polynomials).  Every dense routine the package runs lives here: Horner's
rule over the integers or modulo m (_horner), the derivative (_derivative),
the DFT modulo p at every power of a root of unity by one big-integer
product (_chirp and _dft, Bluestein 1970), and the gcd and exact quotient of
coefficient lists; no rational arithmetic is involved.  The gcd is a
heuristic gcd, one integer gcd of values checked by exact division, with the
integer subresultant remainder sequence as its fallback.  At degree 512
(random coefficients in [-9, 9], 2 vCPU) gcd(f, f') takes milliseconds.
resultant_dense runs the same sequence and takes about 20 s there; the
decider does not call it, the tests' refinement-depth oracle does.

The file formats live here too: parse_poly reads a polynomial's text,
parse_int a JSON integer, poly_to_obj and poly_from_obj a polynomial's JSON
object, and transcript_dumps writes the canonical JSON of every report."""

from __future__ import annotations

import json
import re
from itertools import accumulate, repeat
from math import gcd as _int_gcd, isqrt
from operator import mod, mul, neg
from struct import Struct

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
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            other = SparsePoly(((other, 0),))
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return SparsePoly((c1 * c2, e1 + e2) for c1, e1 in self._terms for c2, e2 in other._terms)

    __rmul__ = __mul__

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

    def derivative(self) -> "SparsePoly":
        return SparsePoly((c * e, e - 1) for c, e in self._terms if e > 0)


# -- exact division ----------------------------------------------------------


def exact_div(f: SparsePoly, g: SparsePoly, *, term_cap: int = 1_000_000) -> SparsePoly:
    """Integer quotient q with f = q*g, by _quotient's long division of the
    coefficient lists in y = x**s, s the gcd of all exponents of f and g.

    Raises InexactDivision as _quotient does, and CapsExceeded, before any
    list is built, when f or g has degree in y beyond term_cap."""
    if g.is_zero:
        raise ValueError("division by the zero polynomial")
    if f.is_zero:
        return SparsePoly()
    s = _int_gcd(*(e for _, e in f.terms + g.terms)) or 1
    a, h = (to_dense(SparsePoly((c, e // s) for c, e in u.terms), term_cap) for u in (f, g))
    return SparsePoly((c, j * s) for j, c in enumerate(_quotient(h, a)))


# -- dense helpers (the brute-force decider's route) --------------------------


def to_dense(f: SparsePoly, degree_cap: int) -> list[int]:
    """Coefficient list [c_0, ..., c_d]; refuses degrees beyond degree_cap."""
    if f.is_zero:
        return []
    if f.degree > degree_cap:
        raise CapsExceeded(f"degree {f.degree} exceeds the oracle cap {degree_cap}")
    out = [0] * (int(f.degree) + 1)
    for c, e in f.terms:
        out[e] = c
    return out


def _horner(a: list[int], x: int, m: int = 0) -> int:
    """a(x) by Horner's rule: an integer, or its residue modulo m when m is
    given, reduced at every step."""
    acc = 0
    if m:
        for c in reversed(a):
            acc = (acc * x + c) % m
    else:
        for c in reversed(a):
            acc = acc * x + c
    return acc


def _derivative(a: list[int]) -> list[int]:
    return [c * e for e, c in enumerate(a)][1:]


def _pack(values, width: int) -> int:
    """The integer whose width-byte little-endian slots hold values in order."""
    return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(width), repeat("little"))),
                          "little")


def _chirp(period: int, w: int, p: int):
    """What the DFTs at w, a primitive period-th root of unity modulo p, share:
    the width in bytes of a slot (a sum of period products of residues), the
    inverse chirp w**-C(j, 2) for j < period, the packed reversed chirp
    w**C(s, 2) for s < 2*period - 1 and a Struct that cuts period slots."""
    powers = list(accumulate(repeat(w, period - 1), lambda x, _: x * w % p, initial=1))
    tri = list(map(mod, accumulate(range(2 * period - 2), initial=0), repeat(period)))
    width = ((period * (p - 1) ** 2).bit_length() + 7) // 8
    inverse = list(map(powers.__getitem__, map(neg, tri[:period])))
    packed = _pack(map(powers.__getitem__, reversed(tri)), width)
    return width, inverse, packed, Struct(f"{width}s" * period)


def _dft(coeffs, chirp, p: int) -> list[int]:
    """[sum_j coeffs[j] * w**(j*k) mod p for k < period] by one big-integer
    product (Bluestein 1970).  As j*k = C(j+k, 2) - C(j, 2) - C(k, 2), value k
    is w**-C(k, 2) times sum_j a_j * w**C(j+k, 2), a_j = coeffs[j] * w**-C(j, 2):
    slot 2*period - 2 - k of the packed a_j times the packed reversed chirp,
    that is slot k, read big-endian, of the window from slot period - 1 on."""
    width, inverse, packed, cut = chirp
    period = len(inverse)
    a = _pack(map(mod, map(mul, coeffs, inverse), repeat(p)), width)
    product = (a * packed).to_bytes((3 * period - 2) * width, "big")
    slots = map(int.from_bytes, cut.unpack_from(product, (period - 1) * width), repeat("big"))
    return list(map(mod, map(mul, slots, inverse), repeat(p)))


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


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The classical pseudo-remainder: lc(b)**(deg a - deg b + 1) * a mod b,
    computed in the integers (deg a >= deg b >= 0)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    for shift in range(len(a) - 1 - db, -1, -1):
        top = r.pop()
        r = [c * lb for c in r]
        for i in range(db):
            r[shift + i] -= top * b[i]
    return _trim(r)


def _subresultant_prs(a: list[int], b: list[int]):
    """Run the subresultant remainder sequence (Collins 1967; Brown-Traub
    1971) of a and b, deg a >= deg b, until the remainder is constant or
    zero.  Each pseudo-remainder is divided exactly by g * h**delta, which
    keeps the coefficients as small as the subresultants themselves without
    taking a single content.  Returns the last two members, h and the sign
    (-1)**(sum of deg a * deg b over the steps)."""
    sign, g, h = 1, 1, 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        d = g * h ** delta
        a, b = b, [c // d for c in _prem(a, b)]
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
    return a, b, h, sign


def _quotient(h: list[int], a: list[int]) -> list[int]:
    """a / h in Z[x] as a coefficient list, by long division that stops at
    the first top coefficient lc(h) does not divide.  Raises
    InexactDivision("quotient is not an integer polynomial") there, and
    InexactDivision("nonzero remainder") when the division ends with one.
    For primitive h that is division over Q (Gauss's lemma), and unlike a
    pseudo-remainder the working coefficients never grow by powers of lc(h)."""
    r = list(a)
    dh = len(h) - 1
    q = [0] * (len(a) - dh)
    for shift in range(len(a) - 1 - dh, -1, -1):
        c, rem = divmod(r.pop(), h[-1])
        if rem:
            raise InexactDivision("quotient is not an integer polynomial")
        q[shift] = c
        for i in range(dh):
            r[shift + i] -= c * h[i]
    if any(r):
        raise InexactDivision("nonzero remainder")
    return q


def _heuristic_gcd(a: list[int], b: list[int]):
    """The heuristic gcd GCDHEU (Char, Geddes and Gonnet 1989) of primitive
    a and b with positive leading coefficients and deg a >= deg b >= 1, or
    None after six failed evaluation points.

    gamma = gcd(a(xi), b(xi)) is read back as the polynomial H of its
    symmetric xi-adic digits, and h = pp(H) is accepted only if it divides a
    and b exactly.  An accepted h is the gcd: if the gcd were h*q with
    deg q >= 1, q(xi) would divide cont(H), yet every root of q is a root of
    the operand of smaller norm n, so |q(xi)| > (xi - 1 - n)**deg q >= xi/2
    >= |cont(H)| once xi >= 2*n + 2."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        gamma = _int_gcd(_horner(a, xi), _horner(b, xi))
        h = []
        while gamma:
            digit = gamma % xi
            if 2 * digit > xi:
                digit -= xi
            h.append(digit)
            gamma = (gamma - digit) // xi
        h = _primitive(h)  # a constant h is [1], which divides both
        try:
            if len(h) > 1:
                _quotient(h, a)
                _quotient(h, b)
            return h
        except InexactDivision:
            xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def gcd_dense(a: list[int], b: list[int]) -> list[int]:
    """Gcd over the rationals of two coefficient lists: by the heuristic gcd,
    one integer gcd of values checked by exact division, and by the
    subresultant remainder sequence when six evaluation points fail.
    Returned as the primitive integer list with positive leading coefficient
    (the canonical associate of the monic gcd), so both routes agree
    exactly.  Callers bound the degree before they expand to lists."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1:
        h = _heuristic_gcd(a, b)
        if h is not None:
            return h
    a, b, _, _ = _subresultant_prs(a, b)
    return _primitive(b or a)


def resultant_dense(f: SparsePoly, g: SparsePoly, degree_cap: int = 100_000) -> int:
    """Resultant Res(f, g) in the integers, by the subresultant remainder
    sequence of the primitive parts: Res(ca*A, cb*B) = ca**deg B * cb**deg A *
    Res(A, B), and swapping A and B multiplies by (-1)**(deg A * deg B)."""
    a = to_dense(f, degree_cap)
    b = to_dense(g, degree_cap)
    if not a or not b:
        return 0
    pa, pb = _primitive(a), _primitive(b)
    da, db = len(a) - 1, len(b) - 1
    scale = (a[-1] // pa[-1]) ** db * (b[-1] // pb[-1]) ** da
    if da < db:
        pa, pb = pb, pa
        if da & db & 1:
            scale = -scale
    a, b, h, sign = _subresultant_prs(pa, pb)
    if not b:
        return 0
    d = len(a) - 1
    return sign * scale * (b[0] ** d * h // h ** d)  # h**(1 - d) * b0**d, exact


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


def transcript_dumps(obj) -> str:
    """Canonical JSON of every report and transcript: sorted keys, fixed
    layout, trailing newline, so equal runs serialize to identical bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
