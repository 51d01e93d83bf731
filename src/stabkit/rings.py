"""Exact coefficient rings: Z, Q[t^±1], Z[w] (w^2 + w + 1 = 0).

Every ring here is a Euclidean domain with an explicit division step, so
Smith normal form and gcd computations terminate with exact results.  Ring
elements do their own arithmetic through Python operators (`+`, `-`, `*`,
`==`, builtin `divmod`, `str`); a ring descriptor (`INTEGERS`, `LAURENT`,
`EISENSTEIN`) holds only the Euclidean structure that the generic matrix
algorithms need: zero and one, the zero test, the Euclidean size, the units
and the canonical associates.  No floating point is used anywhere; rational numbers are
`fractions.Fraction` and all integers are arbitrary precision.

Units are quotiented away through canonical associates:

* integers: the canonical associate is `abs(n)`;
* `Q[t^±1]`: units are `q * t^k`; canonical means minimum exponent 0 and
  leading coefficient 1;
* `Z[w]`: units are the six roots of unity; canonical means complex
  argument in `[0, pi/3)`, equivalently coordinates `a > b >= 0` (zero is
  fixed).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping, Optional

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*(?P<var1>[tw])(?:\^(?P<exp1>-?\d+))?)?
          | (?P<var2>[tw])(?:\^(?P<exp2>-?\d+))?
        )\s*""",
    re.VERBOSE,
)


class RingFormatError(ValueError):
    """Raised when a textual ring element does not match the documented form."""


def _parse_terms(text: str, var: str) -> dict[int, Fraction]:
    """Parse a sum like ``-1 + 2*t`` or ``3/2*t^-2`` into {exponent: coeff}."""
    terms: dict[int, Fraction] = {}
    pos = 0
    first = True
    text = text.strip()
    if not text:
        raise RingFormatError("empty ring element")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise RingFormatError(f"cannot parse {text!r} at offset {pos}")
        sign = m.group("sign")
        if sign is None and not first:
            raise RingFormatError(f"missing +/- between terms in {text!r}")
        c = Fraction(-1 if sign == "-" else 1)
        seen_var = m.group("var1") or m.group("var2")
        if m.group("coeff") is not None:
            c *= Fraction(m.group("coeff"))
        if seen_var is not None and seen_var != var:
            raise RingFormatError(f"unexpected variable {seen_var!r} in {text!r}")
        exp_text = m.group("exp1") or m.group("exp2")
        exp = 0
        if seen_var is not None:
            exp = int(exp_text) if exp_text is not None else 1
        terms[exp] = terms.get(exp, Fraction(0)) + c
        pos = m.end()
        first = False
    return {e: c for e, c in terms.items() if c != 0}


def _format_terms(terms: Mapping[int, Fraction], var: str) -> str:
    """Render terms in increasing exponent order, e.g. ``-1 + 2*t``."""
    terms = {e: c for e, c in terms.items() if c != 0}
    if not terms:
        return "0"
    parts: list[str] = []
    for i, exp in enumerate(sorted(terms)):
        c = terms[exp]
        neg = c < 0
        mag = -c if neg else c
        if exp == 0:
            body = str(mag)
        else:
            v = var if exp == 1 else f"{var}^{exp}"
            body = v if mag == 1 else f"{mag}*{v}"
        if i == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


class LaurentPolyQ:
    """A Laurent polynomial over Q, stored as sorted (exponent, coefficient) pairs.

    The Euclidean size is the degree span (max exponent - min exponent); the
    division step shifts both operands to honest polynomials, divides there,
    and restores the unit factors.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[int, object]] = None):
        acc: dict[int, Fraction] = {}
        for exp, coeff in (terms or {}).items():  # dict keys: exponents are distinct
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                acc[exp] = c
        object.__setattr__(self, "_terms", tuple(sorted(acc.items())))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("LaurentPolyQ is immutable")

    @classmethod
    def from_int(cls, n: int) -> "LaurentPolyQ":
        return cls({0: n})

    @classmethod
    def parse(cls, text: str) -> "LaurentPolyQ":
        return cls(_parse_terms(text, "t"))

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return self._terms[0][0]

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return self._terms[-1][0]

    def deg_span(self) -> int:
        return self.max_exp() - self.min_exp()

    def __add__(self, other: "LaurentPolyQ") -> "LaurentPolyQ":
        acc = dict(self._terms)
        for e, c in other._terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return LaurentPolyQ(acc)

    def __neg__(self) -> "LaurentPolyQ":
        return LaurentPolyQ({e: -c for e, c in self._terms})

    def __sub__(self, other: "LaurentPolyQ") -> "LaurentPolyQ":
        return self + (-other)

    def __mul__(self, other: "LaurentPolyQ") -> "LaurentPolyQ":
        acc: dict[int, Fraction] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = e1 + e2
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return LaurentPolyQ(acc)

    def shift(self, k: int) -> "LaurentPolyQ":
        return LaurentPolyQ({e + k: c for e, c in self._terms})

    def __divmod__(self, other: "LaurentPolyQ") -> tuple["LaurentPolyQ", "LaurentPolyQ"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return LaurentPolyQ(), LaurentPolyQ()
        # shift to ordinary polynomials with nonzero constant term
        sn, sd = self.min_exp(), other.min_exp()
        num = {e - sn: c for e, c in self._terms}
        den = {e - sd: c for e, c in other._terms}
        dd = max(den)
        q: dict[int, Fraction] = {}
        r = dict(num)
        while r and max(r) >= dd:
            dr = max(r)
            c = r[dr] / den[dd]
            q[dr - dd] = c
            for e, dc in den.items():
                ne = e + dr - dd
                nv = r.get(ne, Fraction(0)) - c * dc
                if nv == 0:
                    r.pop(ne, None)
                else:
                    r[ne] = nv
        quot = LaurentPolyQ(q).shift(sn - sd)
        rem = LaurentPolyQ(r).shift(sn)
        return quot, rem

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPolyQ) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(("LaurentPolyQ", self._terms))

    def __str__(self) -> str:
        return _format_terms(dict(self._terms), "t")

    def __repr__(self) -> str:
        return f"LaurentPolyQ({dict(self._terms)!r})"


def _round_half_down(f: Fraction) -> int:
    """Nearest integer; a tie (fraction exactly 1/2) rounds toward -infinity."""
    return math.ceil(f - Fraction(1, 2))


class EisensteinInt:
    """An element a + b*w of Z[w] with w^2 + w + 1 = 0 (w a primitive cube root).

    The field norm is N(a + b*w) = a^2 - a*b + b^2, multiplicative and
    Euclidean: the division step rounds the exact ratio to a nearest lattice
    point coordinate-wise, which keeps N(remainder) <= 3/4 * N(divisor).
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        object.__setattr__(self, "a", int(a))
        object.__setattr__(self, "b", int(b))

    def __setattr__(self, name, value):
        raise AttributeError("EisensteinInt is immutable")

    @classmethod
    def from_int(cls, n: int) -> "EisensteinInt":
        return cls(n, 0)

    @classmethod
    def parse(cls, text: str) -> "EisensteinInt":
        terms = _parse_terms(text, "w")
        if any(e not in (0, 1) for e in terms):
            raise RingFormatError(f"powers of w other than w^1 not accepted: {text!r}")
        a = terms.get(0, Fraction(0))
        b = terms.get(1, Fraction(0))
        if a.denominator != 1 or b.denominator != 1:
            raise RingFormatError(f"non-integer coordinates in {text!r}")
        return cls(int(a), int(b))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def conj(self) -> "EisensteinInt":
        """Complex conjugate: w -> w^2 = -1 - w."""
        return EisensteinInt(self.a - self.b, -self.b)

    def __add__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def __sub__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "EisensteinInt") -> "EisensteinInt":
        # (a + b*w)(c + d*w) = ac + (ad + bc)w + bd*w^2, w^2 = -1 - w
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    def __divmod__(self, other: "EisensteinInt") -> tuple["EisensteinInt", "EisensteinInt"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero Eisenstein integer")
        n = other.norm()
        exact = self * other.conj()
        qa = _round_half_down(Fraction(exact.a, n))
        qb = _round_half_down(Fraction(exact.b, n))
        q = EisensteinInt(qa, qb)
        r = self - q * other
        return q, r

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EisensteinInt) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash(("EisensteinInt", self.a, self.b))

    def __str__(self) -> str:
        return _format_terms({0: Fraction(self.a), 1: Fraction(self.b)}, "w")

    def __repr__(self) -> str:
        return f"EisensteinInt({self.a}, {self.b})"


EISENSTEIN_UNITS = (
    EisensteinInt(1, 0),
    EisensteinInt(-1, 0),
    EisensteinInt(0, 1),
    EisensteinInt(0, -1),
    EisensteinInt(-1, -1),
    EisensteinInt(1, 1),
)


# ---------------------------------------------------------------------------
# Ring descriptors: the Euclidean structure generic matrix algorithms need;
# the arithmetic itself is the elements' own operators.
# ---------------------------------------------------------------------------


class IntegerRing:
    tag = "Integers"
    name = "Z"
    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return int(n)

    def is_zero(self, a) -> bool:
        return a == 0

    def size(self, a) -> int:
        return abs(a)

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def canonical(self, a):
        if a >= 0:
            return a, 1
        return -a, -1

    def inv_unit(self, u):
        return u


class LaurentRing:
    tag = "Q_Laurent"
    name = "Q[t^±1]"
    zero = LaurentPolyQ()
    one = LaurentPolyQ({0: 1})

    def from_int(self, n: int) -> LaurentPolyQ:
        return LaurentPolyQ.from_int(n)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def size(self, a) -> int:
        return a.deg_span()

    def is_unit(self, a) -> bool:
        return len(a.terms) == 1

    def canonical(self, a):
        if a.is_zero():
            return a, self.one
        lead = a.terms[-1][1]
        shift = a.min_exp()
        unit = LaurentPolyQ({shift: lead})
        assoc = a * LaurentPolyQ({-shift: Fraction(1, 1) / lead})
        return assoc, unit

    def inv_unit(self, u):
        (exp, coeff), = u.terms
        return LaurentPolyQ({-exp: Fraction(1, 1) / coeff})


class EisensteinRing:
    tag = "Eisenstein"
    name = "Z[w]"
    zero = EisensteinInt(0, 0)
    one = EisensteinInt(1, 0)

    def from_int(self, n: int) -> EisensteinInt:
        return EisensteinInt.from_int(n)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def size(self, a) -> int:
        return a.norm()

    def is_unit(self, a) -> bool:
        return a.norm() == 1

    def canonical(self, a):
        if a.is_zero():
            return a, self.one
        for u in EISENSTEIN_UNITS:
            c = u * a
            if c.a > c.b >= 0:
                return c, self.inv_unit(u)
        raise AssertionError(f"no canonical associate found for {a!r}")

    def inv_unit(self, u):
        for v in EISENSTEIN_UNITS:
            if (u * v) == EisensteinInt(1, 0):
                return v
        raise ValueError(f"{u!r} is not a unit")


INTEGERS = IntegerRing()
LAURENT = LaurentRing()
EISENSTEIN = EisensteinRing()

RINGS_BY_TAG = {
    INTEGERS.tag: INTEGERS,
    LAURENT.tag: LAURENT,
    EISENSTEIN.tag: EISENSTEIN,
}


def canonical_associate(ring, x):
    """The canonical representative of the associate class of x."""
    return ring.canonical(x)[0]


def associates(ring, x, y) -> bool:
    """True when x and y differ by a unit factor."""
    return canonical_associate(ring, x) == canonical_associate(ring, y)


def euclid_xgcd(ring, a, b):
    """Extended Euclid: returns (g, s, u) with g = s*a + u*b, g canonical.

    gcd(0, 0) = 0 by convention.
    """
    r0, r1 = a, b
    s0, s1 = ring.one, ring.zero
    t0, t1 = ring.zero, ring.one
    while not ring.is_zero(r1):
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    g, unit = ring.canonical(r0)
    inv = ring.inv_unit(unit)
    return g, inv * s0, inv * t0


def euclid_gcd(ring, a, b):
    return euclid_xgcd(ring, a, b)[0]


XI3 = "xi3"
MINUS_ONE = "minus_one"


def specialize_t(p: LaurentPolyQ, target):
    """Evaluate an integral Laurent polynomial at a ring homomorphism image of t.

    target is "xi3" (t -> w, giving an Eisenstein integer) or "minus_one"
    (t -> -1, giving an integer).  A non-integral coefficient raises
    ValueError: neither image ring contains it.
    """
    if any(c.denominator != 1 for _, c in p.terms):
        raise ValueError(f"non-integral coefficient in {p}")
    terms = [(e, int(c)) for e, c in p.terms]
    if target == XI3:
        # w^e depends only on e mod 3: 1, w, w^2 = -1 - w
        powers = (EisensteinInt(1, 0), EisensteinInt(0, 1), EisensteinInt(-1, -1))
        acc = EisensteinInt(0, 0)
        for e, c in terms:
            acc = acc + powers[e % 3] * EisensteinInt(c, 0)
        return acc
    if target == MINUS_ONE:
        return sum(c if e % 2 == 0 else -c for e, c in terms)
    raise ValueError(f"unknown specialization target {target!r}")
