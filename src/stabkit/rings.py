"""Exact coefficient rings: Z, Q[t^±1], Z[w] (w^2 + w + 1 = 0).

Every ring here is a Euclidean domain with an explicit division step, so
Smith normal form and gcd computations terminate with exact results.  Ring
elements do their own arithmetic through Python operators (`+`, `-`, `*`,
`==`, builtin `divmod`, `str`) and, like `int`, are false exactly when zero:
the zero test is truthiness, `if x`, everywhere.  Elements come only from
constructors, `LaurentPolyQ({exponent: coefficient})`, `EisensteinInt(a, b)`
and a descriptor's `from_int`; `str` prints them, and no text is read back.
A ring descriptor (`INTEGERS`, `LAURENT`, `EISENSTEIN`) holds only what the
generic matrix algorithms need besides that arithmetic, its whole protocol
being:

* `tag` and `name`: a fixed identifier and the printed name;
* `zero` and `one`;
* `from_int(n)`: the image of an `int` (anything else is a `TypeError`);
* `size(a)`: the Euclidean size of a nonzero a;
* `canonical(a)`: `(assoc, u)` with u a unit and `u * a == assoc`, the
  canonical associate of a; `canonical(zero)` is `(zero, one)`, and a
  canonical element comes back with `u == one`.

Each descriptor is a single instance: a presented module carries it as its
ring, and rings compare by identity.  Nothing here evaluates t:
`knots.alexander_presentation` builds t*V - V^T straight into Z at t = -1
and into Z[w] at t = w.  No floating point is used anywhere: a float
coefficient is a `TypeError`, and so is any non-`int` given to
`EisensteinInt` or to a descriptor's `from_int`, rather than a silent
truncation.  Integers are Python `int`s of arbitrary precision and stay
`int`s: a `Q[t^±1]` coefficient is an `int` when it is integral and a
`fractions.Fraction` only when it is not, and Eisenstein division rounds
with integer floor division.

Units are quotiented away through canonical associates, so the only unit
that is canonical is `one`:

* integers: the canonical associate is `abs(n)`;
* `Q[t^±1]`: units are `q * t^k`; canonical means minimum exponent 0 and
  leading coefficient 1;
* `Z[w]`: units are the six roots of unity; canonical means complex
  argument in `[0, pi/3)`, equivalently coordinates `a > b >= 0` (zero is
  fixed).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


def _format_terms(terms, var: str) -> str:
    """Render sorted, nonzero (exponent, coefficient) pairs, e.g. ``-1 + 2*t``."""
    if not terms:
        return "0"
    parts: list[str] = []
    for exp, c in terms:
        neg = c < 0
        mag = -c if neg else c
        if exp == 0:
            body = str(mag)
        else:
            v = var if exp == 1 else f"{var}^{exp}"
            body = v if mag == 1 else f"{mag}*{v}"
        if parts:
            parts.append(f"- {body}" if neg else f"+ {body}")
        else:
            parts.append(f"-{body}" if neg else body)
    return " ".join(parts)


def _exact_div(a, b):
    """a / b for nonzero b, as an int when the quotient is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b  # a Fraction operand makes this exact
    return q.numerator if q.denominator == 1 else q


def _poly(terms: tuple) -> "LaurentPolyQ":
    """Trusted constructor: terms are sorted, nonzero and already normalised."""
    if not terms:
        return _ZERO
    p = _new(LaurentPolyQ)
    _set_terms(p, terms)
    return p


def _poly_from(acc: dict) -> "LaurentPolyQ":
    """Drops zeros, turns integral Fractions into ints and sorts by exponent."""
    items = []
    for e in sorted(acc):
        c = acc[e]
        if c:
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            items.append((e, c))
    return _poly(tuple(items))


class LaurentPolyQ:
    """A Laurent polynomial over Q, stored as sorted (exponent, coefficient) pairs.

    A coefficient is an `int` when it is integral and a non-integral
    `Fraction` otherwise, so equal polynomials have equal terms.  The public
    constructor validates and normalises its input; the operators build
    their results through a trusted constructor that skips both.  The hash
    and the printed text are computed on first use and kept in slots.

    The Euclidean size is the degree span (max exponent - min exponent); the
    division step shifts both operands to honest polynomials, divides there,
    and restores the unit factors.
    """

    __slots__ = ("_terms", "_hash", "_str")

    def __init__(self, terms: Optional[dict[int, object]] = None):
        acc: dict[int, object] = {}
        for exp, coeff in (terms or {}).items():  # dict keys: exponents are distinct
            if type(coeff) is not int:
                if isinstance(coeff, float):
                    raise TypeError(f"float coefficient {coeff!r}: use int or Fraction")
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                coeff = c.numerator if c.denominator == 1 else c
            if coeff:
                acc[exp] = coeff
        _set_terms(self, tuple(sorted(acc.items())))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("LaurentPolyQ is immutable")

    @property
    def terms(self) -> tuple[tuple[int, object], ...]:
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "LaurentPolyQ") -> "LaurentPolyQ":
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = dict(self._terms)
        for e, c in other._terms:
            acc[e] = acc[e] + c if e in acc else c
        return _poly_from(acc)

    def __neg__(self) -> "LaurentPolyQ":
        return _poly(tuple([(e, -c) for e, c in self._terms]))

    def __sub__(self, other: "LaurentPolyQ") -> "LaurentPolyQ":
        if not other._terms:
            return self
        if not self._terms:
            return -other
        acc = dict(self._terms)
        for e, c in other._terms:
            acc[e] = acc[e] - c if e in acc else -c
        return _poly_from(acc)

    def __mul__(self, other: "LaurentPolyQ") -> "LaurentPolyQ":
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:  # a single term: shift and rescale, order and support kept
            (k, s), = b
            out = []
            for e, c in a:
                c = c * s
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                out.append((e + k, c))
            return _poly(tuple(out))
        acc: dict[int, object] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
        return _poly_from(acc)

    def __divmod__(self, other: "LaurentPolyQ") -> tuple["LaurentPolyQ", "LaurentPolyQ"]:
        den = other._terms
        if not den:
            raise ZeroDivisionError("division by zero Laurent polynomial")
        num = self._terms
        if not num:
            return _ZERO, _ZERO
        sn, sd = num[0][0], den[0][0]
        lead = den[-1][1]
        if len(den) == 1:  # a unit: the quotient is an exact rescale and shift
            return _poly(tuple([(e - sd, _exact_div(c, lead)) for e, c in num])), _ZERO
        # shift to ordinary polynomials with nonzero constant term
        dd = den[-1][0] - sd
        top = num[-1][0] - sn
        if top < dd:
            return _ZERO, self
        r = [0] * (top + 1)
        for e, c in num:
            r[e - sn] = c
        low = [(e - sd, c) for e, c in den[:-1]]
        q = []  # quotient terms, highest exponent first
        for k in range(top - dd, -1, -1):
            c = r[k + dd]
            if not c:
                continue
            c = _exact_div(c, lead)
            q.append((k + sn - sd, c))
            r[k + dd] = 0
            for e, dc in low:
                v = r[e + k] - c * dc
                if type(v) is not int and v.denominator == 1:
                    v = v.numerator
                r[e + k] = v
        rem = tuple([(e + sn, c) for e, c in enumerate(r[:dd]) if c])
        return _poly(tuple(reversed(q))), _poly(rem)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPolyQ) and self._terms == other._terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(("LaurentPolyQ", self._terms))
            _set_hash(self, h)
            return h

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            text = _format_terms(self._terms, "t")
            _set_str(self, text)
            return text

    def __repr__(self) -> str:
        return f"LaurentPolyQ({dict(self._terms)!r})"


_new = object.__new__
_set_terms = LaurentPolyQ._terms.__set__
_set_hash = LaurentPolyQ._hash.__set__
_set_str = LaurentPolyQ._str.__set__
_ZERO = _new(LaurentPolyQ)
_set_terms(_ZERO, ())


def _eisenstein(a: int, b: int) -> "EisensteinInt":
    """Trusted constructor: a and b are already ints."""
    z = _new(EisensteinInt)
    _set_a(z, a)
    _set_b(z, b)
    return z


class EisensteinInt:
    """An element a + b*w of Z[w] with w^2 + w + 1 = 0 (w a primitive cube root).

    The field norm is N(a + b*w) = a^2 - a*b + b^2, multiplicative and
    Euclidean: the division step rounds the exact ratio to a nearest lattice
    point coordinate-wise, which keeps N(remainder) <= 3/4 * N(divisor).
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        if type(a) is not int or type(b) is not int:
            raise TypeError(f"Eisenstein coordinates must be int, got {a!r} and {b!r}")
        _set_a(self, a)
        _set_b(self, b)

    def __setattr__(self, name, value):
        raise AttributeError("EisensteinInt is immutable")

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def conj(self) -> "EisensteinInt":
        """Complex conjugate: w -> w^2 = -1 - w."""
        return _eisenstein(self.a - self.b, -self.b)

    def __add__(self, other: "EisensteinInt") -> "EisensteinInt":
        return _eisenstein(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "EisensteinInt":
        return _eisenstein(-self.a, -self.b)

    def __sub__(self, other: "EisensteinInt") -> "EisensteinInt":
        return _eisenstein(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "EisensteinInt") -> "EisensteinInt":
        # (a + b*w)(c + d*w) = ac + (ad + bc)w + bd*w^2, w^2 = -1 - w
        a, b, c, d = self.a, self.b, other.a, other.b
        return _eisenstein(a * c - b * d, a * d + b * c - b * d)

    def __divmod__(self, other: "EisensteinInt") -> tuple["EisensteinInt", "EisensteinInt"]:
        a, b, c, d = self.a, self.b, other.a, other.b
        n = c * c - c * d + d * d
        if not n:
            raise ZeroDivisionError("division by zero Eisenstein integer")
        # self * conj(other) = x + y*w with conj(c + d*w) = (c - d) - d*w;
        # x/n and y/n round to the nearest integer, ties toward -infinity.
        x = a * c - a * d + b * d
        y = b * c - a * d
        n2 = 2 * n
        qa = -((n - 2 * x) // n2)
        qb = -((n - 2 * y) // n2)
        return _eisenstein(qa, qb), _eisenstein(
            a - (qa * c - qb * d), b - (qa * d + qb * c - qb * d)
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EisensteinInt) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash(("EisensteinInt", self.a, self.b))

    def __str__(self) -> str:
        return _format_terms([(e, c) for e, c in ((0, self.a), (1, self.b)) if c], "w")

    def __repr__(self) -> str:
        return f"EisensteinInt({self.a}, {self.b})"


_set_a = EisensteinInt.a.__set__
_set_b = EisensteinInt.b.__set__


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
        if type(n) is not int:
            raise TypeError(f"integer expected, got {n!r}")
        return n

    def size(self, a) -> int:
        return abs(a)

    def canonical(self, a):
        if a >= 0:
            return a, 1
        return -a, -1


class LaurentRing:
    tag = "Q_Laurent"
    name = "Q[t^±1]"
    zero = _ZERO
    one = LaurentPolyQ({0: 1})

    def from_int(self, n: int) -> LaurentPolyQ:
        n = INTEGERS.from_int(n)
        return _poly(((0, n),) if n else ())

    def size(self, a) -> int:
        return a._terms[-1][0] - a._terms[0][0]

    def canonical(self, a):
        terms = a._terms
        if not terms:
            return a, self.one
        shift, lead = terms[0][0], terms[-1][1]
        if shift == 0 and lead == 1:
            return a, self.one
        assoc = _poly(tuple([(e - shift, _exact_div(c, lead)) for e, c in terms]))
        return assoc, _poly(((-shift, _exact_div(1, lead)),))


class EisensteinRing:
    tag = "Eisenstein"
    name = "Z[w]"
    zero = EisensteinInt(0, 0)
    one = EisensteinInt(1, 0)

    def from_int(self, n: int) -> EisensteinInt:
        return _eisenstein(INTEGERS.from_int(n), 0)

    def size(self, a) -> int:
        return a.norm()

    def canonical(self, a):
        if not a:
            return a, self.one
        for u in EISENSTEIN_UNITS:
            c = u * a
            if c.a > c.b >= 0:
                return c, u
        raise AssertionError(f"no canonical associate found for {a!r}")


INTEGERS = IntegerRing()
LAURENT = LaurentRing()
EISENSTEIN = EisensteinRing()


def associates(ring, x, y) -> bool:
    """True when x and y differ by a unit factor."""
    return ring.canonical(x)[0] == ring.canonical(y)[0]


def euclid_gcd(ring, a, b):
    """Euclid's algorithm; the gcd is canonical, and gcd(0, 0) = 0 by convention."""
    while b:
        a, b = b, divmod(a, b)[1]
    return ring.canonical(a)[0]

