"""Ring layer: exact arithmetic, division, gcd, canonical forms, printing."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stabkit.rings import (
    EISENSTEIN,
    EISENSTEIN_UNITS,
    INTEGERS,
    LAURENT,
    EisensteinInt,
    LaurentPolyQ,
    euclid_gcd,
)

# ---------------------------------------------------------------- strategies

rationals = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 8)
)


@st.composite
def laurents(draw):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        e = draw(st.integers(-4, 4))
        c = draw(rationals)
        if c:
            terms[e] = c
    return LaurentPolyQ(terms)


eisensteins = st.builds(EisensteinInt, st.integers(-30, 30), st.integers(-30, 30))


# ------------------------------------------------------------ the protocol

ELEMENTS = {
    INTEGERS: st.integers(-60, 60),
    LAURENT: laurents(),
    EISENSTEIN: eisensteins,
}
by_ring = pytest.mark.parametrize("ring", list(ELEMENTS), ids=lambda r: r.name)


@by_ring
def test_descriptor_is_exactly_the_protocol(ring):
    public = {a for a in dir(ring) if not a.startswith("_")}
    assert public == {"tag", "name", "zero", "one", "from_int", "size", "canonical"}


@by_ring
@given(data=st.data())
def test_ring_protocol(ring, data):
    x = data.draw(ELEMENTS[ring])
    assert bool(x) == (x != ring.zero)
    assoc, u = ring.canonical(x)
    assert u * x == assoc
    if x:
        assert ring.canonical(u)[0] == ring.one
    assert ring.canonical(assoc) == (assoc, ring.one)
    assert ring.canonical(ring.zero) == (ring.zero, ring.one)


# ------------------------------------------------------------------ laurents

def test_laurent_str_examples():
    for terms, text in [
        ({}, "0"),
        ({0: 1}, "1"),
        ({0: -1}, "-1"),
        ({0: -2, 1: 1}, "-2 + t"),
        ({0: -1, 1: 2}, "-1 + 2*t"),
        ({0: 1, 1: Fraction(-5, 2), 2: 1}, "1 - 5/2*t + t^2"),
        ({-2: 1, 1: 3}, "t^-2 + 3*t"),
        ({-1: -1}, "-t^-1"),
        ({-3: Fraction(1, 3), 0: -1}, "1/3*t^-3 - 1"),
        ({1: Fraction(-2, 3), 4: -1}, "-2/3*t - t^4"),
        ({2: -1, 0: 2}, "2 - t^2"),
    ]:
        p = LaurentPolyQ(terms)
        assert str(p) == text, terms
        assert str(p) is str(p)  # formatted once, then kept


def test_laurent_fmt_skips_zero_coefficients():
    p = LaurentPolyQ({0: Fraction(1), 1: Fraction(0), 2: Fraction(1)})
    assert str(p) == "1 + t^2"


def test_laurent_divmod_example():
    num = LaurentPolyQ({0: 1, 1: Fraction(-5, 2), 2: 1})
    den = LaurentPolyQ({0: -2, 1: 1})
    q, r = divmod(num, den)
    assert not r
    assert q * den == num


def test_laurent_canonical_is_monic_with_lowest_exponent_zero():
    p = LaurentPolyQ({-2: 1, 1: 3})
    assoc, unit = LAURENT.canonical(p)
    assert str(assoc) == "1/3 + t^3"
    assert unit * p == assoc


@given(laurents(), laurents())
def test_laurent_mul_commutes(a, b):
    assert a * b == b * a


@given(laurents(), laurents(), laurents())
def test_laurent_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(laurents(), laurents())
def test_laurent_divmod_axioms(a, b):
    if not b:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    if r:
        assert LAURENT.size(r) < LAURENT.size(b)


@given(laurents(), laurents())
def test_laurent_gcd_divides(a, b):
    g = euclid_gcd(LAURENT, a, b)
    assert LAURENT.canonical(g)[0] == g
    if not g:
        assert not a and not b
        return
    for x in (a, b):
        assert not divmod(x, g)[1]


@given(laurents())
def test_laurent_canonical_idempotent(a):
    assoc, unit = LAURENT.canonical(a)
    again, unit2 = LAURENT.canonical(assoc)
    assert again == assoc
    assert unit * a == assoc
    assert LAURENT.canonical(unit)[0] == LAURENT.one


def _assert_int_first(p):
    for _, c in p.terms:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), p.terms


def test_laurent_integral_coefficients_are_ints():
    two = LaurentPolyQ({0: Fraction(2)})
    assert two == LaurentPolyQ({0: 2})
    assert hash(two) == hash(LaurentPolyQ({0: 2})) == hash(LAURENT.from_int(2))
    assert str(two) == str(LaurentPolyQ({0: 2})) == "2"
    p = LaurentPolyQ({-1: Fraction(6, 3), 0: Fraction(1, 2), 2: True})
    assert p.terms == ((-1, 2), (0, Fraction(1, 2)), (2, 1))
    assert [type(c) for _, c in p.terms] == [int, Fraction, int]
    # arithmetic that lands on integers stores ints, and hashes like a fresh polynomial
    half = LaurentPolyQ({0: Fraction(1, 2)})
    one = half + half
    assert one.terms == ((0, 1),) and type(one.terms[0][1]) is int
    assert hash(one) == hash(LAURENT.one) and one == LAURENT.one


def test_laurent_rejects_float_coefficients():
    for coeff in (0.5, 2.0, float("nan")):
        with pytest.raises(TypeError, match="float"):
            LaurentPolyQ({1: coeff})


def test_eisenstein_and_integers_reject_non_int():
    # int() would truncate each of these silently: 0.5 -> 0, 2.9 -> 2, 3/2 -> 1
    for bad in (0.5, 2.9, 2.0, Fraction(3, 2), Fraction(4, 2), "2", True):
        with pytest.raises(TypeError):
            EisensteinInt(bad, 2)
        with pytest.raises(TypeError):
            EisensteinInt(2, bad)
        with pytest.raises(TypeError):
            LAURENT.from_int(bad)
        with pytest.raises(TypeError):
            EISENSTEIN.from_int(bad)
        with pytest.raises(TypeError):
            INTEGERS.from_int(bad)
    assert EisensteinInt(3) == EisensteinInt(3, 0) == EISENSTEIN.from_int(3)
    assert INTEGERS.from_int(-7) == -7
    assert LAURENT.from_int(-7) == LaurentPolyQ({0: -7})
    assert LAURENT.from_int(0) is LAURENT.zero


@given(laurents(), laurents())
def test_laurent_results_keep_integer_coefficients_int(a, b):
    results = [a + b, a - b, -a, a * b]
    if b:
        results.extend(divmod(a, b))
        results.extend(LAURENT.canonical(b))
    for p in results:
        _assert_int_first(p)
        assert p == LaurentPolyQ(dict(p.terms))
        assert hash(p) == hash(LaurentPolyQ(dict(p.terms)))


@given(laurents(), st.integers(-3, 3), rationals, laurents())
def test_laurent_divmod_by_unit_matches_long_division(a, e, c, v):
    assume(c != 0 and len(v.terms) > 1)
    unit = LaurentPolyQ({e: c})
    q, r = divmod(a, unit)
    assert not r
    assert q == LaurentPolyQ({k - e: Fraction(x) / c for k, x in a.terms})
    # multiplying both sides by a non-unit sends the division down the long route
    q2, r2 = divmod(a * v, unit * v)
    assert (q2, r2) == (q, LAURENT.zero)


# --------------------------------------------------------------- eisenstein

def test_eisenstein_norm_examples():
    assert EisensteinInt(-2, 1).norm() == 7
    assert EisensteinInt(3, 2).norm() == 7
    assert EisensteinInt(2, 0).norm() == 4
    assert len(EISENSTEIN_UNITS) == 6


def test_eisenstein_conj():
    w = EisensteinInt(0, 1)
    assert w.conj() == EisensteinInt(-1, -1)
    a = EisensteinInt(3, 2)
    assert a.conj().conj() == a


def test_eisenstein_str_examples():
    for a, b, text in [
        (0, 0, "0"),
        (3, 0, "3"),
        (-3, 0, "-3"),
        (0, 1, "w"),
        (0, -1, "-w"),
        (0, 2, "2*w"),
        (1, 1, "1 + w"),
        (-1, -1, "-1 - w"),
        (-2, 1, "-2 + w"),
        (3, -2, "3 - 2*w"),
        (0, -5, "-5*w"),
    ]:
        assert str(EisensteinInt(a, b)) == text, (a, b)


def test_eisenstein_canonical_sector():
    # canonical associate has a > b >= 0
    assoc, unit = EISENSTEIN.canonical(EisensteinInt(-2, 1))
    assert (assoc.a, assoc.b) == (3, 2)
    assert unit * EisensteinInt(-2, 1) == assoc
    seven = EisensteinInt(-1, 2) * EisensteinInt(-2, 1)
    assoc, _ = EISENSTEIN.canonical(seven)
    assert (assoc.a, assoc.b) == (7, 0)


@given(eisensteins, eisensteins)
def test_eisenstein_divmod_axioms(a, b):
    if not b:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert 4 * r.norm() <= 3 * b.norm()


def _fraction_divmod(x, y):
    """Reference Eisenstein division in Fractions: each coordinate is ceil(x/n - 1/2)."""
    n = y.norm()
    exact = x * y.conj()
    q = EisensteinInt(
        math.ceil(Fraction(exact.a, n) - Fraction(1, 2)),
        math.ceil(Fraction(exact.b, n) - Fraction(1, 2)),
    )
    return q, x - q * y


def test_eisenstein_divmod_matches_fraction_rounding():
    # every divisor of norm <= 49 (|c|, |d| <= 8 reaches them all)
    divisors = [EisensteinInt(c, d) for c in range(-8, 9) for d in range(-8, 9)]
    divisors = [y for y in divisors if 0 < y.norm() <= 49]
    assert len({y.norm() for y in divisors}) == 20
    ties = 0
    for y in divisors:
        n = y.norm()
        for a in range(-40, 41):
            for b in range(-40, 41, 20):
                x = EisensteinInt(a, b)
                q, r = divmod(x, y)
                assert (q, r) == _fraction_divmod(x, y)
                assert type(q.a) is type(q.b) is type(r.a) is type(r.b) is int
                exact = x * y.conj()
                ties += (2 * exact.a) % (2 * n) == n or (2 * exact.b) % (2 * n) == n
    assert ties > 1000  # exact halves, which round toward -infinity


@given(eisensteins, eisensteins)
def test_eisenstein_gcd_divides(a, b):
    g = euclid_gcd(EISENSTEIN, a, b)
    if not g:
        assert not a and not b
        return
    for x in (a, b):
        _, r = divmod(x, g)
        assert not r


@given(eisensteins)
def test_eisenstein_norm_multiplicative(a):
    b = EisensteinInt(2, 1)
    assert (a * b).norm() == a.norm() * b.norm()


# ------------------------------------------------------------------- others

@given(st.integers(-40, 40), st.integers(-40, 40))
def test_integer_divmod_matches_python_magnitude(a, b):
    if b == 0:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert INTEGERS.size(r) < INTEGERS.size(b)
