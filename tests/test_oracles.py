"""The oracles themselves, pinned on hand-checkable cases."""

import pytest

from stabkit import oracles
from stabkit.linalg import rref_mod_p
from stabkit.oracles import (
    FiniteModuleTable,
    OracleCapExceeded,
    brute_generating_rank,
    brute_spanning_rank,
    brute_submodule_ops,
    brute_subgroup_rank,
    minor_gcd_divisors,
)
from stabkit.rings import INTEGERS, LAURENT, LaurentPolyQ


def test_minor_gcd_divisors_examples():
    assert minor_gcd_divisors(INTEGERS, [[2, 1], [1, -4]]) == (1, 9)
    assert minor_gcd_divisors(INTEGERS, [[0, 0], [0, 0]]) == (0, 0)
    assert minor_gcd_divisors(INTEGERS, [[4, 0], [0, 6]]) == (2, 24)


def test_minor_gcd_divisors_laurent():
    rows = [
        [LAURENT.zero, LaurentPolyQ({0: -1, 1: 2})],
        [LaurentPolyQ({0: -2, 1: 1}), LAURENT.zero],
    ]
    d1, d2 = minor_gcd_divisors(LAURENT, rows)
    assert LAURENT.canonical(d1)[0] == LAURENT.one
    assert str(d2) == "1 - 5/2*t + t^2"


def test_rank_mod_p_examples():
    # the rank mod p is the number of rows of the reduced echelon form
    lines = (((0, 2), (1, 1)), ((0, 1), (1, -4)))  # det -9
    assert [len(rref_mod_p(lines, p)) for p in (2, 3, 5)] == [2, 1, 2]
    assert rref_mod_p(lines, 3) == [((0, 1), (1, 2))]
    diagonal = (((0, 4),), ((1, 6),), ())  # diag(4, 6) over a zero row
    assert [len(rref_mod_p(diagonal, p)) for p in (2, 3, 5)] == [0, 1, 2]
    assert rref_mod_p((), 3) == rref_mod_p(((), ()), 3) == []
    # fill-in: the third row is the sum of the first two, which share no column
    sums = (((0, 1), (2, 1)), ((1, 1), (3, 2)), ((0, 1), (1, 1), (2, 1), (3, 2)))
    assert rref_mod_p(sums, 7) == [((0, 1), (2, 1)), ((1, 1), (3, 2))]
    # the later pivot row is cleared from the earlier one, and rows come in pivot order
    assert rref_mod_p((((1, 1), (2, 1)), ((0, 2), (1, 1)), ((2, 1),)), 3) == [
        ((0, 1),), ((1, 1),), ((2, 1),)
    ]
    assert rref_mod_p((((1, 2), (3, 1)), ((0, 1), (1, 1), (2, 1))), 5) == [
        ((0, 1), (2, 1), (3, 2)), ((1, 1), (3, 3))
    ]


def test_brute_generating_rank():
    assert brute_generating_rank(FiniteModuleTable((2, 3))) == 1
    assert brute_generating_rank(FiniteModuleTable((3, 3))) == 2
    assert brute_generating_rank(FiniteModuleTable(())) == 0
    assert brute_generating_rank(FiniteModuleTable((1,))) == 0


def test_brute_subgroup_rank():
    table = FiniteModuleTable((9,))
    assert brute_subgroup_rank(table, table.span([(3,)])) == 1
    assert brute_subgroup_rank(table, table.span([])) == 0


def test_brute_spanning_rank():
    table = FiniteModuleTable((3, 3))  # the code of (a, b) is 3a + b
    assert brute_spanning_rank(table, range(9), frozenset([0]), 9) == 2
    base = table.span_codes([(1, 0)])
    assert base == frozenset([0, 3, 6])
    assert brute_spanning_rank(table, [c for c in range(9) if c not in base], base, 9) == 1
    assert brute_spanning_rank(table, [1, 3], base, 3) == 0
    with pytest.raises(AssertionError):
        brute_spanning_rank(table, [3, 6], frozenset([0]), 9)


def test_brute_submodule_ops():
    table = FiniteModuleTable((9,))
    out = brute_submodule_ops(table, [(3,)], [(6,)])
    assert out["span1"] == out["span2"] == out["intersection"] == out["sum"]
    out = brute_submodule_ops(table, [(3,)], [(1,)])
    assert out["sum"] == frozenset(table.elements())
    assert out["intersection"] == out["span1"]


def test_cap_enforced():
    assert oracles.CAP == 200
    FiniteModuleTable((2, 100))
    with pytest.raises(OracleCapExceeded):
        FiniteModuleTable((201,))
    with pytest.raises(OracleCapExceeded):
        FiniteModuleTable((2,) * 20)


def test_cap_patched(monkeypatch):
    monkeypatch.setattr(oracles, "CAP", 5)
    with pytest.raises(OracleCapExceeded):
        FiniteModuleTable((6,))
    FiniteModuleTable((5,))
