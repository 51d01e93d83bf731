"""Exact matrices and Smith normal form over the three Euclidean domains."""

import pytest

from stabkit.linalg import (
    Mat,
    SmithCancelled,
    block_diag,
    hstack,
    int_det,
    kernel_basis,
    mat_mul,
    smith_normal_form,
    solve_with,
    vstack,
)
from stabkit.rings import EISENSTEIN, INTEGERS, LAURENT, EisensteinInt, LaurentPolyQ


def test_mat_shapes_and_zero_width():
    m = Mat([[1, 2], [3, 4]])
    assert (m.nrows, m.ncols) == (2, 2)
    empty = Mat([(), ()], 0)
    assert (empty.nrows, empty.ncols) == (2, 0)
    assert hstack(m, empty).ncols == 2
    assert vstack(m, Mat([], 2)).nrows == 2


def test_mat_is_immutable():
    m = Mat([[1]])
    with pytest.raises(AttributeError):
        m.rows = ((2,),)


def test_int_det():
    assert int_det([[2, 1], [1, -4]]) == -9
    assert int_det([[0, 2], [1, 0]]) == -2
    assert int_det([]) == 1


def test_snf_branched_cover_matrix():
    dec = smith_normal_form(INTEGERS, Mat([[-2, -1], [-1, 4]]))
    assert dec.diagonal == (1, 9)
    assert dec.invariant_factors == (9,)


def test_snf_of_zero_and_empty():
    dec = smith_normal_form(INTEGERS, Mat([[0, 0], [0, 0]]))
    assert dec.rank == 0
    dec = smith_normal_form(INTEGERS, Mat([], 0))
    assert dec.diagonal == ()


def test_snf_transform_products():
    m = Mat([[6, 4, 2], [2, 8, 4]])
    dec = smith_normal_form(INTEGERS, m)
    assert mat_mul(INTEGERS, mat_mul(INTEGERS, dec.u, m), dec.v).rows == dec.d.rows
    # transforms have unit determinant, so they are invertible over Z
    assert int_det(dec.u.rows) in (1, -1)
    assert int_det(dec.v.rows) in (1, -1)


def test_snf_laurent_example():
    rows = [
        [LAURENT.zero, LaurentPolyQ.parse("-1 + 2*t")],
        [LaurentPolyQ.parse("-2 + t"), LAURENT.zero],
    ]
    dec = smith_normal_form(LAURENT, Mat(rows, 2))
    assert LAURENT.is_unit(dec.diagonal[0])
    assert str(dec.diagonal[1]) == "1 - 5/2*t + t^2"


def test_snf_eisenstein_pivot_canonical():
    rows = [[EisensteinInt.parse("-1 + 2*w"), EISENSTEIN.zero],
            [EISENSTEIN.zero, EisensteinInt.parse("-2 + w")]]
    dec = smith_normal_form(EISENSTEIN, Mat(rows, 2))
    assert dec.diagonal[0].norm() == 1 or dec.diagonal[0].norm() == 7
    for d in dec.invariant_factors:
        canon = EISENSTEIN.canonical(d)[0]
        assert (d.a, d.b) == (canon.a, canon.b)


def test_snf_cancel_hook():
    calls = []

    def cancel():
        calls.append(1)
        return len(calls) > 2

    with pytest.raises(SmithCancelled):
        smith_normal_form(INTEGERS, Mat([[2, 3, 5], [7, 11, 13], [17, 19, 23]]), cancel=cancel)


def test_kernel_basis_over_laurent():
    t = LaurentPolyQ.parse("t")
    m = Mat([[LAURENT.one, t]], 2)
    k = kernel_basis(LAURENT, m)
    assert k.ncols == 1
    prod = mat_mul(LAURENT, m, k)
    assert all(LAURENT.is_zero(e) for row in prod.rows for e in row)


def test_solve_columns():
    m = Mat([[2, 0], [0, 3]])
    dec = smith_normal_form(INTEGERS, m)
    b = Mat([[4], [3]])
    x = solve_with(INTEGERS, dec, m, b)
    assert mat_mul(INTEGERS, m, x).rows == b.rows
    assert solve_with(INTEGERS, dec, m, Mat([[1], [0]])) is None


def test_column_span_contains():
    m = Mat([[2, 0], [0, 3]])
    dec = smith_normal_form(INTEGERS, m)
    assert solve_with(INTEGERS, dec, m, Mat([[2], [3]])) is not None
    assert solve_with(INTEGERS, dec, m, Mat([[1], [1]])) is None


def test_block_diag():
    a = Mat([[1]])
    b = Mat([[2, 3]], 2)
    c = block_diag(INTEGERS, a, b)
    assert c.rows == ((1, 0, 0), (0, 2, 3))
