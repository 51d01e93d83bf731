"""Exact matrices and Smith normal form over the three Euclidean domains."""

import itertools
import random
from fractions import Fraction

import pytest

from stabkit import linalg
from stabkit.knots import SeifertKnot, alexander_presentation
from stabkit.linalg import (
    Mat,
    SmithCancelled,
    _smith_block,
    block_diag,
    hstack,
    kernel_basis,
    mat_mul,
    smith_normal_form,
)
from stabkit.modules import PresentedModule, Submodule
from stabkit.rings import (
    EISENSTEIN,
    INTEGERS,
    LAURENT,
    EisensteinInt,
    LaurentPolyQ,
)


def test_mat_shapes_and_zero_width():
    m = Mat([[1, 2], [3, 4]])
    assert (m.nrows, m.ncols) == (2, 2)
    empty = Mat([(), ()], 0)
    assert (empty.nrows, empty.ncols) == (2, 0)
    assert hstack(m, empty).ncols == 2


# three nonzero entries per ring, so a shape can be filled all-nonzero
_NONZERO = {
    INTEGERS.tag: (2, -1, 7),
    LAURENT.tag: (LaurentPolyQ({0: 1, 1: 1}), LaurentPolyQ({-1: 1}), LAURENT.one),
    EISENSTEIN.tag: (EisensteinInt(1, 1), EisensteinInt(0, -2), EisensteinInt(3, 0)),
}


@pytest.mark.parametrize(
    "ring", [INTEGERS, LAURENT, EISENSTEIN], ids=["integers", "laurent", "eisenstein"]
)
@pytest.mark.parametrize("shape", ["0x3", "3x0", "zero", "full", "mixed"])
def test_dense_sparse_round_trip(ring, shape):
    a, b, c = _NONZERO[ring.tag]
    z = ring.zero
    rows = {
        "0x3": [],
        "3x0": [(), (), ()],
        "zero": [(z, z, z), (z, z, z)],
        "full": [(a, b, c), (c, a, b)],
        "mixed": [(z, a, z), (b, z, z), (z, z, z), (z, c, a)],
    }[shape]
    ncols = 3 if shape == "0x3" else len(rows[0])
    dense = Mat(rows, ncols)
    assert dense.lines == tuple(
        tuple((j, x) for j, x in enumerate(row) if x) for row in rows
    )
    sparse = linalg._mat(ring.zero, dense.lines, ncols)
    assert sparse.rows == tuple(tuple(row) for row in rows)
    assert all(x is ring.zero for row in sparse.rows for x in row if not x)
    for other in (sparse, Mat(sparse.rows, ncols), block_diag(ring, dense), hstack(dense)):
        assert other == dense and hash(other) == hash(dense)
        assert (other.nrows, other.ncols) == (len(rows), ncols)
    if shape in ("full", "mixed"):
        changed = Mat([row[:-1] + (a,) for row in rows], ncols)
        assert changed != dense
    assert Mat(rows, ncols) != Mat([(z,) * (ncols + 1)] * len(rows), ncols + 1)


def test_map_entries_drops_entries_sent_to_zero():
    one_plus_t = LaurentPolyQ({0: 1, 1: 1})
    m = Mat([[one_plus_t, LaurentPolyQ({0: 2, 1: 1})], [LAURENT.zero, one_plus_t]], 2)
    at_minus_one = m.map_entries(lambda p: sum(c if e % 2 == 0 else -c for e, c in p.terms))
    assert at_minus_one.lines == (((1, 1),), ())
    assert at_minus_one.rows == ((0, 1), (0, 0))
    assert at_minus_one == Mat([[0, 1], [0, 0]])
    assert m.map_entries(lambda p: p * LAURENT.zero) == Mat([[LAURENT.zero] * 2] * 2)


def test_mat_is_immutable():
    m = Mat([[1]])
    with pytest.raises(AttributeError):
        m.rows = ((2,),)


def test_int_det():
    # |det| is the product of the Smith diagonal; `knots` checks det(V - V^T) so
    for rows, det in (([[2, 1], [1, -4]], 9), ([[0, 2], [1, 0]], 2), ([], 1)):
        product = 1
        for x in smith_normal_form(INTEGERS, Mat(rows, len(rows))).diagonal:
            product *= x
        assert product == det


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
    assert mat_mul(INTEGERS, mat_mul(INTEGERS, dec.u, m), dec.v) == _d(INTEGERS, m, dec)
    # transforms have unit determinant, so they are invertible over Z
    assert _det(INTEGERS, dec.u.rows) in (1, -1)
    assert _det(INTEGERS, dec.v.rows) in (1, -1)


def test_snf_laurent_example():
    rows = [
        [LAURENT.zero, LaurentPolyQ({0: -1, 1: 2})],
        [LaurentPolyQ({0: -2, 1: 1}), LAURENT.zero],
    ]
    dec = smith_normal_form(LAURENT, Mat(rows, 2))
    assert dec.diagonal[0] == LAURENT.one
    assert str(dec.diagonal[1]) == "1 - 5/2*t + t^2"


def test_snf_eisenstein_pivot_canonical():
    rows = [[EisensteinInt(-1, 2), EISENSTEIN.zero],
            [EISENSTEIN.zero, EisensteinInt(-2, 1)]]
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

    dense = Mat([[2, 3, 5], [7, 11, 13], [17, 19, 23]])
    blocks = block_diag(INTEGERS, Mat([[2, 3], [7, 11]]), Mat([[5, 13], [17, 19]]))
    # the transform path eliminates the whole matrix, the diagonal-only path each block
    for m in (dense, blocks):
        for transforms in (True, False):
            calls.clear()
            with pytest.raises(SmithCancelled):
                smith_normal_form(INTEGERS, m, with_u=transforms, with_v=transforms, cancel=cancel)


def test_kernel_basis_over_laurent():
    t = LaurentPolyQ({1: 1})
    m = Mat([[LAURENT.one, t]], 2)
    k = kernel_basis(LAURENT, m)
    assert k.ncols == 1
    prod = mat_mul(LAURENT, m, k)
    assert not any(e for row in prod.rows for e in row)


def test_solve_columns():
    m = Mat([[2, 0], [0, 3]])
    span = _column_span(INTEGERS, m)
    assert span.contains_columns(Mat([[4], [3]]))
    assert not span.contains_columns(Mat([[1], [0]]))


def test_column_span_contains():
    m = Mat([[2, 0], [0, 3]])
    span = _column_span(INTEGERS, m)
    assert span.contains_columns(Mat([[2], [3]]))
    assert not span.contains_columns(Mat([[1], [1]]))


def test_block_diag():
    a = Mat([[1]])
    b = Mat([[2, 3]], 2)
    c = block_diag(INTEGERS, a, b)
    assert c.rows == ((1, 0, 0), (0, 2, 3))


@pytest.mark.parametrize("r, k, c", list(itertools.product(range(3), repeat=3)))
def test_empty_and_small_shapes(r, k, c):
    a = Mat([[i - 2 * j + 1 for j in range(k)] for i in range(r)], k)
    b = Mat([[3 * i + j - 2 for j in range(c)] for i in range(k)], c)
    side = Mat([[i + j for j in range(c)] for i in range(r)], c)
    product = mat_mul(INTEGERS, a, b)
    assert product == Mat(
        [[sum(a.rows[i][t] * b.rows[t][j] for t in range(k)) for j in range(c)] for i in range(r)],
        c,
    )
    assert hstack(a, side) == Mat([a.rows[i] + side.rows[i] for i in range(r)], k + c)
    assert hstack(a) == a
    kern = kernel_basis(INTEGERS, a)
    assert (kern.nrows, kern.ncols) == (k, k - smith_normal_form(INTEGERS, a).rank)
    assert mat_mul(INTEGERS, a, kern) == Mat([[0] * kern.ncols for _ in range(r)], kern.ncols)


# ------------------------------------------------- block-diagonal inputs


def _det(ring, rows):
    """Determinant by fraction-free (Bareiss) elimination; every division is exact."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = ring.one, ring.one
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return ring.zero
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = divmod(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
                assert not r
                a[i][j] = q
        prev = a[k][k]
    return sign * a[-1][-1] if n else ring.one


def _d(ring, m, dec):
    """D in U * M * V = D: the decomposition's diagonal on a zero matrix shaped like M."""
    rows = [[ring.zero] * m.ncols for _ in range(m.nrows)]
    for k, x in enumerate(dec.diagonal):
        rows[k][k] = x
    return Mat(rows, m.ncols)


def _column_span(ring, gens):
    """The span of the columns of gens in the free module ring^nrows."""
    free = PresentedModule(ring, Mat([() for _ in range(gens.nrows)], 0))
    return Submodule(free, gens)


def _vstack(*mats):
    """The rows of each matrix in turn; all of them have the same width."""
    assert len({m.ncols for m in mats}) == 1
    return Mat([row for m in mats for row in m.rows], mats[0].ncols)


def _check_decomposition(ring, m, dec):
    assert mat_mul(ring, mat_mul(ring, dec.u, m), dec.v) == _d(ring, m, dec)
    assert ring.canonical(_det(ring, dec.u.rows))[0] == ring.one
    assert ring.canonical(_det(ring, dec.v.rows))[0] == ring.one
    diag = dec.diagonal
    assert all(
        not d or not divmod(e, d)[1] for d, e in zip(diag, diag[1:])
    )


def test_snf_merges_coprime_blocks_over_integers():
    m = Mat([[2, 0], [0, 3]])
    dec = smith_normal_form(INTEGERS, m)
    assert dec.diagonal == (1, 6)
    assert dec.unit_count == 1
    _check_decomposition(INTEGERS, m, dec)
    span = _column_span(INTEGERS, m)
    assert span.contains_columns(Mat([[4], [9]]))
    assert not span.contains_columns(Mat([[1], [0]]))


def test_snf_merges_coprime_blocks_over_laurent():
    a, b = LaurentPolyQ({0: -2, 1: 1}), LaurentPolyQ({0: -1, 1: 2})
    m = block_diag(LAURENT, Mat([[a]]), Mat([[b]]))
    dec = smith_normal_form(LAURENT, m)
    assert dec.diagonal == (LAURENT.one, LaurentPolyQ({0: 1, 1: Fraction(-5, 2), 2: 1}))
    assert dec.unit_count == 1
    _check_decomposition(LAURENT, m, dec)
    assert _column_span(LAURENT, m).contains_columns(Mat([[a], [b]]))


def _random_int(rng):
    return rng.choice((0, 0, rng.randint(-6, 6)))


def _random_laurent(rng):
    if rng.random() < 0.4:
        return LAURENT.zero
    lo = rng.randint(-1, 0)
    return LaurentPolyQ({e: rng.randint(-3, 3) for e in range(lo, lo + rng.randint(1, 3))})


def _random_eisenstein(rng):
    if rng.random() < 0.4:
        return EISENSTEIN.zero
    return EisensteinInt(rng.randint(-3, 3), rng.randint(-3, 3))


def _dense_rectangle(ring, entry, rng):
    """A matrix of 0 to 6 rows and 0 to 6 columns, each entry zero or not with even odds."""
    r, c = rng.randint(0, 6), rng.randint(0, 6)

    def nonzero():
        x = ring.zero
        while not x:
            x = entry(rng)
        return x

    rows = [[nonzero() if rng.random() < 0.5 else ring.zero for _ in range(c)] for _ in range(r)]
    return Mat(rows, c)


@pytest.mark.parametrize(
    "ring, entry",
    [(INTEGERS, _random_int), (LAURENT, _random_laurent), (EISENSTEIN, _random_eisenstein)],
    ids=["integers", "laurent", "eisenstein"],
)
def test_snf_of_shuffled_block_diagonal_matches_whole_matrix(ring, entry):
    rng = random.Random(20261018)
    inputs = []
    for _ in range(12):
        pool = []
        for _ in range(3):
            r, c = rng.randint(1, 2), rng.randint(1, 2)
            pool.append(Mat([[entry(rng) for _ in range(c)] for _ in range(r)], c))
        # up to 30 blocks from a pool of 3, so that blocks and diagonal values repeat
        blocks = [rng.choice(pool) for _ in range(rng.randint(1, 30))]
        whole = block_diag(ring, *blocks, Mat([[ring.zero]] * rng.randint(0, 1), 1))
        whole = _vstack(whole, Mat([[ring.zero] * whole.ncols] * rng.randint(0, 1), whole.ncols))
        row_order = rng.sample(range(whole.nrows), whole.nrows)
        col_order = rng.sample(range(whole.ncols), whole.ncols)
        inputs.append(Mat([[whole.rows[i][j] for j in col_order] for i in row_order], whole.ncols))
    # dense rectangles make the elimination swap in remainders and patch divisibility
    inputs += [_dense_rectangle(ring, entry, rng) for _ in range(30)]
    for m in inputs:
        dec = smith_normal_form(ring, m)
        assert dec.diagonal[: dec.rank] == _smith_block(ring, m, False, False, None)[0]
        _check_decomposition(ring, m, dec)
        # the diagonal-only merge by values agrees with whole-matrix elimination
        bare = smith_normal_form(ring, m, with_u=False, with_v=False)
        assert (bare.diagonal, bare.rank, bare.unit_count, bare.invariant_factors) == (
            dec.diagonal, dec.rank, dec.unit_count, dec.invariant_factors
        )
        # the block-wise kernel spans ker m: m k = 0, C - rank columns, and
        # saturated (over a PID these three together give the whole kernel)
        k = kernel_basis(ring, m)
        assert not any(x for row in mat_mul(ring, m, k).rows for x in row)
        assert k.ncols == m.ncols - dec.rank
        assert smith_normal_form(ring, k, with_u=False, with_v=False).unit_count == k.ncols


# A dense genus-5 Seifert matrix V = S + P: S is symmetric, and P has a 1 at
# (2k, 2k + 1), so V - V^T is the standard symplectic form and det(V - V^T) = 1.
_DENSE_GENUS_5 = (
    (-1,  3, -2,  0, -2,  1,  1,  1,  1, -1),
    ( 2, -2,  1, -2,  1,  1,  2, -2,  1,  0),
    (-2,  1, -1,  3, -2,  0, -2, -2, -2,  2),
    ( 0, -2,  2, -2,  1, -1,  1, -2,  2, -1),
    (-2,  1, -2,  1,  1,  2,  2, -1,  0, -1),
    ( 1,  1,  0, -1,  1, -1,  1,  0, -2,  1),
    ( 1,  2, -2,  1,  2,  1,  2, -1, -1,  0),
    ( 1, -2, -2, -2, -1,  0, -2, -2,  0,  2),
    ( 1,  1, -2,  2,  0, -2, -1,  0,  1,  3),
    (-1,  0,  2, -1, -1,  1,  0,  2,  2, -1),
)


def test_dense_alexander_kernel_keeps_its_laurent_divisions(monkeypatch):
    # The pivot order sets the elimination's cost on dense input.  Ours makes
    # 122 divisions here; reducing column and row by one pivot and then
    # rescanning the whole block for the next one makes 218.
    presentation = alexander_presentation(SeifertKnot("dense genus 5", _DENSE_GENUS_5))
    calls = []
    inner = LaurentPolyQ.__divmod__

    def counted(a, b):
        calls.append(1)
        return inner(a, b)

    monkeypatch.setattr(LaurentPolyQ, "__divmod__", counted)
    kernel = kernel_basis(LAURENT, presentation)
    monkeypatch.setattr(LaurentPolyQ, "__divmod__", inner)
    assert kernel.ncols == 0  # Delta(1) = 1, so the presentation is nonsingular
    assert len(calls) <= 122


def test_kernel_basis_reduces_each_distinct_block_once(monkeypatch, fresh_memo):
    calls = []
    inner = linalg._smith_block

    def counted(*args):
        calls.append((args[1].nrows, args[1].ncols))
        return inner(*args)

    monkeypatch.setattr(linalg, "_smith_block", counted)
    block = Mat([[2, 4, 1], [0, 6, 3]])
    m = block_diag(INTEGERS, block, Mat([[3, 0, 0]]), block)
    k = kernel_basis(INTEGERS, m)
    # one pass over the blocks: the repeated block and the two zero columns
    # are reduced once each
    assert calls == [(2, 3), (1, 1), (0, 1)]
    assert k.ncols == m.ncols - smith_normal_form(INTEGERS, m).rank


def test_a_second_identical_library_call_reduces_nothing(monkeypatch, fresh_memo):
    calls = []
    inner = linalg._smith_block

    def counted(*args):
        calls.append(args[1].nrows)
        return inner(*args)

    monkeypatch.setattr(linalg, "_smith_block", counted)
    m = block_diag(INTEGERS, Mat([[2, 4, 1], [0, 6, 3]]), Mat([[3, 0, 0]]))
    first = kernel_basis(INTEGERS, m)
    count = len(calls)
    assert count and kernel_basis(INTEGERS, m) == first
    assert len(calls) == count


def test_diagonal_only_snf_then_kernel_reduces_each_block_once(monkeypatch, fresh_memo):
    entries = (LaurentPolyQ({0: -1, 1: 2}), LAURENT.zero, LaurentPolyQ({0: -2, 1: 1}))
    m = block_diag(LAURENT, *[Mat([[x]]) for x in entries])
    m = hstack(m, m)
    fresh = kernel_basis(LAURENT, m)
    calls = []
    inner = linalg._smith_block

    def counted(*args):
        calls.append(args[3])
        return inner(*args)

    monkeypatch.setattr(linalg, "_smith_block", counted)
    for cache in fresh_memo:  # `fresh` above filled the memo
        cache.cache_clear()
    bare = smith_normal_form(LAURENT, m, with_u=False, with_v=False)
    # the four distinct blocks (two 1x2, a zero row, a zero column), each once, with V
    assert calls == [True] * 4
    assert kernel_basis(LAURENT, m) == fresh
    assert kernel_basis(LAURENT, m) == fresh
    assert smith_normal_form(LAURENT, m, with_u=False, with_v=False) == bare
    # and nothing after the first call
    assert len(calls) == 4


def test_an_unrecorded_matrix_is_split_once(monkeypatch, fresh_memo):
    splits = []
    inner = linalg._split_blocks

    def counted(m):
        splits.append((m.nrows, m.ncols))
        return inner(m)

    monkeypatch.setattr(linalg, "_split_blocks", counted)
    rows = [[2, 4, 0, 0], [0, 6, 0, 0], [0, 0, 0, 3]]
    m = Mat(rows)
    assert m._blocks is None
    dec = smith_normal_form(INTEGERS, m, False, False)
    assert dec.diagonal == (1, 6, 6)
    # an equal but distinct matrix, then the kernel: both read the first call's reduction
    assert smith_normal_form(INTEGERS, Mat(rows), False, False) == dec
    assert kernel_basis(INTEGERS, m).rows == ((0,), (0,), (1,), (0,))
    assert splits == [(3, 4)]


def test_each_matrix_gets_its_own_diagonal_from_a_warm_memo(fresh_memo):
    # t - 2 and t - 1/2 are coprime, so their merge makes a unit: diag(t - 2, t - 1/2)
    # has the diagonal (1, p) with p = (t - 2)(t - 1/2)
    a, b = LaurentPolyQ({0: -2, 1: 1}), LaurentPolyQ({0: Fraction(-1, 2), 1: 1})
    one, zero, p = LAURENT.one, LAURENT.zero, a * b

    def diag(ring, *entries):
        return block_diag(ring, *[Mat([[x]]) for x in entries])

    def padded(ring, m, rows, cols):  # m with zero rows below it and zero columns after it
        return block_diag(ring, m, Mat([(ring.zero,) * cols] * rows, cols))

    cases = [  # (ring, matrix, diagonal)
        # the same nonunit pivot counts, with and without a unit pivot, at min(R, C) 2 and 3
        (LAURENT, diag(LAURENT, a, b), (one, p)),
        (LAURENT, diag(LAURENT, one, a, b), (one, one, p)),
        (LAURENT, padded(LAURENT, diag(LAURENT, a, b), 1, 1), (one, p, zero)),
        (LAURENT, padded(LAURENT, diag(LAURENT, a, b), 1, 0), (one, p)),
        (LAURENT, padded(LAURENT, diag(LAURENT, one, a, b), 0, 2), (one, one, p)),
        (LAURENT, hstack(diag(LAURENT, a, b), diag(LAURENT, a, b)), (one, p)),
        # recorded sums, whose counts add up piece by piece
        (LAURENT, diag(LAURENT, *[a, b] * 4), (one,) * 4 + (p,) * 4),
        (LAURENT, diag(LAURENT, *[a, b] * 4, one), (one,) * 5 + (p,) * 4),
        (LAURENT, diag(LAURENT, *[a, b, zero] * 4), (one,) * 4 + (p,) * 4 + (zero,) * 4),
        (INTEGERS, diag(INTEGERS, 2, 3), (1, 6)),
        (INTEGERS, diag(INTEGERS, 1, 2, 3), (1, 1, 6)),
        (INTEGERS, padded(INTEGERS, diag(INTEGERS, 2, 3), 1, 1), (1, 6, 0)),
    ]
    cold = []
    for ring, m, want in cases:
        for cache in fresh_memo:
            cache.cache_clear()
        cold.append(smith_normal_form(ring, m, False, False))
        # the transform path's one dense elimination, which never reads the memo
        assert cold[-1].diagonal == smith_normal_form(ring, m).diagonal == want
    for cache in fresh_memo:
        cache.cache_clear()
    for _ in range(2):  # one memo for every case; the second pass reads it only
        for (ring, m, _), dec in zip(cases, cold):
            assert smith_normal_form(ring, m, False, False) == dec


def test_memo_tables_never_pass_the_cap(fresh_memo):
    assert [cache.cache_info().maxsize for cache in fresh_memo] == [linalg._MEMO_CAP] * 4
    for k in range(1, 1_101):
        # a new block, piece, decomposition (of the pivot k) and product each
        dec = smith_normal_form(INTEGERS, Mat([[k]]), False, False)
        assert linalg.product(INTEGERS, dec.diagonal) == k
    # every cache (blocks, pieces, decompositions, products) filled up and then evicted
    assert [cache.cache_info().currsize for cache in fresh_memo] == [linalg._MEMO_CAP] * 4


def test_kernel_basis_makes_no_diagonal_moves():
    m = block_diag(INTEGERS, Mat([[2, 4]]), Mat([[3, 0]]), Mat([[5, 5, 5]]))
    k = kernel_basis(INTEGERS, m)
    assert k.rows == (
        (-2, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1),
        (0, -1, -1, 0), (0, 1, 0, 0), (0, 0, 1, 0),
    )


def test_diagonal_only_snf_costs_the_distinct_values(monkeypatch):
    a, b = LaurentPolyQ({0: -1, 1: 2}), LaurentPolyQ({0: -2, 1: 1})
    k = 256
    m = block_diag(LAURENT, *[Mat([[x]]) for x in (a, b) * k])
    calls = []
    inner = LaurentPolyQ.__eq__

    def counted(self, other):
        calls.append(1)
        return inner(self, other)

    monkeypatch.setattr(LaurentPolyQ, "__eq__", counted)
    dec = smith_normal_form(LAURENT, m, with_u=False, with_v=False)
    monkeypatch.setattr(LaurentPolyQ, "__eq__", inner)
    lcm = LaurentPolyQ({0: 1, 1: Fraction(-5, 2), 2: 1})
    assert dec.diagonal == (LAURENT.one,) * k + (lcm,) * k
    assert (dec.unit_count, dec.invariant_factors) == (k, (lcm,) * k)
    # linear in the entries; the pairwise merge compares about k^2 / 2 pairs
    assert len(calls) <= 16 * 2 * k
