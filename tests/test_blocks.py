"""The block record of `linalg`: every operation that keeps it agrees with a plain matrix.

`block_diag` records the pieces it places on the diagonal, and `transpose`,
`hstack`, `mat_mul`, `zip_entries`, `kernel_basis` and `Mat.split_rows`
carry that record when their operands line up.  Each test builds seeded
random block sums over Z, Q[t^±1] and Z[w] -- repeated piece objects, zero
rows and columns, empty pieces, pieces whose nonzeros split into several
blocks, sums of sums -- and compares every result with the same operation on
a record-free copy, `_mat(zero, m.lines, m.ncols)`.  At the cap, where no
such copy can be reduced in time, the Smith diagonals over Z, Q[t^±1] and
Z[w] are checked against ranks modulo primes (`linalg.rref_mod_p`).
"""

import operator
import random
from fractions import Fraction

import pytest

from stabkit import cli, linalg
from stabkit.catalog import builtin_catalog
from stabkit.knots import alexander_module_Q, branched_double_cover, disc_kernel_Q
from stabkit.linalg import (
    Mat,
    _mat,
    block_diag,
    hstack,
    kernel_basis,
    mat_mul,
    rref_mod_p,
    smith_normal_form,
    transpose,
    zip_entries,
)
from stabkit.metabelian import eisenstein_alexander
from stabkit.modules import pair_quotients
from stabkit.rings import EISENSTEIN, INTEGERS, LAURENT, EisensteinInt, LaurentPolyQ


def _int(rng):
    return rng.randint(-4, 4)


def _laurent(rng):
    lo = rng.randint(-1, 0)
    return LaurentPolyQ({e: rng.randint(-2, 2) for e in range(lo, lo + rng.randint(1, 2))})


def _eisenstein(rng):
    return EisensteinInt(rng.randint(-2, 2), rng.randint(-2, 2))


RINGS = [(INTEGERS, _int), (LAURENT, _laurent), (EISENSTEIN, _eisenstein)]
IDS = ["integers", "laurent", "eisenstein"]


def _plain(m: Mat) -> Mat:
    return _mat(m.zero, m.lines, m.ncols)


def _same(got: Mat, want: Mat) -> None:
    assert want._blocks is None
    assert (got.nrows, got.ncols, got.lines) == (want.nrows, want.ncols, want.lines)


def _random_piece(rng, ring, entry, nrows=None, ncols=None) -> Mat:
    """A sparse piece; its zero rows, zero columns and separate nonzeros split it further."""
    r = rng.randint(0, 3) if nrows is None else nrows
    c = rng.randint(0, 3) if ncols is None else ncols
    rows = [[entry(rng) if rng.random() < 0.45 else ring.zero for _ in range(c)] for _ in range(r)]
    return Mat(rows, c)


def _block_sum(ring, pieces: list, nest: int) -> Mat:
    """block_diag of the pieces, or a sum of sums.

    nest 1 sums a recorded sum of all but the last two pieces with those two;
    nest 2 takes a plain sum of the first two pieces as one piece of the sum.
    """
    if nest == 1:
        return block_diag(ring, block_diag(ring, *pieces[:-2]), *pieces[-2:])
    if nest == 2:
        return block_diag(ring, block_diag(ring, *pieces[:2]), *pieces[2:])
    return block_diag(ring, *pieces)


def _cases(ring, entry, seed, count=25):
    """(rng, pool, which, nest): piece i of a sum is pool[which[i]], so pieces repeat.

    Up to three distinct pieces at 14 or more positions give every sum, and
    the inner sum of nest 1, enough pieces to be recorded (`linalg._FEW_PIECES`).
    """
    rng = random.Random(seed)
    for _ in range(count):
        pool = [_random_piece(rng, ring, entry) for _ in range(rng.randint(1, 3))]
        which = [rng.randrange(len(pool)) for _ in range(rng.randint(14, 18))]
        yield rng, pool, which, rng.randrange(3)


@pytest.mark.parametrize("ring, entry", RINGS, ids=IDS)
def test_block_diag_places_each_piece(ring, entry):
    for rng, pool, which, nest in _cases(ring, entry, 1):
        pieces = [pool[j] for j in which]
        m = _block_sum(ring, pieces, nest)
        assert m._blocks is not None
        rows, c0 = [], 0
        for p in pieces:
            right = m.ncols - c0 - p.ncols
            rows += [[ring.zero] * c0 + list(r) + [ring.zero] * right for r in p.rows]
            c0 += p.ncols
        _same(m, Mat(rows, m.ncols))
        assert m == _plain(m) and hash(m) == hash(_plain(m))
        assert m.rows == Mat(rows, m.ncols).rows


@pytest.mark.parametrize("ring, entry", RINGS, ids=IDS)
def test_transpose_and_entry_maps_keep_the_record(ring, entry):
    for rng, pool, which, nest in _cases(ring, entry, 2):
        m = _block_sum(ring, [pool[j] for j in which], nest)
        for got, want in ((transpose(m), transpose(_plain(m))), (transpose(transpose(m)), _plain(m))):
            assert got._blocks is not None
            _same(got, want)
        # `Mat.map_entries` reads the lines, so it gives a plain matrix with the same entries
        for fn in (lambda x: x * x, lambda x: x - x):
            _same(m.map_entries(fn), _plain(m).map_entries(fn))
        doubled = [p.map_entries(lambda x: x + x) for p in pool]
        other = _block_sum(ring, [doubled[j] for j in which], nest)
        for fn in (operator.add, operator.sub):
            got = zip_entries(ring, fn, m, other)
            assert got._blocks is not None
            _same(got, zip_entries(ring, fn, _plain(m), _plain(other)))
            _same(zip_entries(ring, fn, m, transpose(transpose(other))), _plain(got))


@pytest.mark.parametrize("ring, entry", RINGS, ids=IDS)
def test_hstack_and_mat_mul_of_lined_up_sums(ring, entry):
    for rng, pool, which, nest in _cases(ring, entry, 3):
        a = _block_sum(ring, [pool[j] for j in which], nest)
        # a partner piece per pool entry, so repeated pieces pair with repeated partners
        beside = [_random_piece(rng, ring, entry, nrows=p.nrows) for p in pool]
        below = [_random_piece(rng, ring, entry, nrows=p.ncols) for p in pool]
        b = _block_sum(ring, [beside[j] for j in which], nest)
        c = _block_sum(ring, [below[j] for j in which], nest)
        stacked = hstack(a, b, a)
        assert stacked._blocks is not None
        _same(stacked, hstack(_plain(a), _plain(b), _plain(a)))
        product = mat_mul(ring, a, c)
        assert product._blocks is not None
        _same(product, mat_mul(ring, _plain(a), _plain(c)))
        # products and stacks of carried records, and a transpose of a stack
        twice = mat_mul(ring, transpose(stacked), stacked)
        assert twice._blocks is not None
        _same(twice, mat_mul(ring, transpose(_plain(stacked)), _plain(stacked)))
        _same(hstack(product, a), hstack(_plain(product), _plain(a)))


@pytest.mark.parametrize("ring, entry", RINGS, ids=IDS)
def test_operands_that_do_not_line_up_give_plain_results(ring, entry):
    checked = 0
    for rng, pool, which, nest in _cases(ring, entry, 4):
        a = _block_sum(ring, [pool[j] for j in which], nest)
        # recorded partners with as many pieces, each cut like its neighbour's
        turned = which[1:] + which[:1]
        beside = [_random_piece(rng, ring, entry, nrows=p.nrows) for p in pool]
        below = [_random_piece(rng, ring, entry, nrows=p.ncols) for p in pool]
        b = _block_sum(ring, [beside[j] for j in turned], nest)
        c = _block_sum(ring, [below[j] for j in turned], nest)
        assert b._blocks is not None and c._blocks is not None
        if b._blocks.rows != a._blocks.rows:
            checked += 1
            _same(hstack(a, b), hstack(_plain(a), _plain(b)))
        if c._blocks.rows != a._blocks.cols:
            checked += 1
            _same(mat_mul(ring, a, c), mat_mul(ring, _plain(a), _plain(c)))
        _same(hstack(a, _plain(a)), hstack(_plain(a), _plain(a)))
    assert checked


@pytest.mark.parametrize("ring, entry", RINGS, ids=IDS)
def test_equality_of_recorded_sums(ring, entry):
    one, zero = ring.one, ring.zero
    x = Mat([[one, zero], [one + one, one]])
    y = Mat([[one, one], [zero, one]])
    a = block_diag(ring, *[x, y] * 4)
    # equal records, from equal pieces that are other objects
    b = block_diag(ring, *[Mat(x.rows), Mat(y.rows)] * 4)
    assert a._blocks is not None and b._blocks is not None
    assert a == b and b == a
    # a recorded sum and a plain matrix with the same entries
    assert a == _plain(b) and _plain(b) == a
    assert a != Mat(a.rows[:-1] + (a.rows[0],), a.ncols)
    # sums that differ: the same pieces in another order, or one piece changed
    assert a != block_diag(ring, *[y, x] * 4)
    assert a != block_diag(ring, *[x, y] * 3, x, x)
    assert a != block_diag(ring, *[x, y] * 3, x, Mat([[one, one], [zero, -one]]))


def _filled(ring, p: Mat) -> Mat:
    """p with a row of ones below it, so that none of its columns is zero."""
    return Mat(list(p.rows) + [[ring.one] * p.ncols], p.ncols)


def _has_zero_column(p: Mat) -> bool:
    return len({j for line in p.lines for j, _ in line}) < p.ncols


@pytest.mark.parametrize("ring, entry", RINGS, ids=IDS)
def test_kernels_split_rows_and_smith_forms_agree(ring, entry):
    for rng, pool, which, nest in _cases(ring, entry, 5, count=12):
        beside = [_random_piece(rng, ring, entry, nrows=p.nrows) for p in pool]
        # the pieces as drawn, most with a zero column, and the same pieces filled
        filled = [[_filled(ring, p) for p in ps] for ps in (pool, beside)]
        for pieces, partners in ((pool, beside), filled):
            a = _block_sum(ring, [pieces[j] for j in which], nest)
            b = _block_sum(ring, [partners[j] for j in which], nest)
            for m in (a, hstack(b, a), hstack(a, b, a), transpose(hstack(a, b))):
                kern = kernel_basis(ring, m)
                want = kernel_basis(ring, _plain(m))
                _same(kern, want)
                assert not any(mat_mul(ring, m, kern).lines)
                got = smith_normal_form(ring, m, False, False)
                plain = smith_normal_form(ring, _plain(m), False, False)
                assert (got.diagonal, got.rank, got.unit_count, got.invariant_factors) == (
                    plain.diagonal, plain.rank, plain.unit_count, plain.invariant_factors
                )
                # at the boundaries between stacked parts, and at two other rows
                cuts = [sum(map(sum, m._blocks.cols[:i])) for i in range(len(m._blocks.cols) + 1)]
                for k in cuts + [rng.randint(0, kern.nrows) for _ in range(2)]:
                    for half, plain_half in zip(kern.split_rows(k), want.split_rows(k)):
                        _same(half, plain_half)
                        assert smith_normal_form(ring, half, False, False) == smith_normal_form(
                            ring, _plain(half), False, False
                        )
                assert (kern.nrows, kern.ncols) == (m.ncols, m.ncols - got.rank)
            # the kernel of a stack keeps its record, split into the stacked parts, unless a
            # piece of the stack has a zero column
            stack = hstack(b, a)
            kern = kernel_basis(ring, stack)
            if any(map(_has_zero_column, stack._blocks.kinds)):
                assert pieces is pool and kern._blocks is None
            else:
                assert kern._blocks is not None
                top, bottom = kern.split_rows(b.ncols)
                assert top._blocks is not None and bottom._blocks is not None


def test_smith_memo_is_shared_by_equal_pieces_of_one_command(monkeypatch, fresh_memo):
    calls = []
    real = linalg._smith_block

    def counted(*args):
        calls.append((args[1].lines, args[1].ncols, args[3]))
        return real(*args)

    monkeypatch.setattr(linalg, "_smith_block", counted)
    piece = Mat([[2, 4, 0], [0, 6, 0]])
    m = block_diag(INTEGERS, *[piece, Mat([[2, 4, 0], [0, 6, 0]])] * 6)
    assert m._blocks is not None
    assert smith_normal_form(INTEGERS, m, False, False).diagonal == (2,) * 12 + (6,) * 12
    kernel_basis(INTEGERS, m)
    kernel_basis(INTEGERS, transpose(transpose(m)))
    # one 2x2 block and one zero column, each reduced once, with V
    assert len(calls) == len(set(calls)) == 2


def test_bound_d2_of_a_sum_splits_only_summand_pieces(capsys, monkeypatch, fresh_memo):
    splits, reduced = [], []
    real_split, real_smith = linalg._split_blocks, linalg._smith_block

    def split(m):
        splits.append((getattr(m, "_blocks", None), m.nrows, m.ncols))
        return real_split(m)

    def smith(ring, m, with_u, with_v, cancel):
        reduced.append((ring.tag, m.lines, m.ncols, with_u, with_v))
        return real_smith(ring, m, with_u, with_v, cancel)

    monkeypatch.setattr(linalg, "_split_blocks", split)
    monkeypatch.setattr(linalg, "_smith_block", smith)
    argv = ["--json", "bound", "d2", "--knot", "sum^8(9_46)", "--discs", "left^8,right^8"]
    assert cli.main(argv) == 0
    assert '"lower": 8' in capsys.readouterr().out
    # no recorded matrix is split by union-find; only pieces of one summand are
    assert splits and all(b is None and r <= 4 and c <= 4 for b, r, c in splits), splits
    assert reduced and len(reduced) == len(set(reduced))


def _kernels_modules(ref: str, specs: list, at) -> list:
    """What `kernels` reduces for ref and two disc specs, with the knot's module `at` it.

    The knot's module, each disc kernel's presentation, and the two quotients
    of the pair.
    """
    leaves = cli.resolve_knot_ref(builtin_catalog(), ref)
    knot = cli.knot_of_leaves(leaves)
    ambient = at(knot)
    kernels = [disc_kernel_Q(cli.resolve_disc_spec(leaves, s, knot), ambient) for s in specs]
    q12, q21, _ = pair_quotients(*kernels)
    return [ambient] + [k.presentation for k in kernels] + [q12, q21]


_CAP_REF = "sum(sum^128(9_46),sum^128(6_1))"
_CAP_SPECS = ["+".join([disc] * 128 + ["gamma"] * 128) for disc in ("left", "right")]


def test_smith_diagonals_at_the_cap_agree_with_ranks_mod_p(fresh_memo):
    # over a PID, the rank of M mod p is the number of invariant factors p does not divide
    primes = (3, 5, 1_000_003)
    for memo in ("cold", "warm"):
        modules = _kernels_modules(_CAP_REF, _CAP_SPECS, branched_double_cover)
        presentation = modules[0].relations
        assert (presentation.nrows, presentation.ncols) == (512, 512)
        assert [len(rref_mod_p(presentation.lines, p)) for p in primes] == [128, 512, 512]
        for module in modules:
            rels = module.relations
            diagonal = smith_normal_form(INTEGERS, rels, False, False).diagonal
            for p in primes:
                assert len(rref_mod_p(rels.lines, p)) == sum(1 for d in diagonal if d % p), (memo, p)


def test_eisenstein_smith_diagonals_at_the_cap_agree_with_ranks_mod_p(fresh_memo):
    # Z[w] -> F_p by w -> r, with r^2 + r + 1 = 0 mod p: the prime 1 - w over 3, whose
    # residue field is where the mod-3 characters live, and the two primes over 7.  Its
    # kernel is the prime, so the rank there counts the diagonal entries it does not divide
    primes = ((3, 1), (7, 2), (7, 4))
    ranks = [
        [512, 256, 256],  # A(K) at t = w
        [256, 128, 128], [256, 256, 0],  # the two disc kernels
        [256, 128, 256], [256, 256, 128],  # the pair's quotients
    ]
    for memo in ("cold", "warm"):
        modules = _kernels_modules(_CAP_REF, _CAP_SPECS, eisenstein_alexander)
        assert (modules[0].relations.nrows, modules[0].relations.ncols) == (512, 512)
        for module, want in zip(modules, ranks):
            rels = module.relations
            diagonal = smith_normal_form(EISENSTEIN, rels, False, False).diagonal
            for (p, r), rank in zip(primes, want):
                lines = [[(j, x.a + x.b * r) for j, x in line] for line in rels.lines]
                kept = sum(1 for d in diagonal if (d.a + d.b * r) % p)
                assert len(rref_mod_p(lines, p)) == kept == rank, (memo, p, r)


def test_laurent_smith_diagonals_at_the_cap_agree_with_ranks_mod_p(fresh_memo):
    # Q[t^±1] -> F_p by t -> a: c/d goes to c * d^-1 and t^-e to (a^-1)^e.  Where that map
    # is defined on the transforms too, the rank at t = a counts the diagonal entries
    # that do not vanish at a
    p = 1_000_003
    points = (2, pow(2, -1, p), 5)

    def at(x, a):  # x(a) in F_p
        value = 0
        for e, c in x.terms:
            c = Fraction(c)
            value += c.numerator * pow(c.denominator, -1, p) * pow(a, e, p)
        return value % p

    ranks = [
        [256, 256, 512],  # A(K) at t = 2, 1/2, 5
        [128, 128, 256], [256, 0, 256],  # the two disc kernels
        [128, 256, 256], [256, 128, 256],  # the pair's quotients
    ]
    for memo in ("cold", "warm"):
        modules = _kernels_modules(_CAP_REF, _CAP_SPECS, alexander_module_Q)
        assert (modules[0].relations.nrows, modules[0].relations.ncols) == (512, 512)
        for module, want in zip(modules, ranks):
            rels = module.relations
            diagonal = smith_normal_form(LAURENT, rels, False, False).diagonal
            for a, rank in zip(points, want):
                lines = [[(j, at(x, a)) for j, x in line] for line in rels.lines]
                kept = sum(1 for d in diagonal if at(d, a))
                assert len(rref_mod_p(lines, p)) == kept == rank, (memo, a)
