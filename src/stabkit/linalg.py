"""Matrices and Smith normal form over the Euclidean domains in `rings`.

A matrix stores only its nonzeros: each row is a tuple of (column, value)
pairs in column order.  Connected sums make most matrices here
block-diagonal with a few percent nonzeros, so every operation below costs
what the nonzeros cost, not rows x columns: stacking and block sums shift
column indices, products multiply nonzero by nonzero, and the dense `rows`
view is built only for the callers that print or compare entries.  Every
algorithm takes the ring descriptor explicitly so the same code serves Z,
Q[t^±1] and Z[w].  Entries do their own arithmetic and are false exactly
when zero; the descriptor supplies zero, one, sizes and canonical associates.

Block sums keep their blocks.  `block_diag` records the pieces it places
on the diagonal (a private `_Blocks` on the `Mat`), exact by construction
and never inferred from the entries.  It keeps a record only when the pieces
repeat enough to pay for it (`_FEW_PIECES`), as they do in a sum of many
copies of a few summands.  The operations that map a block sum to a block
sum carry the record, applying themselves once per distinct piece object:
`transpose`, `hstack` of sums whose rows line up piece by piece, `mat_mul`
of sums whose inner indices line up, the entry maps `Mat.map_entries` and
`zip_entries`, `Mat.split_rows` at a boundary between stacked parts, and
`kernel_basis` of a sum whose rows are one run of pieces.  Any other operand
makes the result a plain matrix.  A recorded matrix builds its `lines` only
when a caller reads them (`rows`, equality, hashing, printing, or an
operation that cannot keep the record).  The pieces of a record are plain
matrices: a block sum of block sums records the inner pieces.

The Smith pass is the classic elimination, one loop per pivot position:
move the smallest-size nonzero entry of the remaining block to the diagonal
(ties broken by row-then-column position, so output is deterministic),
clear its column and then its row by Euclidean division (a nonzero
remainder is smaller than the pivot, takes its place, and that pass starts
over), patch a divisibility failure in the remaining block by a row
addition and clear again (a unit pivot divides everything and skips that
sweep), and normalize the finished pivot by the unit u that
`ring.canonical` returns with its associate (U's row is scaled by u too).
Every diagonal entry is therefore canonical, and a unit on the diagonal is
exactly `ring.one`.  Transforms U and V are accumulated from elementary
operations only, so their determinants are units.

Without transforms the elimination runs, densely, on each connected block.
Permuting rows and columns changes no invariant factor, and the Smith form
of A ⊕ B is the Smith form of diag(SNF(A), SNF(B)) (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, §2.4), so the pivots of the
blocks, merged into one divisibility chain, are the diagonal.  A recorded
matrix takes its blocks from its pieces, each distinct piece looked up once;
any other matrix (a small sum, a catalog knot, the kernel of a sum whose
rows are stacked parts) is a piece of its own.  A piece is split by
union-find over its stored nonzeros (`_split_blocks`) and each of its
blocks reduced with V (`_piece`), so one reduction gives the piece's pivots,
its kernel and its zero columns, whichever a caller asks for first.
One memo per ring lasts for the process.  Its four tables are keyed by
content, and a matrix has one entry in each table it reaches: every block
and every piece already reduced, the merged chain of each distinct tuple of
(pivot, multiplicity) counts, and the canonical product of each tuple of
values `product` was asked for (a module's order, both sides of
`modules.pair_quotients`).  So the Smith calls, kernels and orders of all
requests on the same matrices share them.  A table that would pass
`_MEMO_CAP` entries is emptied first.  Keys are contents and values are
immutable, so a hit returns what a fresh computation would.  Both piece
readers do only the work their callers use:

* `kernel_basis` embeds each block's non-pivot V columns at the block's
  columns, in block order.  Those columns span the kernel, and nothing is
  merged.
* The concatenated diagonal is not yet a divisibility chain (diag(2, 3) has
  invariant factors (1, 6)).  Without transforms, which is how `modules` and
  `knots` ask, units go first and each distinct nonunit value is inserted,
  with its multiplicity, into the chain of invariant factors by a sorted
  merge that holds prime by prime (`_chain_of_values`).  Its cost grows with
  the distinct values, not with the number of entries.

A caller that asks for U or V gets one elimination of the whole matrix,
whose pivots already form the chain.

A decomposition carries the diagonal, not D: D is that diagonal on a zero
matrix of M's shape, and no caller reads the rest of it.  There is no solver
and no separate determinant routine.  Membership in a column span is an
isomorphism test of two quotients in `modules`, which needs no transforms;
for a square matrix the product of the diagonal is det M up to a unit, so a
direct sum costs what its distinct blocks cost.  `knots` checks
det(V - V^T) of a Seifert matrix this way.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

from .rings import euclid_gcd


class SmithCancelled(Exception):
    """Raised when a cooperative cancellation callback asks to stop."""


class _Blocks(NamedTuple):
    """The record of a block sum: its pieces, on disjoint rows and columns.

    Piece i is `kinds[which[i]]`: `kinds` holds each distinct piece object
    once, so an operation applies itself once per kind.  `rows` and `cols`
    are tuples of bands, and a band lists one size per piece.  A band's
    indices are the pieces' segments in piece order, and the bands follow one
    another.  A piece's own rows (columns) are its segments in band order.
    `block_diag` makes one band a side; `hstack` puts its operands' column
    bands side by side.  The per-piece sequences are lists: tuples of a
    dozen ints would fill the interpreter's tuple free lists, which hold
    their memory until a full garbage collection.
    """

    kinds: tuple
    which: list
    rows: tuple
    cols: tuple


class Mat:
    """An immutable nrows x ncols matrix, stored as the nonzeros of each row.

    `lines[i]` holds row i's nonzero entries as (column, value) pairs in
    increasing column order.  `rows` is the dense view, built on first use
    with `zero` in the gaps; ncols survives even with no rows.  A block sum
    leaves the `lines` slot empty until it is first read (`__getattr__`).
    """

    __slots__ = ("lines", "nrows", "ncols", "zero", "_rows", "_blocks")

    def __init__(self, rows: Iterable[Iterable[object]], ncols: Optional[int] = None):
        rs = tuple([tuple(r) for r in rows])
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged matrix rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} disagrees with row width {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        lines = tuple(tuple([(j, x) for j, x in enumerate(r) if x]) for r in rs)
        _fill(self, lines, len(lines), ncols, rs[0][0] - rs[0][0] if rs and ncols else None, None)
        _set_rows(self, rs)

    def __getattr__(self, name):
        # reached only for an empty slot: the lines of a block sum, not yet read
        if name != "lines":
            raise AttributeError(name)
        lines = _assemble(self._blocks, self.nrows)
        _set_lines(self, lines)
        return lines

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @property
    def rows(self) -> tuple:
        """The dense rows, as a tuple of tuples."""
        if self._rows is None:
            zero, n = self.zero, self.ncols
            _set_rows(self, tuple([tuple(_dense(line, n, zero)) for line in self.lines]))
        return self._rows

    @classmethod
    def identity(cls, ring, n: int) -> "Mat":
        return _mat(ring.zero, tuple([((i, ring.one),) for i in range(n)]), n)

    def map_entries(self, fn: Callable[[object], object]) -> "Mat":
        """fn applied to every nonzero entry; entries it sends to zero drop out.

        fn is additive (a ring map or a multiplication), so fn(zero) is the
        zero of the new entries.
        """
        zero = None if self.zero is None else fn(self.zero)
        b = self._blocks
        if b is not None:
            pieces = _each(lambda p: p.map_entries(fn), b)
            return _block_sum(zero, *pieces, b.rows, b.cols, (self.nrows, self.ncols))
        lines = tuple(
            [tuple([(j, y) for j, y in [(j, fn(x)) for j, x in line] if y]) for line in self.lines]
        )
        return _mat(zero, lines, self.ncols)

    def split_rows(self, k: int) -> tuple["Mat", "Mat"]:
        """The first k rows and the remaining rows, as two matrices."""
        zero, b = self.zero, self._blocks
        if b is not None:
            at = 0
            for cut, band in enumerate(b.rows[:-1], 1):
                at += sum(band)
                if at == k:  # between two bands: each piece splits at its own row
                    keys, which = _grouped(list(zip(b.which, map(sum, zip(*b.rows[:cut])))))
                    top, bottom = zip(*(b.kinds[j].split_rows(h) for j, h in keys))
                    rest = (self.nrows - k, self.ncols)
                    return (
                        _block_sum(zero, top, which, b.rows[:cut], b.cols, (k, self.ncols)),
                        _block_sum(zero, bottom, which, b.rows[cut:], b.cols, rest),
                    )
        lines, ncols = self.lines, self.ncols
        return _mat(zero, lines[:k], ncols), _mat(zero, lines[k:], ncols)

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Mat) and self.lines == other.lines and self.ncols == other.ncols
        )

    def __hash__(self) -> int:
        return hash((self.lines, self.ncols))

    def __repr__(self) -> str:
        return f"Mat({[list(r) for r in self.rows]!r}, ncols={self.ncols})"


_set_lines, _set_nrows, _set_ncols, _set_zero, _set_rows, _set_blocks = (
    getattr(Mat, name).__set__ for name in Mat.__slots__
)


def _dense(line: tuple, n: int, zero) -> list:
    """A line as a dense list of length n, with zero in the gaps."""
    row = [zero] * n
    for j, x in line:
        row[j] = x
    return row


def _fill(m: Mat, lines, nrows: int, ncols: int, zero, blocks) -> None:
    if lines is not None:
        _set_lines(m, lines)
    _set_nrows(m, nrows)
    _set_ncols(m, ncols)
    _set_zero(m, zero)
    _set_rows(m, None)
    _set_blocks(m, blocks)


def _mat(zero, lines: tuple, ncols: int) -> Mat:
    """Trusted constructor: `lines` is a tuple of lines as `Mat.lines` holds them.

    `zero` is the ring's zero, for the dense view.
    """
    m = object.__new__(Mat)
    _fill(m, lines, len(lines), ncols, zero, None)
    return m


def _block_sum(zero, kinds, which: list, rows: tuple, cols: tuple, shape: tuple) -> Mat:
    """Trusted constructor of a recorded block sum; its lines wait for a reader."""
    m = object.__new__(Mat)
    _fill(m, None, shape[0], shape[1], zero, _Blocks(tuple(kinds), which, rows, cols))
    return m


def _grouped(keys: list) -> tuple:
    """The distinct keys in order of first appearance, and each key's index among them."""
    index = dict.fromkeys(keys)
    for i, key in enumerate(index):
        index[key] = i
    return list(index), list(map(index.__getitem__, keys))


def _each(fn: Callable, *recs: _Blocks) -> tuple:
    """(kinds, which) of fn applied to the aligned pieces of records.

    fn runs once per distinct tuple of piece kinds.
    """
    which = recs[0].which
    if all(r.which == which for r in recs[1:]):
        return [fn(*ps) for ps in zip(*(r.kinds for r in recs))], which
    keys, which = _grouped(list(zip(*(r.which for r in recs))))
    return [fn(*(r.kinds[j] for r, j in zip(recs, key))) for key in keys], which


def _diagonal_lines(pieces: list) -> tuple:
    """The lines and the width of the block sum of pieces, each piece's columns shifted."""
    lines: list = []
    at = 0
    for p in pieces:
        lines += [tuple([(j + at, x) for j, x in line]) for line in p.lines] if at else p.lines
        at += p.ncols
    return tuple(lines), at


def _index_maps(bands: tuple, count: int) -> list:
    """For each piece, the matrix index of each of its own indices, in order."""
    maps: list = [[] for _ in range(count)]
    at = 0
    for band in bands:
        for indices, size in zip(maps, band):
            indices += range(at, at + size)
            at += size
    return maps


def _assemble(b: _Blocks, nrows: int) -> tuple:
    """The lines of a recorded block sum: each piece's lines at its rows and columns."""
    pieces = list(map(b.kinds.__getitem__, b.which))
    if len(b.rows) == len(b.cols) == 1:
        return _diagonal_lines(pieces)[0]
    lines: list = [()] * nrows
    count = len(pieces)
    for p, rmap, cmap in zip(pieces, _index_maps(b.rows, count), _index_maps(b.cols, count)):
        for i, line in zip(rmap, p.lines):
            if line:
                lines[i] = tuple([(cmap[j], x) for j, x in line])
    return tuple(lines)


def hstack(*mats: Mat) -> Mat:
    if not mats:
        raise ValueError("hstack of nothing")
    n = mats[0].nrows
    if any(m.nrows != n for m in mats):
        raise ValueError("hstack: row counts differ")
    zero = next((m.zero for m in mats if m.zero is not None), None)
    offsets, ncols = [], 0
    for m in mats:
        offsets.append(ncols)
        ncols += m.ncols
    rec = mats[0]._blocks
    if rec is not None:
        recs = [m._blocks for m in mats]
        if all(r is not None and r.rows == rec.rows for r in recs):  # rows line up piece by piece
            cols = sum((r.cols for r in recs), ())
            return _block_sum(zero, *_each(hstack, *recs), rec.rows, cols, (n, ncols))
    lines = tuple([
        tuple([(j + off, x) for m, off in zip(mats, offsets) for j, x in m.lines[i]])
        for i in range(n)
    ])
    return _mat(zero, lines, ncols)


# A carried operation costs about what a plain one costs on four pieces, plus
# two pieces' worth per distinct piece, so a block sum records its pieces only
# when it has at least this many more than twice its distinct pieces.
_FEW_PIECES = 4


def block_diag(ring, *mats: Mat) -> Mat:
    """The block sum of mats, recording its pieces; a block sum among mats gives its own.

    Callers pass `*[...]`, not `*(... for ...)`: a generator's tuple is made
    at length 10 and resized, and the resized tuples fill the interpreter's
    tuple free lists, which only a full garbage collection empties.
    """
    pieces: list = []
    for m in mats:
        b = m._blocks
        if b is None:
            pieces.append(m)
        elif len(b.rows) == len(b.cols) == 1:
            pieces += map(b.kinds.__getitem__, b.which)
        else:  # stacked parts: a piece of its own, and pieces have no record
            pieces.append(_mat(m.zero, m.lines, m.ncols))
    ids, which = _grouped(list(map(id, pieces)))
    if len(pieces) >= 2 * len(ids) + _FEW_PIECES:
        kinds = list(map(dict(zip(map(id, pieces), pieces)).__getitem__, ids))
        rows = list(map([p.nrows for p in kinds].__getitem__, which))
        cols = list(map([p.ncols for p in kinds].__getitem__, which))
        return _block_sum(ring.zero, kinds, which, (rows,), (cols,), (sum(rows), sum(cols)))
    return _mat(ring.zero, *_diagonal_lines(pieces))


def mat_mul(ring, a: Mat, b: Mat) -> Mat:
    """a @ b from nonzero products; each entry adds its terms in the order of the inner index."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} times {b.nrows}x{b.ncols}")
    ra, rb = a._blocks, b._blocks
    if ra is not None and rb is not None and ra.cols == rb.rows:  # inner indices line up
        pieces = _each(lambda x, y: mat_mul(ring, x, y), ra, rb)
        return _block_sum(ring.zero, *pieces, ra.rows, rb.cols, (a.nrows, b.ncols))
    blines = b.lines
    out = []
    for line in a.lines:
        acc: dict = {}
        for k, x in line:
            for j, y in blines[k]:
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append(tuple([(j, acc[j]) for j in sorted(acc) if acc[j]]))
    return _mat(ring.zero, tuple(out), b.ncols)


def zip_entries(ring, fn: Callable[[object, object], object], a: Mat, b: Mat) -> Mat:
    """fn(a_ij, b_ij) wherever a or b has a nonzero; results that are zero drop out.

    The entry missing from one side is read as that matrix's zero, and the
    result is a matrix over `ring`.
    """
    shape = (a.nrows, a.ncols)
    if (b.nrows, b.ncols) != shape:
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} and {b.nrows}x{b.ncols}")
    ra, rb = a._blocks, b._blocks
    if ra is not None and rb is not None and ra.rows == rb.rows and ra.cols == rb.cols:
        pieces = _each(lambda x, y: zip_entries(ring, fn, x, y), ra, rb)
        return _block_sum(ring.zero, *pieces, ra.rows, ra.cols, shape)
    za, zb = a.zero, b.zero
    lines = []
    for la, lb in zip(a.lines, b.lines):
        x, y = dict(la), dict(lb)
        line = [(j, fn(x.get(j, za), y.get(j, zb))) for j in sorted(x.keys() | y.keys())]
        lines.append(tuple([(j, z) for j, z in line if z]))
    return _mat(ring.zero, tuple(lines), a.ncols)


def first_nonzero(m: Mat) -> Optional[tuple]:
    """(row, column, value) of the first nonzero entry in row order; None for a zero matrix."""
    b = m._blocks
    if b is not None and not any(any(p.lines) for p in b.kinds):
        return None
    return next(((i,) + line[0] for i, line in enumerate(m.lines) if line), None)


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D with D diagonal, d1 | d2 | ..., and unit-determinant U, V.

    D itself is not stored: it is `diagonal` (length min(nrows, ncols),
    trailing zeros included) placed on the main diagonal of a zero matrix.
    U or V is None when the caller asked not to accumulate it.  Diagonal
    entries are canonical associates; `invariant_factors` keeps the nonunit
    ones (trailing zeros included).
    """

    u: Optional[Mat]
    v: Optional[Mat]
    diagonal: tuple
    rank: int
    unit_count: int
    invariant_factors: tuple


def _smith_block(
    ring,
    m: Mat,
    with_u: bool,
    with_v: bool,
    cancel: Optional[Callable[[], bool]],
) -> tuple:
    """The dense elimination of m: one connected block, or the whole matrix for transforms.

    Returns (pivots, U rows, V columns): the nonzero diagonal entries in
    order, and the transforms as lists of dense lines (None when not
    accumulated).  V is kept by columns, so a column operation is a line
    operation on it.

    One loop per pivot position s: the smallest nonzero entry of the
    remaining block moves to (s, s); column s, then row s, is cleared entry
    by entry, and a nonzero remainder, smaller than the pivot, swaps into
    (s, s) and that pass starts over.  Once both are clear, a nonunit pivot
    that fails to divide an entry of the remaining block takes that entry's
    row added to row s, and the loop goes on.  The pivots therefore form a
    chain d_1 | d_2 | ..., units first.
    """
    R, C = m.nrows, m.ncols
    d = [_dense(line, C, ring.zero) for line in m.lines]
    u = [[ring.one if i == j else ring.zero for j in range(R)] for i in range(R)] if with_u else None
    vt = [[ring.one if i == j else ring.zero for j in range(C)] for i in range(C)] if with_v else None

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in d:
            row[i], row[j] = row[j], row[i]
        if vt is not None:
            vt[i], vt[j] = vt[j], vt[i]

    def row_sub(i: int, j: int, q) -> None:
        # row_i -= q * row_j, skipping the zeros of row_j
        if q:
            d[i] = [x - q * y if y else x for x, y in zip(d[i], d[j])]
            if u is not None:
                u[i] = [x - q * y if y else x for x, y in zip(u[i], u[j])]

    def col_sub(i: int, j: int, q) -> None:
        # col_i -= q * col_j, skipping the zeros of col_j
        if q:
            for row in d:
                if row[j]:
                    row[i] = row[i] - q * row[j]
            if vt is not None:
                vt[i] = [x - q * y if y else x for x, y in zip(vt[i], vt[j])]

    unit_size = ring.size(ring.one)
    pivots = []
    for s in range(min(R, C)):
        # the pivot: the smallest nonzero entry left, the first in row order among equals
        live = [(ring.size(x), i, j) for i in range(s, R) for j, x in enumerate(d[i][s:], s) if x]
        if not live:
            break
        _, i, j = min(live)
        swap_rows(i, s)
        if j != s:
            swap_cols(j, s)
        while True:
            if cancel is not None and cancel():
                raise SmithCancelled()
            i = s + 1
            while i < R:  # clear column s
                if d[i][s]:
                    row_sub(i, s, divmod(d[i][s], d[s][s])[0])
                    if d[i][s]:  # a smaller remainder: it becomes the pivot, and the pass restarts
                        swap_rows(i, s)
                        i = s
                i += 1
            j = s + 1
            while j < C:  # clear row s the same way
                if d[s][j]:
                    col_sub(j, s, divmod(d[s][j], d[s][s])[0])
                    if d[s][j]:
                        swap_cols(j, s)
                        j = s
                j += 1
            if any(d[i][s] for i in range(s + 1, R)):  # a column swap refilled column s
                continue
            # a nonunit pivot must divide the rest of the block; a unit divides everything
            piv = d[s][s]
            rest = range(s + 1, R) if ring.size(piv) != unit_size else ()
            bad = next((i for i in rest if any(x and divmod(x, piv)[1] for x in d[i][s:])), None)
            if bad is None:
                break
            row_sub(s, bad, -ring.one)  # row_s += row_bad, and clear again
        pivot, unit = ring.canonical(d[s][s])
        if u is not None and unit != ring.one:
            u[s] = [unit * x for x in u[s]]
        pivots.append(pivot)
    return tuple(pivots), u, vt


def _split_blocks(m: Mat):
    """Connected components of the nonzero pattern, rows joined to columns by union-find.

    Each block is (rows, cols) in increasing index order; a zero row is a 1x0
    block and a zero column a 0x1 block.  Blocks with rows come in order of
    their first row, then the zero columns.
    """
    R = m.nrows
    parent = list(range(R + m.ncols))  # a root is the least index of its component

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, line in enumerate(m.lines):
        a = find(i)
        for j, _ in line:
            b = find(R + j)
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = a = b
    comps: dict = {}
    for k in range(len(parent)):
        # parent[k] <= k, and every smaller index already points at its root
        root = parent[k] = parent[parent[k]]
        rows, cols = comps.setdefault(root, ([], []))
        if k < R:
            rows.append(k)
        else:
            cols.append(k - R)
    return list(comps.values())


def _nonzeros(lines: list) -> tuple:
    """Dense lines as (index, value) pairs of their nonzeros."""
    return tuple([tuple([(k, x) for k, x in enumerate(line) if x]) for line in lines])


# The most entries one memo table holds.  A piece entry is a whole matrix
# with its kernel: 2 to 3 KB on the property suites' and kernels-witness's
# matrices, about 10 KB on the witness's Z[w] span matrices.  A cap of 1,024
# would keep all of kernels-witness's 485 to 537 Q[t^±1] pieces (seeds 1-3,
# 600 requests), and 55 s benchmark runs then read 11-12% more peak RSS than
# a memo that keeps no whole matrices.  At 384 a full table of those pieces
# holds about 1 MB, and the largest other tables stay whole: bound-sums' 220
# to 240 chains (seeds 1-10) and the 287 blocks over Z of `properties`.
_MEMO_CAP = 384


class _Table(dict):
    """A memo table: a new key that would take it past `_MEMO_CAP` empties it first."""

    def __setitem__(self, key, value):
        if len(self) >= _MEMO_CAP and key not in self:
            self.clear()
        dict.__setitem__(self, key, value)


# ring tag -> (reduced blocks, reduced pieces, chains, products), for the life of the process
_tables: dict = {}


def _memo(ring) -> tuple:
    """The ring's (reduced blocks, reduced pieces, chains, products)."""
    tables = _tables.get(ring.tag)
    if tables is None:
        tables = _tables[ring.tag] = tuple(_Table() for _ in range(4))
    return tables


def _reduced_blocks(ring, m: Mat, cancel, reduced: dict):
    """Each connected block of m with its elimination, in `_split_blocks` order.

    Yields (rows, cols, pivots, V columns), V as sparse block-local lines.
    Equal blocks are reduced once per memo `reduced` and share their result,
    pivot objects included.
    """
    zero, lines = ring.zero, m.lines
    local = [0] * m.ncols  # a column's index inside its block
    for rows, cols in _split_blocks(m):
        for p, j in enumerate(cols):
            local[j] = p
        key = tuple([tuple([(local[j], x) for j, x in lines[i]]) for i in rows])
        done = reduced.get(key)
        if done is None:
            # rows fix the width: a block without rows is one zero column
            pivots, _, bvt = _smith_block(ring, _mat(zero, key, len(cols)), False, True, cancel)
            done = reduced[key] = pivots, _nonzeros(bvt)
        yield (rows, cols) + done


def _count_pivots(one, runs) -> tuple:
    """(number of unit pivots, ((nonunit pivot, multiplicity), ...)) of (pivots, times) runs."""
    units, counts = 0, {}
    for pivots, k in runs:
        for x in pivots:
            if x == one:
                units += k
            else:
                counts[x] = counts.get(x, 0) + k
    return units, tuple(counts.items())


def _piece(ring, p: Mat, tables: tuple, cancel) -> tuple:
    """A piece's (pivots, kernel, zero columns), from one reduction of its blocks; once per memo.

    The pivots are the blocks' in block order; the kernel's columns are each
    block's non-pivot V columns embedded at the block's columns, in block
    order; the zero columns are the blocks without rows.
    """
    done = tables[1].get(p)
    if done is None:
        pivots, kernel, zero_cols = [], [], []
        for rows, cols, block_pivots, bvt in _reduced_blocks(ring, p, cancel, tables[0]):
            pivots += block_pivots
            if not rows:
                zero_cols.append(cols[0])
            kernel += [tuple([(cols[k], x) for k, x in line]) for line in bvt[len(block_pivots):]]
        kernel = _by_rows(ring.zero, kernel, p.ncols)
        done = tables[1][p] = tuple(pivots), kernel, tuple(zero_cols)
    return done


def _pivot_counts(ring, m: Mat, tables: tuple, cancel) -> tuple:
    """`_count_pivots` of m's pieces: each distinct piece of a record once, or m itself."""
    b = m._blocks
    pieces = [(m, 1)] if b is None else [(b.kinds[j], k) for j, k in Counter(b.which).items()]
    return _count_pivots(ring.one, [(_piece(ring, p, tables, cancel)[0], k) for p, k in pieces])


def _chain_of_values(ring, units: int, counts: tuple, tables: tuple) -> tuple:
    """The diagonal of `units` units and the nonunit (pivot, multiplicity) `counts`, as runs.

    The diagonal is returned as (value, count) runs in chain order, units
    first.  The nonunit runs are merged once per memo and `counts` tuple.

    Each distinct nonunit x, with multiplicity k, is inserted into the chain
    d_1 | ... | d_n built so far by e_i = lcm(d_{i-k}, gcd(d_i, x)), where
    d_j = 1 for j <= 0 and gcd(d_j, x) = x for j > n.  Prime by prime this
    merges k copies of x's valuation into a sorted list.  The chain is kept as
    runs of equal values, and e_i is constant between the run ends of d and
    those ends shifted by k, so an insertion costs the runs, not n.  Each
    gcd and lcm is taken once per merge.
    """
    chains = tables[2]
    merged = chains.get(counts)
    if merged is None:
        merged = chains[counts] = _merged_runs(ring, counts)
    return ((ring.one, units),) + merged


def _merged_runs(ring, counts: tuple) -> tuple:
    """The nonunit runs of `_chain_of_values`, each gcd and lcm taken once per merge."""
    gcds: dict = {}
    lcms: dict = {}

    def gcd(a, b):
        if (a, b) not in gcds:
            gcds[a, b] = euclid_gcd(ring, a, b)
        return gcds[a, b]

    def lcm(a, b):
        if (a, b) not in lcms:
            lcms[a, b] = ring.canonical(a * divmod(b, gcd(a, b))[0])[0]
        return lcms[a, b]

    runs: list = []  # [value, count] in chain order
    for x, k in counts:
        ends = [0]
        for _, c in runs:
            ends.append(ends[-1] + c)
        n = ends[-1]
        cuts = sorted(set(ends).union(e + k for e in ends))
        out: list = []
        for s, e in zip(cuts, cuts[1:]):
            # positions s+1..e; read d at e and at e - k, which share their runs
            hi = x if e > n else gcd(runs[bisect_left(ends, e) - 1][0], x)
            y = hi if e - k <= 0 else lcm(runs[bisect_left(ends, e - k) - 1][0], hi)
            if out and (out[-1][0] is y or out[-1][0] == y):
                out[-1][1] += e - s
            else:
                out.append([y, e - s])
        runs = out
    return tuple([tuple(run) for run in runs])


def product(ring, values: tuple):
    """The canonical associate of the product of `values`, once per memo and tuple of values."""
    products = _memo(ring)[3]
    done = products.get(values)
    if done is None:
        acc = ring.one
        for x in values:
            acc = acc * x
        done = products[values] = ring.canonical(acc)[0]
    return done


def _by_rows(zero, columns: list, nrows: int) -> Mat:
    """The matrix whose columns are the given sparse lines."""
    rows: list = [[] for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col:
            rows[i].append((j, x))
    return _mat(zero, tuple([tuple(row) for row in rows]), len(columns))


def transpose(m: Mat) -> Mat:
    b = m._blocks
    if b is not None:
        return _block_sum(m.zero, *_each(transpose, b), b.cols, b.rows, (m.ncols, m.nrows))
    return _by_rows(m.zero, m.lines, m.ncols)


def smith_normal_form(
    ring,
    m: Mat,
    with_u: bool = True,
    with_v: bool = True,
    cancel: Optional[Callable[[], bool]] = None,
) -> SmithDecomposition:
    R, C = m.nrows, m.ncols
    zero, one = ring.zero, ring.one
    if with_u or with_v:
        diag, u, vt = _smith_block(ring, m, with_u, with_v, cancel)
        runs = [(x, 1) for x in diag]
    else:
        tables = _memo(ring)
        runs = _chain_of_values(ring, *_pivot_counts(ring, m, tables, cancel), tables)
        u = vt = None
    diag = []
    for x, c in runs:
        diag += [x] * c
    # a chain puts its units first, and a canonical unit is `one`
    units = sum(c for x, c in runs if x == one)
    diagonal = tuple(diag) + (zero,) * (min(R, C) - len(diag))
    return SmithDecomposition(
        u=_mat(zero, _nonzeros(u), R) if with_u else None,
        v=_by_rows(zero, _nonzeros(vt), C) if with_v else None,
        diagonal=diagonal,
        rank=len(diag),
        unit_count=units,
        invariant_factors=diagonal[units:],
    )


def kernel_basis(ring, m: Mat) -> Mat:
    """Columns form a basis of { x : m @ x = 0 }; free because the ring is a PID.

    They are each block's non-pivot V columns, embedded at the block's
    columns, in block order: blocks with rows by their first row, then the
    zero columns.  A sum whose rows are one run of pieces keeps that order
    piece by piece, so its kernel is recorded too: its pieces are the
    pieces' kernels, with the zero columns' unit vectors in bands of their
    own after the rest.
    """
    tables = _memo(ring)
    b = m._blocks
    if b is None or len(b.rows) != 1:
        return _piece(ring, m, tables, None)[1]
    reduced = [_piece(ring, p, tables, None) for p in b.kinds]
    bands = [list(map([k.ncols - len(z) for _, k, z in reduced].__getitem__, b.which))]
    zeros = [reduced[j][2] for j in b.which] if any(z for _, _, z in reduced) else ()
    if zeros:
        starts = [0] * len(zeros)
        for band in b.cols:  # each piece's zero columns that lie in this band
            ends = [s + w for s, w in zip(starts, band)]
            counts = [bisect_left(z, e) - bisect_left(z, s) for z, s, e in zip(zeros, starts, ends)]
            if any(counts):
                bands.append(counts)
            starts = ends
    shape = (m.ncols, sum(map(sum, bands)))
    return _block_sum(ring.zero, [k for _, k, _ in reduced], b.which, b.cols, tuple(bands), shape)
