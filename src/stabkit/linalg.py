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

The Smith pass is the classic elimination: pick the smallest-size nonzero
entry as pivot (ties broken by row-then-column position, so output is
deterministic), clear its column and row by Euclidean division, patch any
divisibility failure in the remaining block by a row addition, and normalize
each finished pivot by the unit u that `ring.canonical` returns with its
associate (U's row is scaled by u too).  Every diagonal entry is therefore
canonical, and a unit on the diagonal is exactly `ring.one`.  Transforms U
and V are accumulated from elementary operations only, so their
determinants are units.

Direct sums make most large inputs block-diagonal up to a permutation of rows
and columns, so without transforms the elimination runs, densely, on each
connected component of the nonzero pattern (union-find over the stored
nonzeros), and equal blocks are reduced once per command (`_reduced_blocks`):
while `cli.main` runs a command, one memo per ring holds every block already
reduced and every gcd and lcm the chain merge took, so the many Smith calls
of one request on the same summands share them.  A library call outside a
command keeps a memo of its own, which ends with the call.
Both block readers do only the work their callers use:

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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .rings import euclid_gcd


class SmithCancelled(Exception):
    """Raised when a cooperative cancellation callback asks to stop."""


class Mat:
    """An immutable nrows x ncols matrix, stored as the nonzeros of each row.

    `lines[i]` holds row i's nonzero entries as (column, value) pairs in
    increasing column order.  `rows` is the dense view, built on first use
    with `zero` in the gaps; ncols survives even with no rows.
    """

    __slots__ = ("lines", "nrows", "ncols", "zero", "_rows")

    def __init__(self, rows: Iterable[Iterable[object]], ncols: Optional[int] = None):
        rs = tuple(tuple(r) for r in rows)
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
        _fill(self, lines, ncols, rs[0][0] - rs[0][0] if rs and ncols else None, rs)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @property
    def rows(self) -> tuple:
        """The dense rows, as a tuple of tuples."""
        if self._rows is None:
            dense = []
            for line in self.lines:
                row = [self.zero] * self.ncols
                for j, x in line:
                    row[j] = x
                dense.append(tuple(row))
            _set_rows(self, tuple(dense))
        return self._rows

    @classmethod
    def identity(cls, ring, n: int) -> "Mat":
        return _mat(ring.zero, tuple([((i, ring.one),) for i in range(n)]), n)

    def map_entries(self, fn: Callable[[object], object]) -> "Mat":
        """fn applied to every nonzero entry; entries it sends to zero drop out.

        fn is additive (a ring map or a multiplication), so fn(zero) is the
        zero of the new entries.
        """
        lines = tuple(
            tuple([(j, y) for j, y in [(j, fn(x)) for j, x in line] if y]) for line in self.lines
        )
        return _mat(None if self.zero is None else fn(self.zero), lines, self.ncols)

    def split_rows(self, k: int) -> tuple["Mat", "Mat"]:
        """The first k rows and the remaining rows, as two matrices."""
        zero, lines, ncols = self.zero, self.lines, self.ncols
        return _mat(zero, lines[:k], ncols), _mat(zero, lines[k:], ncols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mat) and self.lines == other.lines and self.ncols == other.ncols

    def __hash__(self) -> int:
        return hash((self.lines, self.ncols))

    def __repr__(self) -> str:
        return f"Mat({[list(r) for r in self.rows]!r}, ncols={self.ncols})"


_SETTERS = tuple(getattr(Mat, name).__set__ for name in Mat.__slots__)
_set_rows = _SETTERS[-1]


def _fill(m: Mat, lines: tuple, ncols: int, zero, rows: Optional[tuple]) -> None:
    for setter, value in zip(_SETTERS, (lines, len(lines), ncols, zero, rows)):
        setter(m, value)


def _mat(zero, lines: tuple, ncols: int) -> Mat:
    """Trusted constructor: `lines` is a tuple of lines as `Mat.lines` holds them.

    `zero` is the ring's zero, for the dense view.
    """
    m = object.__new__(Mat)
    _fill(m, lines, ncols, zero, None)
    return m


def hstack(*mats: Mat) -> Mat:
    if not mats:
        raise ValueError("hstack of nothing")
    n = mats[0].nrows
    if any(m.nrows != n for m in mats):
        raise ValueError("hstack: row counts differ")
    offsets, ncols = [], 0
    for m in mats:
        offsets.append(ncols)
        ncols += m.ncols
    lines = tuple(
        tuple([(j + off, x) for m, off in zip(mats, offsets) for j, x in m.lines[i]])
        for i in range(n)
    )
    return _mat(next((m.zero for m in mats if m.zero is not None), None), lines, ncols)


def block_diag(ring, *mats: Mat) -> Mat:
    lines: list = []
    c0 = 0
    for m in mats:
        lines += m.lines if c0 == 0 else [tuple([(j + c0, x) for j, x in ln]) for ln in m.lines]
        c0 += m.ncols
    return _mat(ring.zero, tuple(lines), c0)


def mat_mul(ring, a: Mat, b: Mat) -> Mat:
    """a @ b from nonzero products; each entry adds its terms in the order of the inner index."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} times {b.nrows}x{b.ncols}")
    blines = b.lines
    out = []
    for line in a.lines:
        acc: dict = {}
        for k, x in line:
            for j, y in blines[k]:
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append(tuple([(j, acc[j]) for j in sorted(acc) if acc[j]]))
    return _mat(ring.zero, tuple(out), b.ncols)


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
    operation on it.  The divisibility patch makes the pivots a chain
    d_1 | d_2 | ..., so units come first.
    """
    R, C = m.nrows, m.ncols
    d = [[ring.zero] * C for _ in range(R)]
    for row, line in zip(d, m.lines):
        for j, x in line:
            row[j] = x
    u = [[ring.one if i == j else ring.zero for j in range(R)] for i in range(R)] if with_u else None
    vt = [[ring.one if i == j else ring.zero for j in range(C)] for i in range(C)] if with_v else None

    def tick() -> None:
        if cancel is not None and cancel():
            raise SmithCancelled()

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
        # row_i -= q * row_j
        if not q:
            return
        d[i] = [d[i][k] - q * d[j][k] for k in range(C)]
        if u is not None:
            u[i] = [u[i][k] - q * u[j][k] for k in range(R)]

    def col_sub(i: int, j: int, q) -> None:
        # col_i -= q * col_j
        if not q:
            return
        for row in d:
            row[i] = row[i] - q * row[j]
        if vt is not None:
            vt[i] = [x - q * y for x, y in zip(vt[i], vt[j])]

    def find_pivot(s: int):
        best = None
        for i in range(s, R):
            di = d[i]
            for j in range(s, C):
                x = di[j]
                if x:
                    sz = ring.size(x)
                    if best is None or sz < best[0]:
                        best = (sz, i, j)
        return best

    def clear_pivot(s: int) -> None:
        """Zero out column s below and row s right of the pivot."""
        while True:
            tick()
            # column pass: reduce, promoting any smaller remainder to the pivot
            i = s + 1
            while i < R:
                if not d[i][s]:
                    i += 1
                    continue
                q, _ = divmod(d[i][s], d[s][s])
                row_sub(i, s, q)
                if not d[i][s]:
                    i += 1
                else:
                    swap_rows(i, s)  # strictly smaller pivot; restart the pass
                    i = s + 1
            # row pass: same on columns; a swap dirties the cleared column
            dirtied = False
            j = s + 1
            while j < C:
                if not d[s][j]:
                    j += 1
                    continue
                q, _ = divmod(d[s][j], d[s][s])
                col_sub(j, s, q)
                if not d[s][j]:
                    j += 1
                else:
                    swap_cols(j, s)
                    dirtied = True
                    j = s + 1
            if not dirtied and not any(d[i][s] for i in range(s + 1, R)):
                return

    steps = min(R, C)
    s = 0
    while s < steps:
        tick()
        best = find_pivot(s)
        if best is None:
            break
        _, pi, pj = best
        if pi != s:
            swap_rows(pi, s)
        if pj != s:
            swap_cols(pj, s)
        clear_pivot(s)
        # divisibility patch: the pivot must divide the remaining block
        patched = True
        while patched:
            patched = False
            piv = d[s][s]
            for i in range(s + 1, R):
                row = d[i]
                for j in range(s + 1, C):
                    if not row[j]:
                        continue
                    _, r = divmod(row[j], piv)
                    if r:
                        row_sub(s, i, -ring.one)  # row_s += row_i
                        clear_pivot(s)
                        patched = True
                        break
                if patched:
                    break
        # normalize the pivot to its canonical associate; the rest of row s is zero
        d[s][s], unit = ring.canonical(d[s][s])
        if u is not None and unit != ring.one:
            u[s] = [unit * x for x in u[s]]
        s += 1

    return tuple(d[i][i] for i in range(s)), u, vt


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


def _sparse(lines: list) -> list:
    """Dense lines as (index, value) pairs of their nonzeros."""
    return [tuple([(k, x) for k, x in enumerate(line) if x]) for line in lines]


# ring tag -> (reduced blocks, gcds, lcms) while a command runs, else None
_command_tables: Optional[dict] = None


@contextmanager
def _command_memo():
    """Share the block and gcd/lcm memos among the Smith calls of one command.

    `cli.main` opens it around a command.  A nested command (`verify` runs
    `main`) gets a memo of its own, and the outer one is back when it ends.
    """
    global _command_tables
    outer, _command_tables = _command_tables, {}
    try:
        yield
    finally:
        _command_tables = outer


def _memo(ring) -> tuple:
    """(reduced blocks, gcds, lcms) of the open command, or fresh ones for this call."""
    if _command_tables is None:
        return {}, {}, {}
    return _command_tables.setdefault(ring.tag, ({}, {}, {}))


def _reduced_blocks(ring, m: Mat, with_v: bool, cancel):
    """Each connected block of m with its elimination, in `_split_blocks` order.

    Yields (cols, pivots, V columns), V as sparse block-local lines (None when
    not accumulated).  Equal blocks are reduced once per command, or once per
    call outside one, and share their result, pivot objects included.  A block
    first reduced without V is reduced again, once, when V is asked for.
    """
    zero = ring.zero
    local = [0] * m.ncols  # a column's index inside its block
    reduced = _memo(ring)[0]  # block lines -> (pivots, V columns or None)
    for rows, cols in _split_blocks(m):
        for p, j in enumerate(cols):
            local[j] = p
        key = tuple(tuple([(local[j], x) for j, x in m.lines[i]]) for i in rows)
        done = reduced.get(key)
        if done is None or with_v and done[1] is None:
            # rows fix the width: a block without rows is one zero column
            pivots, _, bvt = _smith_block(ring, _mat(zero, key, len(cols)), False, with_v, cancel)
            done = reduced[key] = pivots, _sparse(bvt) if with_v else None
        yield (cols,) + done


def _chain_of_values(ring, blocks) -> list:
    """The diagonal of the blocks' pivots, units first, then the invariant factors.

    Each distinct nonunit x, with multiplicity k, is inserted into the chain
    d_1 | ... | d_n built so far by e_i = lcm(d_{i-k}, gcd(d_i, x)), where
    d_j = 1 for j <= 0 and gcd(d_j, x) = x for j > n.  Prime by prime this
    merges k copies of x's valuation into a sorted list.  The chain is kept as
    runs of equal values, and e_i is constant between the run ends of d and
    those ends shifted by k, so an insertion costs the runs, not n.  Each
    gcd and lcm is taken once per command, or once per call outside one.
    """
    one, units, counts = ring.one, 0, {}
    for _, pivots, _ in blocks:
        for x in pivots:
            if x == one:
                units += 1
            else:
                counts[x] = counts.get(x, 0) + 1
    _, gcds, lcms = _memo(ring)

    def gcd(a, b):
        if (a, b) not in gcds:
            gcds[a, b] = euclid_gcd(ring, a, b)
        return gcds[a, b]

    def lcm(a, b):
        if (a, b) not in lcms:
            lcms[a, b] = ring.canonical(a * divmod(b, gcd(a, b))[0])[0]
        return lcms[a, b]

    runs: list = []  # [value, count] in chain order
    for x, k in counts.items():
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
    return [one] * units + [y for y, c in runs for _ in range(c)]


def _by_rows(zero, columns: list, nrows: int) -> Mat:
    """The matrix whose columns are the given sparse lines."""
    rows: list = [[] for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col:
            rows[i].append((j, x))
    return _mat(zero, tuple(map(tuple, rows)), len(columns))


def transpose(m: Mat) -> Mat:
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
    else:
        diag, u, vt = _chain_of_values(ring, _reduced_blocks(ring, m, False, cancel)), None, None
    diagonal = tuple(diag) + (zero,) * (min(R, C) - len(diag))
    return SmithDecomposition(
        u=_mat(zero, tuple(_sparse(u)), R) if with_u else None,
        v=_by_rows(zero, _sparse(vt), C) if with_v else None,
        diagonal=diagonal,
        rank=len(diag),
        unit_count=diagonal.count(one),
        invariant_factors=tuple(x for x in diagonal if x != one),
    )


def kernel_basis(ring, m: Mat) -> Mat:
    """Columns form a basis of { x : m @ x = 0 }; free because the ring is a PID.

    They are each block's non-pivot V columns, embedded at the block's
    columns, in block order.
    """
    kernel = []
    for cols, pivots, bvt in _reduced_blocks(ring, m, True, None):
        kernel += [tuple([(cols[k], x) for k, x in line]) for line in bvt[len(pivots):]]
    return _by_rows(ring.zero, kernel, m.ncols)
