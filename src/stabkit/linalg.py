"""Matrices and Smith normal form over the Euclidean domains in `rings`.

Matrices are immutable tuples of row tuples; every algorithm takes the ring
descriptor explicitly so the same code serves Z, Q[t^±1] and Z[w].  Entries
do their own arithmetic; the descriptor supplies zero, one, sizes and units.

The Smith pass is the classic elimination: pick the smallest-size nonzero
entry as pivot (ties broken by row-then-column position, so output is
deterministic), clear its column and row by Euclidean division, patch any
divisibility failure in the remaining block by a row addition, and normalize
each finished pivot to its canonical associate.  Transforms U and V are
accumulated from elementary operations only, so their determinants are units.

Direct sums make most large inputs block-diagonal up to a permutation of rows
and columns, so `smith_normal_form` first splits the matrix into the connected
components of its nonzero pattern (union-find on rows and columns) and runs
the elimination on each block; equal blocks are reduced once per call.  The
block results are assembled as permuted block-diagonal U and V.  The
concatenated diagonal is not yet a divisibility chain (diag(2, 3) has
invariant factors (1, 6)), so after the units, which go first, the nonunit
entries are merged pairwise by diag(a, b) ~ diag(gcd, lcm) with the unimodular
2x2 moves of `_gcd_lcm_move` (Cohen, A Course in Computational Algebraic
Number Theory, GTM 138, section 2.4).  Zero rows and columns add identity rows
to U and kernel columns to V; the merge never touches those columns, so the
kernel of M is the per-block kernels embedded at their columns.

A decomposition carries the diagonal, not D: D is that diagonal on a zero
matrix of M's shape, and no caller reads the rest of it.  There is no solver
and no separate determinant routine.  Membership in a column span is an
isomorphism test of two quotients in `modules`, which needs no transforms;
for a square matrix the product of the diagonal is det M up to a unit, so a
direct sum costs what its distinct blocks cost.  `knots` checks
det(V - V^T) of a Seifert matrix this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .rings import euclid_xgcd


class SmithCancelled(Exception):
    """Raised when a cooperative cancellation callback asks to stop."""


class Mat:
    """An immutable nrows x ncols matrix; ncols survives even with no rows."""

    __slots__ = ("rows", "nrows", "ncols")

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
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "nrows", len(rs))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def identity(cls, ring, n: int) -> "Mat":
        return cls(
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)], n
        )

    def map_entries(self, fn: Callable[[object], object]) -> "Mat":
        return Mat([[fn(x) for x in row] for row in self.rows], self.ncols)

    def split_rows(self, k: int) -> tuple["Mat", "Mat"]:
        """The first k rows and the remaining rows, as two matrices."""
        return Mat(self.rows[:k], self.ncols), Mat(self.rows[k:], self.ncols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"Mat({[list(r) for r in self.rows]!r}, ncols={self.ncols})"


def hstack(*mats: Mat) -> Mat:
    if not mats:
        raise ValueError("hstack of nothing")
    n = mats[0].nrows
    if any(m.nrows != n for m in mats):
        raise ValueError("hstack: row counts differ")
    ncols = sum(m.ncols for m in mats)
    return Mat([sum((list(m.rows[i]) for m in mats), []) for i in range(n)], ncols)


def block_diag(ring, *mats: Mat) -> Mat:
    nrows = sum(m.nrows for m in mats)
    ncols = sum(m.ncols for m in mats)
    out = [[ring.zero] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.nrows):
            row = out[r0 + i]
            for j in range(m.ncols):
                row[c0 + j] = m.rows[i][j]
        r0 += m.nrows
        c0 += m.ncols
    return Mat(out, ncols)


def mat_mul(ring, a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} times {b.nrows}x{b.ncols}")
    out = []
    for i in range(a.nrows):
        arow = a.rows[i]
        orow = []
        for j in range(b.ncols):
            acc = ring.zero
            for k in range(a.ncols):
                x = arow[k]
                if ring.is_zero(x):
                    continue
                acc = acc + x * b.rows[k][j]
            orow.append(acc)
        out.append(orow)
    return Mat(out, b.ncols)


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
    """The elimination on one connected block; only `smith_normal_form` calls it.

    Returns (pivots, U rows, V columns): the nonzero diagonal entries in
    order, and the transforms as lists of lines (None when not accumulated).
    V is kept by columns, so a column operation is a line operation on it.
    """
    R, C = m.nrows, m.ncols
    d = [list(row) for row in m.rows]
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
        if ring.is_zero(q):
            return
        d[i] = [d[i][k] - q * d[j][k] for k in range(C)]
        if u is not None:
            u[i] = [u[i][k] - q * u[j][k] for k in range(R)]

    def col_sub(i: int, j: int, q) -> None:
        # col_i -= q * col_j
        if ring.is_zero(q):
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
                if not ring.is_zero(x):
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
                if ring.is_zero(d[i][s]):
                    i += 1
                    continue
                q, _ = divmod(d[i][s], d[s][s])
                row_sub(i, s, q)
                if ring.is_zero(d[i][s]):
                    i += 1
                else:
                    swap_rows(i, s)  # strictly smaller pivot; restart the pass
                    i = s + 1
            # row pass: same on columns; a swap dirties the cleared column
            dirtied = False
            j = s + 1
            while j < C:
                if ring.is_zero(d[s][j]):
                    j += 1
                    continue
                q, _ = divmod(d[s][j], d[s][s])
                col_sub(j, s, q)
                if ring.is_zero(d[s][j]):
                    j += 1
                else:
                    swap_cols(j, s)
                    dirtied = True
                    j = s + 1
            if not dirtied and all(ring.is_zero(d[i][s]) for i in range(s + 1, R)):
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
                    if ring.is_zero(row[j]):
                        continue
                    _, r = divmod(row[j], piv)
                    if not ring.is_zero(r):
                        row_sub(s, i, -ring.one)  # row_s += row_i
                        clear_pivot(s)
                        patched = True
                        break
                if patched:
                    break
        # normalize the pivot to its canonical associate
        assoc, unit = ring.canonical(d[s][s])
        if unit != ring.one:
            inv = ring.inv_unit(unit)
            d[s] = [inv * x for x in d[s]]
            if u is not None:
                u[s] = [inv * x for x in u[s]]
        s += 1

    return tuple(d[i][i] for i in range(s)), u, vt


def _split_blocks(ring, m: Mat):
    """Connected components of the nonzero pattern, rows joined to columns by union-find.

    Each block is (rows, cols) in increasing index order; a zero row is a 1x0
    block and a zero column a 0x1 block.  Blocks with rows come in order of
    their first row, then the zero columns.
    """
    R = m.nrows
    parent = list(range(R + m.ncols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    zero, is_zero = ring.zero, ring.is_zero
    for i, row in enumerate(m.rows):
        for j, x in enumerate(row):
            if x is not zero and not is_zero(x):  # most zeros are the ring's own
                a, b = find(i), find(R + j)
                if a != b:
                    parent[max(a, b)] = min(a, b)
    comps: dict = {}
    for k in range(len(parent)):
        rows, cols = comps.setdefault(find(k), ([], []))
        if k < R:
            rows.append(k)
        else:
            cols.append(k - R)
    return list(comps.values())


def _gcd_lcm_move(ring, a, b):
    """The unimodular move taking diag(a, b) to diag(gcd, lcm), or None if a | b.

    With s*a + t*b = g, U' = [[s, t], [-b/g, a/g]] and V' = [[1, -t*b/g],
    [1, s*a/g]] give U' diag(a, b) V' = diag(g, ab/g); the second row of U'
    also carries the unit that makes the lcm canonical.  Each transform is
    returned as the coefficients of (line i, line j) in the new lines i and j.
    """
    if ring.is_zero(divmod(b, a)[1]):
        return None
    g, s, t = euclid_xgcd(ring, a, b)
    ag, bg = divmod(a, g)[0], divmod(b, g)[0]
    lcm, unit = ring.canonical(a * bg)
    inv = ring.inv_unit(unit)
    return g, lcm, ((s, t), (-(inv * bg), inv * ag)), ((ring.one, ring.one), (-(t * bg), s * ag))


def _combine(ring, lines: list, i: int, j: int, coeffs) -> None:
    """Replace lines i, j by the given combinations; positions zero in both stay alone."""
    zero = ring.is_zero
    xs, ys = lines[i], lines[j]
    lines[i], lines[j] = [
        [x if zero(x) and zero(y) else a * x + b * y for x, y in zip(xs, ys)]
        for a, b in coeffs
    ]


def smith_normal_form(
    ring,
    m: Mat,
    with_u: bool = True,
    with_v: bool = True,
    cancel: Optional[Callable[[], bool]] = None,
) -> SmithDecomposition:
    R, C = m.nrows, m.ncols
    blocks = _split_blocks(ring, m)
    reduced: dict = {}  # block rows -> (pivots, U rows, V columns)
    units, nonunits = [], []  # pivot slots: (value, U row, V column), embedded
    u_rest, v_rest = [], []

    def embed(n: int, at: list, values) -> list:
        out = [ring.zero] * n
        for k, x in zip(at, values):
            out[k] = x
        return out

    for rows, cols in blocks:
        key = tuple(tuple(m.rows[i][j] for j in cols) for i in rows)
        if key not in reduced:  # rows fix the width: a block without rows is one zero column
            reduced[key] = _smith_block(ring, Mat(key, len(cols)), with_u, with_v, cancel)
        pivots, bu, bvt = reduced[key]
        for p, x in enumerate(pivots):
            (units if ring.is_unit(x) else nonunits).append((
                x,
                embed(R, rows, bu[p]) if with_u else None,
                embed(C, cols, bvt[p]) if with_v else None,
            ))
        if with_u:
            u_rest += [embed(R, rows, line) for line in bu[len(pivots):]]
        if with_v:
            v_rest += [embed(C, cols, line) for line in bvt[len(pivots):]]

    slots = units + nonunits
    diag = [x for x, _, _ in slots]
    u = [row for _, row, _ in slots] + u_rest if with_u else None
    vt = [col for _, _, col in slots] + v_rest if with_v else None  # V by columns
    # merge the per-block chains: (a, b) -> (gcd, lcm) until d_i | d_j for i < j
    moves: dict = {}
    for i in range(len(units), len(diag)):
        for j in range(i + 1, len(diag)):
            pair = diag[i], diag[j]
            if pair[0] == pair[1]:
                continue
            if pair not in moves:
                moves[pair] = _gcd_lcm_move(ring, *pair)
            if moves[pair] is None:
                continue
            diag[i], diag[j], u_move, v_move = moves[pair]
            if with_u:
                _combine(ring, u, i, j, u_move)
            if with_v:
                _combine(ring, vt, i, j, v_move)

    diagonal = tuple(diag) + (ring.zero,) * (min(R, C) - len(diag))
    return SmithDecomposition(
        u=Mat(u, R) if with_u else None,
        v=Mat(zip(*vt), C) if with_v else None,
        diagonal=diagonal,
        rank=len(diag),
        unit_count=sum(1 for x in diagonal if ring.is_unit(x)),
        invariant_factors=tuple(x for x in diagonal if not ring.is_unit(x)),
    )


def kernel_basis(ring, m: Mat) -> Mat:
    """Columns form a basis of { x : m @ x = 0 }; free because the ring is a PID."""
    dec = smith_normal_form(ring, m, with_u=False, with_v=True)
    return Mat([row[dec.rank:] for row in dec.v.rows], m.ncols - dec.rank)
