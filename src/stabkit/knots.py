"""Seifert-matrix knots, surgery discs, and their Alexander-module kernels.

A knot enters as a Seifert matrix V (2g x 2g, det(V - V^T) = 1).  Its
Alexander module is presented by t*V - V^T over Z[t^±1]; base-changing to
Q[t^±1] makes it a module over a PID.

A ribbon disc is recorded by the surface curves surgered to produce it: g
pairwise 0-framed curves spanning a direct summand of H_1 of the surface.
Pushing a curve c off the surface gives the module element V^T c, and the
kernel of inclusion into the disc exterior is the submodule those classes
generate.  The branched double cover story is the same presentation at
t = -1, i.e. coker(V + V^T) up to sign.

Connected sums are block-diagonal and mostly zero, so no check here does
dense arithmetic: every matrix is built from the nonzero entries of V and of
the curves, det(V - V^T) is the product of its Smith diagonal, which reduces
each distinct summand block once, and the 0-framing check pairs a curve only
with the curves that share a coordinate with (V + V^T) times it.

2-knots appear as doubles of discs: the module of the double is the cokernel
of x -> (q(x), -q(x)) into two copies of the disc module, where q kills the
disc kernel.  Local 2-knot connected sums are bookkeeping only; they change
no kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress

from .errors import SchemaError
from .linalg import Mat, _mat, smith_normal_form
from .modules import ModuleMap, PresentedModule, Submodule, direct_sum
from .rings import (
    EISENSTEIN,
    INTEGERS,
    LAURENT,
    LaurentPolyQ,
    specialize_t,
)


@dataclass(frozen=True)
class SeifertKnot:
    name: str
    seifert: tuple  # 2g x 2g integer rows

    def __post_init__(self):
        v = self.seifert
        n = len(v)
        if any(len(row) != n for row in v):
            raise SchemaError("seifert matrix not square", f"rows of {self.name!r} have mixed lengths")
        if n % 2 != 0:
            raise SchemaError("seifert matrix not even-sized", f"{self.name!r} has size {n}")
        # V - V^T is skew-symmetric, so det = Pf^2 >= 0: exactly the product of
        # its invariant factors, not only up to sign.
        entries = _entries(v)
        skew = _int_mat(n, n, entries + [(j, i, -x) for i, j, x in entries])
        d = 1
        for x in smith_normal_form(INTEGERS, skew, with_u=False, with_v=False).diagonal:
            d *= x
        if d != 1:
            raise SchemaError(
                "seifert pairing not unimodular", f"det(V - V^T) = {d} for {self.name!r}"
            )

    @classmethod
    def from_rows(cls, name: str, rows) -> "SeifertKnot":
        return cls(name, tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def genus(self) -> int:
        return len(self.seifert) // 2


def connected_sum(*knots: SeifertKnot) -> SeifertKnot:
    if not knots:
        raise ValueError("connected sum of nothing")
    if len(knots) == 1:
        return knots[0]
    name = "#".join(k.name for k in knots)
    size = sum(len(k.seifert) for k in knots)
    rows = []
    off = 0
    for k in knots:
        n = len(k.seifert)
        rows += [(0,) * off + tuple(row) + (0,) * (size - off - n) for row in k.seifert]
        off += n
    return SeifertKnot(name, tuple(rows))


def alexander_presentation(knot: SeifertKnot) -> Mat:
    """t*V - V^T as a matrix of Laurent polynomials with integer coefficients."""
    v = knot.seifert
    support: list = [set() for _ in v]  # (i, j) is nonzero iff V or V^T is there
    for i, j, _ in _entries(v):
        support[i].add(j)
        support[j].add(i)
    lines = tuple(
        tuple([(j, LaurentPolyQ({1: v[i][j], 0: -v[j][i]})) for j in sorted(cols)])
        for i, cols in enumerate(support)
    )
    return _mat(LAURENT.zero, lines, len(v))


def alexander_module_Q(knot: SeifertKnot) -> PresentedModule:
    return PresentedModule(LAURENT.tag, len(knot.seifert), alexander_presentation(knot))


def alexander_polynomial(knot: SeifertKnot) -> LaurentPolyQ:
    """The order of the rational Alexander module, canonical."""
    return alexander_module_Q(knot).order()


def _nonzeros(vector) -> list:
    """The (index, value) pairs of the nonzero coordinates of an integer vector."""
    return [(i, vector[i]) for i in compress(range(len(vector)), vector)]


def _entries(rows) -> list:
    """The (i, j, value) nonzero entries of an integer matrix, row by row."""
    return [(i, j, x) for i, row in enumerate(rows) for j, x in _nonzeros(row)]


def _int_mat(nrows: int, ncols: int, entries) -> Mat:
    """The integer matrix summing the given (i, j, value) entries; cancelled ones drop out."""
    acc: list = [{} for _ in range(nrows)]
    for i, j, x in entries:
        acc[i][j] = acc[i].get(j, 0) + x
    return _mat(0, tuple(tuple([(j, r[j]) for j in sorted(r) if r[j]]) for r in acc), ncols)


def curve_class(knot: SeifertKnot, curve) -> tuple:
    """Module coordinates of a pushed-off surface curve: V^T times the curve."""
    v = knot.seifert
    n = len(v)
    c = tuple(map(int, curve))
    if len(c) != n:
        raise SchemaError("curve has wrong length", f"expected {n} coordinates, got {len(c)}")
    out = [0] * n
    for i, ci in _nonzeros(c):
        for j, x in _nonzeros(v[i]):
            out[j] += x * ci
    return tuple(out)


@dataclass(frozen=True)
class SurgeryDisc:
    """A ribbon disc induced by surgery on half a basis of surface curves.

    `curves` lists g integer vectors of length 2g.  `local_2knots` counts
    decorative connected sums of locally knotted 2-spheres; they do not
    change any module computed here.
    """

    knot: SeifertKnot
    name: str
    curves: tuple
    local_2knots: int = 0

    def __post_init__(self):
        g = self.knot.genus
        n = 2 * g
        if len(self.curves) != g:
            raise SchemaError(
                "curve count must equal genus",
                f"disc {self.name!r} has {len(self.curves)} curves on a genus {g} surface",
            )
        if any(len(c) != n for c in self.curves):
            raise SchemaError(
                "curve has wrong length",
                f"disc {self.name!r} needs vectors of length {n}",
            )
        entries = _entries(self.knot.seifert)
        sym = _int_mat(n, n, entries + [(j, i, x) for i, j, x in entries]).lines
        support = [_nonzeros(c) for c in self.curves]
        holders: list = [[] for _ in range(n)]  # coordinate -> (curve, value) pairs
        for j, cj in enumerate(support):
            for l, b in cj:
                holders[l].append((j, b))
        # c_i^T(V+V^T)c_j is w . c_j for w = (V+V^T) c_i, so only curves that
        # share a coordinate with w can pair nontrivially with c_i
        for i, ci in enumerate(support):
            w: dict = {}
            for k, a in ci:
                for l, x in sym[k]:
                    w[l] = w.get(l, 0) + a * x
            vals: dict = {}
            for l, x in w.items():
                for j, b in holders[l]:
                    vals[j] = vals.get(j, 0) + x * b
            bad = [j for j, val in vals.items() if val]
            if bad:
                j = min(bad)
                raise SchemaError(
                    "curves not 0-framed",
                    f"c^T(V+V^T)c = {vals[j]} at ({i + 1},{j + 1})",
                )
        if g > 0:
            cmat = _int_mat(n, g, [(i, k, x) for k, ck in enumerate(support) for i, x in ck])
            dec = smith_normal_form(INTEGERS, cmat, with_u=False, with_v=False)
            if dec.unit_count != g:
                raise SchemaError(
                    "curves not a direct summand",
                    f"invariant factors {list(dec.diagonal)} are not all units",
                )

    @classmethod
    def from_rows(cls, knot: SeifertKnot, name: str, curves) -> "SurgeryDisc":
        return cls(knot, name, tuple(tuple(int(x) for x in c) for c in curves))

    def signature(self) -> tuple:
        """Identity of the disc up to local 2-knot decorations."""
        return (self.knot.name, self.knot.seifert, self.curves)

    def class_columns(self) -> list[tuple]:
        return [curve_class(self.knot, c) for c in self.curves]


def check_disc_for(disc: SurgeryDisc, knot: SeifertKnot) -> None:
    """Raise SchemaError unless `disc` is a slice disc for `knot`."""
    if disc.knot != knot:
        raise SchemaError(
            "disc/knot mismatch", f"disc {disc.name!r} is not a disc for {knot.name!r}"
        )


def add_local_2knot(disc: SurgeryDisc) -> SurgeryDisc:
    """Connected-sum a locally knotted 2-sphere onto the disc: bookkeeping only."""
    return replace(disc, local_2knots=disc.local_2knots + 1)


def boundary_connect_sum(*discs: SurgeryDisc, knot: SeifertKnot = None) -> SurgeryDisc:
    """The disc sum, a disc for the connected sum of the discs' knots in order.

    A caller that already holds that connected sum passes it as `knot`, so it
    is not built and validated again.
    """
    if not discs:
        raise ValueError("boundary connect sum of nothing")
    if len(discs) == 1:
        return discs[0]
    if knot is None:
        knot = connected_sum(*(d.knot for d in discs))
    n = 2 * knot.genus
    curves: list[tuple] = []
    off = 0
    for d in discs:
        dn = 2 * d.knot.genus
        for c in d.curves:
            curves.append((0,) * off + tuple(c) + (0,) * (n - off - dn))
        off += dn
    return SurgeryDisc(
        knot,
        "&".join(d.name for d in discs),
        tuple(curves),
        sum(d.local_2knots for d in discs),
    )


def disc_kernel_Q(disc: SurgeryDisc, ambient: PresentedModule = None) -> Submodule:
    """ker(A_Q(K) -> A_Q(D)): the submodule the surgery curve classes generate."""
    if ambient is None:
        ambient = alexander_module_Q(disc.knot)
    return ambient.submodule_from_int_columns(disc.class_columns())


def disc_quotient_Q(disc: SurgeryDisc) -> PresentedModule:
    """A_Q(D) itself: the Alexander module modulo the disc kernel."""
    ambient = alexander_module_Q(disc.knot)
    return ambient.quotient_by(disc_kernel_Q(disc, ambient).generators)


def specialize_presentation(pres: Mat, target) -> Mat:
    return pres.map_entries(lambda p: specialize_t(p, target))


def specialize_module(pres: Mat, target) -> PresentedModule:
    """Base-change an integral presentation along t -> -1 or t -> xi3."""
    if target == "minus_one":
        return PresentedModule(INTEGERS.tag, pres.nrows, specialize_presentation(pres, target))
    if target == "xi3":
        return PresentedModule(EISENSTEIN.tag, pres.nrows, specialize_presentation(pres, target))
    raise ValueError(f"unsupported module specialization target {target!r}")


def branched_double_cover(knot: SeifertKnot) -> PresentedModule:
    """H_1 of the double branched cover: the t = -1 specialization, coker(V + V^T)."""
    return specialize_module(alexander_presentation(knot), "minus_one")


def disc_branched_kernel(disc: SurgeryDisc, ambient: PresentedModule = None) -> Submodule:
    if ambient is None:
        ambient = branched_double_cover(disc.knot)
    return ambient.submodule_from_int_columns(disc.class_columns())


@dataclass(frozen=True)
class TwoKnotModel:
    """A 2-knot obtained as a connected sum of doubles of ribbon discs.

    `module` is the rational Alexander module of the 2-knot; it is always the
    direct sum of the per-summand double modules.
    """

    summands: tuple
    module: PresentedModule

    @classmethod
    def unknotted(cls) -> "TwoKnotModel":
        return cls((), PresentedModule(LAURENT.tag, 0, Mat([], 0)))

    @property
    def generating_rank(self) -> int:
        return self.module.generating_rank


def antidiagonal_columns(ring, n: int) -> Mat:
    """The 2n x n matrix with columns (e_i, -e_i): it spans { (x, -x) } in a double."""
    minus_one = -ring.one
    lines = tuple([((i, ring.one),) for i in range(n)] + [((i, minus_one),) for i in range(n)])
    return _mat(ring.zero, lines, n)


def double_of_disc(disc: SurgeryDisc) -> TwoKnotModel:
    """The 2-knot doubling the disc: coker(A_Q(K) -> A_Q(D)^2, x -> (q(x), -q(x)))."""
    ambient = alexander_module_Q(disc.knot)
    quotient = disc_quotient_Q(disc)
    target = direct_sum(quotient, quotient)
    matrix = antidiagonal_columns(ambient.ring, ambient.ngens)
    ModuleMap(ambient, target, matrix)  # raises unless the map is well defined
    return TwoKnotModel((disc,), target.quotient_by(matrix))


def two_knot_sum(*models: TwoKnotModel) -> TwoKnotModel:
    if not models:
        return TwoKnotModel.unknotted()
    if len(models) == 1:
        return models[0]
    return TwoKnotModel(
        sum((m.summands for m in models), ()),
        direct_sum(*(m.module for m in models)),
    )
