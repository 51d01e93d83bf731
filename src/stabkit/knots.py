"""Seifert-matrix knots, surgery discs, and their Alexander-module kernels.

A knot enters as a Seifert matrix V (2g x 2g, det(V - V^T) = 1).  Its
Alexander module is presented by t*V - V^T over Z[t^±1]; base-changing to
Q[t^±1] makes it a module over a PID.  `alexander_presentation` is the one
place where t is given a value: it builds t*V - V^T straight into the ring
asked for, one entry x*t - y per nonzero pair (V_ij, V_ji): over Q[t^±1]
itself, over Z at t = -1 (the double branched cover, coker(V + V^T) up to
sign), or over Z[w] at t = w (the metabelian twist).

A ribbon disc is recorded by the surface curves surgered to produce it: g
pairwise 0-framed curves spanning a direct summand of H_1 of the surface.
Pushing a curve c off the surface gives the module element V^T c, and the
kernel of inclusion into the disc exterior is the submodule those classes
generate, over whichever of the three rings the module is.

V and the curves are integer `linalg.Mat`s, which store only their nonzeros:
V itself, and the 2g x g matrix C whose columns are the curves.  The
constructors also take dense integer rows (catalog data, say) and convert
them once; an entry whose type is not `int` raises TypeError.  Connected sums
and boundary sums are then `block_diag`s, which record their summand blocks,
and every matrix built from them here keeps that record: V^T and the curve
classes V^T C, t*V - V^T over each ring, and the three checks a sum must pass
-- det(V - V^T) = 1, the product of its Smith diagonal; the 0-framing
C^T (V + V^T) C = 0; and C a direct summand, all of its Smith diagonal units.
So every check still runs on every sum, but blockwise: each distinct summand
block is built, multiplied and reduced once, and a sum of n copies of one
knot costs what one copy costs plus a pass over the n block records.

2-knots appear as doubles of discs: the module of the double is the cokernel
of x -> (q(x), -q(x)) into two copies of the disc module, where q kills the
disc kernel.  That map is well defined by construction, and the double
proves it with a lift: A(D) is A(K) modulo the curve classes, presented by
[L | V^T C] where L = t*V - V^T presents A(K), so the image (L; -L) of A(K)'s
relations is column k of L taken once in the first copy and negated in the
second.  `ModuleMap` checks that lift with two products.  Local 2-knot
connected sums are bookkeeping only; they change no kernel.

The objects are frozen, so what they derive is derived once per object, on
first use: a knot keeps V^T, V + V^T and t*V - V^T over each ring it was
asked for; a disc keeps V^T C over each ring and the relations of its
double, whose lift is checked when they are built.  Catalog entries live for
the process, so every request that names them reuses these matrices; a sum
a request builds dies with the request, and what it kept with it.

A connected sum or boundary sum keeps the knots or discs it was built from
(`summands`, nested sums opened; it takes no part in equality), and its
t*V - V^T and V^T C over a ring are the block sums of its summands' kept
matrices, not products of its own V and C.  So every entry of a sum's
matrices is the very object its summand holds, a catalog entry's for every
CLI request: its hash is cached and it equals itself by identity, so the
Smith memo finds the blocks of a sum a request built without hashing or
comparing new polynomials.  Every check a sum must pass still runs on the
whole sum when it is built.

Matrices are kept, never modules: a `PresentedModule` or `Submodule` keeps
its Smith form and kernel once computed, so keeping one would carry that
work from one request into the next.  Every call builds its modules afresh
around the kept matrices, and the Smith forms and kernels a request runs
depend on that request alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import SchemaError
from .linalg import (
    Mat,
    _mat,
    block_diag,
    first_nonzero,
    mat_mul,
    smith_normal_form,
    transpose,
    zip_entries,
)
from .modules import ModuleMap, PresentedModule, Submodule, direct_sum
from .rings import EISENSTEIN, INTEGERS, LAURENT, EisensteinInt, LaurentPolyQ


def _int_mat(rows, ncols: int) -> Mat:
    """Dense integer rows as a Mat; an entry whose type is not `int` raises TypeError."""
    return Mat([[INTEGERS.from_int(x) for x in r] for r in rows], ncols)


@dataclass(frozen=True)
class SeifertKnot:
    name: str
    seifert: Mat  # 2g x 2g integer matrix; given as dense rows, it is converted
    # the knots a connected sum was built from, set by `connected_sum`; () otherwise
    summands: tuple = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        v = self.seifert
        if not isinstance(v, Mat):
            if any(len(row) != len(v) for row in v):
                raise SchemaError("seifert matrix not square", f"rows of {self.name!r} have mixed lengths")
            v = _int_mat(v, len(v))
            object.__setattr__(self, "seifert", v)
        n = v.nrows
        if n % 2 != 0:
            raise SchemaError("seifert matrix not even-sized", f"{self.name!r} has size {n}")
        # V - V^T is skew-symmetric, so det = Pf^2 >= 0: exactly the product of
        # its invariant factors, not only up to sign.
        skew = zip_entries(INTEGERS, operator.sub, v, self.seifert_t)
        d = 1
        for x in smith_normal_form(INTEGERS, skew, with_u=False, with_v=False).diagonal:
            d *= x
        if d != 1:
            raise SchemaError(
                "seifert pairing not unimodular", f"det(V - V^T) = {d} for {self.name!r}"
            )

    @property
    def genus(self) -> int:
        return self.seifert.nrows // 2

    @cached_property
    def seifert_t(self) -> Mat:
        """V^T."""
        return transpose(self.seifert)

    @cached_property
    def seifert_sym(self) -> Mat:
        """V + V^T, the form the disc curves must be 0-framed in."""
        return zip_entries(INTEGERS, operator.add, self.seifert, self.seifert_t)

    @cached_property
    def _presentations(self) -> dict:
        """ring -> t*V - V^T over it, filled by `alexander_presentation`."""
        return {}


def connected_sum(*knots: SeifertKnot) -> SeifertKnot:
    if not knots:
        raise ValueError("connected sum of nothing")
    if len(knots) == 1:
        return knots[0]
    name = "#".join(k.name for k in knots)
    knot = SeifertKnot(name, block_diag(INTEGERS, *[k.seifert for k in knots]))
    object.__setattr__(knot, "summands", _leaves(knots))
    return knot


def _leaves(parts: tuple) -> tuple:
    """The knots or discs that sums of `parts` were built from, nested sums opened."""
    return tuple([x for p in parts for x in p.summands or (p,)])


# The (i, j) entry x*t - y of t*V - V^T, for x = V_ij and y = V_ji, keyed by
# the ring it lands in: t itself, t = -1, or t = w (EisensteinInt(a, b) = a + b*w).
_T_TIMES_X_MINUS_Y = {
    LAURENT: lambda x, y: LaurentPolyQ({1: x, 0: -y}),
    INTEGERS: lambda x, y: -x - y,
    EISENSTEIN: lambda x, y: EisensteinInt(-y, x),
}


def alexander_presentation(knot: SeifertKnot, ring=LAURENT) -> Mat:
    """t*V - V^T over Q[t^±1], or evaluated at t = -1 (ring INTEGERS) or t = w (EISENSTEIN).

    Built once per knot and ring; later calls return the same matrix.  A
    connected sum's is the block sum of its summands' own.
    """
    kept = knot._presentations
    if ring not in kept:
        if knot.summands:
            kept[ring] = block_diag(ring, *[alexander_presentation(k, ring) for k in knot.summands])
        else:
            kept[ring] = zip_entries(ring, _T_TIMES_X_MINUS_Y[ring], knot.seifert, knot.seifert_t)
    return kept[ring]


def alexander_module_Q(knot: SeifertKnot) -> PresentedModule:
    return PresentedModule(LAURENT, alexander_presentation(knot))


def branched_double_cover(knot: SeifertKnot) -> PresentedModule:
    """H_1 of the double branched cover: t*V - V^T at t = -1, i.e. coker(V + V^T)."""
    return PresentedModule(INTEGERS, alexander_presentation(knot, INTEGERS))


def curve_class(knot: SeifertKnot, curve) -> tuple:
    """Module coordinates of a pushed-off surface curve: V^T c, computed as the row c^T V."""
    n = knot.seifert.nrows
    if len(curve) != n:
        raise SchemaError("curve has wrong length", f"expected {n} coordinates, got {len(curve)}")
    return mat_mul(INTEGERS, _int_mat([curve], n), knot.seifert).rows[0]


@dataclass(frozen=True)
class SurgeryDisc:
    """A ribbon disc induced by surgery on half a basis of surface curves.

    `curves` is the 2g x g integer matrix whose columns are the g curves;
    given as g dense integer vectors of length 2g, it is converted.
    `local_2knots` counts decorative connected sums of locally knotted
    2-spheres; they do not change any module computed here.
    """

    knot: SeifertKnot
    name: str
    curves: Mat
    local_2knots: int = 0
    # the discs a boundary sum was built from, set by `boundary_connect_sum`; () otherwise
    summands: tuple = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        g = self.knot.genus
        n = 2 * g
        c = self.curves
        if not isinstance(c, Mat):
            if len(c) != g:
                raise SchemaError(
                    "curve count must equal genus",
                    f"disc {self.name!r} has {len(c)} curves on a genus {g} surface",
                )
            if any(len(x) != n for x in c):
                raise SchemaError(
                    "curve has wrong length",
                    f"disc {self.name!r} needs vectors of length {n}",
                )
            c = transpose(_int_mat(c, n))
            object.__setattr__(self, "curves", c)
        sym_c = mat_mul(INTEGERS, self.knot.seifert_sym, c)
        framing = first_nonzero(mat_mul(INTEGERS, transpose(c), sym_c))
        if framing is not None:
            i, j, val = framing
            raise SchemaError("curves not 0-framed", f"c^T(V+V^T)c = {val} at ({i + 1},{j + 1})")
        if g > 0:
            dec = smith_normal_form(INTEGERS, c, with_u=False, with_v=False)
            if dec.unit_count != g:
                raise SchemaError(
                    "curves not a direct summand",
                    f"invariant factors {list(dec.diagonal)} are not all units",
                )

    def signature(self) -> tuple:
        """Identity of the disc up to local 2-knot decorations; orderable."""
        return (self.knot.name, self.knot.seifert.lines, self.curves.lines)

    @cached_property
    def _classes(self) -> dict:
        """ring -> the curve classes V^T C over it, filled by `_curve_classes`."""
        return {}

    @cached_property
    def _double_relations(self) -> Mat:
        """The relations of the double's module, built and certified once (`double_of_disc`)."""
        ambient = alexander_module_Q(self.knot)
        quotient = ambient.quotient_by(disc_kernel_Q(self, ambient).generators)
        target = direct_sum(LAURENT, quotient, quotient)
        n = ambient.ngens
        matrix = antidiagonal_columns(LAURENT, n)
        lift = antidiagonal_columns(LAURENT, n, quotient.relations.ncols)
        ModuleMap(ambient, target, matrix, lift)
        return target.quotient_by(matrix).relations


def add_local_2knot(disc: SurgeryDisc) -> SurgeryDisc:
    """Connected-sum a locally knotted 2-sphere onto the disc: bookkeeping only."""
    decorated = replace(disc, local_2knots=disc.local_2knots + 1)
    object.__setattr__(decorated, "summands", disc.summands)  # `replace` leaves them out
    return decorated


def boundary_connect_sum(*discs: SurgeryDisc, knot: SeifertKnot = None) -> SurgeryDisc:
    """The disc sum, a disc for the connected sum of the discs' knots in order.

    A caller that already holds that connected sum passes it as `knot`, so it
    is not built and validated again; a knot with other summands is a
    ValueError.
    """
    if not discs:
        raise ValueError("boundary connect sum of nothing")
    if len(discs) == 1:
        return discs[0]
    if knot is None:
        knot = connected_sum(*[d.knot for d in discs])
    elif knot.summands != _leaves([d.knot for d in discs]):
        raise ValueError(f"{knot.name!r} is not the connected sum of the discs' knots")
    disc = SurgeryDisc(
        knot,
        "&".join(d.name for d in discs),
        block_diag(INTEGERS, *[d.curves for d in discs]),
        sum(d.local_2knots for d in discs),
    )
    object.__setattr__(disc, "summands", _leaves(discs))
    return disc


def disc_kernel_Q(disc: SurgeryDisc, ambient: PresentedModule = None) -> Submodule:
    """ker(A(K) -> A(D)): the submodule the surgery curve classes, the columns of V^T C, generate.

    `ambient` is the Alexander module of the disc's knot over any of the
    rings, such as `branched_double_cover` at t = -1; by default it is A_Q(K)
    over Q[t^±1].
    """
    if ambient is None:
        ambient = alexander_module_Q(disc.knot)
    return Submodule(ambient, _curve_classes(disc, ambient.ring))


def _curve_classes(disc: SurgeryDisc, ring) -> Mat:
    """V^T C over `ring`, built once per disc and ring.

    A boundary sum's is the block sum of its summands' own.
    """
    kept = disc._classes
    if ring not in kept:
        if disc.summands:
            kept[ring] = block_diag(ring, *[_curve_classes(d, ring) for d in disc.summands])
        else:
            classes = mat_mul(INTEGERS, disc.knot.seifert_t, disc.curves)
            kept[ring] = classes.map_entries(ring.from_int)
    return kept[ring]


def disc_quotient_Q(disc: SurgeryDisc) -> PresentedModule:
    """A_Q(D) itself: the Alexander module modulo the disc kernel."""
    ambient = alexander_module_Q(disc.knot)
    return ambient.quotient_by(disc_kernel_Q(disc, ambient).generators)


@dataclass(frozen=True)
class TwoKnotModel:
    """A 2-knot obtained as a connected sum of doubles of ribbon discs.

    `module` is the rational Alexander module of the 2-knot; it is always the
    direct sum of the per-summand double modules.
    """

    summands: tuple
    module: PresentedModule

    @property
    def generating_rank(self) -> int:
        return self.module.generating_rank


def antidiagonal_columns(ring, n: int, width: int = None) -> Mat:
    """The 2w x n matrix with columns (e_i, -e_i) in R^w + R^w, for w = width or n.

    With w = n its columns span { (x, -x) } in a double.
    """
    pad = [()] * ((n if width is None else width) - n)
    minus_one = -ring.one
    lines = [((i, ring.one),) for i in range(n)] + pad
    lines += [((i, minus_one),) for i in range(n)] + pad
    return _mat(ring.zero, tuple(lines), n)


def double_of_disc(disc: SurgeryDisc) -> TwoKnotModel:
    """The 2-knot doubling the disc: coker(A_Q(K) -> A_Q(D)^2, x -> (q(x), -q(x))).

    A_Q(D) is presented by [L | V^T C], L's columns first, so the map's lift
    sends column k of L to (e_k, -e_k) over the two copies of those columns;
    `ModuleMap` raises unless that lift proves the map well defined.  The
    disc builds those relations and checks the lift once; the module around
    them is new on every call.
    """
    return TwoKnotModel((disc,), PresentedModule(LAURENT, disc._double_relations))


def two_knot_sum(*models: TwoKnotModel) -> TwoKnotModel:
    if len(models) == 1:
        return models[0]
    return TwoKnotModel(
        sum((m.summands for m in models), ()),
        direct_sum(LAURENT, *[m.module for m in models]),
    )
