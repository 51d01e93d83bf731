"""Finitely presented modules over a Euclidean domain, and their calculus.

A module is R^ngens / (column span of `relations`).  It carries its ring R,
the descriptor `INTEGERS`, `LAURENT` or `EISENSTEIN`, and rings compare by
identity; ngens is the number of relation rows, and the direct sum of no
modules is the zero module over its ring.  Submodules are given by
generator columns inside such a quotient, and a kernel pair (two submodules
of one direct sum, `kernel_pair`) by one block of columns per summand.
Their calculus reduces to Smith normal form of block matrices, and to one
kernel per submodule:

* membership of v in span(G) mod span(L) is an isomorphism test,
  R^n / [G | L] ≅ R^n / [G | L | v] (`Submodule.contains_columns`; the zero
  submodule tests v in span(L)).  The natural map between the two is onto,
  and an onto map between isomorphic finitely generated modules over a
  Noetherian ring is injective (Matsumura, Commutative Ring Theory,
  Thm 2.4), so they are isomorphic iff v adds nothing to the span.  This
  costs two Smith normal forms, neither with transforms;
* the defining relations of a submodule are the x-projection of
  ker [G | L] (`Submodule.presentation`, the only kernel computed here);
* a submodule is zero when that presentation is the zero module;
* a pair of submodules costs one kernel, ker [G1 | G2 | L], the presentation
  of their sum: its G1 rows present span(G1) / (span(G1) ∩ span(G2)), its G2
  rows present span(G2) / (span(G1) ∩ span(G2)), and G1 times its G1 rows
  generates the intersection;
* the order of that intersection needs no second kernel: over a PID,
  orders multiply along an exact sequence of torsion modules, and
  0 -> s1 ∩ s2 -> s1 -> s1 / (s1 ∩ s2) -> 0 is exact, so order(s1 ∩ s2) is
  order(s1) / order(s1 / (s1 ∩ s2)) up to a unit (`pair_quotients`, which
  cancels the invariant factors the two share before it multiplies), and
  the intersection is zero exactly when that quotient is a unit.
  Every module here is torsion: A_Q(K) is, because every `SeifertKnot`
  checks det(V - V^T) = 1, so Δ(1) = ±1 ≠ 0, and submodules and quotients
  of a torsion module are torsion.

A map between presented modules (`ModuleMap`) carries its lift, the matrix
that writes each image of a source relation in the target relations.  That
is a certificate of well-definedness, checked by two products and one
comparison, so building a map runs no Smith normal form.

Kernels of matrices over a PID are free, so projecting a kernel basis gives
honest generating sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import (
    Mat,
    SmithDecomposition,
    block_diag,
    hstack,
    kernel_basis,
    mat_mul,
    product,
    smith_normal_form,
    transpose,
)


@dataclass(frozen=True)
class PresentedModule:
    """ring^ngens modulo the column span of `relations` (ngens x nrels)."""

    ring: object  # INTEGERS, LAURENT or EISENSTEIN
    relations: Mat

    @property
    def ngens(self) -> int:
        return self.relations.nrows

    @cached_property
    def _diag_snf(self) -> SmithDecomposition:
        return smith_normal_form(self.ring, self.relations, with_u=False, with_v=False)

    @property
    def generating_rank(self) -> int:
        """Minimal number of generators, by the structure theorem."""
        return self.ngens - self._diag_snf.unit_count

    @property
    def free_rank(self) -> int:
        return self.ngens - self._diag_snf.rank

    @property
    def torsion_invariants(self) -> tuple:
        """Nonunit, nonzero invariant factors in divisibility order."""
        return tuple([x for x in self._diag_snf.invariant_factors if x])

    def order(self):
        """Product of the nonunit invariant factors, canonical; zero iff free rank > 0."""
        if self.free_rank > 0:
            return self.ring.zero
        return product(self.ring, self.torsion_invariants)

    def is_zero_module(self) -> bool:
        return self.generating_rank == 0

    def iso_invariants(self) -> tuple:
        """(free rank, torsion invariant factors): a complete isomorphism invariant."""
        return (self.free_rank, self.torsion_invariants)

    def quotient_by(self, cols: Mat) -> "PresentedModule":
        """This module modulo the span of the given ambient coordinate columns."""
        return PresentedModule(self.ring, hstack(self.relations, cols))

    def submodule_from_int_columns(self, columns) -> "Submodule":
        """The span of integer columns: an integer Mat, or a list of integer vectors."""
        if not isinstance(columns, Mat):
            columns = transpose(Mat(columns, self.ngens))
        return Submodule(self, columns.map_entries(self.ring.from_int))


def modules_isomorphic(m1: PresentedModule, m2: PresentedModule) -> bool:
    return m1.ring is m2.ring and m1.iso_invariants() == m2.iso_invariants()


def direct_sum(ring, *modules: PresentedModule) -> PresentedModule:
    """The block sum of modules over `ring`; of no modules, the zero module."""
    if any(m.ring is not ring for m in modules):
        raise ValueError("direct sum over mixed rings")
    return PresentedModule(ring, block_diag(ring, *[m.relations for m in modules]))


@dataclass(frozen=True)
class Submodule:
    """The span of `generators` columns inside `ambient` (modulo its relations)."""

    ambient: PresentedModule
    generators: Mat

    def __post_init__(self):
        if self.generators.nrows != self.ambient.ngens:
            raise ValueError(
                f"generator columns have {self.generators.nrows} rows in an "
                f"ambient with {self.ambient.ngens} generators"
            )

    @property
    def ring(self):
        return self.ambient.ring

    @cached_property
    def _span_matrix(self) -> Mat:
        return hstack(self.generators, self.ambient.relations)

    @cached_property
    def _span_quotient(self) -> PresentedModule:
        """The ambient modulo this span: R^n / [G | L]."""
        return PresentedModule(self.ring, self._span_matrix)

    def contains_columns(self, cols: Mat) -> bool:
        quotient = self._span_quotient
        return modules_isomorphic(quotient, quotient.quotient_by(cols))

    def contains(self, other: "Submodule") -> bool:
        if other.ambient != self.ambient:
            raise ValueError("submodules live in different ambient modules")
        return self.contains_columns(other.generators)

    def spans_equal(self, other: "Submodule") -> bool:
        return self.contains(other) and other.contains(self)

    def is_zero(self) -> bool:
        """True when every generator already lies in the ambient relations."""
        return self.presentation.is_zero_module()

    def sum(self, other: "Submodule") -> "Submodule":
        if other.ambient != self.ambient:
            raise ValueError("submodules live in different ambient modules")
        return Submodule(self.ambient, hstack(self.generators, other.generators))

    @cached_property
    def presentation(self) -> PresentedModule:
        """Presents this span abstractly: R^m / {x : G x in span(relations)}."""
        m = self.generators.ncols
        rels, _ = kernel_basis(self.ring, self._span_matrix).split_rows(m)
        return PresentedModule(self.ring, rels)

    @property
    def generating_rank(self) -> int:
        return self.presentation.generating_rank

    def order(self):
        return self.presentation.order()


def kernel_pair(ring, slots: list) -> tuple:
    """(k1, k2) in the direct sum of the slots' modules, assembled slot by slot.

    A slot is (module, cols1, cols2), one diagonal block: k1 is generated by
    the block sum of the slots' cols1, and k2 by that of their cols2.
    """
    ambient = direct_sum(ring, *[m for m, _, _ in slots])
    return (
        Submodule(ambient, block_diag(ring, *[c for _, c, _ in slots])),
        Submodule(ambient, block_diag(ring, *[c for _, _, c in slots])),
    )


def relative_quotients(s1: Submodule, s2: Submodule) -> tuple:
    """span(s1) / (s1 ∩ s2) and span(s2) / (s1 ∩ s2), from one kernel.

    The relations of span(s1) + span(s2) are ker [G1 | G2 | L] projected to
    the G1 and G2 coordinates.  x2 is a relation of the second quotient iff
    G2 x2 lies in span [G1 | L], iff x2 is the G2 part of such a kernel
    vector; the same holds for x1.  So the first m1 rows present the first
    quotient and the remaining rows the second.
    """
    m1 = s1.generators.ncols
    top, bottom = s1.sum(s2).presentation.relations.split_rows(m1)
    return PresentedModule(s1.ring, top), PresentedModule(s1.ring, bottom)


def quotient_of_submodules(top: Submodule, bottom: Submodule) -> PresentedModule:
    """Presents span(top) / (span(bottom) ∩ span(top))."""
    return relative_quotients(top, bottom)[0]


def pair_quotients(s1: Submodule, s2: Submodule) -> tuple:
    """(q12, q21, order of span(s1) ∩ span(s2)), from the one kernel of `relative_quotients`.

    0 -> s1 ∩ s2 -> s1 -> q12 -> 0 is exact, so for torsion s1 the order of
    the intersection is order(s1) / order(q12), canonical, and it is the
    ring's one exactly when the intersection is zero.  The invariant factors
    s1 and q12 share cancel before anything is multiplied, and each side's
    product comes from the Smith memo (`linalg.product`).  An s1 that is not
    torsion (order zero) or a division that leaves a remainder is a
    ValueError.
    """
    q12, q21 = relative_quotients(s1, s2)
    ring, whole = s1.ring, s1.presentation
    if whole.free_rank > 0:
        raise ValueError("intersection order of a submodule that is not torsion")
    rest, own = list(q12.torsion_invariants), []
    for x in whole.torsion_invariants:  # a list, not a Counter: hashing fresh polynomials costs more
        if x in rest:
            rest.remove(x)
        else:
            own.append(x)
    quo, rem = divmod(product(ring, tuple(own)), product(ring, tuple(rest)))
    if rem:
        raise ValueError("submodule order is not divisible by its quotient's order")
    return q12, q21, ring.canonical(quo)[0]


def submodule_intersection(s1: Submodule, s2: Submodule) -> Submodule:
    """Generators of span(s1) ∩ span(s2): G1 times the relations of span(s1) / (s1 ∩ s2)."""
    rels = quotient_of_submodules(s1, s2).relations
    return Submodule(s1.ambient, mat_mul(s1.ring, s1.generators, rels))


@dataclass(frozen=True)
class ModuleMap:
    """A homomorphism source -> target given on presentation generators.

    matrix is target.ngens x source.ngens.  The map carries its lift, the
    target.nrels x source.nrels certificate of well-definedness: column k of
    the lift writes the image of source relation k in the target relations,
    matrix * source.relations = target.relations * lift.  Construction checks
    that equation with two products and one comparison; no Smith form runs.
    """

    source: PresentedModule
    target: PresentedModule
    matrix: Mat
    lift: Mat

    def __post_init__(self):
        if self.source.ring is not self.target.ring:
            raise ValueError("map between modules over different rings")
        if self.matrix.nrows != self.target.ngens or self.matrix.ncols != self.source.ngens:
            raise ValueError(
                f"map matrix is {self.matrix.nrows}x{self.matrix.ncols}, expected "
                f"{self.target.ngens}x{self.source.ngens}"
            )
        src, dst = self.source.relations, self.target.relations
        if self.lift.nrows != dst.ncols or self.lift.ncols != src.ncols:
            raise ValueError(
                f"lift is {self.lift.nrows}x{self.lift.ncols}, expected "
                f"{dst.ncols}x{src.ncols}"
            )
        ring = self.source.ring
        if mat_mul(ring, self.matrix, src) != mat_mul(ring, dst, self.lift):
            raise ValueError("matrix does not send source relations into target relations")
