"""Metabelian (Eisenstein) obstructions for satellite ribbon discs.

The abelian story evaluates t at a primitive cube root w, turning Alexander
modules into Z[w]-modules: `eisenstein_alexander` is the presentation that
`knots.alexander_presentation` builds straight over Z[w].  For a metabelian
representation twisted by a character chi into Z/3, the closed-form
structure theory used here is:

* for the trivial character the twisted homology is M ⊕ conj(M) of the
  abelian specialization (`one_oplus_bar`);
* for a satellite R_eta(J) with winding number 0 and eta generating A(R),
  a summand with nonzero character component contributes the base-disc part
  (the same module for either disc choice) plus A_xi(J) ⊕ conj(A_xi(J));
* for J = J0 # -J0 with its two standard discs, A(J) = A(J0) ⊕ A(J0) with
  the disc-one map i0 ⊕ i0 and the disc-two map (x, y) -> x + y, so the
  disc-one kernel is ker(i0) ⊕ ker(i0) and the disc-two kernel is the
  antidiagonal.

Only these structural facts are used; no chain-level twisted homology of a
group presentation is ever computed.

A scenario holds discs, never knots: each `SurgeryDisc` carries the knot it
bounds, so a disc cannot be paired with a foreign knot.  A kernel pair is the
tuple (disc-one kernel, disc-two kernel) of submodules of one ambient module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisError, SchemaError
from .knots import (
    SeifertKnot,
    SurgeryDisc,
    alexander_module_Q,
    alexander_presentation,
    antidiagonal_columns,
    branched_double_cover,
    disc_kernel_Q,
    disc_quotient_Q,
)
from .linalg import Mat, block_diag, rref_mod_p
from .modules import (
    PresentedModule,
    Submodule,
    direct_sum,
    kernel_pair,
    quotient_of_submodules,
)
from .rings import EISENSTEIN


def eisenstein_alexander(knot: SeifertKnot) -> PresentedModule:
    """The Alexander presentation at t = w, over Z[w]; the matrix is the one the knot keeps."""
    return PresentedModule(EISENSTEIN, alexander_presentation(knot, EISENSTEIN))


def conjugate_module(module: PresentedModule) -> PresentedModule:
    if module.ring is not EISENSTEIN:
        raise ValueError("conjugation is an Eisenstein-module operation")
    return PresentedModule(EISENSTEIN, module.relations.map_entries(lambda x: x.conj()))


def one_oplus_bar(module: PresentedModule) -> PresentedModule:
    """M ⊕ conj(M): twisted homology of the diagonal (abelian) representation."""
    return direct_sum(EISENSTEIN, module, conjugate_module(module))


def metabelian_obstruction(d0: SurgeryDisc):
    """A_xi(J0) / (disc kernel) for a disc d0 of J0, and whether it is nonzero.

    A nonzero quotient is the obstruction fueling the lower bound machine.
    """
    quotient = disc_quotient_Q(d0, eisenstein_alexander(d0.knot))
    return quotient, not quotient.is_zero_module()


@dataclass(frozen=True)
class Character:
    """A homomorphism H_1(double branched cover) -> Z/3, one component per copy."""

    values: tuple

    def __post_init__(self):
        if any(v not in (0, 1, 2) for v in self.values):
            raise SchemaError("character values must be mod-3 residues", f"got {self.values}")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def m_nonzero(self) -> int:
        return sum(1 for v in self.values if v != 0)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.values) + "]"


@dataclass(frozen=True)
class SatelliteScenario:
    """N copies of the satellite R_eta(J), J = J0 # -J0, with two disc choices.

    The base knot R is `base_disc.knot`.  eta is carried as its class, which
    must generate the base Alexander module (checked over Q[t^±1] and Z[w]);
    its winding number is zero, which the structural kernel splitting needs.
    The base knot needs a finite double branched cover with 3-torsion so that
    Z/3 characters exist.

    The companion J = J0 # -J0, with J0 = `companion_disc.knot`, has its two
    standard slice discs, handled structurally.  Disc one is the boundary
    connect sum of `companion_disc` with its mirror; disc two is the spun
    (deform) disc.  On Alexander modules, with A(J) = A(J0) ⊕ A(J0): disc one
    induces i0 ⊕ i0 and disc two induces (x, y) -> x + y.
    """

    base_disc: SurgeryDisc
    eta_class: tuple
    companion_disc: SurgeryDisc
    copies: int

    def __post_init__(self):
        if self.copies < 0:
            raise SchemaError("copies must be nonnegative", f"got {self.copies}")
        base = self.base_disc.knot
        aq = alexander_module_Q(base)
        if aq.generating_rank > 1:
            raise SchemaError(
                "base Alexander module not cyclic",
                f"generating rank {aq.generating_rank} for {base.name!r}",
            )
        for ambient in (aq, eisenstein_alexander(base)):
            eta = ambient.submodule_from_int_columns([self.eta_class])
            if not ambient.quotient_by(eta.generators).is_zero_module():
                raise SchemaError(
                    "eta must generate the base Alexander module",
                    f"class {self.eta_class} does not generate over {ambient.ring.name}",
                )
        cover = branched_double_cover(base)
        if cover.free_rank > 0:
            raise SchemaError(
                "base double branched cover must be finite",
                f"free rank {cover.free_rank} for {base.name!r}",
            )
        if not any(d % 3 == 0 for d in cover.torsion_invariants):
            raise SchemaError(
                "base double branched cover has no 3-torsion",
                f"invariant factors {list(cover.torsion_invariants)}",
            )


def character_space_dimension(scenario: SatelliteScenario) -> int:
    """dim_F3 Hom(H_1 of the N-fold cover, Z/3) = N * (3-divisible invariant factors)."""
    cover = branched_double_cover(scenario.base_disc.knot)
    per_copy = sum(1 for d in cover.torsion_invariants if d % 3 == 0)
    return scenario.copies * per_copy


def character_selection(n: int, constraints) -> Character:
    """A character vanishing on every constraint with at least n - m nonzero slots.

    The solution space basis is put in reduced echelon form, so the sum of
    the basis is nonzero at every pivot: its support is at least the
    dimension, which is at least n - m.  A greedy pass, which only accepts
    moves that raise the support, then pushes it higher.
    """
    rows = [list(c) for c in constraints]
    m = len(rows)
    if m > n:
        raise SchemaError("too many constraints", f"{m} constraints in dimension {n}")
    if any(len(r) != n for r in rows):
        raise SchemaError("constraint has wrong length", f"expected vectors of length {n}")
    # the solution space: per free column f, 1 at f and -x at each pivot whose row has x at f
    solutions: dict = {f: [] for f in range(n)}
    for line in rref_mod_p([list(enumerate(r)) for r in rows], 3):
        del solutions[line[0][0]]
        for f, x in line[1:]:
            solutions[f].append((line[0][0], -x % 3))
    reduced = rref_mod_p([v + [(f, 1)] for f, v in solutions.items()], 3)
    basis = [[row.get(j, 0) for j in range(n)] for row in map(dict, reduced)]

    def support(vec: list[int]) -> int:
        return sum(1 for x in vec if x % 3 != 0)

    chi = [0] * n
    for b in basis:
        chi = [(a + x) % 3 for a, x in zip(chi, b)]
    improved = True
    while improved:
        improved = False
        for b in basis:
            for coeff in (1, 2):
                cand = [(a + coeff * x) % 3 for a, x in zip(chi, b)]
                if support(cand) > support(chi):
                    chi = cand
                    improved = True
    return Character(tuple(chi))


def satellite_kernel_pair(scenario: SatelliteScenario, chi: Character) -> tuple:
    """Both disc-choice kernels (k1, k2) of the satellite, assembled slot by slot.

    The two are submodules of one twisted-homology module.  Summands with a
    nonzero character component contribute the (disc independent) base part
    plus the companion block; zero components contribute the untwisted base
    kernel, identical for both choices.
    """
    if len(chi) != scenario.copies:
        raise SchemaError(
            "character length mismatch",
            f"character {chi} for {scenario.copies} copies",
        )
    ring = EISENSTEIN
    base_xi = eisenstein_alexander(scenario.base_disc.knot)
    base_kernel = disc_kernel_Q(scenario.base_disc, base_xi)

    # base part carried by a twisted summand: same submodule either way
    carrier = one_oplus_bar(base_kernel.presentation)
    carrier_all = Mat.identity(ring, carrier.ngens)

    # untwisted block: A_xi(R) ⊕ conj, kernel = base disc classes in both halves
    untwisted = one_oplus_bar(base_xi)
    half_cols = base_kernel.generators
    untwisted_kernel_cols = block_diag(ring, half_cols, half_cols)

    # companion block: (A ⊕ A ⊕ conj A ⊕ conj A) for A = A_xi(J0)
    comp_xi = eisenstein_alexander(scenario.companion_disc.knot)
    comp_cols = disc_kernel_Q(scenario.companion_disc, comp_xi).generators
    comp_block = one_oplus_bar(direct_sum(ring, comp_xi, comp_xi))
    comp_k1 = block_diag(ring, comp_cols, comp_cols, comp_cols, comp_cols)
    anti = antidiagonal_columns(ring, comp_xi.ngens)
    comp_k2 = block_diag(ring, anti, anti)

    twisted = [(carrier, carrier_all, carrier_all), (comp_block, comp_k1, comp_k2)]
    plain = [(untwisted, untwisted_kernel_cols, untwisted_kernel_cols)]
    return kernel_pair(ring, [slot for v in chi.values for slot in (twisted if v else plain)])


def kernel_pair_quotient(pair: tuple) -> PresentedModule:
    """ker(disc two) / (ker(disc one) ∩ ker(disc two)): the bound's witness module."""
    k1, k2 = pair
    return quotient_of_submodules(k2, k1)


def theorem_C_lower_bound(scenario: SatelliteScenario) -> int:
    """Least h with 2h >= N - 2h, once the obstruction hypotheses hold.

    With h 1-handles, a character orthogonal to the extension constraints
    survives with at least N - 2h nonzero components; each contributes a
    nonzero obstruction block, and the handle count bounds the quotient's
    generating rank by 2h.  Hence 2h >= N - 2h, i.e. h >= ceil(N / 4).
    """
    _, nonzero = metabelian_obstruction(scenario.companion_disc)
    if not nonzero:
        raise HypothesisError(
            "obstruction vanishes",
            f"A_xi({scenario.companion_disc.knot.name}) / disc kernel is zero",
        )
    cover = branched_double_cover(scenario.base_disc.knot)
    kern = disc_kernel_Q(scenario.base_disc, cover)
    ring = cover.ring
    three_h1 = Submodule(
        cover, Mat.identity(ring, cover.ngens).map_entries(lambda x: 3 * x)
    )
    if not three_h1.contains(kern):
        raise HypothesisError(
            "branched kernel not contained in 3*H1",
            "characters need not vanish on the disc kernel, so they may not extend",
        )
    return (scenario.copies + 3) // 4
