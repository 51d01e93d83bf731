"""Lower and upper bounds on stabilization distances between surfaces.

Two quantities are bounded.  d1 counts 1-handle additions needed to relate
two 2-knots; each addition changes the generating rank of the rational
Alexander module by at most one, so |gr - gr| is a lower bound.  d2 counts
tube moves between two slice discs for the same knot; h moves force
gr(ker2 / (ker2 ∩ ker1)) <= 2h on Alexander-module kernels, and the
metabelian refinement runs the same inequality against twisted kernels
selected by a mod-3 character.

Upper bounds are only emitted for constructions with a visible geometric
move: discs obtained by surgery on a common genus-g surface (at most g
tubes) and per-summand satellite disc swaps (one tube per differing
summand).  Anything else reports infinity, rendered as upper = None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import SchemaError
from .knots import (
    SeifertKnot,
    SurgeryDisc,
    TwoKnotModel,
    alexander_module_Q,
    check_disc_for,
    disc_kernel_Q,
)
from .linalg import block_diag
from .metabelian import SatelliteScenario, theorem_C_lower_bound
from .modules import PresentedModule, Submodule, direct_sum, relative_quotients
from .rings import LAURENT

_QUANTITIES = ("d1", "d2", "d2_metabelian")


@dataclass(frozen=True)
class BoundReport:
    """A certified bound: lower <= quantity <= upper (upper None means unknown)."""

    quantity: str
    lower: int
    upper: Optional[int]
    provenance: tuple

    def __post_init__(self):
        if self.quantity not in _QUANTITIES:
            raise SchemaError("unknown quantity", f"got {self.quantity!r}")
        if self.lower < 0:
            raise SchemaError("lower bound must be nonnegative", f"got {self.lower}")
        if self.upper is not None and self.lower > self.upper:
            raise SchemaError(
                "lower bound exceeds upper bound", f"{self.lower} > {self.upper}"
            )

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "lower": self.lower,
            "upper": self.upper if self.upper is not None else "infinity",
            "provenance": list(self.provenance),
        }

    def to_text(self) -> str:
        upper = str(self.upper) if self.upper is not None else "infinity"
        lines = [
            f"quantity: {self.quantity}",
            f"lower:    {self.lower}",
            f"upper:    {upper}",
        ]
        lines.extend(f"  - {p}" for p in self.provenance)
        return "\n".join(lines)


def d1_lower_bound(k1: TwoKnotModel, k2: TwoKnotModel) -> int:
    """|gr - gr|: a 1-handle changes the generating rank by at most one."""
    return abs(k1.generating_rank - k2.generating_rank)


def kernel_quotient_ranks(p1: Submodule, p2: Submodule) -> tuple:
    """gr(p1 / p1∩p2) and gr(p2 / p2∩p1), the two relative kernel quotients."""
    if p1.ambient != p2.ambient:
        raise SchemaError(
            "kernel ambient mismatch", "both kernels must live in one module"
        )
    q12, q21 = relative_quotients(p1, p2)
    return q12.generating_rank, q21.generating_rank


def d2_lower_bound_abelian(p1: Submodule, p2: Submodule) -> int:
    """max gr of the two relative kernel quotients; 0 iff the kernels agree."""
    return max(kernel_quotient_ranks(p1, p2))


def d2_upper_bound(d1: SurgeryDisc, d2: SurgeryDisc) -> Optional[int]:
    """Genus-many tubes connect surgery discs on one surface; None = no bound."""
    if d1.signature() == d2.signature():
        return 0
    if d1.knot == d2.knot:
        return d1.knot.genus
    return None


@dataclass(frozen=True)
class MonotonicityReport:
    gr_before: int
    gr_after: int

    @property
    def drop(self) -> int:
        return self.gr_before - self.gr_after

    @property
    def ok(self) -> bool:
        return 0 <= self.drop <= 1


def stabilization_monotonicity_check(
    module: PresentedModule, cyclic: Submodule
) -> MonotonicityReport:
    """gr can drop by at most one when killing a cyclic submodule."""
    if cyclic.ambient != module:
        raise SchemaError("submodule ambient mismatch", "cyclic must live in module")
    if cyclic.generators.ncols > 1:
        raise SchemaError(
            "submodule must be cyclic", f"{cyclic.generators.ncols} generators given"
        )
    quot = module.quotient_by(cyclic.generators)
    return MonotonicityReport(module.generating_rank, quot.generating_rank)


@dataclass(frozen=True)
class DiscPairScenario:
    """Two slice discs for one knot, compared through their kernel submodules."""

    knot: SeifertKnot
    disc_one: SurgeryDisc
    disc_two: SurgeryDisc

    def __post_init__(self):
        for disc in (self.disc_one, self.disc_two):
            check_disc_for(disc, self.knot)


@dataclass(frozen=True)
class TwoKnotPairScenario:
    """Two 2-knots compared through the generating ranks of their modules."""

    left: TwoKnotModel
    right: TwoKnotModel


def _two_knots_equal(k1: TwoKnotModel, k2: TwoKnotModel) -> bool:
    sig1 = sorted(d.signature() for d in k1.summands)
    sig2 = sorted(d.signature() for d in k2.summands)
    return sig1 == sig2


def _disc_pair_report(s: DiscPairScenario) -> BoundReport:
    ambient = alexander_module_Q(s.knot)
    p1 = disc_kernel_Q(s.disc_one, ambient)
    p2 = disc_kernel_Q(s.disc_two, ambient)
    g12, g21 = kernel_quotient_ranks(p1, p2)
    lower = max(g12, g21)
    upper = d2_upper_bound(s.disc_one, s.disc_two)
    prov = [
        "kernel quotient bound: h tube moves force gr(ker/ker∩ker) <= h "
        f"in both directions; computed ranks {g12} and {g21}",
    ]
    if upper == 0:
        prov.append("identical surgery data up to local 2-knots: upper bound 0")
    elif upper is not None:
        prov.append(
            f"both discs arise by surgery on one genus-{s.knot.genus} surface: "
            f"upper bound {upper}"
        )
    else:
        prov.append("no exhibited construction relating the discs: upper unbounded")
    return BoundReport("d2", lower, upper, tuple(prov))


def _two_knot_report(s: TwoKnotPairScenario) -> BoundReport:
    g1 = s.left.generating_rank
    g2 = s.right.generating_rank
    lower = d1_lower_bound(s.left, s.right)
    upper = 0 if _two_knots_equal(s.left, s.right) else None
    prov = [
        f"generating ranks {g1} and {g2}; each 1-handle changes gr by at most 1, "
        f"so d1 >= {lower}",
    ]
    if upper == 0:
        prov.append("identical summand lists: upper bound 0")
    else:
        prov.append("no exhibited handle construction between the 2-knots: upper unbounded")
    return BoundReport("d1", lower, upper, tuple(prov))


def satellite_abelian_kernel_pair(s: SatelliteScenario):
    """Both disc-choice kernels over Q[t^±1]; with winding number zero they agree.

    The companion block dies rationally, so either satellite disc restricts to
    the base-disc surgery on every summand and the two kernels are equal.
    """
    base = alexander_module_Q(s.base_knot)
    half = disc_kernel_Q(s.base_disc, base).generators
    ambient = direct_sum(LAURENT, *(base for _ in range(s.copies)))
    gens = block_diag(LAURENT, *(half for _ in range(s.copies)))
    kernel = Submodule(ambient, gens)
    return kernel, kernel


def _satellite_report(s: SatelliteScenario) -> BoundReport:
    p1, p2 = satellite_abelian_kernel_pair(s)
    abelian = d2_lower_bound_abelian(p1, p2)
    metabelian = theorem_C_lower_bound(s)
    lower = max(abelian, metabelian)
    upper = s.copies
    n = s.copies
    prov = [
        f"kernels over Q[t^±1] coincide: abelian lower bound {abelian}",
        "companion obstruction nonzero and branched disc kernel lies in 3*H1, "
        "so mod-3 characters extend and survive",
        f"h tube moves leave a character with at least {n} - 2h nonzero slots, "
        f"each contributing an obstruction block, forcing 2h >= {n} - 2h; "
        f"hence h >= {metabelian}",
        f"per-summand disc swaps realize the pair with {n} tubes: upper bound {n}",
    ]
    return BoundReport("d2_metabelian", lower, upper, tuple(prov))


def full_report(scenario) -> BoundReport:
    """Dispatch a scenario to the applicable bound pipeline."""
    if isinstance(scenario, DiscPairScenario):
        return _disc_pair_report(scenario)
    if isinstance(scenario, TwoKnotPairScenario):
        return _two_knot_report(scenario)
    if isinstance(scenario, SatelliteScenario):
        return _satellite_report(scenario)
    raise SchemaError("unknown scenario type", f"got {type(scenario).__name__}")
