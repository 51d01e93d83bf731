"""Eisenstein specializations, characters, and the satellite kernel machinery."""

import hashlib
import itertools
import random

import pytest

from stabkit.bounds import kernel_quotient_ranks
from stabkit.errors import HypothesisError, SchemaError
from stabkit.knots import (
    SeifertKnot,
    SurgeryDisc,
    boundary_connect_sum,
    branched_double_cover,
    connected_sum,
)
from stabkit.linalg import Mat
from stabkit.metabelian import (
    Character,
    SatelliteScenario,
    character_selection,
    character_space_dimension,
    conjugate_module,
    eisenstein_alexander,
    kernel_pair_quotient,
    metabelian_obstruction,
    one_oplus_bar,
    satellite_kernel_pair,
    theorem_C_lower_bound,
)
from stabkit.modules import PresentedModule, modules_isomorphic
from stabkit.rings import EISENSTEIN, INTEGERS, EisensteinInt, associates

UNKNOT = SeifertKnot("unknot", ())

# genus-1 knot with trivial Alexander polynomial: every obstruction dies
TRIVIAL_ALEX = SeifertKnot("triv", ((0, 1), (0, 0)))
TRIVIAL_DISC = SurgeryDisc(TRIVIAL_ALEX, "d", ((1, 0),))


def scenario(k61, copies: int) -> SatelliteScenario:
    return SatelliteScenario(
        base_disc=k61.disc("gamma"),
        eta_class=k61.eta_class,
        companion_disc=k61.disc("gamma"),
        copies=copies,
    )


# ------------------------------------------------------- t at -1 and at w


def _evaluated_relations(knot, entry) -> tuple:
    """The nonzero entries entry(V_ij, V_ji) of each row i, from the dense rows of V."""
    v = knot.seifert.rows
    n = len(v)
    return tuple(
        tuple((j, entry(v[i][j], v[j][i])) for j in range(n) if entry(v[i][j], v[j][i]))
        for i in range(n)
    )


def test_evaluated_presentations_match_entrywise_oracle(catalog):
    knots = [e.knot for e in catalog.values()]
    knots.append(connected_sum(catalog["9_46"].knot, catalog["6_1"].knot))
    # V_13 = -V_31 = 1: the (1, 3) entry of V + V^T is 0 and must drop out
    rows = ((0, 1, 1, 0), (0, 0, 0, 0), (-1, 0, 0, 1), (0, 0, 0, 0))
    knots.append(SeifertKnot("cancelling", rows))
    for knot in knots:
        # t*V_ij - V_ji at t = -1, and at t = w as the Eisenstein integer -V_ji + V_ij*w
        cover = branched_double_cover(knot)
        assert cover.ring is INTEGERS
        assert cover.relations.lines == _evaluated_relations(knot, lambda x, y: -x - y)
        twisted = eisenstein_alexander(knot)
        assert twisted.ring is EISENSTEIN
        assert twisted.relations.lines == _evaluated_relations(
            knot, lambda x, y: EisensteinInt(-y, x)
        )
        n = 2 * knot.genus
        assert cover.relations.ncols == twisted.relations.ncols == cover.ngens == n


def test_eisenstein_alexander_of_61_order(k61):
    # (2t-1)(t-2) = 2 - 5t + 2t^2 at t = w is -7w
    order = eisenstein_alexander(k61.knot).order()
    assert order.norm() == 49
    assert associates(EISENSTEIN, order, EISENSTEIN.from_int(7))



def test_eisenstein_alexander_6_1(k61):
    m = eisenstein_alexander(k61.knot)
    assert m.ring is EISENSTEIN
    assert m.generating_rank == 1
    assert m.order().norm() == 49  # (2w-1)(w-2), both factors of norm 7


def test_eisenstein_alexander_9_46(k946):
    m = eisenstein_alexander(k946.knot)
    assert m.generating_rank == 1
    assert m.order().norm() == 49


def test_eisenstein_alexander_unknot():
    m = eisenstein_alexander(UNKNOT)
    assert m.is_zero_module()
    assert m.order().norm() == 1


def test_conjugation_is_an_involution(k61):
    m = eisenstein_alexander(k61.knot)
    again = conjugate_module(conjugate_module(m))
    assert again.relations == m.relations


def test_conjugation_rejects_wrong_ring(k61):
    from stabkit.knots import alexander_module_Q

    with pytest.raises(ValueError):
        conjugate_module(alexander_module_Q(k61.knot))


def test_one_oplus_bar_of_prime_quotient_is_cyclic():
    # Z[w]/(w-2) has norm-7 order; its conjugate is the non-associate prime,
    # so the direct sum is cyclic of norm-49 order
    m = PresentedModule(EISENSTEIN, Mat([[EisensteinInt(-2, 1)]], 1))
    d = one_oplus_bar(m)
    assert d.generating_rank == 1
    assert d.order().norm() == 49


def test_one_oplus_bar_is_self_conjugate(k61):
    d = one_oplus_bar(eisenstein_alexander(k61.knot))
    assert modules_isomorphic(d, conjugate_module(d))


def test_twisted_homology_abelian_rep_6_1(k61):
    d = one_oplus_bar(eisenstein_alexander(k61.knot))
    assert d.order().norm() == 2401
    assert d.generating_rank == 2


# --------------------------------------------------------------- obstruction


def test_obstruction_6_1_is_nonzero(k61):
    quotient, nonzero = metabelian_obstruction(k61.disc("gamma"))
    assert nonzero
    assert quotient.generating_rank == 1
    order = quotient.order()
    assert order.norm() == 7
    assert (order.a, order.b) == (3, 2)  # canonical associate of w - 2


def test_obstruction_9_46_left(k946):
    quotient, nonzero = metabelian_obstruction(k946.disc("left"))
    assert nonzero
    order = quotient.order()
    assert (order.a, order.b) == (3, 1)  # canonical associate of 2w - 1


def test_obstruction_vanishes_for_trivial_alexander():
    quotient, nonzero = metabelian_obstruction(TRIVIAL_DISC)
    assert not nonzero
    assert quotient.is_zero_module()


# ------------------------------------------------------- scenario validation


def test_scenario_accepts_catalog_data(k61):
    s = scenario(k61, 4)
    assert s.copies == 4


def test_scenario_rejects_negative_copies(k61):
    with pytest.raises(SchemaError, match="nonnegative"):
        scenario(k61, -1)


def test_scenario_rejects_non_cyclic_base(k61, k946):
    disc = boundary_connect_sum(k946.disc("left"), k946.disc("left"))
    with pytest.raises(SchemaError, match="not cyclic"):
        SatelliteScenario(
            base_disc=disc,
            eta_class=(1, 0, 0, 0),
            companion_disc=k61.disc("gamma"),
            copies=1,
        )


def test_scenario_rejects_non_generating_eta(k61):
    # (1,-1) spans (t-2) times the module, a proper submodule
    with pytest.raises(SchemaError, match="generate"):
        SatelliteScenario(
            base_disc=k61.disc("gamma"),
            eta_class=(1, -1),
            companion_disc=k61.disc("gamma"),
            copies=1,
        )


def test_scenario_rejects_cover_without_3_torsion(k61):
    with pytest.raises(SchemaError, match="3-torsion"):
        SatelliteScenario(
            base_disc=TRIVIAL_DISC,
            eta_class=(0, 0),
            companion_disc=k61.disc("gamma"),
            copies=1,
        )


# ---------------------------------------------------------------- characters


def test_character_validation_and_str():
    chi = Character((1, 0, 2, 1))
    assert len(chi) == 4
    assert chi.m_nonzero == 3
    assert str(chi) == "[1,0,2,1]"
    with pytest.raises(SchemaError, match="mod-3"):
        Character((0, 3))


def test_character_space_dimension_6_1(k61):
    # Z_9 cover: one 3-divisible invariant factor per copy
    assert character_space_dimension(scenario(k61, 4)) == 4
    assert character_space_dimension(scenario(k61, 1)) == 1
    assert character_space_dimension(scenario(k61, 0)) == 0


def test_character_space_dimension_9_46(k61, k946):
    s = SatelliteScenario(
        base_disc=k946.disc("left"),
        eta_class=(1, 1),
        companion_disc=k61.disc("gamma"),
        copies=1,
    )
    assert character_space_dimension(s) == 2


def test_selection_without_constraints_uses_every_slot():
    chi = character_selection(5, [])
    assert chi.values == (1, 1, 1, 1, 1)


def test_selection_respects_a_single_constraint():
    chi = character_selection(3, [(1, 0, 0)])
    assert chi.values[0] == 0
    assert chi.m_nonzero >= 2


def test_selection_support_bound_8_by_3():
    constraints = [(1, 1, 0, 0, 2, 0, 1, 0), (0, 1, 1, 0, 0, 2, 0, 1), (2, 0, 0, 1, 1, 0, 0, 1)]
    chi = character_selection(8, constraints)
    for c in constraints:
        assert sum(a * b for a, b in zip(chi.values, c)) % 3 == 0
    assert chi.m_nonzero >= 5


def _seeded_constraint_systems():
    """(n, constraints): 200 systems with n <= 16 of mixed density, then n = 256 with m = 16, 64, 128."""
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(0, 16)
        m = rng.randint(0, n)
        density = rng.choice((0.2, 0.5, 1.0))
        yield n, [
            tuple(rng.randrange(1, 3) if rng.random() < density else 0 for _ in range(n))
            for _ in range(m)
        ]
    for m in (16, 64, 128):
        yield 256, [tuple(rng.randrange(3) for _ in range(256)) for _ in range(m)]


def test_selection_returns_the_pinned_characters():
    # the reduced echelon form of a row space is unique, so any correct elimination
    # selects these characters: their digest and the supports at n = 256
    digest, supports = hashlib.sha256(), []
    for n, constraints in _seeded_constraint_systems():
        chi = character_selection(n, constraints)
        assert all(sum(a * b for a, b in zip(chi.values, c)) % 3 == 0 for c in constraints)
        assert chi.m_nonzero >= n - len(constraints)
        digest.update(f"{chi}\n".encode())
        if n == 256:
            supports.append(chi.m_nonzero)
    assert supports == [255, 245, 229]
    assert digest.hexdigest() == "57f4ad2554967afb025c49516700385c7cfb7f0762d9245c636138f262876001"


def test_selection_rejects_overdetermined_system():
    with pytest.raises(SchemaError, match="too many constraints"):
        character_selection(2, [(1, 0), (0, 1), (1, 1)])


def test_selection_rejects_wrong_length_constraint():
    with pytest.raises(SchemaError, match="wrong length"):
        character_selection(3, [(1, 0)])


# ------------------------------------------------------------ kernel pairs


def test_zero_character_gives_identical_kernels(k61):
    s = scenario(k61, 2)
    pair = satellite_kernel_pair(s, Character((0, 0)))
    k1, k2 = pair
    assert k1.spans_equal(k2)
    assert kernel_pair_quotient(pair).is_zero_module()


def test_single_twisted_copy_quotient(k61):
    s = scenario(k61, 1)
    pair = satellite_kernel_pair(s, Character((1,)))
    q = kernel_pair_quotient(pair)
    assert q.generating_rank == 1
    assert q.order().norm() == 49


def test_quotient_rank_counts_twisted_copies(k61):
    s = scenario(k61, 2)
    assert kernel_pair_quotient(satellite_kernel_pair(s, Character((1, 0)))).generating_rank == 1
    assert kernel_pair_quotient(satellite_kernel_pair(s, Character((1, 2)))).generating_rank == 2


def test_witness_rank_is_m_nonzero_for_every_character(k61):
    # thmC(g=1): all 81 characters on 4 copies
    s = scenario(k61, 4)
    for values in itertools.product((0, 1, 2), repeat=4):
        chi = Character(values)
        pair = satellite_kernel_pair(s, chi)
        m = chi.m_nonzero
        assert kernel_pair_quotient(pair).generating_rank == m, chi
        assert kernel_quotient_ranks(*pair) == (m, m), chi


def test_kernel_pair_rejects_wrong_character_length(k61):
    with pytest.raises(SchemaError, match="length mismatch"):
        satellite_kernel_pair(scenario(k61, 2), Character((1,)))


def test_empty_scenario_has_empty_kernels(k61):
    pair = satellite_kernel_pair(scenario(k61, 0), Character(()))
    assert pair[0].ambient.ngens == 0
    assert kernel_pair_quotient(pair).is_zero_module()


# ------------------------------------------------------------- lower bound


@pytest.mark.parametrize("g", [1, 2, 3])
def test_lower_bound_for_4g_copies(k61, g):
    assert theorem_C_lower_bound(scenario(k61, 4 * g)) == g


def test_lower_bound_small_counts(k61):
    assert theorem_C_lower_bound(scenario(k61, 0)) == 0
    assert theorem_C_lower_bound(scenario(k61, 1)) == 1
    assert theorem_C_lower_bound(scenario(k61, 5)) == 2


def test_lower_bound_needs_nonzero_obstruction(k61):
    s = SatelliteScenario(
        base_disc=k61.disc("gamma"),
        eta_class=(1, 0),
        companion_disc=TRIVIAL_DISC,
        copies=4,
    )
    with pytest.raises(HypothesisError) as exc:
        theorem_C_lower_bound(s)
    assert exc.value.hypothesis == "obstruction vanishes"


def test_lower_bound_needs_extendable_characters(k61, k946):
    # on 9_46 the branched kernel is a Z_3 factor, not inside 3*H_1
    s = SatelliteScenario(
        base_disc=k946.disc("left"),
        eta_class=(1, 1),
        companion_disc=k61.disc("gamma"),
        copies=4,
    )
    with pytest.raises(HypothesisError) as exc:
        theorem_C_lower_bound(s)
    assert exc.value.hypothesis == "branched kernel not contained in 3*H1"
