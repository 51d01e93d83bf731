"""Bound reports: d1 and d2 lower bounds, geometric upper bounds, dispatch."""

import pytest

from stabkit.bounds import (
    BoundReport,
    DiscPairScenario,
    TwoKnotPairScenario,
    full_report,
    kernel_quotient_ranks,
    satellite_abelian_kernel_pair,
)
from stabkit.errors import SchemaError
from stabkit.knots import (
    add_local_2knot,
    alexander_module_Q,
    boundary_connect_sum,
    disc_kernel_Q,
    double_of_disc,
    two_knot_sum,
)
from stabkit.linalg import Mat
from stabkit.metabelian import SatelliteScenario
from stabkit.modules import Submodule


def thmc(k61, copies: int) -> SatelliteScenario:
    return SatelliteScenario(
        base_disc=k61.disc("gamma"),
        eta_class=k61.eta_class,
        companion_disc=k61.disc("gamma"),
        copies=copies,
    )


# -------------------------------------------------------------- BoundReport


def test_report_rejects_unknown_quantity():
    with pytest.raises(SchemaError, match="unknown quantity"):
        BoundReport("d3", 0, None, ())


def test_report_rejects_negative_lower():
    with pytest.raises(SchemaError, match="nonnegative"):
        BoundReport("d1", -1, None, ())


def test_report_rejects_crossed_bounds():
    with pytest.raises(SchemaError, match="exceeds"):
        BoundReport("d2", 3, 2, ())


def test_report_json_and_text_agree():
    r = BoundReport("d2", 1, 4, ("step one", "step two"))
    payload = r.to_json_dict()
    assert payload == {
        "quantity": "d2",
        "lower": 1,
        "upper": 4,
        "provenance": ["step one", "step two"],
    }
    text = r.to_text()
    assert "lower:    1" in text
    assert "upper:    4" in text
    assert "  - step one" in text


def test_report_renders_missing_upper_as_infinity():
    r = BoundReport("d1", 2, None, ())
    assert r.to_json_dict()["upper"] == "infinity"
    assert "upper:    infinity" in r.to_text()


# ------------------------------------------------------------------ d1 bound


def d1_lower(k1, k2) -> int:
    return full_report(TwoKnotPairScenario(k1, k2)).lower


def test_d1_counts_rank_gap(k946):
    one = double_of_disc(k946.disc("left"))
    assert d1_lower(one, two_knot_sum()) == 1
    assert d1_lower(one, one) == 0
    three = two_knot_sum(one, one, one)
    assert d1_lower(three, one) == 2


# ------------------------------------------------------------------ d2 bound


def test_d2_abelian_9_46_discs(k946):
    ambient = alexander_module_Q(k946.knot)
    left = disc_kernel_Q(k946.disc("left"), ambient)
    right = disc_kernel_Q(k946.disc("right"), ambient)
    assert kernel_quotient_ranks(left, right) == (1, 1)
    assert kernel_quotient_ranks(right, left) == (1, 1)
    assert kernel_quotient_ranks(left, left) == (0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_d2_abelian_additive_over_sums(k946, n):
    disc1 = boundary_connect_sum(*([k946.disc("left")] * n))
    disc2 = boundary_connect_sum(*([k946.disc("right")] * n))
    ambient = alexander_module_Q(disc1.knot)
    p1 = disc_kernel_Q(disc1, ambient)
    p2 = disc_kernel_Q(disc2, ambient)
    assert max(kernel_quotient_ranks(p1, p2)) == n


def test_d2_abelian_rejects_mixed_ambients(k946, k61):
    left = disc_kernel_Q(k946.disc("left"))
    gamma = disc_kernel_Q(k61.disc("gamma"))
    with pytest.raises(SchemaError, match="ambient mismatch"):
        kernel_quotient_ranks(left, gamma)


def test_d2_upper_rules(k946):
    left, right = k946.disc("left"), k946.disc("right")

    def upper(d1, d2):
        return full_report(DiscPairScenario(d1, d2)).upper

    assert upper(left, left) == 0
    assert upper(left, add_local_2knot(left)) == 0  # decorations invisible
    assert upper(left, right) == 1  # genus-1 surface


# ------------------------------------------------------------- monotonicity


def test_killing_one_generator_drops_rank_by_one(k946):
    disc = boundary_connect_sum(*([k946.disc("left")] * 3))
    kern = disc_kernel_Q(disc).presentation
    cyclic = kern.submodule_from_int_columns([(1, 0, 0)])
    gr_after = kern.quotient_by(cyclic.generators).generating_rank
    assert (kern.generating_rank, gr_after) == (3, 2)


def test_killing_nothing_changes_nothing(k946):
    m = alexander_module_Q(k946.knot)
    zero = Submodule(m, Mat([() for _ in range(m.ngens)], 0))
    assert m.quotient_by(zero.generators).generating_rank == m.generating_rank


# ----------------------------------------------------------------- dispatch


def test_disc_pair_scenario_validates_discs(k946, k61):
    with pytest.raises(SchemaError, match="mismatch"):
        DiscPairScenario(k946.disc("left"), k61.disc("gamma"))


def test_disc_pair_report(k946):
    r = full_report(DiscPairScenario(k946.disc("left"), k946.disc("right")))
    assert r.quantity == "d2"
    assert (r.lower, r.upper) == (1, 1)
    assert any("computed ranks 1 and 1" in p for p in r.provenance)


def test_disc_pair_report_identical_discs(k946):
    disc = k946.disc("left")
    r = full_report(DiscPairScenario(disc, add_local_2knot(disc)))
    assert (r.lower, r.upper) == (0, 0)
    assert any("local 2-knots" in p for p in r.provenance)


def test_two_knot_report(k946):
    one = double_of_disc(k946.disc("left"))
    r = full_report(TwoKnotPairScenario(one, two_knot_sum()))
    assert r.quantity == "d1"
    assert (r.lower, r.upper) == (1, None)

    same = full_report(TwoKnotPairScenario(one, double_of_disc(k946.disc("left"))))
    assert (same.lower, same.upper) == (0, 0)


def test_satellite_report(k61):
    r = full_report(thmc(k61, 4))
    assert r.quantity == "d2_metabelian"
    assert (r.lower, r.upper) == (1, 4)
    assert any("2h >= 4 - 2h" in p for p in r.provenance)


def test_satellite_kernels_coincide(k61):
    s = thmc(k61, 3)
    p1, p2 = satellite_abelian_kernel_pair(s)
    assert p1 is not p2 and p1.generators == p2.generators
    assert p1.spans_equal(p2)
    assert kernel_quotient_ranks(p1, p2) == (0, 0)


def test_satellite_zero_copies(k61):
    p1, p2 = satellite_abelian_kernel_pair(thmc(k61, 0))
    assert p1.is_zero()
    assert kernel_quotient_ranks(p1, p2) == (0, 0)


def test_unknown_scenario_rejected():
    with pytest.raises(SchemaError, match="unknown scenario"):
        full_report(object())
