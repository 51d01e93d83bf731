"""Acceptance gate: the seven shipping criteria, each timed against its budget.

Every test prints one PASS/FAIL line with its wall time so a run of
`pytest tests/test_acceptance.py -v -s` reads as a checklist.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from stabkit import propsuite
from stabkit.bounds import (
    DiscPairScenario,
    TwoKnotPairScenario,
    full_report,
    kernel_quotient_ranks,
    satellite_abelian_kernel_pair,
)
from stabkit.cli import main
from stabkit.knots import (
    alexander_module_Q,
    boundary_connect_sum,
    branched_double_cover,
    disc_kernel_Q,
    double_of_disc,
    two_knot_sum,
)
from stabkit.metabelian import SatelliteScenario, metabelian_obstruction
from stabkit.rings import LaurentPolyQ


@contextmanager
def budget(n: int, label: str, seconds: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n} ({label})")
        raise
    elapsed = time.monotonic() - t0
    print(f"PASS criterion {n} ({label}): {elapsed:.2f}s of {seconds:.0f}s budget")
    assert elapsed < seconds, f"criterion {n} overran its budget: {elapsed:.2f}s"


T_MINUS_2 = LaurentPolyQ({0: -2, 1: 1})  # t - 2
T_MINUS_HALF = LaurentPolyQ({0: Fraction(-1, 2), 1: 1})  # t - 1/2, canonical for 2t - 1
ORDER_946 = LaurentPolyQ({0: 1, 1: Fraction(-5, 2), 2: 1})  # (2t - 1)(t - 2), canonical


def thmc_scenario(k61, copies: int) -> SatelliteScenario:
    return SatelliteScenario(
        base_disc=k61.disc("gamma"),
        eta_class=k61.eta_class,
        companion_disc=k61.disc("gamma"),
        copies=copies,
    )


def test_criterion_1_disc_kernels_of_9_46(k946):
    with budget(1, "9_46 kernel suite", 1.0):
        module = alexander_module_Q(k946.knot)
        assert module.order() == ORDER_946
        assert module.generating_rank == 1
        left = disc_kernel_Q(k946.disc("left"), module)
        right = disc_kernel_Q(k946.disc("right"), module)
        assert left.order() == T_MINUS_2
        assert right.order() == T_MINUS_HALF
        from stabkit.modules import submodule_intersection

        assert submodule_intersection(left, right).is_zero()


def test_criterion_2_connected_sum_distance(k946):
    with budget(2, "connected-sum d2 bounds n=1..4", 5.0):
        for n in range(1, 5):
            disc1 = boundary_connect_sum(*([k946.disc("left")] * n))
            disc2 = boundary_connect_sum(*([k946.disc("right")] * n))
            report = full_report(DiscPairScenario(disc1, disc2))
            assert (report.lower, report.upper) == (n, n), f"n = {n}"


def test_criterion_3_doubles_of_discs(k946):
    with budget(3, "2-knot d1 bounds m=1..4", 5.0):
        one = double_of_disc(k946.disc("right"))
        assert one.module.generating_rank == 1
        assert one.module.order() == T_MINUS_2
        for m in range(1, 5):
            model = two_knot_sum(*([one] * m))
            assert model.generating_rank == m
            report = full_report(TwoKnotPairScenario(model, two_knot_sum()))
            assert report.lower == m


def test_criterion_4_twist_knot_suite(k61):
    with budget(4, "6_1 suite", 1.0):
        module = alexander_module_Q(k61.knot)
        assert module.generating_rank == 1
        assert module.order() == ORDER_946
        kernel = disc_kernel_Q(k61.disc("gamma"), module)
        t_minus_2_everything = module.submodule_from_int_columns([(1, -1)])
        assert kernel.spans_equal(t_minus_2_everything)
        cover = branched_double_cover(k61.knot)
        assert cover.torsion_invariants == (9,)
        bker = disc_kernel_Q(k61.disc("gamma"), cover)
        assert bker.order() == 3
        assert bker.spans_equal(cover.submodule_from_int_columns([(3, 0), (0, 3)]))
        obstruction, nonzero = metabelian_obstruction(k61.disc("gamma"))
        assert nonzero
        assert obstruction.order().norm() == 7


def test_criterion_5_satellite_bounds(k61):
    with budget(5, "satellite d2 bounds g=1..3", 30.0):
        for g in (1, 2, 3):
            scenario = thmc_scenario(k61, 4 * g)
            p1, p2 = satellite_abelian_kernel_pair(scenario)
            assert p1.spans_equal(p2)
            assert max(kernel_quotient_ranks(p1, p2)) == 0
            report = full_report(scenario)
            assert (report.lower, report.upper) == (g, 4 * g), f"g = {g}"


def test_criterion_6_property_suites():
    with budget(6, "randomized property suites", 60.0):
        counts = {
            name: fn(propsuite.DEFAULT_SEED, propsuite.DEFAULT_CASES)
            for name, fn in propsuite.SUITES.items()
        }
        assert all(ran >= 200 for ran in counts.values()), counts


def test_criterion_7_verify_command(capsys):
    with budget(7, "verify command", 120.0):
        code = main(["verify"])
    out = capsys.readouterr().out
    print(f"PASS criterion 7 detail: {out.count('PASS')} anchors replayed")
    assert code == 0
    assert "verification FAILED" not in out
