"""Replay of the pinned example computations behind `stabkit verify`.

Each anchor recomputes one published value from scratch and compares exactly.
The list covers the worked 9_46 and 6_1 computations, the three bound
pipelines at small sizes, and the CLI surface (reference grammar included),
so a pass certifies the whole stack end to end.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

from .bounds import DiscPairScenario, TwoKnotPairScenario, full_report
from .catalog import builtin_catalog
from .knots import (
    add_local_2knot,
    alexander_module_Q,
    alexander_presentation,
    boundary_connect_sum,
    branched_double_cover,
    curve_class,
    disc_kernel_Q,
    disc_quotient_Q,
    double_of_disc,
    two_knot_sum,
)
from .linalg import Mat
from .metabelian import (
    Character,
    SatelliteScenario,
    character_space_dimension,
    metabelian_obstruction,
    satellite_kernel_pair,
    theorem_C_lower_bound,
)
from .modules import (
    PresentedModule,
    Submodule,
    direct_sum,
    modules_isomorphic,
    submodule_intersection,
)
from .rings import EISENSTEIN, INTEGERS, LAURENT, EisensteinInt, LaurentPolyQ, associates


class VerifyFailure(AssertionError):
    pass


def _check(cond: bool, detail: str):
    if not cond:
        raise VerifyFailure(detail)


def _eq_assoc(ring, actual, expected, label: str):
    _check(
        associates(ring, actual, expected),
        f"{label}: got {actual}, want an associate of {expected}",
    )


_CAT = builtin_catalog()
_K946 = _CAT["9_46"].knot
_LEFT = _CAT["9_46"].disc("left")
_RIGHT = _CAT["9_46"].disc("right")
_K61 = _CAT["6_1"].knot
_GAMMA = _CAT["6_1"].disc("gamma")

_TM2 = LaurentPolyQ({0: -2, 1: 1})
_2TM1 = LaurentPolyQ({0: -1, 1: 2})
_XI_MINUS_2 = EisensteinInt(-2, 1)
_ORDER_BOTH = _TM2 * _2TM1


def anchor_946_presentation():
    pres = alexander_presentation(_K946)
    want = [["0", "-1 + 2*t"], ["-2 + t", "0"]]
    got = [[str(e) for e in row] for row in pres.rows]
    _check(got == want, f"presentation {got} != {want}")


def anchor_946_module():
    module = alexander_module_Q(_K946)
    _eq_assoc(LAURENT, module.order(), _ORDER_BOTH, "order")
    _check(module.generating_rank == 1, f"gr {module.generating_rank} != 1")
    _check(module.free_rank == 0, "module should be torsion")


def anchor_946_curve_classes():
    _check(curve_class(_K946, (1, 0)) == (0, 2), "class of first curve")
    _check(curve_class(_K946, (0, 1)) == (1, 0), "class of second curve")


def anchor_946_kernel_orders():
    module = alexander_module_Q(_K946)
    kl = disc_kernel_Q(_LEFT, module)
    kr = disc_kernel_Q(_RIGHT, module)
    _eq_assoc(LAURENT, kl.order(), _TM2, "left kernel order")
    _eq_assoc(LAURENT, kr.order(), _2TM1, "right kernel order")
    _eq_assoc(LAURENT, disc_quotient_Q(_LEFT).order(), _2TM1, "left quotient order")
    _eq_assoc(LAURENT, disc_quotient_Q(_RIGHT).order(), _TM2, "right quotient order")


def anchor_946_kernels_intersect_trivially():
    module = alexander_module_Q(_K946)
    inter = submodule_intersection(
        disc_kernel_Q(_LEFT, module), disc_kernel_Q(_RIGHT, module)
    )
    _check(inter.is_zero(), "intersection of the two kernels is nonzero")


def anchor_946_branched_cover():
    cover = branched_double_cover(_K946)
    _check(cover.torsion_invariants == (3, 3), f"got {cover.torsion_invariants}")


def anchor_connected_sum_bounds():
    for n in range(1, 5):
        d1 = boundary_connect_sum(*[_LEFT] * n)
        d2 = boundary_connect_sum(*[_RIGHT] * n)
        kernel = disc_kernel_Q(d1).presentation
        _check(kernel.generating_rank == n, f"n={n}: all-left kernel gr")
        for d in kernel.torsion_invariants:
            _eq_assoc(LAURENT, d, _TM2, f"n={n}: all-left kernel factor")
        report = full_report(DiscPairScenario(d1, d2))
        _check(
            report.lower == n and report.upper == n,
            f"n={n}: got lower {report.lower} upper {report.upper}",
        )


def anchor_double_module():
    model = double_of_disc(_RIGHT)
    want = PresentedModule(LAURENT, Mat([[_TM2]], 1))
    _check(modules_isomorphic(model.module, want), "double is not Q[t^±1]/(t-2)")


def anchor_two_knot_bounds():
    dbl = double_of_disc(_RIGHT)
    for m in range(1, 5):
        model = two_knot_sum(*[dbl] * m)
        _check(model.generating_rank == m, f"m={m}: gr")
        report = full_report(TwoKnotPairScenario(model, two_knot_sum()))
        _check(report.lower == m, f"m={m}: lower {report.lower}")


def anchor_gr_of_direct_power():
    m = 3
    module = direct_sum(LAURENT, *[PresentedModule(LAURENT, Mat([[_TM2]], 1))] * m)
    _check(module.generating_rank == m, f"gr {module.generating_rank} != {m}")


def anchor_61_module():
    module = alexander_module_Q(_K61)
    _eq_assoc(LAURENT, module.order(), _ORDER_BOTH, "order")
    _check(module.generating_rank == 1, "module should be cyclic")


def anchor_61_kernel_is_tm2_multiple():
    _check(curve_class(_K61, (1, 1)) == (1, -1), "curve class")
    module = alexander_module_Q(_K61)
    kernel = disc_kernel_Q(_GAMMA, module)
    scaled = Submodule(
        module,
        Mat.identity(LAURENT, 2).map_entries(lambda x: x * _TM2),
    )
    _check(kernel.spans_equal(scaled), "kernel differs from (t-2)*(whole module)")
    _eq_assoc(LAURENT, disc_quotient_Q(_GAMMA).order(), _TM2, "quotient order")


def anchor_61_branched_cover():
    cover = branched_double_cover(_K61)
    pres = cover.relations
    _check(pres.rows == ((-2, -1), (-1, 4)), f"t=-1 presentation {pres.rows}")
    _check(cover.torsion_invariants == (9,), f"got {cover.torsion_invariants}")


def anchor_61_branched_kernel():
    cover = branched_double_cover(_K61)
    kernel = disc_kernel_Q(_GAMMA, cover)
    three = Submodule(
        cover, Mat.identity(INTEGERS, 2).map_entries(lambda x: 3 * x)
    )
    _check(kernel.spans_equal(three), "branched kernel is not 3 * H1")
    _check(kernel.order() == 3, f"subgroup order {kernel.order()} != 3")


def anchor_61_obstruction():
    module, nonzero = metabelian_obstruction(_GAMMA)
    _check(nonzero, "obstruction reported zero")
    order = module.order()
    _check(order.norm() == 7, f"norm {order.norm()} != 7")
    _eq_assoc(EISENSTEIN, order, _XI_MINUS_2, "obstruction order")


def anchor_norm_seven_ring_facts():
    _check(_XI_MINUS_2.norm() == 7, "N(xi-2) != 7")
    product = _XI_MINUS_2 * _XI_MINUS_2.conj()
    _eq_assoc(EISENSTEIN, product, EISENSTEIN.from_int(7), "(xi-2)(conj) != 7")


def _thmc_scenario(g: int) -> SatelliteScenario:
    return SatelliteScenario(_GAMMA, _CAT["6_1"].eta_class, _GAMMA, 4 * g)


def anchor_satellite_bounds():
    for g in (1, 2, 3):
        report = full_report(_thmc_scenario(g))
        _check(
            report.lower == g and report.upper == 4 * g,
            f"g={g}: got lower {report.lower} upper {report.upper}",
        )
        _check(
            theorem_C_lower_bound(_thmc_scenario(g)) == g,
            f"g={g}: direct bound",
        )


def anchor_zero_character_kernels_agree():
    k1, k2 = satellite_kernel_pair(_thmc_scenario(1), Character((0, 0, 0, 0)))
    _check(k1.spans_equal(k2), "kernels differ for the zero character")
    _check(
        modules_isomorphic(k1.presentation, k2.presentation),
        "kernel presentations not isomorphic",
    )


def anchor_character_dimension():
    _check(character_space_dimension(_thmc_scenario(1)) == 4, "dimension at N=4")


def anchor_decorations_do_not_change_kernels():
    module = alexander_module_Q(_K946)
    decorated = add_local_2knot(_LEFT)
    _check(
        disc_kernel_Q(_LEFT, module).spans_equal(disc_kernel_Q(decorated, module)),
        "abelian kernel changed",
    )
    cover = branched_double_cover(_K946)
    _check(
        disc_kernel_Q(_LEFT, cover).spans_equal(disc_kernel_Q(decorated, cover)),
        "branched kernel changed",
    )


def _cli(argv: list):
    """Run `stabkit --json ...` in-process; check exit 0 and return the payload."""
    from .cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--json", *argv])
    _check(code == 0, f"exit code {code}")
    return json.loads(buf.getvalue())


def anchor_cli_alexander():
    payload = _cli(["alexander", "9_46"])
    _check(
        payload["order"] == str(LAURENT.canonical(_ORDER_BOTH)[0]),
        f"order {payload['order']!r}",
    )


def anchor_cli_kernels():
    payload = _cli(["kernels", "9_46", "--discs", "left,right"])
    _check(payload["pairs"][0]["intersection_is_zero"], "intersection not zero")
    payload = _cli(["kernels", "6_1", "--discs", "gamma"])
    want = str(LAURENT.canonical(_2TM1)[0])
    _check(
        payload["kernels"][0]["order"] == want,
        f"kernel order {payload['kernels'][0]['order']!r} != {want!r}",
    )


def anchor_cli_bound_d2():
    payload = _cli(["bound", "d2", "--knot", "sum^3(9_46)", "--discs", "left^3,right^3"])
    _check(
        payload["lower"] == 3 and payload["upper"] == 3,
        f"lower {payload['lower']} upper {payload['upper']}",
    )


def anchor_cli_bound_metabelian():
    payload = _cli(["bound", "metabelian", "--scenario", "thmC(g=1)"])
    _check(payload["lower"] == 1, f"lower {payload['lower']}")


def anchor_cli_bound_d1():
    payload = _cli(["bound", "d1", "--two-knot", "double(9_46.right)^2", "--vs", "unknot"])
    _check(payload["lower"] == 2, f"lower {payload['lower']}")


ANCHORS = (
    ("9_46 presentation matrix", anchor_946_presentation),
    ("9_46 module order and generating rank", anchor_946_module),
    ("9_46 curve classes", anchor_946_curve_classes),
    ("9_46 disc kernel and quotient orders", anchor_946_kernel_orders),
    ("9_46 kernels intersect trivially", anchor_946_kernels_intersect_trivially),
    ("9_46 double branched cover", anchor_946_branched_cover),
    ("connected-sum disc bounds n=1..4", anchor_connected_sum_bounds),
    ("double of the right disc", anchor_double_module),
    ("2-knot sums and d1 bounds m=1..4", anchor_two_knot_bounds),
    ("generating rank of a rank-3 direct power", anchor_gr_of_direct_power),
    ("6_1 module order and cyclicity", anchor_61_module),
    ("6_1 disc kernel and quotient", anchor_61_kernel_is_tm2_multiple),
    ("6_1 double branched cover", anchor_61_branched_cover),
    ("6_1 branched disc kernel", anchor_61_branched_kernel),
    ("6_1 metabelian obstruction", anchor_61_obstruction),
    ("norm-7 prime ring facts", anchor_norm_seven_ring_facts),
    ("satellite scenario bounds g=1..3", anchor_satellite_bounds),
    ("zero-character kernels agree", anchor_zero_character_kernels_agree),
    ("character space dimension", anchor_character_dimension),
    ("local 2-knot decorations preserve kernels", anchor_decorations_do_not_change_kernels),
    ("cli alexander 9_46", anchor_cli_alexander),
    ("cli kernels", anchor_cli_kernels),
    ("cli bound d2 at n=3", anchor_cli_bound_d2),
    ("cli bound metabelian at g=1", anchor_cli_bound_metabelian),
    ("cli bound d1 at m=2", anchor_cli_bound_d1),
)


def run_verify(emit) -> bool:
    ok = True
    for name, fn in ANCHORS:
        try:
            fn()
            emit(f"PASS {name}")
        except AssertionError as e:
            ok = False
            emit(f"FAIL {name}: {e}")
    emit("all anchors passed" if ok else "verification FAILED")
    return ok
