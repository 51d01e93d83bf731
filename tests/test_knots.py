"""Knot layer: Seifert validation, curve classes, disc kernels, covers, doubles.

The curve-class convention (pushed-off curve c maps to V^T c) is pinned by
the two catalog computations below; both kernel shapes must reproduce
exactly, otherwise the convention is wrong for every downstream bound.
"""

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from stabkit import knots, linalg
from stabkit.errors import SchemaError
from stabkit.knots import (
    SeifertKnot,
    SurgeryDisc,
    add_local_2knot,
    alexander_module_Q,
    alexander_presentation,
    antidiagonal_columns,
    boundary_connect_sum,
    branched_double_cover,
    connected_sum,
    curve_class,
    disc_kernel_Q,
    disc_quotient_Q,
    double_of_disc,
    two_knot_sum,
)
from stabkit.linalg import Mat, block_diag, hstack
from stabkit.metabelian import eisenstein_alexander
from stabkit.modules import (
    ModuleMap,
    PresentedModule,
    Submodule,
    direct_sum,
    modules_isomorphic,
    relative_quotients,
    submodule_intersection,
)
from stabkit.rings import EISENSTEIN, INTEGERS, LAURENT, LaurentPolyQ, associates
from test_linalg import _det, _vstack

UNKNOT = SeifertKnot("unknot", ())


T_MINUS_2 = LaurentPolyQ({0: -2, 1: 1})  # t - 2
T_MINUS_HALF = LaurentPolyQ({0: Fraction(-1, 2), 1: 1})  # t - 1/2, canonical for 2t - 1
ORDER_946 = LaurentPolyQ({0: 1, 1: Fraction(-5, 2), 2: 1})  # (2t - 1)(t - 2), canonical


# ---------------------------------------------------------------- validation


def test_rejects_non_square_seifert_matrix():
    with pytest.raises(SchemaError, match="not square"):
        SeifertKnot("bad", ((0, 1), (1,)))


def test_rejects_odd_sized_seifert_matrix():
    with pytest.raises(SchemaError, match="even"):
        SeifertKnot("bad", ((0,),))


def test_rejects_non_unimodular_pairing():
    # V - V^T = [[0,2],[-2,0]], det 4
    with pytest.raises(SchemaError, match="unimodular"):
        SeifertKnot("bad", ((0, 2), (0, 0)))


def test_genus_from_matrix_size(k946, k61):
    assert UNKNOT.genus == 0
    assert k946.knot.genus == 1
    assert connected_sum(k946.knot, k61.knot).genus == 2


def test_disc_requires_genus_many_curves(k946):
    with pytest.raises(SchemaError, match="curve count"):
        SurgeryDisc(k946.knot, "bad", ((1, 0), (0, 1)))


def test_disc_rejects_wrong_length_curve(k946):
    with pytest.raises(SchemaError, match="wrong length"):
        SurgeryDisc(k946.knot, "bad", ((1, 0, 0),))


def test_disc_rejects_non_zero_framed_curve(k61):
    # c^T(V+V^T)c = 2 for c = (1,0) on 6_1
    with pytest.raises(SchemaError) as exc:
        SurgeryDisc(k61.knot, "bad", ((1, 0),))
    assert "0-framed" in str(exc.value)
    assert "c^T(V+V^T)c = 2 at (1,1)" in str(exc.value)


def test_disc_rejects_curves_with_nonzero_cross_pairing(k946):
    # each curve is 0-framed on 9_46 # 9_46, but the pair links: c1^T(V+V^T)c2 = 3
    knot = connected_sum(k946.knot, k946.knot)
    with pytest.raises(SchemaError) as exc:
        SurgeryDisc(knot, "bad", ((1, 0, 0, 0), (0, 1, 0, 0)))
    assert "c^T(V+V^T)c = 3 at (1,2)" in str(exc.value)


def test_disc_rejects_imprimitive_curve(k946):
    # 2*(1,0) is 0-framed but spans an index-2 sublattice
    with pytest.raises(SchemaError, match="direct summand"):
        SurgeryDisc(k946.knot, "bad", ((2, 0),))


@pytest.mark.parametrize(
    "build",
    [
        lambda k: SeifertKnot("k", [[0.5, 2], [1, 0.9]]),
        lambda k: SeifertKnot("k", ((0.5, 2), (1, 0))),
        lambda k: SeifertKnot("k", ((0.0, 2), (1, 0))),
        lambda k: SeifertKnot("k", ((True, 2), (1, 0))),
        lambda k: curve_class(k, (1.9, 0)),
        lambda k: SurgeryDisc(k, "d", ((1.0, 0),)),
        lambda k: SurgeryDisc(k, "d", [[1, 0.0]]),
    ],
    ids=["list-rows", "direct", "float-zero", "bool", "curve_class", "disc", "disc-list-rows"],
)
def test_non_integer_knot_data_is_rejected(k946, build):
    # 0.5 and 1.9 used to truncate silently, to 9_46 and to the curve (1, 0)
    with pytest.raises(TypeError, match="integer expected"):
        build(k946.knot)


@pytest.mark.parametrize("bad", [Fraction(1, 2), True], ids=["half", "bool"])
@pytest.mark.parametrize(
    "module", [alexander_module_Q, branched_double_cover, eisenstein_alexander],
    ids=["Q[t^±1]", "Z", "Z[w]"],
)
def test_int_columns_reject_non_integers_over_every_ring(k946, module, bad):
    with pytest.raises(TypeError, match="integer expected"):
        module(k946.knot).submodule_from_int_columns([(bad, 0)])


def test_curve_class_rejects_wrong_length(k946):
    with pytest.raises(SchemaError, match="wrong length"):
        curve_class(k946.knot, (1, 0, 0))


# ------------------------------------------------------- presentation shapes


def test_presentation_9_46(k946):
    pres = alexander_presentation(k946.knot)
    assert [[str(pres.rows[i][j]) for j in range(2)] for i in range(2)] == [
        ["0", "-1 + 2*t"],
        ["-2 + t", "0"],
    ]


def test_presentation_6_1(k61):
    pres = alexander_presentation(k61.knot)
    assert [[str(pres.rows[i][j]) for j in range(2)] for i in range(2)] == [
        ["-1 + t", "t"],
        ["-1", "2 - 2*t"],
    ]


def test_presentation_unknot_is_empty():
    pres = alexander_presentation(UNKNOT)
    assert pres.nrows == 0 and pres.ncols == 0
    m = alexander_module_Q(UNKNOT)
    assert m.is_zero_module()
    assert m.order() == LAURENT.one


def test_alexander_module_9_46(k946):
    m = alexander_module_Q(k946.knot)
    assert m.generating_rank == 1
    assert m.order() == ORDER_946


def test_alexander_module_6_1_is_cyclic(k61):
    m = alexander_module_Q(k61.knot)
    assert m.generating_rank == 1
    assert m.order() == ORDER_946


def test_alexander_polynomial_symmetry(catalog):
    # order is fixed by t -> 1/t up to units, for every catalog knot
    for entry in catalog.values():
        p = alexander_module_Q(entry.knot).order()
        flipped = LaurentPolyQ(
            {-e: c for e, c in p.terms}
        )
        assert associates(LAURENT, p, flipped), entry.id


# --------------------------------------------------- curve class convention


def test_curve_class_convention_9_46(k946):
    # mandatory pin: alpha_1 lands in the (t-2) summand, alpha_2 in (2t-1)
    assert curve_class(k946.knot, (1, 0)) == (0, 2)
    assert curve_class(k946.knot, (0, 1)) == (1, 0)
    assert curve_class(k946.knot, (0, 0)) == (0, 0)


def test_curve_class_convention_6_1(k61):
    # mandatory pin: (1,1) represents (t-2) times a generator
    assert curve_class(k61.knot, (1, 1)) == (1, -1)


def test_9_46_left_kernel_is_the_t_minus_2_summand(k946):
    kern = disc_kernel_Q(k946.disc("left"))
    assert kern.generating_rank == 1
    assert kern.order() == T_MINUS_2
    assert disc_quotient_Q(k946.disc("left")).order() == T_MINUS_HALF


def test_9_46_right_kernel_is_the_2t_minus_1_summand(k946):
    kern = disc_kernel_Q(k946.disc("right"))
    assert kern.order() == T_MINUS_HALF
    assert disc_quotient_Q(k946.disc("right")).order() == T_MINUS_2


def test_9_46_kernels_intersect_trivially(k946):
    left = disc_kernel_Q(k946.disc("left"))
    right = disc_kernel_Q(k946.disc("right"))
    assert submodule_intersection(left, right).is_zero()
    # and together they exhaust the module
    total = left.sum(right)
    ambient = alexander_module_Q(k946.knot)
    assert total.spans_equal(Submodule(ambient, Mat.identity(LAURENT, ambient.ngens)))


def test_6_1_kernel_is_t_minus_2_times_everything(k61):
    ambient = alexander_module_Q(k61.knot)
    kern = disc_kernel_Q(k61.disc("gamma"), ambient)
    expected = ambient.submodule_from_int_columns([(1, -1)])
    assert kern.spans_equal(expected)
    assert kern.order() == T_MINUS_HALF
    assert disc_quotient_Q(k61.disc("gamma")).order() == T_MINUS_2


def test_kernel_and_quotient_orders_multiply(catalog):
    for entry in catalog.values():
        total = alexander_module_Q(entry.knot).order()
        for disc in entry.discs.values():
            prod = disc_kernel_Q(disc).order() * disc_quotient_Q(disc).order()
            assert associates(LAURENT, prod, total), disc.name


# --------------------------------------------------------------------- sums


def test_connected_sum_is_block_diagonal(k946, k61):
    k = connected_sum(k946.knot, k61.knot)
    assert k.seifert.rows == (
        (0, 2, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 1, 1),
        (0, 0, 0, -2),
    )
    assert alexander_module_Q(k).order() == (
        alexander_module_Q(k946.knot).order() * alexander_module_Q(k61.knot).order()
    )


def test_connected_sum_of_one_is_identity(k946):
    assert connected_sum(k946.knot) is k946.knot
    assert boundary_connect_sum(k946.disc("left")) is k946.disc("left")


def test_connected_sum_of_nothing_rejected():
    with pytest.raises(ValueError):
        connected_sum()
    with pytest.raises(ValueError):
        boundary_connect_sum()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_left_boundary_sum_kernel(k946, n):
    disc = boundary_connect_sum(*([k946.disc("left")] * n))
    kern = disc_kernel_Q(disc)
    assert kern.generating_rank == n
    # order is (t-2)^n up to units
    prod = LAURENT.one
    for _ in range(n):
        prod = prod * T_MINUS_2
    assert associates(LAURENT, kern.order(), prod)


def test_mixed_boundary_sum_kernel(k946):
    disc = boundary_connect_sum(k946.disc("left"), k946.disc("right"))
    kern = disc_kernel_Q(disc)
    # the two orders are coprime, so the mixed kernel is cyclic
    assert kern.generating_rank == 1
    assert associates(LAURENT, kern.order(), T_MINUS_2 * T_MINUS_HALF)


def test_sum_module_matches_per_summand_invariants(k946, k61):
    k = connected_sum(k946.knot, k61.knot)
    m = alexander_module_Q(k)
    parts = [alexander_module_Q(k946.knot), alexander_module_Q(k61.knot)]
    assert m.generating_rank <= sum(p.generating_rank for p in parts)
    assert associates(LAURENT, m.order(), parts[0].order() * parts[1].order())


# ------------------------------------------------------------ branched cover


def test_branched_cover_6_1_is_z9(k61):
    cov = branched_double_cover(k61.knot)
    assert cov.ring is INTEGERS
    assert cov.torsion_invariants == (9,)
    assert cov.order() == 9


def test_branched_cover_9_46_is_z3_z3(k946):
    cov = branched_double_cover(k946.knot)
    assert cov.torsion_invariants == (3, 3)


def test_branched_cover_unknot_is_zero():
    assert branched_double_cover(UNKNOT).is_zero_module()


def test_branched_kernel_6_1_is_3z9(k61):
    ambient = branched_double_cover(k61.knot)
    kern = disc_kernel_Q(k61.disc("gamma"), ambient)
    assert kern.order() == 3
    assert kern.spans_equal(ambient.submodule_from_int_columns([(3, 0), (0, 3)]))


def test_branched_kernel_9_46_left_is_one_z3_factor(k946):
    kern = disc_kernel_Q(k946.disc("left"), branched_double_cover(k946.knot))
    assert kern.order() == 3
    assert kern.generating_rank == 1


def test_branched_kernel_unknot_disc_is_zero():
    disc = SurgeryDisc(UNKNOT, "trivial", ())
    assert disc_kernel_Q(disc, branched_double_cover(UNKNOT)).is_zero()


# -------------------------------------------------------------------- doubles


def test_double_of_right_disc(k946):
    model = double_of_disc(k946.disc("right"))
    assert model.generating_rank == 1
    assert model.module.order() == T_MINUS_2


def test_double_of_left_disc(k946):
    model = double_of_disc(k946.disc("left"))
    assert model.module.order() == T_MINUS_HALF


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sum_of_doubles_has_rank_m(k946, m):
    model = two_knot_sum(*([double_of_disc(k946.disc("right"))] * m))
    assert model.generating_rank == m
    assert len(model.summands) == m


def test_two_knot_sum_of_nothing_is_the_unknot():
    model = two_knot_sum()
    assert model.summands == ()
    assert model.module.is_zero_module()
    assert model.generating_rank == 0


def test_double_sign_convention_is_immaterial(k946):
    # coker of x -> (q(x), q(x)) is isomorphic to coker of x -> (q(x), -q(x))
    disc = k946.disc("right")
    ambient = alexander_module_Q(disc.knot)
    quotient = disc_quotient_Q(disc)
    target = direct_sum(LAURENT, quotient, quotient)
    n, w = ambient.ngens, quotient.relations.ncols
    ident = Mat.identity(ambient.ring, n)
    plus_map = _vstack(ident, ident)
    # (L; L) is column k of L, the first of A(D)'s relation columns, in both copies
    pad = Mat([[LAURENT.one if i == j else LAURENT.zero for j in range(n)] for i in range(w)], n)
    ModuleMap(ambient, target, plus_map, _vstack(pad, pad))  # well defined
    plus = target.quotient_by(plus_map)
    assert modules_isomorphic(plus, double_of_disc(disc).module)


def test_double_lift_catches_a_changed_sign_or_column_order(k946):
    disc = k946.disc("right")
    ambient = alexander_module_Q(disc.knot)
    quotient = disc_quotient_Q(disc)
    target = direct_sum(LAURENT, quotient, quotient)
    n, w = ambient.ngens, quotient.relations.ncols
    matrix = antidiagonal_columns(LAURENT, n)
    lift = antidiagonal_columns(LAURENT, n, w)
    ModuleMap(ambient, target, matrix, lift)  # the double's own certificate
    first_copy, _ = lift.split_rows(w)
    with pytest.raises(ValueError, match="relations"):  # the lift's sign flipped
        ModuleMap(ambient, target, matrix, _vstack(first_copy, first_copy))
    with pytest.raises(ValueError, match="relations"):  # the map's sign flipped
        ModuleMap(ambient, target, _vstack(*[Mat.identity(LAURENT, n)] * 2), lift)
    classes = disc_kernel_Q(disc, ambient).generators
    swapped = PresentedModule(LAURENT, hstack(classes, ambient.relations))
    with pytest.raises(ValueError, match="relations"):  # the classes' columns first
        ModuleMap(ambient, direct_sum(LAURENT, swapped, swapped), matrix, lift)
    bare = PresentedModule(LAURENT, classes)  # presented without L's columns
    bare_target = direct_sum(LAURENT, bare, bare)
    with pytest.raises(ValueError, match="lift is"):
        ModuleMap(ambient, bare_target, matrix, lift)
    no_lift = Mat([[LAURENT.zero] * n] * bare_target.relations.ncols, n)
    with pytest.raises(ValueError, match="relations"):
        ModuleMap(ambient, bare_target, matrix, no_lift)


def test_double_of_disc_runs_no_smith_form(monkeypatch, catalog, k946):
    # fresh copies: a catalog disc doubled earlier in the process returns its kept relations
    discs = [
        replace(d, knot=replace(d.knot))
        for e in catalog.values()
        for d in e.discs.values()
    ]
    discs.append(boundary_connect_sum(*[k946.disc("left"), k946.disc("right")] * 8))
    assert not any("_double_relations" in vars(d) for d in discs)

    def refuse(*args):
        raise AssertionError("a Smith form ran")

    monkeypatch.setattr(linalg, "_smith_block", refuse)
    for disc in discs:
        double_of_disc(disc)


def test_double_module_is_the_disc_quotient(catalog):
    for entry in catalog.values():
        for name in entry.discs:
            disc = entry.disc(name)
            assert modules_isomorphic(double_of_disc(disc).module, disc_quotient_Q(disc)), name


@pytest.mark.parametrize("seed", range(4))
def test_mixed_sum_of_doubles_has_rank_max_of_primary_counts(k946, k61, seed):
    # double(9_46.left) is Q[t^±1]/(t - 1/2); double(9_46.right) and double(6_1.gamma)
    # are Q[t^±1]/(t - 2), and coprime cyclic summands pair up into one generator
    p = double_of_disc(k946.disc("left"))
    qs = [double_of_disc(k946.disc("right")), double_of_disc(k61.disc("gamma"))]
    rng = random.Random(seed)
    count_p, count_q = rng.randint(0, 5), rng.randint(1, 5)
    models = [p] * count_p + [rng.choice(qs) for _ in range(count_q)]
    rng.shuffle(models)
    model = two_knot_sum(*models)
    assert model.generating_rank == max(count_p, count_q)
    assert len(model.summands) == count_p + count_q


# -------------------------------------------------------------- decorations


def test_local_2knot_changes_no_kernel(k946):
    disc = k946.disc("left")
    decorated = add_local_2knot(add_local_2knot(disc))
    assert decorated.local_2knots == 2
    assert disc_kernel_Q(decorated).spans_equal(disc_kernel_Q(disc))
    cover = branched_double_cover(disc.knot)
    assert disc_kernel_Q(decorated, cover).spans_equal(disc_kernel_Q(disc, cover))
    assert decorated.signature() == disc.signature()


def test_boundary_sum_accumulates_decorations(k946):
    d = add_local_2knot(k946.disc("left"))
    total = boundary_connect_sum(d, k946.disc("right"), d)
    assert total.local_2knots == 2


# ------------------------------------------- sparse validation of direct sums


def _random_seifert(rng) -> list:
    """A 2g x 2g integer matrix; about half are symmetric + standard, so unimodular."""
    n = 2 * rng.randint(1, 3)
    if rng.random() < 0.5:
        return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    for i in range(0, n, 2):
        rows[i][i + 1] += 1  # V - V^T is the standard symplectic form
    return rows


def _block_sum(matrices) -> list:
    return [list(r) for r in block_diag(INTEGERS, *(Mat(m, len(m)) for m in matrices)).rows]


def _check_seifert(rows) -> None:
    """Accepted iff det(V - V^T) = 1, else rejected with the Bareiss determinant."""
    n = len(rows)
    det = _det(INTEGERS, [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)])
    if det == 1:
        SeifertKnot("v", rows)
        return
    with pytest.raises(SchemaError, match=re.escape(f"det(V - V^T) = {det} for 'v'")):
        SeifertKnot("v", rows)


@pytest.mark.parametrize("seed", range(10))
def test_seifert_validation_of_sums_matches_determinant(seed):
    rng = random.Random(seed)
    summands = [_random_seifert(rng) for _ in range(rng.randint(2, 4))]
    for rows in summands:
        _check_seifert(rows)
    _check_seifert(_block_sum(summands))
    _check_seifert(_block_sum(summands[::-1]))


def _dense_curve_class(v, c) -> tuple:
    n = len(v)
    return tuple(sum(v[i][j] * c[i] for i in range(n)) for j in range(n))


def _dense_framing_failure(v, curves):
    """The first (i, j, c_i^T(V+V^T)c_j) that is nonzero, in (i, j) scan order, or None."""
    n = len(v)
    sym = [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]
    for i, ci in enumerate(curves):
        for j, cj in enumerate(curves):
            val = sum(ci[k] * sym[k][l] * cj[l] for k in range(n) for l in range(n))
            if val != 0:
                return i, j, val
    return None


def _dense_framing_error(v, curves):
    """The first framing failure as the disc reports it, or None."""
    failure = _dense_framing_failure(v, curves)
    if failure is None:
        return None
    i, j, val = failure
    return f"c^T(V+V^T)c = {val} at ({i + 1},{j + 1})"


@pytest.mark.parametrize("seed", range(10))
def test_sparse_curve_checks_match_dense_formulas(catalog, seed):
    rng = random.Random(seed)
    entries = [catalog[rng.choice(["9_46", "6_1"])] for _ in range(rng.randint(2, 5))]
    disc = boundary_connect_sum(*(e.disc(rng.choice(sorted(e.discs))) for e in entries))
    v = disc.knot.seifert.rows
    curves = [list(c) for c in linalg.transpose(disc.curves).rows]
    # perturb one curve in a few sparse coordinates, so most cases fail off the diagonal
    r = rng.randrange(len(curves))
    for k in rng.sample(range(len(v)), rng.randint(1, 2)):
        curves[r][k] += rng.choice([-1, 1])
    for c in curves:
        assert curve_class(disc.knot, c) == _dense_curve_class(v, c)
    error = _dense_framing_error(v, curves)
    if error is None:
        try:
            SurgeryDisc(disc.knot, "d", curves)
        except SchemaError as exc:  # a perturbed curve may leave the direct summand
            assert "direct summand" in str(exc)
        return
    with pytest.raises(SchemaError, match="0-framed") as exc:
        SurgeryDisc(disc.knot, "d", curves)
    assert error in str(exc.value)


def _random_curve_set(rng, disc) -> list:
    """The disc's curves, perturbed in a few coordinates, replaced at random, or kept."""
    n = 2 * disc.knot.genus
    curves = [list(c) for c in linalg.transpose(disc.curves).rows]
    mode = rng.choice(["perturb", "perturb", "random", "keep"])
    if mode == "random":
        return [[rng.choice((0, 0, 0, rng.randint(-2, 2))) for _ in range(n)] for _ in curves]
    if mode == "perturb":
        for r in rng.sample(range(len(curves)), rng.randint(1, 2)):
            for k in rng.sample(range(n), rng.randint(1, 2)):
                curves[r][k] += rng.choice([-1, 1])
    return curves


def test_indexed_framing_check_matches_dense_double_loop(catalog):
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(80):
        entries = [catalog[rng.choice(["9_46", "6_1"])] for _ in range(rng.randint(2, 6))]
        disc = boundary_connect_sum(*(e.disc(rng.choice(sorted(e.discs))) for e in entries))
        curves = _random_curve_set(rng, disc)
        failure = _dense_framing_failure(disc.knot.seifert.rows, curves)
        try:
            SurgeryDisc(disc.knot, "d", curves)
            raised = None
        except SchemaError as exc:
            raised = exc
        if failure is None:
            kinds.add("none")
            assert raised is None or raised.invariant == "curves not a direct summand"
            continue
        i, j, val = failure
        kinds.add("diagonal" if i == j else "off-diagonal")
        assert raised is not None and raised.invariant == "curves not 0-framed"
        assert raised.detail == f"c^T(V+V^T)c = {val} at ({i + 1},{j + 1})"
    assert kinds == {"none", "diagonal", "off-diagonal"}


def test_sum_pipeline_builds_no_dense_rows(monkeypatch, k946):
    def dense_rows(self):
        raise AssertionError("a dense view of a sparse matrix was built")

    monkeypatch.setattr(Mat, "rows", property(dense_rows))
    knot = connected_sum(*[k946.knot] * 64)  # validates V - V^T by SNF
    left = boundary_connect_sum(*[k946.disc("left")] * 64)  # validates the curves
    right = boundary_connect_sum(*[k946.disc("right")] * 64)
    ambient = alexander_module_Q(knot)
    dec = linalg.smith_normal_form(LAURENT, ambient.relations)
    assert (dec.u.nrows, dec.v.ncols, dec.rank) == (128, 128, 128)
    k1, k2 = disc_kernel_Q(left, ambient), disc_kernel_Q(right, ambient)
    kern = linalg.kernel_basis(LAURENT, linalg.hstack(k1.generators, ambient.relations))
    assert (kern.nrows, kern.ncols) == (64 + 128, 64)
    q12, q21 = relative_quotients(k1, k2)
    assert (q12.generating_rank, q21.generating_rank) == (64, 64)
    assert submodule_intersection(k1, k2).is_zero()


def test_presentation_of_sum_is_block_diagonal_with_shared_zeros(k946, k61):
    pres = alexander_presentation(connected_sum(k946.knot, k61.knot))
    parts = [alexander_presentation(k946.knot), alexander_presentation(k61.knot)]
    assert pres == block_diag(LAURENT, *parts)
    # zero entries are the ring's own zero, which the SNF block split skips cheaply
    assert all(x is LAURENT.zero for row in pres.rows for x in row if not x)
    gens = alexander_module_Q(k946.knot).submodule_from_int_columns([(1, 0)]).generators
    assert gens.rows[1][0] is LAURENT.zero


def _nested(rng, parts, join):
    """join over parts, or over sums of a random split of them: `sum(...)` inside `sum(...)`."""
    if len(parts) < 4 or rng.random() < 0.5:
        return join(*parts)
    cut = rng.randrange(2, len(parts) - 1)
    return join(join(*parts[:cut]), *parts[cut:])


@pytest.mark.parametrize("seed", range(6))
def test_sum_matrices_are_the_summands_own(catalog, seed):
    """A sum's t*V - V^T and V^T C: as built from its own V and C, of its summands' entries."""
    rng = random.Random(seed)
    recorded = set()
    for size in (2, 3, 4, 8, 12):
        ids = [rng.choice(("9_46", "6_1", "unknot") if size <= 4 else ("9_46", "6_1"))
               for _ in range(size)]
        leaves = [catalog[i] for i in ids]
        knot = _nested(rng, [e.knot for e in leaves], connected_sum)
        discs = [rng.choice(list(e.discs.values())) for e in leaves]
        disc = _nested(rng, discs, boundary_connect_sum)
        assert knot.summands == tuple(e.knot for e in leaves)
        assert knot.summands == tuple(d.knot for d in disc.summands)
        assert disc.summands == tuple(discs) and disc.knot == knot
        v, v_t = knot.seifert, linalg.transpose(knot.seifert)
        classes = linalg.mat_mul(INTEGERS, v_t, disc.curves)
        for ring in (LAURENT, INTEGERS, EISENSTEIN):
            pres = alexander_presentation(knot, ring)
            assert pres == linalg.zip_entries(ring, knots._T_TIMES_X_MINUS_Y[ring], v, v_t)
            gens = disc_kernel_Q(disc, PresentedModule(ring, pres)).generators
            assert gens == classes.map_entries(ring.from_int)
            own_classes = [
                disc_kernel_Q(d, PresentedModule(ring, alexander_presentation(d.knot, ring)))
                for d in discs
            ]
            for own, mats in [
                (pres, [alexander_presentation(e.knot, ring) for e in leaves]),
                (gens, [k.generators for k in own_classes]),
            ]:
                entries = {id(x) for m in mats for line in m.lines for _, x in line}
                assert all(id(x) in entries for line in own.lines for _, x in line)
            recorded.add(pres._blocks is not None)
    assert recorded == {False, True}


def test_boundary_sum_rejects_a_knot_with_other_summands(k946, k61):
    left, right = k946.disc("left"), k946.disc("right")
    assert boundary_connect_sum(left, right, knot=connected_sum(k946.knot, k946.knot)).summands
    for knot in (k946.knot, connected_sum(k946.knot, k61.knot)):
        with pytest.raises(ValueError, match="not the connected sum"):
            boundary_connect_sum(left, right, knot=knot)


def test_boundary_sum_takes_decorated_and_hand_built_discs_on_sums(k946, k61):
    """A disc on a sum knot that keeps no summands of its own is one summand of a larger sum."""
    pair = boundary_connect_sum(k946.disc("left"), k946.disc("right"))
    decorated = add_local_2knot(pair)
    assert decorated.summands == pair.summands
    by_hand = SurgeryDisc(pair.knot, "by hand", pair.curves)
    gamma = k61.disc("gamma")
    whole = boundary_connect_sum(pair, gamma)
    for disc in (decorated, by_hand):
        for knot in (None, connected_sum(k946.knot, k946.knot, k61.knot)):
            total = boundary_connect_sum(disc, gamma, knot=knot)
            assert total.knot == whole.knot and total.curves == whole.curves
            assert disc_kernel_Q(total).generators == disc_kernel_Q(whole).generators


def test_sum_validation_reduces_each_distinct_block_once(monkeypatch, k946, fresh_memo):
    calls = []
    real = linalg._smith_block

    def counted(*args):
        calls.append(args[1].nrows)
        return real(*args)

    monkeypatch.setattr(linalg, "_smith_block", counted)
    counts = []
    for copies in (2, 8, 64):
        calls.clear()
        for cache in fresh_memo:  # the memo would keep the last sum's blocks
            cache.cache_clear()
        connected_sum(*[k946.knot] * copies)
        counts.append(len(calls))
    # V - V^T of 9_46 splits into two 1x1 blocks; more copies add no distinct block
    assert counts == [2, 2, 2]
