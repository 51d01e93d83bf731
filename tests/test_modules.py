"""Finitely presented modules over a PID: ranks, orders, submodule calculus.

Finite Z-module claims are cross-checked against the exhaustive oracle
tables; that is the contract the fancier rings inherit through SNF.
"""

import itertools
import random
from fractions import Fraction

import pytest

from stabkit import linalg, modules
from stabkit.bounds import kernel_quotient_ranks
from stabkit.catalog import builtin_catalog
from stabkit.knots import alexander_module_Q, boundary_connect_sum, connected_sum, disc_kernel_Q
from stabkit.linalg import Mat, smith_normal_form
from stabkit.modules import (
    ModuleMap,
    PresentedModule,
    Submodule,
    direct_sum,
    kernel_pair,
    modules_isomorphic,
    pair_quotients,
    quotient_of_submodules,
    relative_quotients,
    submodule_intersection,
)
from stabkit.oracles import FiniteModuleTable, brute_submodule_ops
from stabkit.propsuite import _random_eisenstein, _random_int, _random_laurent, _random_mat
from stabkit.rings import EISENSTEIN, INTEGERS, LAURENT, EisensteinInt, LaurentPolyQ


def z_module(*factors):
    n = len(factors)
    return PresentedModule(
        INTEGERS, Mat([[factors[i] if i == j else 0 for j in range(n)] for i in range(n)], n)
    )


def _whole(m):
    """The submodule spanned by all generators of m."""
    return Submodule(m, Mat.identity(m.ring, m.ngens))


def _zero(m):
    """The zero submodule of m: no generator columns."""
    return Submodule(m, Mat([() for _ in range(m.ngens)], 0))


def test_generating_rank_counts_nonunit_factors():
    assert z_module().generating_rank == 0
    assert z_module(1, 1).generating_rank == 0
    assert z_module(1, 6).generating_rank == 1
    assert z_module(2, 3).generating_rank == 1  # coprime: Z/2 + Z/3 is cyclic
    assert z_module(3, 3).generating_rank == 2


def test_gr_of_crt_pair_is_one_after_snf():
    # relations diag(2,3) on crossed generators: cyclic of order 6
    m = PresentedModule(INTEGERS, Mat([[2, 1], [0, 3]], 2))
    assert m.generating_rank == 1
    assert m.order() == 6


def test_free_rank_and_order_zero():
    m = PresentedModule(INTEGERS, Mat([[2, 0], [0, 0]], 2))
    assert m.free_rank == 1
    assert m.order() == 0


def test_order_of_finite_module():
    assert z_module(9).order() == 9
    assert z_module(3, 3).order() == 9
    assert z_module().order() == 1


@pytest.mark.parametrize(
    "ring, entry",
    [
        (INTEGERS, _random_int),
        (LAURENT, _random_laurent),
        (EISENSTEIN, _random_eisenstein),
    ],
    ids=["Z", "Laurent", "Eisenstein"],
)
def test_order_is_the_running_product_over_the_whole_diagonal(monkeypatch, ring, entry):
    rng = random.Random(23)
    free = 0
    matrices, cold = [], []
    for _ in range(30):
        n = rng.randint(1, 4)
        m = _random_mat(rng, entry, n)
        if rng.random() < 0.3:  # a zero column (and row): free rank > 0
            k = rng.randrange(n)
            m = Mat([[x if k not in (i, j) else ring.zero for j, x in enumerate(row)]
                     for i, row in enumerate(m.rows)], n)
        monkeypatch.setattr(linalg, "_tables", {})
        cold.append(PresentedModule(ring, m).order())
        matrices.append(m)
    for m, order in zip(matrices, cold):
        module = PresentedModule(ring, m)
        acc = ring.one
        for x in smith_normal_form(ring, m, with_u=False, with_v=False).diagonal:
            acc = acc * x
        assert module.order() == ring.canonical(acc)[0] == order
        assert (module.order() == ring.zero) == (module.free_rank > 0)
        free += module.free_rank > 0
    assert free > 0
    # one memo for all thirty, twice over: the second pass finds every chain and product kept
    for _ in range(2):
        assert [PresentedModule(ring, m).order() for m in matrices] == cold


def test_iso_invariants_and_isomorphism():
    assert modules_isomorphic(z_module(2, 12), z_module(12, 2))
    assert not modules_isomorphic(z_module(4), z_module(2, 2))
    assert z_module(2, 12).iso_invariants() == (0, (2, 12))


def test_direct_sum_block_structure():
    s = direct_sum(INTEGERS, z_module(2), z_module(3))
    assert s.ngens == 2
    assert s.order() == 6


@pytest.mark.parametrize("ring", [INTEGERS, LAURENT, EISENSTEIN], ids=lambda r: r.name)
def test_direct_sum_of_nothing_is_the_zero_module(ring):
    zero = direct_sum(ring)
    assert zero.ring is ring
    assert (zero.ngens, zero.relations.ncols) == (0, 0)
    assert zero.is_zero_module() and zero.iso_invariants() == (0, ())
    assert zero.order() == ring.one
    assert direct_sum(ring, zero, zero) == zero
    unit = PresentedModule(ring, Mat.identity(ring, 1))
    assert modules_isomorphic(direct_sum(ring, zero, unit), zero)


def test_direct_sum_rejects_mixed_rings():
    eisenstein = PresentedModule(EISENSTEIN, Mat([[EISENSTEIN.from_int(3)]], 1))
    with pytest.raises(ValueError, match="mixed rings"):
        direct_sum(INTEGERS, z_module(3), eisenstein)
    with pytest.raises(ValueError, match="mixed rings"):
        direct_sum(EISENSTEIN, z_module(3))


def test_submodule_membership_and_span_equality():
    m = z_module(9)
    three = m.submodule_from_int_columns([(3,)])
    six = m.submodule_from_int_columns([(6,)])
    assert three.spans_equal(six)
    assert three.contains(m.submodule_from_int_columns([(6,)]))
    assert not three.contains(_whole(m))
    assert _zero(m).is_zero()
    assert not three.is_zero()


def test_submodule_presentation_and_order():
    m = z_module(9)
    three = m.submodule_from_int_columns([(3,)])
    pres = three.presentation
    assert pres.torsion_invariants == (3,)
    assert three.order() == 3


def test_intersection_and_sum_against_oracle():
    rng = random.Random(7)
    for _ in range(40):
        factors = tuple(sorted(rng.choice((2, 3, 4, 9)) for _ in range(rng.randint(1, 2))))
        table = FiniteModuleTable(factors)
        module = z_module(*factors)
        g1 = [tuple(rng.randrange(d) for d in factors) for _ in range(rng.randint(0, 2))]
        g2 = [tuple(rng.randrange(d) for d in factors) for _ in range(rng.randint(0, 2))]
        s1 = module.submodule_from_int_columns(g1)
        s2 = module.submodule_from_int_columns(g2)
        want = brute_submodule_ops(table, g1, g2)
        inter = submodule_intersection(s1, s2)
        got_inter = {
            tuple(table.reduce([x for x in col]))
            for col in _int_columns(inter.generators)
        }
        assert table.span(got_inter or [table.zero()]) == want["intersection"]
        assert table.span(
            _int_columns(s1.sum(s2).generators) or [table.zero()]
        ) == want["sum"]


def test_relative_quotients_against_oracle():
    rng = random.Random(11)
    for _ in range(40):
        factors = tuple(sorted(rng.choice((2, 3, 4, 6, 9)) for _ in range(rng.randint(1, 2))))
        table = FiniteModuleTable(factors)
        module = z_module(*factors)
        g1 = [tuple(rng.randrange(d) for d in factors) for _ in range(rng.randint(0, 3))]
        g2 = [tuple(rng.randrange(d) for d in factors) for _ in range(rng.randint(0, 3))]
        s1 = module.submodule_from_int_columns(g1)
        s2 = module.submodule_from_int_columns(g2)
        want = brute_submodule_ops(table, g1, g2)
        common = len(want["intersection"])
        q1, q2 = relative_quotients(s1, s2)
        assert (q1.ngens, q2.ngens) == (len(g1), len(g2))
        assert q1.order() == len(want["span1"]) // common
        assert q2.order() == len(want["span2"]) // common
        assert q1.iso_invariants() == quotient_of_submodules(s1, s2).iso_invariants()
        assert q2.iso_invariants() == quotient_of_submodules(s2, s1).iso_invariants()


def test_intersection_order_against_oracle():
    # the inputs of test_relative_quotients_against_oracle
    rng = random.Random(11)
    for _ in range(40):
        factors = tuple(sorted(rng.choice((2, 3, 4, 6, 9)) for _ in range(rng.randint(1, 2))))
        table = FiniteModuleTable(factors)
        module = z_module(*factors)
        g1 = [tuple(rng.randrange(d) for d in factors) for _ in range(rng.randint(0, 3))]
        g2 = [tuple(rng.randrange(d) for d in factors) for _ in range(rng.randint(0, 3))]
        s1 = module.submodule_from_int_columns(g1)
        s2 = module.submodule_from_int_columns(g2)
        want = brute_submodule_ops(table, g1, g2)
        inter = submodule_intersection(s1, s2)
        got = pair_quotients(s1, s2)[2]
        assert got == inter.order() == len(want["intersection"])
        assert (got == 1) is inter.is_zero()


def test_intersection_order_on_disc_kernels():
    # sums of 1-4 summands of 9_46 and 6_1, every pair of disc choices
    catalog = builtin_catalog()
    rng = random.Random(8)
    pairs = nonzero = 0
    for size in (1, 2, 3, 4) * 2:
        leaves = [catalog[rng.choice(("9_46", "6_1"))] for _ in range(size)]
        knot = connected_sum(*(e.knot for e in leaves))
        ambient = alexander_module_Q(knot)
        kernels = [
            disc_kernel_Q(boundary_connect_sum(*choice, knot=knot), ambient)
            for choice in itertools.product(*(e.discs.values() for e in leaves))
        ]
        for k1, k2 in itertools.combinations(kernels, 2):
            inter = submodule_intersection(k1, k2)
            got = pair_quotients(k1, k2)[2]
            assert got == inter.order()
            assert (got == LAURENT.one) is inter.is_zero()
            pairs += 1
            nonzero += not inter.is_zero()
    assert 0 < nonzero < pairs


def test_intersection_order_rejects_a_module_that_is_not_torsion():
    free = PresentedModule(INTEGERS, Mat([[0]], 1))
    s = _whole(free)
    with pytest.raises(ValueError, match="not torsion"):
        pair_quotients(s, _zero(free))


def test_intersection_order_rejects_a_quotient_whose_order_does_not_divide(monkeypatch):
    # q12 of order 2 cannot be a quotient of a submodule of order 9
    module = z_module(9)
    monkeypatch.setattr(modules, "relative_quotients", lambda s1, s2: (z_module(2), z_module()))
    with pytest.raises(ValueError, match="not divisible"):
        pair_quotients(_whole(module), _zero(module))


def test_kernel_pair_assembles_slot_by_slot():
    a, b = z_module(4), z_module(3, 9)
    k1, k2 = kernel_pair(
        INTEGERS,
        [(a, Mat([[2]], 1), Mat([[1]], 1)), (b, Mat([[1], [0]], 1), Mat([[0, 1], [3, 0]], 2))],
    )
    assert k1.ambient is k2.ambient
    assert k1.ambient.relations == direct_sum(INTEGERS, a, b).relations
    assert k1.generators.rows == ((2, 0), (0, 1), (0, 0))
    assert k2.generators.rows == ((1, 0, 0), (0, 0, 1), (0, 3, 0))
    assert kernel_quotient_ranks(k1, k2) == (0, 1)
    z1, z2 = kernel_pair(LAURENT, [])
    assert z1.ambient.ngens == 0 and z1.generators.ncols == z2.generators.ncols == 0


def test_membership_against_oracle():
    rng = random.Random(13)
    for _ in range(40):
        factors = tuple(sorted(rng.choice((2, 3, 4, 6, 9)) for _ in range(rng.randint(1, 2))))
        table = FiniteModuleTable(factors)
        module = z_module(*factors)
        g1 = [tuple(rng.randrange(d) for d in factors) for _ in range(rng.randint(0, 3))]
        g2 = [tuple(rng.randrange(d) for d in factors) for _ in range(rng.randint(0, 3))]
        s1 = module.submodule_from_int_columns(g1)
        s2 = module.submodule_from_int_columns(g2)
        span1 = table.span(g1 or [table.zero()])
        span2 = table.span(g2 or [table.zero()])
        assert s1.contains_columns(s2.generators) == (span2 <= span1)
        assert s1.contains(s2) == (span2 <= span1)
        assert s2.contains(s1) == (span1 <= span2)
        assert s1.spans_equal(s2) == (span1 == span2)
        for v in g2:
            single = module.submodule_from_int_columns([v]).generators
            assert s1.contains_columns(single) == (table.reduce(v) in span1)

    # over Q[t^±1] and Z[w]: members up to a unit factor, and non-members
    p, q = LaurentPolyQ({0: -2, 1: 1}), LaurentPolyQ({0: -1, 1: 2})
    unit = LaurentPolyQ({-2: Fraction(-3, 2)})
    module = PresentedModule(LAURENT, Mat([[p * q]], 1))
    span_q = Submodule(module, Mat([[q]], 1))
    assert span_q.contains_columns(Mat([[unit * q]], 1))
    assert span_q.contains_columns(Mat([[unit * q + p * q * p]], 1))
    assert span_q.spans_equal(Submodule(module, Mat([[unit * q]], 1)))
    assert not span_q.contains_columns(Mat([[p]], 1))
    assert not span_q.contains_columns(Mat([[LAURENT.one]], 1))
    free = PresentedModule(LAURENT, Mat([(), ()], 0))
    column = Submodule(free, Mat([[p], [q]], 1))
    assert column.contains_columns(Mat([[unit * p], [unit * q]], 1))
    assert not column.contains_columns(Mat([[unit * p], [q]], 1))
    assert not column.contains_columns(Mat([[p * q], [q]], 1))

    pi = EisensteinInt(2, -1)  # norm 7; 7 = pi * conj(pi) with conj(pi) not an associate
    w = EisensteinInt(0, 1)
    module = PresentedModule(EISENSTEIN, Mat([[EISENSTEIN.from_int(7)]], 1))
    span_pi = Submodule(module, Mat([[pi]], 1))
    assert span_pi.contains_columns(Mat([[w * pi]], 1))
    assert span_pi.contains_columns(Mat([[(w + EISENSTEIN.one) * pi + EISENSTEIN.from_int(7)]], 1))
    assert span_pi.spans_equal(Submodule(module, Mat([[-(w * pi)]], 1)))
    assert not span_pi.contains_columns(Mat([[pi.conj()]], 1))
    assert not span_pi.contains_columns(Mat([[EISENSTEIN.one]], 1))
    free = PresentedModule(EISENSTEIN, Mat([(), ()], 0))
    column = Submodule(free, Mat([[pi], [EISENSTEIN.one]], 1))
    assert column.contains_columns(Mat([[w * pi], [w]], 1))
    assert not column.contains_columns(Mat([[w * pi], [EISENSTEIN.one]], 1))


def test_relative_quotients_require_matching_ambient():
    a, b = z_module(9), z_module(3)
    with pytest.raises(ValueError):
        relative_quotients(_whole(a), _whole(b))


def test_one_kernel_per_submodule_pair(monkeypatch):
    calls = []
    real = modules.kernel_basis

    def counting(ring, m):
        calls.append(m.ncols)
        return real(ring, m)

    monkeypatch.setattr(modules, "kernel_basis", counting)
    g1, g2 = [(2, 0, 1), (0, 3, 0)], [(2, 2, 0), (0, 0, 1)]
    m = z_module(4, 6, 3)
    s1 = m.submodule_from_int_columns(g1)
    s2 = m.submodule_from_int_columns(g2)
    ranks = kernel_quotient_ranks(s1, s2)
    assert len(calls) == 1
    inter = submodule_intersection(s1, s2)
    assert len(calls) == 2
    want = brute_submodule_ops(FiniteModuleTable((4, 6, 3)), g1, g2)
    assert inter.order() == len(want["intersection"]) > 1
    assert len(calls) == 3
    assert not inter.is_zero()
    assert len(calls) == 3
    assert ranks == (
        quotient_of_submodules(s1, s2).generating_rank,
        quotient_of_submodules(s2, s1).generating_rank,
    )


def _int_columns(mat: Mat):
    return [tuple(row[j] for row in mat.rows) for j in range(mat.ncols)]


def test_quotient_of_submodules():
    m = z_module(9)
    top = _whole(m)
    bottom = m.submodule_from_int_columns([(3,)])
    q = quotient_of_submodules(top, bottom)
    assert q.torsion_invariants == (3,)
    same = quotient_of_submodules(bottom, bottom)
    assert same.is_zero_module()


def test_quotient_requires_matching_ambient():
    a, b = z_module(9), z_module(3)
    with pytest.raises(ValueError):
        quotient_of_submodules(_whole(a), _whole(b))


def test_module_map_validation():
    src = z_module(4)
    dst = z_module(2)
    f = ModuleMap(src, dst, Mat([[1]]), Mat([[2]]))  # 1 * 4 = 2 * 2
    assert dst.quotient_by(f.matrix).is_zero_module()
    # 1 mod 2 -> 1 mod 4 is not well defined: 1 * 2 = 4 * x has no integer solution
    for x in range(-3, 4):
        with pytest.raises(ValueError, match="relations"):
            ModuleMap(dst, src, Mat([[1]]), Mat([[x]]))


def test_module_map_rejects_a_wrong_lift():
    src, dst = z_module(4), z_module(2)
    with pytest.raises(ValueError, match="relations"):
        ModuleMap(src, dst, Mat([[1]]), Mat([[1]]))  # 1 * 4 is not 2 * 1
    for rows in ([[2, 0]], [[2], [0]]):
        with pytest.raises(ValueError, match="lift is"):
            ModuleMap(src, dst, Mat([[1]]), Mat(rows))


def test_map_kernel_image_cokernel():
    src = z_module(6)
    dst = z_module(3)
    f = ModuleMap(src, dst, Mat([[1]]), Mat([[2]]))  # 1 * 6 = 3 * 2
    assert dst.quotient_by(f.matrix).is_zero_module()
    img = Submodule(dst, f.matrix)
    assert img.spans_equal(_whole(dst))
    # 3 generates the kernel: its image vanishes, and the image of 1 does not
    assert Submodule(dst, Mat([[3]])).is_zero()
    assert not img.is_zero()


def test_quotient_by():
    m = z_module(9)
    assert m.quotient_by(Mat([[1]])).is_zero_module()
    q = m.quotient_by(Mat([[6]]))
    assert q.ngens == m.ngens
    assert q.torsion_invariants == (3,)
    assert m.quotient_by(Mat([[]], 0)).iso_invariants() == m.iso_invariants()


def test_laurent_module_example():
    tm2 = LaurentPolyQ({0: -2, 1: 1})
    two_tm1 = LaurentPolyQ({0: -1, 1: 2})
    m = PresentedModule(LAURENT, Mat([[tm2, LAURENT.zero], [LAURENT.zero, two_tm1]], 2))
    assert m.generating_rank == 1  # coprime orders merge into one cyclic factor
    assert str(m.order()) == "1 - 5/2*t + t^2"


def test_relations_contain_columns():
    m = z_module(9)
    assert _zero(m).contains_columns(Mat([[9], [0]][:1], 1))
    assert not _zero(m).contains_columns(Mat([[3]], 1))
