"""Seeded randomized property suites, shared by the CLI and the test suite.

Each suite draws its cases from a private random.Random(seed), checks the
main code path against an independent oracle or a ring axiom, and raises
AssertionError with a reproducer note on the first mismatch.  Finite-module
claims are checked over Z; Laurent and Eisenstein claims are exercised at the
ring level where the oracle (determinantal divisors, division axioms) is
direct.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .linalg import Mat, mat_mul, smith_normal_form
from .metabelian import character_selection
from .modules import PresentedModule
from .oracles import (
    FiniteModuleTable,
    brute_generating_rank,
    brute_spanning_rank,
    brute_subgroup_rank,
)
from .rings import EISENSTEIN, INTEGERS, LAURENT, EisensteinInt, LaurentPolyQ


def _random_int(rng: random.Random) -> int:
    return rng.randint(-9, 9)


def _random_laurent(rng: random.Random) -> LaurentPolyQ:
    if rng.random() < 0.4:
        return LAURENT.zero
    terms = {}
    lo = rng.randint(-1, 0)
    for e in range(lo, lo + rng.randint(1, 4)):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            terms[e] = c
    return LaurentPolyQ(terms) if terms else LAURENT.zero


def _random_eisenstein(rng: random.Random) -> EisensteinInt:
    return EisensteinInt(rng.randint(-4, 4), rng.randint(-4, 4))


def _random_mat(rng: random.Random, entry, n: int) -> Mat:
    """An n x n matrix of entry(rng) draws, row by row."""
    return Mat([[entry(rng) for _ in range(n)] for _ in range(n)], n)


def _check_snf_against_minors(ring, m: Mat, note: str, with_transforms: bool):
    from .oracles import minor_gcd_divisors

    dec = smith_normal_form(ring, m, with_u=with_transforms, with_v=with_transforms)
    pivots = dec.diagonal[: dec.rank]
    for a, b in zip(pivots, pivots[1:]):
        _, r = divmod(b, a)
        assert not r, f"divisibility chain broken {note}"
    divisors = minor_gcd_divisors(ring, m.rows)
    prod = ring.one
    for k, dk in enumerate(divisors, start=1):
        if k <= dec.rank:
            prod = ring.canonical(prod * pivots[k - 1])[0]
            assert prod == dk, (
                f"invariant-factor product differs from determinantal divisor "
                f"at k={k} {note}"
            )
        else:
            assert not dk, f"divisor beyond rank nonzero at k={k} {note}"
    if with_transforms:
        umv = mat_mul(ring, mat_mul(ring, dec.u, m), dec.v)
        diag = dec.diagonal
        assert all(
            x == (diag[i] if i == j else ring.zero)
            for i, row in enumerate(umv.rows)
            for j, x in enumerate(row)
        ), f"U*M*V != D {note}"


def _snf_suite(ring, entry, label: str, every: int, seed: int, cases: int) -> int:
    """Random 4 x 4 matrices against their minors; every `every`-th case checks U*M*V = D too."""
    rng = random.Random(seed)
    for i in range(cases):
        m = _random_mat(rng, entry, 4)
        _check_snf_against_minors(ring, m, f"({label}, seed={seed}, case={i})", i % every == 0)
    return cases


def suite_snf_integers(seed: int, cases: int) -> int:
    return _snf_suite(INTEGERS, _random_int, "integers", 1, seed, cases)


def suite_snf_laurent(seed: int, cases: int) -> int:
    return _snf_suite(LAURENT, _random_laurent, "laurent", 5, seed, cases)


def suite_snf_eisenstein(seed: int, cases: int) -> int:
    return _snf_suite(EISENSTEIN, _random_eisenstein, "eisenstein", 1, seed, cases)


def suite_eisenstein_division(seed: int, cases: int) -> int:
    rng = random.Random(seed)
    done = 0
    while done < cases:
        a = EisensteinInt(rng.randint(-50, 50), rng.randint(-50, 50))
        b = EisensteinInt(rng.randint(-12, 12), rng.randint(-12, 12))
        if not b:
            continue
        q, r = divmod(a, b)
        note = f"(seed={seed}, case={done}, a={a!r}, b={b!r})"
        assert q * b + r == a, f"division identity fails {note}"
        assert 4 * r.norm() <= 3 * b.norm(), f"remainder too large {note}"
        assert r.norm() < b.norm(), f"remainder not smaller {note}"
        done += 1
    return cases


_FACTOR_POOL = (2, 2, 3, 3, 4, 5, 6, 8, 9, 12)


def _random_finite_module(rng: random.Random):
    while True:
        k = rng.randint(0, 3)
        factors = tuple(sorted(rng.choice(_FACTOR_POOL) for _ in range(k)))
        size = 1
        for d in factors:
            size *= d
        if size <= 144:
            break
    table = FiniteModuleTable(factors)
    module = PresentedModule(
        INTEGERS, Mat([[factors[i] if i == j else 0 for j in range(k)] for i in range(k)], k)
    )
    return table, module


def _random_columns(rng: random.Random, table: FiniteModuleTable, count: int) -> list:
    cols = []
    for _ in range(count):
        cols.append(tuple(rng.randrange(d) for d in table.factors))
    return cols


def _brute_quotient_rank(table: FiniteModuleTable, sub_gens: list) -> int:
    """Least k with span(sub ∪ {k extra elements}) = everything."""
    base = table.span_codes(sub_gens)
    # elements already spanned cannot enlarge the span
    codes = [c for c in range(table.size()) if c not in base]
    return brute_spanning_rank(table, codes, base, table.size())


def suite_generating_rank_lemma(seed: int, cases: int) -> int:
    rng = random.Random(seed)
    for i in range(cases):
        table, module = _random_finite_module(rng)
        note = f"(seed={seed}, case={i}, factors={table.factors})"
        gr_m = module.generating_rank
        assert gr_m == brute_generating_rank(table), f"gr(M) oracle mismatch {note}"
        cols = _random_columns(rng, table, rng.randint(0, 2))
        sub = module.submodule_from_int_columns(cols)
        gr_sub = sub.generating_rank
        assert gr_sub == brute_subgroup_rank(table, table.span(cols)), (
            f"gr(N) oracle mismatch {note}"
        )
        gr_quot = module.quotient_by(sub.generators).generating_rank
        assert gr_quot == _brute_quotient_rank(table, cols), f"gr(M/N) oracle mismatch {note}"
        assert gr_quot <= gr_m, f"surjection inequality fails {note}"
        assert gr_sub <= gr_m, f"submodule inequality fails {note}"
        assert gr_quot >= gr_m - gr_sub, f"short-exact-sequence inequality fails {note}"
    return cases


def suite_cyclic_quotient_drop(seed: int, cases: int) -> int:
    rng = random.Random(seed)
    for i in range(cases):
        table, module = _random_finite_module(rng)
        note = f"(seed={seed}, case={i}, factors={table.factors})"
        cols = _random_columns(rng, table, 1)
        sub = module.submodule_from_int_columns(cols)
        gr_after = module.quotient_by(sub.generators).generating_rank
        drop = module.generating_rank - gr_after
        assert 0 <= drop <= 1, f"gr drop {drop} outside {{0,1}} {note}"
        assert gr_after == _brute_quotient_rank(table, cols), (
            f"quotient rank oracle mismatch {note}"
        )
    return cases


def _f3_dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y)) % 3


def suite_character_selection(seed: int, cases: int) -> int:
    rng = random.Random(seed)
    for i in range(cases):
        n = rng.randint(0, 9)
        m = rng.randint(0, n) if n else 0
        constraints = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(m)]
        chi = character_selection(n, constraints)
        note = f"(seed={seed}, case={i}, n={n}, constraints={constraints})"
        assert len(chi) == n, f"wrong length {note}"
        for c in constraints:
            assert _f3_dot(chi.values, c) == 0, f"constraint violated {note}"
        assert chi.m_nonzero >= n - m, f"support below n-m {note}"
        solutions = [
            v
            for v in itertools.product(range(3), repeat=n)
            if all(_f3_dot(v, c) == 0 for c in constraints)
        ]
        best = max((sum(1 for x in v if x) for v in solutions), default=0)
        assert chi.values in set(solutions), f"output outside solution space {note}"
        assert best >= n - m, f"lemma bound fails exhaustively {note}"
    return cases


SUITES = {
    "snf_integers": suite_snf_integers,
    "snf_laurent": suite_snf_laurent,
    "snf_eisenstein": suite_snf_eisenstein,
    "eisenstein_division": suite_eisenstein_division,
    "generating_rank_lemma": suite_generating_rank_lemma,
    "cyclic_quotient_drop": suite_cyclic_quotient_drop,
    "character_selection": suite_character_selection,
}

DEFAULT_SEED = 20260814
DEFAULT_CASES = 200


def run_all(seed: int, cases: int, emit) -> bool:
    ok = True
    for name, fn in SUITES.items():
        try:
            n = fn(seed, cases)
            emit(f"PASS {name} ({n} cases, seed {seed})")
        except AssertionError as e:
            ok = False
            emit(f"FAIL {name}: {e}")
    return ok
