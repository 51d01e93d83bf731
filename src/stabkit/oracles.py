"""Independent brute-force oracles used by the test suite.

Nothing here touches the Smith normal form engine or the module calculus:
results come from explicit element enumeration (finite Z- and F3-modules) or
from first-principles minor expansions, so they can referee those algorithms.

Enumeration is capped: instances larger than the cap (env STABKIT_CAP,
default 200 elements) raise OracleCapExceeded rather than stall.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .rings import canonical_associate, euclid_gcd


def oracle_cap() -> int:
    return int(os.environ.get("STABKIT_CAP", "200"))


class OracleCapExceeded(RuntimeError):
    pass


def _minor_dets(ring, rows: Sequence[Sequence[object]], k: int) -> Iterable[object]:
    nr, nc = len(rows), len(rows[0]) if rows else 0

    def det(ridx: tuple, cidx: tuple):
        if len(ridx) == 1:
            return rows[ridx[0]][cidx[0]]
        acc = ring.zero
        sign = True
        for pos, c in enumerate(cidx):
            x = rows[ridx[0]][c]
            if x:
                sub = det(ridx[1:], cidx[:pos] + cidx[pos + 1 :])
                term = x * sub
                acc = acc + term if sign else acc - term
            sign = not sign
        return acc

    for ridx in itertools.combinations(range(nr), k):
        for cidx in itertools.combinations(range(nc), k):
            yield det(ridx, cidx)


def minor_gcd_divisors(ring, rows: Sequence[Sequence[object]]) -> tuple:
    """The k-th determinantal divisor (gcd of all k x k minors) for each k.

    For a matrix in Smith normal form with diagonal d1 | d2 | ... the k-th
    entry equals d1*...*dk up to a unit, which is what tests compare against.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    out = []
    for k in range(1, min(nr, nc) + 1):
        g = ring.zero
        for m in _minor_dets(ring, rows, k):
            g = euclid_gcd(ring, g, m)
        out.append(canonical_associate(ring, g))
    return tuple(out)


@dataclass(frozen=True)
class FiniteModuleTable:
    """An explicit finite abelian group ⊕ Z/d_i with elementwise arithmetic.

    Elements are tuples of residues.  Scalars act as plain integers, which is
    the Z-module structure; for modulus-3 factors this doubles as the F3
    structure.
    """

    factors: tuple

    def __post_init__(self):
        if any(d <= 0 for d in self.factors):
            raise ValueError("factors must be positive (finite modules only)")
        if self.size() > oracle_cap():
            raise OracleCapExceeded(
                f"module with {self.size()} elements exceeds cap {oracle_cap()}"
            )

    def size(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    def zero(self) -> tuple:
        return (0,) * len(self.factors)

    def elements(self) -> list[tuple]:
        return [tuple(e) for e in itertools.product(*(range(d) for d in self.factors))]

    def reduce(self, vec: Sequence[int]) -> tuple:
        if len(vec) != len(self.factors):
            raise ValueError("wrong coordinate count")
        return tuple(x % d for x, d in zip(vec, self.factors))

    def add(self, x: Sequence[int], y: Sequence[int]) -> tuple:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.factors))

    def neg(self, x: Sequence[int]) -> tuple:
        return tuple((-a) % d for a, d in zip(x, self.factors))

    def span(self, gens: Iterable[Sequence[int]]) -> frozenset:
        """Closure of the generators under addition and negation."""
        gens = [self.reduce(g) for g in gens]
        seen = {self.zero()}
        frontier = [self.zero()]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                for step in (g, self.neg(g)):
                    nxt = self.add(cur, step)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        return frozenset(seen)


def brute_generating_rank(table: FiniteModuleTable) -> int:
    """Smallest k such that some k elements span everything; exhaustive."""
    all_elements = table.elements()
    whole = frozenset(all_elements)
    if len(whole) == 1:
        return 0
    for k in range(1, len(table.factors) + 1):
        for combo in itertools.combinations(all_elements, k):
            if table.span(combo) == whole:
                return k
    return len(table.factors)


def brute_submodule_ops(
    table: FiniteModuleTable,
    gens1: Sequence[Sequence[int]],
    gens2: Sequence[Sequence[int]],
) -> dict:
    """Spans, intersection and sum of two generated subgroups, as element sets."""
    s1 = table.span(gens1)
    s2 = table.span(gens2)
    return {
        "span1": s1,
        "span2": s2,
        "intersection": s1 & s2,
        "sum": table.span(list(gens1) + list(gens2)),
    }


def brute_subgroup_rank(table: FiniteModuleTable, elements: frozenset) -> int:
    """Minimal generator count of a given subgroup, by exhaustive search."""
    elems = sorted(elements)
    target = frozenset(elements)
    if target == {table.zero()}:
        return 0
    for k in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, k):
            if table.span(combo) == target:
                return k
    raise AssertionError("unreachable: the subgroup generates itself")
