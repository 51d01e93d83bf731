"""Independent brute-force oracles used by the test suite.

Nothing here touches the Smith normal form engine or the module calculus:
results come from explicit element enumeration (finite Z- and F3-modules) or
from first-principles minor expansions, so they can referee those
algorithms.  The check that reaches the cap is elimination over a prime
field, `linalg.rref_mod_p`: over a PID, the rank of M modulo a prime p is the
number of invariant factors p does not divide.

Enumeration is capped: instances larger than `CAP` (200 elements) raise
OracleCapExceeded rather than stall.  Every least-generator search is one
exhaustive search over spans (`brute_spanning_rank`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .rings import euclid_gcd


CAP = 200  # largest element count a FiniteModuleTable enumerates


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
        out.append(g)  # euclid_gcd returns the canonical associate
    return tuple(out)


@dataclass(frozen=True)
class FiniteModuleTable:
    """An explicit finite abelian group ⊕ Z/d_i with elementwise arithmetic.

    Elements are tuples of residues.  Scalars act as plain integers, which is
    the Z-module structure; for modulus-3 factors this doubles as the F3
    structure.

    Spans are computed on integer element codes: an element's code is its
    index in `elements()` (mixed radix, the last factor fastest).  The
    subgroup generated by some elements is the sum of their cyclic
    subgroups, so a span grows one generator at a time, coset by coset
    (`_extend`), and a search over generator sets extends each prefix's span
    by one more cyclic subgroup (`combination_spans`).
    """

    factors: tuple

    def __post_init__(self):
        if any(d <= 0 for d in self.factors):
            raise ValueError("factors must be positive (finite modules only)")
        if self.size() > CAP:
            raise OracleCapExceeded(f"module with {self.size()} elements exceeds cap {CAP}")

    def size(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    def zero(self) -> tuple:
        return (0,) * len(self.factors)

    def elements(self) -> list[tuple]:
        return list(self._elements)

    @cached_property
    def _elements(self) -> tuple:
        return tuple(itertools.product(*(range(d) for d in self.factors)))

    def reduce(self, vec: Sequence[int]) -> tuple:
        if len(vec) != len(self.factors):
            raise ValueError("wrong coordinate count")
        return tuple(x % d for x, d in zip(vec, self.factors))

    def code(self, vec: Sequence[int]) -> int:
        """The integer code of an element, given by any integer representative."""
        c = 0
        for x, d in zip(self.reduce(vec), self.factors):
            c = c * d + x
        return c

    @cached_property
    def _shifts(self) -> dict:
        """Element code -> the list of codes of x + that element, indexed by the code of x."""
        return {}

    def _shift(self, g: int) -> list:
        row = self._shifts.get(g)
        if row is None:
            row = [0]
            for d, x in zip(self.factors, self._elements[g]):
                digits = [(y + x) % d for y in range(d)]
                row = [r * d + y for r in row for y in digits]
            self._shifts[g] = row
        return row

    def _extend(self, span: frozenset, g: int) -> frozenset:
        """span + <g> for a subgroup span: its cosets span + k*g until k*g is back in span."""
        if g in span:
            return span
        shift = self._shift(g)
        out = set(span)
        coset, multiple = list(span), g
        while multiple not in span:
            coset = [shift[x] for x in coset]
            out.update(coset)
            multiple = shift[multiple]
        return frozenset(out)

    def combination_spans(self, codes: Sequence[int], k: int, start: frozenset):
        """The span of start and each k-combination of codes, in `itertools.combinations` order.

        Each combination extends its prefix's span, computed once, by one
        cyclic subgroup.
        """

        def walk(first: int, depth: int, span: frozenset):
            if depth == k:
                yield span
                return
            for i in range(first, len(codes) - (k - depth) + 1):
                yield from walk(i + 1, depth + 1, self._extend(span, codes[i]))

        return walk(0, 0, start)

    def span_codes(self, gens: Iterable[Sequence[int]]) -> frozenset:
        """The codes of the span of the generators."""
        span = frozenset([0])
        for g in gens:
            span = self._extend(span, self.code(g))
        return span

    def span(self, gens: Iterable[Sequence[int]]) -> frozenset:
        """Closure of the generators under addition and negation."""
        elements = self._elements
        return frozenset(elements[c] for c in self.span_codes(gens))


def brute_spanning_rank(table: FiniteModuleTable, codes, start: frozenset, size: int) -> int:
    """Least k such that start and some k of the codes span `size` elements; exhaustive.

    If no k works, not even all of the codes, it raises AssertionError.
    """
    for k in range(len(codes) + 1):
        if any(len(s) == size for s in table.combination_spans(codes, k, start)):
            return k
    raise AssertionError("no combination of the codes spans the target")


def brute_generating_rank(table: FiniteModuleTable) -> int:
    """Smallest k such that some k elements span everything; exhaustive."""
    return brute_spanning_rank(table, range(table.size()), frozenset([0]), table.size())


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
    codes = sorted(table.code(e) for e in elements)
    return brute_spanning_rank(table, codes, frozenset([0]), len(codes))
