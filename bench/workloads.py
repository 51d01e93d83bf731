"""Seeded request lists for the stabkit benchmark, and the check of each output.

A request is plain data made from the workload seed alone; `execute` hands it
to stabkit's public entry points and `check` compares the result with closed
forms derived by hand from the catalog's Seifert data, never by calling
stabkit:

* 9_46 has Alexander module P + Q with P = Q[t]/(2t - 1), Q = Q[t]/(t - 2);
  disc `left` kills the Q summand (its kernel is Q), disc `right` kills P.
* 6_1 has the cyclic module Q[t]/((2t - 1)(t - 2)) = P + Q; disc `gamma` has
  kernel P (its quotient is Q[t]/(t - 2)).
* The double of a disc has the disc's quotient module, so double(9_46.left)
  gives P and double(9_46.right), double(6_1.gamma) give Q.

Every disc kernel of a sum is therefore a sum of whole primary summands, and
the generating rank of a sum of P's and Q's is max(#P, #Q).

Requests come in blocks holding one request of each kind, in seeded order.
Sizes are dealt from shuffled decks, so every size of a range appears once per
deck and two seeds do the same amount of work up to the last partial deck.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

D2_SIZES = tuple(range(8, 25))   # summands of sum^n(9_46)
D1_SIZES = tuple(range(8, 25))   # doubles joined by "+"
THMC_GENERA = tuple(range(2, 7))
KERNEL_SUMMANDS = (1, 2, 3, 4)
KERNEL_SPECS = (2, 3, 4)
WITNESS_GENERA = (1, 2)
SELFCHECK_CASES = 3
SELFCHECK_SUITES = (
    "snf_integers",
    "snf_laurent",
    "snf_eisenstein",
    "eisenstein_division",
    "generating_rank_lemma",
    "cyclic_quotient_drop",
    "character_selection",
)

# 9_46 disc -> primary summand its kernel is; 6_1's only disc is gamma.
_KERNEL_PART = {("9_46", "left"): "Q", ("9_46", "right"): "P", ("6_1", "gamma"): "P"}
# doubled disc -> primary summand its 2-knot module is
_DOUBLE_PART = {"9_46.left": "P", "9_46.right": "Q", "6_1.gamma": "Q"}


@dataclass(frozen=True)
class Request:
    """One closed-loop request: `call` names the entry point, `args` its input."""

    kind: str
    call: str  # "cli", "witness", "suite" or "verify"
    args: tuple
    expect: tuple


class _Deck:
    """Deals the values in shuffled rounds, each value once per round."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.pool: list = []

    def draw(self):
        if not self.pool:
            self.pool = self.values[:]
            self.rng.shuffle(self.pool)
        return self.pool.pop()


# ------------------------------------------------------------- exact closed forms

def _poly_str(p: int, q: int) -> str:
    """(t - 1/2)^p (t - 2)^q in stabkit's canonical text form (monic, t^0 first)."""
    coeffs = [Fraction(1)]
    for root in [Fraction(1, 2)] * p + [Fraction(2)] * q:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for e, c in enumerate(coeffs):
            nxt[e + 1] += c
            nxt[e] -= root * c
        coeffs = nxt
    parts = []
    for exp, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if exp == 0:
            body = str(mag)
        else:
            var = "t" if exp == 1 else f"t^{exp}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def _invariant_factors(p: int, q: int) -> list:
    """Invariant factors of P^p + Q^q: the lone primes divide the products."""
    lone = _poly_str(1, 0) if p > q else _poly_str(0, 1)
    return [lone] * abs(p - q) + [_poly_str(1, 1)] * min(p, q)


def _gr(parts) -> int:
    return max(parts.count("P"), parts.count("Q"))


# -------------------------------------------------------------------- generation

def _block(rng: random.Random, makers: list) -> list:
    order = makers[:]
    rng.shuffle(order)
    return [make() for make in order]


def _bound_sums(rng: random.Random, count: int) -> list:
    d2_sizes, d1_sizes = _Deck(rng, D2_SIZES), _Deck(rng, D1_SIZES)
    genera = _Deck(rng, THMC_GENERA)

    def d2():
        n = d2_sizes.draw()
        a = [rng.choice(("left", "right")) for _ in range(n)]
        b = [rng.choice(("left", "right")) for _ in range(n)]
        swaps = max(
            sum(x == "left" and y == "right" for x, y in zip(a, b)),
            sum(x == "right" and y == "left" for x, y in zip(a, b)),
        )
        argv = ("--json", "bound", "d2", "--knot", f"sum^{n}(9_46)",
                "--discs", f"{'+'.join(a)},{'+'.join(b)}")
        return Request("d2", "cli", argv, ("d2", swaps, 0 if a == b else n))

    def d1():
        m = d1_sizes.draw()
        kinds = [rng.choice(tuple(_DOUBLE_PART)) for _ in range(m)]
        terms, i = [], 0
        while i < m:
            j = i
            while j < m and kinds[j] == kinds[i]:
                j += 1
            power = f"^{j - i}" if j - i > 1 else ""
            terms.append(f"double({kinds[i]}){power}")
            i = j
        parts = [_DOUBLE_PART[k] for k in kinds]
        argv = ("--json", "bound", "d1", "--two-knot", "+".join(terms), "--vs", "unknot")
        return Request("d1", "cli", argv, ("d1", _gr(parts), "infinity"))

    def thmc():
        g = genera.draw()
        argv = ("--json", "bound", "metabelian", "--scenario", f"thmC(g={g})")
        return Request("thmC", "cli", argv, ("d2_metabelian", g, 4 * g))

    out: list = []
    while len(out) < count:
        out.extend(_block(rng, [d2, d1, thmc]))
    return out[:count]


def _knot_ref(ids: list) -> str:
    return ids[0] if len(ids) == 1 else f"sum({','.join(ids)})"


def _kernels_witness(rng: random.Random, count: int) -> list:
    alex_sizes = _Deck(rng, KERNEL_SUMMANDS)
    kern_shapes = _Deck(rng, [(k, s) for k in KERNEL_SUMMANDS for s in KERNEL_SPECS])
    # witness cost grows with the character's support, so supports are dealt
    # too: a direct character of each support size, or a selected one under
    # each number of constraints
    witnesses = _Deck(rng, [(g, "direct", k) for g in WITNESS_GENERA for k in range(4 * g + 1)]
                      + [(g, "selected", m) for g in WITNESS_GENERA for m in range(1, 2 * g + 1)])

    def alexander():
        ids = [rng.choice(("9_46", "6_1")) for _ in range(alex_sizes.draw())]
        k = len(ids)
        expect = (k, k, [_poly_str(1, 1)] * k, _poly_str(k, k))
        return Request("alexander", "cli", ("--json", "alexander", _knot_ref(ids)), expect)

    def kernels():
        size, spec_count = kern_shapes.draw()
        ids = [rng.choice(("9_46", "6_1")) for _ in range(size)]
        specs, parts = [], []
        for _ in range(spec_count):
            names = [rng.choice(("left", "right")) if i == "9_46" else "gamma" for i in ids]
            specs.append("+".join(names))
            parts.append([_KERNEL_PART[i, nm] for i, nm in zip(ids, names)])
        kern = [
            (s, _invariant_factors(pt.count("P"), pt.count("Q")), _gr(pt),
             _poly_str(pt.count("P"), pt.count("Q")))
            for s, pt in zip(specs, parts)
        ]
        pairs = []
        for i in range(len(specs)):
            for j in range(i + 1, len(specs)):
                same = [x for x, y in zip(parts[i], parts[j]) if x == y]
                diff = [(x, y) for x, y in zip(parts[i], parts[j]) if x != y]
                pairs.append((
                    [specs[i], specs[j]],
                    not same,
                    _poly_str(same.count("P"), same.count("Q")),
                    [_gr([x for x, _ in diff]), _gr([y for _, y in diff])],
                ))
        argv = ("--json", "kernels", _knot_ref(ids), "--discs", ",".join(specs))
        return Request("kernels", "cli", argv, ([_poly_str(1, 1)] * len(ids), kern, pairs))

    def witness():
        g, mode, size = witnesses.draw()
        n = 4 * g
        if mode == "direct":
            values = [rng.choice((1, 2)) for _ in range(size)] + [0] * (n - size)
            rng.shuffle(values)
            return Request("witness", "witness", (g, "direct", tuple(values)), (size,))
        rows = tuple(tuple(rng.randrange(3) for _ in range(n)) for _ in range(size))
        return Request("witness", "witness", (g, "selected", rows), (n - size,))

    out: list = []
    while len(out) < count:
        out.extend(_block(rng, [alexander, kernels, witness]))
    return out[:count]


def _selfcheck(rng: random.Random, count: int) -> list:
    def suite(name):
        return lambda: Request(
            name, "suite", (name, rng.getrandbits(32), SELFCHECK_CASES), (SELFCHECK_CASES,)
        )

    makers = [suite(name) for name in SELFCHECK_SUITES]
    makers.append(lambda: Request("verify", "verify", (), (True, True)))
    out: list = []
    while len(out) < count:
        out.extend(_block(rng, makers))
    return out[:count]


_GENERATORS = {
    "bound-sums": _bound_sums,
    "kernels-witness": _kernels_witness,
    "selfcheck": _selfcheck,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, count: int) -> list:
    """The first `count` requests of `workload` for `seed`; same seed, same list."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"), count)


# --------------------------------------------------------------------- execution

def execute(req: Request, api) -> tuple:
    """Run one request; returns (seconds spent in stabkit, result).

    Only the call into stabkit is timed.  A raised exception propagates, and
    the caller counts it as a failed request.
    """
    if req.call == "cli":
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(list(req.args))
        elapsed = time.perf_counter() - t0
        return elapsed, (code, out.getvalue())
    if req.call == "witness":
        g, mode, data = req.args
        mb = api.metabelian
        t0 = time.perf_counter()
        scenario = api.cli.resolve_scenario(api.entries, f"thmC(g={g})")
        chi = mb.Character(data) if mode == "direct" else mb.character_selection(4 * g, data)
        gr = mb.kernel_pair_quotient(mb.satellite_kernel_pair(scenario, chi)).generating_rank
        elapsed = time.perf_counter() - t0
        return elapsed, (chi.values, gr)
    if req.call == "suite":
        name, seed, cases = req.args
        t0 = time.perf_counter()
        done = api.propsuite.SUITES[name](seed, cases)
        return time.perf_counter() - t0, done
    if req.call == "verify":
        lines: list = []
        t0 = time.perf_counter()
        ok = api.verify.run_verify(emit=lines.append)
        elapsed = time.perf_counter() - t0
        return elapsed, (ok, len(lines) == len(api.verify.ANCHORS) + 1)
    raise ValueError(f"unknown call {req.call!r}")


def _check_cli(req: Request, code: int, text: str) -> str:
    if code != 0:
        return f"exit code {code}"
    out = json.loads(text)
    if req.kind in ("d2", "d1", "thmC"):
        got = (out["quantity"], out["lower"], out["upper"])
        return "" if got == req.expect else f"(quantity, lower, upper) {got} != {req.expect}"
    if req.kind == "alexander":
        got = (out["genus"], out["generating_rank"], out["invariant_factors"], out["order"])
        if out["free_rank"] != 0:
            return f"free rank {out['free_rank']}"
        return "" if got == req.expect else f"(genus, gr, factors, order) {got} != {req.expect}"
    if req.kind == "kernels":
        module_factors, kern, pairs = req.expect
        got_kern = [
            (k["disc"], k["invariant_factors"], k["generating_rank"], k["order"])
            for k in out["kernels"]
        ]
        got_pairs = [
            (p["discs"], p["intersection_is_zero"], p["intersection_order"], p["quotient_gr"])
            for p in out["pairs"]
        ]
        if out["module_invariant_factors"] != module_factors:
            return f"module factors {out['module_invariant_factors']}"
        if got_kern != kern:
            return f"kernels {got_kern} != {kern}"
        return "" if got_pairs == pairs else f"pairs {got_pairs} != {pairs}"
    raise ValueError(f"no check for kind {req.kind!r}")


def _check_witness(req: Request, values: tuple, gr: int) -> str:
    g, mode, data = req.args
    nonzero = sum(v != 0 for v in values)
    if gr != nonzero:
        return f"witness gr {gr} != {nonzero} nonzero slots of {values}"
    if mode == "direct":
        return "" if values == data else f"character {values} != {data}"
    if len(values) != 4 * g or any(v not in (0, 1, 2) for v in values):
        return f"character {values} is not a mod-3 vector of length {4 * g}"
    if any(sum(a * b for a, b in zip(values, row)) % 3 for row in data):
        return f"character {values} violates a constraint"
    (floor,) = req.expect
    return "" if nonzero >= floor else f"{nonzero} nonzero slots, lemma needs {floor}"


def check(req: Request, result) -> str:
    """Empty string when `result` is right for `req`, else what is wrong."""
    try:
        if req.call == "cli":
            return _check_cli(req, *result)
        if req.call == "witness":
            return _check_witness(req, *result)
        if req.call == "suite":
            return "" if (result,) == req.expect else f"suite ran {result} cases"
        if req.call == "verify":
            return "" if result == req.expect else f"verify returned {result}"
    except (KeyError, TypeError, ValueError) as e:  # malformed output
        return f"unreadable output: {e!r}"
    raise ValueError(f"unknown call {req.call!r}")
