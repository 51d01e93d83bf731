"""Command-line interface.

Commands
--------
alexander KNOT     print the Alexander presentation, invariant factors, order
kernels KNOT       print disc kernels, pairwise intersections and quotients
bound d2|metabelian|d1
                   assemble a certified BoundReport for a scenario
verify             replay the pinned example computations; exit 1 on mismatch
properties         run the randomized property suites at a fixed seed

Knot references form a tiny grammar: a catalog id (9_46, 6_1, unknot), an
explicit sum "sum(9_46,9_46)", or a power "sum^3(9_46)".  Disc references
name catalog discs, broadcast over summands ("left" or "left^3"), or pick
per summand ("left+right").  2-knots are "unknot", "double(9_46.right)",
powers thereof, or "+"-joined terms.  Metabelian scenarios are "thmC(g=2)"
(4g satellite copies with the built-in twist-knot pattern) or a JSON file
via --scenario-json.

References are capped at MAX_SUMMANDS knot summands, 2-knot summands or
satellite copies; a larger one exits 2 before anything is built.

Exit codes: 0 success, 1 verification mismatch, 2 unknown reference or
malformed input, 3 failed theorem hypothesis.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from bisect import bisect_left
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str

from . import __version__
from .bounds import DiscPairScenario, TwoKnotPairScenario, full_report
from .catalog import CatalogEntry, _is_int, builtin_catalog, load_catalog, read_json, resolve_knot
from .errors import HypothesisError, SchemaError, UnknownReferenceError
from .knots import (
    SurgeryDisc,
    TwoKnotModel,
    alexander_module_Q,
    boundary_connect_sum,
    connected_sum,
    disc_kernel_Q,
    double_of_disc,
    two_knot_sum,
)
from .metabelian import SatelliteScenario
from .modules import pair_quotients
from . import propsuite


# ---------------------------------------------------------------- references

_SUM_POW = re.compile(r"sum\^(\d+)\(([^()]+)\)")  # matched whole, against a stripped part
_DOUBLE = re.compile(r"^double\((\w+)\.(\w+)\)(?:\^(\d+))?$")
_THMC = re.compile(r"^thmC\(g=(\d+)\)$")

# The most knot summands, 2-knot summands or satellite copies one reference
# may resolve to.  Cost grows faster than linearly in each, so a larger
# reference exits 2 instead of building its summands.
MAX_SUMMANDS = 256

# The deepest parenthesis nesting a knot reference may have.  The resolver
# recurses once per level; a deeper reference exits 2 instead of exhausting
# the interpreter's default 1000-frame stack, which the caller shares.
MAX_NESTING = 500


def _within_limit(count: int, what: str, ref: str) -> int:
    if count > MAX_SUMMANDS:
        raise SchemaError(f"too many {what}", f"{ref!r} needs more than {MAX_SUMMANDS}")
    return count


def _repeat_count(digits: str, what: str, ref: str) -> int:
    """A `^n` or `g=N` count, checked against the limit before anything is built."""
    if len(digits.lstrip("0")) > len(str(MAX_SUMMANDS)):  # over it, maybe too long for int()
        return _within_limit(MAX_SUMMANDS + 1, what, ref)
    return _within_limit(int(digits), what, ref)


def _split_top(text: str) -> list:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def resolve_knot_ref(catalog: dict, ref: str) -> list:
    """A knot reference resolves to its list of catalog-entry summands.

    One left-to-right pass finds the deepest nesting and files every comma
    under the parenthesis depth it sits at.  A sum's parts are then cut at
    the commas of one depth between its parentheses, found by bisection, so
    no level rescans the text nested inside it.  Each part is read as the
    whole reference is: stripped, then a power, a sum or a catalog id.
    """
    commas: dict = {}  # depth -> positions of the commas at that depth, in order
    newlines = []
    depth = deepest = 0
    for i, ch in enumerate(ref):
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
        elif ch == ",":
            commas.setdefault(depth, []).append(i)
        elif ch == "\n":
            newlines.append(i)
    if deepest > MAX_NESTING:
        raise SchemaError("knot reference nests too deeply", f"{deepest} levels, over {MAX_NESTING}")
    leaves: list = []

    def resolve(a: int, b: int, depth: int) -> None:
        """Append the summands of ref[a:b], which starts at nesting `depth`."""
        while a < b and ref[a].isspace():
            a += 1
        while b > a and ref[b - 1].isspace():
            b -= 1
        m = _SUM_POW.fullmatch(ref, a, b)
        if m:
            part = ref[a:b]
            count = _repeat_count(m.group(1), "knot summands", part)
            if count < 1:
                raise UnknownReferenceError(f"sum power must be >= 1 in {part!r}")
            leaves.extend([resolve_knot(catalog, m.group(2).strip())] * count)
            return
        is_sum = ref.startswith("sum(", a, b) and ref[b - 1] == ")"
        inner = a + 4  # after "sum(", which raises the depth by one
        if not is_sum or bisect_left(newlines, inner) < bisect_left(newlines, b - 1):
            # not "sum(...)" without a newline inside the parentheses: a catalog id
            leaves.append(resolve_knot(catalog, ref[a:b]))
            return
        cuts = commas.get(depth + 1, [])
        cuts = cuts[bisect_left(cuts, inner) : bisect_left(cuts, b - 1)]
        first = len(leaves)
        for lo, hi in zip([inner] + [c + 1 for c in cuts], cuts + [b - 1]):
            resolve(lo, hi, depth + 1)
            if len(leaves) - first > MAX_SUMMANDS:
                _within_limit(len(leaves) - first, "knot summands", ref[a:b])

    try:
        resolve(0, len(ref), 0)
    finally:
        del resolve  # it calls itself through its cell: free the cycle by refcount
    return leaves


def knot_of_leaves(leaves: list):
    return connected_sum(*[e.knot for e in leaves])


def resolve_disc_spec(leaves: list, spec: str, knot) -> SurgeryDisc:
    """left | left^3 | left+right: one disc name per summand, then sum.

    `knot` is `knot_of_leaves(leaves)`, built once by the caller.
    """
    spec = spec.strip()
    if "+" in spec:
        names = [p.strip() for p in spec.split("+")]
    else:
        m = re.match(r"^(\w+)\^(\d+)$", spec)
        if m:
            names = [m.group(1)] * _repeat_count(m.group(2), "disc choices", spec)
        else:
            names = [spec] * len(leaves)
    if len(names) != len(leaves):
        raise UnknownReferenceError(
            f"disc spec {spec!r} names {len(names)} discs for {len(leaves)} summands"
        )
    # the discs first: a generator that raises inside a call that also passes
    # `knot=` leaks the keyword dict, and the knot with it, on CPython 3.11
    discs = [e.disc(n) for e, n in zip(leaves, names)]
    return boundary_connect_sum(*discs, knot=knot)


def resolve_two_knot_ref(catalog: dict, ref: str) -> TwoKnotModel:
    """`unknot`, `double(ID.DISC)`, `double(ID.DISC)^m`, or `+`-joined terms."""

    def term(part: str) -> list:
        """The doubles one term contributes; `unknot` contributes none."""
        part = part.strip()
        if part == "unknot":
            return []
        m = _DOUBLE.match(part)
        if not m:
            raise UnknownReferenceError(f"unknown 2-knot reference {part!r}")
        entry = resolve_knot(catalog, m.group(1))
        disc = entry.disc(m.group(2))
        count = _repeat_count(m.group(3) or "1", "2-knot summands", part)
        if count < 1:
            raise UnknownReferenceError(f"double power must be >= 1 in {part!r}")
        return [double_of_disc(disc)] * count

    models: list = []
    for part in ref.strip().split("+"):
        models += term(part)
        _within_limit(len(models), "2-knot summands", ref)
    return two_knot_sum(*models)


def scenario_from_entries(
    base: CatalogEntry, base_disc: str, companion: CatalogEntry, companion_disc: str, copies: int
) -> SatelliteScenario:
    if base.eta_class is None:
        raise SchemaError(
            "base knot has no infection curve",
            f"{base.id!r} defines no eta_class for satellite scenarios",
        )
    return SatelliteScenario(
        base.disc(base_disc), base.eta_class, companion.disc(companion_disc), copies
    )


def resolve_scenario(catalog: dict, spec: str) -> SatelliteScenario:
    m = _THMC.match(spec.strip())
    if not m:
        raise UnknownReferenceError(f"unknown scenario {spec!r}; expected thmC(g=N)")
    g = _repeat_count(m.group(1), "satellite copies", spec)
    if g < 1:
        raise UnknownReferenceError("scenario needs g >= 1")
    _within_limit(4 * g, "satellite copies", spec)
    entry = resolve_knot(catalog, "6_1")
    return scenario_from_entries(entry, "gamma", entry, "gamma", 4 * g)


def scenario_from_json(catalog: dict, path: str) -> SatelliteScenario:
    data = read_json(path, "scenario")
    if not isinstance(data, dict):
        raise SchemaError("scenario must be an object", type(data).__name__)
    for key in ("base", "base_disc", "companion", "companion_disc", "copies"):
        if key not in data:
            raise SchemaError("scenario missing field", key)
    for key in ("base", "base_disc", "companion", "companion_disc"):
        if not isinstance(data[key], str):
            raise SchemaError(f"scenario {key} must be a string", repr(data[key]))
    if not _is_int(data["copies"]) or data["copies"] < 0:
        raise SchemaError("copies must be a nonnegative integer", repr(data["copies"]))
    _within_limit(data["copies"], "satellite copies", path)
    return scenario_from_entries(
        resolve_knot(catalog, data["base"]),
        data["base_disc"],
        resolve_knot(catalog, data["companion"]),
        data["companion_disc"],
        data["copies"],
    )


# -------------------------------------------------------------------- output


def json_text(obj, indent: str = "\n") -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte; keys must be str.

    The containers are laid out here and every leaf goes through the C
    encoder.  The indented `json.dumps` runs the pure-Python encoder, whose
    nested closures refer to one another, so every call left reference
    cycles that only the cycle collector frees; this leaves none.  `indent`
    is the line break and indentation that close the container written.
    """
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [f"{_json_str(k)}: {json_text(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([json_text(v, inner) for v in obj]) + indent + "]"
    return json.dumps(obj)  # a number, a boolean or null


# ------------------------------------------------------------------ commands

def _load(args) -> dict:
    return load_catalog(args.catalog) if args.catalog else builtin_catalog()


def cmd_alexander(args) -> int:
    catalog = _load(args)
    leaves = resolve_knot_ref(catalog, args.knot)
    knot = knot_of_leaves(leaves)
    module = alexander_module_Q(knot)
    # the printed rows, from the sparse lines; an entry formats itself once and keeps the text
    rels = module.relations
    zero = str(module.ring.zero)
    rows = []
    for line in rels.lines:
        row = [zero] * rels.ncols
        for j, x in line:
            row[j] = str(x)
        rows.append(row)
    order = str(module.order())  # the Alexander polynomial is this order
    payload = {
        "knot": knot.name,
        "genus": knot.genus,
        "presentation": rows,
        "invariant_factors": [str(d) for d in module.torsion_invariants],
        "free_rank": module.free_rank,
        "generating_rank": module.generating_rank,
        "order": order,
        "alexander_polynomial": order,
    }
    if args.json:
        print(json_text(payload))
    else:
        print(f"knot: {payload['knot']}")
        print(f"genus: {payload['genus']}")
        print("presentation (tV - V^T):")
        for row in rows:
            print("  [" + ", ".join(row) + "]")
        print("invariant factors: " + (", ".join(payload["invariant_factors"]) or "none"))
        print(f"generating rank: {payload['generating_rank']}")
        print(f"order: {payload['order']}")
        print(f"alexander polynomial: {payload['alexander_polynomial']}")
    return 0


def cmd_kernels(args) -> int:
    catalog = _load(args)
    leaves = resolve_knot_ref(catalog, args.knot)
    knot = knot_of_leaves(leaves)
    default = sorted(leaves[0].discs) if len(leaves) == 1 else []
    specs = _split_top(args.discs) if args.discs else default
    if not specs:
        raise UnknownReferenceError("no discs given; use --discs")
    ambient = alexander_module_Q(knot)
    discs = [resolve_disc_spec(leaves, s, knot) for s in specs]
    kernels = [disc_kernel_Q(d, ambient) for d in discs]
    payload = {
        "knot": knot.name,
        "module_invariant_factors": [str(d) for d in ambient.torsion_invariants],
        "kernels": [],
        "pairs": [],
    }
    for spec, kern in zip(specs, kernels):
        pres = kern.presentation
        payload["kernels"].append(
            {
                "disc": spec,
                "invariant_factors": [str(d) for d in pres.torsion_invariants],
                "generating_rank": pres.generating_rank,
                "order": str(kern.order()),
            }
        )
    for i in range(len(kernels)):
        for j in range(i + 1, len(kernels)):
            q12, q21, order = pair_quotients(kernels[i], kernels[j])
            payload["pairs"].append(
                {
                    "discs": [specs[i], specs[j]],
                    "intersection_is_zero": order == ambient.ring.one,
                    "intersection_order": str(order),
                    "quotient_gr": [q12.generating_rank, q21.generating_rank],
                }
            )
    if args.json:
        print(json_text(payload))
    else:
        print(f"knot: {payload['knot']}")
        print(
            "module invariant factors: "
            + (", ".join(payload["module_invariant_factors"]) or "none")
        )
        for k in payload["kernels"]:
            factors = ", ".join(k["invariant_factors"]) or "none"
            print(
                f"kernel[{k['disc']}]: gr {k['generating_rank']}, order {k['order']}, "
                f"invariant factors: {factors}"
            )
        for p in payload["pairs"]:
            a, b = p["discs"]
            zero = "0" if p["intersection_is_zero"] else p["intersection_order"]
            print(
                f"{a} vs {b}: intersection {zero}, quotient gr "
                f"{p['quotient_gr'][0]} and {p['quotient_gr'][1]}"
            )
    return 0


def cmd_bound(args) -> int:
    catalog = _load(args)
    if args.kind == "d2":
        if not args.knot or not args.discs:
            raise UnknownReferenceError("bound d2 needs --knot and --discs A,B")
        leaves = resolve_knot_ref(catalog, args.knot)
        knot = knot_of_leaves(leaves)
        specs = _split_top(args.discs)
        if len(specs) != 2:
            raise UnknownReferenceError(f"--discs needs exactly two specs, got {len(specs)}")
        discs = [resolve_disc_spec(leaves, s, knot) for s in specs]
        scenario = DiscPairScenario(*discs)
    elif args.kind == "metabelian":
        if args.scenario_json:
            scenario = scenario_from_json(catalog, args.scenario_json)
        elif args.scenario:
            scenario = resolve_scenario(catalog, args.scenario)
        else:
            raise UnknownReferenceError("bound metabelian needs --scenario or --scenario-json")
    else:  # d1: argparse restricts the kinds
        if not args.two_knot or not args.vs:
            raise UnknownReferenceError("bound d1 needs --two-knot and --vs")
        scenario = TwoKnotPairScenario(
            resolve_two_knot_ref(catalog, args.two_knot),
            resolve_two_knot_ref(catalog, args.vs),
        )
    report = full_report(scenario)
    if args.json:
        print(json_text(report.to_json_dict()))
    else:
        print(report.to_text())
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verify

    ok = run_verify(emit=print)
    return 0 if ok else 1


def cmd_properties(args) -> int:
    if args.cases < 1:
        raise SchemaError("--cases must be at least 1", f"got {args.cases}")
    ok = propsuite.run_all(seed=args.seed, cases=args.cases, emit=print)
    return 0 if ok else 1


# --------------------------------------------------------------------- main

_GRAMMAR_HELP = f"""\
reference grammar:
  knot        catalog id (9_46, 6_1, unknot), sum(REF,...), or sum^n(ID)
  disc        catalog name, broadcast over summands (left, left^3),
              or per-summand choices joined by + (left+right+left)
  2-knot      unknot, double(ID.DISC), double(ID.DISC)^m, or +-joined terms
  scenario    thmC(g=N): 4N satellite copies of the built-in twist-knot
              pattern with companion disc pair; or --scenario-json FILE with
              {{"base","base_disc","companion","companion_disc","copies"}}

limit: at most {MAX_SUMMANDS} knot summands, 2-knot summands or satellite copies
per reference (exit 2 above it)

exit codes: 0 success, 1 verification mismatch, 2 unknown reference or
malformed input, 3 failed theorem hypothesis
"""


# argparse's messages for a value it read as an option, and a token it reads so:
# one '-', then not '-' and not a number (a negative number stays a value)
_MISREAD = re.compile(r"(?:the following arguments are required|unrecognized arguments): .*"
                      r"|argument (--[\w-]+): expected one argument")
_DASHED = re.compile(r"-(?!-|\d+$|\d*\.\d+$)\S+")


class _CommandLineError(Exception):
    """A malformed command line: the parser's prog and argparse's message."""


class _Parser(argparse.ArgumentParser):
    """Hands a malformed command line to `main`, which reports it in one stderr line.

    `add_subparsers` builds the subcommand parsers with this class too.
    """

    def error(self, message):
        raise _CommandLineError(self.prog, message)


def _usage_line(argv, prog: str, message: str) -> str:
    """argparse's error; a value it read as an option is named, with how to pass it."""
    misread = _MISREAD.fullmatch(message)
    head = argv[: argv.index("--")] if "--" in argv else argv
    for before, token in zip(["", *head], head):
        if misread and _DASHED.fullmatch(token) and misread[1] in (None, before):
            how = f"write {before}={token}" if misread[1] else "put -- before it, after the options"
            return f"{prog}: error: {token!r} begins with '-', so it was read as an option; {how}"
    return f"{prog}: error: {message}"


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; it depends on no argv, so a process builds it once."""
    parser = _Parser(
        prog="stabkit",
        description="Exact Alexander-module bounds on stabilization distances "
        "between slice discs and 2-knots.",
        epilog=_GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"stabkit {__version__}")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--catalog", metavar="PATH", help="JSON file with extra knots")
    parser.add_argument(
        "--seed", type=int, default=propsuite.DEFAULT_SEED, help="seed for property-test replay"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alexander", help="Alexander module of a knot reference")
    p.add_argument("knot")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("kernels", help="disc kernels, intersections, quotients")
    p.add_argument("knot")
    p.add_argument("--discs", help="comma-separated disc specs (default: all catalog discs)")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("bound", help="certified lower/upper bounds")
    p.add_argument("kind", choices=("d2", "metabelian", "d1"))
    p.add_argument("--knot", help="knot reference for d2")
    p.add_argument("--discs", help="two disc specs A,B for d2")
    p.add_argument("--scenario", help="scenario spec, e.g. thmC(g=2)")
    p.add_argument("--scenario-json", metavar="PATH", help="scenario JSON file")
    p.add_argument("--two-knot", help="2-knot reference for d1")
    p.add_argument("--vs", help="second 2-knot reference for d1")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="replay the pinned example computations")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("properties", help="run randomized property suites")
    p.add_argument("--cases", type=int, default=propsuite.DEFAULT_CASES)
    p.set_defaults(func=cmd_properties)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # --help or --version
        return int(e.code or 0)
    except _CommandLineError as e:
        print(_usage_line(sys.argv[1:] if argv is None else argv, *e.args), file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except HypothesisError as e:
        print(f"error: failed hypothesis: {e}", file=sys.stderr)
        return 3
    except (UnknownReferenceError, SchemaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
