"""CLI behavior: reference grammar, output formats, exit codes, determinism."""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import stabkit
from stabkit import cli, linalg
from stabkit.catalog import builtin_catalog, entry_from_json_dict, load_catalog
from stabkit.cli import main
from stabkit.errors import SchemaError, UnknownReferenceError
from stabkit.linalg import Mat
from stabkit.modules import PresentedModule
from stabkit.rings import EisensteinInt, LaurentPolyQ

CUSTOM_ENTRY = {
    "name": "custom",
    "genus": 1,
    "seifert": [[2, 1], [0, -1]],
    "discs": [{"name": "d", "curves": [[1, 2]]}],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- alexander


def test_alexander_text(capsys):
    code, out, err = run(capsys, "alexander", "9_46")
    assert code == 0 and err == ""
    assert "knot: 9_46" in out
    assert "[0, -1 + 2*t]" in out
    assert "[-2 + t, 0]" in out
    assert "alexander polynomial: 1 - 5/2*t + t^2" in out


def test_alexander_json_matches_library(capsys):
    code, out, _ = run(capsys, "--json", "alexander", "6_1")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1
    assert payload["generating_rank"] == 1
    assert payload["order"] == "1 - 5/2*t + t^2"
    assert payload["invariant_factors"] == ["1 - 5/2*t + t^2"]
    assert payload["free_rank"] == 0


@pytest.mark.parametrize("ref", ["9_46", "sum^3(9_46)", "unknot"])
def test_alexander_takes_the_order_once(capsys, monkeypatch, ref):
    # the order is the Alexander polynomial; both JSON keys read one value
    calls = []
    real = PresentedModule.order

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(PresentedModule, "order", counted)
    code, out, _ = run(capsys, "--json", "alexander", ref)
    assert code == 0 and len(calls) == 1
    payload = json.loads(out)
    assert payload["alexander_polynomial"] == payload["order"] == str(real(calls[0]))


def test_alexander_of_sum_power(capsys):
    code, out, _ = run(capsys, "--json", "alexander", "sum^3(9_46)")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 3
    assert payload["knot"] == "9_46#9_46#9_46"


def test_alexander_of_explicit_sum(capsys):
    code, out, _ = run(capsys, "--json", "alexander", "sum(9_46,6_1)")
    assert code == 0
    assert json.loads(out)["genus"] == 2


def test_alexander_unknot(capsys):
    code, out, _ = run(capsys, "--json", "alexander", "unknot")
    assert code == 0
    payload = json.loads(out)
    assert payload["presentation"] == []
    assert payload["order"] == "1"


# ------------------------------------------------------------------- kernels


def test_kernels_default_discs(capsys):
    code, out, _ = run(capsys, "--json", "kernels", "9_46")
    assert code == 0
    payload = json.loads(out)
    by_disc = {k["disc"]: k for k in payload["kernels"]}
    assert by_disc["left"]["order"] == "-2 + t"
    assert by_disc["right"]["order"] == "-1/2 + t"
    (pair,) = payload["pairs"]
    assert pair["intersection_is_zero"] is True
    assert pair["quotient_gr"] == [1, 1]


def test_kernels_text_output(capsys):
    code, out, _ = run(capsys, "kernels", "6_1")
    assert code == 0
    assert "kernel[gamma]: gr 1, order -1/2 + t" in out


def test_kernels_per_summand_discs(capsys):
    code, out, _ = run(capsys, "--json", "kernels", "sum(9_46,9_46)", "--discs", "left+right")
    assert code == 0
    payload = json.loads(out)
    assert payload["kernels"][0]["generating_rank"] == 1


@pytest.mark.parametrize(
    "argv, size",
    [
        (["bound", "d2", "--knot", "sum^24(9_46)", "--discs", "left^24,right^24"], 48),
        (["kernels", "sum^4(9_46)", "--discs", "left^4,right^4,left+right+left+right"], 8),
    ],
    ids=["bound-d2", "kernels"],
)
def test_summed_knot_is_validated_once_per_request(capsys, monkeypatch, argv, size):
    from stabkit.knots import SeifertKnot

    builtin_catalog()  # the summands' own validations happen once per process
    sizes = []
    real = SeifertKnot.__post_init__

    def counted(self):
        sizes.append(self.seifert.nrows)
        return real(self)

    monkeypatch.setattr(SeifertKnot, "__post_init__", counted)
    code, _, err = run(capsys, "--json", *argv)
    assert code == 0 and err == ""
    assert sizes == [size]


@pytest.mark.parametrize("discs", ["left^4,right^4", "left^4,right^4,left+right+left+right"])
def test_kernels_computes_one_kernel_per_disc_and_one_per_pair(capsys, monkeypatch, discs):
    # one kernel for both relative quotients; the intersection's order is read
    # off the orders of the kernel and the first quotient
    from stabkit import modules
    from stabkit.bounds import kernel_quotient_ranks
    from stabkit.knots import alexander_module_Q, disc_kernel_Q

    calls = []
    real = modules.kernel_basis

    def counting(ring, m):
        calls.append(m.ncols)
        return real(ring, m)

    monkeypatch.setattr(modules, "kernel_basis", counting)
    code, out, _ = run(capsys, "--json", "kernels", "sum^4(9_46)", "--discs", discs)
    assert code == 0
    d = len(discs.split(","))
    assert len(calls) == d + d * (d - 1) // 2

    monkeypatch.setattr(modules, "kernel_basis", real)
    leaves = cli.resolve_knot_ref(cli.builtin_catalog(), "sum^4(9_46)")
    knot = cli.knot_of_leaves(leaves)
    ambient = alexander_module_Q(knot)
    specs = discs.split(",")
    kernels = [disc_kernel_Q(cli.resolve_disc_spec(leaves, s, knot), ambient) for s in specs]
    pairs = json.loads(out)["pairs"]
    want = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for pair, (i, j) in zip(pairs, want):
        inter = modules.submodule_intersection(kernels[i], kernels[j])
        assert pair["quotient_gr"] == list(kernel_quotient_ranks(kernels[i], kernels[j]))
        assert pair["intersection_is_zero"] is inter.is_zero()
        assert pair["intersection_order"] == str(inter.order())


def test_kernels_on_sum_require_discs(capsys):
    code, _, err = run(capsys, "kernels", "sum(9_46,9_46)")
    assert code == 2
    assert "no discs given" in err


# --------------------------------------------------------------------- bound


def test_bound_d2_text(capsys):
    code, out, _ = run(capsys, "bound", "d2", "--knot", "9_46", "--discs", "left,right")
    assert code == 0
    assert "quantity: d2" in out
    assert "lower:    1" in out
    assert "upper:    1" in out


@pytest.mark.parametrize("n", [2, 3])
def test_bound_d2_scales_with_summands(capsys, n):
    code, out, _ = run(
        capsys,
        "--json",
        "bound",
        "d2",
        "--knot",
        f"sum^{n}(9_46)",
        "--discs",
        f"left^{n},right^{n}",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == n
    assert payload["upper"] == n


def test_bound_metabelian_thmc(capsys):
    code, out, _ = run(capsys, "--json", "bound", "metabelian", "--scenario", "thmC(g=1)")
    assert code == 0
    payload = json.loads(out)
    assert payload["quantity"] == "d2_metabelian"
    assert payload["lower"] == 1
    assert payload["upper"] == 4


def test_bound_metabelian_scenario_json(capsys, tmp_path):
    spec = {
        "base": "6_1",
        "base_disc": "gamma",
        "companion": "6_1",
        "companion_disc": "gamma",
        "copies": 8,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "--json", "bound", "metabelian", "--scenario-json", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == 2
    assert payload["upper"] == 8


def test_bound_d1(capsys):
    code, out, _ = run(
        capsys, "--json", "bound", "d1", "--two-knot", "double(9_46.right)^3", "--vs", "unknot"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == 3
    assert payload["upper"] == "infinity"


def test_bound_d1_mixed_sum(capsys):
    # left+right is cyclic (coprime orders merge), so only left+left gains rank
    code, out, _ = run(
        capsys,
        "--json",
        "bound",
        "d1",
        "--two-knot",
        "double(9_46.left)+double(9_46.right)",
        "--vs",
        "double(9_46.right)",
    )
    assert code == 0
    assert json.loads(out)["lower"] == 0

    code, out, _ = run(
        capsys,
        "--json",
        "bound",
        "d1",
        "--two-knot",
        "double(9_46.left)^2",
        "--vs",
        "double(9_46.right)",
    )
    assert code == 0
    assert json.loads(out)["lower"] == 1


def test_bound_d1_equal_sides(capsys):
    code, out, _ = run(
        capsys, "--json", "bound", "d1", "--two-knot", "double(6_1.gamma)", "--vs", "double(6_1.gamma)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == 0
    assert payload["upper"] == 0


@pytest.mark.parametrize(
    "two_knot, vs",
    [
        ("double(unknot.trivial)", "unknot"),
        ("double(unknot.trivial)^2+double(9_46.left)", "double(9_46.left)"),
    ],
)
def test_bound_d1_drops_unknotted_doubles(capsys, two_knot, vs):
    # the double of a genus-0 disc is the unknotted 2-sphere, the unit of connected sum
    code, out, _ = run(capsys, "--json", "bound", "d1", "--two-knot", two_knot, "--vs", vs)
    assert code == 0
    payload = json.loads(out)
    assert (payload["lower"], payload["upper"]) == (0, 0)
    assert "identical summand lists: upper bound 0" in payload["provenance"]


# ---------------------------------------------------------------- exit codes


def test_unknown_knot_is_exit_2(capsys):
    code, _, err = run(capsys, "alexander", "nope")
    assert code == 2
    assert "unknown knot" in err


def test_unknown_disc_is_exit_2(capsys):
    code, _, err = run(capsys, "kernels", "9_46", "--discs", "middle")
    assert code == 2
    assert "unknown disc" in err


def test_unknown_two_knot_is_exit_2(capsys):
    code, _, err = run(capsys, "bound", "d1", "--two-knot", "sphere", "--vs", "unknot")
    assert code == 2
    assert "unknown 2-knot" in err


def test_disc_spec_arity_mismatch_is_exit_2(capsys):
    code, _, err = run(capsys, "kernels", "sum(9_46,9_46)", "--discs", "left+right+left")
    assert code == 2
    assert "3 discs for 2 summands" in err


def test_bound_d2_needs_two_specs(capsys):
    code, _, err = run(capsys, "bound", "d2", "--knot", "9_46", "--discs", "left")
    assert code == 2
    assert "exactly two" in err


def test_thmc_g0_is_exit_2(capsys):
    code, _, err = run(capsys, "bound", "metabelian", "--scenario", "thmC(g=0)")
    assert code == 2
    assert "g >= 1" in err


def test_missing_scenario_is_exit_2(capsys):
    code, _, _ = run(capsys, "bound", "metabelian")
    assert code == 2


def test_scenario_json_missing_field_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"base": "6_1"}))
    code, _, err = run(capsys, "bound", "metabelian", "--scenario-json", str(path))
    assert code == 2
    assert "missing field" in err


def test_scenario_json_unparseable_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for content in (b"{not json", b"\xff\xfe["):  # the second is not UTF-8
        path.write_bytes(content)
        code, _, err = run(capsys, "bound", "metabelian", "--scenario-json", str(path))
        assert code == 2
        assert "not valid JSON" in err and err.count("\n") == 1


def test_scenario_json_missing_file_is_exit_2(capsys, tmp_path):
    code, _, _ = run(capsys, "bound", "metabelian", "--scenario-json", str(tmp_path / "no.json"))
    assert code == 2


def test_failed_hypothesis_is_exit_3(capsys, tmp_path):
    spec = {
        "base": "6_1",
        "base_disc": "gamma",
        "companion": "unknot",
        "companion_disc": "trivial",
        "copies": 4,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "bound", "metabelian", "--scenario-json", str(path))
    assert code == 3
    assert "failed hypothesis" in err
    assert "obstruction vanishes" in err


def test_no_command_is_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,prog", [(["alexander", "-1x"], "stabkit alexander"), (["bound", "d3"], "stabkit bound")]
)
def test_malformed_command_line_is_exit_2_with_one_line(capsys, argv, prog):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"{prog}: error: "), err


_READ_AS_OPTION = "begins with '-', so it was read as an option"


@pytest.mark.parametrize(
    "argv,line,fixed,fixed_error",
    [
        (
            ["alexander", "-1x"],
            f"stabkit alexander: error: '-1x' {_READ_AS_OPTION}; "
            "put -- before it, after the options",
            ["alexander", "--", "-1x"],
            "error: unknown knot '-1x'",
        ),
        (
            ["kernels", "9_46", "--discs", "-left"],
            f"stabkit kernels: error: '-left' {_READ_AS_OPTION}; write --discs=-left",
            ["kernels", "9_46", "--discs=-left"],
            "error: unknown disc '-left'",
        ),
        (
            ["bound", "d1", "--two-knot", "-x", "--vs", "unknot"],
            f"stabkit bound: error: '-x' {_READ_AS_OPTION}; write --two-knot=-x",
            ["bound", "d1", "--two-knot=-x", "--vs", "unknot"],
            "error: unknown 2-knot reference '-x'",
        ),
    ],
    ids=["positional", "discs value", "two-knot value"],
)
def test_value_read_as_an_option_is_named_with_how_to_pass_it(
    capsys, argv, line, fixed, fixed_error
):
    assert run(capsys, *argv) == (2, "", line + "\n")
    # passed the way the line says, the value reaches the command, which names the true problem
    code, out, err = run(capsys, *fixed)
    assert (code, out) == (2, "") and err.startswith(fixed_error), err


@pytest.mark.parametrize(
    "argv,line",
    [
        # the first problem argparse meets is the kind, not the dashed token after it
        (["bound", "d3", "-x"], "stabkit bound: error: argument kind: invalid choice: 'd3'"),
        # a negative number is a value, and the knot is simply missing
        (["--seed", "-5", "alexander"], "stabkit alexander: error: the following arguments"),
        # after --, nothing is read as an option
        (["kernels", "9_46", "--", "-x"], "stabkit: error: unrecognized arguments: -x"),
    ],
    ids=["invalid kind", "negative number", "after --"],
)
def test_other_command_line_errors_keep_their_message(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith(line) and len(err.splitlines()) == 1, err


def test_version_is_exit_0(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("stabkit ")


# ------------------------------------------------------------- custom catalog


def test_custom_catalog_entry(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([CUSTOM_ENTRY]))
    code, out, _ = run(capsys, "--json", "--catalog", str(path), "kernels", "custom")
    assert code == 0
    payload = json.loads(out)
    assert payload["kernels"][0]["disc"] == "d"
    assert payload["kernels"][0]["generating_rank"] == 1


def test_disc_specs_split_only_at_top_level_commas(capsys, tmp_path):
    # the commas inside a disc name's parentheses do not separate specs
    entry = dict(CUSTOM_ENTRY, discs=[{"name": "d(a,b)", "curves": [[1, 2]]}])
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([entry]))
    code, out, _ = run(
        capsys, "--json", "--catalog", str(path), "kernels", "custom", "--discs", "d(a,b),d(a,b)"
    )
    assert code == 0
    payload = json.loads(out)
    assert [k["disc"] for k in payload["kernels"]] == ["d(a,b)", "d(a,b)"]
    assert [p["discs"] for p in payload["pairs"]] == [["d(a,b)", "d(a,b)"]]


def test_custom_catalog_keeps_builtins(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(CUSTOM_ENTRY))  # single object form
    code, _, _ = run(capsys, "--catalog", str(path), "alexander", "9_46")
    assert code == 0


def test_invalid_catalog_curve_is_exit_2(capsys, tmp_path):
    bad = dict(CUSTOM_ENTRY, discs=[{"name": "d", "curves": [[1, 0]]}])
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([bad]))
    code, _, err = run(capsys, "--catalog", str(path), "kernels", "custom")
    assert code == 2
    assert "0-framed" in err


def test_unparseable_catalog_is_exit_2(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    for content in (b"[", b"\xff\xfe["):  # the second is not UTF-8
        path.write_bytes(content)
        code, _, err = run(capsys, "--catalog", str(path), "alexander", "9_46")
        assert code == 2
        assert "not valid JSON" in err and err.count("\n") == 1


def test_deeply_nested_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for argv in (
        ["--catalog", str(path), "alexander", "9_46"],
        ["bound", "metabelian", "--scenario-json", str(path)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "nests too deeply" in err and err.count("\n") == 1, err


def test_deeply_nested_knot_reference_is_exit_2(capsys):
    def nested(depth):
        return "sum(" * depth + "9_46" + ")" * depth

    assert cli.MAX_NESTING == 500
    for depth in (300, cli.MAX_NESTING):
        code, out, _ = run(capsys, "--json", "alexander", nested(depth))
        assert code == 0 and json.loads(out)["knot"] == "9_46"
    for depth in (cli.MAX_NESTING + 1, 2000, 100000):
        code, out, err = run(capsys, "alexander", nested(depth))
        assert code == 2 and out == ""
        assert "nests too deeply" in err and err.count("\n") == 1, err


def test_padded_deep_knot_reference_resolves_to_one_leaf():
    depth = cli.MAX_NESTING
    ref = "sum( " * depth + " " * 20000 + "9_46" + " ) " * depth
    catalog = builtin_catalog()
    assert cli.resolve_knot_ref(catalog, ref) == [catalog["9_46"]]


def test_knot_reference_leaves_no_reference_cycles():
    catalog = builtin_catalog()
    cli.resolve_knot_ref(catalog, "sum(6_1,sum^2(9_46))")  # warm any caches first
    gc.collect()
    gc.disable()
    try:
        cli.resolve_knot_ref(catalog, "sum(6_1,sum^2(9_46))")
        try:
            cli.resolve_knot_ref(catalog, "sum(9_46,sum(6_1,nope))")
        except UnknownReferenceError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_json_commands_leave_no_reference_cycles(capsys):
    for argv in README_ARGVS:  # warm every cache first
        assert run(capsys, *argv)[0] == 0, argv
    gc.collect()
    gc.disable()
    try:
        for argv in README_ARGVS:
            assert run(capsys, *argv)[0] == 0, argv
        assert gc.collect() == 0
    finally:
        gc.enable()


def _random_json(rng, depth=0):
    if depth > 3 or rng.random() < 0.4:
        return rng.choice([0, -7, 2**70, True, False, None, 0.5, -1e300, "", "t^-2 + 3*t",
                           'q"\\\n\t', "é\u2013\U0001f600"])
    if rng.random() < 0.5:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    keys = ["b", "a", "é", "aa", "", 'k"\n']
    return {rng.choice(keys): _random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def test_json_text_is_indented_json_dumps(capsys):
    rng = random.Random(4)
    for _ in range(500):
        obj = _random_json(rng)
        assert cli.json_text(obj) == json.dumps(obj, indent=2, sort_keys=True), obj
    code, out, _ = run(capsys, "--json", "kernels", "sum(9_46,6_1)", "--discs", "left+gamma")
    assert code == 0 and out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_cap_size_references_meet_their_closed_forms(capsys):
    n = cli.MAX_SUMMANDS
    code, out, err = run(
        capsys, "--json", "bound", "d2", "--knot", f"sum^{n}(9_46)", "--discs", f"left^{n},right^{n}"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert (report["lower"], report["upper"]) == (n, n)
    code, out, err = run(
        capsys, "--json", "kernels", "sum^64(9_46)", "--discs", "left^64,right^64"
    )
    assert code == 0 and err == ""
    (pair,) = json.loads(out)["pairs"]
    assert pair["intersection_is_zero"] is True
    assert pair["quotient_gr"] == [64, 64]


SCENARIO = {
    "base": "6_1",
    "base_disc": "gamma",
    "companion": "6_1",
    "companion_disc": "gamma",
    "copies": 2,
}
ETA_ENTRY = dict(
    CUSTOM_ENTRY,
    seifert=[[1, 1], [0, -2]],
    discs=[{"name": "g", "curves": [[1, 1]]}],
    eta_class=[1, 0],
)

# (label, catalog entry or None, scenario or None, argv after the file options)
MALFORMED = [
    ("disc name int", dict(CUSTOM_ENTRY, discs=[{"name": 5, "curves": [[1, 2]]}]), None,
     ["kernels", "custom"]),
    ("seifert bool", dict(CUSTOM_ENTRY, seifert=[[True, 1], [0, -1]]), None,
     ["alexander", "custom"]),
    ("curve bool", dict(CUSTOM_ENTRY, discs=[{"name": "d", "curves": [[True, 2]]}]), None,
     ["kernels", "custom"]),
    ("genus bool", dict(CUSTOM_ENTRY, genus=True), None, ["alexander", "custom"]),
    ("eta bool", dict(ETA_ENTRY, eta_class=[True, 0]), None, ["alexander", "custom"]),
    ("eta short", dict(ETA_ENTRY, eta_class=[1]), None, ["alexander", "custom"]),
    ("copies bool", None, dict(SCENARIO, copies=True), ["bound", "metabelian"]),
    ("copies float", None, dict(SCENARIO, copies=2.0), ["bound", "metabelian"]),
    ("base not a string", None, dict(SCENARIO, base=["6_1"]), ["bound", "metabelian"]),
    ("disc not a string", None, dict(SCENARIO, companion_disc={"g": 1}), ["bound", "metabelian"]),
    # references over MAX_SUMMANDS (256) exit before anything is built
    ("sum power over limit", None, None, ["alexander", "sum^257(9_46)"]),
    ("sum power too long for int", None, None, ["alexander", "sum^" + "9" * 5000 + "(9_46)"]),
    ("nested sums over limit", None, None, ["alexander", "sum(sum^200(9_46),sum^57(6_1))"]),
    ("disc power over limit", None, None, ["kernels", "sum^2(9_46)", "--discs", "left^10000"]),
    ("double power over limit", None, None,
     ["bound", "d1", "--two-knot", "double(9_46.right)^257", "--vs", "unknot"]),
    ("joined doubles over limit", None, None,
     ["bound", "d1", "--two-knot", "unknot", "--vs", "double(9_46.left)^200+double(6_1.gamma)^57"]),
    ("thmC over limit", None, None, ["bound", "metabelian", "--scenario", "thmC(g=65)"]),
    ("copies over limit", None, dict(SCENARIO, copies=257), ["bound", "metabelian"]),
]


@pytest.mark.parametrize("label,entry,scenario,argv", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_input_is_exit_2_with_one_line(capsys, tmp_path, label, entry, scenario, argv):
    opts = []
    if entry is not None:
        (tmp_path / "catalog.json").write_text(json.dumps([entry]))
        opts = ["--catalog", str(tmp_path / "catalog.json")]
    if scenario is not None:
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        argv = argv + ["--scenario-json", str(tmp_path / "scenario.json")]
    code, out, err = run(capsys, *opts, *argv)
    assert code == 2, label
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_references_at_the_limit_resolve(catalog):
    assert cli.MAX_SUMMANDS == 256
    assert len(cli.resolve_knot_ref(catalog, "sum^256(unknot)")) == 256
    assert len(cli.resolve_knot_ref(catalog, "sum(sum^255(unknot),6_1)")) == 256
    with pytest.raises(SchemaError, match="too many knot summands"):
        cli.resolve_knot_ref(catalog, "sum(sum^256(unknot),6_1)")
    model = cli.resolve_two_knot_ref(catalog, "double(9_46.right)^255+unknot+double(9_46.left)")
    assert len(model.summands) == 256


def test_entry_validation_details():
    with pytest.raises(SchemaError, match="missing field"):
        entry_from_json_dict({"name": "x", "genus": 1, "seifert": [[0, 1], [0, 0]]})
    with pytest.raises(SchemaError, match="genus field disagrees"):
        entry_from_json_dict(dict(CUSTOM_ENTRY, genus=2))
    with pytest.raises(SchemaError, match="duplicate disc"):
        entry_from_json_dict(
            dict(CUSTOM_ENTRY, discs=[{"name": "d", "curves": [[1, 2]]}] * 2)
        )
    with pytest.raises(SchemaError, match="eta_class"):
        entry_from_json_dict(dict(CUSTOM_ENTRY, eta_class="gamma"))
    with pytest.raises(SchemaError, match="matrix of integers"):
        entry_from_json_dict(dict(CUSTOM_ENTRY, seifert=[[0.5, 1], [0, 0]]))


def test_load_catalog_rejects_duplicate_knot_names(capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([CUSTOM_ENTRY, dict(CUSTOM_ENTRY, notes="again")]))
    with pytest.raises(SchemaError, match="duplicate knot name"):
        load_catalog(str(path))
    code, out, err = run(capsys, "--catalog", str(path), "alexander", "custom")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "duplicate knot name" in err, err
    # a file entry may still override a built-in id, once
    path.write_text(json.dumps([dict(CUSTOM_ENTRY, name="6_1"), CUSTOM_ENTRY]))
    catalog = load_catalog(str(path))
    assert catalog["6_1"].knot.seifert == catalog["custom"].knot.seifert


def test_load_catalog_rejects_non_list(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps("just a string"))
    with pytest.raises(SchemaError, match="list of knot entries"):
        load_catalog(str(path))


# --------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "argv",
    [
        ("--json", "kernels", "9_46"),
        ("--json", "bound", "metabelian", "--scenario", "thmC(g=1)"),
        ("--json", "alexander", "sum(9_46,6_1)"),
    ],
)
def test_repeated_runs_are_byte_identical(capsys, argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_main_keeps_no_state_between_calls(capsys, monkeypatch, tmp_path):
    """One process running several commands prints what fresh processes print."""
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(CUSTOM_ENTRY))
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
    env = dict(os.environ, PYTHONPATH=str(Path(stabkit.__file__).resolve().parents[1]))
    codes = []
    for argv in (
        ["--catalog", str(path), "kernels", "custom"],
        ["kernels", "9_46"],
        ["bound", "d3", "--knot", "9_46"],
        ["--json", "alexander", "9_46"],
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "stabkit.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(fresh.returncode)
    assert codes == [0, 0, 2, 0]
    first = builtin_catalog()
    assert "custom" not in first
    first["custom"] = first.pop("9_46")
    assert builtin_catalog() is not first
    assert sorted(builtin_catalog()) == ["6_1", "9_46", "unknot"]


# ------------------------------------------------------------- Smith memo


DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "readme_digests.json"
README_ARGVS = [item["argv"] for item in json.loads(DIGESTS.read_text(encoding="utf-8"))]

# requests like the benchmark's two workloads, on other sizes and summands
MIXED_ARGVS = (
    ["--json", "bound", "d2", "--knot", "sum^9(9_46)", "--discs", "left^9,right^9"],
    ["--json", "kernels", "sum(9_46,6_1)", "--discs", "left+gamma,right+gamma"],
    ["--json", "bound", "d1", "--two-knot", "double(9_46.left)^3+double(6_1.gamma)^2",
     "--vs", "double(9_46.right)^2"],
    ["alexander", "sum(6_1,9_46,6_1)"],
    ["--json", "bound", "metabelian", "--scenario", "thmC(g=3)"],
    ["kernels", "6_1"],
    ["--seed", "3", "properties", "--cases", "2"],
)


def test_memo_values_are_immutable(capsys, fresh_memo):
    """The memo lasts for the process, so no caller may get a value it could change."""

    def frozen(x):
        if isinstance(x, tuple):
            return all(map(frozen, x))
        return x is None or isinstance(x, (int, Mat, LaurentPolyQ, EisensteinInt))

    for argv in README_ARGVS:
        assert run(capsys, *argv)[0] == 0, argv
    values = [v for tables in linalg._tables.values() for t in tables for v in t.values()]
    assert values and all(map(frozen, values))


def test_commands_print_the_same_on_a_cold_and_a_warm_memo(capsys, monkeypatch):
    argvs = README_ARGVS + [["verify"]]
    cold = []
    for argv in argvs:
        monkeypatch.setattr(linalg, "_tables", {})
        cold.append(run(capsys, *argv))
    monkeypatch.setattr(linalg, "_tables", {})
    for argv in MIXED_ARGVS:
        assert run(capsys, *argv)[0] == 0, argv
    assert [run(capsys, *argv) for argv in argvs] == cold
    assert all(code == 0 for code, _, _ in cold)


def test_kernels_reduces_each_distinct_block_once(capsys, monkeypatch, fresh_memo):
    calls = []
    real = linalg._smith_block

    def counted(ring, m, with_u, with_v, cancel):
        calls.append((ring.tag, m.lines, m.ncols, with_u, with_v))
        return real(ring, m, with_u, with_v, cancel)

    monkeypatch.setattr(linalg, "_smith_block", counted)
    code, _, _ = run(capsys, "kernels", "sum(9_46,9_46)", "--discs", "left+right,right+left")
    assert code == 0
    assert calls and len(calls) == len(set(calls))


def test_readme_outputs_match_recorded_digests(capsys):
    """Every README `--json` command prints exactly what the benchmark recorded."""
    for item in json.loads(DIGESTS.read_text(encoding="utf-8")):
        code, out, _ = run(capsys, *item["argv"])
        text = f"exit {code}\n{out}"
        assert hashlib.sha256(text.encode()).hexdigest() == item["sha256"], item["argv"]


# ---------------------------------------------------------- catalog matrices


def test_catalog_objects_derive_their_matrices_once(capsys, monkeypatch, k61):
    from stabkit import knots

    metabelian = ["--json", "bound", "metabelian", "--scenario", "thmC(g=2)"]
    d1 = ["--json", "bound", "d1", "--two-knot", "double(9_46.right)^2+double(6_1.gamma)",
          "--vs", "unknot"]
    first = [run(capsys, *metabelian), run(capsys, *d1)]
    assert first[0][0] == first[1][0] == 0
    presentations, checks = [], []
    real_zip, real_map = knots.zip_entries, knots.ModuleMap

    def zip_entries(ring, fn, a, b):
        if a is k61.knot.seifert and fn in knots._T_TIMES_X_MINUS_Y.values():
            presentations.append(ring.tag)
        return real_zip(ring, fn, a, b)

    def module_map(*args):
        checks.append(args)
        return real_map(*args)

    monkeypatch.setattr(knots, "zip_entries", zip_entries)
    monkeypatch.setattr(knots, "ModuleMap", module_map)
    assert run(capsys, *metabelian) == first[0]
    assert presentations == []
    assert run(capsys, *d1) == first[1]
    assert checks == []


@pytest.mark.parametrize("discs, code", [("left^3,right^3", 0), ("left^3,right+right+nope", 2)])
def test_a_request_sum_dies_with_the_request(capsys, discs, code):
    from stabkit.knots import SeifertKnot

    argv = ["bound", "d2", "--knot", "sum^3(9_46)", "--discs", discs]
    assert run(capsys, "--json", *argv)[0] == code
    gc.collect()
    alive = [k for k in gc.get_objects()
             if isinstance(k, SeifertKnot) and k.name == "9_46#9_46#9_46"]
    assert alive == []


def test_smith_and_kernel_calls_do_not_depend_on_history(capsys, monkeypatch):
    """Kept catalog matrices carry no Smith form or kernel into a later request."""
    import functools

    from stabkit import catalog

    # new catalog objects, built and validated here, so the first pass starts
    # with nothing kept on them
    monkeypatch.setattr(
        catalog, "_builtin_entries", functools.lru_cache(catalog._builtin_entries.__wrapped__)
    )
    builtin_catalog()
    counts = {}
    for name in ("smith_normal_form", "kernel_basis"):
        real = getattr(linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for mod in list(sys.modules.values()):  # every module that bound it, as bench/layertrace does
            if getattr(mod, "__name__", "").startswith("stabkit") and vars(mod).get(name) is real:
                monkeypatch.setattr(mod, name, counted)
    argvs = README_ARGVS + [
        ["--json", "bound", "d1", "--two-knot", "double(9_46.right)", "--vs", "unknot"],
        ["--json", "kernels", "9_46"],
    ]

    def one_pass():
        seen = []
        for argv in argvs:
            counts.update(smith_normal_form=0, kernel_basis=0)
            assert run(capsys, *argv)[0] == 0, argv
            seen.append(dict(counts))
        return seen

    first = one_pass()
    assert any(c["smith_normal_form"] for c in first)
    assert any(c["kernel_basis"] for c in first)
    assert one_pass() == first


# --------------------------------------------------------- verify, properties


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert "all anchors passed" in out


def test_properties_command_small(capsys):
    code, out, _ = run(capsys, "--seed", "7", "properties", "--cases", "3")
    assert code == 0
    assert "PASS snf_integers (3 cases, seed 7)" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_properties_without_cases_is_exit_2(capsys, cases):
    code, out, err = run(capsys, "properties", "--cases", cases)
    assert code == 2
    assert out == ""
    assert err == f"error: --cases must be at least 1: got {cases}\n"
