"""Seeded CLI fuzzing: every input exits 0, 2 or 3, never with a traceback.

The generator draws argv lists from the reference grammar and from mutated
catalog and scenario files: random parts, random nesting, counts on both
sides of `cli.MAX_SUMMANDS`, references that begin with `-`, and single
character edits of all of these.  A nonzero exit must print exactly one
stderr line.  The seed is fixed, so a failure reproduces with its argv.
"""

import json
import random

from stabkit import cli

SEED = 20261019
CASES = 600

# (well-formed, malformed) choices; a draw is malformed one time in four
KNOT_IDS = (["9_46", "6_1", "unknot", "custom", " 9_46"], ["nope", "", "sum", "9_46.left"])
DISC_NAMES = (["left", "right", "gamma", "trivial", "d"], ["nope", "", "left^"])
# small counts build quickly; the others are over the limit or malformed
COUNTS = (["1", "2", "3", "007"], ["0", "257", "300", "1" + "0" * 30, "-1", "x", ""])
EDIT_CHARS = "()^,+-.=x0 \n\t{}[]\"'\\"

CUSTOM_ENTRY = {
    "name": "custom",
    "genus": 1,
    "seifert": [[2, 1], [0, -1]],
    "discs": [{"name": "d", "curves": [[1, 2]]}],
    "eta_class": [1, 0],
}
SCENARIO = {
    "base": "6_1",
    "base_disc": "gamma",
    "companion": "6_1",
    "companion_disc": "gamma",
    "copies": 2,
}
JSON_VALUES = [None, True, 0, -1, 2, 257, 1.5, "x", "6_1", "unknot", "trivial", "9_46", "left",
               [], [[1, 2]], {}, [[0.5, 1], [0, 0]]]


def _pick(rng: random.Random, choices: tuple) -> str:
    well_formed, malformed = choices
    return rng.choice(malformed if rng.random() < 0.25 else well_formed)


def _edit(rng: random.Random, text: str) -> str:
    """One character dropped, inserted or replaced, or a leading '-'."""
    kind = rng.randrange(4)
    i = rng.randrange(len(text) + 1)
    if kind == 0 and text:
        return text[: max(i - 1, 0)] + text[i:]
    if kind == 1:
        return text[:i] + rng.choice(EDIT_CHARS) + text[i:]
    if kind == 2 and text:
        return text[: max(i - 1, 0)] + rng.choice(EDIT_CHARS) + text[i:]
    return "-" + text


def _maybe_edit(rng: random.Random, text: str) -> str:
    return _edit(rng, text) if rng.random() < 0.2 else text


# the discs each catalog knot has
DISCS = {"9_46": ["left", "right"], "6_1": ["gamma"], "unknot": ["trivial"], "custom": ["d"]}


def _summands(rng: random.Random) -> list:
    if rng.random() < 0.2:
        return [_pick(rng, KNOT_IDS)] * rng.randint(1, 3)
    return [rng.choice(sorted(DISCS)) for _ in range(rng.randint(1, 4))]


def _knot_ref(rng: random.Random, summands: list) -> str:
    """A reference to the sum of the summands, as a power, a nested sum or an id."""
    if len(summands) == 1 and rng.random() < 0.5:
        return summands[0]
    if len(set(summands)) == 1 and rng.random() < 0.5:
        count = str(len(summands)) if rng.random() < 0.75 else _pick(rng, COUNTS)
        return f"sum^{count}({summands[0]})"
    cut = rng.randint(0, len(summands))
    if 0 < cut < len(summands) and rng.random() < 0.3:  # nested
        return f"sum({_knot_ref(rng, summands[:cut])},{_knot_ref(rng, summands[cut:])})"
    return "sum(" + ",".join(summands) + ")"


def _disc_spec(rng: random.Random, summands: list) -> str:
    """Disc choices for the summands, broadcast or one per summand."""
    names = [rng.choice(DISCS.get(k, ["left"])) for k in summands]
    if rng.random() < 0.2:
        names[rng.randrange(len(names))] = _pick(rng, DISC_NAMES)
    if len(set(names)) == 1 and rng.random() < 0.5:
        return names[0] if rng.random() < 0.5 else f"{names[0]}^{len(names)}"
    return "+".join(names)


def _two_knot_ref(rng: random.Random) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            terms.append("unknot")
        else:
            knot = _pick(rng, KNOT_IDS)
            disc = rng.choice(DISCS.get(knot, ["left"])) if rng.random() < 0.8 else "nope"
            power = f"^{_pick(rng, COUNTS)}" if rng.random() < 0.5 else ""
            terms.append(f"double({knot}.{disc}){power}")
    return "+".join(terms)


def _mutated_json(rng: random.Random, data: dict) -> str:
    """The JSON text of data after up to one random change, or broken text."""
    data = json.loads(json.dumps(data))
    roll = rng.random()
    if roll < 0.1:
        # the surrogates are written as the bytes ff fe, which are not UTF-8
        return rng.choice(["", "{", "[1,", "\udcff\udcfe", "[" * 5000 + "]" * 5000, "null"])
    key = rng.choice(sorted(data))
    if roll < 0.25:
        del data[key]
    elif roll < 0.6:
        data[key] = rng.choice(JSON_VALUES)
    elif roll < 0.7 and "discs" in data:
        data["discs"] = [{"name": _pick(rng, DISC_NAMES), "curves": rng.choice(JSON_VALUES)}]
    elif roll < 0.8 and "companion" in data:  # a companion whose obstruction vanishes
        data.update(companion="unknot", companion_disc="trivial")
    if rng.random() < 0.3:
        return json.dumps([data, data] if rng.random() < 0.5 else [data])
    return json.dumps(data)


def _write(path, text: str) -> str:
    """Write text, lone surrogates as the bytes they stand for; the path as a string."""
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    return str(path)


def _argv(rng: random.Random, tmp_path, case: int) -> list:
    argv = ["--json"] if rng.random() < 0.5 else []
    if rng.random() < 0.2:
        text = _mutated_json(rng, CUSTOM_ENTRY)
        argv += ["--catalog", _write(tmp_path / f"catalog{case}.json", text)]
    command = rng.choice(["alexander", "kernels", "d2", "metabelian", "d1", "properties"])
    summands = _summands(rng)
    knot = _maybe_edit(rng, _knot_ref(rng, summands))
    if command == "alexander":
        argv += ["alexander", knot]
    elif command == "kernels":
        argv += ["kernels", knot]
        if rng.random() < 0.8:
            specs = ",".join(_disc_spec(rng, summands) for _ in range(rng.randint(1, 3)))
            argv += ["--discs", _maybe_edit(rng, specs)]
    elif command == "d2":
        specs = f"{_disc_spec(rng, summands)},{_disc_spec(rng, summands)}"
        argv += ["bound", "d2", "--knot", knot, "--discs", _maybe_edit(rng, specs)]
    elif command == "metabelian":
        argv += ["bound", "metabelian"]
        if rng.random() < 0.5:
            text = _mutated_json(rng, SCENARIO)
            argv += ["--scenario-json", _write(tmp_path / f"scenario{case}.json", text)]
        else:
            g = rng.choice(["1", "2", "1", "2", "0", "65", "1" + "0" * 30, "x"])
            argv += ["--scenario", _maybe_edit(rng, f"thmC(g={g})")]
    elif command == "d1":
        argv += ["bound", "d1", "--two-knot", _maybe_edit(rng, _two_knot_ref(rng))]
        argv += ["--vs", _maybe_edit(rng, _two_knot_ref(rng))]
    else:  # no case count reaches the suites: each of these exits 2
        argv += ["properties", "--cases", rng.choice(["0", "-3", "x", ""])]
    return argv


def test_seeded_cli_fuzz_exits_cleanly(capsys, tmp_path):
    rng = random.Random(SEED)
    codes = set()
    for case in range(CASES):
        argv = _argv(rng, tmp_path, case)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in out + err, argv
        if code:
            assert len(err.splitlines()) == 1, (argv, err)
        codes.add(code)
    # the generator reaches successes and both error exits
    assert codes == {0, 2, 3}
