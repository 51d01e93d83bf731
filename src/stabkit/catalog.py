"""Built-in knot/disc catalog and JSON loading.

Catalog ids resolve knots in the CLI; each entry carries a Seifert matrix,
named surgery discs, and (when used as a satellite pattern) the class of the
infection curve eta in the Alexander module.  The built-in entries depend on
no input, so a process builds and validates them once; every call of
`builtin_catalog` still returns a new dict, which `load_catalog` extends.
Their knots and discs derive their matrices (presentations, curve classes,
doubles) once per object, on first use, not at build (see `knots`), so
every later request that names them reuses those matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .errors import SchemaError, UnknownReferenceError
from .knots import SeifertKnot, SurgeryDisc


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    knot: SeifertKnot
    discs: dict = field(default_factory=dict)
    notes: str = ""
    eta_class: Optional[tuple] = None

    def disc(self, name: str) -> SurgeryDisc:
        if name not in self.discs:
            raise UnknownReferenceError(
                f"unknown disc {name!r} for {self.id!r}; have {sorted(self.discs)}"
            )
        return self.discs[name]


def _entry(id_, rows, disc_specs, notes, eta_class=None) -> CatalogEntry:
    knot = SeifertKnot(id_, rows)
    discs = {name: SurgeryDisc(knot, name, curves) for name, curves in disc_specs}
    return CatalogEntry(id_, knot, discs, notes, eta_class)


def builtin_catalog() -> dict:
    """A fresh dict of the built-in entries, which are built and validated once."""
    return {e.id: e for e in _builtin_entries()}


@lru_cache(maxsize=None)
def _builtin_entries() -> tuple:
    return (
        _entry(
            "9_46",
            [[0, 2], [1, 0]],
            [("left", ((1, 0),)), ("right", ((0, 1),))],
            "two-generator ribbon knot with two dual surgery discs; "
            "the disc kernels intersect trivially",
        ),
        _entry(
            "6_1",
            [[1, 1], [0, -2]],
            [("gamma", ((1, 1),))],
            "twist knot with cyclic Alexander module, one surgery disc, and an "
            "infection curve generating the module",
            eta_class=(1, 0),
        ),
        _entry(
            "unknot",
            [],
            [("trivial", ())],
            "trivial disc for the unknot",
        ),
    )


def _require(cond: bool, invariant: str, detail: str):
    if not cond:
        raise SchemaError(invariant, detail)


def _is_int(x) -> bool:
    """A JSON integer; `bool` is a subclass of `int` but `true` is not a number."""
    return isinstance(x, int) and not isinstance(x, bool)


def entry_from_json_dict(data: dict) -> CatalogEntry:
    _require(isinstance(data, dict), "knot entry must be an object", f"got {type(data).__name__}")
    for key in ("name", "genus", "seifert", "discs"):
        _require(key in data, "knot entry missing field", key)
    name = data["name"]
    _require(isinstance(name, str) and name != "", "knot name must be a nonempty string", repr(name))
    seifert = data["seifert"]
    _require(
        isinstance(seifert, list) and all(isinstance(r, list) for r in seifert),
        "seifert must be a matrix of integers",
        repr(seifert),
    )
    _require(
        all(_is_int(x) for r in seifert for x in r),
        "seifert must be a matrix of integers",
        repr(seifert),
    )
    knot = SeifertKnot(name, seifert)
    _require(
        _is_int(data["genus"]) and data["genus"] == knot.genus,
        "genus field disagrees with seifert size",
        f"genus {data['genus']} vs matrix size {2 * knot.genus}",
    )
    discs = {}
    _require(isinstance(data["discs"], list), "discs must be a list", repr(data["discs"]))
    for dd in data["discs"]:
        _require(isinstance(dd, dict), "disc entry must be an object", repr(dd))
        _require("name" in dd and "curves" in dd, "disc entry missing field", repr(sorted(dd)))
        _require(
            isinstance(dd["name"], str) and dd["name"] != "",
            "disc name must be a nonempty string",
            repr(dd["name"]),
        )
        curves = dd["curves"]
        _require(
            isinstance(curves, list)
            and all(isinstance(c, list) and all(_is_int(x) for x in c) for c in curves),
            "curves must be integer column vectors",
            repr(curves),
        )
        disc = SurgeryDisc(knot, dd["name"], curves)
        _require(dd["name"] not in discs, "duplicate disc name", dd["name"])
        discs[dd["name"]] = disc
    eta = data.get("eta_class")
    if eta is not None:
        _require(
            isinstance(eta, list) and all(_is_int(x) for x in eta),
            "eta_class must be an integer vector",
            repr(eta),
        )
        _require(
            len(eta) == 2 * knot.genus,
            "eta_class has wrong length",
            f"expected {2 * knot.genus} coordinates, got {len(eta)}",
        )
        eta = tuple(eta)
    return CatalogEntry(name, knot, discs, data.get("notes", ""), eta)


def read_json(path: str, what: str):
    """Parse a UTF-8 JSON file; bad bytes, bad JSON or too deep nesting raise SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
            raise SchemaError(f"{what} file is not valid JSON", str(e)) from e
        except RecursionError as e:
            raise SchemaError(f"{what} file nests too deeply", str(e)) from e


def load_catalog(path: str) -> dict:
    """Built-ins plus entries from a JSON file (a list or a single object)."""
    catalog = builtin_catalog()
    data = read_json(path, "catalog")
    if isinstance(data, dict):
        data = [data]
    _require(isinstance(data, list), "catalog must be a list of knot entries", type(data).__name__)
    names = set()
    for item in data:
        entry = entry_from_json_dict(item)
        _require(entry.id not in names, "duplicate knot name", entry.id)
        names.add(entry.id)
        catalog[entry.id] = entry
    return catalog


def resolve_knot(catalog: dict, ref: str) -> CatalogEntry:
    if ref not in catalog:
        raise UnknownReferenceError(f"unknown knot {ref!r}; have {sorted(catalog)}")
    return catalog[ref]
