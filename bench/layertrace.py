"""Per-layer tracing of stabkit from outside the package.

`Tracer.install_spans` replaces stabkit's public functions with timing wrappers at
every place they are bound (`from .linalg import smith_normal_form` leaves a
copy in `modules` and `knots`), plus the methods and cached properties of the
layer classes and the dataclass `__post_init__` validators.  Each wrapped
call records a span (name, start, end, parent, request id) in memory;
`uninstall` puts every original back.

Ring arithmetic is too fine-grained for spans: `install_counters` counts the
calls on the ring singletons `INTEGERS`, `LAURENT` and `EISENSTEIN` without
timing them, in a pass of its own that also records the shapes and exact
repeats of the Smith normal form inputs (hashing every input matrix added a
quarter to the span pass of `kernels-witness`).  Timing each ring call made the
traced pass of `kernels-witness` 2.8 times and that of `bound-sums` 2.2 times
as long as the untraced pass, and even counting them in the span pass
doubled the former, so the span times would mostly measure the wrappers.
Ring time therefore stays in the calling span: `linalg.smith_normal_form`
has no child spans, and its `.self_s` equals its `.s`.

The metric table at the bottom names every per-layer metric together with the
end-to-end metric and workload it is predicted to move.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# Span fields, in the order a span list stores them.
NAME, START, END, PARENT, REQUEST = range(5)

SPAN_LAYERS = ("linalg", "modules", "knots", "metabelian", "bounds", "catalog",
               "oracles", "propsuite", "verify")
CLASS_LAYERS = ("modules", "knots", "metabelian", "bounds", "catalog", "oracles")
CLI_SPANS = ("main", "resolve_knot_ref", "resolve_disc_spec", "resolve_two_knot_ref",
             "resolve_scenario")
# Only these methods of these classes get spans: FiniteModuleTable's
# per-element helpers would outnumber the work they describe.
CLASS_ALLOW = {"FiniteModuleTable": ("span",)}
RING_SINGLETONS = {"INTEGERS": "integers", "LAURENT": "laurent", "EISENSTEIN": "eisenstein"}


class Tracer:
    """Wraps a loaded stabkit package; `mods` maps short layer names to modules."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.spans: list = []
        self.counts: Counter = Counter()
        self.snf_s_by_ring: Counter = Counter()
        self.snf_entries = 0
        self.snf_max_cols = 0
        self.snf_transform_calls = 0
        self.snf_repeats = 0
        self.snf_counted = 0
        self._seen_snf: set = set()
        self._stack: list = []
        self._request = -1
        self._undo: list = []

    # ------------------------------------------------------------ recording

    def begin_request(self, rid: int) -> None:
        self._request = rid
        self._seen_snf = set()

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._request])
        self._stack.append(sid)
        self.spans[sid][START] = time.perf_counter()
        return sid

    def _exit(self, sid: int) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[sid]
        span[END] = end
        return end - span[START]

    def _span_wrapper(self, fn, name: str):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(sid)

        return wrapper

    def _snf_span_wrapper(self, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def smith_normal_form(ring, m, with_u=True, with_v=True, cancel=None):
            sid = enter("linalg.smith_normal_form")
            try:
                return fn(ring, m, with_u, with_v, cancel)
            finally:
                self.snf_s_by_ring[ring.tag] += exit_(sid)

        return smith_normal_form

    def _snf_count_wrapper(self, fn):
        @functools.wraps(fn)
        def smith_normal_form(ring, m, with_u=True, with_v=True, cancel=None):
            self.snf_counted += 1
            key = (ring.tag, m.ncols, m.rows, bool(with_u), bool(with_v))
            if key in self._seen_snf:
                self.snf_repeats += 1
            else:
                self._seen_snf.add(key)
            self.snf_entries += m.nrows * m.ncols
            self.snf_max_cols = max(self.snf_max_cols, m.ncols)
            if with_u or with_v:
                self.snf_transform_calls += 1
            return fn(ring, m, with_u, with_v, cancel)

        return smith_normal_form

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # ---------------------------------------------------------- install/undo

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had, old))

    def _rebind(self, replaced: dict) -> None:
        """Point every module binding of a replaced function at its wrapper."""
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and callable(value):
                    self._set(mod, attr, replaced[id(value)])

    def install_spans(self) -> None:
        replaced: dict = {}  # id(original function) -> wrapper
        for layer in SPAN_LAYERS + ("cli",):
            mod = self.mods[layer]
            names = CLI_SPANS if layer == "cli" else [
                n for n, f in vars(mod).items()
                if callable(f) and getattr(f, "__module__", None) == mod.__name__
                and not n.startswith("_") and not isinstance(f, type)
            ]
            for n in names:
                fn = getattr(mod, n)
                if n == "smith_normal_form":
                    wrapper = self._snf_span_wrapper(fn)
                else:
                    wrapper = self._span_wrapper(fn, f"{layer}.{n}")
                replaced[id(fn)] = wrapper
        self._rebind(replaced)
        suites = self.mods["propsuite"].SUITES
        for name, fn in list(suites.items()):
            suites[name] = replaced.get(id(fn), fn)
            self._undo.append((suites, name, None, fn))
        verify = self.mods["verify"]
        self._set(verify, "ANCHORS", tuple((n, replaced.get(id(f), f)) for n, f in verify.ANCHORS))
        for layer in CLASS_LAYERS:
            self._wrap_classes(layer)

    def _wrap_classes(self, layer: str) -> None:
        mod = self.mods[layer]
        for cname, cls in list(vars(mod).items()):
            if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                continue
            allow = CLASS_ALLOW.get(cname)
            for attr, value in list(vars(cls).items()):
                if allow is not None and attr not in allow:
                    continue
                name = f"{layer}.{cname}.{attr}"
                if isinstance(value, functools.cached_property):
                    prop = functools.cached_property(self._span_wrapper(value.func, name))
                    prop.__set_name__(cls, attr)
                    self._set(cls, attr, prop)
                elif isinstance(value, classmethod):
                    if not attr.startswith("_"):
                        self._set(cls, attr, classmethod(self._span_wrapper(value.__func__, name)))
                elif callable(value) and not isinstance(value, type) and (
                    attr == "__post_init__" or not attr.startswith("_")
                ):
                    self._set(cls, attr, self._span_wrapper(value, name))

    def install_counters(self) -> None:
        """Count ring calls and record SNF shapes and repeats; no timing."""
        snf = self.mods["linalg"].smith_normal_form
        self._rebind({id(snf): self._snf_count_wrapper(snf)})
        rings = self.mods["rings"]
        for singleton, ring in RING_SINGLETONS.items():
            inst = getattr(rings, singleton)
            for attr, value in vars(type(inst)).items():
                if callable(value) and not attr.startswith("_"):
                    self._set(inst, attr, self._count_wrapper(getattr(inst, attr), f"rings.{ring}.calls"))
        poly = rings.LaurentPolyQ
        self._set(poly, "__init__", self._count_wrapper(poly.__init__, "rings.laurent_poly.constructed"))
        self._set(poly, "__divmod__", self._count_wrapper(poly.__divmod__, "rings.laurent_poly.divmod"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            elif had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -------------------------------------------------------------- output

    def write(self, path) -> None:
        """Spans as JSON: a name table and [name, start, end, parent, request] rows."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[NAME]], s[START], s[END], s[PARENT], s[REQUEST]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent",
                                                  "request"], "spans": rows}, fh)

    def metrics(self) -> dict:
        return layer_metrics(self)


# ------------------------------------------------------------------ arithmetic

def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]


def inclusive_time(spans: list, names) -> float:
    """Wall time inside any span named in `names`, counting nested ones once."""
    names = set(names)
    inside = [False] * len(spans)  # parents are recorded before their children
    total = 0.0
    for i, s in enumerate(spans):
        covered = s[PARENT] >= 0 and (inside[s[PARENT]] or spans[s[PARENT]][NAME] in names)
        inside[i] = covered
        if s[NAME] in names and not covered:
            total += s[END] - s[START]
    return total


SUITES = ("snf_integers", "snf_laurent", "snf_eisenstein", "eisenstein_division",
          "generating_rank_lemma", "cyclic_quotient_drop", "character_selection")

# name -> (unit, end-to-end metric it should move, workload where it should move)
PER_LAYER = {
    "rings.laurent.calls": ("count", "requests_per_s", "bound-sums"),
    "rings.laurent.divmod.calls": ("count", "requests_per_s", "bound-sums"),
    "rings.laurent_poly.constructed": ("count", "requests_per_s", "bound-sums"),
    "rings.eisenstein.calls": ("count", "requests_per_s", "kernels-witness, selfcheck"),
    "rings.integers.calls": ("count", "requests_per_s", "kernels-witness, selfcheck"),
    "linalg.smith_normal_form.calls": ("count", "requests_per_s, latency_p90_ms", "bound-sums"),
    "linalg.smith_normal_form.s": ("s", "requests_per_s, latency_p90_ms", "bound-sums"),
    "linalg.smith_normal_form.self_s": ("s", "requests_per_s, latency_p90_ms", "bound-sums"),
    "linalg.smith_normal_form.laurent_s": ("s", "requests_per_s, latency_p90_ms", "bound-sums"),
    "linalg.smith_normal_form.eisenstein_s": ("s", "requests_per_s, latency_p90_ms", "bound-sums"),
    "linalg.smith_normal_form.integers_s": ("s", "requests_per_s, latency_p90_ms", "bound-sums"),
    "linalg.smith_normal_form.entries": ("count", "requests_per_s, latency_p90_ms", "bound-sums"),
    "linalg.smith_normal_form.max_cols": ("count", "requests_per_s, latency_p90_ms", "bound-sums"),
    "linalg.smith_normal_form.transform_calls": ("count", "requests_per_s, latency_p90_ms", "kernels-witness"),
    "linalg.smith_normal_form.repeat_ratio": ("ratio", "requests_per_s, latency_p90_ms", "bound-sums"),
    "linalg.kernel_basis.s": ("s", "requests_per_s, latency_p90_ms", "bound-sums"),
    "linalg.solve_with.calls": ("count", "requests_per_s, latency_p90_ms", "kernels-witness"),
    "linalg.solve_with.s": ("s", "requests_per_s, latency_p90_ms", "kernels-witness"),
    "linalg.mat_mul.s": ("s", "requests_per_s, latency_p90_ms", "kernels-witness"),
    "linalg.block_diag.s": ("s", "requests_per_s, latency_p90_ms", "bound-sums"),
    "modules.quotient_of_submodules.calls": ("count", "latency_p50_ms", "kernels-witness"),
    "modules.quotient_of_submodules.s": ("s", "latency_p50_ms", "kernels-witness"),
    "modules.submodule_intersection.s": ("s", "latency_p50_ms", "kernels-witness"),
    "modules.direct_sum.s": ("s", "latency_p50_ms", "kernels-witness"),
    "modules.self_s": ("s", "latency_p50_ms", "kernels-witness"),
    "knots.SurgeryDisc.validate_s": ("s", "latency_p90_ms", "bound-sums"),
    "knots.SeifertKnot.validate_s": ("s", "latency_p90_ms", "bound-sums"),
    "knots.alexander_module_Q.s": ("s", "latency_p90_ms", "bound-sums"),
    "knots.boundary_connect_sum.s": ("s", "latency_p90_ms", "bound-sums"),
    "knots.double_of_disc.s": ("s", "latency_p90_ms", "bound-sums"),
    "knots.self_s": ("s", "latency_p90_ms", "bound-sums"),
    "metabelian.SatelliteScenario.validate_s": ("s", "latency_p90_ms", "kernels-witness"),
    "metabelian.theorem_C_lower_bound.s": ("s", "latency_p90_ms", "kernels-witness"),
    "metabelian.satellite_kernel_pair.s": ("s", "latency_p90_ms", "kernels-witness"),
    "metabelian.kernel_pair_quotient.s": ("s", "latency_p90_ms", "kernels-witness"),
    "metabelian.character_selection.s": ("s", "latency_p90_ms", "kernels-witness"),
    "bounds.full_report.s": ("s", "requests_per_s", "bound-sums"),
    "bounds.full_report.self_s": ("s", "requests_per_s", "bound-sums"),
    "cli.resolve.s": ("s", "latency_p50_ms, setup_s", "kernels-witness"),
    "cli.main.self_s": ("s", "latency_p50_ms, setup_s", "kernels-witness"),
    "catalog.builtin_catalog.calls": ("count", "latency_p50_ms, setup_s", "kernels-witness"),
    "catalog.builtin_catalog.s": ("s", "latency_p50_ms, setup_s", "kernels-witness"),
    "oracles.span.calls": ("count", "requests_per_s, latency_p90_ms", "selfcheck"),
    "oracles.span.s": ("s", "requests_per_s, latency_p90_ms", "selfcheck"),
    "oracles.minor_gcd_divisors.s": ("s", "requests_per_s, latency_p90_ms", "selfcheck"),
    "oracles.brute.s": ("s", "requests_per_s, latency_p90_ms", "selfcheck"),
    **{f"propsuite.{s}.s": ("s", "requests_per_s, latency_p90_ms", "selfcheck") for s in SUITES},
    "verify.run_verify.s": ("s", "requests_per_s, latency_p90_ms", "selfcheck"),
}


def layer_metrics(tr: Tracer) -> dict:
    """Every metric of PER_LAYER from one traced run."""
    spans = tr.spans
    calls = Counter(s[NAME] for s in spans)
    selfs = self_times(spans)
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for s, st in zip(spans, selfs):
        self_by_name[s[NAME]] += st
        self_by_layer[s[NAME].split(".", 1)[0]] += st

    def incl(*names):
        return inclusive_time(spans, names)

    snf = "linalg.smith_normal_form"
    snf_calls = calls[snf]
    out = {
        "rings.laurent.calls": tr.counts["rings.laurent.calls"],
        "rings.laurent.divmod.calls": tr.counts["rings.laurent_poly.divmod"],
        "rings.laurent_poly.constructed": tr.counts["rings.laurent_poly.constructed"],
        "rings.eisenstein.calls": tr.counts["rings.eisenstein.calls"],
        "rings.integers.calls": tr.counts["rings.integers.calls"],
        f"{snf}.calls": snf_calls,
        f"{snf}.s": incl(snf),
        f"{snf}.self_s": self_by_name[snf],
        f"{snf}.laurent_s": tr.snf_s_by_ring["Q_Laurent"],
        f"{snf}.eisenstein_s": tr.snf_s_by_ring["Eisenstein"],
        f"{snf}.integers_s": tr.snf_s_by_ring["Integers"],
        f"{snf}.entries": tr.snf_entries,
        f"{snf}.max_cols": tr.snf_max_cols,
        f"{snf}.transform_calls": tr.snf_transform_calls,
        f"{snf}.repeat_ratio": tr.snf_repeats / tr.snf_counted if tr.snf_counted else 0.0,
        "linalg.kernel_basis.s": incl("linalg.kernel_basis"),
        "linalg.solve_with.calls": calls["linalg.solve_with"],
        "linalg.solve_with.s": incl("linalg.solve_with"),
        "linalg.mat_mul.s": incl("linalg.mat_mul"),
        "linalg.block_diag.s": incl("linalg.block_diag"),
        "modules.quotient_of_submodules.calls": calls["modules.quotient_of_submodules"],
        "modules.quotient_of_submodules.s": incl("modules.quotient_of_submodules"),
        "modules.submodule_intersection.s": incl("modules.submodule_intersection"),
        "modules.direct_sum.s": incl("modules.direct_sum"),
        "modules.self_s": self_by_layer["modules"],
        "knots.SurgeryDisc.validate_s": incl("knots.SurgeryDisc.__post_init__"),
        "knots.SeifertKnot.validate_s": incl("knots.SeifertKnot.__post_init__"),
        "knots.alexander_module_Q.s": incl("knots.alexander_module_Q"),
        "knots.boundary_connect_sum.s": incl("knots.boundary_connect_sum"),
        "knots.double_of_disc.s": incl("knots.double_of_disc"),
        "knots.self_s": self_by_layer["knots"],
        "metabelian.SatelliteScenario.validate_s": incl("metabelian.SatelliteScenario.__post_init__"),
        "metabelian.theorem_C_lower_bound.s": incl("metabelian.theorem_C_lower_bound"),
        "metabelian.satellite_kernel_pair.s": incl("metabelian.satellite_kernel_pair"),
        "metabelian.kernel_pair_quotient.s": incl("metabelian.kernel_pair_quotient"),
        "metabelian.character_selection.s": incl("metabelian.character_selection"),
        "bounds.full_report.s": incl("bounds.full_report"),
        "bounds.full_report.self_s": self_by_name["bounds.full_report"],
        "cli.resolve.s": incl(*(f"cli.{n}" for n in CLI_SPANS[1:])),
        "cli.main.self_s": self_by_name["cli.main"],
        "catalog.builtin_catalog.calls": calls["catalog.builtin_catalog"],
        "catalog.builtin_catalog.s": incl("catalog.builtin_catalog"),
        "oracles.span.calls": calls["oracles.FiniteModuleTable.span"],
        "oracles.span.s": incl("oracles.FiniteModuleTable.span"),
        "oracles.minor_gcd_divisors.s": incl("oracles.minor_gcd_divisors"),
        "oracles.brute.s": incl(*(n for n in calls if n.startswith("oracles.brute_"))),
        "verify.run_verify.s": incl("verify.run_verify"),
    }
    for suite in SUITES:
        out[f"propsuite.{suite}.s"] = incl(f"propsuite.suite_{suite}")
    return out
