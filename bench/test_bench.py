"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _api(workload: str, seed: int):
    mods, catalog, requests = run.set_up(workload, seed)
    return SimpleNamespace(mods=mods, entries=catalog, requests=requests, **mods)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    first = workloads.generate(workload, 11, 120)
    assert first == workloads.generate(workload, 11, 120)
    assert first != workloads.generate(workload, 12, 120)
    assert len(first) == 120


def test_decks_deal_every_size():
    sizes = [int(r.args[4][4:].split("(")[0]) for r in workloads.generate("bound-sums", 3, 153)
             if r.kind == "d2"]
    assert sorted(sizes) == sorted(workloads.D2_SIZES * 3)


def test_corrupted_output_counts_as_failed():
    api = _api("kernels-witness", 3)
    cheap = [r for r in api.requests if r.kind in ("alexander", "kernels")][:4]
    _, lat, failures = run.run_requests(cheap, api, count=len(cheap))
    assert len(lat) == 4 and failures == []

    real_main = api.cli.main

    def corrupted_main(argv):
        code = real_main(argv)
        print('{"generating_rank": -1}')  # stdout now holds two JSON documents
        return code

    api.cli = SimpleNamespace(main=corrupted_main, resolve_scenario=api.cli.resolve_scenario)
    _, lat, failures = run.run_requests(cheap, api, count=len(cheap))
    assert len(lat) == 4 and len(failures) == 4


def test_wrong_answer_counts_as_failed():
    req = workloads.generate("bound-sums", 4, 3)
    d1 = next(r for r in req if r.kind == "d1")
    quantity, lower, upper = d1.expect
    good = f'{{"quantity": "{quantity}", "lower": {lower}, "upper": "{upper}", "provenance": []}}'
    bad = good.replace(f'"lower": {lower}', f'"lower": {lower + 1}')
    assert workloads.check(d1, (0, good)) == ""
    assert workloads.check(d1, (0, bad)) != ""
    assert workloads.check(d1, (2, good)) == "exit code 2"


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_arithmetic_on_hand_built_tree():
    spans = [
        _span("modules.quotient_of_submodules", 0.0, 10.0, -1),  # 0
        _span("linalg.kernel_basis", 1.0, 4.0, 0),                # 1
        _span("linalg.smith_normal_form", 2.0, 3.5, 1),           # 2
        _span("modules.direct_sum", 5.0, 9.0, 0),                 # 3
        _span("modules.direct_sum", 6.0, 7.0, 3),                 # 4, nested in its own name
    ]
    assert layertrace.self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 3.0, 1.0])
    assert layertrace.inclusive_time(spans, ["modules.direct_sum"]) == pytest.approx(4.0)
    assert layertrace.inclusive_time(
        spans, ["linalg.kernel_basis", "linalg.smith_normal_form"]
    ) == pytest.approx(3.0)

    tracer = layertrace.Tracer({})
    tracer.spans = spans
    metrics = tracer.metrics()
    assert metrics["modules.self_s"] == pytest.approx(3.0 + 3.0 + 1.0)
    assert metrics["modules.direct_sum.s"] == pytest.approx(4.0)
    assert metrics["modules.quotient_of_submodules.s"] == pytest.approx(10.0)
    assert metrics["linalg.smith_normal_form.self_s"] == pytest.approx(1.5)
    assert metrics["linalg.smith_normal_form.calls"] == 1


def _counts(api, prefix):
    tracer = layertrace.Tracer(api.mods)
    for install in (tracer.install_spans, tracer.install_counters):
        install()
        try:
            _, _, failures = run.run_requests(prefix, api, count=len(prefix), tracer=tracer)
        finally:
            tracer.uninstall()
        assert failures == []
    units = {n: u for n, (u, _, _) in layertrace.PER_LAYER.items()}
    return {n: v for n, v in tracer.metrics().items() if units[n] in ("count", "ratio")}


def test_calls_repeat_exactly_and_uninstall_restores():
    api = _api("kernels-witness", 5)
    snf = api.linalg.smith_normal_form
    assert api.modules.smith_normal_form is snf and api.knots.smith_normal_form is snf
    prefix = api.requests[:9]
    first = _counts(api, prefix)
    second = _counts(api, prefix)
    assert first == second
    for name in ("linalg.smith_normal_form.calls", "rings.laurent.calls",
                 "rings.eisenstein.calls", "catalog.builtin_catalog.calls"):
        assert first[name] > 0, name
    assert api.linalg.smith_normal_form is snf
    assert api.modules.smith_normal_form is snf and api.knots.smith_normal_form is snf
    assert "add" not in vars(api.rings.LAURENT)
