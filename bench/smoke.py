"""Smoke test of the benchmark itself on tiny configurations (p <= 2, N <= 2).

Run from the repository root:

    python3 -m pytest -q bench/smoke.py
"""

from __future__ import annotations

import copy
import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from srdpeig import studies  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def tiny_sweeps(monkeypatch):
    monkeypatch.setattr(studies, "P_RANGE", workloads.TINY_P_RANGE)
    monkeypatch.setattr(studies, "N_RANGE", workloads.TINY_N_RANGE)


def run_tiny(name, trace, tmp_path, reference=None):
    """Set up and measure a tiny workload briefly; return (printed lines, result)."""
    workload, own, setup_tracer = run.setup(name, tiny=True, trace=trace)
    workload.reference = reference
    m = run.measure(workload, 0.2, trace, tmp_path)
    lines = run.report(name, [own], m, run.environment(tmp_path), setup_tracer)
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_prints_with_its_unit(name, trace, tmp_path):
    lines, result = run_tiny(name, trace, tmp_path)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[1]: line.split()[-1] for line in lines[:-2] if "quartiles" not in line}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    assert printed["fail_ratio"].endswith(f"(0/{result['attempted']})")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("relative_change, fails", [(1e-6, True), (1e-11, False)])
def test_wrong_lambda_is_counted_as_a_failure(relative_change, fails, tmp_path):
    reference = copy.deepcopy(workloads._reference())
    key = workloads.point_key("lshape", "neumann", "lshape_neumann_1", "serendipity", 2, 1)
    reference["points"][key]["lambda_h"] *= 1 + relative_change
    _, result = run_tiny("lshape_p_sweep", False, tmp_path, reference)
    points_per_unit = len(workloads.catalog(tiny=True)["lshape_p_sweep"].points())
    assert result["attempted"] % points_per_unit == 0
    units = result["attempted"] // points_per_unit
    assert result["failed"] == (units if fails else 0)
    assert result["correct"] is not fails


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_self_times_add_up_to_traced_wall(name, tmp_path):
    _, result = run_tiny(name, True, tmp_path)
    value = {k: v["value"] for k, v in result["metrics"].items()}
    own = [value[f"{span}.s"] for span in tracing.LAYER_SPANS] + [value["cli.other.s"]]
    assert min(own) >= 0
    assert abs(sum(own) - value["trace.wall_s"]) <= abs(value["trace.overhead_s"])


def test_self_time_excludes_children():
    tracer = tracing.Tracer(0)
    inner = tracer.wrap(lambda: time.sleep(0.01), "inner")
    outer = tracer.wrap(lambda: (time.sleep(0.01), inner(), inner()), "outer")
    root = tracer.begin(tracing.ROOT)
    outer()
    tracer.end(root)
    spans = {}
    for name, start, end, parent, iteration in tracer.spans:
        spans.setdefault(name, []).append(end - start)
        assert iteration == 0 and (parent is None) == (name == tracing.ROOT)
    own = tracer.self_times()
    assert math.isclose(own["inner"], sum(spans["inner"]))
    assert math.isclose(own["outer"], spans["outer"][0] - sum(spans["inner"]))
    assert math.isclose(sum(own.values()), spans[tracing.ROOT][0])
