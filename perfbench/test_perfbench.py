"""Tests of the benchmark's own arithmetic and of its output names.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Span, covered_length, outermost, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)
    assert covered_length([(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(10.0)


def test_self_times_over_nested_spans():
    spans = [
        Span("harness.root", 0.0, 10.0, None),
        Span("scattering.a", 1.0, 4.0, 0),
        Span("potential.eval", 2.0, 3.0, 1),
        Span("scattering.b", 5.0, 7.0, 0),
        Span("harness.other_root", 11.0, 12.0, None),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])
    # self times partition the top-level spans
    assert sum(self_times(spans)) == pytest.approx(11.0)


def test_outermost_skips_recursive_calls():
    spans = [Span("propagator.f", 0.0, 4.0, None), Span("propagator.f", 1.0, 2.0, 0),
             Span("propagator.f", 5.0, 6.0, None)]
    assert [s.start for s in outermost(spans, "propagator.f")] == [0.0, 5.0]


def test_recorder_records_parents_and_restores():
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2

    class Grid:
        @staticmethod
        def build(n):
            return n

    module.Grid = Grid
    sys.modules["fake_layer"] = module
    try:
        rec = Recorder()
        inner, outer = module.inner, module.outer
        assert rec.patch("fake_layer", "inner", "quadrature.inner")
        assert rec.patch("fake_layer", "outer", "scattering.outer")
        assert rec.patch("fake_layer", "Grid.build", "msa.build",
                         after=lambda span, a, k, r: span.attrs.update(points=r))
        assert not rec.patch("fake_layer", "missing", "msa.missing")
        assert module.outer(1) == 4
        assert Grid.build(7) == 7
        names = [(s.name, s.parent) for s in rec.spans]
        assert names == [("scattering.outer", None), ("quadrature.inner", 0), ("msa.build", None)]
        assert rec.spans[2].attrs == {"points": 7}
        rec.restore()
        assert module.inner is inner and module.outer is outer
        assert isinstance(Grid.__dict__["build"], staticmethod)
        assert Grid.build.__name__ == "build" and not hasattr(Grid.build, "__wrapped__")
    finally:
        del sys.modules["fake_layer"]


def test_useful_step_ratio():
    # cf4 on the tanh pair at h = 1e-3: meshes of 58k, 116k and 232k steps
    assert layers.useful_step_ratio(232356, 58089 + 116178 + 232356) == pytest.approx(0.5714, abs=1e-4)
    assert layers.useful_step_ratio(10, 10) == 1.0
    assert layers.useful_step_ratio(0, 0) == 0.0


def test_parallel_efficiency():
    assert layers.parallel_efficiency(6.0, 4.1, 2) == pytest.approx(0.7317, abs=1e-4)
    assert layers.parallel_efficiency(6.0, 3.0, 2) == 1.0


def test_layer_metrics_of_a_synthetic_round():
    spans = [
        Span("scattering.scattering_matrix", 0.0, 10.0, None, {"unitarity_defect": 1e-13}),
        Span("propagator.fundamental_matrix", 0.5, 7.5, 0,
             {"steps": 200, "refinements": 1, "richardson_error": 5e-10, "tol": 1e-9}),
        Span("quadrature.adaptive_mesh", 0.6, 1.0, 1, {"steps": 100}),
        Span("quadrature.adaptive_mesh", 2.0, 2.5, 1, {"steps": 200}),
        Span("potential.eval", 3.0, 5.0, 1, {"points": 400}),
        Span("quadrature.linear_phase_integral", 8.0, 9.0, 0),
        Span("potential.eval", 8.2, 8.4, 5, {"points": 34}),
        Span("quadrature.adaptive_mesh", 11.0, 11.5, None, {"steps": 50}),
    ]
    m = layers.layer_metrics(spans, wall=12.0)
    assert m["propagator.steps_final"] == 200
    assert m["propagator.steps_built"] == 300       # the mesh outside the propagator is not a step
    assert m["propagator.useful_step_ratio"] == pytest.approx(2 / 3)
    assert m["propagator.error_over_tol"] == pytest.approx(0.5)
    assert m["propagator.fundamental_matrix_self_s"] == pytest.approx(7.0 - 0.4 - 0.5 - 2.0)
    assert m["potential.eval_points"] == 434
    assert m["scattering.tail_eval_points"] == 34
    assert m["quadrature.adaptive_mesh_calls"] == 3
    assert m["scattering.unitarity_defect"] == 1e-13
    layer_total = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert layer_total + m["trace.untraced_s"] == pytest.approx(m["trace.wall_s"])
    assert m["trace.untraced_s"] == pytest.approx(12.0 - 10.0 - 0.5)


def test_declared_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert BENCHMARK["command"][-1] == "perfbench/run.py"


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_appear_in_benchmark_json(trace):
    """Every name the driver prints is declared (propagation, shortest run)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "propagation",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    per_op = 12 + 20            # 3 tanh rungs and 9 LZ solves, then 20 sweep rows
    # a traced run adds the serial sweep and the traced round to the measured ops
    attempted = per_op * WORKLOADS["propagation"].min_ops + trace * (20 + per_op)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == attempted
    declared = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == set(declared)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["workload"] in {w["name"] for w in BENCHMARK["workloads"]}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "propagation", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert "correct" not in out.stdout
