"""Where the traced run puts its spans, and the per-layer metrics they give.

Each entry of PATCHES wraps a public function at the name its caller looks
it up by, so one function imported into several modules is patched in each.
Span names are ``<layer>.<function>`` with the layer being the crossinglab
module the function belongs to.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from spans import Recorder, Span, has_ancestor, outermost, self_times

LAYERS = ("potential", "quadrature", "propagator", "scattering", "msa",
          "predictor", "transfer", "harness")


def _points(span, args, kwargs):
    span.attrs["points"] = int(np.size(args[0])) if args else 0


def _fm_before(span, args, kwargs):
    tracemalloc.start()


def _fm_after(span, args, kwargs, result):
    span.attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    diag = kwargs.get("diagnostics")
    if diag is not None:
        span.attrs.update(steps=diag.steps, refinements=diag.refinements,
                          richardson_error=diag.richardson_error)
    if "tol" in kwargs:
        span.attrs["tol"] = kwargs["tol"]


def _mesh_after(span, args, kwargs, result):
    span.attrs["steps"] = len(result) - 1


def _grid_after(span, args, kwargs, result):
    span.attrs["points"] = len(result.points)


def _scatter_after(span, args, kwargs, result):
    span.attrs["unitarity_defect"] = result.unitarity_defect


def _sweep_after(span, args, kwargs, result):
    span.attrs["failed_rows"] = sum(row["status"] != "ok" for row in result)


PATCHES = [
    # (module, attribute, span name, before, after)
    ("crossinglab.scattering", "scattering_matrix", "scattering.scattering_matrix", None, _scatter_after),
    ("crossinglab.harness.sweep", "scattering_matrix", "scattering.scattering_matrix", None, _scatter_after),
    ("crossinglab.scattering", "jost_basis", "scattering.jost_basis", None, None),
    ("crossinglab.scattering", "fundamental_matrix", "propagator.fundamental_matrix", _fm_before, _fm_after),
    ("crossinglab.scattering", "linear_phase_integral", "quadrature.linear_phase_integral", None, None),
    ("crossinglab.propagator", "adaptive_mesh", "quadrature.adaptive_mesh", None, _mesh_after),
    ("crossinglab.msa", "MsaGrid.build", "msa.grid_build", None, _grid_after),
    ("crossinglab.msa", "connection_T_numeric", "msa.connection_T_numeric", None, None),
    ("crossinglab.msa", "msa_solution", "msa.msa_solution", None, None),
    ("crossinglab.msa", "apply_K", "msa.apply_K", None, None),
    ("crossinglab.msa", "make_interp_spline", "msa.make_interp_spline", None, None),
    ("crossinglab.msa", "cumulative_smooth", "quadrature.cumulative_smooth", None, None),
    ("crossinglab.msa", "phase_integral", "potential.phase_integral", None, None),
    ("crossinglab.predictor", "interference_zeros", "predictor.interference_zeros", None, None),
    ("crossinglab.predictor", "interference_factor", "predictor.interference_factor", None, None),
    ("crossinglab.predictor", "predict_nonadiabatic", "predictor.predict_nonadiabatic", None, None),
    ("crossinglab.harness.sweep", "predict_nonadiabatic", "predictor.predict_nonadiabatic", None, None),
    ("crossinglab.predictor", "predict_mixed", "predictor.predict_mixed", None, None),
    ("crossinglab.predictor", "phase_integral", "potential.phase_integral", None, None),
    ("crossinglab.predictor", "effective_phase_integral", "potential.effective_phase_integral", None, None),
    ("crossinglab.predictor", "crossing_transfer_adiabatic", "transfer.crossing_transfer_adiabatic", None, None),
    ("crossinglab.transfer", "predicted_scattering", "transfer.predicted_scattering", None, None),
    ("crossinglab.harness.sweep", "predicted_scattering", "transfer.predicted_scattering", None, None),
    ("crossinglab.transfer", "crossing_transfer_adiabatic", "transfer.crossing_transfer_adiabatic", None, None),
    ("crossinglab.transfer", "phase_integral", "potential.phase_integral", None, None),
    ("crossinglab.transfer", "effective_phase_integral", "potential.effective_phase_integral", None, None),
    ("crossinglab.transfer", "turning_points", "potential.turning_points", None, None),
    ("crossinglab.potential.turning", "turning_points", "potential.turning_points", None, None),
    ("crossinglab.potential.catalog", "find_crossings", "potential.find_crossings", None, None),
    ("crossinglab.potential.catalog", "integrate_smooth", "quadrature.integrate_smooth", None, None),
    ("crossinglab.harness.sweep", "find_crossings", "potential.find_crossings", None, None),
    ("crossinglab.harness.sweep", "run_sweep", "harness.run_sweep", None, _sweep_after),
]


def install(rec: Recorder) -> None:
    """Patch every entry of PATCHES; models built by the sweep get spans too."""
    for module, attr, name, before, after in PATCHES:
        rec.patch(module, attr, name, before, after)

    def instrument_model(span, args, kwargs, model):
        instrument_models(rec, [model])

    rec.patch("crossinglab.harness.sweep", "model_from_config",
              "potential.model_from_config", None, instrument_model)


def uninstall(rec: Recorder) -> None:
    """Restore every patched function; stop tracemalloc if a call raised inside it."""
    rec.restore()
    if tracemalloc.is_tracing():
        tracemalloc.stop()


def instrument_models(rec: Recorder, models) -> None:
    for model in models:
        rec.patch_instance(model, "eval", "potential.eval", before=_points)
        rec.patch_instance(model, "deriv", "potential.deriv", before=_points)


def useful_step_ratio(steps_final: int, steps_built: int) -> float:
    """Share of the propagator steps built that end up in the returned mesh."""
    return steps_final / steps_built if steps_built else 0.0


def parallel_efficiency(t_serial: float, t_parallel: float, jobs: int) -> float:
    """Serial time over jobs times parallel time; 1 is perfect scaling."""
    return t_serial / (jobs * t_parallel)


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer totals of one traced round whose wall time is ``wall``."""

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in outermost(spans, name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    fm = named("propagator.fundamental_matrix")
    steps_final = attr_sum("propagator.fundamental_matrix", "steps")
    steps_built = sum(s.attrs["steps"] for s in named("quadrature.adaptive_mesh")
                      if has_ancestor(spans, s, "propagator.fundamental_matrix"))
    selfs = self_times(spans)
    fm_self = sum(t for s, t in zip(spans, selfs) if s.name == "propagator.fundamental_matrix")
    by_layer = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, selfs):
        by_layer[s.layer] += t
    tail_points = sum(s.attrs["points"] for s in named("potential.eval")
                      if has_ancestor(spans, s, "quadrature.linear_phase_integral"))
    out = {
        "potential.eval_points": attr_sum("potential.eval", "points"),
        "potential.eval_s": total("potential.eval"),
        "potential.deriv_points": attr_sum("potential.deriv", "points"),
        "potential.phase_integral_calls": len(named("potential.phase_integral")),
        "potential.phase_integral_s": total("potential.phase_integral"),
        "potential.turning_points_calls": len(named("potential.turning_points")),
        "potential.turning_points_s": total("potential.turning_points"),
        "potential.find_crossings_s": total("potential.find_crossings"),
        "propagator.fundamental_matrix_s": total("propagator.fundamental_matrix"),
        "propagator.fundamental_matrix_self_s": fm_self,
        "propagator.steps_final": steps_final,
        "propagator.steps_built": steps_built,
        "propagator.useful_step_ratio": useful_step_ratio(steps_final, steps_built),
        "propagator.refinements": attr_sum("propagator.fundamental_matrix", "refinements"),
        "propagator.error_over_tol": max((s.attrs["richardson_error"] / s.attrs["tol"]
                                          for s in fm if "tol" in s.attrs), default=0.0),
        "propagator.peak_alloc_mb": max((s.attrs.get("peak_alloc", 0) for s in fm),
                                        default=0) / 2**20,
        "quadrature.adaptive_mesh_calls": len(named("quadrature.adaptive_mesh")),
        "quadrature.adaptive_mesh_s": total("quadrature.adaptive_mesh"),
        "quadrature.integrate_smooth_calls": len(named("quadrature.integrate_smooth")),
        "quadrature.integrate_smooth_s": total("quadrature.integrate_smooth"),
        "quadrature.linear_phase_integral_s": total("quadrature.linear_phase_integral"),
        "scattering.jost_basis_s": total("scattering.jost_basis"),
        "scattering.tail_eval_points": tail_points,
        "scattering.unitarity_defect": max((s.attrs["unitarity_defect"]
                                            for s in named("scattering.scattering_matrix")),
                                           default=0.0),
        "msa.grid_build_s": total("msa.grid_build"),
        "msa.grid_points": attr_sum("msa.grid_build", "points"),
        "msa.solution_s": total("msa.msa_solution"),
        "msa.apply_K_calls": len(named("msa.apply_K")),
        "msa.apply_K_s": total("msa.apply_K"),
        "msa.spline_builds": len(named("msa.make_interp_spline")),
        "msa.spline_s": total("msa.make_interp_spline"),
        "predictor.interference_factor_calls": len(named("predictor.interference_factor")),
        "predictor.interference_factor_s": total("predictor.interference_factor"),
        "predictor.predict_nonadiabatic_s": total("predictor.predict_nonadiabatic"),
        "predictor.predict_mixed_s": total("predictor.predict_mixed"),
        "transfer.predicted_scattering_s": total("transfer.predicted_scattering"),
        "transfer.crossing_transfer_adiabatic_s": total("transfer.crossing_transfer_adiabatic"),
        "harness.run_sweep_s": total("harness.run_sweep"),
        "harness.failed_rows": attr_sum("harness.run_sweep", "failed_rows"),
    }
    for layer, t in by_layer.items():
        out[f"{layer}.self_s"] = t
    out["trace.wall_s"] = wall
    out["trace.untraced_s"] = wall - sum(selfs)
    return out
