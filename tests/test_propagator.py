import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from crossinglab import propagator
from crossinglab.errors import StepUnderflow
from crossinglab.potential import PolynomialWindowed, ScaledTanhProduct
from crossinglab.propagator import (
    MAX_REFINEMENTS,
    MIN_BOOST_RATIO,
    PILOT_BOOST,
    PropagationDiagnostics,
    _magnus6_density,
    _magnus6_matrix_on_mesh,
    fundamental_matrix,
    pilot_steps,
)
from crossinglab.quadrature import mesh_steps
from crossinglab.scattering import scattering_matrix


def hamiltonian(model, eps: float, t):
    v = np.real(model.eval(t))
    return np.array([[v, eps], [eps, -v]], dtype=float)


class TestClosedForms:
    def test_decoupled_diagonal_phase(self, lz_pure):
        """eps = 0, V = t: psi_1 picks up exp(-i t^2 / (2h)) exactly."""
        h = 0.05
        psi = fundamental_matrix(lz_pure, 0.0, h, 0.0, 1.5, tol=1e-12) @ [1.0, 0.0]
        assert psi[0] == pytest.approx(np.exp(-1j * 1.5**2 / (2 * h)), abs=1e-10)
        assert psi[1] == 0.0

    def test_constant_hamiltonian_matches_expm(self):
        """In the saturated tail the evolution is the exact 2x2 exponential."""
        model = PolynomialWindowed([2.0, 1.0], window=1.0, sharpness=8.0)
        eps, h = 0.3, 0.07
        t0, t1 = 6.0, 10.0  # saturation corrections ~ exp(-8*5), far below tol
        mat = fundamental_matrix(model, eps, h, t0, t1, tol=1e-12)
        h_mat = hamiltonian(model, eps, 8.0)
        exact = expm(-1j * (t1 - t0) / h * h_mat)
        assert np.max(np.abs(mat - exact)) < 1e-10

    def test_identity_at_zero_span(self, tanh_cubed):
        mat = fundamental_matrix(tanh_cubed, 0.1, 0.1, 0.3, 0.3)
        assert np.array_equal(mat, np.eye(2, dtype=complex))


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unitary_and_flow(self, seed):
        rng = np.random.default_rng(seed)
        model = ScaledTanhProduct(1.0, [
            {"power": int(rng.integers(1, 4)), "slope": float(rng.uniform(0.7, 1.4)),
             "center": float(rng.uniform(-0.5, 0.5))}])
        eps = float(rng.uniform(0.02, 0.25))
        h = float(rng.uniform(0.03, 0.2))
        tol = 1e-10
        full = fundamental_matrix(model, eps, h, -4.0, 4.0, tol=tol)
        assert np.max(np.abs(full.conj().T @ full - np.eye(2))) < 100 * tol
        tm = float(rng.uniform(-1.5, 1.5))
        a = fundamental_matrix(model, eps, h, -4.0, tm, tol=tol)
        b = fundamental_matrix(model, eps, h, tm, 4.0, tol=tol)
        assert np.max(np.abs(b @ a - full)) < 300 * tol

    def test_norm_conservation(self, tanh_cubed, rng):
        psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        tol = 1e-10
        diag = PropagationDiagnostics()
        psi1 = fundamental_matrix(tanh_cubed, 0.08, 0.04, -4.0, 4.0, tol=tol,
                                  diagnostics=diag) @ psi0
        assert abs(np.linalg.norm(psi1) - np.linalg.norm(psi0)) < 10 * tol
        assert diag.norm_drift < 10 * tol

    def test_norm_drift_does_not_scale_with_the_state(self, tanh_cubed):
        """The reported drift is the propagator's: it covers the returned
        matrix's, and a state of norm 2 drifts by twice as much."""
        diag = PropagationDiagnostics()
        mat = fundamental_matrix(tanh_cubed, 0.08, 0.04, -4.0, 4.0, tol=1e-10,
                                 diagnostics=diag)
        column = abs(abs(mat[0, 0]) ** 2 + abs(mat[1, 0]) ** 2 - 1.0)
        assert column <= diag.norm_drift < 1e-10
        psi = mat @ [2.0, 0.0]
        assert abs(np.linalg.norm(psi) ** 2 - 4.0) == pytest.approx(4.0 * column,
                                                                    abs=1e-14)

    def test_time_reversal_structure(self, tanh_cubed, rng):
        """If psi solves the system, so does (-conj(psi2), conj(psi1))."""
        psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi0 /= np.linalg.norm(psi0)
        eps, h = 0.12, 0.06
        mat = fundamental_matrix(tanh_cubed, eps, h, -3.0, 2.0, tol=1e-11)
        psi1 = mat @ psi0
        flip0 = np.array([-np.conj(psi0[1]), np.conj(psi0[0])])
        flip1 = mat @ flip0
        assert np.max(np.abs(flip1 - np.array([-np.conj(psi1[1]), np.conj(psi1[0])]))) < 1e-9

    def test_backward_is_inverse(self, tanh_cubed):
        fwd = fundamental_matrix(tanh_cubed, 0.1, 0.05, -2.0, 2.0, tol=1e-11)
        bwd = fundamental_matrix(tanh_cubed, 0.1, 0.05, 2.0, -2.0, tol=1e-11)
        assert np.max(np.abs(bwd @ fwd - np.eye(2))) < 1e-9


class TestBackends:
    def test_integrator_independence(self, tanh_cubed):
        m1 = fundamental_matrix(tanh_cubed, 0.1, 0.05, -5.0, 5.0, tol=1e-11)
        m2 = fundamental_matrix(tanh_cubed, 0.1, 0.05, -5.0, 5.0, tol=1e-11,
                                method="dop853")
        assert np.max(np.abs(m1 - m2)) < 1e-8

    def test_unknown_method(self, tanh_cubed):
        """The retired fourth-order cf4 has no fallback either."""
        for method in ("euler", "cf4"):
            with pytest.raises(ValueError, match="unknown method"):
                fundamental_matrix(tanh_cubed, 0.1, 0.05, -1.0, 1.0, method=method)

    def test_bad_parameters(self, tanh_cubed):
        with pytest.raises(ValueError):
            fundamental_matrix(tanh_cubed, 0.1, -0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            fundamental_matrix(tanh_cubed, -0.1, 0.1, 0.0, 1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="need h > 0"):
                fundamental_matrix(tanh_cubed, 0.1, bad, 0.0, 1.0)
            with pytest.raises(ValueError, match="need h > 0"):
                fundamental_matrix(tanh_cubed, bad, 0.1, 0.0, 1.0)
            with pytest.raises(ValueError, match="need h > 0"):
                fundamental_matrix(tanh_cubed, 0.1, 0.1, 0.0, 1.0, tol=bad)

    @pytest.mark.parametrize("eps, h, tol", [
        (0.1, math.inf, 1e-10), (0.1, math.nan, 1e-10), (0.1, -0.1, 1e-10),
        (math.inf, 0.1, 1e-10), (math.nan, 0.1, 1e-10), (-0.1, 0.1, 1e-10),
        (0.1, 0.1, math.inf), (0.1, 0.1, math.nan), (0.1, 0.1, -1e-10)])
    @pytest.mark.parametrize("method", ["magnus6", "dop853", "cf4"])
    def test_fundamental_matrix_bad_parameters(self, tanh_cubed, eps, h, tol, method):
        """Checked before anything else, including an empty interval and an
        unknown method such as the retired cf4."""
        for t1 in (1.0, -1.0):
            with pytest.raises(ValueError, match="need h > 0"):
                fundamental_matrix(tanh_cubed, eps, h, -1.0, t1, tol=tol, method=method)

    def test_step_underflow(self, tanh_cubed):
        """Far below the desk-scale floor the step budget must trip."""
        with pytest.raises(StepUnderflow):
            fundamental_matrix(tanh_cubed, 0.01, 1e-9, -5.0, 5.0, tol=1e-10)

    def test_richardson_diagnostics(self, tanh_cubed):
        diag = PropagationDiagnostics()
        fundamental_matrix(tanh_cubed, 0.1, 0.05, -3.0, 3.0, tol=1e-9,
                           diagnostics=diag)
        assert diag.steps > 0
        assert diag.richardson_error < 1e-9


class TestStepControl:
    @staticmethod
    def _record_meshes(monkeypatch):
        """(density, steps) of every mesh the propagator builds, and every
        mesh it propagates."""
        built, propagated = [], []
        build, propagate = propagator._magnus6_mesh, propagator._magnus6_matrix_on_mesh

        def recording_build(density, h, tol, steps):
            built.append((density, steps))
            return build(density, h, tol, steps)

        def recording_propagate(model, eps, h, mesh):
            propagated.append(mesh)
            return propagate(model, eps, h, mesh)

        monkeypatch.setattr(propagator, "_magnus6_mesh", recording_build)
        monkeypatch.setattr(propagator, "_magnus6_matrix_on_mesh", recording_propagate)
        return built, propagated

    def test_pilot_pair_accepted_on_windowed_lz(self, lz_windowed, monkeypatch):
        """One mesh is built for the pilot pair: the coarse mesh is every other
        point of the fine one, and pilot_steps counts both exactly."""
        built, propagated = self._record_meshes(monkeypatch)
        diag = PropagationDiagnostics()
        fundamental_matrix(lz_windowed, 0.1, 0.1, -12.0, 12.0, tol=1e-9, diagnostics=diag)
        density = _magnus6_density(lz_windowed, 0.1, 0.1, -12.0, 12.0, 1e-9)
        assert [steps for _, steps in built] == [2 * mesh_steps(density, PILOT_BOOST)]
        coarse, fine = propagated
        assert len(fine) - 1 == built[0][1] and np.array_equal(coarse, fine[::2])
        assert diag.refinements == 0
        assert diag.richardson_error <= 1e-9
        assert diag.steps_built == len(coarse) + len(fine) - 2 == pilot_steps(density)

    def test_rejected_pilot_is_followed_by_a_sized_mesh(self, lz_windowed, monkeypatch):
        """Windowed LZ at h = 1e-3, mu = 0.1: the coarse pilot mesh over the one
        window, 74 steps, is not yet in the asymptotic regime."""
        built, propagated = self._record_meshes(monkeypatch)
        h = 1e-3
        diag = scattering_matrix(lz_windowed, 0.1 * h**0.75, h, tol=1e-9).diagnostics
        assert len(built) == 2 and len(propagated) == 3 and diag["refinements"] == 1
        (density, pilot), (_, sized) = built
        assert pilot == 2 * mesh_steps(density, PILOT_BOOST)
        assert sized >= mesh_steps(density, 2.0 * PILOT_BOOST * MIN_BOOST_RATIO)
        assert abs(sized / pilot - 2.0) > 0.1

    def test_true_error_within_tol(self, tanh_pair):
        """Against a tol/100 run the error is below tol, and the estimate covers it."""
        h, tol = 1e-2, 1e-9
        eps = 0.05 * h**0.75
        diag = PropagationDiagnostics()
        mat = fundamental_matrix(tanh_pair, eps, h, -6.0, 6.0, tol=tol, diagnostics=diag)
        ref = fundamental_matrix(tanh_pair, eps, h, -6.0, 6.0, tol=tol / 100)
        observed = float(np.max(np.abs(mat - ref)))
        assert observed <= tol
        assert observed <= diag.richardson_error <= tol

    def test_exhausted_refinement_raises(self, tanh_cubed, monkeypatch):
        """Estimates that never shrink stop after MAX_REFINEMENTS sized meshes."""
        calls = itertools.count()
        monkeypatch.setattr(propagator, "_magnus6_mesh", lambda *args: np.linspace(-1.0, 1.0, 9))

        def drifting(*args):
            angle = 1e-3 * next(calls)
            return complex(math.cos(angle)), complex(math.sin(angle))

        monkeypatch.setattr(propagator, "_magnus6_matrix_on_mesh", drifting)
        diag = PropagationDiagnostics()
        with pytest.raises(StepUnderflow, match="failed to reach"):
            fundamental_matrix(tanh_cubed, 0.1, 0.1, -1.0, 1.0, tol=1e-9, diagnostics=diag)
        assert diag.refinements == MAX_REFINEMENTS
        # the coarse pilot mesh is every other point of the first
        assert diag.steps_built == 4 + 8 * (MAX_REFINEMENTS + 1)

    def test_tol_below_rounding_raises(self, tanh_cubed):
        """No mesh reaches a tol below the rounding of the product; stop at once."""
        diag = PropagationDiagnostics()
        with pytest.raises(StepUnderflow, match="rounding"):
            fundamental_matrix(tanh_cubed, 0.1, 0.5, -0.5, 0.5, tol=1e-17, diagnostics=diag)
        assert diag.norm_drift > 1e-17
        assert diag.refinements == 0


class TestOrder:
    def test_sixth_order_on_uniform_meshes(self, tanh_pair):
        """Tanh pair, eps = 0.05, h = 0.02: the error falls as N^-6."""
        eps, h = 0.05, 0.02

        def pair(n):
            return np.array(_magnus6_matrix_on_mesh(tanh_pair, eps, h, np.linspace(-6.0, 6.0, n + 1)))

        ref = pair(32000)
        errors = [np.max(np.abs(pair(n) - ref)) for n in (250, 500, 1000, 2000)]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 5.8), orders

    def test_estimate_covers_the_error_where_cf4_understated_it(self):
        """Whole line, h = 0.03, eps = 1.931, tol 1e-8: the estimate covers the
        difference from the same method at tol/1000 (cf4's order-3 estimate
        read 0.72 of it)."""
        model = ScaledTanhProduct(1.0, [
            {"power": 2, "slope": 0.8282, "center": 0.6109},
            {"power": 1, "slope": 1.19, "center": 2.4448}])
        eps, h, tol = 1.931, 0.03, 1e-8
        rep = scattering_matrix(model, eps, h, tol=tol)
        ref = scattering_matrix(model, eps, h, tol=tol / 1000, truncation=rep.truncation)
        assert rep.diagnostics["route"] == "whole_line"
        observed = float(np.max(np.abs(rep.s_matrix - ref.s_matrix)))
        assert observed <= rep.diagnostics["error_estimate"] <= tol
