import numpy as np
import pytest
from scipy.linalg import expm

from crossinglab.errors import StepUnderflow
from crossinglab.potential import PolynomialWindowed, ScaledTanhProduct
from crossinglab.propagator import (
    PropagationDiagnostics,
    fundamental_matrix,
    hamiltonian,
    propagate,
)


class TestClosedForms:
    def test_decoupled_diagonal_phase(self, lz_pure):
        """eps = 0, V = t: psi_1 picks up exp(-i t^2 / (2h)) exactly."""
        h = 0.05
        psi = propagate(lz_pure, 0.0, h, 0.0, 1.5, [1.0, 0.0], tol=1e-12)
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
        psi1 = propagate(tanh_cubed, 0.08, 0.04, -4.0, 4.0, psi0, tol=tol,
                         diagnostics=diag)
        assert abs(np.linalg.norm(psi1) - np.linalg.norm(psi0)) < 10 * tol
        assert diag.norm_drift < 10 * tol

    def test_norm_drift_does_not_scale_with_the_state(self, tanh_cubed):
        """propagate reports the drift of the propagator, not of |psi0|."""
        matrix_diag = PropagationDiagnostics()
        fundamental_matrix(tanh_cubed, 0.08, 0.04, -4.0, 4.0, tol=1e-10,
                           diagnostics=matrix_diag)
        state_diag = PropagationDiagnostics()
        propagate(tanh_cubed, 0.08, 0.04, -4.0, 4.0, [2.0, 0.0], tol=1e-10,
                  diagnostics=state_diag)
        assert state_diag.norm_drift == matrix_diag.norm_drift

    def test_time_reversal_structure(self, tanh_cubed, rng):
        """If psi solves the system, so does (-conj(psi2), conj(psi1))."""
        psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi0 /= np.linalg.norm(psi0)
        eps, h = 0.12, 0.06
        psi1 = propagate(tanh_cubed, eps, h, -3.0, 2.0, psi0, tol=1e-11)
        flip0 = np.array([-np.conj(psi0[1]), np.conj(psi0[0])])
        flip1 = propagate(tanh_cubed, eps, h, -3.0, 2.0, flip0, tol=1e-11)
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
        with pytest.raises(ValueError):
            fundamental_matrix(tanh_cubed, 0.1, 0.05, -1.0, 1.0, method="euler")

    def test_bad_parameters(self, tanh_cubed):
        with pytest.raises(ValueError):
            propagate(tanh_cubed, 0.1, -0.1, 0.0, 1.0, [1, 0])
        with pytest.raises(ValueError):
            propagate(tanh_cubed, -0.1, 0.1, 0.0, 1.0, [1, 0])

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
