import numpy as np
import pytest

from crossinglab.propagator import _magnus6_pairs, fundamental_matrix
from crossinglab.su2 import dense, ordered_product, su2_mul


def random_pairs(rng, n):
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return a / norm, b / norm


class TestPairAlgebra:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9])
    def test_ordered_product_matches_dense_chain(self, rng, n):
        a, b = random_pairs(rng, n)
        expected = np.eye(2, dtype=complex)
        for k in range(n):
            expected = dense(a[k], b[k]) @ expected
        got = dense(*ordered_product(a, b))
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_su2_mul_arrays_match_scalars(self, rng):
        a1, b1 = random_pairs(rng, 6)
        a2, b2 = random_pairs(rng, 6)
        pa, pb = su2_mul(a1, b1, a2, b2)
        for k in range(6):
            sa, sb = su2_mul(complex(a1[k]), complex(b1[k]), complex(a2[k]), complex(b2[k]))
            assert abs(pa[k] - sa) < 1e-15 and abs(pb[k] - sb) < 1e-15


class TestMagnus6Steps:
    def test_zero_hamiltonian_step_is_identity(self):
        """Omega = 0 takes the sinc limit: the step is exactly the identity."""
        dt_h = np.array([0.0, 1e-3, 0.5, 7.0])
        zero = np.zeros(4)
        a, b = _magnus6_pairs(zero, zero, zero, 0.0, dt_h)
        assert np.all(a == 1.0) and np.all(b == 0.0)

    @pytest.mark.parametrize("t0, t1", [(-3.0, 2.5), (2.5, -3.0)])
    def test_fundamental_matrix_has_exact_su2_pattern(self, tanh_cubed, t0, t1):
        m = fundamental_matrix(tanh_cubed, 0.1, 0.05, t0, t1, tol=1e-10)
        assert m[1, 1] == np.conj(m[0, 0])
        assert m[0, 1] == -np.conj(m[1, 0])
