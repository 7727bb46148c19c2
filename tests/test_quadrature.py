import math
import tracemalloc

import numpy as np
import pytest

from crossinglab.quadrature import (
    _CUMULATIVE_BLOCK,
    RunningCumulative,
    accumulate_from,
    adaptive_mesh,
    cumulative_density,
    cumulative_uniform,
    hermite_integrals,
    mesh_steps,
    uniform_integral,
)


def _from(values, step, origin):
    """The rule's integral from node ``origin``: its increments over the
    whole array, summed outward from there by ``accumulate_from`` (the MSA
    grid phase's path)."""
    out = np.empty(len(values), dtype=np.result_type(values, float, step))
    RunningCumulative(step).increments(values, out[1:], last=True)
    return accumulate_from(out, origin)


class TestCumulativeUniform:
    @pytest.mark.parametrize("n", [6, 7, 8, 21])
    def test_exact_on_quintics(self, n):
        """Every interval, the two at each end included, is exact to degree 5."""
        x = np.linspace(-1.0, 2.0, n)
        for degree in range(6):
            coeffs = np.arange(1.0, degree + 2.0) * (-1.0) ** np.arange(degree + 1)
            anti = np.polynomial.Polynomial(coeffs).integ()
            got = cumulative_uniform(anti.deriv()(x), x[1] - x[0])
            assert got[0] == 0.0
            assert np.max(np.abs(got - (anti(x) - anti(x[0])))) < 1e-12, degree

    def test_complex_values(self):
        x = np.linspace(0.0, 1.0, 9)
        got = cumulative_uniform((1.0 + 2.0j) * x**5, x[1] - x[0])
        assert np.max(np.abs(got - (1.0 + 2.0j) * x**6 / 6.0)) < 1e-14

    def test_sixth_order_on_oscillation(self):
        k = 7.0
        errors = []
        for n in (41, 81, 161):
            x = np.linspace(0.0, 1.0, n)
            exact = (np.exp(1j * k * x) - 1.0) / (1j * k)
            got = cumulative_uniform(np.exp(1j * k * x), x[1] - x[0])
            errors.append(np.max(np.abs(got - exact)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all((orders > 5.5) & (orders < 6.5)), orders

    @pytest.mark.parametrize("origin", [0, 1, 4, 10, 20])
    def test_origin(self, origin):
        """Summed from an origin by ``accumulate_from``: F[origin] is exactly
        0, every interval stays exact to degree 5, and origin 0 is
        ``cumulative_uniform``, bit for bit."""
        x = np.linspace(-1.0, 2.0, 21)
        anti = np.polynomial.Polynomial([1.0, -2.0, 3.0, -4.0, 5.0, -6.0]).integ()
        values = anti.deriv()(x)
        got = _from(values, x[1] - x[0], origin)
        assert got[origin] == 0.0
        assert np.max(np.abs(got - (anti(x) - anti(x[origin])))) < 1e-12
        if origin == 0:
            assert got.tobytes() == cumulative_uniform(values, x[1] - x[0]).tobytes()

    @pytest.mark.parametrize("origin", [0, 7, 40])
    def test_complex_step(self, origin):
        """A complex step c dx gives c times the result at step dx, to
        rounding, and a complex array for real samples too."""
        x = np.linspace(-1.0, 2.0, 41)
        dx = x[1] - x[0]
        c = np.conj(0.3 ** 2 * (1j / 2e-4))
        for values in (np.cos(3.0 * x), np.exp(-2j * x) * (1.0 + x)):
            unit = _from(values, dx, origin)
            got = _from(values, c * dx, origin)
            assert got.dtype == complex
            assert got[origin] == 0.0
            # a few roundings per increment, carried by the running sum
            bound = len(x) * np.finfo(float).eps * abs(c) * np.max(np.abs(unit))
            assert np.max(np.abs(got - c * unit)) <= bound

    @pytest.mark.parametrize("n", [6, 7, 21])
    def test_complex_step_exact_on_quintics(self, n):
        """The folded step keeps the rule exact to degree 5."""
        x = np.linspace(-1.0, 2.0, n)
        step = (0.5 - 2.0j) * (x[1] - x[0])
        for degree in range(6):
            anti = np.polynomial.Polynomial(np.arange(1.0, degree + 2.0)).integ()
            got = _from(anti.deriv()(x), step, n // 2)
            want = (0.5 - 2.0j) * (anti(x) - anti(x[n // 2]))
            assert np.max(np.abs(got - want)) < 1e-12, degree

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            cumulative_uniform(np.ones(5), 0.1)

    @pytest.mark.parametrize("n", [6, 7, 12, 1001, 20001])
    def test_out_buffer_is_bitwise(self, n):
        """The rule's increments written into a given buffer and summed there
        from node 0 (the grid phase's path) give ``cumulative_uniform``'s
        bits, for a real or complex step, across blocks of the interior
        rule."""
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal(n),
                       rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            for step in (0.37, -0.37, 0.37 - 2.5j):
                want = cumulative_uniform(values, step)
                buf = np.full_like(want, np.nan)
                RunningCumulative(step).increments(values, buf[1:], last=True)
                got = accumulate_from(buf, 0)
                assert got is buf
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("origin", [0, 60000, 99999])
    def test_no_temporary_with_out(self, origin):
        """The increments written into a given buffer and summed there from
        an origin allocate nothing larger than one block."""
        values = np.exp(1j * np.linspace(0.0, 50.0, 100000))
        buf = np.empty_like(values)
        tracemalloc.start()
        try:
            RunningCumulative(0.01).increments(values, buf[1:], last=True)
            accumulate_from(buf, origin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * values.nbytes


def _fed(values, step, cuts, method):
    """A RunningCumulative fed ``values`` in the pieces that ``cuts`` marks
    off, each after its halo; the results of ``method`` laid end to end."""
    n = len(values)
    run = RunningCumulative(step)
    out = np.full(n, np.nan, dtype=np.result_type(values, float, step))
    done = 0 if method == "integral" else 1
    bounds = [0, *cuts, n]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        done += getattr(run, method)(values[lo - run.halo():hi], out[done:], last=hi == n)
    assert done == n
    return run, out


def _cuts(n, rng):
    """Uneven pieces: one to three samples at a time up to node 8, so the run
    starts on a piece that is mostly halo, then up to two blocks at a time."""
    cuts, at = [], 0
    while at < min(n - 1, 8):
        at += int(rng.integers(1, 4))
        cuts.append(min(at, n - 1))
    while at < n - 1:
        at += int(rng.integers(1, 2 * _CUMULATIVE_BLOCK))
        cuts.append(min(at, n - 1))
    return sorted(set(cuts))


RUN_SIZES = [6, 7, 8, 9, 10, 11, 12, _CUMULATIVE_BLOCK - 1, _CUMULATIVE_BLOCK,
             _CUMULATIVE_BLOCK + 1, 3 * _CUMULATIVE_BLOCK + 2]


class TestRunningCumulative:
    """The streamed rule is cumulative_uniform, bit for bit, however it is fed."""

    @pytest.mark.parametrize("n", RUN_SIZES)
    def test_pieces_are_the_whole_array(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal(n),
                       rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            for step in (0.37, -0.37 + 2.5j):
                want = cumulative_uniform(values, step)
                for cuts in ([], [n - 1], _cuts(n, rng), list(range(1, n))[:40]):
                    run, got = _fed(values, step, cuts, "integral")
                    assert got.tobytes() == want.tobytes(), cuts
                    assert run.total == want[-1]
                    assert run.seen == n

    @pytest.mark.parametrize("n", RUN_SIZES)
    def test_increments_summed_from_any_origin(self, n):
        """Increments in pieces, then summed outward from the origin (the
        MSA grid phase's path)."""
        rng = np.random.default_rng(n + 1)
        for values in (rng.standard_normal(n),
                       rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            for step in (-0.37, 0.37 - 2.5j):
                _, inc = _fed(values, step, _cuts(n, rng), "increments")
                for origin in (0, n // 2, n - 1):
                    want = _from(values, step, origin)
                    got = accumulate_from(inc.copy(), origin)
                    assert got.tobytes() == want.tobytes(), origin
                assert _from(values, step, 0).tobytes() == cumulative_uniform(
                    values, step).tobytes()

    @pytest.mark.parametrize("n", [6, 13, _CUMULATIVE_BLOCK + 1, 3 * _CUMULATIVE_BLOCK + 2])
    def test_uniform_integral(self, n):
        """The end value alone, on every node and on every other node."""
        rng = np.random.default_rng(n + 2)
        values = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        for g, step in ((values[:n], 0.37 - 2.5j), (values[::2][:n], 0.74)):
            assert uniform_integral(g, step) == cumulative_uniform(g, step)[-1]

    def test_too_few_samples(self):
        run = RunningCumulative(0.1)
        assert run.increments(np.ones(3), np.empty(5)) == 0
        with pytest.raises(ValueError):
            run.increments(np.ones(5), np.empty(5), last=True)
        with pytest.raises(ValueError):
            uniform_integral(np.ones(5), 0.1)


class TestAdaptiveMesh:
    def test_inverts_the_piecewise_linear_density(self):
        """Mesh points sit where the running integral of the density, linear
        between its samples, reaches equally spaced levels, so the step size
        varies continuously across the samples."""
        t = np.linspace(0.0, 4.0, 9)
        rho = 200.0 + 100.0 * np.sin(t)
        sampled = cumulative_density(t, rho)
        mesh = adaptive_mesh(sampled, mesh_steps(sampled, 1.0))
        j = np.clip(np.searchsorted(t, mesh, side="right") - 1, 0, len(t) - 2)
        s = mesh - t[j]
        slope = (rho[j + 1] - rho[j]) / (t[j + 1] - t[j])
        running = sampled[1][j] + rho[j] * s + 0.5 * slope * s * s
        levels = np.linspace(0.0, sampled[1][-1], len(mesh))
        assert np.max(np.abs(running - levels)) < 1e-12 * levels[-1]
        # a step differs from the last by the density's change over a step
        # (|rho'| dt / rho <= 0.005 here); at a sample the step of a linear
        # interpolation of the running integral jumps by ~0.25
        steps = np.diff(mesh)
        assert np.max(np.abs(steps[1:] / steps[:-1] - 1.0)) < 0.01


class TestHermiteIntegrals:
    def test_exact_on_degree_15(self, rng):
        """Order-7 jets at both ends integrate degree-15 polynomials exactly,
        whichever way the points run."""
        poly = np.polynomial.Polynomial(rng.standard_normal(16))
        t = np.array([-0.4, 0.3, 1.1, 0.7])
        jets = np.array([poly.deriv(k)(t) / math.factorial(k) for k in range(8)])
        exact = np.diff(poly.integ()(t))
        assert np.max(np.abs(hermite_integrals(t, jets) - exact)) < 1e-14

    def test_error_term(self):
        """On e^t over [0, d] the error is (8!)^2 / 17! d^17 e^xi / 16!, xi in [0, d]."""
        d = 2.0
        t = np.array([0.0, d])
        jets = np.array([np.exp(t) / math.factorial(k) for k in range(8)])
        error = math.expm1(d) - hermite_integrals(t, jets)[0]
        scale = math.factorial(8) ** 2 / math.factorial(17) * d**17 / math.factorial(16)
        assert scale <= error <= scale * math.exp(d)
