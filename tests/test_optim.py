import numpy as np
import pytest

from avqsbench.optim import (
    hermitian_from_params,
    maximize_concave_over_simplex,
    minimize_over_simplex,
    project_to_simplex,
    unitary_from_hermitian,
)

rng = np.random.default_rng(71)


class TestSimplexProjection:
    def test_already_feasible_point_is_fixed(self):
        p = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_to_simplex(p), p)

    def test_output_is_on_simplex(self):
        for _ in range(20):
            v = rng.standard_normal(5) * 3
            p = project_to_simplex(v)
            assert p.min() >= 0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_bruteforce_quadratic_program(self):
        # dense grid search over the 2-simplex as the oracle
        v = np.array([0.9, -0.2, 0.4])
        grid = []
        steps = 200
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                p = np.array([i, j, steps - i - j]) / steps
                grid.append(p)
        best = min(grid, key=lambda p: np.sum((p - v) ** 2))
        assert np.allclose(project_to_simplex(v), best, atol=1e-2)


class TestSimplexOptimizers:
    def test_maximize_concave_quadratic(self):
        target = np.array([0.6, 0.3, 0.1])
        fn = lambda p: (-np.sum((p - target) ** 2), -2 * (p - target))
        p, value, meta = maximize_concave_over_simplex(fn, 3)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(p, target, atol=1e-4)
        assert meta["stop_reason"] == "gap"
        assert meta["duality_gap"] <= 1e-9

    def test_maximize_entropy_peaks_at_uniform(self):
        fn = lambda p: (float(-(p * np.log2(p)).sum()), -np.log2(p))
        p, value, meta = maximize_concave_over_simplex(fn, 4)
        assert value == pytest.approx(2.0, abs=1e-8)
        assert np.allclose(p, 0.25, atol=1e-4)
        assert meta["iterations"] == 0

    def test_minimize_linear_hits_a_vertex(self):
        cost = np.array([0.3, 0.8, 0.1])
        fn = lambda p: float(cost @ p)
        p, value, _ = minimize_over_simplex(fn, 3, grad=lambda p: cost, iters=400)
        assert value == pytest.approx(0.1, abs=1e-3)

    def test_single_point_simplex(self):
        p, value, meta = maximize_concave_over_simplex(lambda p: (5.0, np.zeros(1)), 1)
        assert p.tolist() == [1.0]
        assert value == 5.0
        assert meta == {"iterations": 0, "duality_gap": 0.0, "stop_reason": "gap"}


class TestHermitianParameterization:
    def test_roundtrip_produces_hermitian(self):
        theta = rng.standard_normal(16)
        h = hermitian_from_params(theta, 4)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
        assert np.allclose(np.diag(h).real, theta[:4])

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="parameters"):
            hermitian_from_params(np.zeros(5), 2)

    def test_exponential_is_unitary(self):
        h = hermitian_from_params(rng.standard_normal(9), 3)
        u = unitary_from_hermitian(h)
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12

    def test_zero_parameters_give_identity(self):
        u = unitary_from_hermitian(hermitian_from_params(np.zeros(4), 2))
        assert np.allclose(u, np.eye(2))
