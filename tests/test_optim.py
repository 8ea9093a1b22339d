import numpy as np
import pytest

from avqsbench.optim import (
    _line_search,
    maximize_concave_over_simplex,
    maximize_over_isometries,
    minimize_over_simplex,
    project_to_simplex,
    retract_qr,
)

from helpers import haar_isometry

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
        fn = lambda p: (float(cost @ p), cost)
        p, value = minimize_over_simplex(fn, 3)
        assert value == pytest.approx(0.1, abs=1e-3)

    def test_single_point_simplex(self):
        p, value, meta = maximize_concave_over_simplex(lambda p: (5.0, np.zeros(1)), 1)
        assert p.tolist() == [1.0]
        assert value == 5.0
        assert meta == {"iterations": 0, "duality_gap": 0.0, "stop_reason": "gap"}


def _entropy_plus_first(p):
    # the log is 0 off the support, as the hull ascents' logs from
    # entropy._block_entropies: the slope along (1, -1) tends to -inf at the
    # end, where p_1 = 0, but reads +1 there
    log = np.log2(np.where(p > 0, p, 1.0))
    return float(-(p * log).sum() + p[0]), -log + [1.0, 0.0]


class TestLineSearch:
    # from p = (1/2, 1/2) along d = (1, -1), up to end = 1/2
    start, direction, end = np.array([0.5, 0.5]), np.array([1.0, -1.0]), 0.5

    @pytest.mark.parametrize(
        "fn, best",
        [
            # -|p - (0.8, 0.2)|^2 peaks at t = 0.3
            (lambda p: (-np.sum((p - [0.8, 0.2]) ** 2), -2 * (p - [0.8, 0.2])), 0.3),
            # entropy plus p_0 peaks at p = (2/3, 1/3), t = 1/6
            (_entropy_plus_first, 1 / 6),
        ],
        ids=["quadratic", "entropy"],
    )
    def test_lands_on_the_maximizer_in_few_evaluations(self, fn, best):
        calls = []

        def counted(p):
            calls.append(p)
            return fn(p)

        t = _line_search(counted, self.start, self.direction, self.end)
        assert abs(t - best) <= 1e-12 * self.end
        assert len(calls) <= 12

    def test_positive_derivative_returns_the_end_exactly(self):
        target = np.array([1.5, -0.5])
        t = _line_search(
            lambda p: (-np.sum((p - target) ** 2), -2 * (p - target)),
            self.start,
            self.direction,
            self.end,
        )
        assert t == self.end
        assert (self.start + t * self.direction)[1] == 0.0

    def test_slope_read_at_the_emptied_vertex_is_not_trusted(self):
        # the entropy's maximizer is interior although its slope reads +1 at the end
        t = _line_search(_entropy_plus_first, self.start, self.direction, self.end)
        assert t < self.end


class TestIsometryAscent:
    def test_qr_retraction_stays_isometric_over_many_steps(self):
        v = haar_isometry(rng, 8, 4)
        for _ in range(100):
            step = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
            vhs = v.conj().T @ step
            v = retract_qr(v + 0.3 * (step - v @ (0.5 * (vhs + vhs.conj().T))))
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-12

    def test_retraction_fixes_an_isometry_with_positive_r_diagonal(self):
        v = haar_isometry(rng, 6, 3)
        assert np.allclose(retract_qr(v), v, atol=1e-12)

    def test_maximizes_a_trace_over_the_stiefel_manifold(self):
        # max Re tr(A^dagger V) over isometries is the nuclear norm of A, at the
        # polar factor of A
        a = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        fn = lambda v: (float(np.vdot(a, v).real), a)
        v, value, meta = maximize_over_isometries(fn, haar_isometry(rng, 6, 3), maxiter=200)
        assert value == pytest.approx(np.linalg.svd(a, compute_uv=False).sum(), abs=1e-8)
        u, _, vh = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(v, u @ vh, atol=1e-4)
        assert meta["stop_reason"] in ("gradient", "stalled")
        assert meta["evaluations"] >= meta["iterations"] + 1

    def test_maxiter_caps_the_steps(self):
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        fn = lambda v: (float(np.vdot(a, v).real), a)
        _, _, meta = maximize_over_isometries(fn, haar_isometry(rng, 4, 2), maxiter=1)
        assert meta["iterations"] == 1
        assert meta["stop_reason"] == "maxiter"
