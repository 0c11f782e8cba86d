"""Unit tests for the LIPO + trust-region global optimizer."""

import numpy as np
import pytest

from repro.optimize import find_global_min
from repro.optimize.lipo import estimate_lipschitz, lower_bound, propose
from repro.optimize.trust_region import refine


class TestLipschitzEstimate:
    def test_single_point_default(self):
        assert estimate_lipschitz(np.array([1.0]), np.array([2.0])) == 1.0

    def test_linear_function_recovers_slope(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        k = estimate_lipschitz(xs, 5.0 * xs)
        assert k == pytest.approx(5.0 * 1.1)

    def test_constant_function_tiny_positive(self):
        xs = np.array([0.0, 1.0])
        ys = np.array([2.0, 2.0])
        assert 0 < estimate_lipschitz(xs, ys) <= 1e-10


class TestLowerBound:
    def test_at_sample_points_equals_value(self):
        xs = np.array([0.0, 2.0])
        ys = np.array([1.0, 3.0])
        lb = lower_bound(xs, xs, ys, k=1.0)
        assert lb.tolist() == ys.tolist()

    def test_is_valid_lower_bound_for_lipschitz_function(self):
        rng = np.random.default_rng(0)
        f = lambda x: np.sin(2 * x)  # Lipschitz with k=2
        xs = rng.uniform(0, 5, 20)
        ys = f(xs)
        grid = np.linspace(0, 5, 200)
        lb = lower_bound(grid, xs, ys, k=2.0)
        assert (lb <= f(grid) + 1e-9).all()


class TestPropose:
    def test_within_interval(self):
        rng = np.random.default_rng(1)
        xs = np.array([0.0, 10.0])
        ys = np.array([5.0, 1.0])
        for _ in range(10):
            x = propose(xs, ys, 0.0, 10.0, rng)
            assert 0.0 <= x <= 10.0

    def test_degenerate_interval(self):
        rng = np.random.default_rng(2)
        assert propose(np.array([1.0]), np.array([0.0]), 1.0, 1.0, rng) == 1.0


class TestRefine:
    def test_parabola_vertex_found(self):
        xs = np.array([0.0, 1.0, 3.0])
        f = lambda x: (x - 1.8) ** 2
        x = refine(xs, f(xs), 0.0, 3.0)
        assert x == pytest.approx(1.8, abs=1e-9)

    def test_returns_none_on_duplicate(self):
        xs = np.array([0.0, 1.8, 3.6])
        f = lambda x: (x - 1.8) ** 2
        # Vertex coincides with the middle sample -> rejected.
        assert refine(xs, f(xs), 0.0, 3.6) is None

    def test_best_at_boundary_bisects_outward(self):
        xs = np.array([0.0, 5.0])
        ys = np.array([1.0, 0.0])  # best at right hull point
        x = refine(xs, ys, 0.0, 10.0)
        assert x == pytest.approx(7.5)

    def test_concave_bracket_bisects(self):
        xs = np.array([0.0, 1.0, 4.0])
        ys = np.array([1.0, 0.5, 0.9])
        x = refine(xs, ys, 0.0, 4.0)
        assert x is not None and 0.0 < x < 4.0


class TestFindGlobalMin:
    def test_quadratic(self):
        r = find_global_min(lambda x: (x - 3.3) ** 2, 0, 10, max_calls=30, seed=0)
        assert r.f_best < 1e-2

    def test_multimodal_finds_global(self):
        f = lambda x: np.sin(3 * x) + 0.3 * x
        r = find_global_min(f, 0, 10, max_calls=50, seed=0)
        grid = np.linspace(0, 10, 100_001)
        assert r.f_best <= f(grid).min() + 0.05

    def test_respects_bounds(self):
        r = find_global_min(lambda x: x, -2.0, 5.0, max_calls=25, seed=3)
        assert all(-2.0 <= h.x <= 5.0 for h in r.history)

    def test_respects_budget(self):
        r = find_global_min(lambda x: x * x, 0, 1, max_calls=7, seed=0)
        assert r.n_calls <= 7

    def test_cutoff_early_stop(self):
        calls = []
        f = lambda x: calls.append(x) or (x - 0.5) ** 2
        r = find_global_min(f, 0, 1, max_calls=100, cutoff=0.3, seed=0)
        assert r.hit_cutoff
        assert r.n_calls < 10

    def test_no_cutoff_flag_false(self):
        r = find_global_min(lambda x: x + 1, 0, 1, max_calls=5, seed=0)
        assert not r.hit_cutoff

    def test_best_is_min_of_history(self):
        r = find_global_min(lambda x: np.cos(5 * x), 0, 3, max_calls=20, seed=1)
        assert r.f_best == min(h.fx for h in r.history)

    def test_deterministic_given_seed(self):
        f = lambda x: np.sin(7 * x) + x / 5
        r1 = find_global_min(f, 0, 5, max_calls=25, seed=42)
        r2 = find_global_min(f, 0, 5, max_calls=25, seed=42)
        assert [h.x for h in r1.history] == [h.x for h in r2.history]

    def test_step_function_plateau_escape(self):
        # Staircase objective - the compressor-ratio shape (Fig. 4).
        f = lambda x: (np.floor(x) * 2 + 5 - 15.0) ** 2
        r = find_global_min(f, 0, 20, max_calls=60, cutoff=(0.1 * 15) ** 2, seed=2)
        assert r.hit_cutoff

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            find_global_min(lambda x: x, 1.0, 1.0)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            find_global_min(lambda x: x, 0.0, 1.0, max_calls=0)
