"""Tests for the generic numerical helpers in repro.analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    RngFactory,
    bucket_fractions,
    empirical_cdf,
    fit_line,
    fixed_point_iterate,
    is_convex_samples,
    max_convexity_violation,
    mean_absolute_percentage_error,
    relative_errors,
    second_differences,
    solve_two_basis,
    solve_two_point_line,
    summarize_errors,
)
from repro.errors import ConvergenceError, FittingError


class TestStats:
    def test_relative_errors_basic(self):
        errors = relative_errors([11.0, 9.0], [10.0, 10.0])
        assert errors == pytest.approx([0.1, 0.1])

    def test_relative_errors_rejects_zero_actual(self):
        with pytest.raises(ValueError):
            relative_errors([1.0], [0.0])

    def test_relative_errors_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_errors([1.0, 2.0], [1.0])

    def test_mape(self):
        assert mean_absolute_percentage_error([11, 9], [10, 10]) == pytest.approx(0.1)

    def test_empirical_cdf_monotone(self):
        xs, ps = empirical_cdf([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(ps) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empirical_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_bucket_fractions_table2_shape(self):
        # Errors: 0.5%, 3%, 7%, 20% -> one per Table 2 bucket.
        fractions = bucket_fractions([0.005, 0.03, 0.07, 0.2], (0.01, 0.05, 0.10))
        assert fractions == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_bucket_fractions_sum_to_one(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.0001, 0.5, size=200)
        fractions = bucket_fractions(values, (0.01, 0.05, 0.10))
        assert sum(fractions) == pytest.approx(1.0)

    def test_bucket_fractions_bad_edges(self):
        with pytest.raises(ValueError):
            bucket_fractions([0.1], (0.05, 0.05))

    def test_summarize_errors_fields(self):
        summary = summarize_errors([0.01, 0.02, 0.03, 0.2])
        assert summary.count == 4
        assert summary.mean == pytest.approx(0.065)
        assert summary.within_5pct == pytest.approx(0.75)
        assert summary.within_10pct == pytest.approx(0.75)
        assert summary.max == pytest.approx(0.2)

    def test_summarize_rejects_negative(self):
        with pytest.raises(ValueError):
            summarize_errors([-0.1])

    def test_summary_as_dict(self):
        d = summarize_errors([0.01]).as_dict()
        assert d["count"] == 1.0 and "p90" in d


class TestLinear:
    def test_fit_line_exact(self):
        fit = fit_line([0, 1, 2], [1, 3, 5])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_fit_line_predict(self):
        fit = fit_line([0, 1], [0, 2])
        assert fit.predict(3.0) == pytest.approx(6.0)

    def test_fit_line_requires_two_distinct_x(self):
        with pytest.raises(FittingError):
            fit_line([1, 1], [2, 3])

    def test_fit_line_constant_y_r_squared(self):
        fit = fit_line([0, 1, 2], [5, 5, 5])
        assert fit.r_squared == pytest.approx(1.0)

    def test_two_point_line(self):
        slope, intercept = solve_two_point_line(1, 2, 3, 6)
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(0.0)

    def test_two_point_line_rejects_same_x(self):
        with pytest.raises(FittingError):
            solve_two_point_line(1, 2, 1, 6)

    def test_solve_two_basis_recovers_parameters(self):
        # y = 3*x + 5/x
        a, b = solve_two_basis(
            1.0, 8.0, 2.0, 8.5, lambda x: x, lambda x: 1.0 / x
        )
        assert a == pytest.approx(3.0)
        assert b == pytest.approx(5.0)

    def test_solve_two_basis_singular(self):
        with pytest.raises(FittingError):
            solve_two_basis(1.0, 1.0, 2.0, 2.0, lambda x: x, lambda x: 2 * x)


class TestConvexity:
    def test_convex_quadratic(self):
        xs = np.linspace(1, 10, 20)
        assert is_convex_samples(xs, xs**2)

    def test_concave_rejected(self):
        xs = np.linspace(1, 10, 20)
        assert not is_convex_samples(xs, -(xs**2))

    def test_linear_is_convex(self):
        xs = np.linspace(0, 5, 10)
        assert is_convex_samples(xs, 3 * xs + 1)

    def test_piecewise_max_is_convex(self):
        xs = np.linspace(0, 10, 50)
        ys = np.maximum(2 * xs, xs + 5)
        assert is_convex_samples(xs, ys)

    def test_violation_magnitude(self):
        xs = [0.0, 1.0, 2.0]
        ys = [0.0, 2.0, 3.0]  # slopes 2 then 1 -> violation 1
        assert max_convexity_violation(xs, ys) == pytest.approx(1.0)

    def test_second_differences_requires_three(self):
        with pytest.raises(ValueError):
            second_differences([0, 1], [0, 1])

    def test_second_differences_requires_increasing_x(self):
        with pytest.raises(ValueError):
            second_differences([0, 0, 1], [0, 1, 2])


class TestFixedPoint:
    def test_converges_to_fixed_point(self):
        # x = 0.5 x + 2 -> x* = 4
        result = fixed_point_iterate(lambda x: 0.5 * x + 2.0, initial=0.0)
        assert result.value == pytest.approx(4.0, abs=1e-5)
        assert result.converged

    def test_iteration_count_small_for_contraction(self):
        # The paper's AT iteration converges in <= 4 steps; loop gain there
        # is ~k*gamma*V ~ 0.05, far smaller than this 0.5.
        result = fixed_point_iterate(lambda x: 0.5 * x + 2.0, tol=1e-3)
        assert result.iterations <= 12

    def test_divergence_raises(self):
        with pytest.raises(ConvergenceError):
            fixed_point_iterate(lambda x: 2.0 * x + 1.0, max_iterations=30)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ConvergenceError):
            fixed_point_iterate(
                lambda x: 0.999 * x + 1.0, tol=1e-12, max_iterations=3
            )


class TestRngFactory:
    def test_same_name_same_stream(self):
        factory = RngFactory(42)
        a = factory.generator("x").random(5)
        b = factory.generator("x").random(5)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        factory = RngFactory(42)
        a = factory.generator("x").random(5)
        b = factory.generator("y").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(1).generator("x").random(5)
        b = RngFactory(2).generator("x").random(5)
        assert not np.array_equal(a, b)

    def test_child_factory_independent(self):
        parent = RngFactory(7)
        child = parent.child("sub")
        assert child.seed != parent.seed
        a = parent.generator("x").random(3)
        b = child.generator("x").random(3)
        assert not np.array_equal(a, b)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            RngFactory(0).generator("")

    def test_rejects_non_int_seed(self):
        with pytest.raises(TypeError):
            RngFactory("seed")  # type: ignore[arg-type]


def spawned_state(seed: int, name: str) -> dict:
    """The generator state of numpy's own spawn-key derivation."""
    sequence = np.random.SeedSequence(
        seed, spawn_key=tuple(name.encode("utf-8"))
    )
    return np.random.default_rng(sequence).bit_generator.state


#: Seeds around every word boundary the entropy assembly has: one word,
#: the 32-bit carry, two words, a full pool and one word past it.
BOUNDARY_SEEDS = st.sampled_from(
    [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64]
) | st.integers(0, 2**20).map(lambda k: 2**128 + k)

#: ASCII, multi-byte UTF-8 and embedded NUL, 1-64 characters.
COMPONENT_NAMES = st.text(
    alphabet=st.sampled_from(
        ["a", "Z", "-", "7", "\x00", "é", "日", "🙂"]
    ),
    min_size=1,
    max_size=64,
)


class TestRngFactoryEntropy:
    """``generator`` pre-assembles the entropy numpy would build."""

    @settings(max_examples=200, deadline=None)
    @given(seed=BOUNDARY_SEEDS, name=COMPONENT_NAMES)
    def test_state_equals_the_spawn_key_derivation(self, seed, name):
        state = RngFactory(seed).generator(name).bit_generator.state
        assert state == spawned_state(seed, name)

    @pytest.mark.parametrize("name", ["fleet-churn-0", "fleet-churn-199"])
    def test_churn_stream_names(self, name):
        state = RngFactory(12345).generator(name).bit_generator.state
        assert state == spawned_state(12345, name)

    def test_negative_seed_raises_like_numpy(self):
        with pytest.raises(ValueError) as numpy_error:
            spawned_state(-1, "x")
        with pytest.raises(ValueError) as ours:
            RngFactory(-1).generator("x")
        assert str(ours.value) == str(numpy_error.value)

    def test_empty_name_checked_before_the_seed(self):
        with pytest.raises(ValueError, match="non-empty"):
            RngFactory(-1).generator("")
