import numpy as np
import numpy.testing as npt
import pytest

from locfront.estimator import load_dataset, save_dataset
from locfront.synthetic import (
    DesignSpec,
    ErrorSpec,
    ModelSpec,
    eval_boundary,
    gen_design,
    lattice_side,
    make_sample,
    sample_errors,
)


class TestGenDesign:
    def test_grid_q2_n4(self):
        pts = gen_design(DesignSpec("equidistant_grid", q=2, n=4))
        npt.assert_array_equal(pts, [[0.5, 0.5], [1.0, 0.5], [0.5, 1.0], [1.0, 1.0]])

    def test_grid_q1_n5(self):
        pts = gen_design(DesignSpec("equidistant_grid", q=1, n=5))
        npt.assert_allclose(pts.ravel(), [0.2, 0.4, 0.6, 0.8, 1.0])

    def test_grid_ignores_rng(self):
        spec = DesignSpec("equidistant_grid", q=2, n=9)
        a = gen_design(spec, np.random.default_rng(1))
        b = gen_design(spec, np.random.default_rng(999))
        npt.assert_array_equal(a, b)

    def test_grid_requires_integer_root(self):
        with pytest.raises(ValueError):
            DesignSpec("equidistant_grid", q=2, n=10)

    def test_grid_root_test_is_integer_exact(self):
        # 10**18 + 1 rounds to the float 1e18, a perfect square and cube
        for q in (2, 3):
            with pytest.raises(ValueError, match="must be perfect q-th powers"):
                DesignSpec("equidistant_grid", q=q, n=10**18 + 1)
            DesignSpec("equidistant_grid", q=q, n=(10**6 + 1) ** q)
        for q in (1, 2, 3, 4):
            for m in range(1, 400):
                assert lattice_side(m**q, q) == m
                assert q == 1 or lattice_side(m**q + 1, q) is None

    def test_uniform_reproducible_and_in_cube(self):
        spec = DesignSpec("random_uniform", q=3, n=50)
        a = gen_design(spec, np.random.default_rng(7))
        b = gen_design(spec, np.random.default_rng(7))
        npt.assert_array_equal(a, b)
        assert a.shape == (50, 3)
        assert np.all((a >= 0) & (a <= 1))

    def test_uniform_needs_rng(self):
        with pytest.raises(ValueError):
            gen_design(DesignSpec("random_uniform", q=1, n=5))


class TestSampleErrors:
    def test_all_nonpositive(self):
        rng = np.random.default_rng(0)
        for spec in [ErrorSpec("exponential_unit"), ErrorSpec("weibull", alpha=0.5)]:
            eps = sample_errors(spec, 1000, rng)
            assert np.all(eps <= 0)

    def test_weibull_one_equals_exponential(self):
        a = sample_errors(ErrorSpec("weibull", alpha=1.0), 500, np.random.default_rng(3))
        b = sample_errors(ErrorSpec("exponential_unit"), 500, np.random.default_rng(3))
        npt.assert_array_equal(a, b)

    def test_weibull_two_magnitude_cdf(self):
        rng = np.random.default_rng(5)
        eps = sample_errors(ErrorSpec("weibull", alpha=2.0), 100_000, rng)
        empirical = np.mean(np.abs(eps) <= 1.0)
        assert empirical == pytest.approx(1 - np.exp(-1), abs=0.01)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ErrorSpec("weibull", alpha=0.0)
        with pytest.raises(ValueError):
            ErrorSpec("weibull", alpha=float("nan"))
        with pytest.raises(ValueError):
            ErrorSpec("gauss")


@pytest.mark.parametrize(
    "make,match",
    [(lambda: DesignSpec("sobol", q=2, n=10), "^design must be one of .*, got 'sobol'$"),
     (lambda: DesignSpec("random_uniform", q=0, n=10), "^q must be an integer >= 1, got 0$"),
     (lambda: DesignSpec("random_uniform", q=2, n=0),
      r"^n_list \(n\) must be an integer >= 1, got 0$"),
     (lambda: sample_errors(ErrorSpec("exponential_unit"), 0, np.random.default_rng(0)),
      "^n must be an integer >= 1, got 0$")],
    ids=["unknown-design", "design-q-0", "design-n-0", "errors-n-0"],
)
def test_bad_sizes_and_kinds_refused(make, match):
    with pytest.raises(ValueError, match=match):
        make()


class TestBoundary:
    def test_sine_sum_center(self):
        assert eval_boundary(ModelSpec("sine_sum"), (0.5, 0.5)) == pytest.approx(4.0, abs=1e-12)

    def test_cubic_center(self):
        assert eval_boundary(ModelSpec("cubic_1d"), (0.5,)) == 2.0

    def test_sine_sum_origin_q3(self):
        assert eval_boundary(ModelSpec("sine_sum"), (0.0, 0.0, 0.0)) == 0.0

    def test_cubic_needs_q1(self):
        with pytest.raises(ValueError):
            eval_boundary(ModelSpec("cubic_1d"), (0.5, 0.5))

    def test_batch(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5]])
        npt.assert_allclose(eval_boundary(ModelSpec("sine_sum"), pts), [0.0, 4.0], atol=1e-12)


class TestMakeSample:
    def test_zero_errors_hit_boundary(self):
        pts = np.array([[0.2], [0.8]])
        ds = make_sample(pts, ModelSpec("cubic_1d"), np.zeros(2))
        npt.assert_allclose(ds.responses, eval_boundary(ModelSpec("cubic_1d"), pts))

    def test_one_sided(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 1, (200, 2))
        eps = sample_errors(ErrorSpec("exponential_unit"), 200, rng)
        ds = make_sample(pts, ModelSpec("sine_sum"), eps)
        assert np.all(ds.responses <= eval_boundary(ModelSpec("sine_sum"), pts) + 1e-12)

    def test_center_value(self):
        ds = make_sample(np.array([[0.5, 0.5]]), ModelSpec("sine_sum"), np.array([-0.3]))
        assert ds.responses[0] == pytest.approx(3.7, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_sample(np.array([[0.5]]), ModelSpec("cubic_1d"), np.zeros(2))

    def test_seed_determinism_full_pipeline(self):
        def build(seed):
            rng = np.random.default_rng(seed)
            pts = gen_design(DesignSpec("random_uniform", q=2, n=30), rng)
            eps = sample_errors(ErrorSpec("weibull", alpha=2.0), 30, rng)
            return make_sample(pts, ModelSpec("sine_sum"), eps)

        a, b = build(123), build(123)
        npt.assert_array_equal(a.points, b.points)
        npt.assert_array_equal(a.responses, b.responses)

    def test_export_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = gen_design(DesignSpec("random_uniform", q=2, n=10), rng)
        ds = make_sample(pts, ModelSpec("sine_sum"), sample_errors(ErrorSpec("exponential_unit"), 10, rng))
        path = tmp_path / "sample.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        npt.assert_array_equal(loaded.points, ds.points)
        npt.assert_array_equal(loaded.responses, ds.responses)

