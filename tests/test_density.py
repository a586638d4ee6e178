"""Density construction, evaluation, normalization, and seeded sampling."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import chi2, truncexpon, truncnorm, uniform

from splotlearn.density import (
    MixtureDensity,
    MixtureModel,
    TruncatedExponential,
    TruncatedGaussian,
    Uniform,
    canonical_background_density,
    canonical_mixture,
    canonical_signal_density,
    normal_cdf,
)


def builtin_densities():
    return [
        Uniform(0.0, 8.0),
        TruncatedGaussian(4.0, 1.0, 0.0, 8.0),
        TruncatedExponential(0.4, 0.0, 8.0),
        MixtureDensity(
            [TruncatedGaussian(4.0, 1.0, 0.0, 8.0), TruncatedExponential(0.4, 0.0, 8.0)], [0.35, 0.65]
        ),
    ]


def scipy_cdf(d):
    """The distribution function of ``d`` from ``scipy.stats``, an oracle independent of the sampler."""
    lo, hi = d.support
    if isinstance(d, MixtureDensity):
        return lambda m: sum(w * scipy_cdf(c)(m) for w, c in zip(d.weights, d.components))
    if isinstance(d, Uniform):
        return uniform(loc=lo, scale=hi - lo).cdf
    if isinstance(d, TruncatedGaussian):
        return truncnorm((lo - d.mu) / d.sigma, (hi - d.mu) / d.sigma, loc=d.mu, scale=d.sigma).cdf
    return truncexpon(d.rate * (hi - lo), loc=lo, scale=1.0 / d.rate).cdf


# ---------------------------------------------------------------------------
# construction-time validation


@pytest.mark.parametrize(
    "make",
    [
        lambda: Uniform(5.0, 5.0),
        lambda: Uniform(6.0, 2.0),
        lambda: TruncatedGaussian(4.0, 0.0, 0.0, 8.0),
        lambda: TruncatedGaussian(4.0, -1.0, 0.0, 8.0),
        lambda: TruncatedGaussian(np.inf, 1.0, 0.0, 8.0),
        lambda: TruncatedExponential(0.0, 0.0, 8.0),
        lambda: TruncatedExponential(-0.4, 0.0, 8.0),
        lambda: MixtureDensity([Uniform(0, 8), Uniform(0, 8)], [0.5, 0.6]),
        lambda: MixtureDensity([Uniform(0, 8)], [-1.0]),
        lambda: MixtureModel([Uniform(0, 8), Uniform(0, 8)], [-1.0, 2.0]),
        lambda: MixtureModel([Uniform(0, 8), Uniform(0, 8)], [0.0, 0.0]),
    ],
)
def test_invalid_parameters_rejected_at_construction(make):
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------------------------
# evaluate


def test_normal_cdf_agrees_with_ndtr():
    # relative agreement wherever scipy's value is a normal double; below that, both are within one tiny of 0
    x = np.linspace(-38.0, 38.0, 76_001)
    np.testing.assert_allclose([normal_cdf(v) for v in x], ndtr(x), rtol=1e-12, atol=np.finfo(float).tiny)


def test_uniform_evaluate():
    assert Uniform(0.0, 8.0).evaluate(3.0) == 0.125


def test_truncated_gaussian_matches_quadrature_oracle():
    # independent oracle: normalize the untruncated bell curve by its
    # numerically integrated mass on the support
    def bell(m):
        return np.exp(-0.5 * (m - 4.0) ** 2) / np.sqrt(2.0 * np.pi)

    mass, err = quad(bell, 0.0, 8.0)
    assert err < 1e-10
    d = TruncatedGaussian(4.0, 1.0, 0.0, 8.0)
    for m in [4.0, 0.5, 2.7, 6.9]:
        assert d.evaluate(m) == pytest.approx(bell(m) / mass, rel=1e-10)


def test_evaluate_zero_outside_support():
    d = TruncatedExponential(0.4, 0.0, 8.0)
    assert d.evaluate(9.0) == 0.0
    assert d.evaluate(-0.001) == 0.0
    vals = d.evaluate(np.array([-1.0, 4.0, 100.0]))
    assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] > 0.0


def test_evaluate_nonnegative_on_support():
    grid = np.linspace(0.0, 8.0, 5001)
    for d in builtin_densities():
        assert np.all(np.asarray(d.evaluate(grid)) >= 0.0)


def test_normalization_by_fixed_grid_quadrature():
    # 1e4-point trapezoid over the support must give 1 within 1e-6
    for d in builtin_densities():
        lo, hi = d.support
        grid = np.linspace(lo, hi, 10_000)
        integral = np.trapezoid(np.asarray(d.evaluate(grid)), grid)
        assert abs(integral - 1.0) < 1e-6, (d, integral)


# ---------------------------------------------------------------------------
# sampling


def test_sample_zero_events():
    for d in builtin_densities():
        out = d.sample(0, seed=1)
        assert out.shape == (0,)


def test_sample_negative_count_rejected():
    with pytest.raises(ValueError):
        Uniform(0, 8).sample(-1, seed=0)


def test_uniform_sample_mean_clt_bound():
    # 3 sigma / sqrt(n) with sigma = 8/sqrt(12) stays inside [3.99, 4.01]
    m = Uniform(0.0, 8.0).sample(1_000_000, seed=123)
    assert 3.99 <= m.mean() <= 4.01


def test_sample_deterministic_for_fixed_seed():
    for d in builtin_densities():
        a = d.sample(1000, seed=77)
        b = d.sample(1000, seed=77)
        np.testing.assert_array_equal(a, b)
        c = d.sample(1000, seed=78)
        assert not np.array_equal(a, c)


def test_sample_inside_support():
    for d in builtin_densities():
        lo, hi = d.support
        m = d.sample(20_000, seed=5)
        assert m.min() >= lo and m.max() <= hi


def test_sampling_chi2_consistency():
    # 50-bin goodness of fit against the cdf at the 0.001 level
    for d in builtin_densities():
        lo, hi = d.support
        m = d.sample(100_000, seed=2024)
        edges = np.linspace(lo, hi, 51)
        observed, _ = np.histogram(m, bins=edges)
        expected = len(m) * np.diff(scipy_cdf(d)(edges))
        stat = np.sum((observed - expected) ** 2 / expected)
        p_value = chi2.sf(stat, df=50 - 1)
        assert p_value > 0.001, (d, p_value)


def test_truncated_gaussian_quantile_error_below_1e4():
    # exact quantile oracle: scipy's truncated normal
    d = TruncatedGaussian(4.0, 1.0, 0.0, 8.0)
    u = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    approx = d._quantile(u)
    exact = truncnorm(-4.0, 4.0, loc=4.0, scale=1.0).ppf(u)
    assert np.max(np.abs(approx - exact)) < 1e-4


# ---------------------------------------------------------------------------
# mixture model


def test_mixture_density_two_uniforms():
    mm = MixtureModel([Uniform(0, 8), Uniform(0, 8)], [500.0, 500.0])
    p, denom = mm.mixture_density(np.array([1.0]))
    assert denom[0] == pytest.approx(125.0)
    np.testing.assert_allclose(p[0], [0.125, 0.125])


def test_mixture_density_flags_outside_support():
    mm = canonical_mixture(500, 500)
    _, denom = mm.mixture_density(np.array([4.0, 9.0]))
    assert denom[0] > 0.0
    assert denom[1] == 0.0


def test_mixture_density_matches_component_evaluate():
    mm = canonical_mixture(700, 300)
    m = np.array([4.0, 1.3, 6.6])
    p, denom = mm.mixture_density(m)
    expect = 700 * np.asarray(canonical_signal_density().evaluate(m)) + 300 * np.asarray(
        canonical_background_density().evaluate(m)
    )
    np.testing.assert_allclose(denom, expect, rtol=1e-14)
    np.testing.assert_allclose(p[:, 0], canonical_signal_density().evaluate(m), rtol=1e-14)


def test_mixture_model_names_default():
    assert canonical_mixture(1, 1).names == ["signal", "background"]

