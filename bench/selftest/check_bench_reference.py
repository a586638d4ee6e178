"""The benchmark's independent reference agrees with splotlearn on small inputs."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import reference  # noqa: E402
from splotlearn.data import bayes_optimal_auc, generate_synthetic  # noqa: E402
from splotlearn.density import canonical_mixture  # noqa: E402
from splotlearn.splot import compute_sweights  # noqa: E402


@pytest.fixture(scope="module")
def small_table():
    ds = generate_synthetic(5_000, 0.3, seed=11, n_features=1)
    table = compute_sweights(ds.m, canonical_mixture(2_500, 2_500))
    return ds.m, table


def test_reference_densities_match_program():
    m = np.linspace(-1.0, 9.0, 2_001)
    ref = reference.species_pdfs(m)
    prog = canonical_mixture(1.0, 1.0).component_densities(m)
    np.testing.assert_allclose(ref, prog, rtol=1e-12, atol=0.0)


def test_reference_weights_match_program(small_table):
    m, table = small_table
    w, v, vinv = reference.sweights(reference.species_pdfs(m), table.yields)
    scale = np.max(np.abs(w))
    assert np.max(np.abs(w - table.weights)) / scale < 1e-12
    np.testing.assert_allclose(v, table.v, rtol=1e-12)
    np.testing.assert_allclose(vinv, table.vinv, rtol=1e-12)
    assert checks.reference_agreement(m, table.weights, table.yields) == []
    assert checks.sweight_identities(table.weights, table.yields) == []


def test_reference_flags_non_stationary_yields(small_table):
    m, table = small_table
    shifted = table.yields * np.array([1.001, 1.0])
    shifted *= table.yields.sum() / shifted.sum()
    errors = checks.reference_agreement(m, table.weights, shifted)
    assert any("stationary" in e for e in errors)


def test_bayes_auc_matches_generator():
    assert reference.bayes_auc() == pytest.approx(0.7807, abs=5e-5)
    assert reference.bayes_auc() == pytest.approx(bayes_optimal_auc(5), rel=1e-15)


def test_drawn_events_follow_the_synthetic_model():
    m, y, x = reference.draw_events(200_000, 0.5, np.random.default_rng(3))
    assert np.all((m >= reference.SUPPORT[0]) & (m <= reference.SUPPORT[1]))
    gap = x[y == 1].mean(axis=0) - x[y == 0].mean(axis=0)
    np.testing.assert_allclose(gap, reference.FEATURE_SHIFTS, atol=0.03)
    assert abs(m[y == 1].mean() - 4.0) < 0.02


def test_auc_slack_shrinks_with_sample_size():
    a = reference.auc_slack(0.78, 2_500, 2_500)
    b = reference.auc_slack(0.78, 25_000, 25_000)
    assert 0.02 < a < 0.05
    assert b == pytest.approx(a / np.sqrt(10), rel=0.01)
