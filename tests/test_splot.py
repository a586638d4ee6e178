"""Covariance matrix, sWeights, yield fit, and their exact identities."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import splotlearn.splot as splot
from splotlearn.data import generate_synthetic
from splotlearn.density import (
    Density1D, MixtureDensity, MixtureModel, TruncatedExponential, TruncatedGaussian, Uniform, canonical_mixture,
)
from splotlearn.splot import (
    _CSV_BLOCK_ROWS,
    SplotError,
    SWeightTable,
    YieldFitError,
    compute_sweights,
    compute_vinv,
    fit_yields,
)

from conditional_check import conditional_sweight_check


def sample_mixture(mm, n, seed):
    """``n`` masses drawn from ``mm``'s species in proportion to their yields."""
    return MixtureDensity(mm.components, mm.yields / mm.yields.sum()).sample(n, seed)


def disjoint_mixture(n_signal, n_background):
    # a gap between the supports keeps every event unambiguous
    return MixtureModel([Uniform(0.0, 4.0), Uniform(4.5, 8.0)], [n_signal, n_background])


def disjoint_masses(n_signal, n_background, seed=0):
    mm = disjoint_mixture(1, 1)
    sig = mm.components[0].sample(n_signal, seed)
    bkg = mm.components[1].sample(n_background, seed + 1)
    return np.concatenate([sig, bkg])


def naive_vinv_and_weights(masses, components, yields):
    """Literal double-loop restatement, independent of the vectorized path."""
    k = len(components)
    p = np.array([[float(c.evaluate(m)) for c in components] for m in masses])
    vinv = np.zeros((k, k))
    for e in range(len(masses)):
        denom = sum(yields[j] * p[e, j] for j in range(k))
        if denom < 1e-300:
            continue
        for a in range(k):
            for b in range(k):
                vinv[a, b] += p[e, a] * p[e, b] / denom**2
    v = np.linalg.inv(vinv)
    weights = np.zeros((len(masses), k))
    for e in range(len(masses)):
        denom = sum(yields[j] * p[e, j] for j in range(k))
        if denom < 1e-300:
            continue
        for a in range(k):
            weights[e, a] = sum(v[a, j] * p[e, j] for j in range(k)) / denom
    return vinv, weights


# ---------------------------------------------------------------------------
# compute_vinv


def test_vinv_diagonal_for_disjoint_supports():
    # with ML yields equal to the region counts, Vinv_ss = n_s / N_s^2
    n_s, n_b = 600, 400
    masses = disjoint_masses(n_s, n_b)
    mm = disjoint_mixture(n_s, n_b)
    p = mm.component_densities(masses)
    vinv = compute_vinv(p.T / mm.denominator(p))
    assert vinv[0, 1] == 0.0 and vinv[1, 0] == 0.0
    assert vinv[0, 0] == pytest.approx(n_s / n_s**2, rel=1e-12)
    assert vinv[1, 1] == pytest.approx(n_b / n_b**2, rel=1e-12)


def test_vinv_excludes_and_reports_flagged_events():
    mm = canonical_mixture(500, 500)
    masses = np.array([1.0, 2.0, 9.5, 3.0, -2.0])
    table = compute_sweights(masses, mm)
    np.testing.assert_array_equal(table.flagged_events, [2, 4])
    np.testing.assert_array_equal(table.weights[[2, 4]], 0.0)
    clean = compute_sweights(masses[[0, 1, 3]], mm)
    assert table.yields.tobytes() == clean.yields.tobytes()
    np.testing.assert_allclose(table.vinv, clean.vinv, rtol=1e-15)
    np.testing.assert_allclose(table.weights[[0, 1, 3]], clean.weights, rtol=1e-15)


def test_vinv_all_degenerate_is_error():
    mm = canonical_mixture(500, 500)
    with pytest.raises(SplotError, match="degenerate"):
        compute_sweights(np.array([9.0, 10.0]), mm)


def test_vinv_symmetric_positive_semidefinite():
    mm = canonical_mixture(700, 300)
    masses = sample_mixture(mm, 5000, seed=3)
    p = mm.component_densities(masses)
    vinv = compute_vinv(p.T / mm.denominator(p))
    np.testing.assert_allclose(vinv, vinv.T, rtol=1e-9)
    assert np.all(np.linalg.eigvalsh(vinv) >= 0.0)


# ---------------------------------------------------------------------------
# compute_sweights


def test_single_event_identical_densities_is_indistinguishable():
    mm = MixtureModel([Uniform(0, 8), Uniform(0, 8)], [1.0, 1.0])
    with pytest.raises(SplotError, match="indistinguishable"):
        compute_sweights(np.array([3.0]), mm)


def test_single_species_degenerate_check():
    # the transformation needs two species to separate
    mm = MixtureModel([TruncatedGaussian(4, 1, 0, 8)], [123.0])
    masses = mm.components[0].sample(50, seed=1)
    with pytest.raises(SplotError, match="at least 2 species"):
        compute_sweights(masses, mm)


def test_disjoint_supports_give_indicator_weights():
    masses = disjoint_masses(600, 400, seed=7)
    mm = disjoint_mixture(500, 500)  # deliberately wrong init; the ML fit fixes it
    table = compute_sweights(masses, mm)
    np.testing.assert_allclose(table.yields, [600.0, 400.0], rtol=1e-9)
    np.testing.assert_allclose(table.weights[:600, 0], 1.0, atol=1e-9)
    np.testing.assert_allclose(table.weights[:600, 1], 0.0, atol=1e-9)
    np.testing.assert_allclose(table.weights[600:, 0], 0.0, atol=1e-9)
    np.testing.assert_allclose(table.weights[600:, 1], 1.0, atol=1e-9)


def test_sweights_match_naive_loop_oracle():
    mm = canonical_mixture(650, 350)
    masses = sample_mixture(mm, 1000, seed=21)
    table = compute_sweights(masses, mm)
    fitted = table.yields
    vinv_naive, weights_naive = naive_vinv_and_weights(masses, mm.components, fitted)
    np.testing.assert_allclose(table.vinv, vinv_naive, rtol=1e-12)
    np.testing.assert_allclose(table.weights, weights_naive, rtol=1e-12, atol=1e-15)


def test_sweight_identities_with_ml_yields():
    mm = canonical_mixture(550, 450)
    masses = sample_mixture(mm, 10_000, seed=5)
    table = compute_sweights(masses, mm)
    np.testing.assert_allclose(table.weights.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(table.weights.sum(axis=0), table.yields, rtol=1e-4)
    np.testing.assert_allclose(table.v, table.v.T, rtol=1e-9)


def test_sweights_covariance_identity():
    # sum_e w_e w_e^T = V Vinv V = V, since weights and Vinv share their denominators
    mm = canonical_mixture(550, 450)
    masses = np.concatenate([sample_mixture(mm, 10_000, seed=5), [11.0, -3.0]])
    table = compute_sweights(masses, mm)
    np.testing.assert_allclose(table.weights.T @ table.weights, table.v, rtol=1e-9)


def test_sweights_evaluate_each_density_once(monkeypatch):
    mm = canonical_mixture(300, 700)
    masses = np.concatenate([sample_mixture(mm, 2000, seed=11), [9.0]])
    calls = []
    evaluate = Density1D.evaluate
    monkeypatch.setattr(Density1D, "evaluate", lambda self, m: calls.append(self) or evaluate(self, m))
    fits = []
    fit_yields = splot.fit_yields
    monkeypatch.setattr(splot, "fit_yields", lambda *a, **k: fits.append(fit_yields(*a, **k)) or fits[-1])
    table = compute_sweights(masses, mm)
    assert calls == mm.components
    assert table.densities.tobytes() == np.column_stack([evaluate(c, masses) for c in mm.components]).tobytes()
    # the weights carry the bits of the fit's own final denominator
    p = table.densities[:2000]
    expected = np.zeros_like(table.weights)
    expected[:2000] = (p[:, 0, None] * table.v[None, :, 0] + p[:, 1, None] * table.v[None, :, 1]) / fits[0].denominator[:, None]
    assert table.weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize("flagged", [0, 2])
def test_sweights_take_vinv_and_its_condition_number_from_the_fit(monkeypatch, flagged):
    mm = canonical_mixture(550, 450)
    masses = np.concatenate([sample_mixture(mm, 3000, seed=19), [11.0, -3.0][:flagged]])
    fits = []
    in_fit = []
    vinv_calls = []
    cond_calls = []
    denominator_calls = []
    fit_yields, vinv, cond, denominator = splot.fit_yields, splot.compute_vinv, np.linalg.cond, MixtureModel.denominator

    def traced_fit(*a, **k):
        in_fit.append(True)
        try:
            fits.append(fit_yields(*a, **k))
        finally:
            in_fit.pop()
        return fits[-1]

    monkeypatch.setattr(splot, "fit_yields", traced_fit)
    monkeypatch.setattr(splot, "compute_vinv", lambda a: vinv_calls.append(bool(in_fit)) or vinv(a))
    monkeypatch.setattr(np.linalg, "cond", lambda x: cond_calls.append(x) or cond(x))
    monkeypatch.setattr(MixtureModel, "denominator", lambda self, p: denominator_calls.append(p) or denominator(self, p))
    table = compute_sweights(masses, mm)
    (fit,) = fits
    assert len(denominator_calls) == 1  # the flagged-event mask
    assert len(cond_calls) == 1
    assert vinv_calls == [True] * (fit.iterations + 1)  # one curvature per step of the fit, none after it
    # Vinv is the fit's curvature at its last iterate, from the fit's final ratio matrix
    a = np.ascontiguousarray(table.densities[:3000].T) / fit.denominator
    assert table.vinv.tobytes() == vinv(a).tobytes()
    assert table.condition_number == fit.condition_number == cond(table.vinv)
    assert table.yields.tobytes() == fit.tobytes() and type(table.yields) is np.ndarray


def overlapping_three_species(mu):
    """A gaussian, an exponential and a uniform on [0, 1]; the two FOUND mixtures of the EM fit."""
    shapes = [TruncatedGaussian(mu, 0.2, 0, 1), TruncatedExponential(1.0, 0, 1), Uniform(0, 1)]
    masses = sample_mixture(MixtureModel(shapes, [400, 400, 200]), 1000, seed=0)
    return masses, MixtureModel(shapes, np.full(3, 1000 / 3))


def test_yield_fitted_to_zero_keeps_the_per_event_identity():
    # the EM fit left the uniform yield at 4.3e-5, and per-event sums off by 0.029
    masses, mm = overlapping_three_species(0.5)
    table = compute_sweights(masses, mm)
    assert table.yields[2] == 0.0
    np.testing.assert_array_equal(table.weights[:, 2], 0.0)
    np.testing.assert_array_equal(table.v[2], 0.0)
    np.testing.assert_array_equal(table.v[:, 2], 0.0)
    np.testing.assert_allclose(table.weights.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(table.weights.sum(axis=0), table.yields, rtol=0, atol=1e-9 * 1000)
    # on the boundary the uniform's gradient may not exceed the others'
    g = (table.densities / (table.densities @ table.yields)[:, None]).sum(axis=0)
    assert g[2] <= 1.0 + 1e-12
    np.testing.assert_allclose(g[:2], 1.0, rtol=0, atol=1e-12)
    assert table.kkt_residual <= 1e-12
    assert table.event_sum_residual <= 1e-9


def test_overlapping_three_species_fit_converges():
    # the EM fit did not converge within 10 000 iterations
    masses, mm = overlapping_three_species(0.8)
    table = compute_sweights(masses, mm)
    assert np.all(table.yields > 0)
    assert table.fit_iterations <= 10
    np.testing.assert_allclose(table.weights.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(table.weights.sum(axis=0), table.yields, rtol=0, atol=1e-9 * 1000)


def test_sweights_record_the_fit_and_the_identity_residuals():
    mm = canonical_mixture(550, 450)
    masses = np.concatenate([sample_mixture(mm, 5000, seed=5), [11.0]])
    table = compute_sweights(masses, mm)
    d = table.diagnostics()
    assert set(d) == {
        "fit_iterations", "fit_loglik", "kkt_residual", "event_sum_residual", "species_sum_residual",
        "yield_standard_errors",
    }
    assert 1 <= d["fit_iterations"] <= 10
    p = table.densities[:5000]
    assert d["fit_loglik"] == pytest.approx(np.sum(np.log(p @ table.yields)), rel=1e-12)
    assert d["kkt_residual"] <= 1e-12
    assert d["event_sum_residual"] == np.max(np.abs(table.weights[:5000].sum(axis=1) - 1.0)) <= 1e-9
    assert d["species_sum_residual"] <= 1e-12


@pytest.mark.parametrize("overlap", [0.5, 0.8], ids=["a-yield-at-0", "all-yields-above-0"])
def test_yield_standard_errors_are_the_root_diagonal_of_v(overlap):
    masses, mm = overlapping_three_species(overlap)
    table = compute_sweights(masses, mm)
    errors = table.diagnostics()["yield_standard_errors"]
    assert errors == np.sqrt(np.diag(table.v)).tolist()
    assert [e == 0.0 for e in errors] == [y == 0.0 for y in table.yields]


def test_flagged_events_get_zero_weights():
    mm = canonical_mixture(500, 500)
    masses = np.concatenate([sample_mixture(mm, 500, seed=2), [11.0]])
    table = compute_sweights(masses, mm)
    np.testing.assert_array_equal(table.flagged_events, [500])
    np.testing.assert_array_equal(table.weights[500], [0.0, 0.0])
    assert abs(table.weights.sum(axis=1)[:500] - 1.0).max() < 1e-6


def test_sweights_csv_export_roundtrip(tmp_path):
    mm = canonical_mixture(300, 700)
    masses = sample_mixture(mm, 64, seed=9)
    table = compute_sweights(masses, mm)
    path = tmp_path / "sweights.csv"
    table.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "event_index,sweight_signal,sweight_background"
    assert len(lines) == 65
    parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    np.testing.assert_array_equal(parsed, table.weights)


def weights_only_table(weights, names, flagged):
    """A table for the CSV writer, which reads only the weights and the species names."""
    k = weights.shape[1]
    return SWeightTable(weights, np.eye(k), np.eye(k), np.ones(k), names, flagged, 1.0, np.zeros_like(weights), 0, 0.0, 0.0, 0.0, 0.0)


def reference_csv(table):
    """The export written one row at a time with format(x, ".17g")."""
    lines = ["event_index," + ",".join(f"sweight_{s}" for s in table.species)]
    for e in range(table.n_events):
        lines.append(f"{e}," + ",".join(format(x, ".17g") for x in table.weights[e]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sweights_csv_export_matches_per_row_format(tmp_path, k):
    n = _CSV_BLOCK_ROWS + 3
    weights = np.random.default_rng(k).standard_normal((n, k)) * 10.0 ** np.arange(-3, 3 * k - 3, 3)
    edge = [-0.0, 5e-324, 1e300, -1e300, 1 / 3]
    weights[: len(edge), 0] = edge
    weights[len(edge) : 2 * len(edge), -1] = edge
    flagged = np.array([7, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, n - 1])
    weights[flagged] = 0.0
    names = [f"s{j}" for j in range(k)]
    table = weights_only_table(weights, names, flagged)
    path = tmp_path / "sweights.csv"
    table.to_csv(path)
    assert path.read_bytes() == reference_csv(table).encode()


def test_sweights_csv_export_of_no_events(tmp_path):
    table = weights_only_table(np.zeros((0, 2)), ["signal", "background"], np.array([], dtype=int))
    table.to_csv(tmp_path / "sweights.csv")
    assert (tmp_path / "sweights.csv").read_text() == "event_index,sweight_signal,sweight_background\n"


# ---------------------------------------------------------------------------
# fit_yields


def reference_em(masses, shapes, init, total, max_iter=100_000):
    """The plain EM update on the (n, k) responsibility matrix, run until it stops moving."""
    p = np.column_stack([s.evaluate(masses) for s in shapes])
    p = p[p.sum(axis=1) > 0.0]
    n = np.asarray(init, dtype=float) * (total / np.sum(init))
    for _ in range(max_iter):
        n_new = (p * n / (p @ n)[:, None]).sum(axis=0)
        n_new *= total / n_new.sum()
        if np.max(np.abs(n_new - n)) <= 1e-14 * total:
            return n_new
        n = n_new
    raise AssertionError("reference EM did not converge")


@pytest.mark.parametrize("n_events", [1, 7, 1000, 65_537])
@pytest.mark.parametrize("n_species", [2, 3])
def test_fit_yields_is_stationary_and_agrees_with_em(n_events, n_species):
    shapes = [TruncatedGaussian(4.0, 1.0, 0, 8), TruncatedExponential(0.4, 0, 8), Uniform(0, 8)][:n_species]
    fractions = np.array([0.3, 0.5, 0.2][:n_species])
    masses = sample_mixture(MixtureModel(shapes, fractions), n_events, seed=n_events)
    init = np.full(n_species, n_events / n_species)
    fitted = fit_yields(masses, shapes, init, float(n_events))
    p = np.column_stack([s.evaluate(masses) for s in shapes])
    g = (p / (p @ fitted)[:, None]).sum(axis=0)
    live = fitted > 0
    np.testing.assert_allclose(g[live], 1.0, rtol=0, atol=1e-12)
    assert np.all(g[~live] <= 1.0 + 1e-12)
    assert fitted.kkt_residual <= 1e-12
    assert fitted.sum() == pytest.approx(n_events, rel=1e-14)
    np.testing.assert_allclose(fitted, reference_em(masses, shapes, init, float(n_events)), rtol=0, atol=1e-9 * n_events)


def test_fit_yields_takes_the_densities_it_is_given():
    mm = canonical_mixture(300, 700)
    masses = sample_mixture(mm, 3000, seed=13)
    p = mm.component_densities(masses)
    own = fit_yields(masses, mm.components, [1500.0, 1500.0], 3000.0)
    given = fit_yields(None, mm.components, [1500.0, 1500.0], 3000.0, densities=p)
    assert own.tobytes() == given.tobytes()
    assert own.iterations == given.iterations > 0
    with pytest.raises(ValueError, match="densities"):
        fit_yields(None, mm.components, [1500.0, 1500.0], 3000.0, densities=p[:, :1])


def test_fit_yields_disjoint_counts():
    masses = disjoint_masses(600, 400, seed=3)
    shapes = [Uniform(0.0, 4.0), Uniform(4.5, 8.0)]
    fitted = fit_yields(masses, shapes, [500.0, 500.0], 1000.0)
    np.testing.assert_allclose(fitted, [600.0, 400.0], rtol=1e-9)


def test_fit_yields_recovers_truth_within_clt_bound():
    true_ns, true_nb = 70_000, 30_000
    mm = canonical_mixture(true_ns, true_nb)
    masses = sample_mixture(mm, true_ns + true_nb, seed=17)
    fitted = fit_yields(masses, mm.components, [50_000.0, 50_000.0], 100_000.0)
    assert abs(fitted[0] - true_ns) < 3 * np.sqrt(true_ns)
    assert abs(fitted[1] - true_nb) < 3 * np.sqrt(true_nb)


def test_fit_yields_loglik_nondecreasing():
    # the 1e-12 per-step tolerance scales with the summed magnitude: one ulp
    # of a ~3e4 log-likelihood is already 4e-12
    mm = canonical_mixture(300, 700)
    masses = sample_mixture(mm, 5000, seed=29)
    trace = []
    fit_yields(masses, mm.components, [2500.0, 2500.0], 5000.0, callback=lambda y, ll: trace.append(ll))
    trace = np.asarray(trace)
    assert np.all(np.diff(trace) >= -1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_fit_yields_with_one_species_left_checks_its_curvature():
    # no event lies on the first species' support, so its yield ends at 0
    shapes = [Uniform(0.0, 4.0), Uniform(0.0, 8.0)]
    masses = np.random.default_rng(2).uniform(4.0, 8.0, 300)
    fitted = fit_yields(masses, shapes, [150.0, 150.0], 300.0)
    np.testing.assert_array_equal(fitted, [0.0, 300.0])
    assert fitted.condition_number == 1.0
    table = compute_sweights(masses, MixtureModel(shapes, [150.0, 150.0]))
    assert table.condition_number == 1.0
    np.testing.assert_array_equal(table.weights[:, 0], 0.0)
    np.testing.assert_allclose(table.weights[:, 1], 1.0, rtol=0, atol=1e-12)


def test_fit_yields_identical_shapes_flat_direction():
    shapes = [Uniform(0, 8), Uniform(0, 8)]
    masses = np.random.default_rng(1).uniform(0, 8, 500)
    with pytest.raises(SplotError, match="indistinguishable|flat"):
        fit_yields(masses, shapes, [250.0, 250.0], 500.0)


def test_fit_yields_nonconvergence_carries_last_iterate():
    mm = canonical_mixture(600, 400)
    masses = sample_mixture(mm, 2000, seed=31)
    with pytest.raises(YieldFitError) as excinfo:
        fit_yields(masses, mm.components, [1000.0, 1000.0], 2000.0, max_iter=2)
    last = excinfo.value.last_yields
    assert last.shape == (2,)
    assert last.sum() == pytest.approx(2000.0)


def test_fit_yields_rejects_an_event_with_zero_density_everywhere():
    # compute_sweights flags such events before the fit; the likelihood is 0 at any yields
    mm = canonical_mixture(1, 1)
    with pytest.raises(SplotError, match="event 1 has zero density under every species"):
        fit_yields(np.array([1.0, 9.0, 2.0]), mm.components, [1.5, 1.5], 3.0)


def test_fit_yields_validates_init():
    mm = canonical_mixture(1, 1)
    with pytest.raises(ValueError):
        fit_yields(np.array([1.0]), mm.components, [-1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        fit_yields(np.array([1.0]), mm.components, [1.0, 1.0], 5.0)


# ---------------------------------------------------------------------------
# conditional expectation of the signal weight


def test_conditional_check_constant_posterior():
    # features independent of the class: every bin's mean weight sits at the
    # global signal fraction
    ds = generate_synthetic(40_000, 0.6, seed=41)
    ds = ds.with_columns(X=np.random.default_rng(42).standard_normal(ds.X.shape))
    mm = canonical_mixture(0.6 * ds.n, 0.4 * ds.n)
    table = compute_sweights(ds.m, mm)
    check = conditional_sweight_check(ds, table, n_bins=10)
    populated = check.counts >= 500
    assert populated.sum() >= 5
    assert np.all(np.abs(check.mean_sweight[populated] - 0.6) < 0.05)


def test_conditional_check_tracks_posterior():
    ds = generate_synthetic(100_000, 0.5, seed=43)
    mm = canonical_mixture(0.5 * ds.n, 0.5 * ds.n)
    table = compute_sweights(ds.m, mm)
    check = conditional_sweight_check(ds, table, n_bins=20)
    occupied = check.counts > 0
    z = check.z_scores[occupied]
    assert np.sum(np.abs(z) < 4.0) >= len(z) - 1


def test_conditional_check_pure_signal():
    ds = generate_synthetic(20_000, 0.5, seed=45)
    pure = ds.subset(np.flatnonzero(ds.y == 1))
    mm = canonical_mixture(0.9 * pure.n, 0.1 * pure.n)
    table = compute_sweights(pure.m, mm)
    check = conditional_sweight_check(pure, table, n_bins=10)
    occupied = check.counts > 0
    assert np.all(np.abs(check.mean_sweight[occupied] - 1.0) < 0.05)


def test_conditional_check_requires_labels():
    ds = generate_synthetic(100, 0.5, seed=47)
    ds.y = None
    mm = canonical_mixture(50, 50)
    table = compute_sweights(ds.m, mm)
    with pytest.raises(ValueError):
        conditional_sweight_check(ds, table, n_bins=5)


# ---------------------------------------------------------------------------
# identities over random shapes, supports and yield splits


@st.composite
def mixtures(draw):
    """Two or three species of distinct kinds on a random support, with random yield fractions."""
    lo = draw(st.floats(-50.0, 50.0))
    width = draw(st.floats(1.0, 30.0))
    hi = lo + width
    kinds = draw(st.permutations(["gaussian", "exponential", "uniform"]))[: draw(st.sampled_from([2, 3]))]
    shapes = []
    for kind in kinds:
        if kind == "gaussian":
            mu = lo + width * draw(st.floats(0.2, 0.8))
            shapes.append(TruncatedGaussian(mu, width * draw(st.floats(0.03, 0.2)), lo, hi))
        elif kind == "exponential":
            shapes.append(TruncatedExponential(draw(st.floats(1.0, 8.0)) / width, lo, hi))
        else:
            shapes.append(Uniform(lo, hi))
    fractions = np.array([draw(st.floats(0.2, 1.0)) for _ in kinds])
    return shapes, fractions / fractions.sum()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mixtures(), st.integers(500, 3_000), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_sweight_identities_hold_for_random_mixtures(mixture, n_events, seed, n_planted):
    shapes, fractions = mixture
    masses = sample_mixture(MixtureModel(shapes, fractions * n_events), n_events, seed)
    # plant masses outside the shared support: zero density under every species
    rng = np.random.default_rng(seed)
    planted = np.sort(rng.choice(n_events, n_planted, replace=False))
    lo, hi = shapes[0].support
    masses[planted] = np.where(rng.random(n_planted) < 0.5, lo - 1.0, hi + 1.0)
    try:
        # start the fit away from the generating yields
        table = compute_sweights(masses, MixtureModel(shapes, np.full(len(shapes), n_events / len(shapes))))
    except SplotError as exc:
        # declared indistinguishable: no weights to check
        assume("indistinguishable" not in str(exc))
        raise
    w = table.weights
    np.testing.assert_array_equal(table.flagged_events, planted)
    np.testing.assert_array_equal(w[planted], 0.0)
    assert table.yields.sum() == pytest.approx(n_events - n_planted, rel=1e-14)
    # these two hold for any yields that weights and Vinv share
    np.testing.assert_allclose(w.sum(axis=0), table.yields, rtol=0, atol=1e-9 * table.yields.sum())
    np.testing.assert_allclose(w.T @ w, table.v, rtol=1e-9)
    # the per-event sum needs the maximum of the likelihood
    kept = np.setdiff1d(np.arange(n_events), planted)
    np.testing.assert_allclose(w[kept].sum(axis=1), 1.0, rtol=0, atol=1e-9)
    assert table.kkt_residual <= 1e-12
