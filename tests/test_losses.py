"""Loss values, analytic gradients vs finite differences, bounds, identities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from splotlearn.data import Dataset, attach_sweights, generate_synthetic
from splotlearn.density import canonical_mixture
from splotlearn.losses import (
    LossInputError,
    _exact_likelihood,
    _sigmoid,
    constrained_mse,
    exact_likelihood,
    plain_ce,
    weighted_ce,
)
from splotlearn.model import METHODS, _loss_columns
from splotlearn.splot import fit_yields

FD_H = 1e-6
FD_RTOL = 1e-5
FD_ATOL = 1e-8


def finite_difference_grad(fn, z):
    """Central differences per logit.

    The losses are per-event sums, so each coordinate derivative is computed
    on the single-event slice — the total would drown the difference quotient
    in rounding noise.  ``fn(z_slice, sel)`` must evaluate the loss on the
    selected events.
    """
    z = np.asarray(z, dtype=float)
    grad = np.empty_like(z)
    for i in range(len(z)):
        sel = slice(i, i + 1)
        up = fn(z[sel] + FD_H, sel).loss
        down = fn(z[sel] - FD_H, sel).loss
        grad[i] = (up - down) / (2.0 * FD_H)
    return grad


def assert_grad_matches(fn, z):
    analytic = fn(z, slice(None)).grad
    fd = finite_difference_grad(fn, z)
    np.testing.assert_allclose(analytic, fd, rtol=FD_RTOL, atol=FD_ATOL)


# ---------------------------------------------------------------------------
# the sigmoid, against scipy's expit as an independent oracle


def ulps_apart(a, b):
    """Units in the last place between arrays of non-negative doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    arrays(np.float64, st.integers(1, 256), elements=st.floats(-745.0, 745.0))
    | arrays(np.float64, st.integers(1, 16), elements=st.floats(allow_nan=False, allow_infinity=False))
)
def test_sigmoid_is_within_4_ulp_of_expit(z):
    with np.errstate(over="ignore"):
        s = _sigmoid(z)
    assert np.max(ulps_apart(s, expit(z))) <= 4


def test_sigmoid_limits_and_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = _sigmoid(np.array([np.inf, -np.inf, np.nan]))
    assert s[0] == 1.0 and s[1] == 0.0 and np.isnan(s[2])


@pytest.mark.parametrize(
    "loss",
    [
        lambda z: constrained_mse(z, np.full(2, 0.5)),
        lambda z: exact_likelihood(z, np.full(2, 0.3), np.full(2, 0.2)),
        lambda z: weighted_ce(z, np.full(2, 0.8), np.full(2, -0.3)),
        lambda z: plain_ce(z, np.array([1.0, 0.0])),
    ],
    ids=["constrained_mse", "exact_likelihood", "weighted_ce", "plain_ce"],
)
def test_a_saturated_logit_warns_of_no_overflow(loss):
    z = np.array([-1000.0, 1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = loss(z)
    assert np.isfinite(out.loss) and np.all(np.isfinite(out.grad))


# ---------------------------------------------------------------------------
# constrained MSE


def test_constrained_mse_at_half():
    out = constrained_mse(np.array([0.0]), np.array([0.5]))
    assert out.loss == 0.0
    assert out.grad[0] == 0.0


def test_constrained_mse_negative_weight_closed_form():
    # sigmoid(0) = 0.5, weight -0.2: loss (w - s)^2 = 0.49, grad -2(w-s)s(1-s) = 0.35
    out = constrained_mse(np.array([0.0]), np.array([-0.2]))
    assert out.loss == pytest.approx(0.49, rel=1e-12)
    assert out.grad[0] == pytest.approx(0.35, rel=1e-12)
    fd = finite_difference_grad(lambda z, sel: constrained_mse(z, np.array([-0.2])), np.array([0.0]))
    assert out.grad[0] == pytest.approx(fd[0], rel=1e-5)


def test_constrained_mse_gradient_vs_finite_differences():
    rng = np.random.default_rng(10)
    z = rng.uniform(-10, 10, 400)
    w = rng.uniform(-5, 5, 400)
    assert_grad_matches(lambda zz, sel: constrained_mse(zz, w[sel]), z)


def test_constrained_mse_bounded_below():
    rng = np.random.default_rng(11)
    w = rng.uniform(-5, 5, 100)
    for z0 in (-1e4, 1e4):
        out = constrained_mse(np.full(100, z0), w)
        assert out.loss >= 0.0
        assert np.all(np.isfinite(out.grad))


def golden_section_min(fn, lo, hi, tol=1e-10):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def test_constrained_mse_minimizer_is_sigmoid_inverse():
    # single event: golden-section search over the logit recovers sigma(z) = w
    for w in [0.03, 0.2, 0.5, 0.77, 0.97]:
        z_hat = golden_section_min(
            lambda z: constrained_mse(np.array([z]), np.array([w])).loss, -25.0, 25.0
        )
        z_star = float(np.log(w / (1.0 - w)))
        assert expit(z_hat) == pytest.approx(w, abs=1e-8)
        assert z_hat == pytest.approx(z_star, abs=1e-6)


# ---------------------------------------------------------------------------
# exact likelihood


def test_exact_likelihood_uninformative_densities():
    z = np.array([-3.0, 0.0, 5.0])
    c = 0.37
    out = exact_likelihood(z, np.full(3, c), np.full(3, c))
    assert out.loss == pytest.approx(-3 * np.log(c), rel=1e-12)
    np.testing.assert_allclose(out.grad, 0.0, atol=1e-15)


def test_exact_likelihood_separable_by_mass():
    z = np.array([30.0, -30.0])
    out = exact_likelihood(z, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert 0.0 <= out.loss < 1e-10


def test_exact_likelihood_rejects_dead_events():
    with pytest.raises(LossInputError, match="indices"):
        exact_likelihood(np.zeros(3), np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.5]))
    with pytest.raises(LossInputError):
        exact_likelihood(np.zeros(1), np.array([-0.1]), np.array([1.0]))


def test_exact_likelihood_gradient_vs_finite_differences():
    rng = np.random.default_rng(12)
    z = rng.uniform(-10, 10, 400)
    ps = rng.uniform(0.0, 2.0, 400)
    pb = rng.uniform(0.0, 2.0, 400)
    keep = (ps + pb) > 1e-3
    z, ps, pb = z[keep], ps[keep], pb[keep]
    assert_grad_matches(lambda zz, sel: exact_likelihood(zz, ps[sel], pb[sel]), z)


def test_exact_likelihood_bounded_below_with_floor():
    rng = np.random.default_rng(13)
    ps = rng.uniform(0.0, 2.0, 200)
    pb = rng.uniform(0.0, 2.0, 200)
    keep = (ps + pb) > 1e-3
    ps, pb = ps[keep], pb[keep]
    bound = -np.sum(np.log(np.maximum(ps, pb)))
    for z0 in (-1e4, 1e4):
        out = exact_likelihood(np.full(len(ps), z0), ps, pb)
        assert out.loss >= bound - 1e-9


# ---------------------------------------------------------------------------
# weighted cross-entropy


def test_weighted_ce_correct_confident_signal():
    out = weighted_ce(np.array([40.0]), np.array([1.0]), np.array([0.0]))
    assert 0.0 <= out.loss < 1e-10


def test_weighted_ce_negative_weight_unbounded():
    # sWeight pair (0.8, -0.3): pushing the logit up drives the loss to -inf
    losses = [
        weighted_ce(np.array([z]), np.array([0.8]), np.array([-0.3])).loss for z in (0.0, 10.0, 100.0, 1e4)
    ]
    assert losses[-1] < -1e3
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_weighted_ce_gradient_vs_finite_differences():
    rng = np.random.default_rng(14)
    z = rng.uniform(-10, 10, 400)
    ws = rng.uniform(0.0, 2.0, 400)
    wb = rng.uniform(0.0, 2.0, 400)
    assert_grad_matches(lambda zz, sel: weighted_ce(zz, ws[sel], wb[sel]), z)
    # negative weights keep the gradient exact too
    wsn = rng.uniform(-1.0, 2.0, 400)
    wbn = rng.uniform(-1.0, 2.0, 400)
    assert_grad_matches(lambda zz, sel: weighted_ce(zz, wsn[sel], wbn[sel]), z)


# ---------------------------------------------------------------------------
# plain cross-entropy


def test_plain_ce_log2_at_zero_logit():
    out = plain_ce(np.array([0.0]), np.array([1]))
    assert out.loss == pytest.approx(np.log(2.0), rel=1e-12)


def test_plain_ce_rejects_soft_labels():
    with pytest.raises(LossInputError):
        plain_ce(np.zeros(2), np.array([0.0, 0.5]))


def test_plain_ce_gradient_vs_finite_differences():
    rng = np.random.default_rng(15)
    z = rng.uniform(-10, 10, 400)
    y = rng.integers(0, 2, 400)
    assert_grad_matches(lambda zz, sel: plain_ce(zz, y[sel]), z)


def test_plain_ce_bounded_below():
    y = np.array([0, 1] * 50)
    for z0 in (-1e4, 1e4):
        assert plain_ce(np.full(100, z0), y).loss >= 0.0


# ---------------------------------------------------------------------------
# cross-loss identities


def test_exact_likelihood_reduces_to_plain_ce_with_indicator_densities():
    rng = np.random.default_rng(16)
    z = rng.uniform(-30, 30, 1000)
    y = rng.integers(0, 2, 1000)
    for i in range(len(z)):
        zi = z[i : i + 1]
        a = exact_likelihood(zi, y[i : i + 1].astype(float), (1 - y[i : i + 1]).astype(float))
        b = plain_ce(zi, y[i : i + 1])
        assert abs(a.loss - b.loss) <= 1e-12 * max(1.0, abs(b.loss))
        assert a.grad[0] == pytest.approx(b.grad[0], abs=1e-12, rel=1e-9)


# The columns each method's loss reads.
LOSS_COLUMNS = {
    "true_labels": ["y"],
    "constrained_mse": ["sweights"],
    "exact_likelihood": ["ps", "pb"],
    "weighted_ce": ["sweights"],
    "cwola": ["y"],
}


@pytest.mark.parametrize("method", METHODS)
def test_loss_columns_name_the_method_and_its_missing_columns(method):
    bare = Dataset(X=np.zeros((2, 1)), m=np.ones(2))
    with pytest.raises(LossInputError) as exc:
        _loss_columns(method, bare)
    assert str(exc.value) == f"{method} requires dataset columns {LOSS_COLUMNS[method]}"


# ---------------------------------------------------------------------------
# The paper's consistency claims as exact identities: in a cell of x, the best
# constant logit of constrained MSE and of weighted CE reproduces the cell's
# mean signal sWeight, which estimates p(signal | x) when m and x are
# independent within each species.


@pytest.fixture(scope="module")
def x0_cells():
    """40 000 synthetic events with sWeights, and the event indices of 10 equal-count cells on x0."""
    ds = generate_synthetic(40_000, 0.3, 3, n_features=1)
    weighted, _ = attach_sweights(ds, canonical_mixture(0.3 * ds.n, 0.7 * ds.n))
    x0 = weighted.X[:, 0]
    order = np.argsort(x0, kind="stable")
    return weighted, np.array_split(order, 10)


def constant_logit_root(summed_grad):
    """Bisection on z for the sign change of an increasing summed gradient, to adjacent doubles."""
    lo, hi = -40.0, 40.0
    assert summed_grad(lo) < 0 < summed_grad(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if summed_grad(mid) > 0 else (mid, hi)
    return mid


@pytest.mark.parametrize("method", ["constrained_mse", "weighted_ce"])
def test_the_best_constant_logit_of_a_cell_is_its_mean_signal_sweight(x0_cells, method):
    weighted, cells = x0_cells
    for cell in cells:
        ws, wb = weighted.sweights[cell, 0], weighted.sweights[cell, 1]
        mean = ws.mean()
        assert 0 < mean < 1
        if method == "constrained_mse":
            z = constant_logit_root(lambda z: constrained_mse(np.full(cell.size, z), ws).grad.sum())
        else:
            assert ws.sum() > 0 and wb.sum() > 0
            z = constant_logit_root(lambda z: weighted_ce(np.full(cell.size, z), ws, wb).grad.sum())
        assert abs(_sigmoid(z) - mean) <= 1e-12


def test_the_best_constant_logit_of_the_exact_likelihood_in_a_cell_is_its_fitted_signal_fraction(x0_cells):
    # a constant logit mixes the cell's two mass densities with one fraction, whose
    # maximum likelihood is the two-species yield fit on the cell's masses
    weighted, cells = x0_cells
    shapes = canonical_mixture(1.0, 1.0).components
    for cell in cells:
        ps, pb = weighted.ps[cell], weighted.pb[cell]
        z = constant_logit_root(lambda z: _exact_likelihood(np.full(cell.size, z), ps, pb).grad.sum())
        yields = fit_yields(weighted.m[cell], shapes, [0.5 * cell.size, 0.5 * cell.size], total=cell.size)
        assert 0 < yields[0] < cell.size
        assert abs(_sigmoid(z) - yields[0] / cell.size) <= 1e-12


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    n=st.integers(2_000, 12_000),
    signal_fraction=st.floats(0.15, 0.85),
    seed=st.integers(0, 2**16),
    shares=st.lists(st.integers(1, 4), min_size=2, max_size=6),
)
def test_the_cell_identities_hold_for_drawn_events_and_cells(n, signal_fraction, seed, shares):
    # the three identities above, on cells of x0 cut at drawn shares of the events;
    # a cell whose optimum lies at a logit of +-inf has none, so it is passed over
    ds = generate_synthetic(n, signal_fraction, seed, n_features=1)
    weighted, _ = attach_sweights(ds, canonical_mixture(signal_fraction * n, (1 - signal_fraction) * n))
    order = np.argsort(weighted.X[:, 0], kind="stable")
    cells = np.split(order, (np.cumsum(shares)[:-1] * weighted.n) // sum(shares))
    shapes = canonical_mixture(1.0, 1.0).components
    checked = 0
    for cell in cells:
        ws, wb = weighted.sweights[cell, 0], weighted.sweights[cell, 1]
        mean = ws.mean()
        if 0 < mean < 1:
            z = constant_logit_root(lambda z: constrained_mse(np.full(cell.size, z), ws).grad.sum())
            assert abs(_sigmoid(z) - mean) <= 1e-12
            checked += 1
        if 0 < mean < 1 and ws.sum() > 0 and wb.sum() > 0:
            z = constant_logit_root(lambda z: weighted_ce(np.full(cell.size, z), ws, wb).grad.sum())
            assert abs(_sigmoid(z) - mean) <= 1e-12
        yields = fit_yields(weighted.m[cell], shapes, [0.5 * cell.size, 0.5 * cell.size], total=cell.size)
        if 0 < yields[0] < cell.size:
            ps, pb = weighted.ps[cell], weighted.pb[cell]
            z = constant_logit_root(lambda z: _exact_likelihood(np.full(cell.size, z), ps, pb).grad.sum())
            assert abs(_sigmoid(z) - yields[0] / cell.size) <= 1e-12
            checked += 1
    assert checked >= len(cells)


def test_weighted_ce_keeps_falling_in_a_cell_with_negative_signal_weight(x0_cells):
    # the mass sideband of the lowest x0 cell: its events carry mostly negative signal weights
    weighted, cells = x0_cells
    cell = cells[0][weighted.m[cells[0]] > 6.5]
    ws, wb = weighted.sweights[cell, 0], weighted.sweights[cell, 1]
    assert ws.sum() < 0 < wb.sum()

    def loss(z):
        return weighted_ce(np.full(cell.size, z), ws, wb)

    # no stationary point: the summed gradient is positive at every logit
    assert all(loss(z).grad.sum() > 0 for z in np.linspace(-50.0, 50.0, 201))
    falls = [loss(z).loss for z in (0.0, -10.0, -1e2, -1e3, -1e4)]
    assert all(b < a for a, b in zip(falls, falls[1:]))
    assert falls[-1] == pytest.approx(1e4 * ws.sum(), rel=1e-3)
