"""Loss values, analytic gradients vs finite differences, bounds, identities."""

import numpy as np
import pytest
from scipy.special import expit

from splotlearn.data import Dataset
from splotlearn.losses import (
    LossInputError,
    constrained_mse,
    exact_likelihood,
    plain_ce,
    weighted_ce,
)
from splotlearn.model import METHODS, _loss_columns

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
