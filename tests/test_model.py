"""Network init/forward/backprop, Adam behavior, trainer determinism, serialization."""

import numpy as np
import pytest

import splotlearn as sl
from splotlearn import model as model_module
from splotlearn.losses import LossInputError, constrained_mse, exact_likelihood, plain_ce, weighted_ce
from splotlearn.model import FORWARD_BLOCK_ROWS, Adam, AdamConfig, Mlp, MlpConfig, train


# the CWoLa window of the trainer's required keywords, unused by the other methods
CWOLA = {"cwola_center": 4.0, "cwola_fraction": 0.5}


def tiny_model(seed=0, input_dim=2, hidden=(3,)):
    return Mlp(MlpConfig(input_dim=input_dim, hidden=hidden, leaky_slope=0.05, seed=seed))


# ---------------------------------------------------------------------------
# config and init


def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(input_dim=3, hidden=())
    with pytest.raises(ValueError):
        MlpConfig(input_dim=3, hidden=(0, 4))
    with pytest.raises(ValueError):
        MlpConfig(input_dim=3, hidden=(4,), leaky_slope=0.0)
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        AdamConfig(beta1=1.0)
    with pytest.raises(ValueError):
        AdamConfig(batch_size=0)


def test_same_seed_identical_parameters():
    a = Mlp(MlpConfig(input_dim=4, hidden=(8, 4), seed=42))
    b = Mlp(MlpConfig(input_dim=4, hidden=(8, 4), seed=42))
    np.testing.assert_array_equal(a.theta, b.theta)
    c = Mlp(MlpConfig(input_dim=4, hidden=(8, 4), seed=43))
    assert not np.array_equal(a.theta, c.theta)


def test_fresh_model_logit_scale():
    model = Mlp(MlpConfig(input_dim=5, hidden=(64, 32, 16), seed=7))
    x = np.random.default_rng(0).standard_normal((1000, 5))
    z = model.forward(x)
    assert 0.1 <= z.std() <= 10.0


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_weights_gives_bias():
    model = tiny_model()
    model.theta[...] = 0.0
    x = np.random.default_rng(1).standard_normal((10, 2))
    np.testing.assert_array_equal(model.forward(x), np.zeros(10))


def test_forward_is_weighted_sum_for_linear_path():
    # positive inputs pass the leaky relu unchanged, so a hand-set identity
    # network computes the plain weighted sum
    model = tiny_model(input_dim=2, hidden=(2,))
    w1, b1 = model._weights[0], model._biases[0]
    w2, b2 = model._weights[1], model._biases[1]
    w1[...] = np.eye(2)
    b1[...] = 0.0
    w2[...] = np.array([[2.0], [3.0]])
    b2[...] = 0.5
    x = np.array([[1.0, 2.0], [0.25, 4.0]])
    np.testing.assert_allclose(model.forward(x), 2 * x[:, 0] + 3 * x[:, 1] + 0.5)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        tiny_model(input_dim=3).forward(np.zeros((4, 2)))


@pytest.mark.parametrize("hidden, input_dim", [((64, 32, 16), 5), ((128, 64, 32), 10)])  # default, criterion 6
def test_blocked_forward_matches_the_unblocked_forward_bitwise(monkeypatch, hidden, input_dim):
    model = Mlp(MlpConfig(input_dim=input_dim, hidden=hidden, seed=4))
    rows = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, *rest, **kw: rows.append(a.shape[0]) or matmul(a, *rest, **kw))
    rng = np.random.default_rng(8)
    for n in [1, 2, 4095, 4096, 4097, 4098, 4103, 8193, 8199, 20001, 49999, 50000, 150000, 150001, 150007]:
        x = rng.standard_normal((n, input_dim))
        rows.clear()
        z = model.forward(x)
        assert z.tobytes() == model._forward_cached(x)[0].tobytes(), n
        layers = len(model.dims) - 1
        blocks = rows[::layers]
        assert rows == [r for r in blocks for _ in range(layers)]
        assert sum(blocks) == n
        assert all(min(n, FORWARD_BLOCK_ROWS) <= r < 2 * FORWARD_BLOCK_ROWS or r == n for r in blocks), (n, blocks)


# ---------------------------------------------------------------------------
# backprop vs finite differences


def loss_cases(rng, n):
    y = rng.integers(0, 2, n)
    w = rng.uniform(-1, 2, n)
    ws = rng.uniform(-1, 2, n)
    wb = rng.uniform(-1, 2, n)
    ps = rng.uniform(0.05, 2, n)
    pb = rng.uniform(0.05, 2, n)
    return [
        ("true_labels", lambda z: plain_ce(z, y)),
        ("constrained_mse", lambda z: constrained_mse(z, w)),
        ("weighted_ce", lambda z: weighted_ce(z, ws, wb)),
        ("exact_likelihood", lambda z: exact_likelihood(z, ps, pb)),
    ]


def network_fd_gradient(model, x, loss_fn, h=1e-6):
    grad = np.empty(model.n_params)
    for j in range(model.n_params):
        orig = model.theta[j]
        model.theta[j] = orig + h
        up = loss_fn(model.forward(x)).loss
        model.theta[j] = orig - h
        down = loss_fn(model.forward(x)).loss
        model.theta[j] = orig
        grad[j] = (up - down) / (2.0 * h)
    return grad


def test_backprop_matches_finite_differences_for_every_loss():
    # 2-3-1 net, 13 parameters, against central differences
    rng = np.random.default_rng(123)
    n = 8
    x = rng.standard_normal((n, 2))
    for method, loss_fn in loss_cases(rng, n):
        model = tiny_model(seed=5)
        z, cache = model._forward_cached(x)
        analytic = model.backward(cache, loss_fn(z).grad)
        fd = network_fd_gradient(model, x, loss_fn)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8, err_msg=method)


# ---------------------------------------------------------------------------
# Adam


def test_adam_reduces_to_scaled_gradient_descent():
    # beta1 = beta2 = 0 and a huge epsilon: step is lr * g / epsilon on a quadratic
    cfg = AdamConfig(learning_rate=0.5, beta1=0.0, beta2=0.0, epsilon=1e6, batch_size=1, total_steps=1)
    adam = Adam(cfg, 3)
    theta = np.array([1.0, -2.0, 3.0])
    gd = theta.copy()
    for _ in range(25):
        grad = 2.0 * theta  # d/dtheta of sum(theta^2)
        adam.step(theta, grad)
        gd -= cfg.learning_rate / cfg.epsilon * (2.0 * gd)
    np.testing.assert_allclose(theta, gd, rtol=1e-5)


def test_adam_step_matches_textbook_update_bitwise():
    cfg = AdamConfig(learning_rate=1e-2)
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(50)
    expected = theta.copy()
    m = np.zeros(50)
    v = np.zeros(50)
    adam = Adam(cfg, 50)
    for t in range(1, 6):
        grad = rng.standard_normal(50)
        adam.step(theta, grad)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        expected -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    np.testing.assert_array_equal(theta, expected)


def test_adam_bias_correction_first_step():
    cfg = AdamConfig(learning_rate=0.1, beta1=0.9, beta2=0.999, epsilon=1e-12)
    adam = Adam(cfg, 1)
    theta = np.array([0.0])
    adam.step(theta, np.array([0.25]))
    # bias-corrected first step moves by ~lr regardless of gradient scale
    assert theta[0] == pytest.approx(-0.1, rel=1e-6)


# ---------------------------------------------------------------------------
# training


def make_separable(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    x = rng.standard_normal((n, 2)) + np.where(y[:, None] == 1, 3.0, -3.0)
    m = rng.uniform(0, 8, n)
    return sl.Dataset(X=x, m=m, y=y)


def test_zero_learning_rate_keeps_parameters():
    ds = make_separable(512, 1)
    model = tiny_model(seed=2, input_dim=2, hidden=(4,))
    before = model.theta.copy()
    rep = train("true_labels", model, ds, ds, AdamConfig(learning_rate=0.0, total_steps=200), eval_every=50, **CWOLA)
    np.testing.assert_array_equal(model.theta, before)
    assert np.ptp(rep.train_loss) == 0.0


def test_separable_data_reaches_high_auc():
    ds = make_separable(4000, 3)
    test = make_separable(4000, 4)
    model = Mlp(MlpConfig(input_dim=2, hidden=(16, 8), seed=0))
    opt = AdamConfig(learning_rate=3e-3, total_steps=2000)
    rep = train("true_labels", model, ds, test, opt, eval_every=500, **CWOLA)
    assert rep.test_auc[-1] > 0.99


def test_training_determinism():
    ds = make_separable(1000, 5)
    test = make_separable(500, 6)
    reports = []
    for _ in range(2):
        model = Mlp(MlpConfig(input_dim=2, hidden=(8, 4), seed=9))
        reports.append(
            train("true_labels", model, ds, test, AdamConfig(total_steps=300), eval_every=100, **CWOLA)
        )
    a, b = reports
    np.testing.assert_array_equal(a.steps, b.steps)
    np.testing.assert_array_equal(a.train_loss, b.train_loss)
    np.testing.assert_array_equal(a.test_loss, b.test_loss)
    np.testing.assert_array_equal(a.test_auc, b.test_auc)


def test_report_steps_strictly_increasing():
    ds = make_separable(600, 7)
    model = tiny_model(seed=1, input_dim=2, hidden=(4,))
    rep = train("true_labels", model, ds, ds, AdamConfig(total_steps=250), eval_every=100, **CWOLA)
    assert np.all(np.diff(rep.steps) > 0)
    assert rep.steps[0] == 0 and rep.steps[-1] == 250


def test_missing_loss_columns_rejected():
    from splotlearn.losses import LossInputError

    ds = make_separable(100, 8)  # no sweights attached
    model = tiny_model(seed=1, input_dim=2, hidden=(4,))
    with pytest.raises(LossInputError):
        train("constrained_mse", model, ds, ds, AdamConfig(total_steps=10), eval_every=500, **CWOLA)


def likelihood_dataset(n, seed):
    ds = make_separable(n, seed)
    rng = np.random.default_rng(seed)
    return ds.with_columns(ps=rng.uniform(0.05, 2, n), pb=rng.uniform(0.05, 2, n))


def test_trainer_checks_loss_columns_once_not_per_batch(monkeypatch):
    checked = []
    for name in ("check_densities", "check_labels"):
        fn = getattr(model_module, name)
        monkeypatch.setattr(model_module, name, lambda *cols, fn=fn: checked.append(len(cols[0])) or fn(*cols))
    ds, test = likelihood_dataset(300, 1), likelihood_dataset(100, 2)
    for method in ("exact_likelihood", "true_labels"):
        checked.clear()
        train(method, tiny_model(), ds, test, AdamConfig(total_steps=40), eval_every=20, **CWOLA)
        assert checked == [300, 100], method


@pytest.mark.parametrize(
    "ps, pb, match", [([0.5, -0.1], [1.0, 1.0], "non-negative"), ([0.5, 0.0], [1.0, 0.0], "zero density")]
)
def test_trainer_rejects_bad_density_columns_before_training(ps, pb, match):
    ds = sl.Dataset(X=np.zeros((2, 2)), m=np.ones(2), ps=np.array(ps), pb=np.array(pb))
    model = tiny_model()
    theta = model.theta.copy()
    with pytest.raises(LossInputError, match=match):
        train("exact_likelihood", model, ds, ds, AdamConfig(total_steps=10), eval_every=500, **CWOLA)
    np.testing.assert_array_equal(model.theta, theta)


def test_loss_columns_reject_labels_other_than_0_and_1():
    class Labelled:
        y = np.array([0.0, 1.0, 0.5])

    with pytest.raises(LossInputError, match="0 or 1"):
        model_module._loss_columns("true_labels", Labelled())


def test_divergence_abort_carries_partial_report():
    # poisoned parameters overflow the forward pass; the trainer must return
    # the trace collected so far, marked aborted with the step and the reason
    rng = np.random.default_rng(11)
    n = 256
    x = rng.standard_normal((n, 2))
    sw = np.column_stack([np.full(n, 2.0), np.full(n, -1.0)])
    ds = sl.Dataset(X=x, m=rng.uniform(0, 8, n), sweights=sw)
    model = tiny_model(seed=3, input_dim=2, hidden=(8,))
    model.theta[...] = 1e200
    opt = AdamConfig(total_steps=100)
    with np.errstate(over="ignore", invalid="ignore"):
        report = train("weighted_ce", model, ds, ds, opt, eval_every=10, **CWOLA)
    assert report.aborted
    assert report.abort_step == 1
    assert report.abort_reason == "non-finite batch loss or gradient"
    assert report.method == "weighted_ce"
    assert len(report.steps) >= 1


def test_l2_regularizer_shrinks_parameters():
    ds = make_separable(800, 12)
    plain_cfg = MlpConfig(input_dim=2, hidden=(8,), seed=4, l2_coefficient=0.0)
    reg_cfg = MlpConfig(input_dim=2, hidden=(8,), seed=4, l2_coefficient=1e-2)
    m_plain, m_reg = Mlp(plain_cfg), Mlp(reg_cfg)
    opt = AdamConfig(total_steps=1500, learning_rate=1e-3)
    train("true_labels", m_plain, ds, ds, opt, eval_every=1500, **CWOLA)
    train("true_labels", m_reg, ds, ds, opt, eval_every=1500, **CWOLA)
    assert m_reg.theta @ m_reg.theta < m_plain.theta @ m_plain.theta


# ---------------------------------------------------------------------------
# serialization


def test_save_load_roundtrip(tmp_path):
    model = Mlp(MlpConfig(input_dim=3, hidden=(5, 4), seed=13, leaky_slope=0.1))
    path = tmp_path / "model.spml"
    model.save(path)
    blob = path.read_bytes()
    assert blob[:4] == b"SPML"
    loaded = Mlp.load(path, leaky_slope=0.1)
    assert loaded.dims == model.dims
    np.testing.assert_array_equal(loaded.theta, model.theta)
    x = np.random.default_rng(2).standard_normal((20, 3))
    np.testing.assert_array_equal(loaded.forward(x), model.forward(x))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.spml"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        Mlp.load(path)
