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


B = FORWARD_BLOCK_ROWS
ROW_COUNTS = [1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 4097, 8199, 20001, 49999, 50000, 150000, 150001, 150007]


# the default net, the criterion-6 net and the widest net the forward docstring cites
@pytest.mark.parametrize("hidden, input_dim", [((64, 32, 16), 5), ((128, 64, 32), 10), ((256, 256, 8), 7)])
def test_blocked_forward_matches_the_unblocked_forward_bitwise(monkeypatch, hidden, input_dim):
    # the widest net's cached activations take 8.3 kB a row, so its row counts stop at 20 001
    row_counts = ROW_COUNTS if max(hidden) <= 128 else ROW_COUNTS[:8] + [5 * B + 3, 20001]
    model = Mlp(MlpConfig(input_dim=input_dim, hidden=hidden, seed=4))
    rows = []
    matmul = np.matmul
    rng = np.random.default_rng(8)
    for n in row_counts:
        x = rng.standard_normal((n, input_dim))
        rows.clear()
        monkeypatch.setattr(np, "matmul", lambda a, *rest, **kw: rows.append(a.shape[0]) or matmul(a, *rest, **kw))
        z = model.forward(x)
        monkeypatch.setattr(np, "matmul", matmul)
        assert z.tobytes() == model._forward_cached(x)[0].tobytes(), n
        layers = len(model.dims) - 1
        blocks = rows[::layers]
        assert rows == [r for r in blocks for _ in range(layers)]
        assert sum(blocks) == n
        assert all(min(n, B) <= r < 2 * B or r == n for r in blocks), (n, blocks)


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
# the step buffers against the allocating step they replaced


def allocating_forward_cached(self, x):
    x = self._check_input(x)
    slope = self.cfg.leaky_slope
    activations = [x]
    pre_acts = []
    h = x
    for w, b in zip(self._weights[:-1], self._biases[:-1]):
        pre = h @ w + b
        pre_acts.append(pre)
        h = np.maximum(pre, slope * pre)
        activations.append(h)
    z = (h @ self._weights[-1] + self._biases[-1]).ravel()
    return z, (activations, pre_acts)


def allocating_backward(self, cache, dz, out=None):
    activations, pre_acts = cache
    slope = self.cfg.leaky_slope
    grad = np.empty(self.n_params) if out is None else out
    gw, gb = self._views(grad)
    d = dz[:, None]
    gw[-1][...] = activations[-1].T @ d
    gb[-1][...] = d.sum(axis=0)
    da = d @ self._weights[-1].T
    for layer in range(len(self._shapes) - 2, -1, -1):
        dpre = da * np.maximum(pre_acts[layer] > 0.0, slope)
        np.matmul(activations[layer].T, dpre, out=gw[layer])
        np.sum(dpre, axis=0, out=gb[layer])
        if layer > 0:
            da = dpre @ self._weights[layer].T
    return grad


def weighted_synthetic(n, n_features, seed):
    ds = sl.generate_synthetic(n, 0.5, seed, n_features=n_features)
    return sl.attach_sweights(ds, sl.canonical_mixture(0.5 * ds.n, 0.5 * ds.n))[0]


def train_both_ways(monkeypatch, tmp_path, method, hidden, input_dim, l2, train_ds, test_ds, opt):
    """Train one arm with the step buffers, then with the allocating step: (theta bytes, report bytes, report) of each."""
    runs = []
    for step in ("buffered", "allocating"):
        if step == "allocating":
            monkeypatch.setattr(Mlp, "_forward_cached", allocating_forward_cached)
            monkeypatch.setattr(Mlp, "backward", allocating_backward)
        model = Mlp(MlpConfig(input_dim=input_dim, hidden=hidden, seed=6, l2_coefficient=l2))
        with np.errstate(over="ignore", invalid="ignore"):
            report = train(method, model, train_ds, test_ds, opt, eval_every=50, **CWOLA)
        report.to_csv(tmp_path / f"{step}.csv")
        runs.append((model.theta.tobytes(), (tmp_path / f"{step}.csv").read_bytes(), report))
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("l2", [0.0, 1e-3])
@pytest.mark.parametrize("hidden, input_dim", [((64, 32, 16), 5), ((128, 64, 32), 10)])  # default, criterion 6
@pytest.mark.parametrize("method", model_module.METHODS)
def test_the_step_buffers_train_the_bits_of_the_allocating_step(monkeypatch, tmp_path, method, hidden, input_dim, l2):
    train_ds, test_ds = weighted_synthetic(1500, input_dim, 21), weighted_synthetic(600, input_dim, 22)
    buffered, allocating = train_both_ways(
        monkeypatch, tmp_path, method, hidden, input_dim, l2, train_ds, test_ds, AdamConfig(total_steps=150)
    )
    assert buffered[:2] == allocating[:2]
    assert not buffered[2].aborted


def test_the_step_buffers_train_the_bits_of_the_allocating_step_on_a_set_smaller_than_a_batch(monkeypatch, tmp_path):
    train_ds, test_ds = weighted_synthetic(90, 5, 23), weighted_synthetic(300, 5, 24)
    buffered, allocating = train_both_ways(
        monkeypatch, tmp_path, "exact_likelihood", (64, 32, 16), 5, 1e-3, train_ds, test_ds,
        AdamConfig(batch_size=128, total_steps=120),
    )
    assert buffered[:2] == allocating[:2]


def test_the_step_buffers_abort_where_the_allocating_step_aborts(monkeypatch, tmp_path):
    train_ds, test_ds = weighted_synthetic(600, 5, 25), weighted_synthetic(300, 5, 26)
    buffered, allocating = train_both_ways(
        monkeypatch, tmp_path, "weighted_ce", (64, 32, 16), 5, 0.0, train_ds, test_ds,
        AdamConfig(learning_rate=1e200, total_steps=100),
    )
    assert buffered[:2] == allocating[:2]
    assert buffered[2].aborted and allocating[2].aborted
    assert (buffered[2].abort_step, buffered[2].abort_reason) == (allocating[2].abort_step, allocating[2].abort_reason)


def test_the_step_buffers_follow_the_row_count():
    # alternating row counts reallocate the buffers; each step keeps the allocating step's bits
    model = Mlp(MlpConfig(input_dim=5, seed=2))
    rng = np.random.default_rng(9)
    for n in (128, 37, 128, 1):
        x, dz = rng.standard_normal((n, 5)), rng.standard_normal(n)
        z, cache = model._forward_cached(x)
        z_ref, cache_ref = allocating_forward_cached(model, x)
        assert z.tobytes() == z_ref.tobytes(), n
        grad = model.backward(cache, dz, out=np.empty(model.n_params))
        assert grad.tobytes() == allocating_backward(model, cache_ref, dz).tobytes(), n


# ---------------------------------------------------------------------------
# an arm that scores only its final AUC


@pytest.mark.parametrize("method", model_module.METHODS)
def test_an_arm_without_a_curve_scores_the_final_auc_of_the_arm_with_one(method):
    train_ds, test_ds = weighted_synthetic(800, 5, 27), weighted_synthetic(400, 5, 28)
    reports, thetas = [], []
    for curve in (True, False):
        model = Mlp(MlpConfig(input_dim=5, hidden=(8, 4), seed=3))
        reports.append(train(method, model, train_ds, test_ds, AdamConfig(total_steps=130), eval_every=50,
                             curve=curve, **CWOLA))
        thetas.append(model.theta.tobytes())
    with_curve, without = reports
    assert thetas[0] == thetas[1]
    assert with_curve.steps.tolist() == [0, 50, 100, 130]
    assert without.steps.tolist() == [130]
    assert without.test_auc.tobytes() == with_curve.test_auc[-1:].tobytes()
    assert np.isnan(without.train_loss).all() and np.isnan(without.test_loss).all()


def test_an_arm_without_a_curve_or_steps_scores_the_step_0_auc():
    train_ds, test_ds = weighted_synthetic(300, 5, 29), weighted_synthetic(300, 5, 30)
    reports = [
        train("true_labels", Mlp(MlpConfig(input_dim=5, seed=1)), train_ds, test_ds, AdamConfig(total_steps=0),
              eval_every=50, curve=curve, **CWOLA)
        for curve in (True, False)
    ]
    assert reports[0].steps.tolist() == reports[1].steps.tolist() == [0]
    assert reports[1].test_auc.tobytes() == reports[0].test_auc.tobytes()


def test_an_aborted_arm_without_a_curve_keeps_no_trace(tmp_path):
    train_ds = weighted_synthetic(400, 5, 31)
    model = Mlp(MlpConfig(input_dim=5, seed=1))
    with np.errstate(over="ignore", invalid="ignore"):
        report = train("weighted_ce", model, train_ds, train_ds, AdamConfig(learning_rate=1e200, total_steps=50),
                       eval_every=10, curve=False, **CWOLA)
    assert report.aborted and report.abort_step is not None
    assert len(report.steps) == len(report.test_auc) == len(report.train_loss) == 0
    assert report.steps.dtype.kind == "i"
    report.to_csv(tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_text() == "step,train_loss,test_loss,test_auc\n"


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


def test_load_names_the_size_of_a_truncated_file(tmp_path):
    model = Mlp(MlpConfig(input_dim=3, hidden=(5, 4), seed=13))
    path = tmp_path / "model.spml"
    model.save(path)
    blob = path.read_bytes()
    # magic, version and the layer count take 12 bytes, the four layer dims 16, then the parameters
    assert len(blob) == 12 + 16 + 8 * model.n_params
    cut = tmp_path / "cut.spml"
    for size in [*range(21), len(blob) - 3]:
        cut.write_bytes(blob[:size])
        expected = 12 if size < 12 else 28 if size < 28 else len(blob)
        with pytest.raises(ValueError) as info:
            Mlp.load(cut)
        assert str(info.value) == f"truncated model file {cut}: expected {expected} bytes, got {size}"


def test_load_rejects_bytes_after_the_parameters(tmp_path):
    path = tmp_path / "model.spml"
    Mlp(MlpConfig(input_dim=3, hidden=(5, 4), seed=13)).save(path)
    blob = path.read_bytes()
    path.write_bytes(blob + b"\0" * 3)
    with pytest.raises(ValueError, match=f"too long: its dims imply {len(blob)} bytes, got {len(blob) + 3}"):
        Mlp.load(path)
