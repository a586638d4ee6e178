"""Small fully-connected network with manual backprop and an Adam optimizer.

Parameters live in one flat float64 vector with per-layer views, so the
optimizer state and the serialization format are trivial.  Training is
single-threaded and bit-deterministic for a fixed (seed, data, config).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import cwola_label
from .evaluation import roc_auc
from .losses import (
    LossInputError, _exact_likelihood, _plain_ce, check_densities, check_labels, constrained_mse, weighted_ce,
)

MAGIC = b"SPML"
FORMAT_VERSION = 1

# Rows per block of Mlp.forward; the last block also takes the remainder.
FORWARD_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class MlpConfig:
    """Network shape and initialization seed.

    ``hidden`` follows the small-data default of three shrinking layers;
    ``l2_coefficient`` is applied by the trainer to the whole parameter
    vector.
    """

    input_dim: int
    hidden: tuple[int, ...] = (64, 32, 16)
    leaky_slope: float = 0.05
    seed: int = 0
    l2_coefficient: float = 0.0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if len(self.hidden) == 0:
            raise ValueError("hidden layer list must be non-empty")
        if any(int(h) < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError(f"leaky_slope must lie in (0, 1), got {self.leaky_slope}")
        if self.l2_coefficient < 0.0:
            raise ValueError(f"l2_coefficient must be >= 0, got {self.l2_coefficient}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 128
    total_steps: int = 20_000

    def __post_init__(self):
        # learning_rate 0 is allowed: a frozen optimizer is a useful no-op check
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")


@dataclass
class TrainReport:
    """Metric trace at each evaluation step, plus divergence bookkeeping."""

    method: str
    steps: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    train_loss: np.ndarray = field(default_factory=lambda: np.array([]))
    test_loss: np.ndarray = field(default_factory=lambda: np.array([]))
    test_auc: np.ndarray = field(default_factory=lambda: np.array([]))
    wall_time: np.ndarray = field(default_factory=lambda: np.array([]))
    aborted: bool = False
    abort_step: int | None = None
    abort_reason: str | None = None

    def to_csv(self, path) -> None:
        """Per-evaluation rows; wall-clock is kept out so identical runs write identical bytes."""
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("step,train_loss,test_loss,test_auc\n")
            for i in range(len(self.steps)):
                f.write(
                    f"{int(self.steps[i])},{format(self.train_loss[i], '.17g')},"
                    f"{format(self.test_loss[i], '.17g')},{format(self.test_auc[i], '.17g')}\n"
                )


class Mlp:
    """Leaky-ReLU MLP with a single linear logit output."""

    def __init__(self, cfg: MlpConfig):
        self.cfg = cfg
        self.dims = (cfg.input_dim, *cfg.hidden, 1)
        self._shapes = list(zip(self.dims[:-1], self.dims[1:]))
        self.n_params = sum(fi * fo + fo for fi, fo in self._shapes)
        self.theta = np.zeros(self.n_params)
        self._weights, self._biases = self._views(self.theta)
        self._init_params()

    def _views(self, flat: np.ndarray):
        weights, biases = [], []
        offset = 0
        for fi, fo in self._shapes:
            weights.append(flat[offset : offset + fi * fo].reshape(fi, fo))
            offset += fi * fo
            biases.append(flat[offset : offset + fo])
            offset += fo
        return weights, biases

    def _init_params(self):
        # fan-in-scaled uniform; biases start at zero
        rng = np.random.default_rng(self.cfg.seed)
        for w, b in zip(self._weights, self._biases):
            limit = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-limit, limit, size=w.shape)
            b[...] = 0.0

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.cfg.input_dim:
            raise ValueError(f"expected inputs of shape (n, {self.cfg.input_dim}), got {x.shape}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits of every row of ``x``, with the bits of ``_forward_cached``'s ``z``.

        Rows go through in blocks of ``FORWARD_BLOCK_ROWS`` to ``2 * FORWARD_BLOCK_ROWS - 1``
        rows (fewer only when ``x`` has fewer), in place on two scratch buffers,
        keeping no activations.  The remainder joins the last block because a
        very short block can take another BLAS kernel with other rounding.
        Bit-equality with the unblocked forward was checked with OpenBLAS on
        nets with fan-ins up to 256; with a fan-in of 300 a logit moved by a
        few 1e-16.
        """
        x = self._check_input(x)
        n = x.shape[0]
        slope = self.cfg.leaky_slope
        starts = [i * FORWARD_BLOCK_ROWS for i in range(max(n // FORWARD_BLOCK_ROWS, 1))]
        ends = starts[1:] + [n]
        size = (ends[-1] - starts[-1]) * max(self.dims[1:-1])
        pre_buf, act_buf = np.empty(size), np.empty(size)
        z = np.empty(n)
        for s, e in zip(starts, ends):
            h = x[s:e]
            for w, b in zip(self._weights[:-1], self._biases[:-1]):
                pre = pre_buf[: (e - s) * w.shape[1]].reshape(e - s, w.shape[1])
                np.matmul(h, w, out=pre)
                pre += b
                h = act_buf[: pre.size].reshape(pre.shape)
                np.multiply(pre, slope, out=h)
                np.maximum(pre, h, out=h)  # leaky ReLU, as in _forward_cached
            out = z[s:e].reshape(-1, 1)
            np.matmul(h, self._weights[-1], out=out)
            out += self._biases[-1]
        return z

    def _forward_cached(self, x: np.ndarray):
        x = self._check_input(x)
        slope = self.cfg.leaky_slope
        activations = [x]
        pre_acts = []
        h = x
        for w, b in zip(self._weights[:-1], self._biases[:-1]):
            pre = h @ w + b
            pre_acts.append(pre)
            h = np.maximum(pre, slope * pre)  # leaky ReLU, exact for 0 < slope < 1
            activations.append(h)
        z = (h @ self._weights[-1] + self._biases[-1]).ravel()
        return z, (activations, pre_acts)

    def backward(self, cache, dz: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gradient of ``sum_i dz_i * z_i`` w.r.t. the flat parameter vector.

        ``out`` may supply a reusable flat buffer; every entry is overwritten.
        """
        activations, pre_acts = cache
        slope = self.cfg.leaky_slope
        grad = np.empty(self.n_params) if out is None else out
        gw, gb = self._views(grad)

        d = dz[:, None]
        gw[-1][...] = activations[-1].T @ d
        gb[-1][...] = d.sum(axis=0)
        da = d @ self._weights[-1].T
        for layer in range(len(self._shapes) - 2, -1, -1):
            # max(pre > 0, slope) is exactly 1.0 or slope, and faster than np.where
            dpre = da * np.maximum(pre_acts[layer] > 0.0, slope)
            np.matmul(activations[layer].T, dpre, out=gw[layer])
            np.sum(dpre, axis=0, out=gb[layer])
            if layer > 0:
                da = dpre @ self._weights[layer].T
        return grad

    def save(self, path) -> None:
        """Binary dump: magic, version, layer dims, then the flat parameters (little-endian)."""
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(np.uint32(FORMAT_VERSION).astype("<u4").tobytes())
            f.write(np.uint32(len(self.dims)).astype("<u4").tobytes())
            f.write(np.asarray(self.dims, dtype="<u4").tobytes())
            f.write(self.theta.astype("<f8").tobytes())

    @classmethod
    def load(cls, path, leaky_slope: float = 0.05, l2_coefficient: float = 0.0, seed: int = 0) -> "Mlp":
        with open(path, "rb") as f:
            blob = f.read()
        if blob[:4] != MAGIC:
            raise ValueError(f"not a model file: bad magic {blob[:4]!r}")
        version = int(np.frombuffer(blob, dtype="<u4", count=1, offset=4)[0])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        n_dims = int(np.frombuffer(blob, dtype="<u4", count=1, offset=8)[0])
        dims = np.frombuffer(blob, dtype="<u4", count=n_dims, offset=12).astype(int)
        cfg = MlpConfig(
            input_dim=int(dims[0]),
            hidden=tuple(int(d) for d in dims[1:-1]),
            leaky_slope=leaky_slope,
            seed=seed,
            l2_coefficient=l2_coefficient,
        )
        model = cls(cfg)
        theta = np.frombuffer(blob, dtype="<f8", offset=12 + 4 * n_dims)
        if theta.shape[0] != model.n_params:
            raise ValueError(f"parameter count mismatch: file has {theta.shape[0]}, dims imply {model.n_params}")
        model.theta[...] = theta
        return model


class Adam:
    """Adam with bias correction, acting in place on a flat parameter vector."""

    def __init__(self, cfg: AdamConfig, n_params: int):
        self.cfg = cfg
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0
        self._update = np.empty(n_params)
        self._denom = np.empty(n_params)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        # in place, in the operation order of theta -= lr * m_hat / (sqrt(v_hat) + eps)
        c, update, denom = self.cfg, self._update, self._denom
        self.t += 1
        self.m *= c.beta1
        self.m += np.multiply(grad, 1.0 - c.beta1, out=update)
        self.v *= c.beta2
        self.v += np.multiply(np.multiply(grad, 1.0 - c.beta2, out=update), grad, out=update)
        np.sqrt(np.divide(self.v, 1.0 - c.beta2**self.t, out=denom), out=denom)
        denom += c.epsilon
        update = np.divide(self.m, 1.0 - c.beta1**self.t, out=update)
        update *= c.learning_rate
        theta -= np.divide(update, denom, out=update)


# The loss of each method's training arm, in the methods' canonical order;
# ``cwola`` trains plain cross-entropy on mass-window region labels.
# ``_loss_columns`` checks each column once, so the losses with preconditions
# are called without re-checking every batch.
_LOSS_FNS = {
    "true_labels": _plain_ce,
    "constrained_mse": constrained_mse,
    "exact_likelihood": _exact_likelihood,
    "weighted_ce": weighted_ce,
    "cwola": _plain_ce,
}
METHODS = tuple(_LOSS_FNS)


def _loss_columns(method: str, ds) -> tuple[np.ndarray, ...]:
    """Pull the auxiliary columns ``method``'s loss consumes out of a dataset, checked against its preconditions."""
    required = {"constrained_mse": ["sweights"], "weighted_ce": ["sweights"], "exact_likelihood": ["ps", "pb"]}
    missing = [c for c in required.get(method, ["y"]) if getattr(ds, c, None) is None]
    if missing:
        raise LossInputError(f"{method} requires dataset columns {missing}")
    if method == "constrained_mse":
        return (ds.sweights[:, 0],)
    if method == "weighted_ce":
        return (ds.sweights[:, 0], ds.sweights[:, 1])
    if method == "exact_likelihood":
        check_densities(ds.ps, ds.pb)
        return (ds.ps, ds.pb)
    y = np.asarray(ds.y, dtype=float)
    check_labels(y)
    return (y,)


def train(
    method: str, model: Mlp, train_ds, test_ds, opt: AdamConfig, *, eval_every: int, cwola_center: float,
    cwola_fraction: float,
) -> TrainReport:
    """Train one method's arm with seeded mini-batch Adam and record the metric trace.

    ``method`` is one of ``METHODS``.  For ``cwola`` both splits are
    relabelled by the mass window around ``cwola_center`` that holds
    ``cwola_fraction`` of the train events.  Test AUC is scored against the
    true labels of ``test_ds`` and is NaN without them; the test loss is NaN
    when ``test_ds`` lacks the method's columns.

    Features are standardized with the train-split statistics.  Batches come
    from a seeded shuffle each epoch (the shuffle stream derives from the
    model seed, so runs sharing a seed also share the batch sequence).  The
    recorded train/test losses are per-event means plus the L2 term when
    ``model.cfg.l2_coefficient > 0``.

    On a non-finite loss or gradient the run stops, and the returned report
    is marked ``aborted`` with the step and the reason, keeping the trace
    collected so far as a divergence record.
    """
    if eval_every < 1:
        raise ValueError(f"eval_every must be >= 1, got {eval_every}")
    loss_fn = _LOSS_FNS[method]
    auc_labels = test_ds.y
    if method == "cwola":
        labeling = cwola_label(train_ds, cwola_center, cwola_fraction)
        train_ds = train_ds.with_columns(y=labeling.labels)
        test_ds = test_ds.with_columns(y=labeling.apply(test_ds.m))
    cols = _loss_columns(method, train_ds)
    try:
        test_cols = _loss_columns(method, test_ds)
    except LossInputError:
        test_cols = None

    mean = train_ds.X.mean(axis=0)
    std = train_ds.X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    x_train = (train_ds.X - mean) / std
    x_test = (test_ds.X - mean) / std

    n = x_train.shape[0]
    l2 = model.cfg.l2_coefficient
    rng = np.random.default_rng([model.cfg.seed, 0x5EED])
    adam = Adam(opt, model.n_params)
    trace = []  # (step, train loss, test loss, test AUC, wall time) per evaluation
    t0 = time.perf_counter()

    def record(step: int) -> None:
        z = model.forward(x_train)
        tr = loss_fn(z, *cols).loss / n
        if l2 > 0:
            tr += l2 * float(model.theta @ model.theta)
        zt = model.forward(x_test)
        te = np.nan
        if test_cols is not None:
            te = loss_fn(zt, *test_cols).loss / x_test.shape[0]
            if l2 > 0:
                te += l2 * float(model.theta @ model.theta)
        auc = roc_auc(zt, auc_labels).auc if auc_labels is not None else np.nan
        trace.append((step, tr, te, auc, time.perf_counter() - t0))

    record(0)
    abort_step = abort_reason = None
    order = np.array([], dtype=int)
    cursor = 0
    grad_buffer = np.empty(model.n_params)
    # a diverging arm overflows; the finiteness checks below record where and why
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, opt.total_steps + 1):
            if cursor + opt.batch_size > len(order):
                order = rng.permutation(n)
                cursor = 0
            idx = order[cursor : cursor + opt.batch_size]
            cursor += opt.batch_size

            z, cache = model._forward_cached(x_train[idx])
            le = loss_fn(z, *(c[idx] for c in cols))
            if not np.isfinite(le.loss) or not np.all(np.isfinite(le.grad)):
                abort_step, abort_reason = step, "non-finite batch loss or gradient"
                break
            grad = model.backward(cache, le.grad, out=grad_buffer)
            grad /= len(idx)
            if l2 > 0:
                grad += 2.0 * l2 * model.theta
            if not np.all(np.isfinite(grad)):
                abort_step, abort_reason = step, "non-finite parameter gradient"
                break
            adam.step(model.theta, grad)

            if step % eval_every == 0 or step == opt.total_steps:
                record(step)

    steps, train_loss, test_loss, test_auc, wall_time = (np.asarray(col) for col in zip(*trace))
    return TrainReport(
        method, steps, train_loss, test_loss, test_auc, wall_time, abort_step is not None, abort_step, abort_reason
    )
