"""Value-and-gradient objectives for training on weighted or labeled events.

All objectives consume raw model logits ``z``; the sigmoid lives inside the
loss so each can use a numerically stable log-sum form.  Per-event terms are
summed, not averaged — the trainer divides by the batch size.  Gradients are
with respect to the logits, one entry per event.

Two of the objectives are safe on weighted data with negative entries:

* ``constrained_mse`` regresses the sigmoid output directly onto the signal
  weights and is bounded below by 0 for any weights.
* ``exact_likelihood`` scores the per-event mass densities mixed by the model
  output and never touches weights at all.

``weighted_ce`` is the conventional two-entry weighted cross-entropy; with a
negative weight it has no lower bound, which is exactly the failure mode the
other two objectives avoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

# Mixed-density bracket values are clipped here before the log; keeps the
# likelihood finite when the model saturates against a zero density.
LIKELIHOOD_FLOOR = 1e-30


class LossInputError(ValueError):
    """Per-event auxiliary inputs violate a loss precondition."""


@dataclass
class LossEval:
    """Total loss value and the per-event gradient w.r.t. the raw logit."""

    loss: float
    grad: np.ndarray


def _softplus(z):
    return np.logaddexp(0.0, z)


def constrained_mse(z, w) -> LossEval:
    """Mean-square regression of the sigmoid output onto per-event weights.

    ``loss = sum_i (w_i - sigmoid(z_i))^2``.  Weights may be negative or
    exceed 1; the loss is bounded below by 0 regardless.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    s = expit(z)
    r = w - s
    grad = -2.0 * r * s * expit(-z)
    return LossEval(float(np.sum(r * r)), grad)


def exact_likelihood(z, ps, pb) -> LossEval:
    """Negative log-likelihood of the model-mixed per-event mass densities.

    ``loss = -sum_i log[sigmoid(z_i) ps_i + (1 - sigmoid(z_i)) pb_i]`` with the
    bracket floored at ``LIKELIHOOD_FLOOR``.  Any L2 regularization is the
    trainer's business, not part of the data term.
    """
    ps = np.asarray(ps, dtype=float)
    pb = np.asarray(pb, dtype=float)
    check_densities(ps, pb)
    return _exact_likelihood(np.asarray(z, dtype=float), ps, pb)


def check_densities(ps: np.ndarray, pb: np.ndarray) -> None:
    """``exact_likelihood``'s precondition: non-negative densities, positive under some species."""
    if np.any(ps < 0) or np.any(pb < 0):
        raise LossInputError("exact_likelihood: density columns must be non-negative")
    dead = np.flatnonzero((ps <= 0) & (pb <= 0))
    if dead.size:
        raise LossInputError(
            f"exact_likelihood: events with zero density under both species: indices {dead.tolist()[:20]}"
        )


def _exact_likelihood(z: np.ndarray, ps: np.ndarray, pb: np.ndarray) -> LossEval:
    """``exact_likelihood`` on float arrays that ``check_densities`` accepted."""
    s = expit(z)
    s_comp = expit(-z)  # 1 - sigmoid(z) without cancellation
    bracket = np.maximum(s * ps + s_comp * pb, LIKELIHOOD_FLOOR)
    grad = -(ps - pb) * s * s_comp / bracket
    return LossEval(float(-np.sum(np.log(bracket))), grad)


def weighted_ce(z, ws, wb) -> LossEval:
    """Two-entry cross-entropy: each event counted as signal with ``ws`` and background with ``wb``.

    ``loss = sum_i [-ws_i log sigmoid(z_i) - wb_i log(1 - sigmoid(z_i))]``,
    evaluated through softplus.  A negative weight removes the lower bound;
    that unboundedness is documented behavior, not an error.
    """
    z = np.asarray(z, dtype=float)
    ws = np.asarray(ws, dtype=float)
    wb = np.asarray(wb, dtype=float)
    loss = float(np.sum(ws * _softplus(-z) + wb * _softplus(z)))
    grad = (ws + wb) * expit(z) - ws
    return LossEval(loss, grad)


def plain_ce(z, y) -> LossEval:
    """Standard binary cross-entropy against labels in {0, 1}."""
    y = np.asarray(y, dtype=float)
    check_labels(y)
    return _plain_ce(np.asarray(z, dtype=float), y)


def check_labels(y: np.ndarray) -> None:
    """``plain_ce``'s precondition: every label is 0 or 1."""
    if np.any((y != 0.0) & (y != 1.0)):
        raise LossInputError("plain_ce: labels must be 0 or 1")


def _plain_ce(z: np.ndarray, y: np.ndarray) -> LossEval:
    """``plain_ce`` on float arrays that ``check_labels`` accepted."""
    loss = float(np.sum(_softplus(z) - y * z))
    grad = expit(z) - y
    return LossEval(loss, grad)
