"""Independent sPlot reference for the benchmark's checks.

Nothing here imports splotlearn.  The per-species mass densities come from
the truncated forms in ``scipy.stats``; the inverse covariance Vinv, the
covariance V and the per-event weights are assembled from them directly
(Pivk & Le Diberder, arXiv:physics/0402083):

    Vinv[n, j] = sum_e p_n(m_e) p_j(m_e) / D_e^2,   D_e = sum_k N_k p_k(m_e)
    w[e, n]    = sum_j V[n, j] p_j(m_e) / D_e
"""

from __future__ import annotations

import numpy as np
from scipy import stats
from scipy.special import ndtr

SUPPORT = (0.0, 8.0)
SIGNAL = {"kind": "gaussian", "mu": 4.0, "sigma": 1.0}
BACKGROUND = {"kind": "exponential", "rate": 0.4}

# Class-mean offsets of the synthetic feature model, one per feature: signal
# sits at +shift/2 and background at -shift/2 in unit-variance gaussians.
# Features past the fourth carry no shift.
FEATURE_SHIFTS = (0.8, 0.6, 0.4, 0.2, 0.0)

# Standard errors of an AUC estimate allowed above the Bayes AUC.
AUC_SLACK_Z = 5.0


def frozen_shape(spec: dict):
    """The ``scipy.stats`` frozen distribution for one mixture-config shape on ``SUPPORT``."""
    lo, hi = SUPPORT
    if spec["kind"] == "gaussian":
        mu, sigma = spec["mu"], spec["sigma"]
        return stats.truncnorm((lo - mu) / sigma, (hi - mu) / sigma, loc=mu, scale=sigma)
    if spec["kind"] == "exponential":
        rate = spec["rate"]
        return stats.truncexpon(rate * (hi - lo), loc=lo, scale=1.0 / rate)
    raise ValueError(f"unknown shape kind {spec['kind']!r}")


def species_pdfs(m) -> np.ndarray:
    """Matrix ``p[e, k]`` of signal and background densities at each mass."""
    m = np.asarray(m, dtype=float)
    return np.column_stack([frozen_shape(s).pdf(m) for s in (SIGNAL, BACKGROUND)])


def sweights(p: np.ndarray, yields):
    """Weights, V and Vinv for density matrix ``p`` and species ``yields``."""
    a = p / (p @ np.asarray(yields, dtype=float))[:, None]
    vinv = a.T @ a
    v = np.linalg.inv(vinv)
    return a @ v, v, vinv


def likelihood_gradient(p: np.ndarray, yields) -> np.ndarray:
    """d/dN_k of the extended log-likelihood's data term, ``sum_e p_k / D_e``.

    At a maximum under a fixed total equal to the event count every
    component equals 1 (the Lagrange multiplier is n / total).
    """
    return (p / (p @ np.asarray(yields, dtype=float))[:, None]).sum(axis=0)


def bayes_auc() -> float:
    """AUC of the true class posterior for unit-variance gaussian classes."""
    return float(ndtr(np.linalg.norm(FEATURE_SHIFTS) / np.sqrt(2.0)))


def auc_slack(auc: float, n_pos: float, n_neg: float) -> float:
    """``AUC_SLACK_Z`` standard errors of an AUC estimate (Hanley & McNeil, 1982)."""
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    var = (auc * (1 - auc) + (n_pos - 1) * (q1 - auc * auc) + (n_neg - 1) * (q2 - auc * auc)) / (n_pos * n_neg)
    return AUC_SLACK_Z * float(np.sqrt(var))


def draw_events(n: int, signal_fraction: float, rng: np.random.Generator):
    """Labelled events from the synthetic model, drawn with ``scipy.stats``.

    Returns ``(mass, label, features)``; the features are independent of the
    mass within each class.
    """
    y = (rng.random(n) < signal_fraction).astype(np.int64)
    sig = y == 1
    m = np.empty(n)
    m[sig] = frozen_shape(SIGNAL).rvs(int(sig.sum()), random_state=rng)
    m[~sig] = frozen_shape(BACKGROUND).rvs(int((~sig).sum()), random_state=rng)
    half = 0.5 * np.asarray(FEATURE_SHIFTS)
    x = rng.standard_normal((n, len(FEATURE_SHIFTS))) + np.where(sig[:, None], half, -half)
    return m, y, x
