"""The binned check of acceptance criterion 3: the mean signal sWeight tracks the label posterior.

A test helper, not part of the package: it needs true labels, which only
synthetic events carry.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class ConditionalCheck:
    """Binned comparison of mean signal weight against the labeled signal fraction."""

    bin_edges: np.ndarray
    counts: np.ndarray
    mean_sweight: np.ndarray
    label_fraction: np.ndarray
    z_scores: np.ndarray
    skipped_bins: np.ndarray


def conditional_sweight_check(ds, table, n_bins: int, feature: int = 0) -> ConditionalCheck:
    """Check that the binned mean signal weight tracks the binned label posterior.

    Bins a 1-D control feature, and in each occupied bin compares the mean
    signal sWeight with the fraction of true signal labels; the z-score uses
    the binomial variance of the label fraction.  Empty bins are skipped and
    reported.
    """
    if ds.y is None:
        raise ValueError("conditional check needs true labels")
    x = np.asarray(ds.X[:, feature], dtype=float)
    w = table.weights[:, 0]
    if len(x) != len(w):
        raise ValueError("dataset and weight table have different event counts")

    edges = np.linspace(x.min(), x.max(), n_bins + 1)
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)

    counts = np.zeros(n_bins, dtype=int)
    mean_w = np.full(n_bins, np.nan)
    frac = np.full(n_bins, np.nan)
    z = np.full(n_bins, np.nan)
    for b in range(n_bins):
        mask = idx == b
        nb = int(mask.sum())
        counts[b] = nb
        if nb == 0:
            continue
        mean_w[b] = w[mask].mean()
        frac[b] = ds.y[mask].mean()
        var = frac[b] * (1.0 - frac[b]) / nb
        z[b] = (mean_w[b] - frac[b]) / np.sqrt(max(var, 0.25 / nb**2))
    skipped = np.flatnonzero(counts == 0)
    return ConditionalCheck(edges, counts, mean_w, frac, z, skipped)
