"""Checks on the outputs of one CLI command.

Every check tests a property of the method or compares against the
independent reference in ``reference.py``; none compares against a stored
copy of earlier output.  Each returns a list of failure messages, empty when
the output passed, so the runner can count failed operations.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference

# The EM fit stops when the largest yield step falls below 1e-10 of the
# total; the identities that rest on stationarity hold to a few 1e-10.
ROW_SUM_ATOL = 1e-7
STATIONARITY_ATOL = 1e-7
# Identities that hold to rounding whatever the fit tolerance.
COLUMN_SUM_RTOL = 1e-9
REFERENCE_RTOL = 1e-9


def read_sweights(path: Path) -> np.ndarray:
    """The weight columns of ``sweights.csv``; the index column must count from 0."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(table[:, 0], np.arange(table.shape[0])):
        raise ValueError(f"{path.name}: event_index is not 0..n-1")
    return table[:, 1:]


def read_json(path: Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def sweight_identities(weights: np.ndarray, yields) -> list[str]:
    """Each event's weights sum to 1; each species column sums to its fitted yield."""
    errors = []
    yields = np.asarray(yields, dtype=float)
    if weights.shape[1] != yields.size:
        return [f"{weights.shape[1]} weight columns for {yields.size} yields"]
    row_dev = np.abs(weights.sum(axis=1) - 1.0)
    if not np.all(row_dev <= ROW_SUM_ATOL):
        e = int(np.argmax(row_dev))
        errors.append(f"event {e}: weights sum to 1 + {weights[e].sum() - 1.0:.3e}")
    col_dev = np.abs(weights.sum(axis=0) - yields) / yields
    if not np.all(col_dev <= COLUMN_SUM_RTOL):
        errors.append(f"column sums {weights.sum(axis=0).tolist()} differ from fitted yields {yields.tolist()}")
    return errors


def reference_agreement(masses, weights: np.ndarray, yields) -> list[str]:
    """Weights, the covariance identity and the yield fit against ``reference``."""
    errors = []
    p = reference.species_pdfs(masses)
    ref_w, ref_v, _ = reference.sweights(p, yields)
    if weights.shape != ref_w.shape:
        return [f"weight table has shape {weights.shape}, reference {ref_w.shape}"]
    dev = np.max(np.abs(weights - ref_w)) / np.max(np.abs(ref_w))
    if not dev <= REFERENCE_RTOL:
        errors.append(f"weights differ from the reference by {dev:.3e} relative")
    cov = weights.T @ weights
    dev = np.linalg.norm(cov - ref_v) / np.linalg.norm(ref_v)
    if not dev <= REFERENCE_RTOL:
        errors.append(f"sum_e w_e w_e^T differs from the reference V by {dev:.3e} relative")
    grad = reference.likelihood_gradient(p, yields)
    if not np.all(np.abs(grad - 1.0) <= STATIONARITY_ATOL):
        errors.append(f"fitted yields are not stationary: likelihood gradient {grad.tolist()} (expected 1)")
    return errors


def auc_band(n_test: float, signal_fraction: float) -> tuple[float, float]:
    """Open-closed interval (0.5, Bayes AUC + sampling slack] for a test set of ``n_test``."""
    bayes = reference.bayes_auc()
    n_pos = n_test * signal_fraction
    return 0.5, bayes + reference.auc_slack(bayes, n_pos, n_test - n_pos)


def arm_report(out_dir: Path, method: str, total_steps: int, band, arm: dict) -> list[str]:
    """One training arm: it reaches ``total_steps``, or it is the documented
    ``weighted_ce`` divergence; banded methods end with an AUC inside ``band``."""
    path = out_dir / f"report_{method}.csv"
    if not path.is_file():
        return [f"{method}: {path.name} missing"]
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    if arm.get("aborted"):
        return [] if method == "weighted_ce" else [f"{method}: aborted at step {arm.get('abort_step')}"]
    if not rows or int(rows[-1]["step"]) != total_steps:
        return [f"{method}: last recorded step {rows[-1]['step'] if rows else None}, expected {total_steps}"]
    auc = float(rows[-1]["test_auc"])
    if method in ("true_labels", "constrained_mse", "exact_likelihood"):
        lo, hi = band
        if not lo < auc <= hi:
            return [f"{method}: final test AUC {auc} outside ({lo}, {hi:.4f}]"]
    elif not math.isfinite(auc):
        return [f"{method}: final test AUC {auc} is not finite"]
    return []


def sweep_cells(out_dir: Path, sizes, methods, seeds, band):
    """Per-cell failures of a sweep and failures of its summary.

    Returns ``(cell_errors, summary_errors)``; ``cell_errors`` maps every
    expected (size, method, seed) cell to its failure messages.
    """
    expected = [(s, m, k) for s in sizes for m in methods for k in seeds]
    cell_errors = {c: [] for c in expected}
    summary_errors = []
    with open(out_dir / "sweep.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    found = {}
    for row in rows:
        key = (int(row["train_size"]), row["method"], int(row["seed"]))
        if key in found:
            summary_errors.append(f"cell {key} listed twice")
        found[key] = row["test_auc"]
    for key in found:
        if key not in cell_errors:
            summary_errors.append(f"unexpected cell {key}")
    lo, hi = band
    for key in expected:
        if key not in found:
            cell_errors[key].append(f"cell {key} missing")
            continue
        auc = float(found[key]) if found[key] != "diverged" else math.nan
        if not lo < auc <= hi:
            cell_errors[key].append(f"cell {key}: AUC {found[key]} outside ({lo}, {hi:.4f}]")

    with open(out_dir / "sweep_summary.csv", encoding="utf-8", newline="") as f:
        summary = list(csv.DictReader(f))
    if len(summary) != len(sizes) * len(methods):
        summary_errors.append(f"{len(summary)} summary rows, expected {len(sizes) * len(methods)}")
    for row in summary:
        size, method = int(row["train_size"]), row["method"]
        aucs = [float(a) for (s, m, _), a in found.items() if s == size and m == method and a != "diverged"]
        mean = float(row["mean_auc"])
        if not aucs or not math.isclose(mean, float(np.mean(aucs)), rel_tol=1e-12):
            summary_errors.append(f"summary mean for ({size}, {method}) is {mean}, rows give {aucs}")
    return cell_errors, summary_errors
