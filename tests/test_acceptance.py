"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The training-based
criteria (6-8) dominate the runtime; each asserts its own wall-clock budget.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

import splotlearn as sl
from splotlearn.cli import main as cli_main
from splotlearn.evaluation import roc_auc, size_sweep
from splotlearn.losses import constrained_mse, exact_likelihood, plain_ce, weighted_ce
from splotlearn.model import AdamConfig, Mlp, MlpConfig
from splotlearn.splot import compute_sweights

from conditional_check import conditional_sweight_check

N_EVENTS = 100_000
SIGNAL_FRACTION = 0.5


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} [{name}]: FAIL ({time.perf_counter() - start:.1f} s)")
        raise
    print(f"\nACCEPTANCE {number:2d} [{name}]: PASS ({time.perf_counter() - start:.1f} s)")


@pytest.fixture(scope="module")
def canonical_events():
    ds = sl.generate_synthetic(N_EVENTS, SIGNAL_FRACTION, seed=101)
    mm = sl.canonical_mixture(SIGNAL_FRACTION * ds.n, (1 - SIGNAL_FRACTION) * ds.n)
    table = compute_sweights(ds.m, mm)
    return ds, mm, table


def naive_vinv_and_weights(masses, components, yields, v):
    """Straightforward per-event loops re-deriving both matrix and weights.

    The inverse ``v`` is shared with the checked path (its correctness is
    asserted separately via the inverse identity); everything else is
    recomputed element by element.
    """
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
    weights = np.zeros((len(masses), k))
    for e in range(len(masses)):
        denom = sum(yields[j] * p[e, j] for j in range(k))
        if denom < 1e-300:
            continue
        for a in range(k):
            weights[e, a] = sum(v[a, j] * p[e, j] for j in range(k)) / denom
    return vinv, weights


def test_criterion_1_sweight_identity_suite(canonical_events):
    with criterion(1, "sWeight identities at 1e5 events"):
        start = time.perf_counter()
        ds, mm, table = canonical_events
        assert np.max(np.abs(table.weights.sum(axis=1) - 1.0)) < 1e-6
        rel = np.abs(table.weights.sum(axis=0) - table.yields) / table.yields
        assert np.max(rel) < 1e-4
        np.testing.assert_allclose(table.vinv @ table.v, np.eye(2), atol=1e-9)
        vinv_naive, weights_naive = naive_vinv_and_weights(ds.m, mm.components, table.yields, table.v)
        np.testing.assert_allclose(table.vinv, vinv_naive, rtol=1e-12)
        np.testing.assert_allclose(table.weights, weights_naive, rtol=1e-12, atol=1e-300)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_distribution_reconstruction():
    with criterion(2, "sWeighted histogram reconstructs the pure-signal shape"):
        passes = 0
        for seed in range(10):
            ds = sl.generate_synthetic(N_EVENTS, SIGNAL_FRACTION, seed=200 + seed)
            mm = sl.canonical_mixture(SIGNAL_FRACTION * ds.n, (1 - SIGNAL_FRACTION) * ds.n)
            table = compute_sweights(ds.m, mm)
            x = ds.X[:, 0]
            w = table.weights[:, 0]
            d = w - ds.y  # zero-mean per event if the weights are unbiased
            edges = np.linspace(x.min(), x.max(), 31)
            idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, 29)
            stat = 0.0
            dof = 0
            for b in range(30):
                mask = idx == b
                if not np.any(mask):
                    continue
                var = np.sum(d[mask] ** 2)
                if var == 0.0:
                    continue
                stat += d[mask].sum() ** 2 / var
                dof += 1
            p_value = chi2.sf(stat, dof)
            passes += p_value > 0.001
        assert passes >= 9, f"only {passes}/10 seeds passed"


def test_criterion_3_conditional_expectation(canonical_events):
    with criterion(3, "binned mean sWeight tracks the label posterior"):
        ds, _, table = canonical_events
        check = conditional_sweight_check(ds, table, n_bins=20)
        occupied = check.counts > 0
        z = check.z_scores[occupied]
        assert np.sum(np.abs(z) < 4.0) >= len(z) - 1, f"z-scores: {np.sort(np.abs(z))[-3:]}"


def _fd_loss_cases(rng, n):
    y = rng.integers(0, 2, n)
    w = rng.uniform(-5, 5, n)
    ws = rng.uniform(-2, 2, n)
    wb = rng.uniform(-2, 2, n)
    ps = rng.uniform(0.05, 2, n)
    pb = rng.uniform(0.05, 2, n)
    return [
        ("plain_ce", lambda zz, s: plain_ce(zz, y[s])),
        ("constrained_mse", lambda zz, s: constrained_mse(zz, w[s])),
        ("weighted_ce", lambda zz, s: weighted_ce(zz, ws[s], wb[s])),
        ("exact_likelihood", lambda zz, s: exact_likelihood(zz, ps[s], pb[s])),
    ]


def test_criterion_4_gradient_suite():
    with criterion(4, "analytic gradients match central finite differences"):
        start = time.perf_counter()
        rng = np.random.default_rng(400)
        h = 1e-6
        n = 1000
        z = rng.uniform(-10, 10, n)
        for name, fn in _fd_loss_cases(rng, n):
            analytic = fn(z, slice(None)).grad
            fd = np.empty(n)
            for i in range(n):
                s = slice(i, i + 1)
                fd[i] = (fn(z[s] + h, s).loss - fn(z[s] - h, s).loss) / (2 * h)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8, err_msg=name)

        # full-network backprop: 1000 random cases across the four losses
        cases_per_loss = 250
        for case in range(cases_per_loss):
            case_rng = np.random.default_rng(4000 + case)
            x = case_rng.standard_normal((6, 2))
            model = Mlp(MlpConfig(input_dim=2, hidden=(3,), seed=case))
            for name, fn in _fd_loss_cases(case_rng, 6):
                zc, cache = model._forward_cached(x)
                analytic = model.backward(cache, fn(zc, slice(None)).grad)
                fd = np.empty(model.n_params)
                for j in range(model.n_params):
                    orig = model.theta[j]
                    model.theta[j] = orig + h
                    up = fn(model.forward(x), slice(None)).loss
                    model.theta[j] = orig - h
                    down = fn(model.forward(x), slice(None)).loss
                    model.theta[j] = orig
                    fd[j] = (up - down) / (2 * h)
                np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8, err_msg=f"{name} case {case}")
        assert time.perf_counter() - start < 30.0


def test_criterion_5_reduction_identity():
    with criterion(5, "likelihood loss with indicator densities equals plain CE"):
        rng = np.random.default_rng(500)
        z = rng.uniform(-30, 30, 1000)
        y = rng.integers(0, 2, 1000)
        for i in range(len(z)):
            s = slice(i, i + 1)
            a = exact_likelihood(z[s], y[s].astype(float), (1 - y[s]).astype(float))
            b = plain_ce(z[s], y[s])
            assert abs(a.loss - b.loss) <= 1e-12 * max(1.0, abs(b.loss)), (i, z[i], y[i])


# ---------------------------------------------------------------------------
# training-based criteria

# Divergence demo regime: widely separated classes plus uninformative
# fingerprint features.  The unbounded objective keeps carving per-event
# spikes long after the bounded arms have converged; the small weight decay
# (the remedy the small-sample setup calls for anyway) pins the bounded arms
# without restoring a lower bound.
DEMO_N_FEATURES = 10
DEMO_FEATURE_SCALE = 2.5
DEMO_HIDDEN = (128, 64, 32)
DEMO_L2 = 3e-4
DEMO_STEPS = 60_000
DEMO_EVAL_EVERY = 2000

BENCH_HIDDEN = (64, 32, 16)
BENCH_STEPS = 20_000
BENCH_EVAL_EVERY = 4000

def attach(ds):
    mm = sl.canonical_mixture(ds.n / 2, ds.n / 2)
    out, _ = sl.attach_sweights(ds, mm)
    return out


def train_arm(method, train_ds, test_ds, *, hidden, steps, eval_every, seed, n_features, l2=0.0):
    model = Mlp(MlpConfig(input_dim=n_features, hidden=hidden, seed=seed, l2_coefficient=l2))
    return sl.train(
        method, model, train_ds, test_ds, AdamConfig(total_steps=steps),
        eval_every=eval_every, cwola_center=4.0, cwola_fraction=0.5,
    )


def test_criterion_6_divergence_reproduction():
    with criterion(6, "weighted CE diverges, bounded losses stay stable"):
        start = time.perf_counter()
        full = sl.generate_synthetic(
            150_000, SIGNAL_FRACTION, seed=11, n_features=DEMO_N_FEATURES, feature_scale=DEMO_FEATURE_SCALE
        )
        train_raw, test_raw = sl.split(full, 2 / 3, seed=11)
        assert train_raw.n == 50_000
        tr = attach(train_raw)
        te = attach(test_raw)

        reports = {}
        for method in ["weighted_ce", "constrained_mse", "exact_likelihood", "true_labels"]:
            reports[method] = train_arm(
                method, tr, te,
                hidden=DEMO_HIDDEN, steps=DEMO_STEPS, eval_every=DEMO_EVAL_EVERY,
                seed=3, n_features=DEMO_N_FEATURES, l2=DEMO_L2,
            )

        div = reports["weighted_ce"]
        assert np.min(div.train_loss) < 0.0, f"weighted CE train loss stayed at {np.min(div.train_loss):.4f}"
        div_peak = np.nanmax(div.test_auc)
        assert div_peak - div.test_auc[-1] >= 0.02, (
            f"weighted CE AUC fell only {div_peak - div.test_auc[-1]:.4f} below its peak"
        )

        for method in ["constrained_mse", "exact_likelihood", "true_labels"]:
            rep = reports[method]
            peak = np.nanmax(rep.test_auc)
            tail = rep.test_auc[rep.steps >= 0.75 * DEMO_STEPS]
            band = np.max(peak - tail)
            assert band <= 0.005, f"{method} wandered {band:.4f} below its peak in the final quarter"

        assert time.perf_counter() - start < 15 * 60


@pytest.fixture(scope="module")
def ordering_runs():
    """Criterion 7 runs; final AUC per (method, seed) at 5e4 train events."""
    results = {m: [] for m in ["true_labels", "constrained_mse", "exact_likelihood", "cwola"]}
    for seed in range(5):
        full = sl.generate_synthetic(100_000, SIGNAL_FRACTION, seed=700 + seed)
        train_raw, test_raw = sl.split(full, 0.5, seed=seed)
        tr = attach(train_raw)
        te = attach(test_raw)
        for method in results:
            rep = train_arm(
                method, tr, te,
                hidden=BENCH_HIDDEN, steps=BENCH_STEPS, eval_every=BENCH_EVAL_EVERY,
                seed=seed, n_features=5,
            )
            results[method].append(rep.test_auc[-1])
    return {m: np.asarray(v) for m, v in results.items()}


def test_criterion_7_method_ordering(ordering_runs):
    with criterion(7, "true labels >= constrained MSE ~= likelihood > CWoLa"):
        start = time.perf_counter()
        mean = {m: float(np.mean(v)) for m, v in ordering_runs.items()}
        print(f"\n  mean final AUC over 5 seeds: {json.dumps(mean, indent=None)}")
        assert mean["true_labels"] >= mean["constrained_mse"]
        assert abs(mean["constrained_mse"] - mean["exact_likelihood"]) < 0.01
        assert mean["constrained_mse"] > mean["cwola"]
        assert mean["exact_likelihood"] > mean["cwola"]
        assert time.perf_counter() - start < 3600


def test_criterion_8_size_sweep_trend(tmp_path):
    with criterion(8, "true-labels vs constrained-MSE gap shrinks with size"):
        seeds = [0, 1, 2]
        sizes = [1_000, 10_000, 100_000]
        test_sets = {}
        for seed in seeds:
            test_sets[seed] = attach(sl.generate_synthetic(50_000, SIGNAL_FRACTION, seed=800 + seed))

        def cell(size, method, seed):
            train_raw = sl.generate_synthetic(size, SIGNAL_FRACTION, seed=900 + 10 * seed + sizes.index(size))
            tr = attach(train_raw)
            rep = train_arm(
                method, tr, test_sets[seed],
                hidden=BENCH_HIDDEN, steps=BENCH_STEPS, eval_every=BENCH_EVAL_EVERY,
                seed=seed, n_features=5,
            )
            return None if rep.aborted else float(rep.test_auc[-1])

        result = size_sweep(
            sizes, ["true_labels", "constrained_mse"], seeds, cell,
            out_csv=tmp_path / "sweep.csv", out_summary_csv=tmp_path / "sweep_summary.csv",
            out_svg=tmp_path / "sweep.svg",
        )
        gaps = [result.mean_auc(s, "true_labels") - result.mean_auc(s, "constrained_mse") for s in sizes]
        print(f"\n  mean AUC gap by size {sizes}: {[round(g, 4) for g in gaps]}")
        inversions = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a)
        assert inversions <= 1, f"gap sequence {gaps} has {inversions} inversions"


def test_criterion_9_roc_auc_oracle():
    with criterion(9, "rank AUC equals the pairwise oracle exactly"):
        rng = np.random.default_rng(900)
        checked = 0
        while checked < 100:
            n = int(rng.integers(10, 2001))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                continue
            if checked % 3 == 0:
                scores = rng.integers(0, 9, n).astype(float)
            else:
                scores = rng.normal(size=n)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            doubled = 0
            for p in pos:
                doubled += 2 * int(np.sum(p > neg)) + int(np.sum(p == neg))
            oracle = float(Fraction(doubled, 2 * len(pos) * len(neg)))
            assert roc_auc(scores, labels).auc == oracle
            checked += 1


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical configs produce byte-identical artifacts"):
        cfg = {
            "data": {"synthetic": {"n": 2000, "signal_fraction": 0.5, "n_features": 5}},
            "methods": ["constrained_mse", "true_labels"],
            "model": {"hidden": [8, 4]},
            "training": {"total_steps": 200, "eval_every": 100},
            "seeds": [0],
            "output_dir": str(tmp_path / "out_a"),
        }
        path_a = tmp_path / "a.json"
        path_a.write_text(json.dumps(cfg))
        cfg_b = dict(cfg, output_dir=str(tmp_path / "out_b"))
        path_b = tmp_path / "b.json"
        path_b.write_text(json.dumps(cfg_b))
        assert cli_main(["run", "--config", str(path_a)]) == 0
        assert cli_main(["run", "--config", str(path_b)]) == 0
        names = [
            "sweights.csv",
            "report_constrained_mse.csv",
            "report_true_labels.csv",
            "learning_curves.csv",
            "learning_curves.svg",
        ]
        for name in names:
            a = (tmp_path / "out_a" / name).read_bytes()
            b = (tmp_path / "out_b" / name).read_bytes()
            assert a == b, name
