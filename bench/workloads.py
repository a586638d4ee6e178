"""The benchmark's four workloads: their inputs, CLI commands and output checks.

Each workload turns the benchmark seed into a config (and, for
``csv_ingest``, an input file) in a fresh directory.  The program sees only
those files.  A command, a training arm and a sweep cell each count as one
operation.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference

ALL_METHODS = ["true_labels", "constrained_mse", "exact_likelihood", "weighted_ce", "cwola"]

TRAIN_EVENTS = 20_000
TRAIN_STEPS = 2_500
SWEIGHTS_EVENTS = 1_000_000
SWEIGHTS_SIGNAL_FRACTION = 0.3
CSV_ROWS = 200_000
CSV_PLANTED = ("nan", "inf", "-inf", "nan", "inf")
CSV_METHODS = ["true_labels", "constrained_mse"]
CSV_STEPS = 500
SWEEP_SIZES = [1_000, 3_000, 10_000]
SWEEP_METHODS = ["true_labels", "constrained_mse", "exact_likelihood", "cwola"]
SWEEP_STEPS = 400
SWEEP_TEST_N = 20_000


@dataclass
class Outcome:
    """Operations attempted and failed by one command, with the reasons."""

    attempted: int
    failed: int
    errors: list


@dataclass
class Workload:
    """A prepared workload: CLI arguments plus the check of one command's output."""

    name: str
    cli_args: list  # after ``python -m splotlearn.cli``; ``--out`` is appended per command
    config_path: Path
    operations: int
    check: Callable[[Path], Outcome]

    def failed_command(self, reason: str) -> Outcome:
        return Outcome(self.operations, self.operations, [reason])


def program_seeds(seed: int, name: str, k: int) -> list[int]:
    """``k`` program seeds drawn from the benchmark seed and the workload name."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(k)]


def _write_config(run_dir: Path, cfg: dict) -> Path:
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def _manifest_errors(out_dir: Path) -> list[str]:
    manifest = checks.read_json(out_dir / "manifest.json")
    errors = []
    for name, digest in manifest["artifacts"].items():
        h = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if h != digest:
            errors.append(f"manifest checksum of {name} does not match the file")
    return errors


def _training_outcome(out_dir: Path, methods, total_steps: int, n_total: int | None = None) -> Outcome:
    """Command-level checks of ``run`` plus one operation per arm.

    ``n_total``, when given, is the event count the dataset must have.
    """
    summary = checks.read_json(out_dir / "dataset_summary.json")
    errors = _manifest_errors(out_dir)
    if n_total is not None and summary["n_total"] != n_total:
        errors.append(f"n_total {summary['n_total']}, expected {n_total}")
    errors += checks.sweight_identities(checks.read_sweights(out_dir / "sweights.csv"), summary["fitted_yields_train"])
    command_failed = bool(errors)
    arms = checks.read_json(out_dir / "arms.json")
    band = checks.auc_band(summary["n_test"], 0.5)
    failed_arms = 0
    for method in methods:
        arm_errors = checks.arm_report(out_dir, method, total_steps, band, arms.get(method, {}))
        failed_arms += bool(arm_errors)
        errors += arm_errors
    return Outcome(1 + len(methods), int(command_failed) + failed_arms, errors)


def prepare_train(run_dir: Path, seed: int) -> Workload:
    (s0,) = program_seeds(seed, "train", 1)
    cfg = {
        "data": {"synthetic": {"n": TRAIN_EVENTS, "signal_fraction": 0.5, "n_features": 5}},
        "methods": ALL_METHODS,
        "training": {"total_steps": TRAIN_STEPS, "eval_every": 500},
        "seeds": [s0],
    }
    path = _write_config(run_dir, cfg)

    def check(out_dir: Path) -> Outcome:
        return _training_outcome(out_dir, ALL_METHODS, TRAIN_STEPS)

    return Workload("train", ["run", "--config", str(path)], path, 1 + len(ALL_METHODS), check)


def prepare_sweights_1m(run_dir: Path, seed: int) -> Workload:
    (s0,) = program_seeds(seed, "sweights_1m", 1)
    cfg = {
        "data": {"synthetic": {"n": SWEIGHTS_EVENTS, "signal_fraction": SWEIGHTS_SIGNAL_FRACTION, "n_features": 1}},
        "seeds": [s0],
    }
    path = _write_config(run_dir, cfg)
    masses = []

    def check(out_dir: Path) -> Outcome:
        if not masses:
            # The reference needs the event masses, which only the synthetic
            # generator knows: redraw them from the same config and seed.
            from splotlearn.data import generate_synthetic

            masses.append(generate_synthetic(SWEIGHTS_EVENTS, SWEIGHTS_SIGNAL_FRACTION, s0, n_features=1).m)
        summary = checks.read_json(out_dir / "sweights_summary.json")
        weights = checks.read_sweights(out_dir / "sweights.csv")
        errors = _manifest_errors(out_dir)
        if summary["n_events"] != SWEIGHTS_EVENTS or summary["n_flagged"] != 0:
            errors.append(f"summary reports {summary['n_events']} events, {summary['n_flagged']} flagged")
        errors += checks.sweight_identities(weights, summary["fitted_yields"])
        errors += checks.reference_agreement(masses[0], weights, summary["fitted_yields"])
        return Outcome(1, int(bool(errors)), errors)

    return Workload("sweights_1m", ["sweights", "--config", str(path)], path, 1, check)


def write_events_csv(path: Path, seed: int) -> int:
    """Write the ``csv_ingest`` input; returns the number of planted non-finite rows."""
    rng = np.random.default_rng(seed)
    m, y, x = reference.draw_events(CSV_ROWS, 0.5, rng)
    # repr is the shortest string that reads back to the same double
    columns = [list(map(repr, m.tolist())), list(map(str, y.tolist()))]
    columns += [list(map(repr, x[:, j].tolist())) for j in range(x.shape[1])]
    rows = rng.choice(CSV_ROWS, size=len(CSV_PLANTED), replace=False)
    cols = rng.integers(0, len(columns), size=len(CSV_PLANTED))
    for r, c, bad in zip(rows, cols, CSV_PLANTED):
        columns[c][r] = bad
    header = ",".join(["mass", "label"] + [f"x{j}" for j in range(x.shape[1])])
    with gzip.open(path, "wt", encoding="utf-8", newline="\n", compresslevel=1) as f:
        f.write(header + "\n")
        f.write("\n".join(map(",".join, zip(*columns))) + "\n")
    return len(CSV_PLANTED)


def prepare_csv_ingest(run_dir: Path, seed: int) -> Workload:
    s_data, s_prog = program_seeds(seed, "csv_ingest", 2)
    planted = write_events_csv(run_dir / "events.csv.gz", s_data)
    cfg = {
        "data": {"csv": {"path": str(run_dir / "events.csv.gz"), "mass_column": "mass", "label_column": "label"}},
        "methods": CSV_METHODS,
        "training": {"total_steps": CSV_STEPS, "eval_every": 250},
        "seeds": [s_prog],
    }
    path = _write_config(run_dir, cfg)

    def check(out_dir: Path) -> Outcome:
        return _training_outcome(out_dir, CSV_METHODS, CSV_STEPS, n_total=CSV_ROWS - planted)

    return Workload("csv_ingest", ["run", "--config", str(path)], path, 1 + len(CSV_METHODS), check)


def prepare_sweep_pool(run_dir: Path, seed: int) -> Workload:
    seeds = program_seeds(seed, "sweep_pool", 2)
    cfg = {
        "data": {"synthetic": {"n": SWEEP_SIZES[0], "signal_fraction": 0.5, "n_features": 5}},
        "methods": SWEEP_METHODS,
        "training": {"total_steps": SWEEP_STEPS, "eval_every": SWEEP_STEPS},
        "sizes": SWEEP_SIZES,
        "seeds": seeds,
        "sweep": {"test_n": SWEEP_TEST_N},
    }
    path = _write_config(run_dir, cfg)
    n_cells = len(SWEEP_SIZES) * len(SWEEP_METHODS) * len(seeds)

    def check(out_dir: Path) -> Outcome:
        band = checks.auc_band(SWEEP_TEST_N, 0.5)
        cell_errors, summary_errors = checks.sweep_cells(out_dir, SWEEP_SIZES, SWEEP_METHODS, seeds, band)
        summary_errors += _manifest_errors(out_dir)
        errors = summary_errors + [e for errs in cell_errors.values() for e in errs]
        failed = int(bool(summary_errors)) + sum(bool(e) for e in cell_errors.values())
        return Outcome(1 + n_cells, failed, errors)

    return Workload("sweep_pool", ["sweep", "--config", str(path), "--threads", "2"], path, 1 + n_cells, check)


WORKLOADS = {
    "train": prepare_train,
    "sweights_1m": prepare_sweights_1m,
    "csv_ingest": prepare_csv_ingest,
    "sweep_pool": prepare_sweep_pool,
}
