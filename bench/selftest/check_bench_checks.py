"""The benchmark's checks pass on the program's output and fail on corrupted output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from splotlearn.cli import main as cli_main  # noqa: E402
from splotlearn.data import generate_synthetic  # noqa: E402


def run_cli(workload, out_dir: Path, *extra) -> Path:
    assert cli_main([*workload.cli_args, *extra, "--out", str(out_dir)]) == 0
    return out_dir


def w_seeds(workload) -> list:
    return json.loads(workload.config_path.read_text())["seeds"]


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "TRAIN_EVENTS", 2_000)
    monkeypatch.setattr(workloads, "TRAIN_STEPS", 100)
    monkeypatch.setattr(workloads, "SWEIGHTS_EVENTS", 5_000)
    monkeypatch.setattr(workloads, "CSV_ROWS", 4_000)
    monkeypatch.setattr(workloads, "CSV_STEPS", 200)
    monkeypatch.setattr(workloads, "SWEEP_SIZES", [500, 1_000])
    monkeypatch.setattr(workloads, "SWEEP_STEPS", 200)
    monkeypatch.setattr(workloads, "SWEEP_TEST_N", 4_000)


def test_perturbed_weight_fails_the_weight_checks(tmp_path, small_sizes):
    w = workloads.prepare_sweights_1m(tmp_path, seed=5)
    out = run_cli(w, tmp_path / "out")
    assert w.check(out).errors == []

    weights = checks.read_sweights(out / "sweights.csv")
    yields = checks.read_json(out / "sweights_summary.json")["fitted_yields"]
    weights[17, 0] += 1e-6
    assert any("event 17" in e for e in checks.sweight_identities(weights, yields))
    m = generate_synthetic(workloads.SWEIGHTS_EVENTS, workloads.SWEIGHTS_SIGNAL_FRACTION, w_seeds(w)[0], n_features=1).m
    assert any("reference" in e for e in checks.reference_agreement(m, weights, yields))


def test_missing_sweep_cell_fails_that_cell(tmp_path, small_sizes):
    w = workloads.prepare_sweep_pool(tmp_path, seed=5)
    out = run_cli(w, tmp_path / "out", "--threads", "1")
    ok = w.check(out)
    assert (ok.attempted, ok.failed, ok.errors) == (1 + 2 * 4 * 2, 0, [])

    path = out / "sweep.csv"
    lines = path.read_text().splitlines(keepends=True)
    missing = lines.pop(3).split(",")
    path.write_text("".join(lines))
    cell = (int(missing[0]), missing[1], int(missing[2]))
    cell_errors, _ = checks.sweep_cells(out, [500, 1_000], workloads.SWEEP_METHODS, w_seeds(w), (0.5, 1.0))
    assert cell_errors[cell] == [f"cell {cell} missing"]
    assert sum(bool(e) for e in cell_errors.values()) == 1
    assert w.check(out).failed >= 1


def test_wrong_rejected_row_count_fails_the_command(tmp_path, small_sizes):
    w = workloads.prepare_csv_ingest(tmp_path, seed=5)
    out = run_cli(w, tmp_path / "out")
    ok = w.check(out)
    assert (ok.attempted, ok.failed, ok.errors) == (3, 0, [])

    path = out / "dataset_summary.json"
    summary = json.loads(path.read_text())
    summary["n_total"] += 1  # one planted non-finite row let through
    path.write_text(json.dumps(summary))
    bad = w.check(out)
    assert bad.failed == 1
    assert any(e.startswith("n_total") for e in bad.errors)


def test_arm_that_stops_early_fails_only_that_arm(tmp_path, small_sizes):
    w = workloads.prepare_train(tmp_path, seed=5)
    out = run_cli(w, tmp_path / "out")
    assert w.check(out).errors == []

    path = out / "report_constrained_mse.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    bad = w.check(out)
    assert any(e.startswith("constrained_mse: last recorded step") for e in bad.errors)
    assert bad.failed == 2  # the arm, and the command whose manifest no longer matches


def test_sweep_threads_write_the_same_bytes(tmp_path):
    w = workloads.prepare_sweep_pool(tmp_path, seed=0)
    assert w.cli_args[-2:] == ["--threads", "2"]
    pooled = run_cli(w, tmp_path / "pooled")
    serial = tmp_path / "serial"
    assert cli_main([*w.cli_args[:-2], "--threads", "1", "--out", str(serial)]) == 0
    names = sorted(p.name for p in pooled.iterdir())
    assert names == sorted(p.name for p in serial.iterdir())
    for name in names:
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


def traced(tmp_path, w, *extra) -> dict:
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    trace = tmp_path / "trace.json"
    cmd = [sys.executable, str(BENCH / "trace_cli.py"), str(trace), *w.cli_args, *extra, "--out", str(tmp_path / "out")]
    subprocess.run(cmd, env=env, check=True, timeout=300)
    return json.loads(trace.read_text())["metrics"]


def per_layer_names() -> set:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]} - {"trace.wall_s", "trace.overhead_s"}


def test_trace_reports_every_layer_of_a_run(tmp_path, small_sizes):
    metrics = traced(tmp_path, workloads.prepare_train(tmp_path, seed=5))
    assert set(metrics) == per_layer_names()
    assert metrics["density.evaluate.passes"] == 5
    assert metrics["model.train.steps"] == 5 * 100
    assert metrics["losses.calls"] == 5 * (100 + 2 * 2)  # a batch per step, train and test per record
    assert metrics["data.attach_sweights.calls"] == 2
    assert metrics["cli.parse_config.calls"] == 1
    assert metrics["cli.sweep.cells"] == 0
    for name in ("model.step.forward_us", "evaluation.forward.s", "splot.fit_yields.iterations"):
        assert metrics[name] > 0, name


def test_trace_collects_counters_from_pool_workers(tmp_path, small_sizes):
    metrics = traced(tmp_path, workloads.prepare_sweep_pool(tmp_path, seed=5))
    cells = 2 * 4 * 2
    assert metrics["cli.sweep.cells"] == cells
    assert metrics["cli.parse_config.calls"] == 1 + cells
    assert metrics["cli.sweep.test_set_builds"] == cells / 2
    assert metrics["model.train.steps"] == cells * 200
    assert 0 < metrics["cli.sweep.pool_efficiency"] <= 1
    assert np.isfinite(metrics["model.train.steps_per_s"])
