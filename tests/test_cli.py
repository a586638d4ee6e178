"""Config validation, artifact emission, manifest integrity, exit codes, determinism."""

import contextlib
import copy
import dataclasses
import functools
import gzip
import hashlib
import io
import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splotlearn
import splotlearn.cli as cli
from splotlearn import data
from splotlearn.cli import CONFIG, SHAPES, ConfigError, Shape, _load_dataset, load_config, main, parse_config
from splotlearn.data import generate_synthetic
from splotlearn.density import Density1D
from splotlearn.losses import LossInputError
from splotlearn.model import METHODS
from splotlearn.splot import SplotError

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def base_config(out_dir, n=2500, methods=None, steps=250):
    return {
        "data": {"synthetic": {"n": n, "signal_fraction": 0.5, "n_features": 5}},
        "mixture": {
            "support": [0.0, 8.0],
            "signal": {"kind": "gaussian", "mu": 4.0, "sigma": 1.0},
            "background": {"kind": "exponential", "rate": 0.4},
            "init_yields": [0.5, 0.5],
        },
        "methods": methods or ["constrained_mse"],
        "model": {"hidden": [8, 4], "leaky_slope": 0.05, "l2_coefficient": 0.0},
        "training": {"batch_size": 128, "total_steps": steps, "eval_every": 100},
        "split": {"test_fraction": 0.25},
        "cwola": {"center": 4.0, "inside_fraction": 0.5},
        "seeds": [0],
        "output_dir": str(out_dir),
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# config validation


def test_unknown_key_rejected_with_path(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["training"]["momentum"] = 0.9
    with pytest.raises(ConfigError, match="config.training.momentum"):
        parse_config(cfg)


def test_negative_yield_names_field(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["mixture"]["init_yields"] = [0.5, -0.5]
    with pytest.raises(ConfigError, match=r"config.mixture.init_yields\[1\]"):
        parse_config(cfg)


def test_unknown_method_rejected(tmp_path):
    cfg = base_config(tmp_path / "out", methods=["gradient_boosting"])
    with pytest.raises(ConfigError, match="config.methods"):
        parse_config(cfg)


def test_both_data_sources_rejected(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["data"]["csv"] = {"path": "x.csv", "mass_column": "m"}
    with pytest.raises(ConfigError, match="config.data"):
        parse_config(cfg)


def test_true_labels_needs_label_column(tmp_path):
    cfg = base_config(tmp_path / "out", methods=["true_labels"])
    cfg["data"] = {"csv": {"path": "x.csv", "mass_column": "m", "label_column": None}}
    with pytest.raises(ConfigError, match="label_column"):
        parse_config(cfg)


def test_config_defaults_fill_in(tmp_path):
    cfg = {"data": {"synthetic": {"n": 100, "signal_fraction": 0.5}}}
    parsed = parse_config(cfg)
    assert parsed.adam.learning_rate == 2e-4
    assert parsed.adam.batch_size == 128
    assert parsed.hidden == (64, 32, 16)
    assert parsed.support == (0.0, 8.0)


# JSON text that Python's json module reads but no config may hold; each
# case names the field path the error message must carry.
MALFORMED = [
    ("config.mixture.support[0]", ["mixture", "support"], '["a", 8]'),
    ("config.mixture.support[0]", ["mixture", "support"], "[null, 8]"),
    ("config.data.synthetic.n", ["data", "synthetic", "n"], "1e400"),
    ("config.training.learning_rate", ["training", "learning_rate"], "1" + "0" * 400),
    ("config.training.beta1", ["training", "beta1"], "NaN"),
    ("config.training.learning_rate", ["training", "learning_rate"], "NaN"),
    ("config.training.epsilon", ["training", "epsilon"], "Infinity"),
    ("config.data.synthetic.signal_fraction", ["data", "synthetic", "signal_fraction"], "NaN"),
    ("config.cwola.center", ["cwola", "center"], "NaN"),
]


@pytest.mark.parametrize("field, keys, text", MALFORMED, ids=[f"{c[0]}={c[2][:12]}" for c in MALFORMED])
def test_malformed_value_exits_2_naming_its_path(tmp_path, capsys, field, keys, text):
    cfg = base_config(tmp_path / "out")
    section = cfg
    for k in keys[:-1]:
        section = section[k]
    section[keys[-1]] = "@MALFORMED@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"@MALFORMED@"', text))
    assert main(["run", "--config", str(path)]) == 2
    assert re.search(re.escape(field) + ":", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def _table_paths(table, prefix):
    """(path, type) of every key in a config table, nested tables and density parameters included."""
    for name, key in table.items():
        path = f"{prefix}.{name}"
        yield path, key.type
        if isinstance(key.type, dict):
            yield from _table_paths(key.type, path)
        elif key.type is Shape:
            yield from _table_paths(SHAPES[key.default["kind"]][1], path)


TABLE_PATHS = list(_table_paths(CONFIG, "config"))


@pytest.mark.parametrize("path, type_", TABLE_PATHS, ids=[p for p, _ in TABLE_PATHS])
def test_every_table_key_rejects_a_wrong_type(tmp_path, path, type_):
    cfg = base_config(tmp_path / "out")
    if path.startswith("config.data.csv"):
        cfg["data"] = {"csv": {"path": "x.csv", "mass_column": "m", "label_column": "y"}}
    keys = path.split(".")[1:]
    section = cfg
    for k in keys[:-1]:
        section = section.setdefault(k, {})
    accepts_str = type_ is str or str in getattr(type_, "__args__", ())
    section[keys[-1]] = 3 if accepts_str else "x"
    with pytest.raises(ConfigError, match=re.escape(path) + ":"):
        parse_config(cfg)


def readme_configs():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 2
    return [json.loads(b) for b in blocks]


def _comparable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, Density1D):
        return type(v).__name__, {k: _comparable(x) for k, x in vars(v).items()}
    return v


def test_readme_configs_parse():
    for raw in readme_configs():
        parse_config(raw)


def _tree_paths(node, path=()):
    """The path of every value below ``node``, as a tuple of dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _tree_paths(v, path + (k,))


def _at(root, path):
    for k in path:
        root = root[k]
    return root


@st.composite
def mutated_readme_configs(draw):
    """A README config with one to three keys dropped or added, values retyped, numbers set to extremes, or lists emptied."""
    raw = copy.deepcopy(draw(st.sampled_from(readme_configs())))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_tree_paths(raw))
        targets = {
            "drop": [p for p in paths if isinstance(_at(raw, p[:-1]), dict)],
            "add": [()] + [p for p in paths if isinstance(_at(raw, p), dict)],
            "retype": paths,
            "number": [p for p in paths if type(_at(raw, p)) in (int, float)],
            "empty": [p for p in paths if isinstance(_at(raw, p), list)],
        }
        kind = draw(st.sampled_from([k for k, v in targets.items() if v]))
        path = draw(st.sampled_from(targets[kind]))
        if kind == "drop":
            del _at(raw, path[:-1])[path[-1]]
        elif kind == "add":
            _at(raw, path)["unknown_key"] = 1
        else:
            values = {
                "retype": ["text", [1.0], {"a": 1}, None, True, 3, 0.5],
                "number": [math.nan, math.inf, -math.inf, 1e400, 10**400, 0, -1, -0.5],
                "empty": [[]],
            }[kind]
            _at(raw, path[:-1])[path[-1]] = draw(st.sampled_from(values))
    return raw


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_readme_configs())
def test_mutated_readme_configs_parse_or_name_their_field(raw):
    try:
        parse_config(raw)
    except ConfigError as exc:
        assert str(exc).startswith("config."), str(exc)


def test_readme_example_shows_the_defaults():
    example = readme_configs()[0]
    full = parse_config(example)
    minimal = parse_config({"data": example["data"]})
    for f in dataclasses.fields(full):
        if f.name != "raw":
            assert _comparable(getattr(full, f.name)) == _comparable(getattr(minimal, f.name)), f.name


def test_readme_example_runs(tmp_path):
    # the full example trains for minutes; its sweights command runs the same parse and data path
    path = write_config(tmp_path, readme_configs()[0])
    assert main(["sweights", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "sweights_summary.json").read_text())
    assert summary["n_events"] == summary["n_rows_read"] == 100_000


def test_readme_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(block, {})
    assert 0.5 < float(capsys.readouterr().out) <= 1.0


def test_feature_scale_reaches_the_generator(tmp_path):
    cfg = base_config(tmp_path / "out", n=500)
    cfg["data"]["synthetic"]["feature_scale"] = 2.5
    ds, _ = _load_dataset(parse_config(cfg), 3)
    np.testing.assert_array_equal(ds.X, generate_synthetic(500, 0.5, 3, n_features=5, feature_scale=2.5).X)


def test_invalid_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2


def test_config_error_exit_code(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["mixture"]["init_yields"] = [0.5, -0.5]
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2


@pytest.mark.parametrize("via", ["--out", "config.output_dir"])
@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_an_output_directory_that_cannot_be_created_exits_2(tmp_path, capsys, via, under):
    (tmp_path / "taken").write_text("")
    target = tmp_path / "taken" / "out" if under else tmp_path / "taken"
    cfg = base_config(target if via == "config.output_dir" else tmp_path / "out")
    argv = ["sweights", "--config", str(write_config(tmp_path, cfg))]
    assert main(argv + (["--out", str(target)] if via == "--out" else [])) == 2
    assert f"config error: {via}: cannot create directory {target}" in capsys.readouterr().err


def test_missing_csv_file_is_data_error(tmp_path):
    cfg = base_config(tmp_path / "out", methods=["constrained_mse"])
    cfg["data"] = {"csv": {"path": str(tmp_path / "absent.csv"), "mass_column": "m"}}
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 3


# ---------------------------------------------------------------------------
# run command


@pytest.fixture(scope="module")
def run_once(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, methods=["constrained_mse", "cwola"])
    code = main(["run", "--config", str(write_config(tmp_path, cfg))])
    return code, out_dir


def test_run_completes_and_writes_artifacts(run_once):
    code, out = run_once
    assert code == 0
    for name in [
        "sweights.csv",
        "report_constrained_mse.csv",
        "report_cwola.csv",
        "learning_curves.csv",
        "learning_curves.svg",
        "dataset_summary.json",
        "arms.json",
        "manifest.json",
    ]:
        assert (out / name).exists(), name
    summary = json.loads((out / "dataset_summary.json").read_text())
    for split_name in ("fit_train", "fit_test"):
        fit_ok(summary[split_name])


def fit_ok(fit):
    """The summary's record of a yield fit that reached the maximum and weights that keep both sum identities."""
    assert 1 <= fit["fit_iterations"] <= 10
    assert fit["kkt_residual"] <= 1e-12
    assert fit["event_sum_residual"] <= 1e-9
    assert fit["species_sum_residual"] <= 1e-12
    assert isinstance(fit["fit_loglik"], float)
    errors = fit["yield_standard_errors"]
    assert len(errors) == 2 and all(isinstance(e, float) and e > 0 for e in errors)


def test_manifest_lists_every_artifact_with_checksum(run_once):
    _, out = run_once
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["artifacts"]) == on_disk
    for name, digest in manifest["artifacts"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest, name
    assert manifest["config"]["data"]["synthetic"]["n"] == 2500
    assert "numpy" in manifest["versions"]
    assert "scipy" not in manifest["versions"]


def test_report_csv_schema(run_once):
    _, out = run_once
    lines = (out / "report_constrained_mse.csv").read_text().strip().split("\n")
    assert lines[0] == "step,train_loss,test_loss,test_auc"
    assert len(lines) >= 3
    steps = [int(line.split(",")[0]) for line in lines[1:]]
    assert steps == sorted(steps)


def test_run_smoke_benchmark(tmp_path):
    # 1e4 synthetic events, one method, 1e3 steps: well under a minute
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, n=10_000, methods=["constrained_mse"], steps=1000)
    cfg["model"]["hidden"] = [64, 32, 16]
    cfg["training"]["eval_every"] = 500
    start = time.perf_counter()
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    assert time.perf_counter() - start < 60.0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for name in manifest["artifacts"]:
        assert (out_dir / name).exists()


def test_rerun_from_manifest_config_reproduces_checksums(tmp_path):
    out_a = tmp_path / "out_a"
    cfg = base_config(out_a, n=1200, steps=150)
    assert main(["run", "--config", str(write_config(tmp_path, cfg, "a.json"))]) == 0
    manifest_a = json.loads((out_a / "manifest.json").read_text())
    replay = dict(manifest_a["config"], output_dir=str(tmp_path / "out_b"))
    assert main(["run", "--config", str(write_config(tmp_path, replay, "b.json"))]) == 0
    manifest_b = json.loads((tmp_path / "out_b" / "manifest.json").read_text())
    assert manifest_a["artifacts"] == manifest_b["artifacts"]


def test_run_seed_override(tmp_path):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, n=600, steps=100)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--seed", "7"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seeds"] == [7]


@pytest.mark.parametrize("command", ["run", "sweights"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    path = write_config(tmp_path, base_config(tmp_path / "out", n=600, steps=10))
    assert main([command, "--config", str(path), "--seed", "-1"]) == 2
    assert "config error: --seed: must lie in [0, inf), got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


UNSCORABLE = [
    ("run", 2, None, "split of 2 events: train 2, test 0; neither part may be empty"),
    ("run", 8, None, "split of 8 events: train 6, test 2 (signal 2, background 0); the test AUC needs both classes"),
    ("demo-divergence", 8, None, "split of 8 events: train 6, test 2 (signal 2, background 0); the test AUC needs both classes"),
    ("sweep", 100, 2, "sweep test set of seed 1: test 2 (signal 0, background 2); the test AUC needs both classes"),
]


@pytest.mark.parametrize("command, n, test_n, message", UNSCORABLE, ids=[f"{c}-n{n}" for c, n, _, _ in UNSCORABLE])
def test_a_split_that_cannot_be_scored_exits_3(tmp_path, capsys, monkeypatch, command, n, test_n, message):
    cfg = base_config(tmp_path / "out", n=n, steps=10)
    cfg["seeds"] = [0] if test_n is None else [1]
    if test_n is not None:
        cfg["sizes"], cfg["sweep"] = [50], {"test_n": test_n}
    weighted = counting(monkeypatch, "attach_sweights")
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == 3
    assert f"data error: {message}\n" == capsys.readouterr().err
    assert weighted == []


def test_a_csv_split_that_cannot_be_scored_exits_3(tmp_path, capsys):
    # three events: the test part holds one, of one class; the sweep splits the file as run does
    csv_path = tmp_path / "events.csv"
    csv_path.write_bytes(events_csv(generate_synthetic(3, 0.5, 7, n_features=2)))
    cfg = csv_config(tmp_path, csv_path, steps=5)
    cfg["sizes"] = [2]
    for command in ("run", "sweep"):
        assert main([command, "--config", str(write_config(tmp_path, cfg))]) == 3
        assert re.fullmatch(r"data error: split of 3 events: train 2, test 1 \(signal [01], background [01]\); .*\n", capsys.readouterr().err)


# ---------------------------------------------------------------------------
# determinism


def test_repeated_runs_byte_identical(tmp_path):
    cfg_a = base_config(tmp_path / "out_a", n=1500, steps=200, methods=["constrained_mse", "exact_likelihood"])
    cfg_b = dict(cfg_a, output_dir=str(tmp_path / "out_b"))
    assert main(["run", "--config", str(write_config(tmp_path, cfg_a, "a.json"))]) == 0
    assert main(["run", "--config", str(write_config(tmp_path, cfg_b, "b.json"))]) == 0
    for name in [
        "sweights.csv",
        "report_constrained_mse.csv",
        "report_exact_likelihood.csv",
        "learning_curves.csv",
        "learning_curves.svg",
    ]:
        a = (tmp_path / "out_a" / name).read_bytes()
        b = (tmp_path / "out_b" / name).read_bytes()
        assert a == b, name


# ---------------------------------------------------------------------------
# other subcommands


def test_sweights_command(tmp_path):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, n=2000)
    assert main(["sweights", "--config", str(write_config(tmp_path, cfg))]) == 0
    lines = (out_dir / "sweights.csv").read_text().strip().split("\n")
    assert lines[0] == "event_index,sweight_signal,sweight_background"
    assert len(lines) == 2001
    summary = json.loads((out_dir / "sweights_summary.json").read_text())
    assert summary["n_events"] == 2000
    assert summary["n_rows_read"] == 2000 and summary["n_rows_rejected"] == 0
    fit_ok(summary["fit"])
    # per-event weights sum to one after the in-run yield fit
    row = [float(v) for v in lines[1].split(",")[1:]]
    assert abs(sum(row) - 1.0) < 1e-6


def test_demo_divergence_records_shared_init(tmp_path):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, n=1200, steps=150)
    assert main(["demo-divergence", "--config", str(write_config(tmp_path, cfg))]) == 0
    demo = json.loads((out_dir / "divergence_summary.json").read_text())
    assert demo["shared_initial_weights"] is True
    assert set(demo["arms"]) == {"true_labels", "constrained_mse", "exact_likelihood", "weighted_ce", "cwola"}
    shas = {arm["init_theta_sha256"] for arm in demo["arms"].values()}
    assert len(shas) == 1
    for name in ["report_weighted_ce.csv", "report_true_labels.csv", "learning_curves.svg"]:
        assert (out_dir / name).exists()


def test_sweep_command(tmp_path):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, n=2000, steps=120)
    cfg["sizes"] = [300, 600]
    cfg["seeds"] = [0, 1]
    cfg["sweep"] = {"test_n": 500}
    assert main(["sweep", "--config", str(write_config(tmp_path, cfg))]) == 0
    rows = (out_dir / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "train_size,method,seed,test_auc"
    assert len(rows) == 1 + 2 * 1 * 2  # sizes x methods x seeds
    assert (out_dir / "sweep_summary.csv").exists()
    assert (out_dir / "sweep.svg").exists()


def test_sweep_threads_write_the_same_bytes(tmp_path):
    cfg = base_config(tmp_path / "out", n=600, steps=60, methods=["constrained_mse", "cwola"])
    cfg["sizes"] = [200, 400]
    cfg["seeds"] = [0, 1]
    cfg["sweep"] = {"test_n": 400}
    path = write_config(tmp_path, cfg)
    for threads in ("1", "2"):
        assert main(["sweep", "--config", str(path), "--threads", threads, "--out", str(tmp_path / threads)]) == 0
    for name in ["sweep.csv", "sweep_summary.csv", "sweep.svg", "manifest.json"]:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def serial_pool(monkeypatch):
    """Make cli's process pool a recording one that maps in this process; returns the pool sizes and the tasks."""
    workers, tasks = [], []

    class SerialPool:
        """Records the pool size and each task, runs the initializer and maps in this process, so no worker starts."""

        def __init__(self, max_workers, initializer=None, initargs=()):
            workers.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            items = list(zip(*iterables))
            tasks.extend((fn, *item) for item in items)
            return (fn(*item) for item in items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return workers, tasks


@pytest.fixture(scope="module")
def runs_at_every_thread_count(tmp_path_factory):
    """``run`` with sizes and ``demo-divergence`` at ``--threads 1``, ``--threads 2`` and the default; the pool sizes."""
    tmp_path = tmp_path_factory.mktemp("threads")
    cfg = base_config(tmp_path / "out", n=800, steps=40, methods=["constrained_mse", "cwola", "exact_likelihood"])
    cfg["sizes"], cfg["sweep"] = [200, 400], {"test_n": 300}
    path = write_config(tmp_path, cfg)
    pools = {}

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.setdefault(key, []).append(max_workers)
            super().__init__(max_workers, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "ProcessPoolExecutor", CountedPool)
        for command in ("run", "demo-divergence"):
            for threads in (["--threads", "1"], ["--threads", "2"], []):
                key = (command, *threads)
                out = tmp_path / "-".join(key)
                assert main([command, "--config", str(path), "--out", str(out), *threads]) == 0
    return tmp_path, pools


@pytest.mark.parametrize("command", ["run", "demo-divergence"])
def test_threads_write_the_same_bytes(runs_at_every_thread_count, command):
    tmp_path, _pools = runs_at_every_thread_count
    serial = tmp_path / f"{command}---threads-1"
    names = sorted(p.name for p in serial.iterdir())
    assert "report_cwola.csv" in names and ("sweep.csv" in names) == (command == "run")
    for other in (f"{command}---threads-2", command):
        assert sorted(p.name for p in (tmp_path / other).iterdir()) == names
        for name in names:
            assert (serial / name).read_bytes() == (tmp_path / other / name).read_bytes(), (other, name)


def test_every_stage_of_a_run_trains_in_the_pool(runs_at_every_thread_count):
    _tmp_path, pools = runs_at_every_thread_count
    assert ("run", "--threads", "1") not in pools and ("demo-divergence", "--threads", "1") not in pools
    assert pools[("run", "--threads", "2")] == [2, 2]  # the three arms, then the six sweep cells
    assert pools[("demo-divergence", "--threads", "2")] == [2]  # the five arms; no sweep
    cpus = cli._usable_cpus()
    assert pools.get(("run",), []) == ([min(cpus, 3), min(cpus, 6)] if cpus > 1 else [])


def test_sweep_pool_has_no_more_workers_than_cells(tmp_path, monkeypatch):
    workers, _tasks = serial_pool(monkeypatch)
    cfg = base_config(tmp_path / "out", n=600, steps=20)
    cfg["sizes"] = [200, 400]
    cfg["sweep"] = {"test_n": 400}
    path = write_config(tmp_path, cfg)
    for threads in ("64", "2", "1"):
        assert main(["sweep", "--config", str(path), "--threads", threads, "--out", str(tmp_path / threads)]) == 0
    assert workers == [2, 2]  # two cells; one thread maps without a pool
    for name in ["sweep.csv", "sweep_summary.csv", "sweep.svg", "manifest.json"]:
        assert (tmp_path / "64" / name).read_bytes() == (tmp_path / "1" / name).read_bytes(), name


@pytest.mark.parametrize("cpus_from", ["sched_getaffinity", "cpu_count"])
def test_the_default_pool_has_a_worker_per_usable_cpu_and_its_tasks_carry_only_keys(tmp_path, monkeypatch, cpus_from):
    if cpus_from == "sched_getaffinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5, 7}, raising=False)
    else:  # a platform without CPU affinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
    workers, tasks = serial_pool(monkeypatch)
    cfg = base_config(tmp_path / "out", n=600, steps=20, methods=["constrained_mse", "cwola", "true_labels"])
    cfg["sizes"], cfg["sweep"] = [200, 400], {"test_n": 400}
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    assert workers == [3, 4]  # three arms on 3 of the 4 CPUs, then six sweep cells on all 4
    assert len(tasks) == 3 + 6
    for task in tasks:  # the datasets reach each worker once, through the initializer, never with a task
        assert len(pickle.dumps(task)) < 1000, task


def sweep_cell_inputs(tmp_path, **training):
    """A parsed sweep config over every method and seed 0's weighted (train, test) sets at size 300."""
    raw = base_config(tmp_path / "out", n=600, methods=list(METHODS))
    raw["training"].update(training)
    raw["sizes"], raw["sweep"] = [300], {"test_n": 400}
    cfg = parse_config(raw)
    trains, (test_ds, _), _ = cli._weighted_inputs(cfg, 0, cfg.sizes)
    return cfg, trains[300][0], test_ds


@pytest.mark.parametrize("steps", [250, 0])
def test_a_sweep_cell_returns_the_final_auc_of_the_full_learning_curve(tmp_path, steps):
    cfg, train_ds, test_ds = sweep_cell_inputs(tmp_path, total_steps=steps)
    for method in METHODS:
        _model, report, _sha = cli._train_method(cfg, method, train_ds, test_ds, 0)
        assert report.steps[-1] == steps and not report.aborted
        assert np.float64(cli._sweep_cell(cfg, method, 0, train_ds, test_ds)).tobytes() == report.test_auc[-1].tobytes()


def test_an_aborted_sweep_cell_returns_none(tmp_path):
    cfg, train_ds, test_ds = sweep_cell_inputs(tmp_path, learning_rate=1e200)
    _model, report, _sha = cli._train_method(cfg, "weighted_ce", train_ds, test_ds, 0)
    assert report.aborted
    assert cli._sweep_cell(cfg, "weighted_ce", 0, train_ds, test_ds) is None


@pytest.fixture(scope="module")
def every_method_runs(tmp_path_factory):
    """``demo-divergence`` on a config with sizes, and ``run`` and ``sweep`` on it with every method."""
    tmp_path = tmp_path_factory.mktemp("every")
    cfg = base_config(tmp_path / "out", n=800, steps=40)
    cfg["sizes"], cfg["sweep"] = [200, 400], {"test_n": 300}
    path = write_config(tmp_path, cfg)
    every = write_config(tmp_path, dict(cfg, methods=list(METHODS)), "every.json")
    for command, config in [("demo-divergence", path), ("run", every), ("sweep", every)]:
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    return tmp_path


def test_demo_divergence_writes_what_run_with_every_method_writes(every_method_runs):
    demo, run = every_method_runs / "demo-divergence", every_method_runs / "run"
    names = ["sweights.csv", "learning_curves.csv", "learning_curves.svg", "dataset_summary.json"]
    for name in names + [f"report_{method}.csv" for method in METHODS]:
        assert (demo / name).read_bytes() == (run / name).read_bytes(), name
    assert not (demo / "sweep.csv").exists()  # demo-divergence ignores sizes


def test_sweep_writes_what_run_with_sizes_writes(every_method_runs):
    sweep, run = every_method_runs / "sweep", every_method_runs / "run"
    for name in ["sweep.csv", "sweep_summary.csv", "sweep.svg"]:
        assert (sweep / name).read_bytes() == (run / name).read_bytes(), name
    assert sorted(p.name for p in sweep.iterdir()) == ["manifest.json", "sweep.csv", "sweep.svg", "sweep_summary.csv"]


def events_csv(ds, mass=repr) -> bytes:
    """``ds`` as a CSV with columns mass, label, a, b."""
    rows = [[mass(m), str(y), *map(repr, x)] for m, y, x in zip(ds.m.tolist(), ds.y.tolist(), ds.X.tolist())]
    return ("\n".join(["mass,label,a,b"] + [",".join(r) for r in rows]) + "\n").encode()


def csv_config(tmp_path, csv_path, **kw):
    cfg = base_config(tmp_path / "out", **kw)
    cfg["data"] = {"csv": {"path": str(csv_path), "mass_column": "mass", "label_column": "label"}}
    return cfg


@pytest.mark.parametrize("threads", ["1", "2"])
def test_an_error_in_a_sweep_cell_exits_with_its_code(tmp_path, capsys, threads):
    cfg = integer_mass_csv_config(tmp_path, steps=5, methods=["cwola"])
    cfg["sizes"] = [100, 200]
    assert main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--threads", threads]) == 3
    assert "data error: requested inside fraction 0.5 unreachable" in capsys.readouterr().err


def integer_mass_csv_config(tmp_path, **kw):
    """A CSV config with integer masses: no window around 4 holds half of a train set, so cwola fails inside its arm."""
    csv_path = tmp_path / "events.csv"
    csv_path.write_bytes(events_csv(generate_synthetic(600, 0.5, 7, n_features=2), mass=lambda m: repr(float(round(m)))))
    return csv_config(tmp_path, csv_path, **kw)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_an_error_in_a_run_arm_exits_with_its_code(tmp_path, capsys, threads):
    cfg = integer_mass_csv_config(tmp_path, steps=5, methods=["constrained_mse", "cwola"])
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--threads", threads]) == 3
    assert "data error: requested inside fraction 0.5 unreachable" in capsys.readouterr().err


@pytest.mark.parametrize("error", [SplotError, LossInputError])
def test_an_error_raised_in_a_run_worker_exits_4(tmp_path, capsys, monkeypatch, error):
    def failing_arm(*args, **kwargs):
        raise error("planted in a run arm")

    # forked workers inherit the patched arm
    monkeypatch.setattr(cli, "_train_method", failing_arm)
    monkeypatch.setattr(
        cli, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    )
    cfg = base_config(tmp_path / "out", n=600, steps=5, methods=["constrained_mse", "cwola"])
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--threads", "2"]) == 4
    assert "numerical failure: planted in a run arm" in capsys.readouterr().err


@pytest.mark.parametrize("error", [SplotError, LossInputError])
def test_an_error_raised_in_a_sweep_worker_exits_4(tmp_path, capsys, monkeypatch, error):
    def failing_cell(*args):
        raise error("planted in a sweep cell")

    # forked workers inherit the patched cell
    monkeypatch.setattr(cli, "_sweep_cell", failing_cell)
    monkeypatch.setattr(
        cli, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    )
    cfg = base_config(tmp_path / "out", n=600, steps=5)
    cfg["sizes"] = [200, 400]
    cfg["sweep"] = {"test_n": 400}
    assert main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--threads", "2"]) == 4
    assert "numerical failure: planted in a sweep cell" in capsys.readouterr().err


def unlabelled_csv_config(tmp_path, **kw):
    """A config reading a CSV of columns mass, a, b, with no label column."""
    ds = generate_synthetic(1200, 0.5, 3, n_features=2)
    csv_path = tmp_path / "events.csv"
    csv_path.write_text("mass,a,b\n" + "".join(f"{m!r},{a!r},{b!r}\n" for m, (a, b) in zip(ds.m.tolist(), ds.X.tolist())))
    cfg = csv_config(tmp_path, csv_path, **kw)
    del cfg["data"]["csv"]["label_column"]
    return cfg


def test_cwola_test_auc_is_null_without_true_labels(tmp_path):
    cfg = unlabelled_csv_config(tmp_path, steps=40, methods=["constrained_mse", "cwola"])
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 0
    arms = json.loads((tmp_path / "out" / "arms.json").read_text())
    for method in ("constrained_mse", "cwola"):
        assert arms[method]["final_test_auc"] is None and arms[method]["peak_test_auc"] is None, method


def test_demo_divergence_on_an_unlabelled_csv_exits_2_before_any_work(tmp_path, capsys):
    # demo-divergence trains every method, true_labels among them, whatever config.methods lists
    cfg = unlabelled_csv_config(tmp_path, steps=40)
    out = tmp_path / "fresh"
    assert main(["demo-divergence", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert "config error: config.data.csv.label_column: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, summary", [("run", "arms.json"), ("demo-divergence", "divergence_summary.json")])
def test_the_summaries_record_why_an_arm_aborted(tmp_path, command, summary):
    # a learning rate of 1e200 overflows the forward pass at the second step; the arm is recorded, with no warning
    cfg = base_config(tmp_path / "out", n=1200, methods=["weighted_ce", "constrained_mse"], steps=50)
    cfg["training"]["learning_rate"] = 1e200
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == 0
    arms = json.loads((tmp_path / "out" / summary).read_text())
    arms = arms.get("arms", arms)
    assert {"weighted_ce", "constrained_mse"} <= set(arms)
    for method, info in arms.items():
        assert info["aborted"] and info["abort_step"] == 2, method
        assert info["abort_reason"] == "non-finite batch loss or gradient", method


def test_the_cli_loads_no_scipy(tmp_path):
    cfg = base_config(tmp_path / "out", n=500)
    script = (
        "import sys\n"
        "import splotlearn.cli\n"
        f"code = splotlearn.cli.main(['sweights', '--config', {str(write_config(tmp_path, cfg))!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=package_env(), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "[]"]
    assert (tmp_path / "out" / "sweights.csv").exists()


def package_env():
    """The environment with the imported splotlearn first on PYTHONPATH, for a subprocess."""
    src = str(Path(splotlearn.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize(
    "command, threads, csv",
    [
        ("run", "1", False), ("run", "2", False), ("demo-divergence", "1", False), ("demo-divergence", "2", False),
        ("sweights", "1", False), ("sweep", "2", False), ("run", "1", True),
    ],
    ids=["run-1", "run-2", "demo-divergence-1", "demo-divergence-2", "sweights-1", "sweep-2", "run-1-csv"],
)
def test_the_benchmark_tracer_runs_every_command(tmp_path, command, threads, csv):
    # bench/trace_cli.py wraps cli's own names, its command table and its process pool from outside;
    # pooled arms count only while the workers call the names it patches
    cfg = base_config(tmp_path / "out", n=400, steps=20, methods=["constrained_mse", "cwola"])
    cfg["sizes"], cfg["sweep"] = [100, 200], {"test_n": 200}
    if csv:  # the benchmark's data-layer metrics, from a run without sizes, which reads the file once
        lines = events_csv(generate_synthetic(401, 0.5, 9, n_features=2)).split(b"\n")
        lines[7] = b"nan" + lines[7][lines[7].index(b","):]
        (tmp_path / "events.csv").write_bytes(b"\n".join(lines))
        cfg["data"], cfg["sizes"] = csv_config(tmp_path, tmp_path / "events.csv")["data"], []
    args = [command, "--config", str(write_config(tmp_path, cfg)), "--threads", threads]
    trace = tmp_path / "trace.json"
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_cli.py"), str(trace), *args],
        capture_output=True, text=True, env=package_env(), timeout=300,
    )
    assert out.returncode == 0, out.stderr
    metrics = json.loads(trace.read_text())["metrics"]
    if command in ("run", "sweights"):
        # the tracer times the sWeight table's writing by wrapping SWeightTable.to_csv
        assert metrics["splot.to_csv.rows_per_s"] > 0
    if csv:
        assert metrics["data.ingest_csv.rows_rejected"] == 1
        assert metrics["data.ingest_csv.rows_per_s"] > 0
    arms = 2 if csv else {"run": 2 + 2 * 2, "demo-divergence": len(METHODS), "sweights": 0, "sweep": 2 * 2}[command]
    assert metrics["model.train.steps"] == arms * 20


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_size_sweep_over_an_unlabelled_csv_is_a_config_error(tmp_path, capsys, command):
    # a sweep reports only test AUC against true labels
    cfg = unlabelled_csv_config(tmp_path, steps=40)
    cfg["sizes"] = [200, 400]
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "config error: config.sizes: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "features, index",
    [(["label", "a"], 0), (["a", "mass"], 1), (["a", "b", "a"], 2)],
    ids=["the-label", "the-mass", "a-feature-twice"],
)
def test_feature_columns_name_no_column_twice(tmp_path, capsys, features, index):
    csv_path = tmp_path / "events.csv"
    csv_path.write_bytes(events_csv(generate_synthetic(600, 0.5, 7, n_features=2)))
    cfg = csv_config(tmp_path, csv_path, steps=40)
    cfg["data"]["csv"]["feature_columns"] = features
    assert main(["run", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert f"config error: config.data.csv.feature_columns[{index}]: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def counting(monkeypatch, name):
    """Replace ``splotlearn.cli.<name>`` by a wrapper that records its calls' arguments."""
    calls = []
    fn = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: calls.append((a, k)) or fn(*a, **k))
    return calls


def test_sweep_builds_each_seeds_test_set_once(tmp_path, monkeypatch):
    cfg = base_config(tmp_path / "out", n=600, steps=30, methods=["constrained_mse", "cwola"])
    cfg["sizes"] = [200, 400]
    cfg["seeds"] = [0, 1]
    cfg["sweep"] = {"test_n": 500}
    generated = counting(monkeypatch, "generate_synthetic")
    weighted = counting(monkeypatch, "attach_sweights")
    assert main(["sweep", "--config", str(write_config(tmp_path, cfg))]) == 0
    sizes = [k["n"] for _, k in generated]
    assert sizes.count(500) == 2  # one test set per seed
    assert sizes.count(200) == sizes.count(400) == 2  # one train set per (size, seed), shared by its methods
    assert len(weighted) == 2 + 2 * 2


def test_csv_sweep_reads_the_csv_once_per_seed(tmp_path, monkeypatch):
    ds = generate_synthetic(1200, 0.5, 7, n_features=2)
    rows = [[repr(m), str(y), *map(repr, x)] for m, y, x in zip(ds.m.tolist(), ds.y.tolist(), ds.X.tolist())]
    (tmp_path / "events.csv").write_text("\n".join(["mass,label,a,b"] + [",".join(r) for r in rows]) + "\n")
    cfg = base_config(tmp_path / "out", steps=30, methods=["constrained_mse", "true_labels"])
    cfg["data"] = {"csv": {"path": str(tmp_path / "events.csv"), "mass_column": "mass", "label_column": "label"}}
    cfg["sizes"] = [300, 600]
    cfg["seeds"] = [0, 1]
    path = write_config(tmp_path, cfg)
    ingested = counting(monkeypatch, "ingest_csv")
    assert main(["sweep", "--config", str(path), "--threads", "1", "--out", str(tmp_path / "1")]) == 0
    assert len(ingested) == 2
    assert main(["sweep", "--config", str(path), "--threads", "2", "--out", str(tmp_path / "2")]) == 0
    for name in ["sweep.csv", "sweep_summary.csv", "sweep.svg", "manifest.json"]:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_csv_rejected_rows_are_counted(tmp_path):
    ds = generate_synthetic(800, 0.5, 5, n_features=2)
    rows = [[repr(m), str(y), *map(repr, x)] for m, y, x in zip(ds.m.tolist(), ds.y.tolist(), ds.X.tolist())]
    rows[9][2] = "nan"  # a feature
    rows[19][0] = "inf"  # the mass
    (tmp_path / "events.csv").write_text("\n".join(["mass,label,a,b"] + [",".join(r) for r in rows]) + "\n")
    cfg = base_config(tmp_path / "out", steps=20, methods=["constrained_mse", "true_labels"])
    cfg["data"] = {"csv": {"path": str(tmp_path / "events.csv"), "mass_column": "mass", "label_column": "label"}}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    assert main(["sweights", "--config", str(path), "--out", str(tmp_path / "sw")]) == 0
    for summary_path in [tmp_path / "run" / "dataset_summary.json", tmp_path / "sw" / "sweights_summary.json"]:
        summary = json.loads(summary_path.read_text())
        assert summary["n_rows_read"] == 800
        assert summary["n_rows_rejected"] == 2
    assert json.loads((tmp_path / "run" / "dataset_summary.json").read_text())["n_total"] == 798


_FUZZ_CSV = events_csv(generate_synthetic(60, 0.5, 11, n_features=2))


def _cut_in_half(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _flip_20_bytes(data: bytes) -> bytes:
    out = bytearray(data)
    for i in np.random.default_rng(3).choice(np.arange(10, len(out)), size=20, replace=False):
        out[i] ^= 0xFF
    return bytes(out)


@pytest.mark.parametrize(
    "make", [_cut_in_half, _flip_20_bytes, None], ids=["truncated", "corrupt", "not-gzip"]
)
def test_bad_gzip_csv_exits_3(tmp_path, capsys, make):
    csv_path = tmp_path / "events.csv.gz"
    plain = events_csv(generate_synthetic(2000, 0.5, 5, n_features=2))
    csv_path.write_bytes(plain if make is None else make(gzip.compress(plain, mtime=0)))
    code = main(["sweights", "--config", str(write_config(tmp_path, csv_config(tmp_path, csv_path)))])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"data error: cannot read {csv_path}: " in err
    assert "Traceback" not in err


def _flip_20_bytes_in_the_second_half(data: bytes) -> bytes:
    out = bytearray(data)
    for i in np.random.default_rng(4).choice(np.arange(len(out) // 2, len(out)), size=20, replace=False):
        out[i] ^= 0xFF
    return bytes(out)


@pytest.mark.parametrize("make", [_cut_in_half, _flip_20_bytes_in_the_second_half], ids=["truncated", "corrupt"])
def test_a_gzip_csv_damaged_after_the_first_chunk_exits_3(tmp_path, capsys, monkeypatch, make):
    # the stream's first half is intact and holds several chunks, which the streaming parser takes before the damage
    chunk_bytes = 4096
    monkeypatch.setattr(data, "_CHUNK_BYTES", chunk_bytes)
    streamed = []
    monkeypatch.setattr(data, "_parse_stream", lambda *a, parse=data._parse_stream: streamed.append(a) or parse(*a))
    csv_path = tmp_path / "events.csv.gz"
    damaged = make(gzip.compress(events_csv(generate_synthetic(2000, 0.5, 5, n_features=2)), mtime=0))
    assert len(zlib.decompressobj(31).decompress(damaged[: len(damaged) // 2])) > 4 * chunk_bytes
    csv_path.write_bytes(damaged)
    code = main(["sweights", "--config", str(write_config(tmp_path, csv_config(tmp_path, csv_path)))])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"data error: cannot read {csv_path}: " in err
    assert "Traceback" not in err
    assert len(streamed) == 1


@st.composite
def mutated_csvs(draw):
    """A small CSV with one to three flipped bytes, inserted 0xff bytes, long quoted cells or truncated lines."""
    data = bytearray(_FUZZ_CSV)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(["flip", "xff", "long", "truncate"]))
        if kind == "flip":
            data[i] ^= draw(st.integers(1, 255))
        elif kind == "xff":
            data[i:i] = b"\xff"
        elif kind == "long":
            data[i:i] = b'"' + b"1" * 140_000 + b'"'
        else:
            end = data.find(b"\n", i)
            del data[i : len(data) if end < 0 else end]
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    csv_path = tmp_path / "events.csv"
    return write_config(tmp_path, csv_config(tmp_path, csv_path)), csv_path


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutated_csvs())
def test_bad_csv_bytes_never_end_in_a_traceback(fuzz_files, data):
    config_path, csv_path = fuzz_files
    csv_path.write_bytes(data)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["sweights", "--config", str(config_path)])
    assert code in (0, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert re.search(r"line \d+|column '", err.getvalue()), err.getvalue()


def test_sweep_without_sizes_is_config_error(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", n=500, steps=50)
    out = tmp_path / "fresh"
    assert main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert "config error: config.sizes: " in capsys.readouterr().err
    assert not out.exists()


def test_load_config_roundtrip(tmp_path):
    cfg = base_config(tmp_path / "out")
    parsed = load_config(write_config(tmp_path, cfg))
    assert parsed.methods == ["constrained_mse"]
    assert parsed.signal_shape.kind == "gaussian"
    assert parsed.background_shape.kind == "exponential"
