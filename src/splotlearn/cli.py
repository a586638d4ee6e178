"""Config-driven experiment runner.

Subcommands:

* ``run``             generate/ingest data, compute sWeights, train every
                      configured method, emit learning curves (and a size
                      sweep when ``sizes`` is configured) plus a manifest.
* ``demo-divergence`` ``run`` with all five methods from shared initial
                      weights and without the sweep; it writes
                      ``divergence_summary.json`` in place of ``arms.json``.
                      The weighted cross-entropy arm is expected to diverge
                      and gets flagged, not fatal.
* ``sweights``        compute and export the sWeight table only.
* ``sweep``           the size sweep of ``run`` alone: final test AUC per
                      (train size, method, seed).

The arms of ``run`` and ``demo-divergence`` and the cells of a sweep are
independent jobs.  ``--threads K`` trains them in up to K worker processes
(default: the CPUs this process may use), which receive the weighted
datasets once each; ``--threads 1`` trains them in this process.  Every
artifact is the same whatever K is.  The program does not pin OpenBLAS, so
set ``OPENBLAS_NUM_THREADS=1`` to keep the workers from oversubscribing the
cores.

Configs are JSON; unknown keys are rejected with their path.  Exit codes:
0 ok, 2 config error, 3 data error, 4 numerical failure outside the expected
divergence.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from types import UnionType
from typing import NamedTuple, get_args, get_origin

import numpy as np

from . import __version__, evaluation
from .data import DataError, Dataset, CsvSchema, attach_sweights, generate_synthetic, ingest_csv, split
from .density import Density1D, MixtureModel, TruncatedExponential, TruncatedGaussian, Uniform
from .losses import LossInputError
from .model import METHODS, AdamConfig, Mlp, MlpConfig, TrainReport, train
from .splot import SplotError, compute_sweights


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field path."""


# ---------------------------------------------------------------------------
# config parsing

REQUIRED = object()


class Shape:
    """Table type of a density: its ``kind`` picks a row of ``SHAPES``."""


class Key(NamedTuple):
    """One config key.

    ``type`` is ``float``, ``int``, ``str``, ``Shape``, a nested table,
    ``list[T]`` (one or more entries, or none where the default is empty),
    ``tuple[T, T]`` (exactly two entries) or ``T | None``.  A number, and
    each number in a list, must lie in ``bounds``, so it is always finite.
    An absent key takes its default; an absent table whose default is None
    stays None.
    """

    type: object
    default: object = REQUIRED
    bounds: str = "(-inf, inf)"


# kind -> (constructor taking the parameters in table order, then lo and hi; parameter table)
SHAPES = {
    "gaussian": (TruncatedGaussian, {"mu": Key(float), "sigma": Key(float, bounds="(0, inf)")}),
    "exponential": (TruncatedExponential, {"rate": Key(float, bounds="(0, inf)")}),
    "uniform": (Uniform, {}),
}

CONFIG = {
    "data": Key({
        "synthetic": Key({
            "n": Key(int, bounds="[2, inf)"),
            "signal_fraction": Key(float, bounds="(0, 1)"),
            "n_features": Key(int, 5, "[1, inf)"),
            "feature_scale": Key(float, 1.0, "(0, inf)"),
        }, None),
        "csv": Key({
            "path": Key(str),
            "mass_column": Key(str),
            "label_column": Key(str | None, None),
            "feature_columns": Key(list[str] | None, None),
        }, None),
    }),
    "mixture": Key({
        "support": Key(tuple[float, float], [0.0, 8.0]),
        "signal": Key(Shape, {"kind": "gaussian", "mu": 4.0, "sigma": 1.0}),
        "background": Key(Shape, {"kind": "exponential", "rate": 0.4}),
        "init_yields": Key(tuple[float, float], [0.5, 0.5], "(0, inf)"),
    }, {}),
    "methods": Key(list[str], ["true_labels", "constrained_mse", "exact_likelihood", "cwola"]),
    "model": Key({
        "hidden": Key(list[int], [64, 32, 16], "[1, inf)"),
        "leaky_slope": Key(float, 0.05, "(0, 1)"),
        "l2_coefficient": Key(float, 0.0, "[0, inf)"),
    }, {}),
    "training": Key({
        "learning_rate": Key(float, 2e-4, "[0, inf)"),
        "beta1": Key(float, 0.9, "[0, 1)"),
        "beta2": Key(float, 0.999, "[0, 1)"),
        "epsilon": Key(float, 1e-8, "(0, inf)"),
        "batch_size": Key(int, 128, "[1, inf)"),
        "total_steps": Key(int, 20_000, "[0, inf)"),
        "eval_every": Key(int, 500, "[1, inf)"),
    }, {}),
    "split": Key({"test_fraction": Key(float, 0.25, "(0, 1)")}, {}),
    "cwola": Key({"center": Key(float, 4.0), "inside_fraction": Key(float, 0.5, "(0, 1)")}, {}),
    "sizes": Key(list[int], [], "[2, inf)"),
    "seeds": Key(list[int], [0], "[0, inf)"),
    "sweep": Key({"test_n": Key(int, 20_000, "[2, inf)")}, {}),
    "output_dir": Key(str, "out"),
}


def _within(x: float, bounds: str) -> bool:
    lo, hi = (float(b) for b in bounds[1:-1].split(","))
    return (lo < x if bounds[0] == "(" else lo <= x) and (x < hi if bounds[-1] == ")" else x <= hi)


def _walk(value, key: Key, path: str):
    """``value`` checked against ``key``, with every absent key of a nested table filled by its default."""
    t = key.type
    if isinstance(t, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {value!r}")
        for k in value:
            if k not in t:
                raise ConfigError(f"{path}.{k}: unknown key")
        out = {}
        for k, sub in t.items():
            v = value.get(k, sub.default)
            if v is REQUIRED:
                raise ConfigError(f"{path}.{k}: required")
            out[k] = None if v is None and k not in value else _walk(v, sub, f"{path}.{k}")
        return out
    if t is Shape:
        if not isinstance(value, dict) or "kind" not in value:
            raise ConfigError(f"{path}: expected an object with a 'kind', got {value!r}")
        kind = value["kind"]
        if not isinstance(kind, str) or kind not in SHAPES:
            raise ConfigError(f"{path}.kind: unknown density kind {kind!r}")
        return _walk(value, Key({"kind": Key(str), **SHAPES[kind][1]}), path)
    origin, args = get_origin(t), get_args(t)
    if origin is UnionType:  # T | None
        return None if value is None else _walk(value, key._replace(type=args[0]), path)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if origin is tuple and len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        if not value and key.default != []:
            raise ConfigError(f"{path}: expected a non-empty list")
        item = key._replace(type=args[0])
        return origin(_walk(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if t is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf if value > 0 else -math.inf
    if not _within(x, key.bounds):
        raise ConfigError(f"{path}: must lie in {key.bounds}, got {value!r}")
    if t is int and value != int(value):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return t(value)


@dataclass
class ExperimentConfig:
    raw: dict
    synthetic: dict | None
    csv: dict | None
    support: tuple[float, float]
    signal_shape: Density1D
    background_shape: Density1D
    init_yield_fractions: np.ndarray
    methods: list[str]
    hidden: tuple[int, ...]
    leaky_slope: float
    l2_coefficient: float
    adam: AdamConfig
    eval_every: int
    test_fraction: float
    cwola_center: float
    cwola_fraction: float
    sizes: list[int]
    seeds: list[int]
    sweep_test_n: int
    output_dir: str

    def mixture(self, n_events: float) -> MixtureModel:
        return MixtureModel([self.signal_shape, self.background_shape], self.init_yield_fractions * n_events)

    def mlp_config(self, input_dim: int, seed: int) -> MlpConfig:
        return MlpConfig(
            input_dim=input_dim, hidden=self.hidden, leaky_slope=self.leaky_slope, seed=seed, l2_coefficient=self.l2_coefficient
        )


def parse_config(raw: dict) -> ExperimentConfig:
    """Check ``raw`` against ``CONFIG``, fill in its defaults, then apply the rules that span keys."""
    c = _walk(raw, Key(CONFIG), "config")
    synthetic, csv_spec = c["data"]["synthetic"], c["data"]["csv"]
    if (synthetic is None) == (csv_spec is None):
        raise ConfigError("config.data: exactly one of 'synthetic' or 'csv' required")

    mixture = c["mixture"]
    lo, hi = mixture["support"]
    if not lo < hi:
        raise ConfigError(f"config.mixture.support: requires lo < hi, got {[lo, hi]}")
    shapes = []
    for name in ("signal", "background"):
        spec = mixture[name]
        ctor, params = SHAPES[spec["kind"]]
        try:
            shapes.append(ctor(*(spec[p] for p in params), lo, hi))
        except ValueError as exc:
            raise ConfigError(f"config.mixture.{name}: {exc}") from None

    methods = c["methods"]
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"config.methods: unknown method {m!r} (choose from {list(METHODS)})")
    if len(set(methods)) != len(methods):
        raise ConfigError("config.methods: duplicate entries")
    if csv_spec is not None:
        taken = {csv_spec["mass_column"]: "mass_column", csv_spec["label_column"]: "label_column"}
        for i, name in enumerate(csv_spec["feature_columns"] or []):
            if name in taken:
                raise ConfigError(f"config.data.csv.feature_columns[{i}]: column {name!r} is already {taken[name]}")
            taken[name] = f"feature_columns[{i}]"
        if csv_spec["label_column"] is None and "true_labels" in methods:
            raise ConfigError("config.methods: 'true_labels' needs config.data.csv.label_column")
        if csv_spec["label_column"] is None and c["sizes"]:
            raise ConfigError("config.sizes: a size sweep scores test AUC against config.data.csv.label_column")
    if c["sizes"] != sorted(c["sizes"]):
        raise ConfigError("config.sizes: must be ascending")

    fracs = np.asarray(mixture["init_yields"])
    model, training = c["model"], c["training"]
    eval_every = training.pop("eval_every")
    return ExperimentConfig(
        raw=raw, synthetic=synthetic, csv=csv_spec, support=(lo, hi), signal_shape=shapes[0],
        background_shape=shapes[1], init_yield_fractions=fracs / fracs.sum(), methods=methods,
        hidden=tuple(model["hidden"]), leaky_slope=model["leaky_slope"], l2_coefficient=model["l2_coefficient"],
        adam=AdamConfig(**training), eval_every=eval_every, test_fraction=c["split"]["test_fraction"],
        cwola_center=c["cwola"]["center"], cwola_fraction=c["cwola"]["inside_fraction"], sizes=c["sizes"],
        seeds=c["seeds"], sweep_test_n=c["sweep"]["test_n"], output_dir=c["output_dir"],
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(raw)


# ---------------------------------------------------------------------------
# pipeline pieces


def _load_dataset(cfg: ExperimentConfig, seed: int) -> tuple[Dataset, dict]:
    """The configured events, with the counts of input rows read and rejected."""
    if cfg.synthetic is not None:
        ds = generate_synthetic(seed=seed, **cfg.synthetic)
        return ds, {"n_rows_read": ds.n, "n_rows_rejected": 0}
    schema = CsvSchema(
        mass=cfg.csv["mass_column"], label=cfg.csv["label_column"], features=cfg.csv["feature_columns"]
    )
    ds, report = ingest_csv(cfg.csv["path"], schema)
    return ds, {"n_rows_read": report.n_rows_read, "n_rows_rejected": report.n_rejected}


def _check_scorable(what: str, test: Dataset, n_train: int | None = None):
    """Raise DataError before any arm trains unless each part has events and labelled test events hold both classes."""
    counts = f"{what}: test {test.n}" if n_train is None else f"{what}: train {n_train}, test {test.n}"
    if test.n == 0 or n_train == 0:
        raise DataError(f"{counts}; neither part may be empty")
    if test.y is not None:
        n_signal = int(np.count_nonzero(test.y))
        if n_signal in (0, test.n):
            raise DataError(f"{counts} (signal {n_signal}, background {test.n - n_signal}); the test AUC needs both classes")


def _train_method(cfg: ExperimentConfig, method: str, train_ds: Dataset, test_ds: Dataset, seed: int, *, curve: bool = True):
    """One training arm from the config; returns the model, its report and the initial-parameter checksum."""
    model = Mlp(cfg.mlp_config(train_ds.X.shape[1], seed))
    init_sha = hashlib.sha256(model.theta.tobytes()).hexdigest()
    report = train(
        method, model, train_ds, test_ds, cfg.adam,
        eval_every=cfg.eval_every, cwola_center=cfg.cwola_center, cwola_fraction=cfg.cwola_fraction, curve=curve,
    )
    return model, report, init_sha


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig, seeds: list[int], artifacts: list[Path]):
    manifest = {
        "command": command,
        "config": cfg.raw,
        "seeds": seeds,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "splotlearn": __version__},
        "artifacts": {p.name: _sha256_file(p) for p in artifacts},
    }
    _json_dump(manifest, out_dir / "manifest.json")


def _json_dump(obj, path: Path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _divergence_flags(report: TrainReport) -> dict:
    finite_auc = report.test_auc[np.isfinite(report.test_auc)]
    return {
        "aborted": bool(report.aborted),
        "abort_step": report.abort_step,
        "abort_reason": report.abort_reason,
        "final_train_loss": float(report.train_loss[-1]) if len(report.train_loss) else None,
        "min_train_loss": float(np.min(report.train_loss)) if len(report.train_loss) else None,
        "peak_test_auc": float(np.max(finite_auc)) if len(finite_auc) else None,
        "final_test_auc": float(finite_auc[-1]) if len(finite_auc) else None,
        "diverged": bool(report.aborted or (len(report.train_loss) and np.min(report.train_loss) < 0)),
    }


def _table_summary(table, tag: str = "") -> dict:
    """A weight table's summary keys: its flagged count ``n<tag>_flagged``, ``fitted_yields<tag>`` and ``fit<tag>``."""
    return {
        f"n{tag}_flagged": int(table.flagged_events.size),
        f"fitted_yields{tag}": [float(v) for v in table.yields],
        f"fit{tag}": table.diagnostics(),
    }


def _weighted_inputs(cfg: ExperimentConfig, seed: int, sizes: list[int] | None = None):
    """One seed's weighted (dataset, table) pairs: the train sets keyed by size, the test set; and the row counts.

    Without ``sizes`` the one train set is the whole train split, keyed None.  A synthetic sweep reads no rows.
    """
    if sizes and cfg.synthetic is not None:
        test_seed = int(np.random.SeedSequence([seed, 0x7E57]).generate_state(1)[0])
        test_raw = generate_synthetic(seed=test_seed, **{**cfg.synthetic, "n": cfg.sweep_test_n})
        _check_scorable(f"sweep test set of seed {seed}", test_raw)
        rows = None
    else:
        ds, rows = _load_dataset(cfg, seed)
        train_pool, test_raw = split(ds, cfg.test_fraction, seed)
        rows["n_total"] = ds.n
        del ds  # the split's parts hold copies of its rows
        _check_scorable(f"split of {rows['n_total']} events", test_raw, train_pool.n)
    trains = {}
    for size in sizes or [None]:
        if size is None:
            train_raw = train_pool
        elif cfg.synthetic is not None:
            train_seed = int(np.random.SeedSequence([seed, size]).generate_state(1)[0])
            train_raw = generate_synthetic(seed=train_seed, **{**cfg.synthetic, "n": size})
        else:
            if size > train_pool.n:
                raise DataError(f"sweep size {size} exceeds available train events {train_pool.n}")
            rng = np.random.default_rng([seed, size])
            train_raw = train_pool.subset(rng.permutation(train_pool.n)[:size])
        trains[size] = attach_sweights(train_raw, cfg.mixture(train_raw.n))
    return trains, attach_sweights(test_raw, cfg.mixture(test_raw.n)), rows


def _run_training_stage(cfg: ExperimentConfig, out_dir: Path, seed: int, methods: list[str], threads: int):
    """Data -> sWeights -> one model per method; returns each arm's record and the files written."""
    trains, (test_ds, test_table), rows = _weighted_inputs(cfg, seed)
    train_ds, train_table = trains[None]
    artifacts = [out_dir / "sweights.csv"]
    train_table.to_csv(artifacts[0])

    summary = {
        **rows,
        "n_train": train_ds.n,
        "n_test": test_ds.n,
        "train_label_mean": float(train_ds.y.mean()) if train_ds.y is not None else None,
        "v_condition_number": train_table.condition_number,
        "n_features": int(train_ds.X.shape[1]),
        **_table_summary(train_table, "_train"),
        **_table_summary(test_table, "_test"),
    }

    arms = _map_jobs(_arm_job, methods, threads, (cfg, seed, train_ds, test_ds))
    reports, arm_info = {}, {}
    for method, (report, init_sha) in zip(methods, arms):
        reports[method] = report
        arm_info[method] = {"init_theta_sha256": init_sha, **_divergence_flags(report)}
        artifacts.append(out_dir / f"report_{method}.csv")
        report.to_csv(artifacts[-1])

    curves = [out_dir / "learning_curves.csv", out_dir / "learning_curves.svg"]
    evaluation.learning_curve([reports[m] for m in methods], methods, *curves)
    artifacts += [*curves, out_dir / "dataset_summary.json"]
    _json_dump(summary, artifacts[-1])
    return arm_info, artifacts


# The inputs every job of one stage reads: the config and the weighted datasets.  A pool's initializer sets
# them once in each worker, so that a job carries only its key.
_stage_inputs = None


def _set_stage_inputs(inputs):
    global _stage_inputs
    _stage_inputs = inputs


def _usable_cpus() -> int:
    """The CPUs this process may run on: the default worker count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _map_jobs(fn, keys: list, threads: int, inputs) -> list:
    """``fn(key)`` for each key, in order, with ``inputs`` set as the stage's inputs.

    More than one key and thread: a pool of ``min(threads, len(keys))`` worker processes, each of which receives
    ``inputs`` once, through its initializer; the pool starts all its workers at once, so more workers than keys
    would sit idle.  Otherwise: in this process.
    """
    workers = min(threads, len(keys))
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers, initializer=_set_stage_inputs, initargs=(inputs,)) as pool:
                return list(pool.map(fn, keys))
        _set_stage_inputs(inputs)
        return list(map(fn, keys))
    finally:
        _set_stage_inputs(None)  # this process keeps no reference to the datasets


def _arm_job(method: str):
    """One arm of ``run`` or ``demo-divergence`` on the stage's train and test sets: its report and initial checksum."""
    cfg, seed, train_ds, test_ds = _stage_inputs
    _model, report, init_sha = _train_method(cfg, method, train_ds, test_ds, seed)
    return report, init_sha


def _cell_job(cell: tuple[int, str, int]):
    """The sweep cell ``(size, method, seed)`` on the stage's weighted sets."""
    size, method, seed = cell
    cfg, inputs = _stage_inputs
    trains, test_ds = inputs[seed]
    return _sweep_cell(cfg, method, seed, trains[size], test_ds)


def _sweep_cell(cfg: ExperimentConfig, method: str, seed: int, train_ds: Dataset, test_ds: Dataset):
    """Train one sweep cell on its weighted train and test sets; returns the final test AUC or None on divergence."""
    _model, report, _sha = _train_method(cfg, method, train_ds, test_ds, seed, curve=False)
    final_auc = report.test_auc[-1] if len(report.test_auc) else np.nan
    return None if report.aborted or not np.isfinite(final_auc) else float(final_auc)


def _run_sweep_stage(cfg: ExperimentConfig, out_dir: Path, seeds: list[int], threads: int):
    inputs = {}
    for seed in seeds:  # the cells read only the weighted datasets, so their tables are not kept through the sweep
        trains, (test_ds, _), _ = _weighted_inputs(cfg, seed, cfg.sizes)
        inputs[seed] = {size: ds for size, (ds, _) in trains.items()}, test_ds
    cells = [(size, method, seed) for size in cfg.sizes for method in cfg.methods for seed in seeds]
    results = _map_jobs(_cell_job, cells, threads, (cfg, inputs))
    lookup = dict(zip(cells, results))

    paths = [out_dir / "sweep.csv", out_dir / "sweep_summary.csv", out_dir / "sweep.svg"]
    evaluation.size_sweep(cfg.sizes, cfg.methods, seeds, lambda *cell: lookup[cell], *paths)
    return paths


# ---------------------------------------------------------------------------
# subcommands


def _experiment(command: str, cfg: ExperimentConfig, out_dir: Path, threads: int, *, arms, summary, sweeps: bool) -> int:
    """A command that trains: ``arms(cfg)`` on the first seed, recorded in ``summary``, then the size sweep if ``sweeps``."""
    seed, artifacts = cfg.seeds[0], []
    if summary is not None:
        arm_info, artifacts = _run_training_stage(cfg, out_dir, seed, arms(cfg), threads)
        if command == "demo-divergence":
            shared = {info["init_theta_sha256"] for info in arm_info.values()}
            arm_info = {"shared_initial_weights": len(shared) == 1, "arms": arm_info}
        artifacts.append(out_dir / summary)
        _json_dump(arm_info, artifacts[-1])
    sweeping = sweeps and bool(cfg.sizes)
    if sweeping:
        artifacts += _run_sweep_stage(cfg, out_dir, cfg.seeds, threads)
    _write_manifest(out_dir, command, cfg, cfg.seeds if sweeping else [seed], artifacts)
    return 0


def cmd_sweights(cfg: ExperimentConfig, out_dir: Path, threads: int) -> int:
    seed = cfg.seeds[0]
    ds, rows = _load_dataset(cfg, seed)
    table = compute_sweights(ds.m, cfg.mixture(ds.n))
    paths = [out_dir / "sweights.csv", out_dir / "sweights_summary.json"]
    table.to_csv(paths[0])
    summary = {**rows, "n_events": ds.n, "v_condition_number": table.condition_number, **_table_summary(table)}
    _json_dump(summary, paths[1])
    _write_manifest(out_dir, "sweights", cfg, [seed], paths)
    return 0


def _check_command(command: str, cfg: ExperimentConfig) -> None:
    """The checks ``command`` adds to ``parse_config``'s; ``main`` runs them before it writes anything."""
    if command == "sweep" and not cfg.sizes:
        raise ConfigError("config.sizes: required for a size sweep")
    if command == "demo-divergence" and cfg.csv is not None and cfg.csv["label_column"] is None:
        raise ConfigError("config.data.csv.label_column: required, as demo-divergence trains 'true_labels'")


# a command that trains names its arms, the file that records them (None: no arms) and whether it runs the size sweep
_COMMANDS = {
    "run": functools.partial(_experiment, "run", arms=lambda cfg: cfg.methods, summary="arms.json", sweeps=True),
    "demo-divergence": functools.partial(
        _experiment, "demo-divergence", arms=lambda cfg: METHODS, summary="divergence_summary.json", sweeps=False
    ),
    "sweights": cmd_sweights,
    "sweep": functools.partial(_experiment, "sweep", arms=None, summary=None, sweeps=True),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="splotlearn", description="sWeight computation and training experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "full pipeline: data, sWeights, training, reports"),
        ("demo-divergence", "all five methods from shared initial weights on one dataset"),
        ("sweights", "compute and export the sWeight table only"),
        ("sweep", "final test AUC per (train size, method, seed)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config output_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed list with one seed")
        p.add_argument(
            "--threads", type=int, default=None,
            help="worker processes for the independent training arms and sweep cells (default: the CPUs this process "
            "may use, capped at the number of jobs; 1 trains in this process)",
        )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seeds = [_walk(args.seed, CONFIG["seeds"]._replace(type=int), "--seed")]
        threads = _usable_cpus() if args.threads is None else args.threads
        if threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {threads}")
        _check_command(args.command, cfg)
        out_option = "--out" if args.out is not None else "config.output_dir"
        out_dir = Path(args.out if args.out is not None else cfg.output_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{out_option}: cannot create directory {out_dir}: {exc.strerror}") from exc
        return _COMMANDS[args.command](cfg, out_dir, threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (SplotError, LossInputError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
