"""Run the splotlearn CLI with per-layer timers and counters installed.

    python3 trace_cli.py TRACE_JSON <splotlearn CLI arguments>

The wrappers are installed from outside the program.  Every module
attribute, class attribute and dispatch-table entry of splotlearn that
refers to a traced function is replaced by a timed wrapper, so each caller
reaches the wrapper under the name it already uses: ``cli`` calls
``attach_sweights``, ``data`` calls ``splot.compute_sweights``, the trainer
calls its losses through ``model._LOSS_FNS``.  Sweep cells that run in the
process pool send their counters back with their results.  When the
command ends, the per-layer metrics, raw counters and spans go to
TRACE_JSON.

Only the time of the outermost call of each traced name counts, so a
layer's time includes the layers it calls.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

import splotlearn
from splotlearn import cli, data, density, evaluation, losses, model, splot

_MODULES = (splotlearn, density, splot, losses, model, data, evaluation, cli)


class Tracer:
    """Busy time, call counts, work counts and spans of the traced layers."""

    def __init__(self):
        self.config = None
        self.reset()

    def reset(self):
        self.seconds = {}
        self.calls = {}
        self.counts = {}
        self.durations = {}
        self.spans = []
        self._stack = []
        self.active = set()
        self.enabled = True
        self._paused = 0.0
        self._eval_start = None

    def now(self) -> float:
        """Monotonic clock that stands still while the tracer does its own work."""
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        self.enabled = False
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0
            self.enabled = True

    def count(self, name: str, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def begin(self, name: str, span: bool):
        self.active.add(name)
        if span:
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, self.now(), None, parent, os.getpid()])
            self._stack.append(len(self.spans) - 1)

    def end(self, name: str, start: float, span: bool, keep_duration: bool):
        dt = self.now() - start
        self.active.discard(name)
        self.seconds[name] = self.seconds.get(name, 0.0) + dt
        self.calls[name] = self.calls.get(name, 0) + 1
        if keep_duration:
            self.durations.setdefault(name, []).append(dt)
        if span:
            self.spans[self._stack.pop()][2] = self.now()

    # Evaluation inside ``train`` runs from the first full forward of a
    # ``record`` until the next training step (or the end of ``train``).
    def begin_evaluation(self):
        if "model.train" in self.active and self._eval_start is None:
            self._eval_start = self.now()

    def end_evaluation(self):
        if self._eval_start is not None:
            self.count("model.train.eval_s", self.now() - self._eval_start)
            self._eval_start = None

    def export(self) -> dict:
        return {
            "seconds": self.seconds,
            "calls": self.calls,
            "counts": self.counts,
            "durations": self.durations,
            "spans": self.spans,
        }

    def merge(self, other: dict):
        for key in ("seconds", "calls", "counts"):
            mine = getattr(self, key)
            for name, v in other[key].items():
                mine[name] = mine.get(name, 0) + v
        for name, d in other["durations"].items():
            self.durations.setdefault(name, []).extend(d)
        offset = len(self.spans)
        for name, start, end, parent, pid in other["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + offset, pid])


T = Tracer()


def timed(name: str, fn, *, span=True, keep_duration=False, after=None):
    """Wrap ``fn`` so its outermost calls add to ``name``; ``after(result, *args)`` counts work."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not T.enabled or name in T.active:
            return fn(*args, **kwargs)
        start = T.now()
        T.begin(name, span)
        try:
            out = fn(*args, **kwargs)
        finally:
            T.end(name, start, span, keep_duration)
        if after is not None:
            after(out, *args, **kwargs)
        return out

    return wrapper


def replace_everywhere(original, wrapper):
    """Point every splotlearn name and dispatch-table entry for ``original`` at ``wrapper``."""
    for mod in _MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
    for key, value in model._LOSS_FNS.items():
        if value is original:
            model._LOSS_FNS[key] = wrapper


def patch(name: str, fn, **kw):
    replace_everywhere(fn, timed(name, fn, **kw))


def patch_method(cls, attr: str, name: str, **kw):
    setattr(cls, attr, timed(name, vars(cls)[attr], **kw))


def _traced_fit_yields(masses, shapes, init_yields, total, **kwargs):
    out = _fit_yields_timed(masses, shapes, init_yields, total, **kwargs)
    if kwargs.get("callback") is None and T.enabled:
        # fit_yields reports its iterations only through a callback, which
        # costs a log-likelihood per iteration; count them on an untimed replay.
        iterations = []
        with T.paused():
            _fit_yields(masses, shapes, init_yields, total, **kwargs, callback=lambda y, ll: iterations.append(1))
        T.count("splot.fit_yields.iterations", len(iterations))
    return out


_fit_yields = splot.fit_yields
_fit_yields_timed = timed("splot.fit_yields", _fit_yields)


def _traced_forward_cached(self, x):
    if "evaluation.forward" in T.active:
        return _forward_cached(self, x)
    T.end_evaluation()
    start = T.now()
    out = _forward_cached(self, x)
    T.durations.setdefault("model.step.forward", []).append(T.now() - start)
    return out


_forward_cached = model.Mlp._forward_cached
_train_timed = timed("model.train", model.train)


def _traced_train(*args, **kwargs):
    try:
        return _train_timed(*args, **kwargs)
    finally:
        T.end_evaluation()


def _run_in_worker(fn, item):
    T.reset()
    out = fn(item)
    return out, T.export()


class TracedPool(ProcessPoolExecutor):
    """The CLI's process pool; each task returns its worker's counters beside its result."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        T.count("cli.sweep.workers", self._max_workers)

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        results = super().map(functools.partial(_run_in_worker, fn), *iterables, timeout=timeout, chunksize=chunksize)

        def unpack():
            for out, exported in results:
                T.merge(exported)
                yield out

        return unpack()


def _count_points(out, self, m, *a, **k):
    T.count("density.evaluate.points", np.size(m))


def _count_event_species(out, masses, mm, *a, **k):
    T.count("splot.compute_sweights.events", np.size(masses))
    T.count("splot.compute_sweights.event_species", np.size(masses) * mm.n_species)


def _count_generated(out, n, *a, **k):
    T.count(f"data.generate_synthetic.n={int(n)}")


def _count_ingest(out, *a, **k):
    report = out[1]
    T.count("data.ingest_csv.rows_read", report.n_rows_read)
    T.count("data.ingest_csv.rows_rejected", report.n_rejected)


def _keep_config(out, *a, **k):
    T.config = out


def install():
    patch_method(density.Density1D, "evaluate", "density.evaluate", span=False, after=_count_points)
    patch_method(density.Density1D, "sample", "density.sample")
    patch_method(density.MixtureDensity, "sample", "density.sample")
    patch_method(density.MixtureModel, "component_densities", "density.component_densities")
    patch_method(density.MixtureModel, "mixture_density", "density.mixture_density")

    replace_everywhere(_fit_yields, _traced_fit_yields)
    patch("splot.compute_vinv", splot.compute_vinv)
    patch("splot.compute_sweights", splot.compute_sweights, after=_count_event_species)
    patch_method(splot.SWeightTable, "to_csv", "splot.to_csv",
                 after=lambda out, self, *a, **k: T.count("splot.to_csv.rows", self.n_events))

    for fn in (losses.constrained_mse, losses.exact_likelihood, losses.weighted_ce, losses.plain_ce):
        patch("losses", fn, span=False)

    replace_everywhere(model.train, _traced_train)
    model.Mlp._forward_cached = _traced_forward_cached
    patch_method(model.Mlp, "backward", "model.step.backward", span=False, keep_duration=True)
    patch_method(model.Adam, "step", "model.step.adam", span=False, keep_duration=True)
    forward = timed("evaluation.forward", model.Mlp.forward,
                    after=lambda out, self, x, *a, **k: T.count("evaluation.forward.events", len(x)))

    def traced_forward(self, x):
        T.begin_evaluation()
        return forward(self, x)

    model.Mlp.forward = traced_forward

    patch("evaluation.roc_auc", evaluation.roc_auc)
    patch("evaluation.learning_curve", evaluation.learning_curve)
    patch("evaluation.size_sweep", evaluation.size_sweep)

    patch("data.generate_synthetic", data.generate_synthetic, after=_count_generated)
    patch("data.attach_sweights", data.attach_sweights)
    patch("data.ingest_csv", data.ingest_csv, after=_count_ingest)
    patch("data.split", data.split)
    patch("data.cwola_label", data.cwola_label)

    patch("cli.parse_config", cli.parse_config, span=False)
    patch("cli.load_config", cli.load_config, after=_keep_config)
    patch("cli.load_dataset", cli._load_dataset)
    patch("cli.training_stage", cli._run_training_stage)
    patch("cli.train_method", cli._train_method)
    patch("cli.sweep.cell", cli._sweep_cell, keep_duration=True)
    patch("cli.sweep", cli._run_sweep_stage)
    patch("cli.manifest", cli._write_manifest)
    for name, fn in cli._COMMANDS.items():
        cli._COMMANDS[name] = timed(f"cli.{name}", fn)
    cli.ProcessPoolExecutor = TracedPool


def layer_metrics() -> dict:
    """The per-layer metrics of the benchmark, 0 where a layer did not run."""
    sec, calls, counts, durations = T.seconds, T.calls, T.counts, T.durations

    def ratio(a, b):
        return a / b if b else 0.0

    def median_us(name):
        d = durations.get(name)
        return statistics.median(d) * 1e6 if d else 0.0

    steps = len(durations.get("model.step.adam", []))
    cfg = T.config
    test_builds = counts.get(f"data.generate_synthetic.n={cfg.sweep_test_n}", 0) if cfg else 0
    return {
        "density.evaluate.s": sec.get("density.evaluate", 0.0),
        "density.evaluate.passes": ratio(
            counts.get("density.evaluate.points", 0), counts.get("splot.compute_sweights.event_species", 0)
        ),
        "density.sample.s": sec.get("density.sample", 0.0),
        "splot.fit_yields.s": sec.get("splot.fit_yields", 0.0),
        "splot.fit_yields.iterations": counts.get("splot.fit_yields.iterations", 0),
        "splot.compute_vinv.s": sec.get("splot.compute_vinv", 0.0),
        "splot.compute_sweights.s": sec.get("splot.compute_sweights", 0.0),
        "splot.compute_sweights.events_per_s": ratio(
            counts.get("splot.compute_sweights.events", 0), sec.get("splot.compute_sweights", 0.0)
        ),
        "splot.to_csv.s": sec.get("splot.to_csv", 0.0),
        "splot.to_csv.rows_per_s": ratio(counts.get("splot.to_csv.rows", 0), sec.get("splot.to_csv", 0.0)),
        "losses.s": sec.get("losses", 0.0),
        "losses.calls": calls.get("losses", 0),
        "model.train.steps": steps,
        "model.train.steps_per_s": ratio(steps, sec.get("model.train", 0.0) - counts.get("model.train.eval_s", 0.0)),
        "model.step.forward_us": median_us("model.step.forward"),
        "model.step.backward_us": median_us("model.step.backward"),
        "model.step.adam_us": median_us("model.step.adam"),
        "evaluation.forward.s": sec.get("evaluation.forward", 0.0),
        "evaluation.forward.events": counts.get("evaluation.forward.events", 0),
        "evaluation.roc_auc.s": sec.get("evaluation.roc_auc", 0.0),
        "evaluation.learning_curve.s": sec.get("evaluation.learning_curve", 0.0),
        "data.ingest_csv.s": sec.get("data.ingest_csv", 0.0),
        "data.ingest_csv.rows_per_s": ratio(counts.get("data.ingest_csv.rows_read", 0), sec.get("data.ingest_csv", 0.0)),
        "data.ingest_csv.rows_rejected": counts.get("data.ingest_csv.rows_rejected", 0),
        "data.generate_synthetic.calls": calls.get("data.generate_synthetic", 0),
        "data.attach_sweights.s": sec.get("data.attach_sweights", 0.0),
        "data.attach_sweights.calls": calls.get("data.attach_sweights", 0),
        "cli.parse_config.calls": calls.get("cli.parse_config", 0),
        "cli.sweep.cells": calls.get("cli.sweep.cell", 0),
        "cli.sweep.test_set_builds": ratio(test_builds, len(cfg.seeds)) if calls.get("cli.sweep") else 0.0,
        "cli.sweep.pool_efficiency": ratio(
            sum(durations.get("cli.sweep.cell", [])),
            counts.get("cli.sweep.workers", 1) * sec.get("cli.sweep", 0.0),
        ),
        "cli.manifest.s": sec.get("cli.manifest", 0.0),
    }


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    install()
    try:
        return timed("cli.main", cli.main)(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({"metrics": layer_metrics(), "raw": T.export()}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
