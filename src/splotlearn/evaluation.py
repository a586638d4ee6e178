"""Ranking metric against true labels, learning-curve files, and size sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class RocResult:
    auc: float
    n_pos: int
    n_neg: int


def roc_auc(scores, labels) -> RocResult:
    """Rank-based (Mann-Whitney) ROC AUC with half-credit for ties.

    Rank sums are accumulated as exact integers (doubled ranks) and the final
    ratio is formed with rational arithmetic, so the result is the correctly
    rounded double of the exact pairwise statistic.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores and labels must be equal-length 1-D arrays, got {scores.shape} and {labels.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"need both classes present, got {n_pos} positives and {n_neg} negatives")

    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = pos[order].astype(np.int64)

    # doubled average rank over each tie group keeps everything integer:
    # a group occupying 1-based ranks a..b has doubled average rank a + b
    starts = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    ends = np.concatenate((starts[1:], [len(scores)]))  # exclusive
    group_rank2 = starts + 1 + ends  # (a) + (b) with a = start+1, b = end
    pos_per_group = np.add.reduceat(sorted_pos, starts)
    rank2_sum = int(group_rank2 @ pos_per_group)

    u2 = rank2_sum - n_pos * (n_pos + 1)
    auc = float(Fraction(u2, 2 * n_pos * n_neg))
    return RocResult(auc=auc, n_pos=n_pos, n_neg=n_neg)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def learning_curve(reports, labels, out_csv, out_svg=None):
    """Write the per-method metric traces as CSV and, optionally, an AUC plot.

    Rows are ``step,method,train_loss,test_loss,test_auc``; methods may sit on
    different step grids, the union simply appears row by row.
    """
    reports = list(reports)
    labels = list(labels)
    if not reports:
        raise ValueError("no reports to plot")
    if len(labels) != len(reports):
        raise ValueError(f"{len(reports)} reports but {len(labels)} labels")

    with open(out_csv, "w", encoding="utf-8", newline="\n") as f:
        f.write("step,method,train_loss,test_loss,test_auc\n")
        for rep, label in zip(reports, labels):
            for i in range(len(rep.steps)):
                f.write(
                    f"{int(rep.steps[i])},{label},{_fmt(rep.train_loss[i])},"
                    f"{_fmt(rep.test_loss[i])},{_fmt(rep.test_auc[i])}\n"
                )

    if out_svg is not None:
        series = []
        for rep, label in zip(reports, labels):
            keep = np.isfinite(rep.test_auc)
            series.append((label, np.asarray(rep.steps)[keep], np.asarray(rep.test_auc)[keep]))
        _svg_line_chart(series, "test ROC AUC vs training step", "step", "test ROC AUC", out_svg)


@dataclass
class SweepResult:
    """Per-cell AUCs (None marks a diverged cell) and per-(size, method) summaries."""

    rows: list  # (size, method, seed, auc | None)
    summary: list  # (size, method, mean, std, n_ok, n_diverged)

    def __post_init__(self):
        self._means = {(s, m): mean for s, m, mean, *_ in self.summary}

    def mean_auc(self, size, method) -> float:
        if (size, method) not in self._means:
            raise KeyError(f"no summary cell for size={size}, method={method}")
        return self._means[size, method]


def size_sweep(sizes, methods, seeds, cell_fn, out_csv=None, out_summary_csv=None, out_svg=None) -> SweepResult:
    """Final test AUC per (train size, method, seed).

    ``cell_fn(size, method, seed)`` returns the final test AUC, or None when
    that training run diverged; divergence becomes a marker in the output
    rather than a failure.  Output order is the deterministic
    (size, method, seed) nesting regardless of how cells were computed.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError(f"sizes must be ascending, got {sizes}")
    methods = list(methods)
    seeds = list(seeds)

    rows = []
    summary = []
    for size in sizes:
        for method in methods:
            cell = [cell_fn(size, method, seed) for seed in seeds]
            rows += [(size, method, seed, auc) for seed, auc in zip(seeds, cell)]
            aucs = [a for a in cell if a is not None]
            if aucs:
                mean = float(np.mean(aucs))
                std = float(np.std(aucs))
            else:
                mean = np.nan
                std = np.nan
            summary.append((size, method, mean, std, len(aucs), len(cell) - len(aucs)))

    if out_csv is not None:
        with open(out_csv, "w", encoding="utf-8", newline="\n") as f:
            f.write("train_size,method,seed,test_auc\n")
            for size, method, seed, auc in rows:
                cell = "diverged" if auc is None else _fmt(auc)
                f.write(f"{size},{method},{seed},{cell}\n")

    if out_summary_csv is not None:
        # error bars are the standard deviation across seeds, as the header says
        with open(out_summary_csv, "w", encoding="utf-8", newline="\n") as f:
            f.write("train_size,method,mean_auc,std_auc_across_seeds,n_seeds_ok,n_diverged\n")
            for size, method, mean, std, n_ok, n_div in summary:
                f.write(f"{size},{method},{_fmt(mean)},{_fmt(std)},{n_ok},{n_div}\n")

    if out_svg is not None:
        series = []
        for method in methods:
            xs, ys = [], []
            for size, m, mean, _, n_ok, _ in summary:
                if m == method and n_ok > 0 and np.isfinite(mean):
                    xs.append(size)
                    ys.append(mean)
            if xs:
                series.append((method, np.log10(np.asarray(xs, dtype=float)), np.asarray(ys)))
        _svg_line_chart(series, "final test ROC AUC vs train size", "log10(train size)", "test ROC AUC", out_svg)

    return SweepResult(rows=rows, summary=summary)


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]


def _svg_line_chart(series, title, xlabel, ylabel, path, width=800, height=500):
    """Minimal deterministic SVG 1.1 line chart; no plotting dependency."""
    ml, mr, mt, mb = 70, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    drawn = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)) for label, xs, ys in series if len(xs) > 0]
    if drawn:
        x_min = min(float(xs.min()) for _, xs, _ in drawn)
        x_max = max(float(xs.max()) for _, xs, _ in drawn)
        y_min = min(float(ys.min()) for _, _, ys in drawn)
        y_max = max(float(ys.max()) for _, _, ys in drawn)
    else:
        x_min, x_max, y_min, y_max = 0.0, 1.0, 0.0, 1.0
    if x_max <= x_min:
        x_max = x_min + 1.0
    if y_max <= y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    def sx(x):
        return ml + (x - x_min) / (x_max - x_min) * pw

    def sy(y):
        return mt + ph - (y - y_min) / (y_max - y_min) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml + pw / 2:.1f}" y="24" text-anchor="middle" font-size="16" font-family="sans-serif">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="13" font-family="sans-serif">{xlabel}</text>',
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>',
    ]
    for i in range(5):
        fx = x_min + (x_max - x_min) * i / 4
        fy = y_min + (y_max - y_min) * i / 4
        parts.append(
            f'<text x="{sx(fx):.1f}" y="{mt + ph + 18}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{fx:.4g}</text>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{sy(fy) + 4:.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{fy:.4g}</text>'
        )
        parts.append(
            f'<line x1="{ml}" y1="{sy(fy):.1f}" x2="{ml + pw}" y2="{sy(fy):.1f}" stroke="#dddddd" stroke-width="0.5"/>'
        )
    for k, (label, xs, ys) in enumerate(drawn):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 18 * k
        parts.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" x2="{ml + pw + 34}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 40}" y="{ly}" font-size="12" font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts) + "\n")
