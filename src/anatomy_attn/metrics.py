"""ROC-AUC and the per-condition metrics table, in numpy only, like the
rest of the package."""

from __future__ import annotations

import csv

import numpy as np


def write_csv(path, header, rows) -> None:
    """Write `header`, then `rows` of already formatted fields, to `path`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def auc(scores, labels) -> float:
    """Percent area under the ROC curve via the Mann-Whitney statistic:
    (#concordant + 0.5 * #ties) / (P * N) * 100."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("auc expects matching 1-D scores and labels")
    if not np.all(np.isfinite(scores)):
        raise ValueError("auc expects finite scores")
    pos = int(labels.sum())
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise ValueError("auc needs at least one positive and one negative")
    # average ranks: tied scores share the mean of the ranks they span
    _, inv, counts = np.unique(scores, return_inverse=True,
                               return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inv]
    u = ranks[labels == 1].sum() - pos * (pos + 1) / 2.0
    return float(u / (pos * neg) * 100.0)


class MetricsTable:
    """Rows of (condition, class_name, auc_percent) plus mean rows."""

    HEADER = ["condition", "class_name", "auc_percent"]

    def __init__(self):
        self.rows = []

    def add(self, condition: str, class_name: str, auc_percent: float) -> None:
        if not 0.0 <= auc_percent <= 100.0:
            raise ValueError(f"auc_percent {auc_percent} outside [0,100]")
        self.rows.append((condition, class_name, float(auc_percent)))

    def add_mean(self, condition: str) -> float:
        vals = [a for c, n, a in self.rows
                if c == condition and n != "mean"]
        mean = float(np.mean(vals))
        self.add(condition, "mean", mean)
        return mean

    def value(self, condition: str, class_name: str = "mean") -> float:
        for c, n, a in self.rows:
            if c == condition and n == class_name:
                return a
        raise KeyError((condition, class_name))

    def write_csv(self, path) -> None:
        write_csv(path, self.HEADER, ([condition, class_name, f"{val:.6f}"]
                                      for condition, class_name, val
                                      in self.rows))
