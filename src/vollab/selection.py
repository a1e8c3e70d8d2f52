"""Random-forest feature ranking averaged over expanding time-series folds.

A feature's score within one fold is its share of the total split gain
accumulated by a forest of bootstrap mean-leaf trees (sqrt(m) feature
subsampling per tree); scores are averaged across folds and the top-k
names are selected.  All the trees of all the folds grow in lockstep
(tree.fit_forest), and the fold rows are checked to be finite once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import VollabError
from .features import FeatureMatrix
from .tree import TreeLimits, fit_forest


@dataclass(frozen=True)
class ImportanceReport:
    feature_names: tuple[str, ...]
    per_split: np.ndarray  # n_splits x n_features, each row sums to 1
    averaged: np.ndarray  # n_features
    split_boundaries: tuple[int, ...]

    def ranking(self) -> list[str]:
        """All feature names in descending averaged score, ties alphabetical."""
        order = sorted(
            range(len(self.feature_names)),
            key=lambda j: (-self.averaged[j], self.feature_names[j]),
        )
        return [self.feature_names[j] for j in order]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["feature", *(f"split_{i}" for i in range(self.per_split.shape[0])),
                        "mean", "rank"])
            for rank, name in enumerate(self.ranking(), start=1):
                j = self.feature_names.index(name)
                w.writerow([name, *(repr(float(v)) for v in self.per_split[:, j]),
                            repr(float(self.averaged[j])), rank])


def rf_importance(
    X: FeatureMatrix,
    y,
    n_splits: int = 5,
    n_trees: int = 100,
    seed: int = 0,
) -> ImportanceReport:
    """Gain-share importances from forests fitted on expanding prefixes.

    Fold i (1-based) trains on the first i/(n_splits+1) fraction of the rows,
    so every fold's training rows precede the data a later fold adds.
    y must be the one-step-ahead target aligned with X's rows.
    """
    y = np.asarray(y, dtype=float)
    if n_splits < 2:
        raise VollabError("n_splits must be >= 2")
    if n_trees < 1:  # no tree would leave every fold's score uniform
        raise VollabError(f"n_trees must be >= 1, got {n_trees}")
    n, m = X.values.shape
    if y.shape != (n,):
        raise VollabError("X and y must be aligned")
    boundaries = [int(round(n * i / (n_splits + 1))) for i in range(1, n_splits + 1)]
    if boundaries[0] < 10:
        raise VollabError(f"too few rows ({n}) for {n_splits} expanding folds")
    rng = np.random.default_rng(np.random.PCG64(seed))
    samples, seeds = [], []
    for b in boundaries:
        for _ in range(n_trees):
            samples.append(rng.integers(0, b, size=b))
            seeds.append(int(rng.integers(0, 2**63 - 1)))
    # the last fold's rows hold every fold's rows, so X is checked once
    rows = boundaries[-1]
    trees = fit_forest(X.values[:rows], y[:rows], samples, seeds,
                       TreeLimits(max_leaves=32, min_samples_leaf=5), np.sqrt(m) / m)
    per_split = np.zeros((n_splits, m))
    for i in range(n_splits):
        gains = np.zeros(m)
        for tree in trees[i * n_trees:(i + 1) * n_trees]:
            gains += tree.feature_gains()
        total = gains.sum()
        per_split[i] = gains / total if total > 0 else np.full(m, 1.0 / m)
    averaged = per_split.mean(axis=0)
    return ImportanceReport(X.names, per_split, averaged, tuple(boundaries))


def select_top_k(report: ImportanceReport, k: int = 10) -> list[str]:
    """The k best feature names by averaged score (descending, ties alphabetical)."""
    if k > len(report.feature_names):
        raise VollabError(
            f"k={k} exceeds the {len(report.feature_names)} available features"
        )
    return report.ranking()[:k]
