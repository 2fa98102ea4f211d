"""CSV loading, label binarization, and train/test splitting.

Dialect: comma-separated, '.' decimal point, optional header row, UTF-8, no
quoting of numeric fields. Errors carry 1-based row/column positions.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    Dataset,
    DegenerateSplit,
    NonNumericFeature,
    ParseError,
    Task,
    UnknownLabel,
)


@dataclass(frozen=True)
class ThresholdGreaterThan:
    """Label 1 iff the raw label value is strictly greater than value."""

    value: float


@dataclass(frozen=True)
class ClassSetMapsTo1:
    """Label 1 iff the raw label token is in the set (compared as strings,
    so {5, "5"} behave identically); everything else maps to 0."""

    classes: frozenset

    def __post_init__(self):
        object.__setattr__(self, "classes", frozenset(str(c) for c in self.classes))


Binarization = Union[ThresholdGreaterThan, ClassSetMapsTo1, None]


@dataclass(frozen=True)
class IngestSpec:
    path: Union[str, Path]
    feature_columns: Sequence
    label_column: object
    has_header: bool = True
    binarization: Binarization = None
    train_fraction: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.label_column in tuple(self.feature_columns):
            raise ValueError("label column must be disjoint from feature columns")


def _resolve_columns(header: Optional[list], spec: IngestSpec) -> tuple[list[int], int]:
    def resolve(col) -> int:
        if isinstance(col, int):
            return col
        if header is None:
            raise ParseError(f"column {col!r} named but the file has no header")
        try:
            return header.index(col)
        except ValueError:
            raise ParseError(f"column {col!r} not found in header {header}") from None

    return [resolve(c) for c in spec.feature_columns], resolve(spec.label_column)


def load_csv(spec: IngestSpec) -> Dataset:
    """Parse features and labels per the spec; binarization turns a raw
    label column into {0, 1}, and binarization=None requires the column to
    already be binary."""
    path = Path(spec.path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    header = None
    if spec.has_header:
        if not rows:
            raise ParseError(f"{path} is empty")
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise ParseError(f"{path} contains no data rows")

    feat_cols, label_col = _resolve_columns(header, spec)
    offset = 2 if spec.has_header else 1  # 1-based data row positions

    n = len(rows)
    X = np.empty((n, len(feat_cols)))
    raw_labels: list[str] = []
    for i, row in enumerate(rows):
        for j, c in enumerate(feat_cols):
            if c >= len(row):
                raise ParseError("missing field", row=i + offset, column=c + 1)
            try:
                X[i, j] = float(row[c])
            except ValueError:
                raise NonNumericFeature(
                    f"non-numeric feature {row[c]!r}", row=i + offset, column=c + 1
                ) from None
        if label_col >= len(row):
            raise ParseError("missing label field", row=i + offset, column=label_col + 1)
        raw_labels.append(row[label_col].strip())

    if isinstance(spec.binarization, ThresholdGreaterThan):
        thr = spec.binarization.value
        vals = np.empty(n)
        for i, tok in enumerate(raw_labels):
            try:
                vals[i] = float(tok)
            except ValueError:
                raise ParseError(
                    f"non-numeric label {tok!r}", row=i + offset, column=label_col + 1
                ) from None
        labels = (vals > thr).astype(np.float64)
    elif isinstance(spec.binarization, ClassSetMapsTo1):
        classes = spec.binarization.classes
        labels = np.array([1.0 if tok in classes else 0.0 for tok in raw_labels])
    else:
        labels = np.empty(n)
        for i, tok in enumerate(raw_labels):
            if tok not in ("0", "1", "0.0", "1.0"):
                raise UnknownLabel(
                    f"label {tok!r} at row {i + offset} is not binary; "
                    f"supply a binarization rule"
                )
            labels[i] = float(tok)

    return Dataset(points=X, responses=labels, task=Task.CLASSIFICATION)


def write_csv(dataset: Dataset, path: Union[str, Path], feature_names: Optional[Sequence[str]] = None):
    """Write a dataset back out (features then label); floats use repr so a
    load round-trips bit-exactly."""
    path = Path(path)
    d = dataset.d
    names = list(feature_names) if feature_names is not None else [f"x{j}" for j in range(d)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names + ["label"]) + "\n")
        for i in range(dataset.n):
            cells = [repr(float(v)) for v in dataset.points[i]]
            cells.append(repr(float(dataset.responses[i])))
            fh.write(",".join(cells) + "\n")


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform random permutation split, deterministic per seed."""
    if not (0.0 < train_fraction < 1.0):
        raise DegenerateSplit(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = dataset.n
    n_train = int(round(n * train_fraction))
    if n_train < 1 or n_train >= n:
        raise DegenerateSplit(f"split of n = {n} at fraction {train_fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    mk = lambda idx: Dataset(points=dataset.points[idx], responses=dataset.responses[idx], task=dataset.task)
    return mk(tr), mk(te)


def standardize_train_test(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Scale both splits to the training split's per-feature mean 0 / sd 1;
    test rows never enter the statistics. Constant features pass through."""
    mean = train.points.mean(axis=0)
    sd = train.points.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    mk = lambda ds: Dataset(points=(ds.points - mean) / sd, responses=ds.responses, task=ds.task)
    return mk(train), mk(test)
