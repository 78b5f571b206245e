"""Confusion-count accumulation and segmentation quality statistics.

Counts are an ``[m, m]`` int64 array, ``counts[true class, predicted class]``.
For class i with n_i ground-truth points, c_i correct predictions and w_i
points wrongly predicted as i:

    oAcc = sum(c_i) / sum(n_i)
    mAcc = mean over classes of c_i / n_i
    mIoU = mean over classes of c_i / (n_i + w_i)

Classes absent from both truth and prediction are excluded from the two
means (and reported, so results stay auditable); a class that is only ever
predicted contributes an accuracy term of 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def accumulate(counts: np.ndarray, predicted, truth) -> np.ndarray:
    """Score one batch of points; returns new counts, the input is untouched."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValidationError(f"predicted shape {predicted.shape} != truth shape {truth.shape}")
    counts = counts.copy()
    if predicted.size == 0:
        return counts
    m = counts.shape[0]
    for name, arr in (("predicted", predicted), ("truth", truth)):
        if arr.min() < 0 or arr.max() >= m:
            raise ValidationError(f"{name} labels outside [0, {m})")
    np.add.at(counts, (truth, predicted), 1)
    return counts


def _per_class(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_i, c_i, w_i) vectors."""
    n = counts.sum(axis=1)
    c = np.diag(counts)
    return n, c, counts.sum(axis=0) - c


@dataclass(frozen=True)
class SegMetrics:
    oacc: float
    macc: float
    miou: float
    class_acc: dict[int, float]
    class_iou: dict[int, float]
    excluded: tuple[int, ...]


def compute_metrics(counts: np.ndarray) -> SegMetrics:
    n, c, w = _per_class(counts)
    if n.sum() == 0:
        raise ValidationError("cannot compute metrics from an empty confusion matrix")
    present = np.nonzero(n + w > 0)[0]
    excluded = tuple(int(i) for i in np.nonzero(n + w == 0)[0])
    class_acc, class_iou = {}, {}
    for i in present:
        class_acc[int(i)] = float(c[i] / n[i]) if n[i] > 0 else 0.0
        class_iou[int(i)] = float(c[i] / (n[i] + w[i]))
    return SegMetrics(
        oacc=float(c.sum() / n.sum()),
        macc=float(np.mean(list(class_acc.values()))),
        miou=float(np.mean(list(class_iou.values()))),
        class_acc=class_acc,
        class_iou=class_iou,
        excluded=excluded,
    )


def metrics_report(counts: np.ndarray, metrics: SegMetrics, class_names=None) -> list[list]:
    """CSV rows: a header, one row per class and a final overall summary row."""
    n, c, w = _per_class(counts)
    rows = [["class", "n", "c", "w", "acc", "iou", "oacc", "macc", "miou"]]
    for i in range(len(counts)):
        name = class_names[i] if class_names else str(i)
        acc = repr(metrics.class_acc[i]) if i in metrics.class_acc else ""
        iou = repr(metrics.class_iou[i]) if i in metrics.class_iou else ""
        rows.append([name, int(n[i]), int(c[i]), int(w[i]), acc, iou, "", "", ""])
    rows.append(
        ["overall", int(n.sum()), int(c.sum()), int(w.sum()), "", "", repr(metrics.oacc), repr(metrics.macc), repr(metrics.miou)]
    )
    return rows
