"""Extrinsic and intrinsic segmentation metrics.

Extrinsic: frame accuracy and normalized mutual information between a
predicted and a reference labeling. Intrinsic: a simplified silhouette
index that measures each sample against cluster means (not mean pairwise
distances), normalized to [0, 1]. Entropies use natural logs; NMI is
invariant to bijective relabelings of either sequence.

evaluate pools them into one report, a dict as the report files hold it.
"""

from typing import Sequence

import numpy as np

from kinseg.ingest import UNANNOTATED, code_labels

# Doubles per block of silhouette_samples' distance kernel. A budget in
# elements, not rows: for the distances to 10 means, 256-row blocks took
# 1.5x the time of unblocked norms at 6,000-24,000 x 3, while this budget
# took 0.8-0.95x there and 0.18x at 73,926 x 96 (best of 15, 2-vCPU Xeon).
SILHOUETTE_ELEMENTS = 1 << 16


def _check_lengths(a, b):
    if len(a) != len(b):
        raise ValueError(f"sequence lengths differ: {len(a)} vs {len(b)}")


def confusion_matrix(pred: Sequence, truth: Sequence) -> tuple[list[str], np.ndarray]:
    """Counts over the sorted union of labels; rows = truth, cols = pred.

    One code_labels over truth and pred together codes both axes alike, and
    one np.bincount over the code pairs fills the matrix.
    """
    _check_lengths(pred, truth)
    both = [np.asarray(truth, dtype=object), np.asarray(pred, dtype=object)]
    names, codes = code_labels(np.concatenate(both))
    k, n = len(names), len(truth)
    counts = np.bincount(codes[:n] * k + codes[n:], minlength=k * k).reshape(k, k)
    return names, counts


def _per_label_accuracy(names: list[str], counts: np.ndarray) -> dict[str, float]:
    """Per reference label: correct frames / frames carrying that label."""
    totals = counts.sum(axis=1).tolist()
    return {name: int(counts[i, i]) / totals[i] for i, name in enumerate(names) if totals[i]}


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-np.sum(p * np.log(p)))


def _nmi(joint: np.ndarray) -> float:
    """I(X,Y) / sqrt(H(X) H(Y)) of the joint counts, rows X and columns Y;
    all-zero rows and columns (labels only the other sequence carries) drop
    out. If exactly one labeling is constant the score is 0 by convention;
    if both are, their partitions coincide and the score is 1."""
    n = int(joint.sum())
    hx = _entropy(joint.sum(axis=1), n)
    hy = _entropy(joint.sum(axis=0), n)
    if hx == 0.0 or hy == 0.0:
        return 1.0 if hx == hy else 0.0
    px = joint.sum(axis=1) / n
    py = joint.sum(axis=0) / n
    pj = joint / n
    mask = pj > 0
    mi = float(np.sum(pj[mask] * (np.log(pj[mask]) - np.log(np.outer(px, py)[mask]))))
    value = mi / np.sqrt(hx * hy)
    return float(min(max(value, 0.0), 1.0))


def silhouette_samples(X, labels: Sequence) -> np.ndarray:
    """Raw per-sample silhouette values in [-1, 1] against cluster means.

    a(i): distance to the mean of the sample's own cluster; b(i): distance
    to the nearest mean of any other cluster; s = (b - a) / max(a, b),
    with s = 0 when the sample coincides with both means.
    """
    data = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=object)
    if data.shape[0] != labels.shape[0]:
        raise ValueError("label count does not match row count")
    names, idx = code_labels(labels)
    if len(names) < 2:
        raise ValueError("need at least 2 distinct clusters")
    means = np.stack([data[idx == j].mean(axis=0) for j in range(len(names))])
    # differenced norms, not the expanded quadratic form: the latter loses
    # ~half the significant digits for samples sitting close to a mean.
    # Each block of rows is differenced into one buffer and squared in place;
    # the row sums are the reduction np.linalg.norm(..., axis=1) runs, so the
    # distances are its bits without its two N x D temporaries per mean.
    n, dim = data.shape
    rows = max(1, SILHOUETTE_ELEMENTS // dim)
    diff = np.empty((min(rows, n), dim))
    dists = np.empty((n, len(means)))
    for start in range(0, n, rows):
        block = data[start : start + rows]
        d = diff[: len(block)]
        for j, m in enumerate(means):
            np.subtract(block, m, out=d)
            np.multiply(d, d, out=d)
            np.sqrt(np.add.reduce(d, axis=1), out=dists[start : start + rows, j])
    a = dists[np.arange(len(labels)), idx]
    others = dists.copy()
    others[np.arange(len(labels)), idx] = np.inf
    b = others.min(axis=1)
    denom = np.maximum(a, b)
    s = np.zeros(len(labels))
    nz = denom > 0
    s[nz] = (b[nz] - a[nz]) / denom[nz]
    return s


def silhouette_index(X, labels: Sequence) -> float:
    """Mean of the normalized per-sample silhouettes (s + 1) / 2, in [0, 1]."""
    s = silhouette_samples(X, labels)
    return float(np.mean((s + 1.0) / 2.0))


def evaluate(
    pred: Sequence,
    truth: Sequence,
    *,
    with_accuracy: bool = True,
    X=None,
    pred_rows: Sequence | None = None,
    truth_rows: Sequence | None = None,
) -> dict:
    """Pooled metrics of one segmentation run, as the dict the report
    files hold: accuracy, nmi, si_pred, si_truth, per_label_accuracy,
    confusion ({"labels", "counts"}; rows truth, columns pred) and
    n_frames_evaluated, in that order. X with row-level labelings gives
    the silhouettes.

    Frames and rows whose reference label is UNANNOTATED are left out of
    every metric except si_pred, which scores the clustering's own geometry
    over all rows. One confusion count over the kept frames gives accuracy,
    per-label accuracy and NMI; with no frame left, accuracy and nmi are
    None. accuracy is also None, and per_label_accuracy empty, when
    predictions carry no label identities (anonymous clusters);
    si_pred / si_truth are None when their labeling is degenerate (fewer
    than two clusters).
    """
    _check_lengths(pred, truth)
    pred, truth = np.asarray(pred, dtype=object), np.asarray(truth, dtype=object)
    kept = truth != UNANNOTATED
    names, counts = confusion_matrix(pred[kept], truth[kept])
    n_frames = int(counts.sum())
    si_pred = si_truth = None
    if X is not None:
        data = np.asarray(X, dtype=float)
        if pred_rows is not None:
            si_pred = _try_silhouette(data, pred_rows)
        if truth_rows is not None:
            truth_rows = np.asarray(truth_rows, dtype=object)
            rows = truth_rows != UNANNOTATED
            si_truth = _try_silhouette(data[rows], truth_rows[rows])
    with_accuracy = with_accuracy and n_frames > 0
    return {
        "accuracy": int(np.trace(counts)) / n_frames if with_accuracy else None,
        "nmi": _nmi(counts.T) if n_frames else None,
        "si_pred": si_pred,
        "si_truth": si_truth,
        "per_label_accuracy": _per_label_accuracy(names, counts) if with_accuracy else {},
        "confusion": {"labels": names, "counts": counts.tolist()},
        "n_frames_evaluated": n_frames,
    }


def _try_silhouette(X, labels) -> float | None:
    try:
        return silhouette_index(X, labels)
    except ValueError:
        return None
