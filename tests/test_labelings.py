"""Labelings as object arrays, checked against per-frame references.

The reference functions below are the list-of-str implementations that the
object-array code replaced, kept verbatim apart from their names. Each
property asserts exact equality with them: equal lists and dicts, and ==
on floats, since the new code is meant to give the same bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinseg.gmm import transition_points
from kinseg.ingest import (
    UNANNOTATED,
    Segment,
    Transcript,
    compress_labels,
    expand_labels,
)
from kinseg.metrics import (
    accuracy,
    confusion_matrix,
    evaluate,
    nmi,
    per_label_accuracy,
)
from kinseg.preprocess import FeatureMatrix, augment, labels_at_rows, rows_to_frames

# ------------------------------------------------------------ references


def ref_expand_labels(t, n_frames, fill=""):
    if n_frames < 0:
        raise ValueError(f"trajectory length must be >= 0, got {n_frames}")
    labels = [fill] * n_frames
    for s in t.segments:
        if s.end > n_frames:
            raise ValueError(f"segment {s} exceeds trajectory length {n_frames}")
        for i in range(s.start - 1, s.end):
            labels[i] = s.label
    return labels


def ref_compress_labels(labels, fill=""):
    segments = []
    start = None
    current = None
    for i, label in enumerate(labels):
        if label != current:
            if current is not None and current != fill:
                segments.append(Segment(start + 1, i, current))
            start, current = i, label
        n = i + 1
    if current is not None and current != fill:
        segments.append(Segment(start + 1, n, current))
    return Transcript(tuple(segments))


def ref_labels_at_rows(frame_labels, fm):
    return [frame_labels[fm.frame_index(i)] for i in range(fm.n_rows)]


def ref_rows_to_frames(row_labels, X, n_frames):
    n_rows = len(row_labels)
    if n_rows == 0:
        raise ValueError("no row labels to project")
    out = []
    for f in range(n_frames):
        i = (f - X.frame_origin) // X.frame_stride
        out.append(row_labels[min(max(i, 0), n_rows - 1)])
    return out


def ref_transition_points(labels, data):
    labels = list(labels)
    if len(labels) != data.shape[0]:
        raise ValueError("label count does not match row count")
    return [
        (t, data[t + 1], labels[t], labels[t + 1])
        for t in range(len(labels) - 1)
        if labels[t] != labels[t + 1]
    ]


def _ref_check_lengths(a, b):
    if len(a) != len(b):
        raise ValueError(f"sequence lengths differ: {len(a)} vs {len(b)}")


def ref_accuracy(pred, truth):
    _ref_check_lengths(pred, truth)
    if len(pred) == 0:
        raise ValueError("empty sequences")
    matches = sum(p == t for p, t in zip(pred, truth))
    return matches / len(pred)


def _ref_entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-np.sum(p * np.log(p)))


def ref_nmi(x, y):
    _ref_check_lengths(x, y)
    n = len(x)
    if n == 0:
        raise ValueError("empty sequences")
    xs = np.asarray(x, dtype=object)
    ys = np.asarray(y, dtype=object)
    _, xi = np.unique(xs, return_inverse=True)
    _, yi = np.unique(ys, return_inverse=True)
    kx, ky = xi.max() + 1, yi.max() + 1
    joint = np.zeros((kx, ky))
    np.add.at(joint, (xi, yi), 1.0)
    hx = _ref_entropy(joint.sum(axis=1), n)
    hy = _ref_entropy(joint.sum(axis=0), n)
    if hx == 0.0 or hy == 0.0:
        return 1.0 if hx == hy else 0.0
    px = joint.sum(axis=1) / n
    py = joint.sum(axis=0) / n
    pj = joint / n
    mask = pj > 0
    mi = float(np.sum(pj[mask] * (np.log(pj[mask]) - np.log(np.outer(px, py)[mask]))))
    value = mi / np.sqrt(hx * hy)
    return float(min(max(value, 0.0), 1.0))


def ref_per_label_accuracy(pred, truth):
    _ref_check_lengths(pred, truth)
    if len(pred) == 0:
        raise ValueError("empty sequences")
    correct = {}
    total = {}
    for p, t in zip(pred, truth):
        total[t] = total.get(t, 0) + 1
        if p == t:
            correct[t] = correct.get(t, 0) + 1
    return {t: correct.get(t, 0) / n for t, n in sorted(total.items())}


def ref_confusion_matrix(pred, truth):
    _ref_check_lengths(pred, truth)
    names = sorted(set(pred) | set(truth))
    index = {name: i for i, name in enumerate(names)}
    counts = np.zeros((len(names), len(names)), dtype=int)
    for p, t in zip(pred, truth):
        counts[index[t], index[p]] += 1
    return names, counts


# ------------------------------------------------------------ strategies

# "cluster_10" sorts before "cluster_2": the codes must follow name order.
NAMES = [UNANNOTATED, "G1", "G2", "G11", "cluster_2", "cluster_10"]


@st.composite
def alphabets(draw, gaps=True):
    pool = NAMES if gaps else NAMES[1:]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))


@st.composite
def labelings(draw, min_size=0, max_size=80, gaps=True):
    """Runs of labels from a drawn alphabet; a one-name alphabet gives a
    single-label labeling, and UNANNOTATED runs are gaps."""
    alphabet = draw(alphabets(gaps))
    runs = draw(
        st.lists(st.tuples(st.sampled_from(alphabet), st.integers(1, 6)), max_size=20)
    )
    labels = [label for label, length in runs for _ in range(length)][:max_size]
    while len(labels) < min_size:
        labels.append(alphabet[0])
    return labels


@st.composite
def labeling_pairs(draw, min_size=0):
    """(pred, truth) of equal length; pred is drawn frame by frame."""
    truth = draw(labelings(min_size=min_size))
    alphabet = draw(alphabets())
    pred = draw(st.lists(st.sampled_from(alphabet), min_size=len(truth), max_size=len(truth)))
    return pred, truth


@st.composite
def transcripts(draw):
    """Gap-bearing transcripts; adjacent segments may share a label."""
    segments = []
    pos = 1
    for label in draw(st.lists(st.sampled_from(NAMES[1:]), max_size=12)):
        pos += draw(st.integers(0, 4))  # gap before the segment
        end = pos + draw(st.integers(0, 6))
        segments.append(Segment(pos, end, label))
        pos = end + 1
    return Transcript(tuple(segments))


def _grid(origin, stride, window, n_rows):
    fm = FeatureMatrix(np.zeros((n_rows + window, 1)), 10.0,
                       frame_origin=origin, frame_stride=stride)
    return augment(fm, window)


# ------------------------------------------------- equality with references


class TestAgainstReferences:
    @settings(max_examples=100, deadline=None)
    @given(t=transcripts(), extra=st.integers(-3, 5))
    def test_expand_labels(self, t, extra):
        n = (t.segments[-1].end if t.segments else 0) + extra
        if extra < 0:
            match = f"must be >= 0, got {n}" if n < 0 else "exceeds"
            with pytest.raises(ValueError, match=match):
                ref_expand_labels(t, n)
            with pytest.raises(ValueError, match=match):
                expand_labels(t, n)
            return
        out = expand_labels(t, n)
        assert out.dtype == object and out.shape == (n,)
        assert list(out) == ref_expand_labels(t, n)

    @settings(max_examples=100, deadline=None)
    @given(labels=labelings())
    def test_compress_labels(self, labels):
        expected = ref_compress_labels(labels)
        assert compress_labels(labels) == expected
        assert compress_labels(np.array(labels, dtype=object)) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        origin=st.integers(0, 20),
        stride=st.integers(1, 5),
        window=st.integers(0, 3),
        n_rows=st.integers(1, 25),
        frames=labelings(),
    )
    def test_labels_at_rows(self, origin, stride, window, n_rows, frames):
        X = _grid(origin, stride, window, n_rows)
        if X.frame_index(X.n_rows - 1) >= len(frames):
            with pytest.raises(IndexError):
                ref_labels_at_rows(frames, X)
            with pytest.raises(IndexError):
                labels_at_rows(frames, X)
            return
        out = labels_at_rows(frames, X)
        assert out.dtype == object
        assert list(out) == ref_labels_at_rows(frames, X)

    @settings(max_examples=100, deadline=None)
    @given(
        origin=st.integers(0, 20),
        stride=st.integers(1, 5),
        n_frames=st.integers(0, 90),
        rows=labelings(max_size=30),
    )
    def test_rows_to_frames(self, origin, stride, n_frames, rows):
        X = _grid(origin, stride, 0, max(len(rows), 1))
        if not rows:
            with pytest.raises(ValueError):
                rows_to_frames(rows, X, n_frames)
            return
        out = rows_to_frames(rows, X, n_frames)
        assert out.dtype == object
        assert list(out) == ref_rows_to_frames(rows, X, n_frames)

    @settings(max_examples=100, deadline=None)
    @given(labels=labelings(gaps=False), seed=st.integers(0, 2**16))
    def test_transition_points(self, labels, seed):
        data = np.random.default_rng(seed).normal(size=(len(labels), 2))
        got = [(p.row, p.vector, p.from_label, p.to_label)
               for p in transition_points(labels, data)]
        expected = ref_transition_points(labels, data)
        assert [(r, a, b) for r, _, a, b in got] == [(r, a, b) for r, _, a, b in expected]
        assert all(type(r) is int for r, *_ in got)
        for (_, v, *_), (_, w, *_) in zip(got, expected):
            assert np.array_equal(v, w)

    @settings(max_examples=100, deadline=None)
    @given(pair=labeling_pairs())
    def test_extrinsic_metrics(self, pair):
        pred, truth = pair
        names, counts = confusion_matrix(pred, truth)
        ref_names, ref_counts = ref_confusion_matrix(pred, truth)
        assert names == ref_names
        assert counts.dtype.kind == "i" and np.array_equal(counts, ref_counts)
        if not truth:
            for fn in (accuracy, per_label_accuracy, nmi):
                with pytest.raises(ValueError, match="empty"):
                    fn(pred, truth)
            return
        assert accuracy(pred, truth) == ref_accuracy(pred, truth)
        assert per_label_accuracy(pred, truth) == ref_per_label_accuracy(pred, truth)
        assert nmi(pred, truth) == ref_nmi(pred, truth)
        assert nmi(truth, pred) == ref_nmi(truth, pred)

    @settings(max_examples=100, deadline=None)
    @given(pair=labeling_pairs())
    def test_evaluate_scores_the_annotated_frames(self, pair):
        pred, truth = pair
        kept = [i for i, t in enumerate(truth) if t != UNANNOTATED]
        p = [pred[i] for i in kept]
        t = [truth[i] for i in kept]
        report = evaluate(pred, truth)
        names, counts = ref_confusion_matrix(p, t)
        assert report.confusion_labels == names
        assert np.array_equal(report.confusion, counts)
        assert report.n_frames_evaluated == len(kept)
        if not kept:
            assert report.accuracy is None and report.nmi is None
            assert report.per_label_accuracy == {}
            return
        assert report.accuracy == ref_accuracy(p, t)
        assert report.per_label_accuracy == ref_per_label_accuracy(p, t)
        assert report.nmi == ref_nmi(p, t)

    def test_length_mismatch(self):
        for fn in (accuracy, per_label_accuracy, nmi, confusion_matrix, evaluate):
            with pytest.raises(ValueError, match="lengths differ"):
                fn(["G1"], ["G1", "G2"])


# ------------------------------------------------------ labeling properties


def _merge_touching(t):
    """Segments that touch and share a label become one."""
    merged = []
    for s in t.segments:
        if merged and merged[-1].label == s.label and merged[-1].end + 1 == s.start:
            merged[-1] = Segment(merged[-1].start, s.end, s.label)
        else:
            merged.append(s)
    return Transcript(tuple(merged))


class TestLabelingProperties:
    @settings(max_examples=100, deadline=None)
    @given(t=transcripts(), tail=st.integers(0, 5))
    def test_expand_compress_round_trip(self, t, tail):
        n = (t.segments[-1].end if t.segments else 0) + tail
        assert compress_labels(expand_labels(t, n)) == _merge_touching(t)

    @settings(max_examples=100, deadline=None)
    @given(pair=labeling_pairs(min_size=1), data=st.data())
    def test_nmi_invariant_under_bijective_relabeling(self, pair, data):
        x, y = pair
        base = nmi(x, y)
        for which in (0, 1):
            seq = (x, y)[which]
            names = sorted(set(seq))
            targets = data.draw(st.permutations(
                names + [f"relabeled_{i}" for i in range(len(names))]
            ))
            table = dict(zip(names, targets))
            renamed = [table[v] for v in seq]
            args = (renamed, y) if which == 0 else (x, renamed)
            assert math.isclose(nmi(*args), base, rel_tol=1e-12, abs_tol=1e-12)
