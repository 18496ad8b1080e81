import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinseg.ingest import UNANNOTATED
from kinseg.metrics import (
    SILHOUETTE_ELEMENTS,
    confusion_matrix,
    evaluate,
    silhouette_index,
    silhouette_samples,
)


# The extrinsic scores, each read from one evaluate report.
def accuracy(pred, truth):
    return evaluate(pred, truth)["accuracy"]


def per_label_accuracy(pred, truth):
    return evaluate(pred, truth)["per_label_accuracy"]


def nmi(x, y):
    return evaluate(x, y)["nmi"]


def brute_nmi(x, y):
    # Counter-based reimplementation straight from the definition.
    n = len(x)
    px = Counter(x)
    py = Counter(y)
    pxy = Counter(zip(x, y))
    hx = -sum(c / n * math.log(c / n) for c in px.values())
    hy = -sum(c / n * math.log(c / n) for c in py.values())
    if hx == 0.0 or hy == 0.0:
        return 1.0 if hx == hy else 0.0
    mi = sum(
        c / n * math.log((c / n) / ((px[a] / n) * (py[b] / n)))
        for (a, b), c in pxy.items()
    )
    return mi / math.sqrt(hx * hy)


def brute_silhouette(X, labels):
    # Exhaustive mean-based silhouette, one sample at a time.
    X = np.asarray(X, dtype=float)
    names = sorted(set(labels))
    means = {c: X[[l == c for l in labels]].mean(axis=0) for c in names}
    scores = []
    for i, lab in enumerate(labels):
        a = np.linalg.norm(X[i] - means[lab])
        b = min(np.linalg.norm(X[i] - means[c]) for c in names if c != lab)
        m = max(a, b)
        scores.append(0.0 if m == 0 else (b - a) / m)
    return float(np.mean([(s + 1) / 2 for s in scores]))


class TestAccuracy:
    def test_identical(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert accuracy(["a", "a"], ["b", "b"]) == 0.0

    def test_three_quarters(self):
        assert accuracy(list("ABBB"), list("AABB")) == 0.75

    def test_length_mismatch(self, pipeline_calls):
        # evaluate does not compare the lengths of its frame labelings:
        # RunResult.score passes each scored demonstration's frames of both.
        for (pred, truth), _ in pipeline_calls["evaluate"]:
            assert len(pred) == len(truth) > 0

    def test_empty(self):
        assert accuracy([], []) is None

    def test_one_iff_identical(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = [str(v) for v in rng.integers(0, 3, 10)]
            y = [str(v) for v in rng.integers(0, 3, 10)]
            assert (accuracy(x, y) == 1.0) == (x == y)


class TestNmi:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            x = [str(v) for v in rng.integers(0, 4, n)]
            y = [str(v) for v in rng.integers(0, 3, n)]
            expected = min(max(brute_nmi(x, y), 0.0), 1.0)
            assert abs(nmi(x, y) - expected) <= 1e-10

    def test_identical_sequences(self):
        assert nmi(list("aabbc"), list("aabbc")) == 1.0

    def test_bijective_relabeling(self):
        rng = np.random.default_rng(2)
        x = [str(v) for v in rng.integers(0, 5, 200)]
        for i in range(50):
            perm_rng = np.random.default_rng(100 + i)
            names = sorted(set(x))
            perm = perm_rng.permutation(len(names))
            table = {a: f"relabeled_{perm[j]}" for j, a in enumerate(names)}
            assert abs(nmi(x, [table[v] for v in x]) - 1.0) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        x = [str(v) for v in rng.integers(0, 3, 50)]
        y = [str(v) for v in rng.integers(0, 4, 50)]
        assert nmi(x, y) == nmi(y, x)

    def test_one_constant(self):
        assert nmi(["a"] * 5, list("abcde")) == 0.0
        assert nmi(list("abcde"), ["a"] * 5) == 0.0

    def test_both_constant(self):
        assert nmi(["a"] * 5, ["z"] * 5) == 1.0

    def test_independent_uniform(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 4, 100_000)
        y = rng.integers(0, 4, 100_000)
        assert nmi(list(x), list(y)) < 0.01

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = [str(v) for v in rng.integers(0, 3, 15)]
            y = [str(v) for v in rng.integers(0, 3, 15)]
            assert 0.0 <= nmi(x, y) <= 1.0

    def test_length_mismatch(self, pipeline_calls):
        # nmi is read from confusion_matrix's counts, which pair the two
        # labelings frame by frame: evaluate passes them of equal length.
        for (pred, truth), _ in pipeline_calls["confusion_matrix"]:
            assert len(pred) == len(truth) > 0


class TestSilhouette:
    def test_label_count_must_match_rows(self, pipeline_calls):
        # silhouette_samples does not count its labels against its rows:
        # RunResult.score passes views of X and of its row labelings that
        # cover the same span.
        for (X, labels), _ in pipeline_calls["silhouette_samples"]:
            assert X.ndim == 2 and len(labels) == len(X) > 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(4, 21))
            k = int(rng.integers(2, 4))
            labels = [str(rng.integers(0, k)) for _ in range(n)]
            while len(set(labels)) < 2:
                labels[0] = "other"
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            assert abs(
                silhouette_index(X, labels) - brute_silhouette(X, labels)
            ) <= 1e-12

    @pytest.mark.parametrize("dim", [3, 96])
    def test_blocked_distances_equal_the_norm_form(self, dim):
        # silhouette_samples with np.linalg.norm over all rows per mean, the
        # form the blocked distances replaced; the rows span three blocks
        rng = np.random.default_rng(dim)
        n = 2 * (SILHOUETTE_ELEMENTS // dim) + 7
        X = rng.normal(size=(n, dim)) * rng.uniform(0.01, 100, dim)
        labels = rng.integers(0, 5, n).astype(str)
        names, idx = np.unique(labels, return_inverse=True)
        means = np.stack([X[idx == j].mean(axis=0) for j in range(len(names))])
        dists = np.stack([np.linalg.norm(X - m[None, :], axis=1) for m in means], axis=1)
        rows = np.arange(n)
        a = dists[rows, idx]
        dists[rows, idx] = np.inf
        b = dists.min(axis=1)
        want = (b - a) / np.maximum(a, b)
        assert np.array_equal(silhouette_samples(X, labels), want)

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 1200),
        dim=st.integers(1, 120),
        share=st.floats(0.0, 1.0),
    )
    def test_unannotated_rows_are_left_out(self, seed, n, dim, share):
        # the masked rows change which rows share a distance block, not the
        # bits of any kept row's value
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, dim)) * rng.uniform(0.01, 100, dim)
        labels = rng.choice(["a", "b", "c"], n).astype(object)
        labels[rng.random(n) < share] = UNANNOTATED
        kept = labels != UNANNOTATED
        try:
            want = silhouette_samples(X[kept], labels[kept])
        except ValueError:
            with pytest.raises(ValueError, match="at least 2 distinct clusters"):
                silhouette_samples(X, labels)
            return
        assert silhouette_samples(X, labels).tobytes() == want.tobytes()

    def test_collapsed_clusters_score_one(self):
        X = np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]] * 3)
        labels = ["a"] * 3 + ["b"] * 3
        assert silhouette_index(X, labels) == 1.0

    def test_single_sample_worst_case(self):
        # the point at 4 labeled A sits exactly on B's mean while A's mean
        # is at 0: a=4, b=0, s=-1 (normalized 0)
        X = np.array([[4.0], [-4.0], [4.0], [4.0]])
        labels = ["A", "A", "B", "B"]
        s = silhouette_samples(X, labels)
        assert s[0] == -1.0

    def test_zero_over_zero_is_zero(self):
        X = np.zeros((4, 2))
        s = silhouette_samples(X, ["a", "a", "b", "b"])
        assert np.array_equal(s, np.zeros(4))

    def test_single_cluster_errors(self):
        with pytest.raises(ValueError):
            silhouette_index(np.ones((3, 2)), ["a", "a", "a"])

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(15, 3))
        labels = [str(v) for v in rng.integers(0, 3, 15)]
        shifted = X + np.array([100.0, -50.0, 3.0])
        assert abs(
            silhouette_index(X, labels) - silhouette_index(shifted, labels)
        ) < 1e-9

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(15, 3))
        labels = [str(v) for v in rng.integers(0, 2, 15)]
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert abs(
            silhouette_index(X, labels) - silhouette_index(X @ Q, labels)
        ) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 2))
        labels = [str(v) for v in rng.integers(0, 2, 12)]
        assert abs(
            silhouette_index(X, labels) - silhouette_index(7.3 * X, labels)
        ) < 1e-9


class TestPerLabelAccuracy:
    def test_identical(self):
        out = per_label_accuracy(list("aabb"), list("aabb"))
        assert out == {"a": 1.0, "b": 1.0}

    def test_example(self):
        out = per_label_accuracy(list("ABB"), list("AAB"))
        assert out == {"A": 0.5, "B": 1.0}

    def test_weighted_mean_equals_accuracy(self):
        rng = np.random.default_rng(10)
        pred = [str(v) for v in rng.integers(0, 3, 200)]
        truth = [str(v) for v in rng.integers(0, 3, 200)]
        per = per_label_accuracy(pred, truth)
        counts = Counter(truth)
        weighted = sum(per[t] * counts[t] for t in per) / len(truth)
        assert abs(weighted - accuracy(pred, truth)) < 1e-12

    def test_sorted_keys(self):
        out = per_label_accuracy(list("cab"), list("cba"))
        assert list(out) == ["a", "b", "c"]


class TestConfusionMatrix:
    def test_sorted_union_axis(self):
        names, counts = confusion_matrix(["x"], ["y"])
        assert names == ["x", "y"]
        assert counts[1, 0] == 1  # truth y, predicted x

    def test_trace_over_total_is_accuracy(self):
        rng = np.random.default_rng(11)
        pred = [str(v) for v in rng.integers(0, 4, 300)]
        truth = [str(v) for v in rng.integers(0, 4, 300)]
        _, counts = confusion_matrix(pred, truth)
        assert abs(np.trace(counts) / counts.sum() - accuracy(pred, truth)) < 1e-12

    def test_row_sums_are_truth_counts(self):
        pred = list("aabbb")
        truth = list("ababa")
        names, counts = confusion_matrix(pred, truth)
        truth_counts = Counter(truth)
        for i, name in enumerate(names):
            assert counts[i].sum() == truth_counts[name]


class TestEvaluationReport:
    def test_exact_key_set_and_order(self):
        report = evaluate(list("ab"), list("ab"))
        doc = json.loads(json.dumps(report))
        assert list(doc) == [
            "accuracy",
            "nmi",
            "si_pred",
            "si_truth",
            "per_label_accuracy",
            "confusion",
            "n_frames_evaluated",
        ]
        assert doc["accuracy"] == 1.0
        assert doc["si_pred"] is None
        assert doc["confusion"] == {"labels": ["a", "b"], "counts": [[1, 0], [0, 1]]}
        assert doc["n_frames_evaluated"] == 2

    def test_without_accuracy(self):
        report = evaluate(["c0", "c1"], ["a", "b"], with_accuracy=False)
        doc = json.loads(json.dumps(report))
        assert doc["accuracy"] is None
        assert doc["per_label_accuracy"] == {}
        assert doc["nmi"] is not None

    def test_with_silhouettes(self):
        X = np.array([[0.0], [0.1], [9.0], [9.1]])
        rows = ["a", "a", "b", "b"]
        report = evaluate(
            rows, rows, X=X, pred_rows=rows, truth_rows=rows
        )
        assert report["si_pred"] is not None
        assert report["si_pred"] == report["si_truth"]

    def test_degenerate_silhouette_is_null(self):
        X = np.ones((3, 1))
        rows = ["a", "a", "a"]
        report = evaluate(rows, rows, X=X, pred_rows=rows, truth_rows=rows)
        assert report["si_pred"] is None
