import json
import os
import pathlib
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg

from kinseg.gmm import (
    GATHER_ELEMENTS,
    ROW_BLOCK,
    GmmModel,
    NumericalError,
    _log_densities,
    _logsumexp_rows,
    _scatter,
    em_fit,
    kmeans_init,
    predict_labels,
    regularize_covariance,
    save_model,
    transition_points,
    weak_init,
)
from modeljson import read_model


def mixture(*components):
    """GmmModel from one (mean, covariance, weight[, label]) per component."""
    padded = [tuple(c) + (None,) * (4 - len(c)) for c in components]
    means, covariances, weights, labels = zip(*padded)
    return GmmModel(
        np.array(means, dtype=float),
        np.array(covariances, dtype=float),
        np.array(weights, dtype=float),
        labels,
    )


def log_densities(model, X):
    return _log_densities(
        np.asarray(X, dtype=float), model.means, model.covariances, model.weights
    )


def log_likelihood(model, X):
    """Total log-density of the data under the mixture, from the kernel."""
    return float(np.sum(_logsumexp_rows(log_densities(model, X))))


def responsibilities(model, X):
    """Posterior component probabilities per row, from the kernel."""
    logs = log_densities(model, X)
    return np.exp(logs - _logsumexp_rows(logs)[:, None])


def naive_density(model, x):
    # Direct-formula mixture density, kept independent of the log-domain path.
    total = 0.0
    d = model.dimension
    for mean, covariance, weight in zip(model.means, model.covariances, model.weights):
        diff = x - mean
        inv = np.linalg.inv(covariance)
        det = np.linalg.det(covariance)
        e = np.exp(-0.5 * diff @ inv @ diff)
        total += weight * e / np.sqrt((2 * np.pi) ** d * det)
    return total


def naive_log_likelihood(model, X):
    return sum(np.log(naive_density(model, x)) for x in np.asarray(X))


def naive_responsibilities(model, X):
    out = np.zeros((len(X), model.n_components))
    d = model.dimension
    for i, x in enumerate(np.asarray(X)):
        for k, (mean, covariance) in enumerate(zip(model.means, model.covariances)):
            diff = x - mean
            inv = np.linalg.inv(covariance)
            det = np.linalg.det(covariance)
            out[i, k] = (
                model.weights[k]
                * np.exp(-0.5 * diff @ inv @ diff)
                / np.sqrt((2 * np.pi) ** d * det)
            )
        out[i] /= out[i].sum()
    return out


def random_model(rng, K, d, labels=None):
    comps = []
    w = rng.uniform(0.5, 2.0, K)
    w /= w.sum()
    for k in range(K):
        A = rng.normal(size=(d, d))
        comps.append(
            (
                rng.normal(0, 3, d),
                A @ A.T + 0.5 * np.eye(d),
                w[k],
                None if labels is None else labels[k],
            )
        )
    return mixture(*comps)


class TestDensities:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for d, K in [(1, 2), (3, 3), (4, 3)]:
            model = random_model(rng, K, d)
            X = rng.normal(0, 3, (50, d))
            assert abs(
                log_likelihood(model, X) - naive_log_likelihood(model, X)
            ) <= 1e-10 * max(1.0, abs(naive_log_likelihood(model, X)))

    def test_single_standard_normal_at_zero(self):
        model = mixture((np.zeros(1), np.eye(1), 1.0))
        assert abs(log_likelihood(model, np.zeros((1, 1))) - np.log(1 / np.sqrt(2 * np.pi))) < 1e-12

    def test_row_duplication_doubles(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 2, 2)
        X = rng.normal(size=(10, 2))
        ll = log_likelihood(model, X)
        assert abs(log_likelihood(model, np.vstack([X, X])) - 2 * ll) < 1e-9

    def test_responsibilities_match_naive(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 4)
        X = rng.normal(0, 3, (200, 4))
        assert np.abs(
            responsibilities(model, X) - naive_responsibilities(model, X)
        ).max() < 1e-10

    def test_responsibilities_normalized(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3, 2)
        X = rng.normal(0, 50, (40, 2))  # far tails stress the log domain
        r = responsibilities(model, X)
        assert np.abs(r.sum(axis=1) - 1.0).max() < 1e-9

    def test_dimension_mismatch(self, pipeline_calls):
        # gmm does not compare the rows' width with the model's: cli fits,
        # inits and predicts on slices of one X, so the widths are equal.
        (rows, init), _ = pipeline_calls["em_fit"][0]
        assert rows.shape[1] == init.dimension
        for (model, rows), _ in pipeline_calls["predict_labels"]:
            assert rows.shape[1] == model.dimension == init.dimension

    def test_singular_covariance_raises(self):
        model = mixture((np.zeros(2), np.zeros((2, 2)), 1.0))
        with pytest.raises(NumericalError):
            log_likelihood(model, np.ones((3, 2)))


class TestRegularize:
    def test_adds_relative_ridge(self):
        cov = np.diag([1.0, 3.0])
        reg = regularize_covariance(cov)
        assert np.allclose(reg, cov + 2e-6 * np.eye(2))

    def test_zero_matrix_gets_floor(self):
        reg = regularize_covariance(np.zeros((2, 2)))
        np.linalg.cholesky(reg)

    def test_symmetrizes(self):
        reg = regularize_covariance(np.array([[1.0, 0.5], [0.1, 1.0]]))
        assert np.array_equal(reg, reg.T)


class TestWeakInit:
    def test_single_class(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        model = weak_init(X, ["g"] * 20)
        assert model.n_components == 1
        assert model.weights[0] == 1.0
        assert model.labels[0] == "g"
        assert np.allclose(model.means[0], X.mean(axis=0))

    def test_equal_counts_equal_weights(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 2))
        model = weak_init(X, ["a"] * 5 + ["b"] * 5)
        assert np.allclose(model.weights, [0.5, 0.5])

    def test_pooled_statistics(self):
        rng = np.random.default_rng(7)
        Xa, Xb = rng.normal(size=(8, 2)), rng.normal(size=(6, 2))
        la = ["p"] * 5 + ["q"] * 3
        lb = ["q"] * 2 + ["p"] * 4
        model = weak_init(np.vstack([Xa, Xb]), la + lb)
        assert list(model.labels) == ["p", "q"]
        rows_p = np.vstack([Xa[:5], Xb[2:]])
        assert np.allclose(model.means[0], rows_p.mean(axis=0))
        emp = np.cov(rows_p.T, bias=True)
        eps = 1e-6 * np.mean(np.diag(emp))
        assert np.allclose(model.covariances[0], emp + eps * np.eye(2))
        assert abs(model.weights[0] - 9 / 14) < 1e-12

    def test_matches_dense_reference_over_two_gather_chunks(self):
        # At D=96 the scatter gathers 682 rows at a time; "long" needs two.
        dim, sizes = 96, {"long": GATHER_ELEMENTS // 96 + 100, "short": 150}
        rng = np.random.default_rng(12)
        labels = rng.permutation(np.repeat(list(sizes), list(sizes.values())))
        X = rng.normal(1.0, 2.0, (len(labels), dim))
        model = weak_init(X, labels)
        assert list(model.labels) == ["long", "short"]
        for k, name in enumerate(model.labels):
            rows = X[labels == name]
            mean = rows.mean(axis=0)
            emp = (rows - mean).T @ (rows - mean) / len(rows)
            want = emp + 1e-6 * np.mean(np.diag(emp)) * np.eye(dim)
            assert rel_err(model.means[k], mean) <= 1e-12
            assert rel_err(model.covariances[k], want) <= 1e-12
        counts = np.array(list(sizes.values()))
        assert np.array_equal(model.weights, counts / len(labels))

    def test_component_count_matches_dictionary(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(size=(12, 2)), rng.normal(size=(6, 2)),
                       rng.normal(size=(4, 2))])
        labels = ["a", "b", "c"] * 4 + ["b", "c"] * 3 + ["a"] * 4
        assert weak_init(X, labels).n_components == 3

    def test_small_class_names_it(self):
        # 'big' has 2 rows at dimension 2, so it warns before 'tiny' raises
        with pytest.warns(RuntimeWarning, match="'big'"), pytest.raises(ValueError, match="'tiny'"):
            weak_init(np.ones((3, 2)), ["big", "big", "tiny"])

    def test_label_count_mismatch(self, pipeline_calls):
        # weak_init does not count its labels against its rows: cli cuts
        # both from the init demonstrations with one mask.
        for (rows, labels), _ in pipeline_calls["weak_init"]:
            assert len(labels) == len(rows) > 0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(9)
        model = weak_init(rng.normal(size=(30, 2)), ["x", "y", "z"] * 10)
        assert abs(model.weights.sum() - 1.0) < 1e-9


class TestKmeansInit:
    def test_single_cluster_global_mean(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(25, 3))
        model = kmeans_init(X, 1, seed=0)
        assert np.allclose(model.means[0], X.mean(axis=0))
        assert model.weights[0] == 1.0

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(11)
        X = np.vstack(
            [rng.normal(-4, 0.3, (100, 2)), rng.normal(+4, 0.3, (100, 2))]
        )
        model = kmeans_init(X, 2, seed=3)
        means = sorted(model.means[:, 0])
        assert abs(means[0] - (-4)) < 0.1
        assert abs(means[1] - 4) < 0.1

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 3))
        a = kmeans_init(X, 3, seed=7)
        b = kmeans_init(X, 3, seed=7)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covariances, b.covariances)
        assert np.array_equal(a.weights, b.weights)

    def test_labels_unset(self):
        rng = np.random.default_rng(13)
        model = kmeans_init(rng.normal(size=(20, 2)), 2, seed=0)
        assert all(label is None for label in model.labels)
        assert not model.has_labels()

    def test_k_equals_n(self):
        rng = np.random.default_rng(14)
        model = kmeans_init(rng.normal(size=(5, 2)), 5, seed=0)
        assert model.n_components == 5
        assert abs(model.weights.sum() - 1.0) < 1e-9

    def test_duplicate_points_dont_crash(self):
        X = np.array([[0.0, 0.0]] * 6 + [[5.0, 5.0]] * 6)
        model = kmeans_init(X, 2, seed=1)
        assert model.n_components == 2

    def test_more_components_than_rows(self):
        # the library's one check of k <= rows; the CLI checks it before the run
        with pytest.raises(NumericalError, match="^cannot repopulate empty cluster$"):
            kmeans_init(np.arange(6.0).reshape(3, 2), 4, seed=0)


class TestEmFit:
    def test_two_component_recovery(self):
        rng = np.random.default_rng(15)
        X = np.concatenate(
            [rng.normal(-5, 1, 400), rng.normal(+5, 1, 400)]
        ).reshape(-1, 1)
        init = mixture(
            (np.array([-1.0]), np.array([[4.0]]), 0.5, "neg"),
            (np.array([+1.0]), np.array([[4.0]]), 0.5, "pos"),
        )
        model = em_fit(X, init, tol=1e-8, max_iter=300)
        means = model.means[:, 0]
        assert abs(means[0] + 5) < 0.2
        assert abs(means[1] - 5) < 0.2
        assert list(model.labels) == ["neg", "pos"]

    def test_fixed_point(self):
        rng = np.random.default_rng(16)
        X = np.vstack(
            [rng.normal(-3, 1, (200, 2)), rng.normal(3, 1, (200, 2))]
        )
        first = em_fit(X, kmeans_init(X, 2, seed=0), tol=1e-6, max_iter=300)
        second = em_fit(X, first, tol=1e-6, max_iter=300)
        assert len(second.fit_trace) <= 2
        if len(second.fit_trace) == 2:
            a, b = second.fit_trace
            assert abs(b - a) <= 1e-6 * max(abs(a), 1.0)

    def test_monotone_trace_random_problems(self):
        rng = np.random.default_rng(17)
        for i in range(10):
            d = int(rng.integers(1, 4))
            K = int(rng.integers(1, 4))
            X = rng.normal(0, 2, (int(rng.integers(K * 5, 300)), d))
            model = em_fit(X, kmeans_init(X, K, seed=i), tol=1e-7, max_iter=200)
            trace = model.fit_trace
            assert len(trace) >= 1
            assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))

    def test_weights_stay_on_simplex(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(100, 2))
        model = em_fit(X, kmeans_init(X, 3, seed=2), tol=1e-6, max_iter=50)
        assert abs(model.weights.sum() - 1.0) < 1e-9
        assert np.all(model.weights > 0)

    def test_starved_component_freezes(self):
        # one component sits hopelessly far away: its mass underflows and
        # its parameters must survive untouched instead of going NaN
        rng = np.random.default_rng(19)
        X = rng.normal(0, 1, (80, 1))
        far = (np.array([1e4]), np.array([[1e-2]]), 0.5, "far")
        near = (np.array([0.5]), np.array([[2.0]]), 0.5, "near")
        model = em_fit(X, mixture(near, far), tol=1e-8, max_iter=40)
        assert np.array_equal(model.means[1], [1e4])
        assert np.isfinite(model.fit_trace).all()
        assert abs(model.weights.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("max_iter", [0, 5])
    def test_non_finite_rows(self, value, max_iter):
        init = mixture((np.zeros(1), np.eye(1), 1.0, "only"))
        X = np.array([[0.0], [1.0], [value], [value]])
        with pytest.raises(ValueError, match="^row 2 is not finite$"):
            em_fit(X, init, tol=1e-6, max_iter=max_iter)

    def test_likelihood_that_overflows(self):
        # finite rows whose squared distance overflows reach the
        # likelihood check; numpy warns on -inf - -inf on the way
        init = mixture((np.zeros(1), np.eye(1), 1.0, "only"))
        X = np.array([[0.0], [1e300], [1.0]])
        with warnings.catch_warnings(), pytest.raises(
            NumericalError, match="^non-finite log-likelihood at iteration 0$"
        ):
            warnings.simplefilter("ignore", RuntimeWarning)
            em_fit(X, init, tol=1e-6, max_iter=5)

    def test_dimension_mismatch(self):
        init = random_model(np.random.default_rng(20), 2, 3)
        with pytest.raises(ValueError, match="dimension"):
            em_fit(np.ones((10, 2)), init, tol=1e-6, max_iter=10)

    def test_init_not_mutated(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(50, 2))
        init = kmeans_init(X, 2, seed=0)
        before = init.means.copy()
        em_fit(X, init, tol=1e-6, max_iter=20)
        assert np.array_equal(init.means, before)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(120, 3))
        a = em_fit(X, kmeans_init(X, 2, seed=5), tol=1e-6, max_iter=100)
        b = em_fit(X, kmeans_init(X, 2, seed=5), tol=1e-6, max_iter=100)
        assert a.fit_trace == b.fit_trace
        assert np.array_equal(a.covariances, b.covariances)

    @pytest.mark.parametrize("init_method", ["weak", "kmeans"])
    @pytest.mark.parametrize("max_iter, converged", [(0, False), (3, False), (300, True)])
    def test_fit_record_is_the_prediction(self, init_method, max_iter, converged):
        # EM ends on an E-step under the model it returns: the one tol stopped
        # at, or one more at max_iter, which fit_trace does not hold.
        rng = np.random.default_rng(24)
        X = np.vstack([rng.normal(-2, 1, (300, 2)), rng.normal(2, 1.5, (300, 2))])
        if init_method == "weak":
            init = weak_init(X[::10], ["neg"] * 30 + ["pos"] * 30)
        else:
            init = kmeans_init(X, 2, seed=3)
        model = em_fit(X, init, tol=1e-9, max_iter=max_iter)
        assert model.fit.converged is converged
        if converged:
            assert 2 <= len(model.fit_trace) < max_iter
        else:
            assert len(model.fit_trace) == max_iter
        assert model.fit.predicted.dtype == object
        assert np.array_equal(model.fit.predicted, predict_labels(model, X))
        if max_iter == 0:  # the init itself labels the rows
            assert np.array_equal(model.means, init.means)
            assert np.array_equal(model.fit.predicted, predict_labels(init, X))


class TestPredictLabels:
    def test_nearest_component_wins(self):
        model = mixture(
            (np.array([-5.0]), np.eye(1), 0.5, "neg"),
            (np.array([+5.0]), np.eye(1), 0.5, "pos"),
        )
        labels = predict_labels(model, np.array([[4.0], [-4.0]]))
        assert list(labels) == ["pos", "neg"]

    def test_tie_goes_to_lowest_index(self):
        model = mixture(
            (np.array([-1.0]), np.eye(1), 0.5, "first"),
            (np.array([+1.0]), np.eye(1), 0.5, "second"),
        )
        labels = predict_labels(model, np.array([[0.0]]))
        assert labels == ["first"]

    def test_one_dimensional_rows_rejected(self, pipeline_calls):
        # gmm takes its rows as an N x D float matrix: cli passes 2-D slices.
        calls = [*pipeline_calls["weak_init"], *pipeline_calls["em_fit"]]
        rows = [args[0] for args, _ in calls]
        rows += [args[1] for args, _ in pipeline_calls["predict_labels"]]
        assert all(r.ndim == 2 and r.dtype == float for r in rows)

    def test_anonymous_names(self):
        rng = np.random.default_rng(24)
        model = kmeans_init(rng.normal(size=(30, 2)), 2, seed=0)
        labels = predict_labels(model, rng.normal(size=(5, 2)))
        assert set(labels) <= {"cluster_0", "cluster_1"}


class TestTransitionPoints:
    def test_constant_labels(self):
        assert transition_points(["a"] * 5).tolist() == []

    def test_example(self):
        assert transition_points(["A", "A", "B", "B", "A"]).tolist() == [1, 3]

    def test_count_matches_segments(self):
        rng = np.random.default_rng(25)
        labels = [f"s{i}" for i in range(6) for _ in range(int(rng.integers(1, 5)))]
        assert len(transition_points(labels)) == 5


# Values whose bits a naive text format would lose or change.
SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1.7976931348623157e308]


@st.composite
def odd_models(draw):
    """A mixture of arbitrary floats, not a fitted one: each covariance is
    only symmetric, with specials placed at mirrored entries."""
    k = draw(st.integers(1, 3))
    dim = draw(st.sampled_from([1, 2, 3, 96]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.normal(size=(k, dim)) * 10.0 ** rng.integers(-300, 300, size=(k, dim))
    covariances = rng.normal(size=(k, dim, dim))
    covariances += np.swapaxes(covariances, 1, 2)
    weights = rng.random(k)
    for value in draw(st.lists(st.sampled_from(SPECIALS), max_size=8)):
        j, a, b = rng.integers(k), rng.integers(dim), rng.integers(dim)
        means[j, a] = covariances[j, a, b] = covariances[j, b, a] = weights[j] = value
    labels = draw(st.lists(st.none() | st.text(), min_size=k, max_size=k))
    trace = draw(st.lists(st.floats(allow_nan=False) | st.sampled_from(SPECIALS), max_size=4))
    return GmmModel(means, covariances, weights, tuple(labels), trace)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def saved_text(model, path):
    """model.json's text, as save_model writes it to path."""
    save_model(model, path)
    return path.read_text()


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(40, 3))
        init = weak_init(X, ["a", "b"] * 20)
        model = em_fit(X, init, tol=1e-6, max_iter=25)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = read_model(path)
        assert back.fit_trace == model.fit_trace
        assert back.labels == model.labels
        for name in ("weights", "means", "covariances"):
            assert same_bits(getattr(back, name), getattr(model, name)), name

    @settings(max_examples=60, deadline=None)
    @given(model=odd_models())
    @example(model=GmmModel(
        np.array([[-0.0], [np.inf]]), np.array([[[np.nan]], [[-np.inf]]]),
        np.array([0.0, -0.0]), (None, 'say "hi"\\\n\tüñ'), [],
    ))
    @example(model=GmmModel(
        np.full((1, 96), -0.0), np.where(np.eye(96) > 0, np.nan, -0.0)[None],
        np.ones(1), ("über",), [np.nan, -np.inf],
    ))
    def test_load_after_save_is_bit_exact(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_model(model, path)
            back = read_model(path)
            save_model(back, path + ".again")
            with open(path, "rb") as a, open(path + ".again", "rb") as b:
                text = a.read()
                assert text == b.read()
        # written a component at a time, yet the text of one json.dumps
        assert text.decode() == json.dumps(json.loads(text)) + "\n"
        assert back.labels == model.labels
        assert same_bits(back.fit_trace, model.fit_trace)
        for name in ("weights", "means", "covariances"):
            assert same_bits(getattr(back, name), getattr(model, name)), name

    @pytest.mark.parametrize("case", ["weak", "kmeans", "specials"])
    def test_readme_rebuild_is_bit_exact(self, tmp_path, monkeypatch, case):
        # the python lines of README's model.json section, run as they stand
        # from a directory that holds out/model.json
        rng = np.random.default_rng(30)
        X = rng.normal(size=(60, 4))
        if case == "specials":
            model = GmmModel(
                np.array([[-0.0], [np.inf]]), np.array([[[np.nan]], [[-np.inf]]]),
                np.array([5e-324, -0.0]), (None, "über"), [np.nan, -np.inf],
            )
        else:
            init = weak_init(X, ["a", "b", "c"] * 20) if case == "weak" else kmeans_init(X, 3, 0)
            model = em_fit(X, init, tol=1e-6, max_iter=25)
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### `model.json` (version 2)")[1].split("\n## ")[0]
        lines = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        (tmp_path / "out").mkdir()
        save_model(model, tmp_path / "out" / "model.json")
        monkeypatch.chdir(tmp_path)
        rebuilt = {}
        exec(lines, rebuilt)
        assert rebuilt["labels"] == list(model.labels)
        assert same_bits(rebuilt["fit_trace"], model.fit_trace)
        for name in ("weights", "means", "covariances"):
            assert same_bits(rebuilt[name], getattr(model, name)), name

    def test_v2_layout(self, tmp_path):
        # the on-disk format: one line, one object per component, keys in
        # this order, each covariance as its upper triangle
        model = mixture(
            (np.array([0.5, -1.0]), np.array([[2.0, 0.25], [0.25, 1.0]]), 0.75, "g"),
            (np.array([0.0, 3.0]), np.eye(2), 0.25),
        )
        model.fit_trace.extend([-3.5, -2.0])
        assert saved_text(model, tmp_path / "model.json") == (
            '{"format": "kinseg-gmm", "version": 2, "dimension": 2, "components": ['
            '{"label": "g", "weight": 0.75, "mean": [0.5, -1.0], "covariance": [2.0, 0.25, 1.0]}, '
            '{"label": null, "weight": 0.25, "mean": [0.0, 3.0], "covariance": [1.0, 0.0, 1.0]}'
            '], "fit_trace": [-3.5, -2.0]}\n'
        )

    def test_triangle_is_row_major(self, tmp_path):
        C = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        doc = json.loads(saved_text(mixture((np.zeros(3), C, 1.0)), tmp_path / "model.json"))
        assert doc["components"][0]["covariance"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    @pytest.mark.parametrize("case", ["nextafter", "signed_zero", "nan_bits"])
    def test_asymmetric_covariance_rejected(self, tmp_path, case):
        rng = np.random.default_rng(29)
        A = rng.normal(size=(4, 4))
        C = regularize_covariance(A @ A.T)
        if case == "nextafter":
            C[0, 3] = np.nextafter(C[0, 3], np.inf)
        elif case == "signed_zero":  # equal under ==, yet "0.0" and "-0.0"
            C[0, 1], C[1, 0] = 0.0, -0.0
        else:  # two NaNs that json would write alike but differ in sign
            C[1, 2], C[2, 1] = np.nan, -np.nan
        model = mixture((np.zeros(4), np.eye(4), 0.5, "ok"), (np.zeros(4), C, 0.5, "bad"))
        with pytest.raises(ValueError, match="component 'bad' is not symmetric"):
            save_model(model, tmp_path / "model.json")

    def test_rejected_save_keeps_the_file(self, tmp_path):
        # the symmetry check runs before the file is opened: an existing
        # model.json keeps its bytes, and none is created where none was
        C = np.eye(2)
        C[0, 1] = 1e-9
        model = mixture((np.zeros(2), C, 1.0, "bad"))
        kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
        kept.write_bytes(b"previous model\n")
        for path in (kept, absent):
            with pytest.raises(ValueError, match="component 'bad' is not symmetric"):
                save_model(model, path)
        assert kept.read_bytes() == b"previous model\n"
        assert not absent.exists()

    def test_saved_model_is_self_describing(self, tmp_path):
        model = mixture((np.zeros(2), np.eye(2), 1.0, "g"))
        text = saved_text(model, tmp_path / "model.json")
        assert '"kinseg-gmm"' in text
        assert text.endswith("\n")


# The per-component E/M loop the stacked kernel replaced: one Cholesky and
# one triangular solve per component in the E-step, and the weighted mean
# and centered covariance per component in the M-step.
def reference_log_densities(model, data):
    out = np.empty((data.shape[0], model.n_components))
    const = -0.5 * data.shape[1] * np.log(2.0 * np.pi)
    for k in range(model.n_components):
        L = np.linalg.cholesky(model.covariances[k])
        z = linalg.solve_triangular(L, (data - model.means[k]).T, lower=True)
        logdet = np.sum(np.log(np.diag(L)))
        out[:, k] = np.log(model.weights[k]) + const - logdet - 0.5 * np.sum(z**2, axis=0)
    return out


def reference_logsumexp(logs):
    m = np.max(logs, axis=1)
    return m + np.log(np.sum(np.exp(logs - m[:, None]), axis=1))


def reference_em_fit(data, init, tol, max_iter):
    dim = data.shape[1]
    model = GmmModel(
        init.means.copy(), init.covariances.copy(), init.weights.copy(), init.labels
    )
    mass_floor = 10.0 * dim * np.finfo(float).eps
    prev_ll = None
    for _ in range(max_iter):
        logs = reference_log_densities(model, data)
        norm = reference_logsumexp(logs)
        ll = float(np.sum(norm))
        model.fit_trace.append(ll)
        if prev_ll is not None and abs(ll - prev_ll) <= tol * max(abs(prev_ll), 1.0):
            break
        prev_ll = ll
        resp = np.exp(logs - norm[:, None])
        mass = resp.sum(axis=0)
        for k in range(model.n_components):
            if mass[k] < mass_floor:
                continue
            mean = resp[:, k] @ data / mass[k]
            diff = data - mean
            cov = (resp[:, k, None] * diff).T @ diff / mass[k]
            model.means[k] = mean
            model.covariances[k] = regularize_covariance(cov)
        floored = np.maximum(mass, mass_floor)
        for k, w in enumerate(floored / floored.sum()):
            model.weights[k] = float(w)
    return model


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), np.finfo(float).tiny))


def dense_scatter(data, resp, means):
    """The M-step scatter over every row of every component, one batched
    Z^T Z per block of ROW_BLOCK rows, as before exact zeros were skipped."""
    out = np.zeros((len(means), data.shape[1], data.shape[1]))
    for start in range(0, len(data), ROW_BLOCK):
        z = data[start : start + ROW_BLOCK] - means[:, None, :]
        z *= np.sqrt(resp[start : start + ROW_BLOCK].T)[:, :, None]
        out += np.swapaxes(z, 1, 2) @ z
    return out


class TestSparseScatter:
    @pytest.mark.parametrize("n, dim", [
        (1, 4),
        (ROW_BLOCK + 1, 4),
        (2 * ROW_BLOCK + 3, 96),  # 682-row chunks
        (GATHER_ELEMENTS // 4 + 300, 4),  # the last component spans two chunks
    ])
    def test_matches_dense_reference(self, n, dim):
        rng = np.random.default_rng(n + dim)
        data = rng.normal(0, 2, (n, dim))
        means = rng.normal(0, 1, (4, dim))
        resp = rng.random((n, 4))
        resp[rng.random(n) < 0.9, 0] = 0.0  # zero on most rows
        resp[:, 1] = 0.0  # zero on every row
        resp[:, 2] *= 1e-200  # tiny, never zero: every row counts
        resp[0, :3] = 0.0  # a row only the last component holds
        got = _scatter(data, resp, means)
        want = dense_scatter(data, resp, means)
        for k in range(4):
            assert rel_err(got[k], want[k]) <= 1e-12
        assert not np.any(got[1])
        assert np.any(got[2]) == (n > 1)


class TestStackedKernel:
    ROW_COUNTS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]

    @staticmethod
    def problem(n, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 3, 4, labels=["a", "b", "c"])
        centers = model.means
        X = centers[rng.integers(0, 3, n)] + rng.normal(0, 1.5, (n, 4))
        return model, X

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_log_likelihood_matches_reference(self, n):
        model, X = self.problem(n, 30 + n)
        ref = float(np.sum(reference_logsumexp(reference_log_densities(model, X))))
        assert abs(log_likelihood(model, X) - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_responsibilities_match_reference(self, n):
        model, X = self.problem(n, 40 + n)
        logs = reference_log_densities(model, X)
        ref = np.exp(logs - reference_logsumexp(logs)[:, None])
        assert rel_err(responsibilities(model, X), ref) <= 1e-9

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_em_fit_matches_reference(self, n):
        init, X = self.problem(n, 50 + n)
        got = em_fit(X, init, tol=1e-300, max_iter=8)
        ref = reference_em_fit(X, init, tol=1e-300, max_iter=8)
        assert len(got.fit_trace) == len(ref.fit_trace)
        assert rel_err(got.fit_trace, ref.fit_trace) <= 1e-9
        assert rel_err(got.weights, ref.weights) <= 1e-9
        assert got.labels == ref.labels
        for k in range(got.n_components):
            assert rel_err(got.means[k], ref.means[k]) <= 1e-9
            assert rel_err(got.covariances[k], ref.covariances[k]) <= 1e-9

    def test_frozen_component_matches_reference(self):
        rng = np.random.default_rng(60)
        X = rng.normal(0, 1, (2 * ROW_BLOCK + 3, 1))
        far = (np.array([1e4]), np.array([[1e-2]]), 0.5, "far")
        near = (np.array([0.5]), np.array([[2.0]]), 0.5, "near")
        init = mixture(near, far)
        got = em_fit(X, init, tol=1e-300, max_iter=10)
        ref = reference_em_fit(X, init, tol=1e-300, max_iter=10)
        assert rel_err(got.fit_trace, ref.fit_trace) <= 1e-9
        assert np.array_equal(got.means[1], [1e4])
        assert np.array_equal(got.covariances[1], [[1e-2]])
        assert rel_err(got.covariances[0], ref.covariances[0]) <= 1e-9

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_not_positive_definite_names_component(self, bad):
        model = random_model(np.random.default_rng(61), 3, 3)
        model.covariances[bad] = -np.eye(3)
        X = np.ones((5, 3))
        for fn in (log_likelihood, responsibilities, predict_labels):
            with pytest.raises(NumericalError, match=f"component {bad} is not positive"):
                fn(model, X)
        with pytest.raises(NumericalError, match=f"component {bad} is not positive"):
            em_fit(X, model, tol=1e-6, max_iter=5)

    def test_batched_regularize_matches_single(self):
        rng = np.random.default_rng(62)
        stack = rng.normal(size=(4, 3, 3))
        stack[2] = 0.0
        batched = regularize_covariance(stack)
        for single, cov in zip(batched, stack):
            assert np.array_equal(single, regularize_covariance(cov))

    def test_batched_regularize_matches_single_at_d96(self):
        # weak and k-means init regularize all K scatters in one call
        rng = np.random.default_rng(63)
        A = rng.normal(size=(10, 96, 150))
        stack = A @ np.swapaxes(A, 1, 2) / 150
        batched = regularize_covariance(stack)
        for single, cov in zip(batched, stack):
            assert np.array_equal(single, regularize_covariance(cov))

    @staticmethod
    def monotone(trace):
        return all(b >= a - 1e-8 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))

    @staticmethod
    def collapsed(model, n_rows):
        """Some component holds fewer than D + 1 rows' worth of mass, so its
        M-step covariance is singular and only the ridge decides it."""
        return bool(np.any(model.weights * n_rows < model.dimension + 1))

    @staticmethod
    def random_problem(seed, d, k, rows_per_component):
        rng = np.random.default_rng(seed)
        centers = rng.normal(0, 3, (k, d))
        n = k * rows_per_component
        return centers[rng.integers(0, k, n)] + rng.normal(0, 1, (n, d))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        k=st.integers(1, 4),
        rows_per_component=st.integers(5, 80),
    )
    def test_em_trace_monotone_property(self, seed, d, k, rows_per_component):
        # EM never lowers the likelihood, except where a component collapses
        # onto D or fewer points: the ridge then decides its covariance (see
        # test_collapse_breaks_monotonicity).
        X = self.random_problem(seed, d, k, rows_per_component)
        model = em_fit(X, kmeans_init(X, k, seed=seed), tol=1e-9, max_iter=100)
        assert self.monotone(model.fit_trace) or self.collapsed(model, len(X))

    @pytest.mark.xfail(
        strict=True,
        reason="a component collapsing onto one point sends its variance to "
        "~1e-59; the scale-relative ridge cannot hold it and the 1e-12 "
        "floor then lowers the log-likelihood",
    )
    def test_collapse_breaks_monotonicity(self):
        X = self.random_problem(76, 1, 4, 5)
        model = em_fit(X, kmeans_init(X, 4, seed=76), tol=1e-9, max_iter=100)
        assert self.collapsed(model, len(X))
        assert self.monotone(model.fit_trace)


class TestWeakInitSizeWarning:
    def test_label_with_fewer_rows_than_dimension_warns(self):
        # 30 rows of a label at D=96: its scatter matrix has rank < 30, and
        # only the 1e-6 ridge keeps the covariance invertible.
        rng = np.random.default_rng(70)
        big = rng.normal(size=(400, 96))
        tiny = rng.normal(size=(30, 96))
        X = np.vstack([big, tiny])
        labels = ["big"] * 400 + ["tiny"] * 30
        with pytest.warns(RuntimeWarning, match=r"'tiny' has 30 row\(s\) at dimension 96"):
            model = weak_init(X, labels)
        assert list(model.labels) == ["big", "tiny"]

    def test_enough_rows_do_not_warn(self):
        rng = np.random.default_rng(71)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weak_init(rng.normal(size=(20, 3)), ["a", "b"] * 10)

    def test_rows_equal_to_dimension_warn(self):
        rng = np.random.default_rng(72)
        with pytest.warns(RuntimeWarning, match=r"'b' has 3 row\(s\) at dimension 3"):
            weak_init(rng.normal(size=(13, 3)), ["a"] * 10 + ["b"] * 3)
