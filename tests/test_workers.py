"""The EM kernels give the same bytes for any worker count, and the BLAS pin
in kinseg/__init__.py acts only where it should."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kinseg import gmm
from kinseg.gmm import ROW_BLOCK, GmmModel, NumericalError, em_fit, predict_labels
from synth import tree_bytes, write_dataset

TESTS = str(Path(__file__).resolve().parent)
SRC = str(Path(TESTS).parent / "src")
WORKER_COUNTS = (1, 2, 3)
ROW_COUNTS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def split(monkeypatch):
    """split(w, floor=0) sets WORKERS to w and SPLIT_FLOOR to floor, and
    returns the list that collects the part count of each kernel pass."""
    seen = []
    run = gmm._run

    def spy(fn, parts):
        seen.append(len(parts))
        run(fn, parts)

    monkeypatch.setattr(gmm, "_run", spy)

    def set_split(workers, floor=0):
        monkeypatch.setattr(gmm, "WORKERS", workers)
        monkeypatch.setattr(gmm, "SPLIT_FLOOR", floor)
        seen.clear()
        return seen

    return set_split


def problem(n, k, dim, seed):
    rng = np.random.default_rng(seed)
    means = rng.normal(0, 3, (k, dim))
    a = rng.normal(0, 0.5, (k, dim, dim))
    covariances = a @ np.swapaxes(a, 1, 2) + np.eye(dim)
    weights = rng.random(k) + 0.1
    labels = tuple(f"g{j}" for j in range(k))
    model = GmmModel(means, covariances, weights / weights.sum(), labels)
    X = means[rng.integers(0, k, n)] + rng.normal(0, 1.5, (n, dim))
    resp = rng.random((n, k))
    return model, X, resp / resp.sum(axis=1, keepdims=True)


def sparse_resp(n, k, seed):
    """Responsibilities with exact zeros, as EM's underflow leaves them:
    component 0 is zero on most rows and component 1 on every row, and row 0
    is zero for every component but the last."""
    rng = np.random.default_rng(seed)
    resp = rng.random((n, k))
    resp[rng.random(n) < 0.9, 0] = 0.0
    resp[:, 1] = 0.0
    resp[0, :-1] = 0.0
    return resp / resp.sum(axis=1, keepdims=True)


def log_densities(model, X):
    return gmm._log_densities(X, model.means, model.covariances, model.weights)


def model_arrays(model):
    """The fitted arrays, and the fit rows' labels when em_fit made the model."""
    arrays = [model.means, model.covariances, model.weights, np.array(model.fit_trace)]
    return arrays + ([model.fit.predicted.astype(str)] if model.fit else [])


def assert_same_for_all_workers(split, compute, floor=0):
    """compute() -> list of arrays; every worker count gives the same bytes."""
    results = {}
    for workers in WORKER_COUNTS:
        seen = split(workers, floor)
        results[workers] = compute()
        assert max(seen) <= workers
    for workers in WORKER_COUNTS[1:]:
        for got, want in zip(results[workers], results[1]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    return seen


class TestWorkerInvariance:
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_log_densities(self, split, n):
        model, X, _ = problem(n, 3, 4, 70 + n)
        seen = assert_same_for_all_workers(split, lambda: [log_densities(model, X)])
        assert seen == [min(3, -(-n // ROW_BLOCK))]  # whole row blocks per part

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_scatter(self, split, n):
        model, X, resp = problem(n, 3, 4, 80 + n)
        seen = assert_same_for_all_workers(split, lambda: [gmm._scatter(X, resp, model.means)])
        assert seen == [3]  # one component per part

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_scatter_with_exact_zeros(self, split, n):
        model, X, _ = problem(n, 3, 4, 85 + n)
        resp = sparse_resp(n, 3, 85 + n)
        seen = assert_same_for_all_workers(split, lambda: [gmm._scatter(X, resp, model.means)])
        assert seen == [3]

    def test_scatter_over_more_than_one_gather_chunk(self, split):
        dim = 4
        chunk = max(ROW_BLOCK, gmm.GATHER_ELEMENTS // dim)
        n = 2 * chunk + 5
        model, X, _ = problem(n, 3, dim, 87)
        resp = sparse_resp(n, 3, 87)
        assert np.count_nonzero(resp[:, 2]) > 2 * chunk  # three chunks
        assert 0 < np.count_nonzero(resp[:, 0]) < chunk
        seen = assert_same_for_all_workers(split, lambda: [gmm._scatter(X, resp, model.means)])
        assert seen == [3]

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_em_fit(self, split, n):
        init, X, _ = problem(n, 3, 4, 90 + n)

        def fit():
            model = em_fit(X, init, tol=1e-300, max_iter=6)
            assert model.labels == init.labels
            return model_arrays(model)

        assert_same_for_all_workers(split, fit)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_predict_labels(self, split, n):
        model, X, _ = problem(n, 3, 4, 100 + n)

        def predict():
            return [predict_labels(model, X).astype(str)]

        assert_same_for_all_workers(split, predict)

    def test_predict_labels_stacked(self, split):
        # One prediction over the stacked demos equals one per demo.
        model, X, _ = problem(sum(ROW_COUNTS), 3, 4, 105)
        ends = np.cumsum(ROW_COUNTS)

        def predict():
            stacked = predict_labels(model, X)
            for part, demo in zip(np.split(stacked, ends[:-1]), np.split(X, ends[:-1])):
                assert np.array_equal(part, predict_labels(model, demo))
            return [stacked.astype(str)]

        assert_same_for_all_workers(split, predict)

    @pytest.mark.parametrize("k", [1, 3])
    def test_component_count_not_divisible_by_workers(self, split, k):
        init, X, resp = problem(2 * ROW_BLOCK + 3, k, 5, 110 + k)
        for workers in (1, 2):
            split(workers)
            scatter = gmm._scatter(X, resp, init.means)
            fitted = model_arrays(em_fit(X, init, tol=1e-300, max_iter=6))
            if workers == 1:
                want_scatter, want_fit = scatter, fitted
        assert np.array_equal(scatter, want_scatter)
        for got, want in zip(fitted, want_fit):
            assert np.array_equal(got, want)

    def test_frozen_component(self, split):
        rng = np.random.default_rng(60)
        X = rng.normal(0, 1, (2 * ROW_BLOCK + 3, 1))
        init = GmmModel(
            np.array([[0.5], [1e4], [-0.5]]),
            np.array([[[2.0]], [[1e-2]], [[1.0]]]),
            np.array([0.4, 0.2, 0.4]),
            ("near", "far", "other"),
        )

        def fit():
            model = em_fit(X, init, tol=1e-300, max_iter=8)
            # "far" gets no responsibility mass, so live is {0, 2}
            assert np.array_equal(model.means[1], [1e4])
            assert not np.array_equal(model.means[0], init.means[0])
            return model_arrays(model)

        assert_same_for_all_workers(split, fit)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_not_positive_definite_names_component(self, split, bad):
        model, X, _ = problem(2 * ROW_BLOCK + 3, 3, 3, 120)
        model.covariances[bad] = -np.eye(3)
        split(2)
        with pytest.raises(NumericalError, match=f"component {bad} is not positive"):
            em_fit(X, model, tol=1e-6, max_iter=5)
        with pytest.raises(NumericalError, match=f"component {bad} is not positive"):
            predict_labels(model, X)

    def test_errstate_reaches_every_part(self, split):
        # Only the last row and the last component overflow, and a pool
        # thread computes both: the last row block, the last component group.
        model, X, resp = problem(2 * ROW_BLOCK + 3, 3, 3, 125)
        model.covariances[:] = np.eye(3)
        model.means[-1, 0] = -1e308
        X[-1, 0] = 1.7e308
        for workers in WORKER_COUNTS:
            split(workers)
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError, match="overflow"):
                    log_densities(model, X)
                with pytest.raises(FloatingPointError, match="overflow"):
                    gmm._scatter(X, resp, model.means)

    def test_above_default_floor_with_partial_block(self, split):
        n, k, dim = 4 * ROW_BLOCK + 37, 8, 64
        assert k * dim * dim >= gmm.SPLIT_FLOOR
        model, X, resp = problem(n, k, dim, 130)
        floor = gmm.SPLIT_FLOOR

        def kernels():
            return [
                log_densities(model, X),
                gmm._scatter(X, resp, model.means),
            ]

        seen = assert_same_for_all_workers(split, kernels, floor)
        assert seen == [3, 3]  # 5 row blocks, 8 components

    def test_inits_above_default_floor(self, split):
        # Both inits estimate their components with the M-step's split
        # scatter; each label spans two of its 682-row gather chunks.
        n, k, dim = 3000, 4, 96
        assert k * dim * dim >= gmm.SPLIT_FLOOR
        _, X, _ = problem(n, k, dim, 160)
        labels = [f"g{j}" for j in np.arange(n) % k]  # 750 rows each

        def inits():
            return model_arrays(gmm.weak_init(X, labels)) + model_arrays(
                gmm.kmeans_init(X, k, seed=7)
            )

        seen = assert_same_for_all_workers(split, inits, gmm.SPLIT_FLOOR)
        assert seen == [3, 3]  # one scatter per init, 4 components

    def test_uneven_groups_at_d96_with_short_last_block(self, split):
        # Five components at D=96 split into groups of 2 and 3 on two
        # workers, and of 1, 2 and 2 on three; the last of 8 row blocks holds
        # 5 rows. An E-step that split the components would take a group's
        # columns of its GEMM as a narrower product, which OpenBLAS can give
        # other bits; the E-step splits the rows.
        n, k, dim = 7 * ROW_BLOCK + 5, 5, 96
        assert k * dim * dim >= gmm.SPLIT_FLOOR
        init, X, _ = problem(n, k, dim, 170)

        def kernels():
            fitted = em_fit(X, init, tol=1e-300, max_iter=4)
            return [log_densities(init, X)] + model_arrays(fitted)

        seen = assert_same_for_all_workers(split, kernels, gmm.SPLIT_FLOOR)
        assert set(seen) == {3} and len(seen) > 3  # every E-step and scatter, 3 parts

    def test_more_workers_than_cores_with_fast_switching(self, split):
        # Parts write disjoint slices of one output; a lost or doubled update
        # under frequent thread switches would change the bytes.
        model, X, resp = problem(9 * ROW_BLOCK + 5, 7, 6, 150)
        split(1)
        want = [log_densities(model, X), gmm._scatter(X, resp, model.means)]
        seen = split(max(2, os.cpu_count() or 1) + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = [log_densities(model, X), gmm._scatter(X, resp, model.means)]
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
        finally:
            sys.setswitchinterval(interval)
        assert min(seen) > 2

    def test_below_floor_stays_on_calling_thread(self, split):
        model, X, resp = problem(2 * ROW_BLOCK + 3, 3, 3, 140)
        seen = split(2, floor=gmm.SPLIT_FLOOR)
        log_densities(model, X)
        gmm._scatter(X, resp, model.means)
        assert seen == [1, 1]


class TestRowIndependence:
    """A row's log densities have the same bits in every call that computes
    them, so EM's last E-step on the fit rows is their prediction. Every block
    of a call is a GEMM of two or more rows, a one-row block included: numpy
    would take a lone row through its vector-matrix path, with other bits."""

    @pytest.mark.parametrize("dim, parts", [(96, 2), (3, 1)])
    def test_prefix_and_suffix_calls(self, split, dim, parts):
        seen = split(2, gmm.SPLIT_FLOOR)
        n_rows = 4 * ROW_BLOCK + 1  # the whole call ends on a one-row block
        model, X, _ = problem(n_rows, 10, dim, 180 + dim)
        full = log_densities(model, X)
        assert seen == [parts]  # D=96 splits, D=3 runs on the calling thread
        for n in (1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1,
                  n_rows - ROW_BLOCK - 1, n_rows - 1):
            assert full[n:].tobytes() == log_densities(model, X[n:]).tobytes(), n
            assert full[:n].tobytes() == log_densities(model, X[:n]).tobytes(), n


# ------------------------------------------------------------ the pin


def child(argv, env_update=(), **kwargs):
    """Run sys.executable with argv and the BLAS variables unset, except for
    those in env_update; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_update)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, check=True, **kwargs
    ).stdout


def python(code, env_update=(), **kwargs):
    return child(["-c", code], env_update, **kwargs).split()


REPORT = (
    "import os, kinseg, kinseg.gmm; "
    "print(*[os.environ.get(v, '-') for v in %r], kinseg.BLAS_PINNED, kinseg.gmm.WORKERS)"
    % (BLAS_VARS,)
)


def usable_cpus():
    return str(gmm._usable_cpus())


@pytest.mark.parametrize("count, expected", [(5, 5), (None, 1)])
def test_usable_cpus_without_affinity(monkeypatch, count, expected):
    # platforms without sched_getaffinity count every CPU, at least one
    monkeypatch.delattr(gmm.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(gmm.os, "cpu_count", lambda: count)
    assert gmm._usable_cpus() == expected


class TestBlasPin:
    def test_unset_variables_read_one(self):
        assert python(REPORT) == ["1", "1", "1", "True", usable_cpus()]

    def test_user_value_is_kept_and_kernels_stay_serial(self):
        out = python(REPORT, {"OPENBLAS_NUM_THREADS": "3"})
        assert out == ["3", "1", "1", "False", "1"]

    def test_numpy_first_leaves_environment_and_stays_serial(self):
        assert python("import numpy; " + REPORT) == ["-", "-", "-", "False", "1"]

    def test_numpy_first_with_caller_pin_splits(self):
        ones = dict.fromkeys(BLAS_VARS, "1")
        out = python("import numpy; " + REPORT, ones)
        assert out == ["1", "1", "1", "True", usable_cpus()]

    def test_no_pool_at_import(self):
        code = "import sys, kinseg.cli; print('concurrent.futures' in sys.modules)"
        assert python(code) == ["False"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_openblas_runs_one_thread(self):
        # The pin reaches the BLAS numpy loads: ask OpenBLAS itself.
        code = """
import ctypes, kinseg, numpy
libs = sorted({l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l.lower()})
counts = []
for lib in libs:
    h = ctypes.CDLL(lib)
    for sym in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',
                'openblas_get_num_threads'):
        fn = getattr(h, sym, None)
        if fn is not None:
            counts.append(fn())
            break
print(*counts)
"""
        counts = python(code)
        if not counts:
            pytest.skip("numpy is not linked against OpenBLAS")
        assert set(counts) == {"1"}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_pool():
    # The child inherits the parent's pool object but not its threads. If it
    # submitted work to that pool, SIGALRM would end it after 30 s.
    code = """
import os, signal, warnings
import numpy as np
from kinseg import gmm
gmm.WORKERS, gmm.SPLIT_FLOOR = 2, 0
X = np.random.default_rng(0).normal(size=(600, 3))
resp, means = np.full((600, 2), 0.5), np.zeros((2, 3))
want = gmm._scatter(X, resp, means)  # starts the pool
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
    pid = os.fork()
if pid == 0:
    signal.alarm(30)
    os._exit(0 if np.array_equal(gmm._scatter(X, resp, means), want) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    assert python(code, timeout=120) == ["0"]


# ------------------------------------------------- end to end, CLI files


WEAK = ["--init", "weak", "--init-demos", "synth00"]


def segment_files(tmp_path, name, data_dir, flags, env_update=(), **kwargs):
    """The output files of a kinseg segment child run with flags and --window 1."""
    out = tmp_path / name
    child(
        ["-m", "kinseg", "segment", "--data-dir", str(data_dir), "--output-dir", str(out),
         *flags, "--window", "1"],
        env_update,
        **kwargs,
    )
    return tree_bytes(out)


@pytest.fixture(scope="module")
def above_floor_data(tmp_path_factory):
    """A synth dataset whose EM passes split: 2 fit demos of 1800 frames at
    D = 2 x 48 with 4 components."""
    data_dir = tmp_path_factory.mktemp("workers") / "data"
    write_dataset(data_dir, n_demos=3, dim=48, seed=1)
    return data_dir


def assert_split(files, k):
    model = json.loads(files["model.json"])
    assert (len(model["components"]), model["dimension"]) == (k, 96)
    assert k * 96 * 96 >= gmm.SPLIT_FLOOR


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and at least 2 usable CPUs",
)


def on_one_cpu():
    """A preexec_fn that pins the child to one of this process's CPUs."""
    cpu = min(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


@needs_two_cpus
def test_dataset_identical_on_one_cpu(tmp_path, above_floor_data):
    data = str(tmp_path / "data")
    code = f"import synth; synth.write_dataset({data!r}, n_demos=3, dim=48, seed=1)"
    child(["-c", code], cwd=TESTS, preexec_fn=on_one_cpu())
    assert tree_bytes(tmp_path / "data") == tree_bytes(above_floor_data)


# At D=96 EM and both inits split their kernels across threads; on one CPU
# they run on one. Each run's flags, and its component count.
@needs_two_cpus
@pytest.mark.parametrize("flags, k", [
    pytest.param(WEAK, 4, id="weak"),
    pytest.param(["--init", "kmeans", "--k", "4"], 4, id="kmeans"),
    # the run's row matrix holds synth01 first, not in the dataset's id order
    pytest.param(["--init", "weak", "--init-demos", "synth01"], 4, id="weak-synth01"),
    # five components at D=96 split unevenly, and the fit ends on a 5-row block
    pytest.param(["--init", "kmeans", "--k", "5"], 5, id="kmeans-5"),
    # capped at 3 iterations, EM labels the fit rows with one more E-step
    # after the last M-step
    pytest.param([*WEAK, "--em-max-iter", "3"], 4, id="capped"),
])
def test_segment_identical_on_one_cpu(tmp_path, above_floor_data, flags, k):
    full = segment_files(tmp_path, "full", above_floor_data, flags)
    assert_split(full, k)
    pinned = segment_files(tmp_path, "one", above_floor_data, flags, preexec_fn=on_one_cpu())
    assert list(pinned) == list(full)
    for name in full:
        assert pinned[name] == full[name], name


def test_segment_with_two_blas_threads(tmp_path, above_floor_data):
    default = segment_files(tmp_path, "default", above_floor_data, WEAK)
    two = segment_files(tmp_path, "two", above_floor_data, WEAK, {"OPENBLAS_NUM_THREADS": "2"})
    assert list(two) == list(default)
    for name in default:
        if name != "model.json":
            assert two[name] == default[name], name
    got, want = (json.loads(f["model.json"]) for f in (two, default))
    assert got["fit_trace"] == pytest.approx(want["fit_trace"], rel=1e-11)
    for a, b in zip(got["components"], want["components"]):
        assert a["label"] == b["label"]
        for key in ("weight", "mean", "covariance"):
            x, y = np.asarray(a[key], dtype=float), np.asarray(b[key], dtype=float)
            assert np.max(np.abs(x - y)) <= 1e-11 * np.max(np.abs(y)), key
