"""Gaussian mixture fitting over augmented states.

The mixture is initialized either from annotated demonstrations (one
component per gesture label, estimated from the labeled rows) or by
seeded k-means++, then refined with EM on the unlabeled data. One estimator
serves both inits and EM's M-step: an init is an M-step on 0/1
responsibilities, each row's label or final k-means cluster. Components
keep full covariance matrices: with a one-step window the cross-block
covariance between x(t) and x(t+1) is what encodes the per-gesture linear
regime, so diagonal covariances would discard the very structure being
clustered.

A GmmModel is the mixture as stacked arrays, component k at index k of
each: means (K x D), covariances (K x D x D), weights (K, summing to 1) and
labels (a K-tuple of gesture names, or None for anonymous components),
plus the per-iteration log-likelihoods of the EM run that produced it.

One numeric kernel serves EM and the predictions, directly on those arrays;
a prediction is the argmax of its log densities. All K covariances are
factored with one batched Cholesky, C_k = L_k L_k^T, and the precision
factors P_k = L_k^-T are concatenated into one D x (K*D) matrix, so the
Mahalanobis terms of a block of rows come from a single GEMM:
||x P_k - mu_k P_k||^2 (as in scikit-learn's GaussianMixture with
precisions_cholesky_). The estimator takes all means as one product resp^T X.
Its centered, responsibility-weighted scatter sums each component over only
the rows whose responsibility is not exactly 0, which at D=96 is often
under half of them: the rows are gathered a fixed number at a time, and each
chunk adds one Z^T Z. The E-step processes rows in blocks of ROW_BLOCK, so
no temporary grows with the row count beyond N x K arrays.

Both block loops split across WORKERS threads (the usable CPUs); numpy
releases the GIL inside BLAS calls and ufunc loops. kinseg/__init__.py pins
BLAS to one thread, so the threads do not contend with BLAS's own. The
E-step splits the rows into contiguous runs of whole blocks, each filling
its rows of the N x K output; every row's log densities are computed by the
same calls as without the split. The scatter splits the components into
contiguous groups; a component's rows and its chunk length (set by D
alone) are the same whichever group it falls in, so its sum is too. The
batched Cholesky and inverse, and every sum over
rows (resp^T X, the masses, the log-sum-exp), stay single calls on the
calling thread. So every array has the same bytes for any worker count.
The calling thread allocates each part's work buffers and runs the first
part itself: buffers allocated in the pool's threads would grow glibc's
per-thread arenas and the peak RSS. Mixtures below SPLIT_FLOOR, and every
mixture when the BLAS pin did not take effect, run on the calling thread.

All likelihood computations run in the log domain with max-subtraction;
covariances are regularized with a scale-relative ridge at initialization
and after every M-step so Cholesky factorizations always succeed.
"""

import contextvars
import functools
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from kinseg import BLAS_PINNED
from kinseg.ingest import code_labels

REG_SCALE = 1e-6  # ridge = REG_SCALE * mean diagonal entry
REG_FLOOR = 1e-12  # absolute fallback for exactly-zero covariances
KMEANS_MAX_ITER = 100
# Rows per block of the E-step kernel, and the fewest rows per gather chunk
# of the scatter. Large enough for efficient GEMMs, small enough that the
# ROW_BLOCK x K*D E-step buffer stays a few MB.
ROW_BLOCK = 256
# Doubles per gather chunk of the scatter up to D = 256 (above it a chunk is
# ROW_BLOCK rows): 682 rows at D=96, and a D=3 fit of up to 21,845 rows in
# one chunk.
GATHER_ELEMENTS = 1 << 16
# Mixtures with fewer multiply-adds per row than this (K x D^2) run their
# kernels on the calling thread. The threads hand the GIL over around each
# numpy call, and below this a block holds too little BLAS work to pay for
# that. EM on 5,988 rows at K=10 on 2 vCPUs, split against serial: 1.34x the
# time at D=24, 1.05x at D=48, 0.90x at D=64, 0.78x at D=96.
SPLIT_FLOOR = 1 << 15


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads the kernels split across. Without the one-thread BLAS pin, BLAS
# threads would contend with these for the cores, so the kernels stay serial.
WORKERS = _usable_cpus() if BLAS_PINNED else 1


class NumericalError(RuntimeError):
    """Raised when a fit degenerates (non-finite likelihood, singular covariance)."""


@dataclass
class GmmModel:
    """A Gaussian mixture as stacked arrays; component k sits at index k."""

    means: np.ndarray  # K x D
    covariances: np.ndarray  # K x D x D
    weights: np.ndarray  # K
    labels: tuple[str | None, ...]  # gesture name, or None when anonymous
    fit_trace: list[float] = field(default_factory=list)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dimension(self) -> int:
        return self.means.shape[1]

    def has_labels(self) -> bool:
        return all(label is not None for label in self.labels)

    def component_name(self, k: int) -> str:
        label = self.labels[k]
        return label if label is not None else f"cluster_{k}"


def _as_matrix(X) -> np.ndarray:
    values = np.asarray(X, dtype=float)
    if values.ndim != 2:
        raise ValueError("expected a 2-D sample matrix")
    return values


def regularize_covariance(cov: np.ndarray) -> np.ndarray:
    """Symmetrize and add the scale-relative ridge eps * I; a stack of
    matrices (..., D, D) gets one ridge per matrix."""
    cov = np.asarray(cov, dtype=float)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    eps = REG_SCALE * np.mean(np.diagonal(cov, axis1=-2, axis2=-1), axis=-1)
    eps = np.where(eps > 0, eps, REG_FLOOR)
    return cov + eps[..., None, None] * np.eye(cov.shape[-1])


def weak_init(X, labels: Sequence[str]) -> GmmModel:
    """Initial mixture from annotated rows, one label per row (the labeled
    rows of every init demonstration, stacked).

    One component per distinct label; mean, covariance and weight are the
    empirical statistics of that label's rows. A label with no more rows
    than dimensions gets a singular scatter matrix that only the ridge keeps
    invertible; such a label raises a RuntimeWarning, since EM tends to
    starve its component.
    """
    data = _as_matrix(X)
    dim = data.shape[1]
    if len(labels) != data.shape[0]:
        raise ValueError("label count does not match row count")
    names, codes = code_labels(labels)
    if not len(names):
        raise ValueError("no labeled rows")
    counts = np.bincount(codes)
    for name, n_rows in zip(names, counts.tolist()):
        if n_rows < 2:
            raise ValueError(f"label {name!r} has only {n_rows} row(s); need at least 2")
        if n_rows <= dim:
            warnings.warn(
                f"label {name!r} has {n_rows} row(s) at dimension {dim}; "
                "its covariance is singular up to the ridge",
                RuntimeWarning,
                stacklevel=2,
            )
    means, covariances = _estimate(data, np.eye(len(names))[codes], counts)
    return GmmModel(means, covariances, counts / len(codes), tuple(names))


def kmeans_init(X, k: int, seed: int) -> GmmModel:
    """Anonymous mixture from seeded k-means++ plus Lloyd iterations.

    Cluster identities are unknown, so component labels stay unset. An
    empty cluster is re-seeded deterministically with the point currently
    farthest from its assigned centroid.
    """
    data = _as_matrix(X)
    n = data.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError(f"need at least {k} rows, got {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_seeds(data, k, rng)

    assignment = None
    for _ in range(KMEANS_MAX_ITER):
        dist2 = _sqdist(data, centers)
        new_assignment = np.argmin(dist2, axis=1)
        new_assignment = _fix_empty_clusters(new_assignment, dist2, k)
        if assignment is not None and np.array_equal(assignment, new_assignment):
            break
        assignment = new_assignment
        for j in range(k):
            centers[j] = data[assignment == j].mean(axis=0)

    counts = np.bincount(assignment, minlength=k)
    means, covariances = _estimate(data, np.eye(k)[assignment], counts)
    return GmmModel(means, covariances, counts / n, (None,) * k)


def _kmeans_pp_seeds(data: np.ndarray, k: int, rng) -> np.ndarray:
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    closest = np.sum((data - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
        centers[j] = data[idx]
        closest = np.minimum(closest, np.sum((data - centers[j]) ** 2, axis=1))
    return centers


def _sqdist(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return (
        np.sum(data**2, axis=1)[:, None]
        - 2.0 * data @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )


def _fix_empty_clusters(assignment, dist2, k):
    counts = np.bincount(assignment, minlength=k)
    if np.all(counts > 0):
        return assignment
    assignment = assignment.copy()
    own = dist2[np.arange(len(assignment)), assignment].copy()
    for j in np.flatnonzero(counts == 0):
        # Farthest point whose donor cluster keeps at least one member.
        order = np.argsort(-own, kind="stable")
        for farthest in order:
            donor = assignment[farthest]
            if counts[donor] > 1:
                break
        else:
            raise NumericalError("cannot repopulate empty cluster")
        counts[donor] -= 1
        counts[j] += 1
        assignment[farthest] = j
        own[farthest] = -np.inf  # a re-seeded point cannot move again
    return assignment


def _runs(total: int, k: int, dim: int) -> list[int]:
    """Boundaries of the contiguous runs of range(total) that a kernel pass
    over a K-component, D-dimensional mixture splits into: one per worker,
    lengths within one, or a single run below SPLIT_FLOOR."""
    parts = 1 if k * dim * dim < SPLIT_FLOOR else max(1, min(WORKERS, total))
    return [total * i // parts for i in range(parts + 1)]


@functools.cache
def _pool(size: int):
    from concurrent.futures import ThreadPoolExecutor  # only once a pass splits

    return ThreadPoolExecutor(size, thread_name_prefix="kinseg")


# A forked child inherits the pools but not their threads; work submitted to
# them would wait forever.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _run(fn, parts: list[tuple]) -> None:
    """fn(*args) for every args in parts: the first on the calling thread, the
    others on a pool of WORKERS - 1 threads, each in a copy of the caller's
    context (which carries numpy's errstate). Returns once all are done."""
    futures = [
        _pool(WORKERS - 1).submit(contextvars.copy_context().run, fn, *args)
        for args in parts[1:]
    ]
    try:
        fn(*parts[0])
    finally:
        for future in futures:
            future.exception()  # wait even if this thread's part raised
    for future in futures:
        future.result()


def _log_densities(data: np.ndarray, means, covariances, weights) -> np.ndarray:
    """N x K matrix of log(w_k) + log N(x; mu_k, C_k) of a stacked mixture.

    With C_k = L_k L_k^T and P_k = L_k^-T side by side in pcat (D x K*D), a
    block of rows gets all K Mahalanobis terms from one GEMM:
    ||x P_k - mu_k P_k||^2. At SPLIT_FLOOR and above, the row blocks split
    into contiguous runs, one per worker.
    """
    k, dim = means.shape
    try:
        chol = np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError:
        for j, cov in enumerate(covariances):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise NumericalError(
                    f"covariance of component {j} is not positive definite"
                ) from None
        raise
    # The triangular inverse goes through numpy's LAPACK like every other
    # call here: scipy.linalg links a second BLAS, whose worker threads keep
    # spinning after each call and contend with numpy's GEMM threads (on two
    # cores an EM iteration ran ~1.7x slower with scipy's solve_triangular).
    prec = np.swapaxes(np.tril(np.linalg.inv(chol)), -1, -2)
    pcat = prec.transpose(1, 0, 2).reshape(dim, k * dim)
    offsets = (means[:, None, :] @ prec).reshape(k * dim)
    logdet = np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    bias = np.log(weights) - 0.5 * dim * np.log(2.0 * np.pi) - logdet

    n = data.shape[0]
    out = np.empty((n, k))
    n_blocks = -(-n // ROW_BLOCK)
    bounds = [min(b * ROW_BLOCK, n) for b in _runs(n_blocks, k, dim)]

    def part(lo, hi, y):
        for start in range(lo, hi, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, hi)
            block = np.matmul(data[start:stop], pcat, out=y[: stop - start])
            block -= offsets
            block = block.reshape(stop - start, k, dim)
            q = np.einsum("bkd,bkd->bk", block, block, out=out[start:stop])
            q *= -0.5
            q += bias

    _run(part, [
        (lo, hi, np.empty((ROW_BLOCK, k * dim))) for lo, hi in zip(bounds, bounds[1:])
    ])
    return out


def _scatter(data: np.ndarray, resp: np.ndarray, means: np.ndarray) -> np.ndarray:
    """K x D x D sums over rows of r_ik (x_i - mu_k)(x_i - mu_k)^T.

    Component k sums only the rows with r_ik > 0: most responsibilities of a
    well-separated mixture underflow to exactly 0 (64-68% at D=96, K=10 on
    the benchmark's robot data), and an exact 0 adds nothing to the sum.
    Those rows are gathered GATHER_ELEMENTS // D at a time (at least
    ROW_BLOCK) into one buffer, turned into Z = (x - mu_k) sqrt(r_k) in
    place, and accumulated as Z^T Z. The chunk length depends on D alone, so
    each component's sum is the same whichever part computes it. At
    SPLIT_FLOOR and above, the components split into contiguous groups, one
    per worker."""
    k, dim = means.shape
    n = data.shape[0]
    out = np.zeros((k, dim, dim))
    chunk = max(ROW_BLOCK, GATHER_ELEMENTS // dim)
    rows_held = min(n, chunk)
    bounds = _runs(k, k, dim)

    def part(lo, hi, z, w, s):
        for j in range(lo, hi):
            rows = np.flatnonzero(resp[:, j])
            for start in range(0, len(rows), chunk):
                idx = rows[start : start + chunk]
                zb = np.take(data, idx, axis=0, out=z[: len(idx)], mode="clip")
                zb -= means[j]
                r = np.take(resp[:, j], idx, out=w[: len(idx)], mode="clip")
                zb *= np.sqrt(r, out=r)[:, None]
                out[j] += np.matmul(zb.T, zb, out=s)

    _run(part, [
        (lo, hi, np.empty((rows_held, dim)), np.empty(rows_held), np.empty((dim, dim)))
        for lo, hi in zip(bounds, bounds[1:])
    ])
    return out


def _estimate(data: np.ndarray, resp: np.ndarray, mass: np.ndarray):
    """Means and regularized covariances of the components whose
    responsibilities are the columns of resp, mass holding each column's
    sum: EM's M-step, and on 0/1 responsibilities both inits' estimate."""
    means = (resp.T @ data) / mass[:, None]
    scatter = _scatter(data, resp, means)
    return means, regularize_covariance(scatter / mass[:, None, None])


def _logsumexp_rows(logs: np.ndarray) -> np.ndarray:
    m = np.max(logs, axis=1)
    return m + np.log(np.sum(np.exp(logs - m[:, None]), axis=1))


def em_fit(X, init: GmmModel, tol: float, max_iter: int) -> GmmModel:
    """Refine a mixture by EM until the relative log-likelihood change
    drops below tol or max_iter iterations are reached.

    Component order and labels are carried over from the initial model
    unchanged; the per-iteration log-likelihood lands in fit_trace. A
    component whose responsibility mass underflows is frozen for that
    iteration rather than divided by ~0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    data = _as_matrix(X)
    dim = data.shape[1]
    if dim != init.dimension:
        raise ValueError(
            f"data dimension {dim} does not match init model {init.dimension}"
        )
    means = np.array(init.means, dtype=float)
    covariances = np.array(init.covariances, dtype=float)
    weights = np.array(init.weights, dtype=float)
    fit_trace: list[float] = []
    mass_floor = 10.0 * dim * np.finfo(float).eps
    prev_ll = None
    for iteration in range(max_iter):
        logs = _log_densities(data, means, covariances, weights)
        norm = _logsumexp_rows(logs)
        ll = float(np.sum(norm))
        if not np.isfinite(ll):
            raise NumericalError(
                f"non-finite log-likelihood at iteration {iteration}"
            )
        fit_trace.append(ll)
        if prev_ll is not None and abs(ll - prev_ll) <= tol * max(abs(prev_ll), 1.0):
            break
        prev_ll = ll

        resp = np.exp(logs - norm[:, None])
        mass = resp.sum(axis=0)
        live = np.flatnonzero(mass >= mass_floor)  # the others stay frozen
        means[live], covariances[live] = _estimate(data, resp[:, live], mass[live])
        floored = np.maximum(mass, mass_floor)
        weights = floored / floored.sum()
    return GmmModel(means, covariances, weights, init.labels, fit_trace)


def predict_labels(model: GmmModel, X) -> np.ndarray:
    """Most likely component name per row, as an object array: the argmax
    of the rows' log densities, so no posteriors are formed.

    Ties go to the lowest component index. Components without a label get
    the synthetic name "cluster_<index>".
    """
    data = _as_matrix(X)
    if data.shape[1] != model.dimension:
        raise ValueError(
            f"data dimension {data.shape[1]} does not match model {model.dimension}"
        )
    logs = _log_densities(data, model.means, model.covariances, model.weights)
    names = [model.component_name(k) for k in range(model.n_components)]
    return np.array(names, dtype=object)[np.argmax(logs, axis=1)]


def transition_points(labels: Sequence[str]) -> np.ndarray:
    """Label-change events: the rows t with label(t) != label(t+1), as an
    index array."""
    labels = np.asarray(labels, dtype=object)
    return np.flatnonzero(labels[1:] != labels[:-1])


_COMPONENT_KEYS = ("label", "weight", "mean", "covariance")  # of a model.json component


def _model_json(model: GmmModel):
    """model.json version 2 as pieces of json.dumps(doc) + "\n", one per
    component, so a write holds one component's floats and text at a time
    (5 MiB less at K=10, D=96). Each covariance is its row-major upper
    triangle, so it must be bitwise symmetric (signed zeros, NaN), as fits are."""
    covariances = np.asarray(model.covariances, dtype=float)
    bits = covariances.view(np.uint64)
    for k in np.flatnonzero((bits != np.swapaxes(bits, 1, 2)).any(axis=(1, 2))):
        raise ValueError(f"the covariance of component {model.component_name(k)!r} "
                         "is not symmetric")
    head = json.dumps({"format": "kinseg-gmm", "version": 2, "dimension": model.dimension})
    yield head[:-1] + ', "components": ['
    upper = np.triu_indices(model.dimension)
    for k, label in enumerate(model.labels):
        values = (label, float(model.weights[k]), model.means[k].tolist(),
                  covariances[k][upper].tolist())
        yield (", " if k else "") + json.dumps(dict(zip(_COMPONENT_KEYS, values)))
    yield '], "fit_trace": ' + json.dumps([float(v) for v in model.fit_trace]) + "}\n"


def dumps_model(model: GmmModel) -> str:
    return "".join(_model_json(model))


def save_model(model: GmmModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_model_json(model))


def _numbers(values, shape: tuple, what: str) -> np.ndarray:
    """values as a float array of the given shape (None: any length), or a
    ValueError naming what they are."""
    try:
        array = np.array(values)
    except ValueError:  # ragged nesting
        array = np.array(None)
    if array.dtype.kind not in "fi" or array.shape != (shape or (array.size,)):
        raise ValueError(f"model.json: {what} must be {shape or 'a list of'} numbers")
    return array.astype(float)


def load_model(path) -> GmmModel:
    """The mixture that save_model wrote to path, every array bit for bit (a
    NaN comes back as the NaN json reads). Only version 2 is read."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "kinseg-gmm":
        raise ValueError("model.json: not a kinseg-gmm model")
    if doc.get("version") != 2:
        raise ValueError(f"model.json: version {doc.get('version')!r} is not read, only 2; "
                         "re-run `kinseg segment` to write it")
    dim, parts = doc.get("dimension"), doc.get("components")
    if type(dim) is not int or dim < 1:
        raise ValueError(f"model.json: dimension must be a positive integer, got {dim!r}")
    if not isinstance(parts, list) or not parts or not all(
        isinstance(c, dict) and c.keys() == set(_COMPONENT_KEYS)
        and isinstance(c["label"], (str, type(None))) for c in parts
    ):
        raise ValueError(f"model.json: components need keys {_COMPONENT_KEYS}, label str/null")
    k, size = len(parts), dim * (dim + 1) // 2  # size is checked before any D x D array
    triangles = _numbers([c["covariance"] for c in parts], (k, size), "covariance")
    upper, covariances = np.triu_indices(dim), np.empty((k, dim, dim))
    covariances[:, upper[0], upper[1]] = covariances[:, upper[1], upper[0]] = triangles
    return GmmModel(
        means=_numbers([c["mean"] for c in parts], (k, dim), "mean"),
        covariances=covariances,
        weights=_numbers([c["weight"] for c in parts], (k,), "weight"),
        labels=tuple(c["label"] for c in parts),
        fit_trace=_numbers(doc.get("fit_trace"), None, "fit_trace").tolist(),
    )
