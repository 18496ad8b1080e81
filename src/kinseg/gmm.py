"""Gaussian mixture fitting over augmented states.

The mixture is initialized either from annotated demonstrations (one
component per gesture label, estimated from the labeled rows) or by
seeded k-means++, then refined with EM on the unlabeled data. Components
keep full covariance matrices: with a one-step window the cross-block
covariance between x(t) and x(t+1) is what encodes the per-gesture linear
regime, so diagonal covariances would discard the very structure being
clustered.

A GmmModel is the mixture as stacked arrays, component k at index k of
each: means (K x D), covariances (K x D x D), weights (K, summing to 1) and
labels (a K-tuple of gesture names, or None for anonymous components),
plus the per-iteration log-likelihoods of the EM run that produced it.

One numeric kernel serves EM, the log-likelihood, the posteriors and the
predictions, directly on those arrays. All K covariances are factored with one
batched Cholesky, C_k = L_k L_k^T, and the precision factors P_k = L_k^-T
are concatenated into one D x (K*D) matrix, so the Mahalanobis terms of a
block of rows come from a single GEMM: ||x P_k - mu_k P_k||^2 (as in
scikit-learn's GaussianMixture with precisions_cholesky_). The M-step
takes all means as one product resp^T X and accumulates the centered,
responsibility-weighted scatter blockwise. Rows are processed in blocks of
ROW_BLOCK, so no temporary grows with the row count beyond the N x K
posteriors.

Both block loops split across WORKERS threads (the usable CPUs); numpy
releases the GIL inside BLAS calls and ufunc loops. kinseg/__init__.py pins
BLAS to one thread, so the threads do not contend with BLAS's own. The
E-step splits the rows into contiguous runs of whole blocks, each filling
its rows of the N x K output; every row's log densities are computed by the
same calls as without the split. The scatter splits the components into
contiguous groups, and each group accumulates its blocks in the same order
as one pass would. The batched Cholesky and inverse, and every sum over
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

REG_SCALE = 1e-6  # ridge = REG_SCALE * mean diagonal entry
REG_FLOOR = 1e-12  # absolute fallback for exactly-zero covariances
KMEANS_MAX_ITER = 100
# Rows per block in the E- and M-step kernels. Large enough for efficient
# GEMMs, small enough that the K x ROW_BLOCK x D scatter temporaries stay
# a few MB (the block size measured fastest with the lowest peak RSS).
ROW_BLOCK = 256
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
    values = getattr(X, "values", X)
    values = np.asarray(values, dtype=float)
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


def _moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and biased (1/n) centered scatter of a block of rows."""
    mean = rows.mean(axis=0)
    diff = rows - mean
    return mean, diff.T @ diff / rows.shape[0]


def _group_model(data: np.ndarray, groups, labels) -> GmmModel:
    """One component per row mask: the rows' mean, their regularized
    covariance, and their share of all rows as weight."""
    means, scatters = zip(*(_moments(data[g]) for g in groups))
    counts = np.array([np.count_nonzero(g) for g in groups])
    return GmmModel(
        means=np.array(means),
        covariances=regularize_covariance(np.array(scatters)),
        weights=counts / data.shape[0],
        labels=tuple(labels),
    )


def weak_init(
    labeled: Sequence[tuple[object, Sequence[str]]],
) -> GmmModel:
    """Initial mixture from annotated demonstrations.

    One component per distinct label; mean, covariance and weight are the
    empirical statistics of that label's rows pooled over all the given
    demonstrations. A label with no more rows than dimensions gets a
    singular scatter matrix that only the ridge keeps invertible; such a
    label raises a RuntimeWarning, since EM tends to starve its component.
    """
    if not labeled:
        raise ValueError("need at least one labeled demonstration")
    matrices = []
    all_labels = []
    dim = None
    for X, labels in labeled:
        values = _as_matrix(X)
        labels = np.asarray(labels, dtype=object)
        if len(labels) != values.shape[0]:
            raise ValueError("label count does not match row count")
        if dim is None:
            dim = values.shape[1]
        elif values.shape[1] != dim:
            raise ValueError(
                f"dimension mismatch across demonstrations ({values.shape[1]} vs {dim})"
            )
        matrices.append(values)
        all_labels.append(labels)
    names, codes = np.unique(np.concatenate(all_labels), return_inverse=True)
    if not len(names):
        raise ValueError("no labeled rows in any demonstration")
    groups = [codes == k for k in range(len(names))]
    for name, group in zip(names, groups):
        n_rows = np.count_nonzero(group)
        if n_rows < 2:
            raise ValueError(f"label {name!r} has only {n_rows} row(s); need at least 2")
        if n_rows <= dim:
            warnings.warn(
                f"label {name!r} has {n_rows} row(s) at dimension {dim}; "
                "its covariance is singular up to the ridge",
                RuntimeWarning,
                stacklevel=2,
            )
    return _group_model(np.vstack(matrices), groups, names)


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

    groups = [assignment == j for j in range(k)]
    return _group_model(data, groups, [None] * k)


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
    """K x D x D sums over rows of r_ik (x_i - mu_k)(x_i - mu_k)^T, accumulated
    one row block at a time as Z_k^T Z_k with Z_k = (x - mu_k) sqrt(r_k).
    At SPLIT_FLOOR and above, the components split into contiguous groups,
    one per worker; each group keeps the block order, so every sum is the
    same."""
    k, dim = means.shape
    n = data.shape[0]
    out = np.zeros((k, dim, dim))
    bounds = _runs(k, k, dim)

    def part(lo, hi, z, w, s):
        for start in range(0, n, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, n)
            zb = np.subtract(data[start:stop], means[lo:hi, None, :], out=z[:, : stop - start])
            zb *= np.sqrt(resp[start:stop, lo:hi].T, out=w[:, : stop - start])[:, :, None]
            out[lo:hi] += np.matmul(np.swapaxes(zb, 1, 2), zb, out=s)

    _run(part, [
        (lo, hi, np.empty((hi - lo, ROW_BLOCK, dim)), np.empty((hi - lo, ROW_BLOCK)),
         np.empty((hi - lo, dim, dim)))
        for lo, hi in zip(bounds, bounds[1:])
    ])
    return out


def _logsumexp_rows(logs: np.ndarray) -> np.ndarray:
    m = np.max(logs, axis=1)
    return m + np.log(np.sum(np.exp(logs - m[:, None]), axis=1))


def _model_log_densities(model: GmmModel, X) -> np.ndarray:
    data = _as_matrix(X)
    if data.shape[1] != model.dimension:
        raise ValueError(
            f"data dimension {data.shape[1]} does not match model {model.dimension}"
        )
    return _log_densities(data, model.means, model.covariances, model.weights)


def log_likelihood(model: GmmModel, X) -> float:
    """Total log-density of the data under the mixture."""
    return float(np.sum(_logsumexp_rows(_model_log_densities(model, X))))


def responsibilities(model: GmmModel, X) -> np.ndarray:
    """Posterior component probabilities per row (rows sum to 1)."""
    logs = _model_log_densities(model, X)
    return np.exp(logs - _logsumexp_rows(logs)[:, None])


def em_fit(X, init: GmmModel, tol: float = 1e-6, max_iter: int = 300) -> GmmModel:
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
        live_resp = resp[:, live]
        live_mass = mass[live, None]
        means[live] = (live_resp.T @ data) / live_mass
        scatter = _scatter(data, live_resp, means[live])
        covariances[live] = regularize_covariance(scatter / live_mass[:, :, None])
        floored = np.maximum(mass, mass_floor)
        weights = floored / floored.sum()
    return GmmModel(means, covariances, weights, init.labels, fit_trace)


def predict_labels(model: GmmModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Most likely component name per row, as an object array, plus the
    full posterior matrix.

    Ties go to the lowest component index. Components without a label get
    the synthetic name "cluster_<index>".
    """
    post = responsibilities(model, X)
    names = [model.component_name(k) for k in range(model.n_components)]
    return np.array(names, dtype=object)[np.argmax(post, axis=1)], post


@dataclass(frozen=True)
class TransitionPoint:
    row: int
    vector: np.ndarray
    from_label: str
    to_label: str


def transition_points(labels: Sequence[str], X) -> list[TransitionPoint]:
    """Label-change events: one entry at each t with label(t) != label(t+1),
    carrying the feature vector at t+1."""
    data = _as_matrix(X)
    labels = np.asarray(labels, dtype=object)
    if len(labels) != data.shape[0]:
        raise ValueError("label count does not match row count")
    return [
        TransitionPoint(int(t), data[t + 1], labels[t], labels[t + 1])
        for t in np.flatnonzero(labels[1:] != labels[:-1])
    ]


def dumps_model(model: GmmModel) -> str:
    """Self-describing JSON; floats serialize at full round-trip precision."""
    doc = {
        "format": "kinseg-gmm",
        "version": 1,
        "dimension": model.dimension,
        "components": [
            {
                "label": label,
                "weight": float(weight),
                "mean": mean.tolist(),
                "covariance": covariance.tolist(),
            }
            for label, weight, mean, covariance in zip(
                model.labels, model.weights, model.means, model.covariances
            )
        ],
        "fit_trace": [float(v) for v in model.fit_trace],
    }
    return json.dumps(doc, indent=2) + "\n"


def loads_model(text: str) -> GmmModel:
    doc = json.loads(text)
    if doc.get("format") != "kinseg-gmm":
        raise ValueError("not a mixture model file")
    components = doc["components"]
    k, dim = len(components), int(doc["dimension"])
    return GmmModel(
        means=np.array([c["mean"] for c in components], dtype=float).reshape(k, dim),
        covariances=np.array(
            [c["covariance"] for c in components], dtype=float
        ).reshape(k, dim, dim),
        weights=np.array([c["weight"] for c in components], dtype=float),
        labels=tuple(c["label"] for c in components),
        fit_trace=[float(v) for v in doc["fit_trace"]],
    )


def save_model(model: GmmModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_model(model))


def load_model(path) -> GmmModel:
    with open(path) as fh:
        return loads_model(fh.read())
