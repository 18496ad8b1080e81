"""Kinematic feature pipeline: quaternions, filtering, normalization,
distance signals, subsampling, and sliding-window state augmentation.

The full pipeline turns a 38-channel two-arm recording into a 32-channel
feature matrix (per arm: position, orientation quaternion, linear and
angular velocity, gripper angle; plus four inter-arm distance signals),
low-pass filtered, z-scored per channel, and subsampled. A feature matrix
is a plain T x p array; its frame grid is the run's stride: row i sits at
original frame i * stride, so per-frame labels can be aligned with any
downstream matrix.
"""

import numpy as np

from kinseg.ingest import named

FILTER_ORDER = 2

_ARM_FEATURES = (
    ["pos_x", "pos_y", "pos_z"]
    + ["quat_w", "quat_x", "quat_y", "quat_z"]
    + ["vel_x", "vel_y", "vel_z"]
    + ["angvel_x", "angvel_y", "angvel_z"]
    + ["gripper"]
)

FULL_CHANNEL_NAMES = (
    [f"right_{v}" for v in _ARM_FEATURES]
    + [f"left_{v}" for v in _ARM_FEATURES]
    + ["dist_x", "dist_y", "dist_z", "dist"]
)

# 1-based channel index groups of the full 32-channel feature vector.
POSE_INDICES = list(range(1, 8)) + list(range(15, 22))
VELOCITY_INDICES = list(range(8, 14)) + list(range(22, 28))
DISTANCE_INDICES = list(range(29, 33))

NAMED_SUBSETS = {
    "all": [],
    "no-pose": POSE_INDICES,
    "no-velocity": VELOCITY_INDICES,
    "no-distance": DISTANCE_INDICES,
}


def rotmat_to_quat(R: np.ndarray) -> np.ndarray:
    """Convert a float array of rotation matrices (..., 3, 3) to unit
    quaternions (w, x, y, z).

    Uses the largest-pivot construction for numerical robustness; the sign
    is canonicalized so w >= 0. Raises ValueError if any matrix is not
    orthonormal with positive determinant within 1e-6.
    """
    M = R.reshape(-1, 3, 3)
    err = np.abs(M.transpose(0, 2, 1) @ M - np.eye(3)).max(axis=(1, 2), initial=0.0)
    det = np.linalg.det(M)
    bad = np.flatnonzero((err > 1e-6) | (det < 0))
    if bad.size:  # report the first bad frame, as a per-frame loop would
        i = bad[0]
        at = f" (frame {i})" if R.ndim > 2 else ""
        if err[i] > 1e-6:
            raise ValueError(f"matrix is not orthonormal (deviation {err[i]:.2e}){at}")
        raise ValueError(f"matrix is a reflection, not a rotation{at}")

    r00, r01, r02, r10, r11, r12, r20, r21, r22 = M.reshape(-1, 9).T
    # Candidate squared magnitudes 4*q_i^2 for (w, x, y, z).
    cand = np.stack([1.0 + (r00 + r11 + r22), 1.0 + r00 - r11 - r22,
                     1.0 - r00 + r11 - r22, 1.0 - r00 - r11 + r22])
    rows = np.arange(len(M))
    pivot = np.argmax(cand, axis=0)
    s = 2.0 * np.sqrt(np.maximum(cand[pivot, rows], 0.0))
    # Off-pivot numerators and where each pivot puts them in (w, x, y, z);
    # the pivot's own slot is then overwritten with s / 4.
    num = np.stack([r21 - r12, r02 - r20, r10 - r01, r01 + r10, r02 + r20, r12 + r21])
    layout = np.array([[0, 0, 1, 2], [0, 0, 3, 4], [1, 3, 0, 5], [2, 4, 5, 0]])
    q = num[layout[pivot], rows[:, None]] / s[:, None]
    q[rows, pivot] = s / 4.0
    # One dot product per row: the same sum as np.linalg.norm of a 4-vector.
    q /= np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    q[q[:, 0] < 0] *= -1.0
    return q.reshape(R.shape[:-2] + (4,))


def _filter_edge(n: int) -> int:
    """Rows of even padding at each end of a length-n signal."""
    if n < 4:
        raise ValueError("signal too short to filter (need length >= 4)")
    return min(3 * FILTER_ORDER, n - 1)


def _lowpass_batch(shapes, signals, fc_hz: float, fs_hz: float) -> list[np.ndarray]:
    """Zero-phase low-pass of T_i x p_i signals, column by column: a 2nd-order
    Butterworth section applied forward, then backward, in one recurrence
    over all their columns. `signals` yields arrays of the given shapes, in
    order, and is read once, as each is copied into the buffer; the results
    are views of that one buffer. fc_hz must lie in (0, fs_hz / 2).

    The section is designed by bilinear transform with prewarping; the net
    magnitude response is the square of the single-pass response. Edges are
    handled by even (reflective) padding of 3x the filter order, cropped
    after the backward pass. Each signal's result is bit for bit that of
    scipy.signal's ``filtfilt(*butter(2, fc_hz, fs=fs_hz), x, axis=0,
    padtype="even", padlen=min(6, T - 1))``: the coefficients, the initial
    state and the recurrence repeat scipy's floating-point operations in
    scipy's order, so every rounding is the same.

    Each signal's padded columns sit left-aligned in the buffer; the rows
    below a shorter signal (zeros, then the forward pass's decaying tail)
    come after its own rows, so they never reach its output. Between the
    passes each signal's rows are reversed in place, so the backward pass
    also starts at the signal's own end, from its own initial state.
    """
    edges = [_filter_edge(n) for n, _ in shapes]
    b, a = _butter(fc_hz, fs_hz)
    # Steady state of the step response: zi = A zi + B (scipy's lfilter_zi).
    companion = np.array([-a[1:], [1.0, 0.0]])
    zi = np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])[:, None]
    spans = []  # (padded rows, column slice) of each signal
    start = 0
    for (n, p), edge in zip(shapes, edges):
        spans.append((n + 2 * edge, slice(start, start + p)))
        start += p
    buf = np.zeros((max((rows for rows, _ in spans), default=0), start))
    for x, (n, _), edge, (rows, cols) in zip(signals, shapes, edges, spans):
        ext = buf[:rows, cols]
        ext[:edge] = x[edge:0:-1]
        ext[edge : n + edge] = x
        ext[n + edge :] = x[-2 : -(edge + 2) : -1]
    for _ in range(2):  # forward, then backward over the reversed output
        _lfilter(b, a, buf, zi * buf[0])
        for rows, cols in spans:
            buf[:rows, cols] = buf[rows - 1 :: -1, cols]
    return [
        buf[edge : n + edge, cols]
        for (n, _), edge, (_, cols) in zip(shapes, edges, spans)
    ]


def _butter(fc_hz: float, fs_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """(b, a) of the 2nd-order digital Butterworth low-pass, made by the
    steps of scipy.signal.butter: analog prototype poles at the prewarped
    cutoff, bilinear transform, then the polynomials of zeros and poles.

    Like scipy, the design runs at the normalized rate fs = 2 (Nyquist 1).
    """
    wn = np.float64(fc_hz) / (float(fs_hz) / 2)
    wo = float(4.0 * np.tan(np.pi * wn / 2.0))  # prewarp: 2 fs tan(pi wn / fs)
    m = np.arange(-FILTER_ORDER + 1, FILTER_ORDER, 2, dtype=np.float64)
    analog = wo * -np.exp(1j * np.pi * m / (2 * FILTER_ORDER))
    # Bilinear transform s -> 2 fs (z - 1) / (z + 1); the prototype has no
    # finite zeros, so all of them land at z = -1.
    poles = (4.0 + analog) / (4.0 - analog)
    gain = wo**FILTER_ORDER * np.real(1.0 / np.prod(4.0 - analog))
    return gain * np.poly(-np.ones(FILTER_ORDER)), np.poly(poles).real


# Rows of b x precomputed per block of the recurrence: enough to amortize
# the three products, few enough to keep the block's buffer small.
_BLOCK_ROWS = 256


def _lfilter(b, a, x: np.ndarray, zi: np.ndarray) -> None:
    """Order-2 direct form II transposed filter down axis 0 of x (N x p),
    from state zi (2 x p), in the order of scipy's C loop:
    y = z0 + b0 x; z0 = (z1 + b1 x) - a1 y; z1 = b2 x - a2 y.
    Each output row y_t overwrites x_t."""
    a12 = a[1:, None]
    z = zi.copy()
    ay = np.empty_like(z)
    bx = np.empty((min(_BLOCK_ROWS, len(x)), 3, x.shape[1]))
    for start in range(0, len(x), _BLOCK_ROWS):
        rows = x[start : start + _BLOCK_ROWS]
        part = bx[: len(rows)]
        np.multiply(rows[:, None, :], b[:, None], part)  # rows (b0 x, b1 x, b2 x)
        # Three ufunc calls per step, writing into place (out passed
        # positionally, which skips the keyword parsing). (z0, z1) + (b0 x,
        # b1 x) leaves y in the b0 x slot and z1 + b1 x in the b1 x slot;
        # the next state is (z1 + b1 x, b2 x) - (a1 y, a2 y).
        for head, y_t, tail in zip(part[:, :2], part[:, 0], part[:, 1:]):
            np.add(z, head, head)
            np.multiply(a12, y_t, ay)
            np.subtract(tail, ay, z)
        rows[:] = part[:, 0]


def zscore(signal: np.ndarray) -> np.ndarray:
    """Normalize to zero mean, unit variance, per column of a T x p float
    matrix (or of a length-T signal), T >= 1; a constant column maps to
    zeros (also when rounding makes its sd > 0). A finite column whose
    variance overflows raises ValueError.

    It reduces contiguous rows of the transpose, which gives each column
    bit-for-bit the result of the 1-D call (a reduction down axis 0 does not).
    """
    rows = np.ascontiguousarray(signal.reshape(len(signal), -1).T)
    with np.errstate(over="ignore"):
        sd = rows.std(axis=1, keepdims=True)
    overflow = np.flatnonzero(np.isinf(sd))
    if overflow.size:
        raise ValueError(f"the variance of column {overflow[0]} overflows")
    scaled = (np.ptp(rows, axis=1, keepdims=True) != 0) & (sd != 0)
    centered = rows - rows.mean(axis=1, keepdims=True)
    out = np.divide(centered, sd, out=np.zeros_like(rows), where=scaled)
    return out.T.reshape(signal.shape)


def distance_features(pos_right: np.ndarray, pos_left: np.ndarray) -> np.ndarray:
    """Per-frame inter-arm distances (d_x, d_y, d_z, d), right minus left, of
    two T x 3 position matrices."""
    diff = pos_right - pos_left
    d = np.linalg.norm(diff, axis=1, keepdims=True)
    return np.hstack([diff, d])


def resolve_subset(subset: str) -> list[int]:
    """Resolve a feature subset to the kept 0-based indices of the 32.

    Accepts a named subset ("all", "no-pose", "no-velocity", "no-distance")
    or a comma-separated string of 1-based indices to keep.
    """
    name, n = subset.strip(), len(FULL_CHANNEL_NAMES)
    if name in NAMED_SUBSETS:
        dropped = set(NAMED_SUBSETS[name])
        return [i for i in range(n) if i + 1 not in dropped]
    try:
        keep = sorted({int(tok) for tok in name.split(",")})
    except ValueError:
        raise ValueError(f"unknown feature subset {subset!r}") from None
    if not keep or keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"explicit feature indices must lie in 1..{n}")
    return [i - 1 for i in keep]


def _arm_features(arm: np.ndarray) -> np.ndarray:
    """19 raw per-arm channels -> 14 (rotation matrix becomes a quaternion)."""
    quats = rotmat_to_quat(arm[:, 3:12].reshape(-1, 3, 3))
    return np.hstack([arm[:, 0:3], quats, arm[:, 12:19]])


def _kinematic_channels(frames: np.ndarray) -> np.ndarray:
    """The 32 unfiltered feature channels of a 38-channel recording."""
    right, left = frames[:, :19], frames[:, 19:]
    return np.hstack(
        [
            _arm_features(right),
            _arm_features(left),
            distance_features(right[:, 0:3], left[:, 0:3]),
        ]
    )


def build_features(
    recordings: dict[str, np.ndarray], *, fc_hz: float, fs_hz: float, stride: int
) -> dict[str, np.ndarray]:
    """Run the fixed preprocessing pipeline on 38-channel recordings sampled
    at fs_hz, keyed by name; returns, under the same names, the 32 feature
    columns of every stride-th frame. A ValueError names the recording at
    fault ("<name>: ..."), and every recording's length is checked first.

    Order: quaternion conversion and distance channels (from unnormalized
    positions), per recording; one low-pass filter pass over every
    recording's columns at once; then per recording the finiteness check,
    z-score and subsample. Filter and z-score work per channel.

    The recordings dict is emptied: each recording's frames are dropped once
    its channels are in the filter buffer, so the features are not
    allocated while every recording's frames are alive (freed below them,
    the frames' memory would stay in the process). The rows kept are
    copied, so the full-rate matrices are not held alive either.
    """
    names = list(recordings)
    for name, frames in recordings.items():
        named(name, _filter_edge, len(frames))
    filtered = _lowpass_batch(
        [(len(frames), len(FULL_CHANNEL_NAMES)) for frames in recordings.values()],
        (named(name, _kinematic_channels, recordings.pop(name)) for name in names),
        fc_hz,
        fs_hz,
    )
    features = {}
    for name, values in zip(names, filtered):
        # finite input can still overflow the distances or the filter
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name}: values contain non-finite entries")
        features[name] = np.ascontiguousarray(named(name, zscore, values)[::stride])
    return features


def augment(values: np.ndarray, window: int) -> np.ndarray:
    """Stack W+1 consecutive rows: row t = [x(t), ..., x(t+W)].

    The label of augmented row t is the label of row t, so the stride
    carries over. augmented_names gives the column names. Needs window >= 0
    and more than window rows.
    """
    T = len(values)
    return np.hstack([values[w : T - window + w] for w in range(window + 1)])


def augmented_names(names: list[str], window: int) -> list[str]:
    """Column names of augment's output: "<channel>_t<w>"."""
    return [f"{name}_t{w}" for w in range(window + 1) for name in names]


def labels_at_rows(frame_labels, n_rows: int, stride: int) -> np.ndarray:
    """Pick the original-grid labels at the anchor frames of n_rows rows,
    as an object array (UNANNOTATED where the frame is unannotated); a row
    anchored past the frame grid raises IndexError."""
    return np.asarray(frame_labels, dtype=object)[np.arange(n_rows) * stride]


def rows_to_frames(row_labels, stride: int, n_frames: int) -> np.ndarray:
    """Project per-row labels back onto the original frame grid, as an
    object array.

    Nearest-previous rule: frame f takes the label of the last row whose
    anchor frame does not exceed f (row 0 is anchored at frame 0). Needs at
    least one row label.
    """
    row_labels = np.asarray(row_labels, dtype=object)
    rows = np.arange(n_frames) // stride
    return row_labels[np.minimum(rows, len(row_labels) - 1)]
