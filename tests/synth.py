"""Synthetic ground-truth generator: switched linear dynamics.

Trajectories evolve as x(t+1) = A_k x(t) + w(t), where the regime matrix
A_k switches according to a fixed schedule and w(t) is zero-mean Gaussian
noise. Noise is drawn as L z with L the Cholesky factor of the noise
covariance and z standard normals from a seeded PCG64 generator, so runs
are reproducible within a platform; cross-platform agreement is
statistical, not bit-exact.

The tests use it as their oracle: write_dataset lays a labeled dataset out
on disk for the CLI, and serialize_kinematics writes recordings back to
text. It also holds what the test modules share, so that none imports
another: rotvec_matrices for robot recordings, write_jigsaws for the
benchmark's JIGSAWS-shaped data, lowpass_filter for one signal's filtered
channels, and tree_bytes for a run's output files. It needs only numpy and
kinseg:

    PYTHONPATH=tests python -c "import synth; synth.write_dataset('data', n_demos=3)"
"""

import csv
import io
import os
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

from kinseg import preprocess
from kinseg.ingest import (
    JIGSAWS_TOTAL_COLUMNS,
    PSM_COLUMNS,
    Segment,
    serialize_transcript,
)

SPECTRAL_RADIUS_LIMIT = 1.05
DIVERGENCE_NORM = 1e6
DEFAULT_CONTRACTION = 0.95
MIN_REGIME_DISTANCE = 0.1
RESEED_BUDGET = 100


def regime_label(index: int) -> str:
    return f"R{index}"


@dataclass(frozen=True)
class SwitchedLds:
    """Regime matrices, process noise, and a segment schedule."""

    regimes: tuple[np.ndarray, ...]
    noise_cov: np.ndarray
    schedule: tuple[tuple[int, int], ...]  # (duration_frames, regime_index)
    x0: np.ndarray
    seed: int = 0

    def __post_init__(self):
        regimes = tuple(np.asarray(A, dtype=float) for A in self.regimes)
        if not regimes:
            raise ValueError("need at least one regime matrix")
        p = regimes[0].shape[0]
        for A in regimes:
            if A.shape != (p, p):
                raise ValueError("all regime matrices must be p x p")
            radius = np.max(np.abs(np.linalg.eigvals(A)))
            if radius > SPECTRAL_RADIUS_LIMIT:
                raise ValueError(
                    f"regime spectral radius {radius:.3f} exceeds "
                    f"{SPECTRAL_RADIUS_LIMIT}"
                )
        noise_cov = np.asarray(self.noise_cov, dtype=float)
        if noise_cov.shape != (p, p):
            raise ValueError("noise_cov must be p x p")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (p,):
            raise ValueError("x0 must be a length-p vector")
        for duration, index in self.schedule:
            if duration < 1:
                raise ValueError("schedule durations must be >= 1")
            if not 0 <= index < len(regimes):
                raise ValueError(f"regime index {index} out of range")
        object.__setattr__(self, "regimes", regimes)
        object.__setattr__(self, "noise_cov", noise_cov)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(
            self, "schedule", tuple((int(d), int(i)) for d, i in self.schedule)
        )

    @property
    def dim(self) -> int:
        return self.regimes[0].shape[0]

    @property
    def n_frames(self) -> int:
        return sum(d for d, _ in self.schedule)


def generate(model: SwitchedLds) -> tuple[np.ndarray, list[str]]:
    """Roll the recurrence out; returns the T x p frames and per-frame labels."""
    p = model.dim
    rng = np.random.default_rng(model.seed)
    if np.any(model.noise_cov):
        chol = np.linalg.cholesky(model.noise_cov)
    else:
        chol = None

    labels = []
    for duration, index in model.schedule:
        labels.extend([regime_label(index)] * duration)
    T = len(labels)

    frames = np.empty((T, p))
    frames[0] = model.x0
    for t in range(T - 1):
        A = model.regimes[_regime_at(model.schedule, t)]
        noise = chol @ rng.standard_normal(p) if chol is not None else 0.0
        frames[t + 1] = A @ frames[t] + noise
        if np.linalg.norm(frames[t + 1]) > DIVERGENCE_NORM:
            raise FloatingPointError(
                f"trajectory diverged at frame {t + 1} (norm > {DIVERGENCE_NORM:g})"
            )
    return frames, labels


def _regime_at(schedule, t: int) -> int:
    offset = 0
    for duration, index in schedule:
        offset += duration
        if t < offset:
            return index
    raise IndexError(f"frame {t} beyond schedule")


def schedule_transcript(schedule) -> tuple[Segment, ...]:
    """The schedule as 1-based inclusive segments."""
    segments = []
    start = 1
    for duration, index in schedule:
        segments.append(Segment(start, start + duration - 1, regime_label(index)))
        start += duration
    return tuple(segments)


def make_random_regimes(
    n: int,
    p: int,
    seed: int,
    contraction: float = DEFAULT_CONTRACTION,
) -> list[np.ndarray]:
    """n random p x p matrices rescaled to the given spectral radius,
    pairwise at least 0.1 apart in Frobenius norm (rejection sampled)."""
    if not 0 < contraction <= 1:
        raise ValueError("contraction must lie in (0, 1]")
    if n < 1 or p < 1:
        raise ValueError("n and p must be >= 1")
    rng = np.random.default_rng(seed)
    regimes: list[np.ndarray] = []
    for _ in range(n):
        for _ in range(RESEED_BUDGET):
            A = rng.standard_normal((p, p))
            radius = np.max(np.abs(np.linalg.eigvals(A)))
            if radius == 0:
                continue
            A = A * (contraction / radius)
            if all(
                np.linalg.norm(A - B, ord="fro") >= MIN_REGIME_DISTANCE
                for B in regimes
            ):
                regimes.append(A)
                break
        else:
            raise RuntimeError(
                f"could not draw {n} distinct regimes in {RESEED_BUDGET} tries"
            )
    return regimes


def cycling_schedule(
    n_regimes: int, n_segments: int, segment_frames: int
) -> tuple[tuple[int, int], ...]:
    """Fixed-length segments cycling through the regimes in order."""
    return tuple((segment_frames, k % n_regimes) for k in range(n_segments))


def serialize_kinematics(
    frames: np.ndarray, layout: str = "generic_csv", names: list[str] | None = None
) -> str:
    """Write a recording's T x C frames back to text.

    The jigsaws layout zero-fills the 38 master-manipulator columns the
    parser discards, so parse -> serialize -> parse is identity on the
    retained channels. The generic_csv layout writes the names as its header.
    """
    if layout == "jigsaws":
        if frames.shape[1] != PSM_COLUMNS:
            raise ValueError(f"jigsaws layout requires {PSM_COLUMNS} channels")
        pad = "0.0 " * (JIGSAWS_TOTAL_COLUMNS - PSM_COLUMNS)
        lines = [
            pad + " ".join(repr(float(v)) for v in row) for row in frames
        ]
        return "\n".join(lines) + "\n"
    if layout == "generic_csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(names)
        for row in frames:
            writer.writerow([repr(float(v)) for v in row])
        return out.getvalue()
    raise ValueError(f"unknown layout {layout!r}")


def write_dataset(
    output_dir,
    *,
    n_demos: int = 2,
    regimes: int = 4,
    dim: int = 6,
    contraction: float = DEFAULT_CONTRACTION,
    noise_sigma: float = 0.05,
    segments: int = 12,
    segment_frames: int = 150,
    seed: int = 0,
) -> None:
    """Write kinematics/synth<NN>.csv and transcripts/synth<NN>.txt: demo i
    shares the regimes and schedule and draws its noise from seed + i."""
    matrices = make_random_regimes(regimes, dim, seed, contraction)
    schedule = cycling_schedule(regimes, segments, segment_frames)
    noise_cov = (noise_sigma**2) * np.eye(dim)
    kin_dir = os.path.join(output_dir, "kinematics")
    tr_dir = os.path.join(output_dir, "transcripts")
    os.makedirs(kin_dir, exist_ok=True)
    os.makedirs(tr_dir, exist_ok=True)
    transcript = schedule_transcript(schedule)
    names = [f"s{i}" for i in range(dim)]
    for i in range(n_demos):
        demo_id = f"synth{i:02d}"
        model = SwitchedLds(
            regimes=tuple(matrices),
            noise_cov=noise_cov,
            schedule=schedule,
            x0=np.zeros(dim),
            seed=seed + i,
        )
        frames, _ = generate(model)
        with open(os.path.join(kin_dir, f"{demo_id}.csv"), "w") as fh:
            fh.write(serialize_kinematics(frames, "generic_csv", names))
        with open(os.path.join(tr_dir, f"{demo_id}.txt"), "w") as fh:
            fh.write(serialize_transcript(transcript))


def rotvec_matrices(rotvecs) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of rotation vectors (..., 3), each the
    axis times the angle in radians, by Rodrigues' formula."""
    v = np.asarray(rotvecs, dtype=float)
    angle = np.linalg.norm(v, axis=-1)[..., None, None]
    K = np.zeros(v.shape + (3,))  # the unit axis's cross-product matrix
    K[..., 0, 1], K[..., 0, 2] = -v[..., 2], v[..., 1]
    K[..., 1, 0], K[..., 1, 2] = v[..., 2], -v[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -v[..., 1], v[..., 0]
    K /= np.where(angle > 0, angle, 1.0)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def write_jigsaws(data, seed, n_demos, n_frames):
    """perfbench/jigsaws_data.py's JIGSAWS-shaped dataset, written to data."""
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
    sys.path.insert(0, bench)
    try:
        import jigsaws_data
    finally:
        sys.path.remove(bench)
    jigsaws_data.write_dataset(str(data), seed, n_demos, n_frames)
    return data


def tree_bytes(root):
    """Every file under root, by relative path in sorted order, as bytes."""
    root = pathlib.Path(root)
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def lowpass_filter(signal, fc_hz, fs_hz):
    """One 1-D or T x p signal through the batched filter, as a batch of one."""
    x = np.asarray(signal, dtype=float)
    columns = x.reshape(len(x), -1)
    (y,) = preprocess._lowpass_batch([columns.shape], [columns], fc_hz, fs_hz)
    return y.reshape(x.shape)
