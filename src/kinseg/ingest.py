"""Parsers and writers for kinematic recordings and gesture transcripts.

Two on-disk layouts are supported: the robot dataset layout (76
whitespace-separated reals per line, of which the last 38 columns are the
two patient-side arms) and a generic CSV layout (header row of channel
names, one frame per row). Transcripts are "start end label" lines with
1-based inclusive frame ranges.
"""

import csv
import io
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

JIGSAWS_TOTAL_COLUMNS = 76
PSM_COLUMNS = 38
JIGSAWS_RATE_HZ = 30.0
UNANNOTATED = ""  # label of the frames no transcript segment covers

# 19 variables per arm: position, row-major rotation matrix, linear
# velocity, angular velocity, gripper angle.
_ARM_VARIABLES = (
    ["pos_x", "pos_y", "pos_z"]
    + [f"rot_{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    + ["vel_x", "vel_y", "vel_z"]
    + ["angvel_x", "angvel_y", "angvel_z"]
    + ["gripper"]
)

PSM_CHANNEL_NAMES = [f"psm1_{v}" for v in _ARM_VARIABLES] + [
    f"psm2_{v}" for v in _ARM_VARIABLES
]


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Demonstration:
    """A raw multi-channel kinematic trajectory."""

    id: str
    frames: np.ndarray  # T x C
    sample_rate_hz: float
    channel_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError("frames must be a T x C matrix with T >= 1")
        if not np.all(np.isfinite(frames)):
            raise ValueError("frames contain non-finite values")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.channel_names and len(self.channel_names) != frames.shape[1]:
            raise ValueError("channel_names length does not match column count")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_channels(self) -> int:
        return self.frames.shape[1]


class Segment(NamedTuple):
    start: int  # 1-based inclusive
    end: int  # 1-based inclusive
    label: str


@dataclass(frozen=True)
class Transcript:
    """Ordered, non-overlapping gesture segments (1-based inclusive frames)."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(Segment(*s) for s in self.segments)
        prev_end = 0
        for s in segs:
            if not (1 <= s.start <= s.end):
                raise ValueError(f"segment {s} has invalid bounds")
            if s.start <= prev_end:
                raise ValueError(f"segment {s} overlaps the previous segment")
            prev_end = s.end
        object.__setattr__(self, "segments", segs)

    def labels(self) -> list[str]:
        return sorted({s.label for s in self.segments})

    @property
    def n_segments(self) -> int:
        return len(self.segments)


def _lines(text: str | TextIO) -> Iterable[tuple[int, str]]:
    stream = io.StringIO(text) if isinstance(text, str) else text
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def parse_kinematics(
    text: str | TextIO,
    layout: str = "jigsaws",
    *,
    id: str = "",
    sample_rate_hz: float | None = None,
) -> Demonstration:
    """Parse a kinematic recording into a Demonstration.

    layout "jigsaws": 76 whitespace-separated reals per line; only the 38
    patient-side columns are kept; default rate 30 Hz.
    layout "generic_csv": comma-separated with a header row naming the
    channels; the sample rate must be supplied by the caller (default 30).
    """
    if layout == "jigsaws":
        return _parse_jigsaws(text, id=id, sample_rate_hz=sample_rate_hz)
    if layout == "generic_csv":
        return _parse_csv(text, id=id, sample_rate_hz=sample_rate_hz)
    raise ValueError(f"unknown layout {layout!r}")


def _parse_jigsaws(text, *, id, sample_rate_hz):
    stream = io.StringIO(text) if isinstance(text, str) else text
    frames = _load_jigsaws(stream) if stream.seekable() else None
    return Demonstration(
        id=id,
        frames=_parse_jigsaws_lines(stream) if frames is None else frames,
        sample_rate_hz=sample_rate_hz if sample_rate_hz is not None else JIGSAWS_RATE_HZ,
        channel_names=list(PSM_CHANNEL_NAMES),
    )


def _load_jigsaws(stream) -> np.ndarray | None:
    """Fast path through np.loadtxt; blank input raises ParseError. Returns
    None, with the stream rewound, when the input is malformed, so that the
    line parser can report where."""
    start = stream.tell()
    if not any(line.strip() for line in iter(stream.readline, "")):
        raise ParseError("empty input")
    stream.seek(start)
    try:
        values = np.loadtxt(stream, comments=None, ndmin=2)
    except ValueError:
        values = np.empty((0, 0))
    if values.shape[1] == JIGSAWS_TOTAL_COLUMNS and np.all(np.isfinite(values)):
        return np.ascontiguousarray(values[:, -PSM_COLUMNS:])
    stream.seek(start)
    return None


def _parse_jigsaws_lines(stream) -> np.ndarray:
    """Line-by-line parse; its errors carry the 1-based line number."""
    rows = []
    for lineno, line in _lines(stream):
        tokens = line.split()
        if len(tokens) != JIGSAWS_TOTAL_COLUMNS:
            raise ParseError(
                f"expected {JIGSAWS_TOTAL_COLUMNS} columns, got {len(tokens)}", lineno
            )
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise ParseError("non-numeric token", lineno) from None
        if not all(np.isfinite(values)):
            raise ParseError("non-finite value", lineno)
        rows.append(values[-PSM_COLUMNS:])
    if not rows:
        raise ParseError("empty input")
    return np.array(rows, dtype=float)


def _parse_csv(text, *, id, sample_rate_hz):
    stream = io.StringIO(text) if isinstance(text, str) else text
    reader = csv.reader(stream)
    header = None
    rows = []
    for lineno, record in enumerate(reader, start=1):
        if not record or all(not c.strip() for c in record):
            continue
        if header is None:
            header = [c.strip() for c in record]
            continue
        if len(record) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(record)}", lineno
            )
        try:
            rows.append([float(c) for c in record])
        except ValueError:
            raise ParseError("non-numeric token", lineno) from None
    if header is None:
        raise ParseError("empty input")
    if not rows:
        raise ParseError("no data rows")
    return Demonstration(
        id=id,
        frames=np.array(rows, dtype=float),
        sample_rate_hz=sample_rate_hz if sample_rate_hz is not None else JIGSAWS_RATE_HZ,
        channel_names=header,
    )


def serialize_kinematics(demo: Demonstration, layout: str = "generic_csv") -> str:
    """Write a Demonstration back to text.

    The jigsaws layout zero-fills the 38 master-manipulator columns the
    parser discards, so parse -> serialize -> parse is identity on the
    retained channels.
    """
    if layout == "jigsaws":
        if demo.n_channels != PSM_COLUMNS:
            raise ValueError(f"jigsaws layout requires {PSM_COLUMNS} channels")
        pad = "0.0 " * (JIGSAWS_TOTAL_COLUMNS - PSM_COLUMNS)
        lines = [
            pad + " ".join(repr(float(v)) for v in row) for row in demo.frames
        ]
        return "\n".join(lines) + "\n"
    if layout == "generic_csv":
        names = demo.channel_names or [f"c{i}" for i in range(demo.n_channels)]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(names)
        for row in demo.frames:
            writer.writerow([repr(float(v)) for v in row])
        return out.getvalue()
    raise ValueError(f"unknown layout {layout!r}")


def parse_transcript(text: str | TextIO) -> Transcript:
    """Parse "start end label" lines into a sorted Transcript."""
    segments = []
    for lineno, line in _lines(text):
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"expected 'start end label', got {line!r}", lineno)
        try:
            start, end = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError("non-integer frame index", lineno) from None
        if start > end:
            raise ParseError(f"start {start} exceeds end {end}", lineno)
        if start < 1:
            raise ParseError(f"frame indices are 1-based, got {start}", lineno)
        segments.append(Segment(start, end, tokens[2]))
    segments.sort(key=lambda s: s.start)
    for prev, cur in zip(segments, segments[1:]):
        if cur.start <= prev.end:
            raise ParseError(f"segments {prev} and {cur} overlap")
    return Transcript(tuple(segments))


def serialize_transcript(t: Transcript) -> str:
    return "".join(f"{s.start} {s.end} {s.label}\n" for s in t.segments)


def expand_labels(t: Transcript, n_frames: int) -> np.ndarray:
    """Per-frame labels as an object array (0-based, length n_frames);
    frames no segment covers hold UNANNOTATED."""
    if n_frames < 0:
        raise ValueError(f"trajectory length must be >= 0, got {n_frames}")
    labels = np.full(n_frames, UNANNOTATED, dtype=object)
    for s in t.segments:
        if s.end > n_frames:
            raise ValueError(
                f"segment {s} exceeds trajectory length {n_frames}"
            )
        labels[s.start - 1 : s.end] = s.label
    return labels


def compress_labels(labels: Sequence[str]) -> Transcript:
    """Inverse of expand_labels: contiguous runs become segments, and
    UNANNOTATED runs become gaps."""
    labels = np.asarray(labels, dtype=object)
    # runs start at frame 0 (if there is one) and wherever the label changes
    starts = np.flatnonzero(np.r_[len(labels) > 0, labels[1:] != labels[:-1]])
    runs = zip(starts.tolist(), starts[1:].tolist() + [len(labels)], labels[starts])
    return Transcript(
        tuple(Segment(i + 1, j, label) for i, j, label in runs if label != UNANNOTATED)
    )
