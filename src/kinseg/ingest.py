"""Parse kinematic recordings; parse and write gesture transcripts.

Two on-disk layouts are supported: the robot dataset layout (76
whitespace-separated reals per line, of which the last 38 columns are the
two patient-side arms) and a generic CSV layout (header row of channel
names, one frame per row). Transcripts are "start end label" lines with
1-based inclusive frame ranges; in memory a transcript is a tuple of
Segments.
"""

import csv
import io
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

JIGSAWS_TOTAL_COLUMNS = 76
PSM_COLUMNS = 38
JIGSAWS_RATE_HZ = 30.0
UNANNOTATED = ""  # label of the frames no transcript segment covers


class Segment(NamedTuple):
    start: int  # 1-based inclusive
    end: int  # 1-based inclusive
    label: str


def _lines(text: str | TextIO) -> Iterable[tuple[int, str]]:
    stream = io.StringIO(text) if isinstance(text, str) else text
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def parse_kinematics(
    text: str | TextIO, layout: str = "jigsaws"
) -> tuple[np.ndarray, list[str] | None]:
    """Parse a kinematic recording into its T x C frames and its CSV header
    (None for robot text, whose columns have no names in the file).

    layout "jigsaws": 76 whitespace-separated reals per line; only the 38
    patient-side columns are kept.
    layout "generic_csv": comma-separated with a header row naming the
    channels.
    """
    stream = io.StringIO(text) if isinstance(text, str) else text
    if layout == "jigsaws":
        frames = _load_jigsaws(stream) if stream.seekable() else None
        if frames is None:
            frames = _parse_jigsaws_lines(stream)
        return frames, None
    if layout == "generic_csv":
        return _parse_csv(stream)
    raise ValueError(f"unknown layout {layout!r}")


def _load_jigsaws(stream) -> np.ndarray | None:
    """Fast path through np.loadtxt; blank input raises ValueError. Returns
    None, with the stream rewound, when the input is malformed, so that the
    line parser can report where."""
    start = stream.tell()
    if not any(line.strip() for line in iter(stream.readline, "")):
        raise ValueError("empty input")
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
            raise ValueError(
                f"line {lineno}: expected {JIGSAWS_TOTAL_COLUMNS} columns, "
                f"got {len(tokens)}"
            )
        rows.append(_finite_floats(tokens, lineno)[-PSM_COLUMNS:])
    if not rows:
        raise ValueError("empty input")
    return np.array(rows, dtype=float)


def _finite_floats(tokens: list[str], lineno: int) -> list[float]:
    """The tokens of line lineno as finite floats."""
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        raise ValueError(f"line {lineno}: non-numeric token") from None
    if not all(np.isfinite(values)):
        raise ValueError(f"line {lineno}: non-finite value")
    return values


def _parse_csv(stream) -> tuple[np.ndarray, list[str]]:
    """Frames and the header's channel names."""
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
            raise ValueError(
                f"line {lineno}: expected {len(header)} columns, got {len(record)}"
            )
        rows.append(_finite_floats(record, lineno))
    if header is None:
        raise ValueError("empty input")
    if not rows:
        raise ValueError("no data rows")
    return np.array(rows, dtype=float), header


def parse_transcript(text: str | TextIO) -> tuple[Segment, ...]:
    """Parse "start end label" lines into segments sorted by start, each
    within bounds and none overlapping another."""
    segments = []
    for lineno, line in _lines(text):
        tokens = line.split()
        if len(tokens) != 3:
            raise ValueError(f"line {lineno}: expected 'start end label', got {line!r}")
        try:
            start, end = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer frame index") from None
        if start > end:
            raise ValueError(f"line {lineno}: start {start} exceeds end {end}")
        if start < 1:
            raise ValueError(f"line {lineno}: frame indices are 1-based, got {start}")
        segments.append(Segment(start, end, tokens[2]))
    segments.sort(key=lambda s: s.start)
    for prev, cur in zip(segments, segments[1:]):
        if cur.start <= prev.end:
            raise ValueError(f"segments {prev} and {cur} overlap")
    return tuple(segments)


def serialize_transcript(t: Sequence[Segment]) -> str:
    return "".join(f"{s.start} {s.end} {s.label}\n" for s in t)


def expand_labels(t: Sequence[Segment], n_frames: int) -> np.ndarray:
    """Per-frame labels as an object array (0-based, length n_frames);
    frames no segment covers hold UNANNOTATED."""
    if n_frames < 0:
        raise ValueError(f"trajectory length must be >= 0, got {n_frames}")
    labels = np.full(n_frames, UNANNOTATED, dtype=object)
    for s in t:
        if s.end > n_frames:
            raise ValueError(
                f"segment {s} exceeds trajectory length {n_frames}"
            )
        labels[s.start - 1 : s.end] = s.label
    return labels


def code_labels(labels: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct labels and each label's index among them, as
    np.unique(labels, return_inverse=True) gives them for an object array,
    from one set and one dict lookup per label instead of a comparison sort."""
    values = np.asarray(labels, dtype=object).tolist()
    names = sorted(set(values))
    index = {name: i for i, name in enumerate(names)}
    codes = map(index.__getitem__, values)
    return names, np.fromiter(codes, dtype=np.intp, count=len(values))


def compress_labels(labels: Sequence[str]) -> tuple[Segment, ...]:
    """Inverse of expand_labels: contiguous runs become segments, and
    UNANNOTATED runs become gaps."""
    labels = np.asarray(labels, dtype=object)
    # runs start at frame 0 (if there is one) and wherever the label changes
    starts = np.flatnonzero(np.r_[len(labels) > 0, labels[1:] != labels[:-1]])
    runs = zip(starts.tolist(), starts[1:].tolist() + [len(labels)], labels[starts])
    return tuple(
        Segment(i + 1, j, label) for i, j, label in runs if label != UNANNOTATED
    )
