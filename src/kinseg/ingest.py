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
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

JIGSAWS_TOTAL_COLUMNS = 76
PSM_COLUMNS = 38
JIGSAWS_RATE_HZ = 30.0
UNANNOTATED = ""  # label of the frames no transcript segment covers
_DELIMITERS = {"jigsaws": None, "generic_csv": ","}  # np.loadtxt's, by layout


def named(source: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError's message prefixed by its
    source, the file or recording at fault: "<source>: <message>"."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


class Segment(NamedTuple):
    start: int  # 1-based inclusive
    end: int  # 1-based inclusive
    label: str


def _lines(text: str | TextIO) -> Iterable[tuple[int, str]]:
    stream = io.StringIO(text) if isinstance(text, str) else text
    # readline, not iteration, so that tell() on a file still works
    for lineno, raw in enumerate(iter(stream.readline, ""), start=1):
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
    Blank lines are skipped. A malformed line raises ValueError "line N:
    expected W columns, got M", "line N: non-numeric token", "line N:
    non-finite value" or, for a CSV record csv.reader rejects, "line N:
    <csv's message>"; no rows raise "empty input", or "no data rows" after a
    CSV header.
    """
    delimiter = _DELIMITERS[layout]
    stream = io.StringIO(text) if isinstance(text, str) else text
    if not stream.seekable():  # read once, so that the record parser can go back
        stream = io.StringIO(stream.read())
    records = _records(stream, delimiter)
    header = None
    if delimiter:  # the first record names the channels
        header = [c.strip() for c in next(records, (0, []))[1]]
        if not header:
            raise ValueError("empty input")
    width = len(header) if header else JIGSAWS_TOTAL_COLUMNS
    start = stream.tell()
    frames = _load(stream, delimiter, width)
    if frames is None:  # the record parser names the line at fault
        stream.seek(start)
        frames = _parse_records(records, width)
    if not len(frames):
        raise ValueError("no data rows" if header else "empty input")
    if header is None:
        frames = np.ascontiguousarray(frames[:, -PSM_COLUMNS:])
    return frames, header


def _load(stream: TextIO, delimiter: str | None, width: int) -> np.ndarray | None:
    """The rest of stream through np.loadtxt, or None when it is not `width`
    finite values a line or holds no line. np.loadtxt rejects all that float
    does, and a few cells float reads ("1_0", a quoted number)."""
    start = stream.tell()
    if not any(line.strip() for line in iter(stream.readline, "")):
        return None  # np.loadtxt would warn
    stream.seek(start)
    try:
        values = np.loadtxt(stream, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape[1] == width and np.all(np.isfinite(values)) else None


def _records(stream: TextIO, delimiter: str | None) -> Iterator[tuple[int, list[str]]]:
    """The 1-based line number and the cells of each record with a cell that
    is not blank: whitespace-split lines, or csv.reader's records, whose
    errors (a cell over csv.field_size_limit(), a bare "\\r") raise
    ValueError naming the line."""
    if delimiter is None:
        yield from ((lineno, line.split()) for lineno, line in _lines(stream))
        return
    reader = csv.reader(iter(stream.readline, ""))
    while True:
        try:
            cells = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        if cells is None:
            return
        if any(c.strip() for c in cells):
            yield reader.line_num, cells


def _parse_records(records: Iterable[tuple[int, list[str]]], width: int) -> np.ndarray:
    """The records as rows of `width` finite floats, as Python's float reads
    them; the first malformed record raises ValueError naming its line."""
    rows = []
    for lineno, cells in records:
        if len(cells) != width:
            raise ValueError(f"line {lineno}: expected {width} columns, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric token") from None
        if not all(np.isfinite(rows[-1])):
            raise ValueError(f"line {lineno}: non-finite value")
    return np.array(rows, dtype=float).reshape(-1, width)


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
    """Per-frame labels as an object array (0-based, length n_frames >= 0);
    frames no segment covers hold UNANNOTATED. A segment past the last
    frame raises ValueError."""
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
