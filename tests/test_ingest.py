import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinseg import ingest
from kinseg.ingest import (
    Segment,
    compress_labels,
    expand_labels,
    parse_kinematics,
    parse_transcript,
    serialize_transcript,
)
from synth import serialize_kinematics


def jigsaws_line(rng):
    return " ".join(repr(float(v)) for v in rng.normal(size=76))


class TestParseKinematicsJigsaws:
    def test_two_valid_lines(self):
        rng = np.random.default_rng(0)
        text = jigsaws_line(rng) + "\n" + jigsaws_line(rng) + "\n"
        frames, names = parse_kinematics(text, "jigsaws")
        assert frames.shape == (2, 38)
        assert names is None  # robot text has no header

    def test_keeps_last_38_columns(self):
        values = [float(i) for i in range(76)]
        text = " ".join(str(v) for v in values)
        frames, _ = parse_kinematics(text, "jigsaws")
        assert np.array_equal(frames[0], np.arange(38.0, 76.0))

    def test_wrong_column_count_reports_line(self):
        rng = np.random.default_rng(1)
        text = jigsaws_line(rng) + "\n" + " ".join(["1.0"] * 75) + "\n"
        with pytest.raises(ValueError, match="line 2"):
            parse_kinematics(text, "jigsaws")

    def test_non_numeric_token(self):
        text = " ".join(["1.0"] * 75 + ["oops"])
        with pytest.raises(ValueError, match="line 1"):
            parse_kinematics(text, "jigsaws")

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            parse_kinematics("", "jigsaws")

    def test_blank_lines_skipped(self):
        rng = np.random.default_rng(2)
        text = "\n" + jigsaws_line(rng) + "\n\n"
        assert len(parse_kinematics(text, "jigsaws")[0]) == 1

    def test_unknown_layout(self):
        with pytest.raises(ValueError, match="layout"):
            parse_kinematics("1.0", "weird")


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
separators = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def jigsaws_texts(draw):
    """Valid robot-layout text: 76 reals a line, mixed whitespace, blank lines."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        values = draw(st.lists(finite_floats, min_size=76, max_size=76))
        fmt = draw(st.sampled_from([repr, "{:.6g}".format, "{:.17e}".format]))
        sep = draw(separators)
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(map(fmt, values)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"]))


def record_parse(text, layout="jigsaws"):
    """parse_kinematics with the fast reader turned off, so that every line
    goes through the record parser."""
    with mock.patch.object(ingest, "_load", return_value=None):
        return parse_kinematics(text, layout)


def parse_both(text, layout="jigsaws"):
    """(fast-path frames or error, record-parser frames or error)."""
    out = []
    for parse in (parse_kinematics, record_parse):
        try:
            out.append(parse(text, layout)[0])
        except ValueError as exc:
            out.append(str(exc))
    return out


class TestJigsawsFastPath:
    @settings(max_examples=60, deadline=None)
    @given(text=jigsaws_texts())
    def test_loadtxt_agrees_with_line_parser(self, text):
        # valid input takes the fast path
        assert ingest._load(io.StringIO(text), None, 76) is not None
        fast, slow = parse_both(text)
        assert np.array_equal(fast, slow)
        assert np.array_equal(np.signbit(fast), np.signbit(slow))
        assert fast.flags.c_contiguous

    @pytest.mark.parametrize(
        "bad_line",
        [
            " ".join(["1.0"] * 75),
            " ".join(["1.0"] * 77),
            " ".join(["1.0"] * 75 + ["oops"]),
            " ".join(["1.0"] * 75 + ["nan"]),
            " ".join(["1.0"] * 75 + ["-inf"]),
            " ".join(["1.0"] * 75 + ["1e999"]),
            "# a comment",
            "#" + " ".join(["1.0"] * 76),
        ],
    )
    @pytest.mark.parametrize("before", [0, 1, 3])
    def test_same_errors_as_line_parser(self, bad_line, before):
        rng = np.random.default_rng(9)
        good = [jigsaws_line(rng) for _ in range(before)]
        # blank lines count towards the reported line number
        text = "\n\n".join(good + [bad_line, jigsaws_line(rng)]) + "\n"
        fast, slow = parse_both(text)
        assert isinstance(fast, str)
        assert fast == slow
        assert fast.startswith(f"line {2 * before + 1}: ")

    @pytest.mark.parametrize("token", ["1_0", "\u0661\u0660"])
    def test_tokens_only_float_accepts_fall_back(self, token):
        rng = np.random.default_rng(12)
        text = jigsaws_line(rng) + "\n" + " ".join(["2.0"] * 75 + [token]) + "\n"
        assert ingest._load(io.StringIO(text), None, 76) is None
        fast, slow = parse_both(text)
        assert np.array_equal(fast, slow)
        assert fast[1, -1] == 10.0

    def test_bare_carriage_return_falls_back(self):
        rng = np.random.default_rng(10)
        text = jigsaws_line(rng) + "\r" + jigsaws_line(rng) + "\n"
        fast, slow = parse_both(text)
        assert fast == slow == "line 1: expected 76 columns, got 152"

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\n"])
    def test_empty_input_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty input"):
                parse_kinematics(text, "jigsaws")

    def test_file_object_takes_fast_path(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "d.txt"
        path.write_text("".join(jigsaws_line(rng) + "\n" for _ in range(4)))
        with open(path) as fh:
            fast = ingest._load(fh, None, 76)
        with open(path) as fh:
            frames, _ = parse_kinematics(fh, "jigsaws")
        assert fast is not None
        assert np.array_equal(frames, fast[:, -38:])


pads = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def csv_texts(draw):
    """Valid CSV text and whether np.loadtxt can read its data lines: padded
    cells, blank lines, all-empty records and either line ending. Only the
    blank lines that hold nothing at all are ones np.loadtxt skips."""
    width = draw(st.integers(1, 5))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(f" c{i} " for i in range(width))]
    plain = True
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            blank = draw(st.sampled_from(["", "   ", "\t", ",", " , ,", ",,\t"]))
            plain = plain and blank == ""
            lines.append(blank)
        values = draw(st.lists(finite_floats, min_size=width, max_size=width))
        fmt = draw(st.sampled_from([repr, "{:.6g}".format, "{:.17e}".format]))
        lines.append(",".join(draw(pads) + fmt(v) + draw(pads) for v in values))
    end = draw(st.sampled_from(["", newline, newline * 2]))
    return newline.join(lines) + end, plain


class TestCsvFastPath:
    @settings(max_examples=60, deadline=None)
    @given(drawn=csv_texts())
    def test_loadtxt_agrees_with_record_parser(self, drawn):
        text, plain = drawn
        with mock.patch.object(
            ingest, "_parse_records", wraps=ingest._parse_records
        ) as records:
            fast, names = parse_kinematics(text, "generic_csv")
        if plain:  # the fast reader took every data line
            assert records.call_count == 0
        slow, slow_names = record_parse(text, "generic_csv")
        assert names == slow_names == [f"c{i}" for i in range(fast.shape[1])]
        assert np.array_equal(fast, slow)
        assert np.array_equal(np.signbit(fast), np.signbit(slow))
        assert fast.flags.c_contiguous

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("1.0,2.0", "expected 3 columns, got 2"),
            ("1.0,2.0,3.0,4.0", "expected 3 columns, got 4"),
            ("1.0,2.0,", "non-numeric token"),  # a trailing comma is an empty cell
            ("1.0,,3.0", "non-numeric token"),
            ("1.0,oops,3.0", "non-numeric token"),
            ("1.0,0x10,3.0", "non-numeric token"),
            ("1.0,nan,3.0", "non-finite value"),
            ("1.0,2.0,-inf", "non-finite value"),
            ("1e999,2.0,3.0", "non-finite value"),
        ],
    )
    @pytest.mark.parametrize("before", [0, 1, 3])
    def test_same_errors_as_record_parser(self, bad_line, message, before):
        good = ["0.5,-1.5,2.5"] * before
        # blank lines count towards the reported line number
        text = "a,b,c\n" + "\n\n".join(good + [bad_line, "4.0,5.0,6.0"]) + "\n"
        fast, slow = parse_both(text, "generic_csv")
        assert fast == slow == f"line {2 + 2 * before}: {message}"

    @pytest.mark.parametrize("cell, value", [('"2.5"', 2.5), ("1_0", 10.0)])
    def test_cells_only_float_accepts_fall_back(self, cell, value):
        text = f"a,b\n1.0,2.0\n3.0,{cell}\n"
        with mock.patch.object(
            ingest, "_parse_records", wraps=ingest._parse_records
        ) as records:
            fast, _ = parse_kinematics(text, "generic_csv")
        assert records.call_count == 1
        assert np.array_equal(fast, [[1.0, 2.0], [3.0, value]])

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty input"), (" , \n\n", "empty input"),
         ("a,b\n", "no data rows"), ("a,b\n\n , \n", "no data rows")],
    )
    def test_no_rows_without_warning(self, text, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_both(text, "generic_csv") == [message, message]


class _Unseekable(io.StringIO):
    def seekable(self):
        return False


@pytest.mark.parametrize(
    "text, layout",
    [
        (" ".join(["1.5"] * 76) + "\n", "jigsaws"),
        (" ".join(["1.5"] * 75) + " 1_0\n", "jigsaws"),
        ("a,b\n1,2\n3,4\n", "generic_csv"),
        ('a,b\n1,2\n3,"4"\n', "generic_csv"),
        ("a,b\n1,2\n3,x\n", "generic_csv"),
    ],
)
def test_unseekable_stream_reads_the_same(text, layout):
    def parse(source):
        try:
            frames, names = parse_kinematics(source, layout)
        except ValueError as exc:
            return str(exc)
        return frames.tolist(), names

    assert parse(_Unseekable(text)) == parse(text)


class TestParseKinematicsCsv:
    def test_header_and_rows(self):
        text = "a,b,c\n1,2,3\n4,5,6\n"
        frames, names = parse_kinematics(text, "generic_csv")
        assert names == ["a", "b", "c"]
        assert np.array_equal(frames, [[1, 2, 3], [4, 5, 6]])

    def test_ragged_row(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_kinematics("a,b\n1,2\n1,2,3\n", "generic_csv")

    def test_non_numeric(self):
        with pytest.raises(ValueError):
            parse_kinematics("a,b\n1,x\n", "generic_csv")

    def test_header_only(self):
        with pytest.raises(ValueError, match="no data rows"):
            parse_kinematics("a,b\n", "generic_csv")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_reports_line(self, cell):
        with pytest.raises(ValueError, match="line 3: non-finite value"):
            parse_kinematics(f"a,b\n1,2\n3,{cell}\n", "generic_csv")


class TestRoundTrip:
    def test_csv_round_trip_identity(self):
        rng = np.random.default_rng(3)
        frames, names = rng.normal(size=(7, 4)), ["w", "x", "y", "z"]
        text = serialize_kinematics(frames, "generic_csv", names)
        back, back_names = parse_kinematics(text, "generic_csv")
        assert np.array_equal(back, frames)
        assert back_names == names

    def test_jigsaws_round_trip_identity(self):
        frames = np.random.default_rng(4).normal(size=(5, 38))
        text = serialize_kinematics(frames, "jigsaws")
        back, _ = parse_kinematics(text, "jigsaws")
        assert np.array_equal(back, frames)

    def test_jigsaws_serialize_needs_38_channels(self):
        with pytest.raises(ValueError, match="38"):
            serialize_kinematics(np.ones((2, 3)), "jigsaws")


class TestParseTranscript:
    def test_basic(self):
        t = parse_transcript("1 80 G1\n81 300 G2\n")
        assert t == (Segment(1, 80, "G1"), Segment(81, 300, "G2"))

    def test_sorts_by_start(self):
        t = parse_transcript("81 300 G2\n1 80 G1\n")
        assert [s.label for s in t] == ["G1", "G2"]

    def test_reversed_bounds(self):
        with pytest.raises(ValueError, match="exceeds"):
            parse_transcript("10 5 G1\n")

    def test_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            parse_transcript("1 80 G1\n60 120 G2\n")

    def test_non_integer(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_transcript("1.5 3 G1\n")

    def test_zero_start(self):
        with pytest.raises(ValueError, match="1-based"):
            parse_transcript("0 3 G1\n")

    def test_wrong_token_count(self):
        with pytest.raises(ValueError):
            parse_transcript("1 3\n")

    def test_gaps_allowed(self):
        t = parse_transcript("1 10 G1\n20 30 G2\n")
        assert len(t) == 2

    def test_serialize_round_trip(self):
        text = "1 80 G1\n81 300 G2\n305 400 G1\n"
        assert serialize_transcript(parse_transcript(text)) == text


class TestExpandLabels:
    def test_contiguous(self):
        t = (Segment(1, 2, "A"), Segment(3, 4, "B"))
        assert list(expand_labels(t, 4)) == ["A", "A", "B", "B"]

    def test_fill_at_edges(self):
        t = (Segment(2, 3, "A"),)
        assert list(expand_labels(t, 4)) == ["", "A", "A", ""]

    def test_too_long_segment(self):
        t = (Segment(1, 5, "A"),)
        with pytest.raises(ValueError, match="exceeds"):
            expand_labels(t, 4)

    def test_negative_length_empty_transcript(self):
        with pytest.raises(ValueError, match="trajectory length must be >= 0, got -1"):
            expand_labels((), -1)

    def test_negative_length_with_segments(self):
        t = (Segment(1, 2, "A"),)
        with pytest.raises(ValueError, match="trajectory length must be >= 0, got -2"):
            expand_labels(t, -2)

    def test_length_always_n_frames(self):
        t = (Segment(3, 6, "A"),)
        assert len(expand_labels(t, 11)) == 11

    def test_round_trip_brute_force(self):
        # Random gap-bearing transcripts survive expand + recompress; the
        # recompression oracle below scans runs directly.
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            segments = []
            pos = 1
            while pos <= n - 1:
                if rng.random() < 0.3:  # leave a gap
                    pos += int(rng.integers(1, 4))
                    continue
                end = min(n, pos + int(rng.integers(1, 8)))
                segments.append(Segment(pos, end, f"G{rng.integers(1, 4)}"))
                pos = end + 1
            if not segments:
                continue
            t = tuple(segments)
            labels = list(expand_labels(t, n))
            expected = []
            start = None
            for i, lab in enumerate(labels + ["\0"]):
                if start is None or labels[start] != lab:
                    if start is not None and labels[start] != "":
                        expected.append(Segment(start + 1, i, labels[start]))
                    start = i
            # adjacent same-label original segments merge in the recompression
            assert compress_labels(labels) == tuple(expected)


class TestCompressLabels:
    def test_simple(self):
        t = compress_labels(["A", "A", "B", "B"])
        assert t == (Segment(1, 2, "A"), Segment(3, 4, "B"))

    def test_fill_becomes_gap(self):
        t = compress_labels(["", "A", "A", ""])
        assert t == (Segment(2, 3, "A"),)


# Labels as transcripts carry them: the unannotated "", digits, gesture
# names and non-ASCII text, drawn so that many of them repeat.
_LABELS = st.one_of(
    st.sampled_from(["", "0", "9", "10", "G1", "G10", "G2", "é", "É", "ñ", "Ω", "名"]),
    st.text(max_size=3),
)


class TestCodeLabels:
    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(_LABELS, max_size=60), as_array=st.booleans())
    def test_equals_np_unique_on_object_arrays(self, labels, as_array):
        values = np.array(labels, dtype=object)
        names, codes = ingest.code_labels(values if as_array else labels)
        expected_names, expected_codes = np.unique(values, return_inverse=True)
        assert names == expected_names.tolist()
        assert codes.dtype == expected_codes.dtype
        assert np.array_equal(codes, expected_codes)
