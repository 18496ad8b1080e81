import io
import warnings

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


def parse_both(text):
    """(fast-path result or error, line-parser result or error)."""
    out = []
    for parse in (
        lambda: parse_kinematics(text, "jigsaws")[0],
        lambda: ingest._parse_jigsaws_lines(io.StringIO(text)),
    ):
        try:
            out.append(parse())
        except ValueError as exc:
            out.append(str(exc))
    return out


class TestJigsawsFastPath:
    @settings(max_examples=60, deadline=None)
    @given(text=jigsaws_texts())
    def test_loadtxt_agrees_with_line_parser(self, text):
        fast = ingest._load_jigsaws(io.StringIO(text))
        assert fast is not None  # valid input takes the fast path
        slow = ingest._parse_jigsaws_lines(io.StringIO(text))
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
        assert ingest._load_jigsaws(io.StringIO(text)) is None
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
            fast = ingest._load_jigsaws(fh)
        with open(path) as fh:
            frames, _ = parse_kinematics(fh, "jigsaws")
        assert fast is not None
        assert np.array_equal(frames, fast)


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
