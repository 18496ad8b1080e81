import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinseg import ingest
from kinseg.ingest import (
    Demonstration,
    ParseError,
    Segment,
    Transcript,
    compress_labels,
    expand_labels,
    parse_kinematics,
    parse_transcript,
    serialize_kinematics,
    serialize_transcript,
)


def jigsaws_line(rng):
    return " ".join(repr(float(v)) for v in rng.normal(size=76))


class TestParseKinematicsJigsaws:
    def test_two_valid_lines(self):
        rng = np.random.default_rng(0)
        text = jigsaws_line(rng) + "\n" + jigsaws_line(rng) + "\n"
        demo = parse_kinematics(text, "jigsaws", id="d")
        assert demo.n_frames == 2
        assert demo.n_channels == 38
        assert demo.sample_rate_hz == 30.0
        assert len(demo.channel_names) == 38

    def test_keeps_last_38_columns(self):
        values = [float(i) for i in range(76)]
        text = " ".join(str(v) for v in values)
        demo = parse_kinematics(text, "jigsaws")
        assert np.array_equal(demo.frames[0], np.arange(38.0, 76.0))

    def test_wrong_column_count_reports_line(self):
        rng = np.random.default_rng(1)
        text = jigsaws_line(rng) + "\n" + " ".join(["1.0"] * 75) + "\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_kinematics(text, "jigsaws")

    def test_non_numeric_token(self):
        text = " ".join(["1.0"] * 75 + ["oops"])
        with pytest.raises(ParseError, match="line 1"):
            parse_kinematics(text, "jigsaws")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            parse_kinematics("", "jigsaws")

    def test_blank_lines_skipped(self):
        rng = np.random.default_rng(2)
        text = "\n" + jigsaws_line(rng) + "\n\n"
        assert parse_kinematics(text, "jigsaws").n_frames == 1

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
        lambda: parse_kinematics(text, "jigsaws").frames,
        lambda: ingest._parse_jigsaws_lines(io.StringIO(text)),
    ):
        try:
            out.append(parse())
        except ParseError as exc:
            out.append((str(exc), exc.line))
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
        assert isinstance(fast, tuple)
        assert fast == slow
        assert fast[1] == 2 * before + 1

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
        assert fast == slow == ("line 1: expected 76 columns, got 152", 1)

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\n"])
    def test_empty_input_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="empty input"):
                parse_kinematics(text, "jigsaws")

    def test_file_object_takes_fast_path(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "d.txt"
        path.write_text("".join(jigsaws_line(rng) + "\n" for _ in range(4)))
        with open(path) as fh:
            fast = ingest._load_jigsaws(fh)
        with open(path) as fh:
            demo = parse_kinematics(fh, "jigsaws")
        assert fast is not None
        assert np.array_equal(demo.frames, fast)


class TestParseKinematicsCsv:
    def test_header_and_rows(self):
        text = "a,b,c\n1,2,3\n4,5,6\n"
        demo = parse_kinematics(text, "generic_csv", sample_rate_hz=10.0)
        assert demo.channel_names == ["a", "b", "c"]
        assert demo.sample_rate_hz == 10.0
        assert np.array_equal(demo.frames, [[1, 2, 3], [4, 5, 6]])

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_kinematics("a,b\n1,2\n1,2,3\n", "generic_csv")

    def test_non_numeric(self):
        with pytest.raises(ParseError):
            parse_kinematics("a,b\n1,x\n", "generic_csv")

    def test_header_only(self):
        with pytest.raises(ParseError, match="no data rows"):
            parse_kinematics("a,b\n", "generic_csv")


class TestRoundTrip:
    def test_csv_round_trip_identity(self):
        rng = np.random.default_rng(3)
        demo = Demonstration(
            id="d",
            frames=rng.normal(size=(7, 4)),
            sample_rate_hz=30.0,
            channel_names=["w", "x", "y", "z"],
        )
        text = serialize_kinematics(demo, "generic_csv")
        back = parse_kinematics(text, "generic_csv", id="d")
        assert np.array_equal(back.frames, demo.frames)
        assert back.channel_names == demo.channel_names

    def test_jigsaws_round_trip_identity(self):
        rng = np.random.default_rng(4)
        demo = Demonstration(
            id="d", frames=rng.normal(size=(5, 38)), sample_rate_hz=30.0
        )
        text = serialize_kinematics(demo, "jigsaws")
        back = parse_kinematics(text, "jigsaws", id="d")
        assert np.array_equal(back.frames, demo.frames)

    def test_jigsaws_serialize_needs_38_channels(self):
        demo = Demonstration(id="d", frames=np.ones((2, 3)), sample_rate_hz=30.0)
        with pytest.raises(ValueError, match="38"):
            serialize_kinematics(demo, "jigsaws")


class TestDemonstration:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Demonstration(id="d", frames=np.zeros((0, 3)), sample_rate_hz=30.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Demonstration(id="d", frames=np.array([[np.nan]]), sample_rate_hz=30.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            Demonstration(id="d", frames=np.ones((1, 1)), sample_rate_hz=0.0)

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError, match="channel_names"):
            Demonstration(
                id="d",
                frames=np.ones((1, 2)),
                sample_rate_hz=30.0,
                channel_names=["only_one"],
            )


class TestParseTranscript:
    def test_basic(self):
        t = parse_transcript("1 80 G1\n81 300 G2\n")
        assert t.segments == (Segment(1, 80, "G1"), Segment(81, 300, "G2"))

    def test_sorts_by_start(self):
        t = parse_transcript("81 300 G2\n1 80 G1\n")
        assert [s.label for s in t.segments] == ["G1", "G2"]

    def test_reversed_bounds(self):
        with pytest.raises(ParseError, match="exceeds"):
            parse_transcript("10 5 G1\n")

    def test_overlap(self):
        with pytest.raises(ParseError, match="overlap"):
            parse_transcript("1 80 G1\n60 120 G2\n")

    def test_non_integer(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_transcript("1.5 3 G1\n")

    def test_zero_start(self):
        with pytest.raises(ParseError, match="1-based"):
            parse_transcript("0 3 G1\n")

    def test_wrong_token_count(self):
        with pytest.raises(ParseError):
            parse_transcript("1 3\n")

    def test_gaps_allowed(self):
        t = parse_transcript("1 10 G1\n20 30 G2\n")
        assert t.n_segments == 2

    def test_serialize_round_trip(self):
        text = "1 80 G1\n81 300 G2\n305 400 G1\n"
        assert serialize_transcript(parse_transcript(text)) == text


class TestTranscriptInvariants:
    def test_overlap_rejected_at_construction(self):
        with pytest.raises(ValueError, match="overlap"):
            Transcript((Segment(1, 10, "A"), Segment(5, 20, "B")))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Transcript((Segment(4, 2, "A"),))

    def test_labels_sorted_unique(self):
        t = Transcript((Segment(1, 2, "B"), Segment(3, 4, "A"), Segment(5, 6, "B")))
        assert t.labels() == ["A", "B"]


class TestExpandLabels:
    def test_contiguous(self):
        t = Transcript((Segment(1, 2, "A"), Segment(3, 4, "B")))
        assert list(expand_labels(t, 4)) == ["A", "A", "B", "B"]

    def test_fill_at_edges(self):
        t = Transcript((Segment(2, 3, "A"),))
        assert list(expand_labels(t, 4)) == ["", "A", "A", ""]

    def test_too_long_segment(self):
        t = Transcript((Segment(1, 5, "A"),))
        with pytest.raises(ValueError, match="exceeds"):
            expand_labels(t, 4)

    def test_negative_length_empty_transcript(self):
        with pytest.raises(ValueError, match="trajectory length must be >= 0, got -1"):
            expand_labels(Transcript(()), -1)

    def test_negative_length_with_segments(self):
        t = Transcript((Segment(1, 2, "A"),))
        with pytest.raises(ValueError, match="trajectory length must be >= 0, got -2"):
            expand_labels(t, -2)

    def test_length_always_n_frames(self):
        t = Transcript((Segment(3, 6, "A"),))
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
            t = Transcript(tuple(segments))
            labels = list(expand_labels(t, n))
            expected = []
            start = None
            for i, lab in enumerate(labels + ["\0"]):
                if start is None or labels[start] != lab:
                    if start is not None and labels[start] != "":
                        expected.append(Segment(start + 1, i, labels[start]))
                    start = i
            # adjacent same-label original segments merge in the recompression
            assert compress_labels(labels).segments == tuple(expected)


class TestCompressLabels:
    def test_simple(self):
        t = compress_labels(["A", "A", "B", "B"])
        assert t.segments == (Segment(1, 2, "A"), Segment(3, 4, "B"))

    def test_fill_becomes_gap(self):
        t = compress_labels(["", "A", "A", ""])
        assert t.segments == (Segment(2, 3, "A"),)
