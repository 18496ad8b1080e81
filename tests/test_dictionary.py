import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from kinseg.dictionary import (
    MappingRule,
    apply_mapping,
    check_sidecar,
    default_mapping,
    parse_mapping,
    parse_sidecar,
)
from kinseg.ingest import UNANNOTATED, Segment, expand_labels
from strategies import transcripts


def serialize_mapping(mapping: dict[str, MappingRule]) -> str:
    """Mapping file text that parse_mapping reads back to the same rules."""
    lines = []
    for source, rule in mapping.items():
        if not rule.targets:
            lines.append(f"{source} -> >")
            continue
        rhs = " | ".join(rule.targets)
        if rule.fractions:
            rhs += " @ " + ",".join(str(f) for f in rule.fractions)
        lines.append(f"{source} -> {rhs}")
    return "\n".join(lines) + "\n"


class TestParseMapping:
    def test_rename(self):
        m = parse_mapping("G2 -> L1\n")
        rule = m["G2"]
        assert rule.targets == ("L1",)

    def test_split_with_fractions(self):
        m = parse_mapping("G3 -> L1 | L2 @ 0.5\n")
        rule = m["G3"]
        assert rule.targets == ("L1", "L2")
        assert rule.fractions == (0.5,)

    def test_split_without_fractions(self):
        rule = parse_mapping("G6 -> L5 | L3\n")["G6"]
        assert rule.targets == ("L5", "L3")
        assert rule.fractions == ()

    def test_three_way_split(self):
        rule = parse_mapping("G11 -> L7 | L9 | L10 @ 0.33,0.67\n")["G11"]
        assert rule.targets == ("L7", "L9", "L10")
        assert rule.fractions == (0.33, 0.67)

    def test_following(self):
        rule = parse_mapping("G5 -> >\n")["G5"]
        assert rule.targets == ()
        assert rule.fractions == ()

    def test_comments_and_blanks(self):
        m = parse_mapping("# header\n\nG1 -> G1  # inline\n")
        assert m["G1"].targets == ("G1",)

    def test_duplicate_source(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_mapping("G1 -> A\nG1 -> B\n")

    def test_missing_arrow(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_mapping("G1 L1\n")

    def test_empty_rhs(self):
        with pytest.raises(ValueError, match="^mapping line 1: empty source or target$"):
            parse_mapping("G1 ->\n")

    def test_empty_target(self):
        with pytest.raises(ValueError):
            parse_mapping("G1 -> A | \n")

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_mapping("G1 -> A | B @ x\n")

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            parse_mapping("G1 -> A | B @ 1.5\n")

    def test_fraction_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_mapping("G1 -> A | B | C @ 0.5\n")

    def test_fraction_on_rename(self):
        # a rename has no internal boundary, so a fraction is an error, not
        # a value that is silently dropped
        with pytest.raises(ValueError, match="line 1: need no fractions"):
            parse_mapping("G2 -> L1 @ 0.5\n")

    @pytest.mark.parametrize("rhs", ["> @ 0.5", "> | A", "A | >", "> | >"])
    def test_following_stands_alone(self, rhs):
        with pytest.raises(ValueError, match="line 1: '>' must stand alone"):
            parse_mapping(f"G5 -> {rhs}\n")

    @pytest.mark.parametrize("line, label", [
        ("G1 -> A x", "A x"), ("G1 -> A | B\tx @ 0.5", "B\tx"), ("G 1 -> A", "G 1"),
    ])
    def test_label_of_two_words(self, line, label):
        # a transcript line holds one word of label
        with pytest.raises(ValueError, match=re.escape(f"line 2: label {label!r} is not one word")):
            parse_mapping(f"G2 -> B\n{line}\n")

    def test_serialize_round_trip(self):
        text = "G2 -> L1\nG3 -> L1 | L2 @ 0.5\nG5 -> >\n"
        assert serialize_mapping(parse_mapping(text)) == text


# Label tokens as in transcripts: no whitespace and none of the syntax
# characters # - > | @ , (a '-' alone is allowed: "G-1" is a fine label).
_names = st.from_regex(r"[A-Za-z0-9_.][A-Za-z0-9_.-]*", fullmatch=True)
_fraction = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def mapping_rules(draw):
    # no targets: context rule; one: rename; more: split
    n_targets = draw(st.integers(0, 4))
    targets = tuple(draw(st.lists(_names, min_size=n_targets, max_size=n_targets)))
    fractions = ()
    if n_targets > 1 and draw(st.booleans()):
        fractions = tuple(draw(st.lists(_fraction, min_size=n_targets - 1,
                                        max_size=n_targets - 1)))
    return MappingRule(targets, fractions)


@st.composite
def mappings(draw):
    sources = draw(st.lists(_names, min_size=1, max_size=6, unique=True))
    return {s: draw(mapping_rules()) for s in sources}


class TestMappingRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(m=mappings())
    def test_serialize_parse(self, m):
        # any mapping the file syntax can express survives serialize -> parse
        assert parse_mapping(serialize_mapping(m)) == m


class TestMappingRule:
    @pytest.mark.parametrize("targets", [(), ("A",)])
    def test_fraction_needs_a_split(self, targets):
        with pytest.raises(ValueError, match="one per internal split boundary"):
            MappingRule(targets, (0.5,))


class TestApplyMapping:
    @settings(max_examples=150, deadline=None)
    @given(t=transcripts(), tail=st.integers(0, 5), data=st.data())
    def test_rename_relabels_each_frame(self, t, tail, data):
        # expand_labels makes adjacent parts of one label one run of frames,
        # so a rename's frames are the transcript's frames, renamed
        sources = sorted({s.label for s in t})
        targets = data.draw(st.lists(st.sampled_from(["L1", "L2", "G1"]),
                                     min_size=len(sources), max_size=len(sources)))
        rename = dict(zip(sources, targets))
        m = parse_mapping("".join(f"{a} -> {b}\n" for a, b in rename.items()))
        n = (t[-1].end if t else 0) + tail
        renamed = [rename.get(label, label) for label in expand_labels(t, n)]
        assert expand_labels(apply_mapping(t, m), n).tolist() == renamed

    def test_split_at_sidecar_boundary(self):
        t = (Segment(150, 260, "G6"),)
        m = parse_mapping("G6 -> L5 | L3\n")
        sc = {"boundaries": {("d", 0): [200]}, "overrides": {}}
        out = apply_mapping(t, m, sc, demo_id="d")
        assert out == (Segment(150, 200, "L5"), Segment(201, 260, "L3"))

    def test_identity_unchanged(self):
        t = (Segment(1, 10, "A"), Segment(11, 30, "B"))
        m = parse_mapping("A -> A\nB -> B\n")
        assert apply_mapping(t, m) == t

    def test_fraction_boundary_halves(self):
        t = (Segment(1, 10, "G"),)
        out = apply_mapping(t, parse_mapping("G -> A | B @ 0.5\n"))
        assert out == (Segment(1, 5, "A"), Segment(6, 10, "B"))

    def test_three_way_split(self):
        t = (Segment(1, 30, "G11"),)
        out = apply_mapping(t, parse_mapping("G11 -> L7 | L9 | L10 @ 0.33,0.67\n"))
        assert [s.label for s in out] == ["L7", "L9", "L10"]
        assert out[0].start == 1
        assert out[-1].end == 30

    @pytest.mark.parametrize("t, want", [
        ((Segment(4, 4, "G3"),), [(4, 4, "L1")]),
        ((Segment(4, 4, "G6"),), [(4, 4, "L5")]),
        ((Segment(4, 4, "G11"),), [(4, 4, "L7")]),
        ((Segment(4, 5, "G11"),), [(4, 4, "L7"), (5, 5, "L10")]),
        ((Segment(4, 6, "G11"),), [(4, 4, "L7"), (5, 5, "L9"), (6, 6, "L10")]),
        ((Segment(1, 3, "G2"), Segment(4, 4, "G3")), [(1, 3, "L1"), (4, 4, "L1")]),
    ])
    def test_builtin_split_of_a_short_segment(self, t, want):
        # the parts that the default fractions give no frame are dropped
        assert apply_mapping(t, default_mapping()) == tuple(Segment(*w) for w in want)

    def test_fractions_on_one_frame_drop_the_part_between(self):
        t = (Segment(1, 10, "G"),)
        out = apply_mapping(t, parse_mapping("G -> A | B | C @ 0.5,0.52\n"))
        assert out == (Segment(1, 5, "A"), Segment(6, 10, "C"))

    @settings(max_examples=200, deadline=None)
    @given(
        total=st.integers(1, 40),
        fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
    )
    def test_fraction_split_keeps_every_boundary_that_gives_each_part_a_frame(
        self, total, fractions
    ):
        targets = [f"P{i}" for i in range(len(fractions) + 1)]
        rule = f"G -> {' | '.join(targets)} @ {','.join(map(repr, fractions))}\n"
        out = apply_mapping((Segment(1, total, "G"),), parse_mapping(rule))
        cuts = sorted(max(1, min(total - 1, round(total * f))) for f in fractions)
        if all(0 < a < b < total for a, b in zip([0] + cuts, cuts + [total])):
            # every part gets a frame: the parts end where the fractions cut
            assert [s.end for s in out] == cuts + [total]
            assert [s.label for s in out] == targets
        assert [s.label for s in out] == sorted({s.label for s in out}, key=targets.index)
        assert out[0].start == 1 and out[-1].end == total
        assert all(a.end + 1 == b.start for a, b in zip(out, out[1:]))

    def test_short_segment_with_sidecar_boundaries_errors(self):
        t = (Segment(4, 5, "G11"),)
        sc = {"boundaries": {("d", 0): [4, 5]}, "overrides": {}}
        with pytest.raises(ValueError, match="outside"):
            apply_mapping(t, default_mapping(), sc, demo_id="d")

    def test_split_without_boundary_errors(self):
        t = (Segment(1, 10, "G"),)
        with pytest.raises(ValueError, match="no boundary"):
            apply_mapping(t, parse_mapping("G -> A | B\n"))

    def test_unmapped_label_named(self):
        t = (Segment(1, 10, "G7"),)
        with pytest.raises(ValueError, match="'G7'"):
            apply_mapping(t, parse_mapping("G1 -> L1\n"))

    def test_sidecar_boundary_count_must_match_the_split(self):
        t = (Segment(1, 20, "G"),)
        sc = {"boundaries": {("d", 0): [5, 10]}, "overrides": {}}
        with pytest.raises(ValueError, match=re.escape(
            "segment Segment(start=1, end=20, label='G'): rule 'G' needs 1 "
            "boundary frame(s), got 2"
        )):
            apply_mapping(t, parse_mapping("G -> A | B\n"), sc, demo_id="d")

    def test_sidecar_boundary_repeated(self):
        t = (Segment(1, 20, "G"),)
        sc = {"boundaries": {("d", 0): [5, 5]}, "overrides": {}}
        with pytest.raises(ValueError, match="boundaries must be increasing$"):
            apply_mapping(t, parse_mapping("G -> A | B | C\n"), sc, demo_id="d")

    def test_boundary_outside_segment(self):
        t = (Segment(10, 20, "G"),)
        m = parse_mapping("G -> A | B\n")
        sc = {"boundaries": {("d", 0): [25]}, "overrides": {}}
        with pytest.raises(ValueError, match="outside"):
            apply_mapping(t, m, sc, demo_id="d")

    def test_following_absorbs_forward(self):
        t = (Segment(1, 10, "G5"), Segment(11, 30, "G2"))
        m = parse_mapping("G5 -> >\nG2 -> L1\n")
        out = apply_mapping(t, m)
        assert out == (Segment(1, 10, "L1"), Segment(11, 30, "L1"))

    def test_following_at_tail_uses_previous(self):
        t = (Segment(1, 10, "G2"), Segment(11, 30, "G5"))
        m = parse_mapping("G5 -> >\nG2 -> L1\n")
        out = apply_mapping(t, m)
        assert out == (Segment(1, 10, "L1"), Segment(11, 30, "L1"))

    def test_following_tail_takes_last_part_of_split(self):
        t = (Segment(1, 10, "G6"), Segment(11, 20, "G5"))
        m = parse_mapping("G6 -> L5 | L3 @ 0.5\nG5 -> >\n")
        out = apply_mapping(t, m)
        assert out[1:] == (Segment(6, 10, "L3"), Segment(11, 20, "L3"))

    def test_following_before_split_takes_first_part(self):
        t = (Segment(1, 10, "G5"), Segment(11, 20, "G6"))
        m = parse_mapping("G6 -> L5 | L3 @ 0.5\nG5 -> >\n")
        out = apply_mapping(t, m)
        assert out[:2] == (Segment(1, 10, "L5"), Segment(11, 15, "L5"))

    def test_following_override(self):
        t = (Segment(1, 10, "G5"), Segment(11, 30, "G2"))
        m = parse_mapping("G5 -> >\nG2 -> L1\n")
        sc = {"boundaries": {}, "overrides": {("d", 0): "L7"}}
        out = apply_mapping(t, m, sc, demo_id="d")
        assert out == (Segment(1, 10, "L7"), Segment(11, 30, "L1"))

    def test_lone_following_segment_errors(self):
        t = (Segment(1, 10, "G5"),)
        with pytest.raises(ValueError, match="neighbor"):
            apply_mapping(t, parse_mapping("G5 -> >\n"))

    def test_frame_count_preserved(self):
        rng = np.random.default_rng(0)
        m = parse_mapping(
            "G1 -> L1\nG2 -> L1\nG3 -> L2 | L3 @ 0.4\nG5 -> >\nG6 -> L4\n"
        )
        sources = ["G1", "G2", "G3", "G6"]
        for _ in range(30):
            segments = []
            pos = 1
            for _ in range(int(rng.integers(2, 7))):
                if rng.random() < 0.2:
                    pos += int(rng.integers(1, 5))  # gap
                length = int(rng.integers(2, 15))
                label = (
                    "G5" if (segments and rng.random() < 0.2) else sources[rng.integers(4)]
                )
                segments.append(Segment(pos, pos + length - 1, label))
                pos += length
            t = tuple(segments)
            out = apply_mapping(t, m)
            n = t[-1].end + 1
            before = sum(1 for lab in expand_labels(t, n) if lab != "")
            after = sum(1 for lab in expand_labels(out, n) if lab != "")
            assert before == after

    def test_pure_rename_idempotent(self):
        t = (Segment(1, 5, "A"), Segment(6, 9, "B"))
        m = parse_mapping("A -> X\nB -> Y\nX -> X\nY -> Y\n")
        once = apply_mapping(t, m)
        assert apply_mapping(once, m) == once


class TestSidecar:
    def test_parse(self):
        text = (
            '{"boundaries": {"d1": {"2": [200, 250]}},'
            ' "overrides": {"d1": {"5": "L7"}}}'
        )
        sc = parse_sidecar(text)
        assert sc == {
            "boundaries": {("d1", 2): [200, 250]}, "overrides": {("d1", 5): "L7"},
        }

    def test_empty(self):
        assert parse_sidecar("{}") == {"boundaries": {}, "overrides": {}}

    @pytest.mark.parametrize("text", [
        '{"boundaries": {"d": {"x": [1]}}}',
        '{"boundaries": {"d": {"-1": [1]}}}',
        '{"boundaries": {"d": {"0": [1.5]}}}',
        '{"boundaries": {"d": {"0": [true]}}}',
        '{"overrides": {"d": {"0": 7}}}',
        '{"overrides": {"d": {"0": ""}}}',
        '{"overrides": {"d": {"0": "L x"}}}',
        '{"overrides": {"d": {"0": " L7"}}}',
        '{"overrides": []}',
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="sidecar"):
            parse_sidecar(text)


class TestCheckSidecar:
    # the unread-entry errors are checked through the CLI, in test_cli.py
    def test_unmapped_segment_left_to_apply_mapping(self):
        m = parse_mapping("G2 -> L1 | L2\n")
        sidecar = {"boundaries": {("d", 0): [5]}, "overrides": {}}
        t = (Segment(1, 10, "G9"),)
        check_sidecar(sidecar, {"d": t}, m)
        with pytest.raises(ValueError, match="no mapping rule for label 'G9'"):
            apply_mapping(t, m, sidecar, demo_id="d")


@st.composite
def mapped_transcripts(draw):
    """(transcript, mapping, sidecar): the transcript's labels are sources of
    the mapping, and every sidecar entry, all of demonstration "d", is one
    that the rule of its segment reads."""
    m = draw(mappings())
    segments, boundaries, overrides = [], {}, {}
    for s in draw(transcripts()):
        # sidecar boundaries must give each of n parts a frame; default
        # fractions drop the parts a short segment leaves without one
        frames = s.end - s.start + 1
        fits = [k for k, rule in m.items() if rule.fractions or len(rule.targets) <= frames]
        if not fits:
            continue  # a gap where no rule can cut the segment
        source = draw(st.sampled_from(fits))
        rule = m[source]
        idx = len(segments)
        segments.append(s._replace(label=source))
        n = len(rule.targets)
        if 1 < n <= frames and (not rule.fractions or draw(st.booleans())):
            boundaries["d", idx] = draw(st.lists(
                st.integers(s.start, s.end - 1), min_size=n - 1, max_size=n - 1,
                unique=True,
            ))
        if n == 0 and draw(st.booleans()):
            overrides["d", idx] = draw(_names)
    return tuple(segments), m, {"boundaries": boundaries, "overrides": overrides}


class TestApplyMappingInvariant:
    @settings(max_examples=150, deadline=None)
    @given(case=mapped_transcripts())
    def test_ordered_segments_over_the_same_frames(self, case):
        t, m, sidecar = case
        check_sidecar(sidecar, {"d": t}, m)
        try:
            out = apply_mapping(t, m, sidecar, demo_id="d")
        except ValueError as exc:
            # a context-ruled segment with no override and no neighbor of
            # concrete class
            assert "neighbor" in str(exc)
            reject()
        assert all(1 <= s.start <= s.end for s in out)
        assert all(a.end < b.start for a, b in zip(out, out[1:]))
        n = t[-1].end if t else 0
        assert np.array_equal(
            expand_labels(out, n) != UNANNOTATED, expand_labels(t, n) != UNANNOTATED
        )


class TestDefaultMapping:
    def test_loads_and_covers_attested_rules(self):
        m = default_mapping()
        assert m["G2"].targets == ("L1",)
        assert m["G3"].targets == ("L1", "L2")
        assert m["G5"].targets == ()
        assert m["G6"].targets == ("L5", "L3")
        assert m["G11"].targets == ("L7", "L9", "L10")
        for identity in ("G1", "G4", "G8", "G9", "G10"):
            assert m[identity].targets == (identity,)

    def test_target_label_count(self):
        m = default_mapping()
        targets = set()
        for rule in m.values():
            targets.update(rule.targets)
        # 7 attested L-classes (L1,L2,L3,L5 + L7,L9,L10) plus 5 identities
        assert targets == {
            "L1", "L2", "L3", "L5", "L7", "L9", "L10", "G1", "G4", "G8", "G9", "G10",
        }

    def test_splits_carry_default_fractions(self):
        m = default_mapping()
        for source in ("G3", "G6", "G11"):
            rule = m[source]
            assert len(rule.fractions) == len(rule.targets) - 1
