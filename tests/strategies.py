"""Hypothesis strategies that more than one test module draws from."""

from hypothesis import strategies as st

from kinseg.ingest import UNANNOTATED, Segment

# "cluster_10" sorts before "cluster_2": the codes must follow name order.
NAMES = [UNANNOTATED, "G1", "G2", "G11", "cluster_2", "cluster_10"]


@st.composite
def transcripts(draw):
    """Gap-bearing transcripts; adjacent segments may share a label."""
    segments = []
    pos = 1
    for label in draw(st.lists(st.sampled_from(NAMES[1:]), max_size=12)):
        pos += draw(st.integers(0, 4))  # gap before the segment
        end = pos + draw(st.integers(0, 6))
        segments.append(Segment(pos, end, label))
        pos = end + 1
    return tuple(segments)
