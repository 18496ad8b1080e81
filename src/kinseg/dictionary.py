"""Gesture dictionaries and configurable label remapping.

A mapping file turns one gesture vocabulary into another: plain renames
(expand_labels turns adjacent parts of one label into one run of
frames), ordered splits at externally supplied boundary frames, and a
context rule that absorbs a segment into its neighbor's class. Split
boundaries are data, not algorithm: a per-demonstration sidecar supplies
exact frames; a split rule may carry default fractions, one per
boundary, used when the sidecar is silent. On a segment too short for
its fractions, the parts that get no frame are dropped; sidecar
boundaries must give every part a frame.

Mapping file syntax, one rule per line ('#' starts a comment):

    G2  -> L1                 rename / merge
    G3  -> L1 | L2            split (boundaries from sidecar or fractions)
    G6  -> L5 | L3 @ 0.5      split with default boundary fraction(s)
    G5  -> >                  absorb into the following segment's class
                              ('>' stands alone: no other target, no fraction)

Sidecar files are JSON:

    {"boundaries": {"demo_id": {"2": [200]}},
     "overrides":  {"demo_id": {"5": "L7"}}}

keyed by demonstration id and 0-based segment index in the transcript.

A mapping is a dict from source label to its MappingRule. A parsed sidecar
is the dict {"boundaries": {(demo_id, index): frames}, "overrides":
{(demo_id, index): label}}; check_sidecar checks its entries against the
transcripts once, before any is remapped.
"""

import io
import json
from dataclasses import dataclass
from importlib import resources
from typing import Sequence, TextIO

from kinseg.ingest import Segment


@dataclass(frozen=True)
class MappingRule:
    """One mapping line. Its targets give its kind: none is the context rule
    ('>'), one is a rename, more than one is a split."""

    targets: tuple[str, ...]
    fractions: tuple[float, ...] = ()

    def __post_init__(self):
        if self.fractions and len(self.fractions) != len(self.targets) - 1:
            raise ValueError("need no fractions or one per internal split boundary")
        if any(not 0.0 < f < 1.0 for f in self.fractions):
            raise ValueError("fractions must lie strictly in (0, 1)")


def parse_mapping(text: str | TextIO) -> dict[str, MappingRule]:
    stream = io.StringIO(text) if isinstance(text, str) else text
    rules: dict[str, MappingRule] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ValueError(f"mapping line {lineno}: expected 'SOURCE -> ...'")
        source, rhs = (part.strip() for part in line.split("->", 1))
        if not source or not rhs:
            raise ValueError(f"mapping line {lineno}: empty source or target")
        if source in rules:
            raise ValueError(f"mapping line {lineno}: duplicate rule for {source!r}")
        fractions: tuple[float, ...] = ()
        if "@" in rhs:
            rhs, frac_part = (part.strip() for part in rhs.split("@", 1))
            try:
                fractions = tuple(float(tok) for tok in frac_part.split(","))
            except ValueError:
                raise ValueError(f"mapping line {lineno}: bad fraction list") from None
        targets = tuple(tok.strip() for tok in rhs.split("|"))
        if any(not t for t in targets):
            raise ValueError(f"mapping line {lineno}: empty target name")
        for label in (source, *targets):  # a transcript line holds one word
            if len(label.split()) > 1:
                raise ValueError(f"mapping line {lineno}: label {label!r} is not one word")
        if ">" in targets:
            if targets != (">",) or fractions:
                raise ValueError(f"mapping line {lineno}: '>' must stand alone")
            targets = ()
        try:
            rules[source] = MappingRule(targets, fractions)
        except ValueError as exc:
            raise ValueError(f"mapping line {lineno}: {exc}") from None
    return rules


def parse_sidecar(text: str | TextIO) -> dict[str, dict]:
    """Parse the JSON shape in the module docstring into the dict described
    there; any other shape, an unknown key included, raises ValueError."""
    doc = json.loads(text if isinstance(text, str) else text.read())
    if not isinstance(doc, dict):
        raise ValueError(f"a sidecar holds a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc) - {"boundaries", "overrides"})
    if unknown:
        raise ValueError(
            f"unknown sidecar key(s) {unknown}; expected 'boundaries', 'overrides'"
        )
    entries: dict[str, dict] = {}
    for key, expected, valid in (
        ("boundaries", "a list of integer frames",
         lambda v: isinstance(v, list) and all(type(f) is int for f in v)),
        ("overrides", "a one-word label", lambda v: isinstance(v, str) and [v] == v.split()),
    ):
        per_demo = doc.get(key, {})
        if not isinstance(per_demo, dict):
            raise ValueError(
                f"sidecar {key!r}: expected an object keyed by demonstration id"
            )
        entries[key] = {}
        for demo_id, per_seg in per_demo.items():
            if not isinstance(per_seg, dict):
                raise ValueError(f"sidecar {key!r} of {demo_id!r}: expected an object "
                                 "keyed by segment index")
            for seg_idx, value in per_seg.items():
                if not seg_idx.isdecimal() or not valid(value):
                    raise ValueError(
                        f"sidecar {key!r} of {demo_id!r}: expected a 0-based segment "
                        f"index keying {expected}, got {seg_idx!r}: {value!r}"
                    )
                entries[key][demo_id, int(seg_idx)] = value
    return entries


def default_mapping() -> dict[str, MappingRule]:
    """The remapping rules shipped with the package."""
    path = resources.files("kinseg").joinpath("data/remap_suturing.txt")
    return parse_mapping(path.read_text(encoding="utf-8"))


def check_sidecar(
    sidecar: dict[str, dict],
    transcripts: dict[str, Sequence[Segment]],
    mapping: dict[str, MappingRule],
) -> None:
    """Each sidecar entry must name a segment of a loaded transcript whose
    rule reads it: boundaries a split, overrides the context rule. An entry
    nothing reads is an error, not a no-op. A segment whose label has no
    rule is left to apply_mapping, which names the transcript's label."""
    for kind, entries in sidecar.items():
        for demo_id, idx in entries:
            where = f"sidecar {kind!r} of {demo_id!r}"
            t = transcripts.get(demo_id)
            if t is None:
                raise ValueError(f"{where}: no transcript of that demonstration was loaded")
            where += f", segment {idx}"
            if idx >= len(t):
                raise ValueError(f"{where}: the transcript has {len(t)} segments")
            label = t[idx].label
            rule = mapping.get(label)
            if rule is None:
                continue
            if kind == "boundaries" and len(rule.targets) < 2:
                raise ValueError(f"{where}: the rule for {label!r} is not a split")
            if kind == "overrides" and rule.targets:
                raise ValueError(f"{where}: the rule for {label!r} is not the context rule")


def _split(segment: Segment, rule: MappingRule, explicit: list[int] | None) -> list[Segment]:
    """The parts of a segment under a split rule, in the rule's order.

    Boundaries come from the sidecar (explicit) or else from the rule's
    fractions: f puts a boundary after round(n * f) of the segment's n
    frames, kept within [1, n - 1]. Explicit boundaries must give every part
    a frame. Fractions on a segment too short for them, or close enough to
    round to the same frame, leave some parts no frame: those parts are
    dropped, and the others keep the segment's frames in order.
    """
    needed = len(rule.targets) - 1
    if explicit is not None:
        frames = sorted(explicit)
        if len(frames) != needed:
            raise ValueError(
                f"segment {segment}: rule {segment.label!r} needs {needed} "
                f"boundary frame(s), got {len(frames)}"
            )
        prev = segment.start - 1
        for b in frames:
            if not segment.start <= b < segment.end:
                raise ValueError(
                    f"segment {segment}: boundary {b} falls outside "
                    f"[{segment.start}, {segment.end - 1}]"
                )
            if b <= prev:
                raise ValueError(f"segment {segment}: boundaries must be increasing")
            prev = b
    elif rule.fractions:
        total = segment.end - segment.start + 1
        frames = sorted(
            segment.start + max(0, min(total - 2, round(total * f) - 1))
            for f in rule.fractions
        )
    else:
        raise ValueError(
            f"segment {segment}: split rule {segment.label!r} has no boundary "
            "frames (supply a sidecar entry or rule fractions)"
        )
    starts = [segment.start] + [b + 1 for b in frames]
    ends = frames + [segment.end]
    return [
        Segment(s, e, label) for s, e, label in zip(starts, ends, rule.targets) if s <= e
    ]


def apply_mapping(
    t: Sequence[Segment],
    mapping: dict[str, MappingRule],
    sidecar: dict[str, dict] | None = None,
    *,
    demo_id: str = "",
) -> tuple[Segment, ...]:
    """Relabel a transcript part by part; splits cut at boundary frames.
    Adjacent parts of one label stay apart: expand_labels turns them into
    one run of frames.

    The frame b of a boundary list ends the part before it: a split of
    (s, e) at b yields (s, b) and (b+1, e). The total labeled frame count
    is preserved exactly. The sidecar's entries of demo_id are used as
    they are; check_sidecar is what checks that each is read.
    """
    sidecar = sidecar or {"boundaries": {}, "overrides": {}}
    for segment in t:  # fail fast on an unmapped label
        if segment.label not in mapping:
            raise ValueError(f"no mapping rule for label {segment.label!r}")
    rules = [mapping[segment.label] for segment in t]

    pieces: list[Segment] = []
    for idx, (segment, rule) in enumerate(zip(t, rules)):
        if not rule.targets:
            target = sidecar["overrides"].get((demo_id, idx))
            if target is None:
                target = _neighbor_target(t, rules, idx)
            pieces.append(Segment(segment.start, segment.end, target))
        elif len(rule.targets) == 1:
            pieces.append(Segment(segment.start, segment.end, rule.targets[0]))
        else:
            explicit = sidecar["boundaries"].get((demo_id, idx))
            pieces.extend(_split(segment, rule, explicit))
    return tuple(pieces)


def _neighbor_target(t: Sequence[Segment], rules: list[MappingRule], idx: int) -> str:
    """Class of the temporally adjacent part of the nearest concrete neighbor:
    the following segment's first part, or the previous segment's last part
    when the transcript ends with the context-ruled segment."""
    for j, adjacent in (
        *((j, 0) for j in range(idx + 1, len(t))),
        *((j, -1) for j in range(idx - 1, -1, -1)),
    ):
        if rules[j].targets:
            return rules[j].targets[adjacent]
    raise ValueError(
        f"segment {t[idx]}: no neighbor with a concrete target "
        "for the 'following' rule"
    )
