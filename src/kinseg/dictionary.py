"""Gesture dictionaries and configurable label remapping.

A mapping file turns one gesture vocabulary into another: plain renames
(adjacent segments that end up with the same label coalesce), ordered
splits at externally supplied boundary frames, and a context rule that
absorbs a segment into its neighbor's class. Split boundaries are data,
not algorithm: a per-demonstration sidecar supplies exact frames; a split
rule may carry default fractions, one per boundary, used when the sidecar
is silent.

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
"""

import io
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import TextIO

from kinseg.ingest import Segment, Transcript


@dataclass(frozen=True)
class MappingRule:
    """One mapping line. Its targets give its kind: none is the context rule
    ('>'), one is a rename, more than one is a split."""

    source: str
    targets: tuple[str, ...]
    fractions: tuple[float, ...] = ()

    def __post_init__(self):
        if self.fractions and len(self.fractions) != len(self.targets) - 1:
            raise ValueError("need no fractions or one per internal split boundary")
        if any(not 0.0 < f < 1.0 for f in self.fractions):
            raise ValueError("fractions must lie strictly in (0, 1)")


@dataclass(frozen=True)
class LabelMapping:
    rules: dict[str, MappingRule] = field(default_factory=dict)

    def rule_for(self, label: str) -> MappingRule:
        try:
            return self.rules[label]
        except KeyError:
            raise ValueError(f"no mapping rule for label {label!r}") from None


@dataclass(frozen=True)
class Sidecar:
    """Per-demonstration split frames and context-rule overrides."""

    boundaries: dict[tuple[str, int], tuple[int, ...]] = field(default_factory=dict)
    overrides: dict[tuple[str, int], str] = field(default_factory=dict)

    def entries(self):
        """(kind, demonstration id, segment index) of every entry."""
        for kind in ("boundaries", "overrides"):
            for demo_id, idx in getattr(self, kind):
                yield kind, demo_id, idx


def parse_mapping(text: str | TextIO) -> LabelMapping:
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
        if ">" in targets:
            if targets != (">",) or fractions:
                raise ValueError(f"mapping line {lineno}: '>' must stand alone")
            targets = ()
        try:
            rules[source] = MappingRule(source, targets, fractions)
        except ValueError as exc:
            raise ValueError(f"mapping line {lineno}: {exc}") from None
    return LabelMapping(rules)


def parse_sidecar(text: str | TextIO) -> Sidecar:
    """Parse the JSON shape in the module docstring; any other shape, an
    unknown key included, raises ValueError."""
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
        ("overrides", "a non-empty label", lambda v: isinstance(v, str) and v != ""),
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
    return Sidecar(
        boundaries={k: tuple(frames) for k, frames in entries["boundaries"].items()},
        overrides=entries["overrides"],
    )


def default_mapping() -> LabelMapping:
    """The remapping rules shipped with the package."""
    text = resources.files("kinseg").joinpath("data/remap_suturing.txt").read_text()
    return parse_mapping(text)


def _boundaries_for(
    segment: Segment, rule: MappingRule, explicit: tuple[int, ...] | None
) -> list[int]:
    needed = len(rule.targets) - 1
    if explicit is not None:
        frames = sorted(explicit)
        if len(frames) != needed:
            raise ValueError(
                f"segment {segment}: rule {rule.source!r} needs {needed} "
                f"boundary frame(s), got {len(frames)}"
            )
    elif rule.fractions:
        total = segment.end - segment.start + 1
        frames = sorted(
            segment.start + max(0, min(total - 2, round(total * f) - 1))
            for f in rule.fractions
        )
    else:
        raise ValueError(
            f"segment {segment}: split rule {rule.source!r} has no boundary "
            "frames (supply a sidecar entry or rule fractions)"
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
    return frames


def apply_mapping(
    t: Transcript,
    mapping: LabelMapping,
    sidecar: Sidecar | None = None,
    *,
    demo_id: str = "",
) -> Transcript:
    """Relabel a transcript; merges coalesce, splits cut at boundary frames.

    The frame b of a boundary list ends the part before it: a split of
    (s, e) at b yields (s, b) and (b+1, e). The total labeled frame count
    is preserved exactly.
    """
    sidecar = sidecar or Sidecar()
    for segment in t.segments:
        mapping.rule_for(segment.label)  # fail fast on unmapped labels
    _check_sidecar(t, mapping, sidecar, demo_id)

    pieces: list[Segment] = []
    for idx, segment in enumerate(t.segments):
        rule = mapping.rule_for(segment.label)
        if not rule.targets:
            target = sidecar.overrides.get((demo_id, idx))
            if target is None:
                target = _neighbor_target(t, mapping, idx)
            pieces.append(Segment(segment.start, segment.end, target))
        elif len(rule.targets) == 1:
            pieces.append(Segment(segment.start, segment.end, rule.targets[0]))
        else:
            explicit = sidecar.boundaries.get((demo_id, idx))
            frames = _boundaries_for(segment, rule, explicit)
            starts = [segment.start] + [b + 1 for b in frames]
            ends = frames + [segment.end]
            pieces.extend(
                Segment(s, e, label)
                for s, e, label in zip(starts, ends, rule.targets)
            )

    merged: list[Segment] = []
    for piece in pieces:
        if (
            merged
            and merged[-1].label == piece.label
            and merged[-1].end + 1 == piece.start
        ):
            merged[-1] = Segment(merged[-1].start, piece.end, piece.label)
        else:
            merged.append(piece)
    return Transcript(tuple(merged))


def _check_sidecar(
    t: Transcript, mapping: LabelMapping, sidecar: Sidecar, demo_id: str
) -> None:
    """Each sidecar entry of the demonstration must name a segment of its
    transcript whose rule reads it: boundaries a split, overrides the
    context rule. An entry nothing reads is an error, not a no-op."""
    for kind, entry_id, idx in sidecar.entries():
        if entry_id != demo_id:
            continue
        where = f"sidecar {kind!r} of {demo_id!r}, segment {idx}"
        if idx >= len(t.segments):
            raise ValueError(f"{where}: the transcript has {len(t.segments)} segments")
        rule = mapping.rule_for(t.segments[idx].label)
        if kind == "boundaries" and len(rule.targets) < 2:
            raise ValueError(f"{where}: the rule for {rule.source!r} is not a split")
        if kind == "overrides" and rule.targets:
            raise ValueError(
                f"{where}: the rule for {rule.source!r} is not the context rule"
            )


def _neighbor_target(t: Transcript, mapping: LabelMapping, idx: int) -> str:
    """Class of the temporally adjacent part of the nearest concrete neighbor:
    the following segment's first part, or the previous segment's last part
    when the transcript ends with the context-ruled segment."""
    for j, adjacent in (
        *((j, 0) for j in range(idx + 1, len(t.segments))),
        *((j, -1) for j in range(idx - 1, -1, -1)),
    ):
        rule = mapping.rule_for(t.segments[j].label)
        if rule.targets:
            return rule.targets[adjacent]
    raise ValueError(
        f"segment {t.segments[idx]}: no neighbor with a concrete target "
        "for the 'following' rule"
    )

