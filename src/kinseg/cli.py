"""Command-line workflow: segment, sweep-window, ablate.

Dataset layout on disk is one directory with two subdirectories:

    <data-dir>/kinematics/<id>.txt|csv    recordings (robot layout or CSV)
    <data-dir>/transcripts/<id>.txt       optional "start end label" files

The recordings decide how they are read: the extension picks the parser
(.csv is CSV, any other robot text), and the channel count the features
(38 channels take the kinematic pipeline, any other count is used raw).

Demonstrations named by --init-demos seed the mixture (weak init) and are
excluded from both the EM fit and the evaluation; every other
demonstration is fitted and, when it has a transcript, scored. All
settings can come from a JSON config file; command-line flags override
file values field by field.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 numerical
failure.
"""

import argparse
import collections
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from kinseg import dictionary as _dictionary
from kinseg import gmm as _gmm
from kinseg import metrics as _metrics
from kinseg import preprocess as _preprocess
from kinseg.ingest import (
    JIGSAWS_RATE_HZ,
    PSM_COLUMNS,
    UNANNOTATED,
    compress_labels,
    expand_labels,
    parse_kinematics,
    parse_transcript,
    serialize_transcript,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# The scores of the stdout report line and of each sweep CSV row, in order.
_SCORES = ("accuracy", "nmi", "si_pred", "si_truth")


class ConfigError(Exception):
    """Invalid or incomplete run configuration (exit code 1)."""


def _setting(default, flag: str, kind, help: str, minimum=None, **options):
    """A RunConfig field that declares its setting: the flag, the kind (int,
    float, str, or tuple for a comma-separated id list), its range, and the
    options of its add_argument call, the help text and any choices. Every
    float setting must be finite and positive; an int setting with a
    minimum must be at least that when it is set (not None)."""
    options.update(help=help, type=kind if kind in (int, float) else None)
    return dataclasses.field(default=default, metadata={
        "flag": flag, "kind": kind, "minimum": minimum, "options": options,
    })


@dataclass(frozen=True)
class RunConfig:
    """One segmentation run; defaults are the reference operating point."""

    data_dir: str = _setting("", "--data-dir", str, "dataset directory")
    output_dir: str = _setting("", "--output-dir", str, "where results go")
    sample_rate_hz: float = _setting(
        JIGSAWS_RATE_HZ, "--sample-rate", float, "recording rate in Hz (default 30)"
    )
    fc_hz: float = _setting(1.5, "--fc", float, "low-pass cutoff in Hz")
    subsample_factor: int = _setting(
        3, "--subsample", int, "keep every n-th frame", minimum=1
    )
    window: int = _setting(2, "--window", int, "sliding-window length W", minimum=0)
    feature_subset: str = _setting(
        "all", "--subset", str,
        "feature subset: all, no-pose, no-velocity, no-distance, or 1-based indices",
    )
    em_tol: float = _setting(1e-6, "--em-tol", float, "EM stopping tolerance")
    em_max_iter: int = _setting(300, "--em-max-iter", int, "EM iteration cap", minimum=1)
    seed: int = _setting(0, "--seed", int, "random seed", minimum=0)
    init_method: str = _setting(
        "weak", "--init", str, "mixture initialization", choices=["weak", "kmeans"]
    )
    init_demos: tuple[str, ...] = _setting(
        (), "--init-demos", tuple,
        "comma-separated ids of the annotated demonstrations used for weak init",
    )
    k: int | None = _setting(
        None, "--k", int, "component count for k-means init (default: label count)",
        minimum=1,
    )
    mapping: str | None = _setting(
        None, "--mapping", str,
        "label remapping file, or 'builtin' for the shipped suturing rules",
    )
    sidecar: str | None = _setting(
        None, "--sidecar", str, "JSON sidecar with split boundaries/overrides"
    )


# Each setting's kind, by field name.
_KINDS = {f.name: f.metadata["kind"] for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, value):
    kind = _KINDS[name]
    if kind in (int, float):
        try:
            if isinstance(value, bool):
                raise TypeError
            if kind is int and isinstance(value, float) and value != int(value):
                raise ValueError
            return kind(value)
        except (TypeError, ValueError, OverflowError):  # int(inf) overflows
            raise ConfigError(f"config field {name!r}: expected a number, got {value!r}")
    if kind is tuple:
        if isinstance(value, str):
            value = [tok for tok in value.split(",") if tok]
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
        raise ConfigError(
            f"config field {name!r}: expected a string or a list of strings, "
            f"got {value!r}"
        )
    if not isinstance(value, str):
        raise ConfigError(f"config field {name!r}: expected a string, got {value!r}")
    return value


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and explicit flags (in rising priority)."""
    merged = {}
    if getattr(args, "config", None):
        try:
            with _read(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in doc.items():
            if key not in _KINDS:
                raise ConfigError(f"unknown config field {key!r}")
            if value is not None:  # null leaves the default, as an absent flag does
                merged[key] = _coerce(key, value)
    for name in _KINDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = _coerce(name, value)
    config = RunConfig(**merged)
    _validate(config)
    return config


def _check_ranges(config: RunConfig) -> None:
    """Each setting against the range its RunConfig field declares."""
    for f in dataclasses.fields(RunConfig):
        value, minimum = getattr(config, f.name), f.metadata["minimum"]
        if f.metadata["kind"] is float:
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if value <= 0:
                raise ConfigError(f"{f.name} must be positive")
        elif minimum is not None and value is not None and value < minimum:
            raise ConfigError(f"{f.name} must be >= {minimum}")


def _validate(config: RunConfig) -> None:
    """Raise a ConfigError for the first rule the config breaks: the two
    directories, the init method and its demos, repeated ids, each
    setting's declared range, the Nyquist limit and the feature subset."""
    if not config.data_dir:
        raise ConfigError("a data directory is required (--data-dir)")
    if not config.output_dir:
        raise ConfigError("an output directory is required (--output-dir)")
    if config.init_method not in ("weak", "kmeans"):
        raise ConfigError(f"unknown init method {config.init_method!r}")
    if config.init_method == "weak" and not config.init_demos:
        raise ConfigError("weak init needs at least one --init-demos id")
    if len(set(config.init_demos)) < len(config.init_demos):
        raise ConfigError(f"an init demonstration id repeats in {list(config.init_demos)}")
    _check_ranges(config)
    if config.fc_hz >= config.sample_rate_hz / 2:
        raise ConfigError(
            f"fc_hz must lie below the Nyquist frequency {config.sample_rate_hz / 2} Hz"
        )
    try:
        _preprocess.resolve_subset(config.feature_subset)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _read(path: str):
    """An input file as UTF-8 text, less a byte-order mark at its start."""
    return open(path, encoding="utf-8-sig")


@contextlib.contextmanager
def _naming(source: str):
    """Prefix the message of a ValueError raised inside with its source, the
    file or demonstration it came from."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


@dataclass
class LoadedDemo:
    """What every run needs of a recording; the raw frames are not kept."""

    features: np.ndarray  # before any feature subset or window
    n_frames: int  # length of the recording's frame grid
    truth: np.ndarray | None  # per-frame labels, remapped; None without a transcript


def load_dataset(config: RunConfig) -> tuple[dict[str, LoadedDemo], list[str]]:
    """Read every recording (and its transcript when present), sorted by id.
    Then check the sidecar against every transcript, and expand each
    transcript, remapped when a mapping is set, to frame labels once for
    every run of the command. Then build the base features of every
    38-channel recording in one build_features call. Every recording must
    give the first one's feature channels, whose names are returned with
    the recordings."""
    mapping, sidecar = _load_mapping(config)
    kin_dir = os.path.join(config.data_dir, "kinematics")
    if not os.path.isdir(kin_dir):
        raise OSError(f"no kinematics directory at {kin_dir}")
    files = sorted(
        name
        for name in os.listdir(kin_dir)
        if os.path.splitext(name)[1] in (".txt", ".csv")
    )
    if not files:
        raise OSError(f"no kinematic files (.txt or .csv) in {kin_dir}")
    first: dict[str, str] = {}
    for name in files:
        other = first.setdefault(os.path.splitext(name)[0], name)
        if other != name:
            raise ValueError(f"{other} and {name} share a demonstration id")
    dataset: dict[str, LoadedDemo] = {}
    kinematic: dict[str, np.ndarray] = {}  # 38-channel frames by file name
    transcripts: dict[str, tuple] = {}  # parsed segments by demonstration id
    names = None
    for name in files:
        demo_id, ext = os.path.splitext(name)
        layout = "generic_csv" if ext == ".csv" else "jigsaws"
        with _read(os.path.join(kin_dir, name)) as fh, _naming(name):
            frames, channels = parse_kinematics(fh, layout)
        features = None  # built below for a 38-channel recording
        if frames.shape[1] == PSM_COLUMNS:
            kinematic[name] = frames
            channels = _preprocess.FULL_CHANNEL_NAMES
        else:
            features = np.ascontiguousarray(frames[::config.subsample_factor])
        tpath = os.path.join(config.data_dir, "transcripts", f"{demo_id}.txt")
        if os.path.isfile(tpath):
            with _read(tpath) as fh, _naming(f"{demo_id}.txt"):
                transcripts[demo_id] = parse_transcript(fh)
        names = names or channels
        if channels != names:
            raise ValueError(
                f"{name}: its feature channels differ from those of {files[0]} "
                f"({len(channels)} channels against {len(names)})"
            )
        dataset[demo_id] = LoadedDemo(features, len(frames), None)
    if sidecar is not None:
        with _naming(config.sidecar):
            _dictionary.check_sidecar(sidecar, transcripts, mapping)
    for demo_id, transcript in transcripts.items():
        with _naming(f"{demo_id}.txt"):
            if mapping is not None:
                transcript = _dictionary.apply_mapping(
                    transcript, mapping, sidecar, demo_id=demo_id
                )
            dataset[demo_id].truth = expand_labels(transcript, dataset[demo_id].n_frames)
    if kinematic:
        built = _preprocess.build_features(
            kinematic, fc_hz=config.fc_hz, fs_hz=config.sample_rate_hz,
            stride=config.subsample_factor,
        )
        for name, features in built.items():
            dataset[os.path.splitext(name)[0]].features = features
    return dataset, names


def _load_mapping(config: RunConfig):
    if config.mapping is None:
        if config.sidecar is not None:
            raise ConfigError("--sidecar needs --mapping: a sidecar refines its rules")
        return None, None
    if config.mapping == "builtin":
        mapping = _dictionary.default_mapping()
    else:
        with _read(config.mapping) as fh, _naming(config.mapping):
            mapping = _dictionary.parse_mapping(fh)
    sidecar = None
    if config.sidecar is not None:
        with _read(config.sidecar) as fh, _naming(config.sidecar):
            sidecar = _dictionary.parse_sidecar(fh)
    return mapping, sidecar


def _check_run(
    config: RunConfig, dataset: dict[str, LoadedDemo], names: list[str]
) -> None:
    """What a run needs of the loaded data, checked in this order before any
    of its work. A feature subset other than "all" needs the kinematic
    pipeline's features (the dataset's channel names); the init
    demonstrations must be loaded; every demonstration needs more rows than
    the window; some demonstration must be left to fit; for weak init each
    init demonstration needs a transcript with an annotated row among the
    run's rows, each label at least 2 of the init rows and the init rows at
    least two labels; and k-means init without --k needs an annotated frame in
    some transcript, to count the labels."""
    if config.feature_subset != "all" and names != _preprocess.FULL_CHANNEL_NAMES:
        raise ConfigError(
            "feature subsets apply only to the kinematic pipeline "
            f"(demonstration {next(iter(dataset))!r} is processed raw)"
        )
    for demo_id in config.init_demos:
        if demo_id not in dataset:
            raise ValueError(f"init demonstration {demo_id!r} not in the dataset")
    for demo_id, item in dataset.items():
        if len(item.features) <= config.window:
            raise ValueError(
                f"{demo_id}: need more than {config.window} rows, "
                f"got {len(item.features)}"
            )
    if len(dataset) == len(config.init_demos):
        raise ValueError("every demonstration is an init demonstration; nothing to fit")
    stride, counts = config.subsample_factor, collections.Counter()
    for demo_id in config.init_demos if config.init_method == "weak" else ():
        truth, n_rows = dataset[demo_id].truth, len(dataset[demo_id].features)
        if truth is None:
            raise ValueError(f"init demonstration {demo_id!r} has no transcript")
        # the labels at the rows' anchor frames, as labels_at_rows picks them
        labels = truth[: (n_rows - config.window) * stride : stride]
        if np.all(labels == UNANNOTATED):
            raise ValueError(f"init demonstration {demo_id!r} has no annotated rows")
        counts.update(labels[labels != UNANNOTATED].tolist())
    for label, n_rows in sorted(counts.items()):
        if n_rows < 2:
            raise ValueError(f"label {label!r} has only {n_rows} row(s); need at least 2")
    if config.init_method == "weak" and len(counts) < 2:
        raise ValueError(
            f"weak init needs at least two labels among the init rows, got {sorted(counts)}"
        )
    if config.init_method == "kmeans" and config.k is None and not any(
        np.any(item.truth != UNANNOTATED)
        for item in dataset.values() if item.truth is not None
    ):
        raise ConfigError("k-means init needs --k when no transcripts are available")


@dataclass
class RunResult:
    model: _gmm.GmmModel
    predictions: dict[str, np.ndarray]  # per-frame labels on the original grid
    X: np.ndarray  # every demonstration's augmented rows, init demonstrations first
    spans: dict[str, slice]  # each demonstration's rows of X
    labels: np.ndarray  # the predicted label of each row of X
    truth: dict[str, tuple[np.ndarray, np.ndarray]]  # frame, row labels of scored demos
    report: dict | None = None  # score of every scored demo, as report.json holds it

    def score(self, ids: list[str]) -> dict:
        """One report over the frames and rows of the named demonstrations,
        given in X's order; with none named, every metric is None. The
        silhouettes run on X from the first one's rows to the last's; the
        rows of any demonstration between them are labelled UNANNOTATED."""
        spans = [self.spans[d] for d in ids] or [slice(0, 0)]
        start, stop = spans[0].start, spans[-1].stop
        pred_rows, truth_rows = np.full((2, stop - start), UNANNOTATED, dtype=object)
        for demo_id, span in zip(ids, spans):
            at = slice(span.start - start, span.stop - start)
            pred_rows[at], truth_rows[at] = self.labels[span], self.truth[demo_id][1]
        empty = np.empty(0, dtype=object)
        return _metrics.evaluate(
            np.concatenate([empty, *(self.predictions[d] for d in ids)]),
            np.concatenate([empty, *(self.truth[d][0] for d in ids)]),
            with_accuracy=self.model.has_labels(),
            X=self.X[start:stop], pred_rows=pred_rows, truth_rows=truth_rows,
        )


def run_pipeline(
    config: RunConfig, dataset: dict[str, LoadedDemo], names: list[str]
) -> RunResult:
    """Fit on the non-init demonstrations and score the annotated ones. The
    rows of every demonstration make one matrix X, the init demonstrations'
    first: EM takes the rest, a view of X, and one prediction takes X."""
    _check_run(config, dataset, names)
    ids = [*config.init_demos, *(d for d in dataset if d not in config.init_demos)]
    blocks, spans, row_truth, start = [], {}, {}, 0  # row labels of transcribed demos
    for demo_id in ids:
        values, truth = dataset[demo_id].features, dataset[demo_id].truth
        if config.feature_subset != "all":
            values = _preprocess.select_channels(values, config.feature_subset)
        blocks.append(_preprocess.augment(values, config.window))
        spans[demo_id] = slice(start, start := start + len(blocks[-1]))
        if truth is not None:
            row_truth[demo_id] = _preprocess.labels_at_rows(
                truth, len(blocks[-1]), config.subsample_factor
            )
    X = np.concatenate(blocks)
    del blocks  # X is the run's one copy of the rows

    fit_ids = ids[len(config.init_demos):]
    n_init = spans[fit_ids[0]].start
    fit_rows = X[n_init:]
    if config.init_method == "weak":
        init_truth = np.concatenate([row_truth[d] for d in config.init_demos])
        keep = init_truth != UNANNOTATED
        init = _gmm.weak_init(X[:n_init][keep], init_truth[keep])
    else:  # without --k, one component per distinct annotated label
        truths = [item.truth for item in dataset.values() if item.truth is not None]
        k = config.k or len(set().union(*truths) - {UNANNOTATED})
        init = _gmm.kmeans_init(fit_rows, k, config.seed)
    model = _gmm.em_fit(fit_rows, init, tol=config.em_tol, max_iter=config.em_max_iter)

    labels = _gmm.predict_labels(model, X)
    _warn_if_degenerate(model, set(labels[n_init:]))
    predictions = {
        demo_id: _preprocess.rows_to_frames(
            labels[spans[demo_id]], config.subsample_factor, item.n_frames
        )
        for demo_id, item in dataset.items()
    }

    truth = {d: (dataset[d].truth, row_truth[d]) for d in fit_ids if d in row_truth}
    # The pooled report only: segment scores each demonstration itself.
    result = RunResult(model, predictions, X, spans, labels, truth)
    result.report = result.score(list(truth))
    return result


def _warn_if_degenerate(model: _gmm.GmmModel, predicted: set) -> None:
    """Warn about a fit that cannot segment: a mixture of two or more
    components whose fit rows are all predicted as one, or components whose
    means and covariances are equal bit for bit."""
    names = [model.component_name(k) for k in range(model.n_components)]
    if len(names) >= 2 and len(predicted) < 2:
        unused = ", ".join(repr(n) for n in names if n not in predicted)
        warnings.warn(
            "degenerate fit: every fit row is predicted as "
            f"{', '.join(map(repr, predicted))}; none as {unused}",
            RuntimeWarning,
        )
    same: dict[bytes, list[str]] = {}
    for name, mean, cov in zip(names, model.means, model.covariances):
        same.setdefault(mean.tobytes() + cov.tobytes(), []).append(name)
    for group in same.values():
        if len(group) >= 2:
            warnings.warn(
                f"degenerate fit: components {', '.join(map(repr, group))} have equal "
                "means and covariances",
                RuntimeWarning,
            )


def _write_segment_outputs(config, names, result: RunResult) -> None:
    out = config.output_dir
    os.makedirs(os.path.join(out, "predictions"), exist_ok=True)
    os.makedirs(os.path.join(out, "transitions"), exist_ok=True)

    for demo_id in sorted(result.predictions):
        t = compress_labels(result.predictions[demo_id])
        path = os.path.join(out, "predictions", f"{demo_id}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_transcript(t))

    _gmm.save_model(result.model, os.path.join(out, "model.json"))

    per_demo = {d: result.score([d]) for d in sorted(result.truth)}
    for name, doc in (("report.json", result.report),
                      ("report_per_demo.json", per_demo)):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")

    if config.feature_subset != "all":
        names = [names[i] for i in _preprocess.resolve_subset(config.feature_subset)]
    header = ["row_index", "from_label", "to_label"]
    header += _preprocess.augmented_names(names, config.window)
    for demo_id, span in sorted(result.spans.items()):
        X, labels = result.X[span], result.labels[span]
        path = os.path.join(out, "transitions", f"{demo_id}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            # Row t is the last of the old label; the vector is row t + 1's.
            for t in _gmm.transition_points(labels):
                writer.writerow(
                    [int(t), labels[t], labels[t + 1]]
                    + [repr(float(v)) for v in X[t + 1]]
                )


def cmd_segment(config: RunConfig) -> int:
    dataset, names = load_dataset(config)
    result = run_pipeline(config, dataset, names)
    _write_segment_outputs(config, names, result)
    print(f"segmented {len(dataset)} demonstration(s) into {config.output_dir}")
    _print_report_line(result.report)
    return EXIT_OK


def _print_report_line(report: dict) -> None:
    def fmt(v):
        return "n/a" if v is None else f"{v:.4f}"

    scores = " ".join(f"{name}={fmt(report[name])}" for name in _SCORES)
    print(f"{scores} frames={report['n_frames_evaluated']}")


def _metric_row(report: dict) -> list[str]:
    return ["" if report[name] is None else repr(float(report[name])) for name in _SCORES]


def _sweep(config: RunConfig, field: str, values: list, csv_name: str) -> int:
    """One pipeline run and CSV row of metrics per value of a config field
    that leaves the base features unchanged (window or feature_subset)."""
    name = field.removeprefix("feature_")
    configs = [dataclasses.replace(config, **{field: value}) for value in values]
    for run_config in configs:  # a bad value fails before any work is done
        _validate(run_config)
    dataset, names = load_dataset(config)
    # A value the loaded data cannot take fails before the first run.
    for run_config in configs:
        _check_run(run_config, dataset, names)
    rows = []
    for value, run_config in zip(values, configs):
        # Keep only the report: each run's matrices are freed before the next.
        report = run_pipeline(run_config, dataset, names).report
        rows.append([str(value)] + _metric_row(report))
        print(f"{name}={value}: ", end="")
        _print_report_line(report)
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, csv_name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([name, *_SCORES])
        writer.writerows(rows)
    print(f"wrote {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")
    return values


def _subset_list(text: str) -> list[str]:
    """Comma-separated feature subsets; '+' joins the 1-based channel indices
    of one subset, so "1,8+29" is the subsets {1} and {8, 29}."""
    subsets = [tok.strip().replace("+", ",") for tok in text.split(",") if tok.strip()]
    if not subsets:
        raise argparse.ArgumentTypeError(f"expected comma-separated subsets: {text!r}")
    return subsets


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    for f in dataclasses.fields(RunConfig):
        parser.add_argument(f.metadata["flag"], dest=f.name, **f.metadata["options"])


# One row per sweep command: its name and help, the flag of its values and
# their parser, the swept field, the CSV it writes, and the flag's help.
_SWEEPS = [
    (
        "sweep-window", "repeat a run across window lengths",
        "--w-values", _int_list, "window", "sweep_window.csv",
        "comma-separated window lengths",
    ),
    (
        "ablate", "repeat a run across feature subsets",
        "--subsets", _subset_list, "feature_subset", "ablate.csv",
        "comma-separated subsets, each a name (all, no-pose, no-velocity, "
        "no-distance) or 1-based channel indices joined by '+': "
        "'1,8+29' runs channel 1 alone, then channels 8 and 29 together",
    ),
]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kinseg", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("segment", help="fit a mixture and segment a dataset")
    _add_run_arguments(p)
    p.set_defaults(run=lambda args: cmd_segment(resolve_config(args)))

    for command, summary, flag, parse, field, csv_name, flag_help in _SWEEPS:
        p = sub.add_parser(command, help=summary)
        _add_run_arguments(p)
        dest = p.add_argument(flag, type=parse, required=True, help=flag_help).dest
        p.set_defaults(
            run=lambda args, field=field, dest=dest, csv_name=csv_name: _sweep(
                resolve_config(args), field, getattr(args, dest), csv_name
            )
        )
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"kinseg: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            # A run reports its warnings on stderr whatever the caller's
            # filters say (an "error" filter would end it in a traceback).
            # Python shows a repeated warning once; each run of a sweep
            # reports its own degenerate fit.
            warnings.simplefilter("default", RuntimeWarning)
            warnings.filterwarnings("always", message="degenerate fit")
            return args.run(args)
    except ConfigError as exc:
        print(f"kinseg: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_gmm.NumericalError, np.linalg.LinAlgError) as exc:
        print(f"kinseg: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"kinseg: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
