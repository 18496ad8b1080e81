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

Each kind of input is checked in one place: file contents in ingest, as
they are parsed; settings in _validate; a run's data in _check_run. The
layers below this module take the arrays it builds as given.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 numerical
failure.
"""

import argparse
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
    named,
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
    em_max_iter: int = _setting(300, "--em-max-iter", int, "EM iteration cap", minimum=0)
    seed: int = _setting(
        0, "--seed", int, "random seed of k-means init (weak init ignores it)", minimum=0
    )
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
            value = [tok for tok in map(str.strip, value.split(",")) if tok]
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
    """Merge defaults, config file, and explicit flags (in rising priority);
    _load_runs validates the config of each run, not this one."""
    merged = {}
    if getattr(args, "config", None):
        try:
            with _read(args.config) as fh:
                doc = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
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
    return RunConfig(**merged)


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


def _validate(config: RunConfig) -> list[int] | None:
    """Raise a ConfigError for the first rule the config breaks: the two
    directories, the init method and its demos, repeated ids, each
    setting's declared range, the Nyquist limit, the feature subset, a
    sidecar only with a mapping, and --k only with k-means init. Returns
    the channels the subset keeps (None: every one), resolved here only."""
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
        channels = _preprocess.resolve_subset(config.feature_subset)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if config.sidecar is not None and config.mapping is None:
        raise ConfigError("--sidecar needs --mapping: a sidecar refines its rules")
    if config.k is not None and config.init_method == "weak":
        raise ConfigError("--k needs --init kmeans: weak init fits one component per label")
    return None if len(channels) == len(_preprocess.FULL_CHANNEL_NAMES) else channels


def _read(path: str):
    """An input file as UTF-8 text, less a byte-order mark at its start."""
    return open(path, encoding="utf-8-sig")


@dataclass(frozen=True)
class LoadedDemo:
    """What every run needs of a recording, made once; the raw frames are not kept."""

    features: np.ndarray  # before any feature subset or window
    n_frames: int  # length of the recording's frame grid
    truth: np.ndarray | None  # per-frame labels, remapped; None without a transcript
    rows: np.ndarray  # each feature row's label at its anchor frame (UNANNOTATED: none)


def load_dataset(config: RunConfig) -> tuple[dict[str, LoadedDemo], list[str]]:
    """Read every recording (and its transcript when present), sorted by id.
    Then check the sidecar against every transcript, and expand each
    transcript, remapped when a mapping is set, to frame labels once for
    every run of the command. Then build the base features of every
    38-channel recording in one build_features call, and last the label of
    each feature row, which a run slices. Every recording must give the
    first one's channels, whose names are returned with the recordings."""
    mapping, sidecar = _load_mapping(config)
    kin_dir = os.path.join(config.data_dir, "kinematics")
    if not os.path.isdir(kin_dir):
        raise OSError(f"no kinematics directory at {kin_dir}")
    files: dict[str, str] = {}  # file name by demonstration id, in file name order
    for name in sorted(os.listdir(kin_dir)):
        demo_id, ext = os.path.splitext(name)
        if ext in (".txt", ".csv") and files.setdefault(demo_id, name) != name:
            raise ValueError(f"{files[demo_id]} and {name} share a demonstration id")
    if not files:
        raise OSError(f"no kinematic files (.txt or .csv) in {kin_dir}")
    n_frames, features = {}, {}  # frame counts by id, features by file name
    kinematic: dict[str, np.ndarray] = {}  # 38-channel frames by file name
    truths = {}  # by id: parsed segments, then frame labels
    names = None
    for demo_id, name in files.items():
        layout = "generic_csv" if name.endswith(".csv") else "jigsaws"
        with _read(os.path.join(kin_dir, name)) as fh:
            frames, channels = named(name, parse_kinematics, fh, layout)
        n_frames[demo_id] = len(frames)
        if frames.shape[1] == PSM_COLUMNS:
            kinematic[name] = frames
            channels = _preprocess.FULL_CHANNEL_NAMES
        else:
            features[name] = np.ascontiguousarray(frames[::config.subsample_factor])
        tpath = os.path.join(config.data_dir, "transcripts", f"{demo_id}.txt")
        if os.path.isfile(tpath):
            with _read(tpath) as fh:
                truths[demo_id] = named(f"{demo_id}.txt", parse_transcript, fh)
        names = names or channels
        if channels != names:
            raise ValueError(
                f"{name}: its feature channels differ from those of "
                f"{[*files.values()][0]} ({len(channels)} channels against {len(names)})"
            )
    if sidecar is not None:
        named(config.sidecar, _dictionary.check_sidecar, sidecar, truths, mapping)
    for demo_id, transcript in truths.items():
        source = f"{demo_id}.txt"
        if mapping is not None:
            transcript = named(
                source, _dictionary.apply_mapping, transcript, mapping, sidecar,
                demo_id=demo_id,
            )
        truths[demo_id] = named(source, expand_labels, transcript, n_frames[demo_id])
    if kinematic:
        features.update(_preprocess.build_features(
            kinematic, fc_hz=config.fc_hz, fs_hz=config.sample_rate_hz,
            stride=config.subsample_factor,
        ))
    dataset = {}
    for demo_id, name in files.items():
        truth, n_rows = truths.get(demo_id), len(features[name])
        rows = (np.full(n_rows, UNANNOTATED, dtype=object) if truth is None else
                _preprocess.labels_at_rows(truth, n_rows, config.subsample_factor))
        dataset[demo_id] = LoadedDemo(features[name], n_frames[demo_id], truth, rows)
    return dataset, names


def _load_mapping(config: RunConfig):
    if config.mapping is None:
        return None, None
    if config.mapping == "builtin":
        mapping = _dictionary.default_mapping()
    else:
        with _read(config.mapping) as fh:
            mapping = named(config.mapping, _dictionary.parse_mapping, fh)
    sidecar = None
    if config.sidecar is not None:
        with _read(config.sidecar) as fh:
            sidecar = named(config.sidecar, _dictionary.parse_sidecar, fh)
    return mapping, sidecar


def _check_run(config: RunConfig, dataset: dict[str, LoadedDemo], names: list[str],
               channels: list[int] | None):
    """Check what a run needs of the loaded data, in this order, before any of
    its work: kinematic features when the run keeps only some channels (the
    subset's channels, resolved once per run where _validate checked it),
    loaded init demonstrations, more rows than the window in each
    demonstration, one left to fit; for weak init, a transcript and an
    annotated row in each init demonstration, at least 2 init rows per label
    and two labels; for k-means init, --k or an annotated frame to count the
    labels, and no more components than fit rows. Returns the layout of the
    run's row matrix X: each demonstration's slice of X, in X's order (init
    demonstrations first, then the rest in id order), the one statement of
    where its rows go; each row's label (its demonstration's rows, cut to
    the slice); the component count; and the kept channels."""
    if channels is not None and names != _preprocess.FULL_CHANNEL_NAMES:
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
    spans, truth_rows, start = {}, [], 0
    for demo_id in [*config.init_demos, *(d for d in dataset if d not in config.init_demos)]:
        n_rows = len(dataset[demo_id].features) - config.window
        spans[demo_id] = slice(start, start := start + n_rows)
        truth_rows.append(dataset[demo_id].rows[:n_rows])
    truth_rows = np.concatenate(truth_rows)
    n_init = [*spans.values()][len(config.init_demos)].start
    if config.init_method == "weak":
        for demo_id in config.init_demos:
            if dataset[demo_id].truth is None:
                raise ValueError(f"init demonstration {demo_id!r} has no transcript")
            if np.all(truth_rows[spans[demo_id]] == UNANNOTATED):
                raise ValueError(f"init demonstration {demo_id!r} has no annotated rows")
        init_truth = truth_rows[:n_init]
        labels, _, _ = _gmm.weak_labels(init_truth[init_truth != UNANNOTATED])
        if len(labels) < 2:
            raise ValueError(
                f"weak init needs at least two labels among the init rows, got {labels}"
            )
        k = len(labels)
    else:  # without --k, one component per distinct annotated label
        truths = [item.truth for item in dataset.values() if item.truth is not None]
        k = config.k or len(set().union(*truths) - {UNANNOTATED})
        if not k:
            raise ConfigError("k-means init needs --k when no transcripts are available")
        n_fit = len(truth_rows) - n_init
        if k > n_fit:
            raise ValueError(f"k-means init needs at least k={k} fit rows, got {n_fit}")
    return spans, truth_rows, k, channels


@dataclass
class RunResult:
    model: _gmm.GmmModel
    predictions: dict[str, np.ndarray]  # per-frame labels on the original grid
    X: np.ndarray  # every demonstration's augmented rows, init demonstrations first
    spans: dict[str, slice]  # each demonstration's rows of X
    labels: np.ndarray  # the predicted label of each row of X
    truth_rows: np.ndarray  # the true label of each row of X, as _check_run makes it
    truth: dict[str, np.ndarray]  # frame labels of each scored demo, in X's order
    channels: list[int] | None  # X's feature channels; None: every one
    report: dict | None = None  # score of every scored demo, as report.json holds it

    def score(self, ids: list[str]) -> dict:
        """One report over the frames and rows of the named demonstrations,
        all scored ones or one, in X's order; with none named, every metric
        is None. The silhouettes run on X from the first one's rows to the
        last's; any demonstration between them has no transcript, and its
        rows' predicted labels are set to UNANNOTATED as their true ones are."""
        spans = [self.spans[d] for d in ids] or [slice(0, 0)]
        start, stop = spans[0].start, spans[-1].stop
        pred_rows = np.full(stop - start, UNANNOTATED, dtype=object)
        for span in spans:
            pred_rows[span.start - start : span.stop - start] = self.labels[span]
        empty = np.empty(0, dtype=object)
        return _metrics.evaluate(
            np.concatenate([empty, *(self.predictions[d] for d in ids)]),
            np.concatenate([empty, *(self.truth[d] for d in ids)]),
            with_accuracy=self.model.has_labels(),
            X=self.X[start:stop], pred_rows=pred_rows,
            truth_rows=self.truth_rows[start:stop],
        )


def run_pipeline(
    config: RunConfig, dataset: dict[str, LoadedDemo], layout: tuple
) -> RunResult:
    """Fit on the non-init demonstrations and score the annotated ones. The
    rows of every demonstration make one matrix X, each written into its
    span of the layout _check_run returned: EM takes the rest, a view of X,
    and labels it as it ends; one prediction labels the init rows."""
    spans, truth_rows, k, channels = layout
    keep = slice(None) if channels is None else channels
    width = (config.window + 1) * dataset[next(iter(spans))].features[0, keep].size
    X = np.empty((len(truth_rows), width))  # the run's one copy of the rows
    for demo_id, span in spans.items():
        X[span] = _preprocess.augment(dataset[demo_id].features[:, keep], config.window)

    fit_ids = [*spans][len(config.init_demos):]
    n_init = spans[fit_ids[0]].start
    fit_rows = X[n_init:]
    if config.init_method == "weak":
        keep = truth_rows[:n_init] != UNANNOTATED
        init = _gmm.weak_init(X[:n_init][keep], truth_rows[:n_init][keep])
    else:
        init = _gmm.kmeans_init(fit_rows, k, config.seed)
    model = _gmm.em_fit(fit_rows, init, tol=config.em_tol, max_iter=config.em_max_iter)

    labels = np.concatenate([_gmm.predict_labels(model, X[:n_init]), model.fit.predicted])
    _warn_if_degenerate(model, set(model.fit.predicted))
    predictions = {
        demo_id: _preprocess.rows_to_frames(
            labels[spans[demo_id]], config.subsample_factor, item.n_frames
        )
        for demo_id, item in dataset.items()
    }

    truth = {d: dataset[d].truth for d in fit_ids if dataset[d].truth is not None}
    # The pooled report only: segment scores each demonstration itself.
    result = RunResult(model, predictions, X, spans, labels, truth_rows, truth, channels)
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

    if result.channels is not None:
        names = [names[i] for i in result.channels]
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


def _load_runs(config: RunConfig, field: str, values: list):
    """Before any run's work, validate each run's config (config with one value
    of field; config's own value of field is never run, so not judged),
    reject a run equal to an earlier one in its kept channels, check that the
    output directory can be made, then load the data once and check each run
    on it, in value order. Returns the data, its channel names, and each
    run's config and layout."""
    configs = [dataclasses.replace(config, **{field: value}) for value in values]
    kept = [_validate(c) for c in configs]  # a bad value fails before any file is read
    seen = {}
    for value, run_config, channels in zip(values, configs, kept):
        run = dataclasses.replace(run_config, feature_subset=""), channels and tuple(channels)
        if run in seen:
            raise ConfigError(f"{field} values {seen[run]!r} and {value!r} name the same run")
        seen[run] = value
    # the output directory is made as results are written; check its nearest existing path
    existing = config.output_dir
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing) or os.curdir
    if not os.path.isdir(existing):
        raise ConfigError(f"cannot make the output directory {config.output_dir}: "
                          f"{existing} is not a directory")
    dataset, names = load_dataset(config)
    runs = [(c, _check_run(c, dataset, names, ch)) for c, ch in zip(configs, kept)]
    return dataset, names, runs


def cmd_segment(config: RunConfig) -> int:
    dataset, names, [(config, layout)] = _load_runs(config, "window", [config.window])
    result = run_pipeline(config, dataset, layout)
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
    dataset, _, runs = _load_runs(config, field, values)
    rows = []
    for value, (run_config, layout) in zip(values, runs):
        # Keep only the report: each run's matrices are freed before the next.
        report = run_pipeline(run_config, dataset, layout).report
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
