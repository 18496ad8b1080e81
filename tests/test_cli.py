import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import tempfile
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from kinseg import cli, metrics, preprocess
from kinseg.cli import main
from kinseg.gmm import (
    GmmModel,
    NumericalError,
    predict_labels,
    save_model,
    weak_init,
)
from kinseg.ingest import (
    UNANNOTATED,
    Segment,
    parse_kinematics,
    parse_transcript,
    serialize_transcript,
)
from kinseg.preprocess import labels_at_rows
from modeljson import read_model
from synth import (
    lowpass_filter,
    rotvec_matrices,
    serialize_kinematics,
    tree_bytes,
    write_dataset,
    write_jigsaws,
)

REPORT_KEYS = [
    "accuracy",
    "nmi",
    "si_pred",
    "si_truth",
    "per_label_accuracy",
    "confusion",
    "n_frames_evaluated",
]

SYNTH_ARGS = dict(n_demos=3, regimes=3, dim=4, segments=6, segment_frames=60, seed=7)


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synthdata")
    write_dataset(d, **SYNTH_ARGS)
    return d


def run_segment(data_dir, out_dir, extra=()):
    argv = [
        "segment",
        "--data-dir", str(data_dir),
        "--output-dir", str(out_dir),
        "--init", "weak",
        "--init-demos", "synth00",
        "--window", "1",
        "--seed", "0",
    ] + list(extra)
    return main(argv)


def model_labels(out_dir):
    """The component labels that model.json holds."""
    return list(read_model(out_dir / "model.json").labels)


@pytest.fixture(scope="session")
def weak_run(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("weakrun")
    assert run_segment(synth_dir, out) == 0
    return out


class TestSegmentCommand:
    def test_outputs_exist(self, weak_run):
        for i in range(3):
            assert (weak_run / "predictions" / f"synth{i:02d}.txt").is_file()
            assert (weak_run / "transitions" / f"synth{i:02d}.csv").is_file()
        assert (weak_run / "model.json").is_file()
        assert (weak_run / "report.json").is_file()
        assert (weak_run / "report_per_demo.json").is_file()

    def test_report_key_order(self, weak_run):
        raw = (weak_run / "report.json").read_text()
        keys = json.loads(raw, object_pairs_hook=lambda p: [k for k, _ in p])
        assert keys == REPORT_KEYS

    def test_report_values(self, weak_run):
        report = json.loads((weak_run / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert 0.0 <= report["nmi"] <= 1.0
        assert report["n_frames_evaluated"] > 0
        assert report["confusion"]["labels"] == sorted(report["confusion"]["labels"])

    def test_per_demo_excludes_init(self, weak_run):
        per_demo = json.loads((weak_run / "report_per_demo.json").read_text())
        assert sorted(per_demo) == ["synth01", "synth02"]
        for entry in per_demo.values():
            assert list(entry) == REPORT_KEYS

    def test_predicted_labels_from_annotations(self, weak_run):
        for i in range(3):
            t = parse_transcript(
                (weak_run / "predictions" / f"synth{i:02d}.txt").read_text()
            )
            assert {s.label for s in t} <= {"R0", "R1", "R2"}

    def test_model_json_names_the_labels(self, weak_run):
        labels = model_labels(weak_run)
        assert None not in labels
        assert set(labels) == {"R0", "R1", "R2"}

    def test_model_json_round_trips(self, weak_run, tmp_path):
        save_model(read_model(weak_run / "model.json"), tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == (weak_run / "model.json").read_bytes()

    def test_raw_features_are_every_stride_th_frame(self, synth_dir):
        # a recording that is not 38 channels is used raw, with its header
        config = cli.RunConfig(data_dir=str(synth_dir), subsample_factor=2)
        dataset, names = cli.load_dataset(config)
        path = synth_dir / "kinematics" / "synth01.csv"
        frames, header = parse_kinematics(path.read_text(), "generic_csv")
        assert names == header == ["s0", "s1", "s2", "s3"]
        assert np.array_equal(dataset["synth01"].features, frames[::2])
        assert dataset["synth01"].n_frames == len(frames)

    def test_transitions_header(self, weak_run):
        head = (weak_run / "transitions" / "synth01.csv").read_text().splitlines()[0]
        assert head.startswith("row_index,from_label,to_label,")
        # W=1 on 4 channels: 8 feature columns after the three bookkeeping ones
        assert len(head.split(",")) == 3 + 8

    def test_transitions_content(self, synth_dir, tmp_path):
        # Row t is the last row of the old label; the vector is row t + 1's.
        config = cli.RunConfig(
            data_dir=str(synth_dir), output_dir=str(tmp_path), window=1,
            init_demos=("synth00",),
        )
        dataset, names = cli.load_dataset(config)
        result = cli.run_pipeline(
            config, dataset, cli._check_run(config, dataset, names, cli._validate(config))
        )
        cli._write_segment_outputs(config, names, result)
        changes = 0
        for demo_id in dataset:
            labels = result.labels[result.spans[demo_id]]
            values = result.X[result.spans[demo_id]]
            with open(tmp_path / "transitions" / f"{demo_id}.csv", newline="") as fh:
                lines = list(csv.reader(fh))[1:]
            assert len(lines) == np.count_nonzero(labels[1:] != labels[:-1])
            for line in lines:
                t = int(line[0])
                assert line[1:3] == [labels[t], labels[t + 1]]
                assert [float(v) for v in line[3:]] == values[t + 1].tolist()
            changes += len(lines)
        assert changes > 0

    def test_kmeans_init(self, synth_dir, tmp_path):
        out = tmp_path / "km"
        code = main([
            "segment",
            "--data-dir", str(synth_dir),
            "--output-dir", str(out),
            "--init", "kmeans",
            "--window", "1",
            "--seed", "0",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["accuracy"] is None
        assert isinstance(report["nmi"], float)
        assert set(model_labels(out)) == {None}

    def test_kmeans_init_and_em_share_the_fit_rows(self, synth_dir, tmp_path, monkeypatch):
        import kinseg.gmm as gmm_mod

        seen, results = {}, []
        for name in ("kmeans_init", "em_fit", "predict_labels"):
            def record(*args, _name=name, _real=getattr(gmm_mod, name), **kwargs):
                seen[_name] = args
                return _real(*args, **kwargs)

            monkeypatch.setattr(gmm_mod, name, record)

        def run_pipeline(*args, _real=cli.run_pipeline):
            results.append(_real(*args))
            return results[-1]

        monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
        code = main([
            "segment",
            "--data-dir", str(synth_dir),
            "--output-dir", str(tmp_path / "km"),
            "--init", "kmeans",
            "--window", "1",
        ])
        assert code == 0
        fit_rows = seen["em_fit"][0]
        assert seen["kmeans_init"][0] is fit_rows
        assert fit_rows.shape == (3 * (360 // 3 - 1), 8)  # every demo, subsampled
        # the fit rows are a view of the run's one matrix; predict takes its
        # init rows, none under k-means init without --init-demos
        (result,) = results
        assert np.shares_memory(fit_rows, result.X)
        init_rows = seen["predict_labels"][1]
        assert init_rows.base is result.X and init_rows.shape == (0, 8)

    def test_deterministic_reruns(self, synth_dir, weak_run, tmp_path):
        out = tmp_path / "rerun"
        assert run_segment(synth_dir, out) == 0
        for name in ("report.json", "model.json", "report_per_demo.json"):
            assert (out / name).read_bytes() == (weak_run / name).read_bytes()


class TestSweepAndAblate:
    def test_sweep_single_value_matches_segment(self, synth_dir, weak_run, tmp_path):
        out = tmp_path / "sweep"
        argv = [
            "sweep-window",
            "--data-dir", str(synth_dir),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "synth00",
            "--seed", "0",
            "--w-values", "1",
        ]
        assert main(argv) == 0
        lines = (out / "sweep_window.csv").read_text().splitlines()
        assert lines[0] == "window,accuracy,nmi,si_pred,si_truth"
        assert len(lines) == 2
        report = json.loads((weak_run / "report.json").read_text())
        cells = lines[1].split(",")
        assert cells[0] == "1"
        assert float(cells[1]) == report["accuracy"]
        assert float(cells[2]) == report["nmi"]

    def test_sweep_multiple_rows(self, synth_dir, tmp_path):
        out = tmp_path / "sweep2"
        argv = [
            "sweep-window",
            "--data-dir", str(synth_dir),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "synth00",
            "--seed", "0",
            "--w-values", "0,2",
        ]
        assert main(argv) == 0
        lines = (out / "sweep_window.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "2"]

    def test_ablate_on_robot_dataset(self, robot_dir, tmp_path):
        seg_out = tmp_path / "seg"
        abl_out = tmp_path / "abl"
        common = [
            "--data-dir", str(robot_dir),
            "--init", "kmeans",
            "--k", "2",
            "--window", "1",
            "--seed", "3",
        ]
        assert main(["segment", "--output-dir", str(seg_out)] + common) == 0
        code = main(
            ["ablate", "--output-dir", str(abl_out), "--subsets", "all"] + common
        )
        assert code == 0
        lines = (abl_out / "ablate.csv").read_text().splitlines()
        assert lines[0] == "subset,accuracy,nmi,si_pred,si_truth"
        report = json.loads((seg_out / "report.json").read_text())
        cells = lines[1].split(",")
        assert cells[0] == "all"
        assert cells[1] == ""  # kmeans runs carry no accuracy
        assert float(cells[2]) == report["nmi"]

    def test_ablate_builds_features_once_per_demo(self, robot_dir, tmp_path, build_calls):
        subsets = ["all", "no-pose", "1", "29"]
        common = [
            "--data-dir", str(robot_dir),
            "--init", "weak",
            "--init-demos", "run0",
            "--window", "1",
            "--seed", "3",
        ]
        code = main(
            ["ablate", "--output-dir", str(tmp_path / "abl"),
             "--subsets", ",".join(subsets)] + common
        )
        assert code == 0
        assert build_calls == [["run0", "run1"]]
        rows = (tmp_path / "abl" / "ablate.csv").read_text().splitlines()[1:]
        assert [row.split(",", 1)[0] for row in rows] == subsets
        # each row matches a separate segment run with that subset
        for subset, row in zip(subsets, rows):
            out = tmp_path / f"seg-{subset}"
            assert main(
                ["segment", "--output-dir", str(out), "--subset", subset] + common
            ) == 0
            report = json.loads((out / "report.json").read_text())
            expected = [
                "" if report[k] is None else repr(float(report[k]))
                for k in ("accuracy", "nmi", "si_pred", "si_truth")
            ]
            assert row.split(",")[1:] == expected

    def test_sweep_builds_features_once_per_demo(self, robot_dir, tmp_path, build_calls):
        argv = [
            "sweep-window",
            "--data-dir", str(robot_dir),
            "--output-dir", str(tmp_path / "sw"),
            "--init", "weak",
            "--init-demos", "run0",
            "--subset", "no-distance",
            "--w-values", "0,1,2",
        ]
        assert main(argv) == 0
        assert build_calls == [["run0", "run1"]]

    def test_segment_builds_features_once(self, robot_dir, tmp_path, build_calls):
        argv = [
            "segment",
            "--data-dir", str(robot_dir),
            "--output-dir", str(tmp_path / "seg"),
            "--init", "weak",
            "--init-demos", "run0",
            "--window", "1",
        ]
        assert main(argv) == 0
        assert build_calls == [["run0", "run1"]]

    def test_ablate_maps_transcripts_once(self, robot_dir, tmp_path, count_calls):
        import kinseg.dictionary as dictionary

        parses = count_calls(dictionary, "parse_mapping")
        remaps = count_calls(dictionary, "apply_mapping")
        expands = count_calls(cli, "expand_labels")
        rules = tmp_path / "rules.txt"
        rules.write_text("slow -> S\nfast -> F\n")
        argv = [
            "ablate",
            "--data-dir", str(robot_dir),
            "--output-dir", str(tmp_path / "abl"),
            "--init", "weak",
            "--init-demos", "run0",
            "--window", "1",
            "--mapping", str(rules),
            "--subsets", "all,1,29",
        ]
        assert main(argv) == 0
        assert len(parses) == 1
        assert len(remaps) == len(expands) == 2  # one per demonstration

    def test_segment_predicts_once(self, synth_dir, tmp_path, count_calls):
        import kinseg.gmm as gmm_mod

        calls = count_calls(gmm_mod, "predict_labels")
        assert run_segment(synth_dir, tmp_path / "seg") == 0
        assert len(calls) == 1
        (_, rows), _ = calls[0]
        assert rows.shape == (360 // 3 - 1, 8)  # the init demo's rows: EM labels the rest

    @pytest.mark.parametrize("extra", [["--em-max-iter", "3"], []], ids=["capped", "converged"])
    def test_e_step_rows_per_run(self, synth_dir, tmp_path, count_calls, extra):
        # EM computes its last E-step once, one more at the cap, and labels
        # the fit rows with it; one call takes the init rows.
        import kinseg.gmm as gmm_mod

        calls = count_calls(gmm_mod, "_log_densities")
        assert run_segment(synth_dir, tmp_path / "seg", extra) == 0
        iters = len(read_model(tmp_path / "seg" / "model.json").fit_trace)
        if extra:
            assert iters == 3
            e_steps = iters + 1
        else:
            assert iters < cli.RunConfig.em_max_iter
            e_steps = iters
        n_init = 360 // 3 - 1
        assert [len(rows) for (rows, *_), _ in calls] == [2 * n_init] * e_steps + [n_init]

    def test_em_max_iter_0_predicts_with_the_weak_init(self, synth_dir, tmp_path, monkeypatch):
        results = []

        def run_pipeline(*args, _real=cli.run_pipeline):
            results.append(_real(*args))
            return results[-1]

        monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
        out = tmp_path / "seg"
        assert run_segment(synth_dir, out, ["--em-max-iter", "0"]) == 0
        (result,) = results
        n_init = result.spans["synth00"].stop
        keep = result.truth_rows[:n_init] != UNANNOTATED
        init = weak_init(result.X[:n_init][keep], result.truth_rows[:n_init][keep])
        assert np.array_equal(result.labels, predict_labels(init, result.X))
        assert not result.model.fit.converged
        assert (out / "model.json").read_text().endswith(', "fit_trace": []}\n')
        assert np.array_equal(read_model(out / "model.json").means, init.means)

    def test_sweep_predicts_once_per_run(self, synth_dir, tmp_path, count_calls):
        import kinseg.gmm as gmm_mod

        calls = count_calls(gmm_mod, "predict_labels")
        argv = [
            "sweep-window",
            "--data-dir", str(synth_dir),
            "--output-dir", str(tmp_path / "sw"),
            "--init", "weak",
            "--init-demos", "synth00",
            "--w-values", "0,1,2",
        ]
        assert main(argv) == 0
        # one call per run, on the init demo's rows: 120 rows less the window
        assert [rows.shape for (_, rows), _ in calls] == [(120, 4), (119, 8), (118, 12)]

    def test_subset_transitions_header(self, robot_dir, tmp_path):
        out = tmp_path / "seg"
        argv = [
            "segment",
            "--data-dir", str(robot_dir),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "run0",
            "--window", "1",
            "--subset", "32,1",
        ]
        assert main(argv) == 0
        header = (out / "transitions" / "run1.csv").read_text().splitlines()[0]
        assert header == (
            "row_index,from_label,to_label,right_pos_x_t0,dist_t0,right_pos_x_t1,dist_t1"
        )

    def test_ablate_joins_indices_with_plus(self, robot_dir, tmp_path):
        common = [
            "--data-dir", str(robot_dir),
            "--init", "weak",
            "--init-demos", "run0",
            "--window", "1",
            "--seed", "3",
        ]
        code = main(
            ["ablate", "--output-dir", str(tmp_path / "abl"), "--subsets", "1,8+29"]
            + common
        )
        assert code == 0
        with open(tmp_path / "abl" / "ablate.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["1", "8,29"]
        out = tmp_path / "seg"
        assert main(["segment", "--output-dir", str(out), "--subset", "8,29"] + common) == 0
        report = json.loads((out / "report.json").read_text())
        assert rows[1][1:] == [
            "" if report[k] is None else repr(float(report[k]))
            for k in ("accuracy", "nmi", "si_pred", "si_truth")
        ]

    def test_window_too_long_fails_before_any_run(self, synth_dir, tmp_path, capsys):
        # synth02 cut to 12 frames, 4 rows at the default subsample of 3
        data = copy_synth(synth_dir, tmp_path / "data")
        kin = data / "kinematics" / "synth02.csv"
        kin.write_text("".join(kin.read_text().splitlines(keepends=True)[:13]))
        (data / "transcripts" / "synth02.txt").unlink()
        out = tmp_path / "sweep"
        code = main([
            "sweep-window",
            "--data-dir", str(data),
            "--output-dir", str(out),
            "--init-demos", "synth00",
            "--w-values", "0,1,5",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "kinseg: data error: synth02: need more than 5 rows, got 4" in captured.err
        assert captured.out == ""
        assert not (out / "sweep_window.csv").exists()

    def test_ablate_help_names_the_joiner(self, capsys):
        assert main(["ablate", "--help"]) == 0
        assert "8+29" in capsys.readouterr().out

    def test_subset_rejected_on_raw_data(self, synth_dir, tmp_path, capsys):
        code = run_segment(synth_dir, tmp_path / "x", ["--subset", "no-pose"])
        assert code == 1
        assert "kinematic" in capsys.readouterr().err

    def test_ablate_subset_rejected_on_raw_data_before_any_run(
        self, synth_dir, tmp_path, monkeypatch, capsys
    ):
        import kinseg.cli as cli_mod

        runs = []
        monkeypatch.setattr(cli_mod, "run_pipeline", lambda *a: runs.append(a))
        out = tmp_path / "abl"
        code = main([
            "ablate",
            "--data-dir", str(synth_dir),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "synth00",
            "--subsets", "all,no-pose",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "feature subsets apply only to the kinematic pipeline" in captured.err
        assert runs == []
        assert "accuracy=" not in captured.out
        assert not (out / "ablate.csv").exists()

    @pytest.mark.parametrize("spelling", ["flag", "config", "indices"])
    def test_every_channel_subset_on_raw_data(self, synth_dir, tmp_path, spelling):
        # a subset that resolves to every channel runs as "all" does,
        # whatever its spaces, also on recordings that are used raw
        assert run_segment(synth_dir, tmp_path / "all", ["--subset", "all"]) == 0
        if spelling == "config":
            (tmp_path / "run.json").write_text(json.dumps({"feature_subset": "all "}))
            extra = ["--config", str(tmp_path / "run.json")]
        else:
            extra = ["--subset", " all" if spelling == "flag" else
                     ",".join(map(str, range(1, 33)))]
        assert run_segment(synth_dir, tmp_path / "other", extra) == 0
        assert tree_bytes(tmp_path / "other") == tree_bytes(tmp_path / "all")

    @pytest.mark.parametrize(
        "subset",
        ["all\n", "\tall", ",".join(map(str, range(32, 0, -1))),
         "1," + ",".join(map(str, range(1, 33))), " , ".join(map(str, range(1, 33)))],
        ids=["newline", "tab", "reversed", "repeated", "spaced"],
    )
    def test_every_channel_subset_keeps_every_channel(self, synth_dir, subset):
        # the run check decides "every channel" from the resolved subset:
        # on raw recordings it neither raises nor names channels to keep
        config = cli.RunConfig(data_dir=str(synth_dir), output_dir="out", window=1,
                               init_demos=("synth00",), feature_subset=subset)
        dataset, names = cli.load_dataset(config)
        assert names != cli._preprocess.FULL_CHANNEL_NAMES
        assert cli._check_run(config, dataset, names, cli._validate(config))[4] is None

    @pytest.mark.parametrize("subset", [" no-pose", ",".join(map(str, range(1, 32)))],
                             ids=["named", "31-indices"])
    def test_subset_that_drops_a_channel_on_raw_data(self, synth_dir, subset):
        config = cli.RunConfig(data_dir=str(synth_dir), output_dir="out", window=1,
                               init_demos=("synth00",), feature_subset=subset)
        dataset, names = cli.load_dataset(config)
        with pytest.raises(cli.ConfigError, match="apply only to the kinematic pipeline"):
            cli._check_run(config, dataset, names, cli._validate(config))

    def test_sweep_with_a_spaced_all_subset(self, synth_dir, tmp_path, capsys):
        outputs = []
        for subset in ("all", " all"):
            out = tmp_path / repr(subset)
            assert main([
                "sweep-window", "--data-dir", str(synth_dir), "--output-dir", str(out),
                "--init-demos", "synth00", "--w-values", "0,1", "--subset", subset,
            ]) == 0
            outputs.append((capsys.readouterr().out.replace(str(out), "OUT"),
                            (out / "sweep_window.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_kinematic_run_on_every_channel_by_index(self, robot_dir, tmp_path):
        # channels named in any order run as "all": the same X, and the
        # transitions name the channels in their recorded order
        common = ["--data-dir", str(robot_dir), "--init-demos", "run0",
                  "--window", "1", "--seed", "3"]
        for subset in ("all", ",".join(map(str, range(32, 0, -1)))):
            assert main(["segment", "--output-dir", str(tmp_path / subset[:3]),
                         "--subset", subset] + common) == 0
        assert tree_bytes(tmp_path / "32,") == tree_bytes(tmp_path / "all")

    def test_ablate_csv_keeps_the_subset_as_written(self, robot_dir, tmp_path):
        common = ["--data-dir", str(robot_dir), "--init-demos", "run0",
                  "--window", "1", "--seed", "3"]
        rows = []
        for subsets in ("all", "+".join(map(str, range(1, 33)))):
            out = tmp_path / subsets[:3]
            assert main(["ablate", "--output-dir", str(out), "--subsets", subsets]
                        + common) == 0
            with open(out / "ablate.csv", newline="") as fh:
                rows.append(list(csv.reader(fh))[1])
        assert [rows[0][0], rows[1][0]] == ["all", ",".join(map(str, range(1, 33)))]
        assert rows[0][1:] == rows[1][1:]

    @pytest.mark.parametrize("command, calls", [
        (["segment", "--subset", "1"], 1),
        (["ablate", "--subsets", "1,8,29"], 3),
    ], ids=["segment", "ablate"])
    def test_subset_resolved_once_per_run(self, tmp_path, count_calls, command, calls):
        # once per run, where _load_runs checks its config; not for the
        # command's own config, nor by the run check or per demonstration (2
        # and 4 calls when the command's config was checked too, 8 and 22
        # when each of the four checked it)
        data = write_jigsaws(tmp_path / "data", 7, 4, 900)
        resolved = count_calls(cli._preprocess, "resolve_subset")
        assert main([*command, "--data-dir", str(data), "--output-dir", str(tmp_path / "out"),
                     "--init-demos", "d00", "--window", "1", "--mapping", "builtin"]) == 0
        assert len(resolved) == calls

    @pytest.mark.parametrize("command, calls", [
        (["segment"], 1), (["sweep-window", "--w-values", "0,1,2"], 3),
    ], ids=["segment", "sweep-window"])
    def test_config_validated_once_per_run(self, synth_dir, tmp_path, count_calls,
                                           command, calls):
        # only _load_runs checks a config, once per run
        validated = count_calls(cli, "_validate")
        assert main([*command, "--data-dir", str(synth_dir), "--output-dir",
                     str(tmp_path / "out"), "--init-demos", "synth00"]) == 0
        assert len(validated) == calls

    @pytest.mark.parametrize("argv, field, value, csv_name", [
        (["ablate", "--subsets", "all"], "feature_subset", "bogus", "ablate.csv"),
        (["sweep-window", "--w-values", "0,1"], "window", -1, "sweep_window.csv"),
    ], ids=["ablate", "sweep-window"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_swept_base_value_is_not_judged(self, synth_dir, tmp_path, capsys,
                                            argv, field, value, csv_name, source):
        # the value a sweep overrides is never run, so it is not checked
        if source == "flag":
            base = [_CONFIG_VALUES[field][0], str(value)]
        else:
            (tmp_path / "run.json").write_text(json.dumps({field: value}))
            base = ["--config", str(tmp_path / "run.json")]
        outputs = []
        for name, extra in (("base", base), ("plain", [])):
            out = tmp_path / name
            assert main([*argv, *extra, "--data-dir", str(synth_dir), "--output-dir",
                         str(out), "--init-demos", "synth00"]) == 0
            outputs.append((out / csv_name).read_bytes())
        assert outputs[0] == outputs[1]


class TestSweepValueValidation:
    """A bad sweep value is a config error, found before any run starts."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-window", "--w-values", "1,-1"], "window must be >= 0"),
            (["ablate", "--subsets", "1,99"], "explicit feature indices must lie in 1..32"),
            # a value that repeats a run is found once every value passes
            # its own checks
            (["sweep-window", "--w-values", "1,1,-1"], "window must be >= 0"),
            (["sweep-window", "--w-values", "1,0,1"], "window values 1 and 1 name the same run"),
            (["ablate", "--subsets", "8+29,1,29+8"],
             "feature_subset values '8,29' and '29,8' name the same run"),
            (["ablate", "--subsets", "1,1"], "feature_subset values '1' and '1' name the same run"),
            (["ablate", "--subsets", "no-distance," + "+".join(map(str, range(1, 29)))],
             "feature_subset values 'no-distance' and "
             f"'{','.join(map(str, range(1, 29)))}' name the same run"),
        ],
        ids=["w-values", "subsets", "repeat-and-bad", "w-repeat", "subset-reordered",
             "subset-repeat", "subset-named"],
    )
    def test_bad_value_fails_before_work(
        self, robot_dir, tmp_path, monkeypatch, capsys, argv, message
    ):
        import kinseg.cli as cli_mod

        loads = []
        monkeypatch.setattr(cli_mod, "load_dataset", lambda config: loads.append(config))
        out = tmp_path / "out"
        code = main(argv + [
            "--data-dir", str(robot_dir),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "run0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert f"kinseg: config error: {message}" in captured.err
        assert loads == []
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["sweep-window", "--w-values", ","], ["ablate", "--subsets", ","]],
        ids=["w-values", "subsets"],
    )
    def test_empty_value_list_is_usage_error(self, robot_dir, tmp_path, argv):
        out = tmp_path / "out"
        code = main(argv + [
            "--data-dir", str(robot_dir),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "run0",
        ])
        assert code == 1
        assert not out.exists()

    def test_non_integer_window_is_usage_error(self, robot_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "sweep-window", "--w-values", "1,a", "--data-dir", str(robot_dir),
            "--output-dir", str(out), "--init-demos", "run0",
        ])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --w-values: expected comma-separated integers: '1,a'\n"
        )
        assert not out.exists()


@pytest.fixture
def build_calls(monkeypatch, robot_dir):
    """One list per build_features call: the ids of the robot_dir
    recordings it was passed, in order; each batch member's frames are
    matched to the recording they equal."""
    import kinseg.preprocess as pp

    recordings = {
        parse_kinematics(path.read_text())[0].tobytes(): path.stem
        for path in (robot_dir / "kinematics").iterdir()
    }
    calls = []
    real = pp.build_features

    def counted(batch, *args, **kwargs):
        calls.append([recordings[frames.tobytes()] for frames in batch.values()])
        return real(batch, *args, **kwargs)

    monkeypatch.setattr(pp, "build_features", counted)
    return calls


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name and returns the list that
    collects the (args, kwargs) of each call."""

    def install(module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture(scope="session")
def robot_dir(tmp_path_factory):
    """38-channel dataset in the robot file layout, two gestures per run."""
    root = tmp_path_factory.mktemp("robotdata")
    (root / "kinematics").mkdir()
    (root / "transcripts").mkdir()
    T = 240
    t = np.arange(T) / 30.0
    for run in range(2):
        rng = np.random.default_rng(run)
        arms = []
        for arm in range(2):
            freq = np.where(np.arange(T) < T // 2, 0.3, 1.1)
            pos = np.column_stack(
                [np.sin(2 * np.pi * freq * t + arm + k) for k in range(3)]
            )
            angles = 0.4 * np.sin(2 * np.pi * 0.2 * t + arm + run)
            rots = rotvec_matrices(np.outer(angles, [0.6, 0.8, 0.0])).reshape(T, 9)
            vel = np.column_stack(
                [np.cos(2 * np.pi * freq * t + arm + k) for k in range(3)]
            )
            angvel = 0.05 * rng.normal(size=(T, 3))
            grip = np.sin(2 * np.pi * 0.1 * t + arm)[:, None]
            arms.append(np.hstack([pos, rots, vel, angvel, grip]))
        transcript = (Segment(1, T // 2, "slow"), Segment(T // 2 + 1, T, "fast"))
        (root / "kinematics" / f"run{run}.txt").write_text(
            serialize_kinematics(np.hstack(arms), "jigsaws")
        )
        (root / "transcripts" / f"run{run}.txt").write_text(
            serialize_transcript(transcript)
        )
    return root


class TestKinematicPipeline:
    def test_segment_robot_dataset(self, robot_dir, tmp_path):
        out = tmp_path / "out"
        argv = [
            "segment",
            "--data-dir", str(robot_dir),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "run0",
            "--window", "1",
            "--seed", "0",
        ]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["accuracy"] is not None
        t = parse_transcript((out / "predictions" / "run1.txt").read_text())
        assert {s.label for s in t} <= {"slow", "fast"}


    def test_unequal_lengths_filtered_as_single_recordings(self, robot_dir, tmp_path):
        # run1 cut to 100 frames and run2 to 5 (padded by 4 frames, not 6):
        # each is filtered in the shared pass as it would be alone
        import kinseg.preprocess as pp

        data = copy_tree(robot_dir, tmp_path / "data")
        lines = (data / "kinematics" / "run0.txt").read_text().splitlines(keepends=True)
        (data / "kinematics" / "run1.txt").write_text("".join(lines[:100]))
        (data / "kinematics" / "run2.txt").write_text("".join(lines[100:105]))
        (data / "transcripts" / "run1.txt").write_text("1 50 slow\n51 100 fast\n")
        config = cli.RunConfig(data_dir=str(data), output_dir=str(tmp_path / "out"))
        dataset, _ = cli.load_dataset(config)
        for demo_id, n in (("run0", 240), ("run1", 100), ("run2", 5)):
            path = data / "kinematics" / f"{demo_id}.txt"
            frames, _ = parse_kinematics(path.read_text())
            alone = pp.zscore(lowpass_filter(pp._kinematic_channels(frames), 1.5, 30.0))
            assert dataset[demo_id].n_frames == n
            assert np.array_equal(dataset[demo_id].features, alone[::3])
        (data / "kinematics" / "run2.txt").unlink()
        out = tmp_path / "out"
        assert main([
            "segment",
            "--data-dir", str(data),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "run0",
            "--window", "1",
        ]) == 0
        t = parse_transcript((out / "predictions" / "run1.txt").read_text())
        assert t[-1].end == 100


# Imports kinseg.cli with every scipy import refused, then runs the CLI.
BLOCK_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"scipy is blocked ({name})")
        return None


sys.meta_path.insert(0, RefuseScipy())
from kinseg.cli import main

sys.exit(main(sys.argv[1:]))
"""


def run_python(args):
    """Run a fresh interpreter that imports kinseg from this checkout."""
    import subprocess
    import sys

    import kinseg

    src = os.path.dirname(os.path.dirname(kinseg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


class TestRuntimeNeedsOnlyNumpy:
    def test_cli_import_loads_no_scipy(self):
        proc = run_python([
            "-c",
            "import sys, kinseg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_segment_runs_with_scipy_blocked(self, robot_dir, tmp_path):
        common = [
            "--data-dir", str(robot_dir),
            "--init", "weak",
            "--init-demos", "run0",
            "--window", "1",
            "--seed", "0",
        ]
        blocked, plain = tmp_path / "blocked", tmp_path / "plain"
        proc = run_python(
            ["-c", BLOCK_SCIPY, "segment", "--output-dir", str(blocked), *common]
        )
        assert proc.returncode == 0, proc.stderr
        assert main(["segment", "--output-dir", str(plain), *common]) == 0
        assert tree_bytes(blocked) == tree_bytes(plain)


def test_traced_benchmark_runs(tmp_path):
    # perfbench/traced_cli.py wraps kinseg functions by name and reads the
    # recording's size from the file object it is given; a rename or a new
    # signature fails here.
    data = write_jigsaws(tmp_path / "data", 1, 3, 900)
    repo = os.path.dirname(os.path.dirname(__file__))
    traced = os.path.join(repo, "perfbench", "traced_cli.py")
    spans = tmp_path / "spans.json"
    proc = run_python([
        traced, str(spans), "segment", "--data-dir", str(data),
        "--output-dir", str(tmp_path / "out"), "--init-demos", "d00", "--window", "1",
        "--em-max-iter", "3",
    ])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["exit_code"] == 0
    parsed = [
        span["counts"]["bytes"]
        for span in doc["spans"] if span["name"] == "ingest.parse_kinematics"
    ]
    sizes = [p.stat().st_size for p in sorted((data / "kinematics").iterdir())]
    assert parsed == sizes


def copy_tree(src, data):
    """Copy of a dataset's kinematics and transcripts directories."""
    for sub in ("kinematics", "transcripts"):
        (data / sub).mkdir(parents=True)
        for f in (src / sub).iterdir():
            (data / sub / f.name).write_bytes(f.read_bytes())
    return data


def with_run2(data):
    """A copy of run0, as run2, beside a dataset's run0 and run1, so that a
    bad run1 sits between good recordings."""
    for sub in ("kinematics", "transcripts"):
        (data / sub / "run2.txt").write_bytes((data / sub / "run0.txt").read_bytes())
    return data


def copy_synth(synth_dir, data, relabel=lambda name, text: text, transcripts=True):
    """Copy of the session synth dataset; relabel(name, text) edits each
    transcript's text, and transcripts=False leaves them out."""
    (data / "kinematics").mkdir(parents=True)
    (data / "transcripts").mkdir()
    for i in range(3):
        name = f"synth{i:02d}"
        (data / "kinematics" / f"{name}.csv").write_bytes(
            (synth_dir / "kinematics" / f"{name}.csv").read_bytes()
        )
        if transcripts:
            text = (synth_dir / "transcripts" / f"{name}.txt").read_text()
            (data / "transcripts" / f"{name}.txt").write_text(relabel(name, text))
    return data


class TestKmeansDefaultK:
    """Without --k, k-means takes one component per distinct truth label."""

    @staticmethod
    def components(data, out, extra=()):
        argv = [
            "segment",
            "--data-dir", str(data),
            "--output-dir", str(out),
            "--init", "kmeans",
            "--window", "1",
        ] + list(extra)
        assert main(argv) == 0
        return len(model_labels(out))

    def test_three_labels(self, synth_dir, tmp_path):
        assert self.components(synth_dir, tmp_path / "out") == 3

    def test_union_across_demos(self, synth_dir, tmp_path):
        def relabel(name, text):
            return text.replace("R2", "R9") if name == "synth02" else text

        data = copy_synth(synth_dir, tmp_path / "data", relabel)
        assert self.components(data, tmp_path / "out") == 4

    def test_counts_mapped_labels(self, synth_dir, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("R0 -> A\nR1 -> A\nR2 -> B\n")
        out = tmp_path / "out"
        assert self.components(synth_dir, out, ["--mapping", str(rules)]) == 2

    def test_no_transcripts(self, synth_dir, tmp_path, capsys):
        data = copy_synth(synth_dir, tmp_path / "data", transcripts=False)
        code = main([
            "segment",
            "--data-dir", str(data),
            "--output-dir", str(tmp_path / "out"),
            "--init", "kmeans",
        ])
        assert code == 1
        assert "k-means init needs --k" in capsys.readouterr().err

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config-file"])
    def test_k_under_weak_init_is_a_config_error(
        self, synth_dir, tmp_path, count_calls, capsys, from_file
    ):
        # weak init takes one component per label, so a set k would be ignored
        extra = ["--k", "7"]
        if from_file:
            (tmp_path / "run.json").write_text(json.dumps({"k": 7}))
            extra = ["--config", str(tmp_path / "run.json")]
        loads = count_calls(cli, "load_dataset")
        assert run_segment(synth_dir, tmp_path / "out", extra) == 1
        assert capsys.readouterr().err == (
            "kinseg: config error: --k needs --init kmeans: "
            "weak init fits one component per label\n"
        )
        assert loads == []
        assert not (tmp_path / "out").exists()


def write_split_rules(tmp_path):
    """Rules for the synth labels with one rename, one split and the context
    rule; segments 0, 1 and 2 of each transcript take them in that order."""
    rules = tmp_path / "rules.txt"
    rules.write_text("R0 -> A\nR1 -> A | B @ 0.5\nR2 -> >\n")
    return rules


class TestMappingFlag:
    def test_sidecar_entries_are_read(self, synth_dir, tmp_path):
        sidecar = tmp_path / "sidecar.json"
        sidecar.write_text(json.dumps({
            "boundaries": {"synth01": {"1": [70]}},
            "overrides": {"synth00": {"2": "B"}, "synth01": {"2": "B"}},
        }))
        extra = ["--mapping", str(write_split_rules(tmp_path)), "--sidecar", str(sidecar)]
        out = tmp_path / "out"
        assert run_segment(synth_dir, out, extra) == 0
        # synth01's 60-frame segments R0 R1 R2 R0 R1 R2 become A, A|B split
        # after frame 70, B (override), A, A|B split at half, B (previous
        # part's class); without the sidecar the first split is at half and
        # the override's segment takes the following A: 240 A, 120 B.
        confusion = json.loads((out / "report_per_demo.json").read_text())["synth01"]
        assert confusion["confusion"]["labels"] == ["A", "B"]
        assert [sum(row) for row in confusion["confusion"]["counts"]] == [160, 200]

    def test_remap_changes_prediction_labels(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        (data / "kinematics").mkdir(parents=True)
        (data / "transcripts").mkdir()
        for i in range(3):
            name = f"synth{i:02d}"
            (data / "kinematics" / f"{name}.csv").write_bytes(
                (synth_dir / "kinematics" / f"{name}.csv").read_bytes()
            )
            text = (synth_dir / "transcripts" / f"{name}.txt").read_text()
            (data / "transcripts" / f"{name}.txt").write_text(
                text.replace("R0", "G1").replace("R1", "G2").replace("R2", "G3")
            )
        rules = tmp_path / "rules.txt"
        rules.write_text("G1 -> L1\nG2 -> L2\nG3 -> L3\n")
        out = tmp_path / "out"
        assert run_segment(data, out, ["--mapping", str(rules)]) == 0
        t = parse_transcript((out / "predictions" / "synth01.txt").read_text())
        assert {s.label for s in t} <= {"L1", "L2", "L3"}
        report = json.loads((out / "report.json").read_text())
        assert set(report["confusion"]["labels"]) <= {"L1", "L2", "L3"}

    def test_sweep_with_a_mapping(self, synth_dir, tmp_path):
        # each run of the sweep scores the remapped labels, as segment does
        rules = tmp_path / "rules.txt"
        rules.write_text("R0 -> A\nR1 -> A\nR2 -> B\n")
        sweep, seg = tmp_path / "sweep", tmp_path / "seg"
        assert main([
            "sweep-window", "--data-dir", str(synth_dir), "--output-dir", str(sweep),
            "--init-demos", "synth00", "--w-values", "0,1", "--mapping", str(rules),
        ]) == 0
        assert run_segment(synth_dir, seg, ["--mapping", str(rules)]) == 0
        report = json.loads((seg / "report.json").read_text())
        assert report["confusion"]["labels"] == ["A", "B"]
        with open(sweep / "sweep_window.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["0", "1"]
        assert rows[1][1:] == [
            "" if report[k] is None else repr(float(report[k]))
            for k in ("accuracy", "nmi", "si_pred", "si_truth")
        ]

    def test_target_of_two_words(self, synth_dir, tmp_path, capsys):
        # a target of two words would write prediction lines such as
        # "7 12 A x", which parse_transcript cannot read back
        rules = tmp_path / "rules.txt"
        rules.write_text("R0 -> A\nR1 -> A x\nR2 -> B\n")
        out = tmp_path / "out"
        assert run_segment(synth_dir, out, ["--mapping", str(rules)]) == 2
        assert (f"kinseg: data error: {rules}: mapping line 2: label 'A x' is not one word"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_override_of_two_words(self, synth_dir, tmp_path, capsys):
        sidecar = tmp_path / "sidecar.json"
        sidecar.write_text(json.dumps({"overrides": {"synth00": {"2": "B x"}}}))
        extra = ["--mapping", str(write_split_rules(tmp_path)), "--sidecar", str(sidecar)]
        out = tmp_path / "out"
        assert run_segment(synth_dir, out, extra) == 2
        assert (
            f"kinseg: data error: {sidecar}: sidecar 'overrides' of 'synth00': expected a "
            "0-based segment index keying a one-word label, got '2': 'B x'"
        ) in capsys.readouterr().err
        assert not out.exists()


def test_builtin_mapping_on_suturing_data(tmp_path, capsys):
    # JIGSAWS-shaped recordings with all ten suturing gestures, G10 included
    write_jigsaws(tmp_path / "data", 1, 3, 900)
    out = tmp_path / "out"
    assert main([
        "segment",
        "--data-dir", str(tmp_path / "data"),
        "--output-dir", str(out),
        "--init", "weak",
        "--init-demos", "d00",
        "--window", "1",
        "--mapping", "builtin",
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    labels = report["confusion"]["labels"]
    assert "G10" in labels and "L1" in labels and "G5" not in labels
    # Predicting the most common truth label everywhere scores its share of
    # the frames; a segmentation must beat that.
    truth_counts = [sum(row) for row in report["confusion"]["counts"]]
    assert report["accuracy"] > max(truth_counts) / report["n_frames_evaluated"]


@pytest.mark.parametrize("init", [["weak", "--window", "2"], ["kmeans", "--window", "1"]])
def test_no_degenerate_warning_on_suturing_data(tmp_path, capsys, init):
    write_jigsaws(tmp_path / "data", 7, 3, 900)
    assert main([
        "segment", "--data-dir", str(tmp_path / "data"), "--output-dir", str(tmp_path / "out"),
        "--init-demos", "d00", "--em-max-iter", "5", "--init", *init,
    ]) == 0
    assert "degenerate" not in capsys.readouterr().err


BOM = "\ufeff".encode("utf-8")


@pytest.fixture(scope="module")
def robot_inputs(tmp_path_factory):
    """JIGSAWS-shaped data with every kind of input file a run reads, and
    the outputs of a run on it."""
    root = tmp_path_factory.mktemp("robot_inputs")
    write_jigsaws(root / "data", 1, 3, 900)
    shipped = resources.files("kinseg").joinpath("data/remap_suturing.txt")
    (root / "rules.txt").write_bytes(shipped.read_bytes())
    (root / "sidecar.json").write_text("{}")
    (root / "run.json").write_text(json.dumps({"init_demos": ["d00"], "window": 1}))
    assert main(robot_argv(root, root / "out")) == 0
    return root


def robot_argv(root, out):
    return [
        "segment", "--config", str(root / "run.json"), "--data-dir", str(root / "data"),
        "--output-dir", str(out), "--mapping", str(root / "rules.txt"),
        "--sidecar", str(root / "sidecar.json"),
    ]


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input file is not part of
    its text: the outputs are the bytes of the run without one."""

    @pytest.mark.parametrize(
        "name",
        ["data/kinematics/d01.txt", "data/transcripts/d01.txt", "rules.txt",
         "sidecar.json", "run.json"],
    )
    def test_robot_inputs(self, robot_inputs, tmp_path, name):
        root = tmp_path / "inputs"
        shutil.copytree(robot_inputs, root, ignore=shutil.ignore_patterns("out"))
        (root / name).write_bytes(BOM + (root / name).read_bytes())
        assert main(robot_argv(root, tmp_path / "out")) == 0
        assert tree_bytes(tmp_path / "out") == tree_bytes(robot_inputs / "out")

    def test_csv_recording(self, synth_dir, weak_run, tmp_path):
        data = copy_synth(synth_dir, tmp_path / "data")
        for path in (data / "kinematics").iterdir():
            path.write_bytes(BOM + path.read_bytes())
        assert run_segment(data, tmp_path / "out") == 0
        assert tree_bytes(tmp_path / "out") == tree_bytes(weak_run)


class TestConfigFile:
    def test_file_supplies_settings(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"init_method": "kmeans", "k": 3, "window": 1}))
        out = tmp_path / "out"
        code = main([
            "segment",
            "--config", str(cfg),
            "--data-dir", str(synth_dir),
            "--output-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["accuracy"] is None

    def test_file_sets_what_the_flags_set(self, robot_inputs, tmp_path):
        data = robot_inputs / "data"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "data_dir": str(data), "init_method": "weak", "init_demos": ["d00"],
            "window": 1, "mapping": "builtin",
        }))
        assert main(["segment", "--config", str(cfg), "--output-dir", str(tmp_path / "file")]) == 0
        assert main([
            "segment", "--data-dir", str(data), "--output-dir", str(tmp_path / "flags"),
            "--init", "weak", "--init-demos", "d00", "--window", "1", "--mapping", "builtin",
        ]) == 0
        assert tree_bytes(tmp_path / "file") == tree_bytes(tmp_path / "flags")

    def test_null_leaves_default(self, tmp_path):
        # null used to reach _validate and end in a TypeError traceback
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sample_rate_hz": None, "window": None, "k": None}))
        args = cli.build_parser().parse_args(
            ["segment", "--config", str(cfg), "--data-dir", "d", "--output-dir", "o",
             "--init", "kmeans"]
        )
        config = cli.resolve_config(args)
        assert (config.sample_rate_hz, config.window, config.k) == (30.0, 2, None)

    def test_flags_override_file(self, synth_dir, tmp_path):
        # the file sets no k: weak init, set by the flag, takes none
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"init_method": "kmeans", "window": 1}))
        out = tmp_path / "out"
        code = main([
            "segment",
            "--config", str(cfg),
            "--data-dir", str(synth_dir),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "synth00",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["accuracy"] is not None

    def test_unknown_key_rejected(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"wnidow": 1}))
        code = main([
            "segment",
            "--config", str(cfg),
            "--data-dir", str(synth_dir),
            "--output-dir", str(tmp_path / "out"),
            "--init", "kmeans",
            "--k", "3",
        ])
        assert code == 1
        assert "wnidow" in capsys.readouterr().err

    def test_file_that_is_not_utf8(self, synth_dir, tmp_path, count_calls, capsys):
        # its decode error, a ValueError, used to exit 2 as a data error
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'{"window": 1, "x": "\xff"}')
        loads = count_calls(cli, "load_dataset")
        code = run_segment(synth_dir, tmp_path / "out", ["--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "kinseg: config error: cannot read config file: 'utf-8' codec can't decode "
            "byte 0xff in position 20"
        )
        assert loads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"window": 2.5}', "config field 'window': expected a number, got 2.5\n"),
            ("{", "config file is not valid JSON: Expecting property name enclosed in "
                  "double quotes: line 1 column 2 (char 1)\n"),
            ("[1]", "config file must hold a JSON object\n"),
            ('{"init_method": "bogus"}', "unknown init method 'bogus'\n"),
        ],
        ids=["fractional-window", "not-json", "not-an-object", "unknown-init"],
    )
    def test_bad_file_fails_before_loading(
        self, synth_dir, tmp_path, count_calls, capsys, text, message
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        loads = count_calls(cli, "load_dataset")
        code = main([
            "segment", "--config", str(cfg), "--data-dir", str(synth_dir),
            "--output-dir", str(tmp_path / "out"), "--init-demos", "synth00",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"kinseg: config error: {message}"
        assert loads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"init_demos": 5},
            {"init_demos": ["synth00", 5]},
            {"feature_subset": 5},
            {"data_dir": 5},
            {"mapping": 5},
            {"window": True},
            {"em_tol": False},
        ],
        ids=[
            "init_demos-int",
            "init_demos-list-with-int",
            "feature_subset-int",
            "data_dir-int",
            "mapping-int",
            "window-bool",
            "em_tol-bool",
        ],
    )
    def test_wrongly_typed_value_rejected(self, synth_dir, tmp_path, capsys, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        flags = {
            "data_dir": ["--data-dir", str(synth_dir)],
            "init_demos": ["--init-demos", "synth00"],
        }
        argv = ["segment", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        for name, extra in flags.items():
            if name not in doc:  # a flag would override the file's value
                argv += extra
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert f"kinseg: config error: config field {next(iter(doc))!r}" in err


def test_infinite_integer_setting_rejected(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"window": float("inf")}))  # JSON's Infinity
    code = main([
        "segment", "--config", str(cfg), "--data-dir", str(synth_dir),
        "--output-dir", str(tmp_path / "out"), "--init-demos", "synth00",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "kinseg: config error: config field 'window': expected a number, got inf\n"


# Each config field: its flag, and values that pass validation alone.
_CONFIG_VALUES = {
    "data_dir": ("--data-dir", st.sampled_from(["data", "other/data"])),
    "output_dir": ("--output-dir", st.sampled_from(["out", "other/out"])),
    "sample_rate_hz": ("--sample-rate", st.floats(0.5, 500.0)),
    "fc_hz": ("--fc", st.floats(0.01, 20.0)),
    "subsample_factor": ("--subsample", st.integers(1, 6)),
    "window": ("--window", st.integers(0, 8)),
    "feature_subset": ("--subset", st.sampled_from(["all", "no-pose", "1,8", "29"])),
    "em_tol": ("--em-tol", st.floats(1e-12, 0.1)),
    "em_max_iter": ("--em-max-iter", st.integers(0, 1000)),
    "seed": ("--seed", st.integers(0, 2**31 - 1)),
    "init_method": ("--init", st.sampled_from(["weak", "kmeans"])),
    "init_demos": ("--init-demos", st.lists(
        st.sampled_from(["d00", "d01", "synth02"]), min_size=1, max_size=3, unique=True
    )),
    "k": ("--k", st.integers(1, 20)),
    "mapping": ("--mapping", st.sampled_from(["builtin", "rules.txt"])),
    "sidecar": ("--sidecar", st.sampled_from(["sidecar.json"])),
}


def _file_form(name, value, data):
    """A value as a config file may spell it: integral floats for integer
    fields, a comma-separated string or a list for init_demos."""
    if cli._KINDS[name] is int and data.draw(st.booleans()):
        return float(value)
    if name == "init_demos" and data.draw(st.booleans()):
        return ",".join(value)
    return value


def _flag_form(value):
    if isinstance(value, list):
        return ",".join(value)
    return repr(value) if isinstance(value, float) else str(value)


class TestConfigPrecedence:
    def test_every_field_has_a_flag(self):
        assert set(_CONFIG_VALUES) == {f.name for f in dataclasses.fields(cli.RunConfig)}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_defaults_then_file_then_flags(self, data):
        file_doc, argv, expected = {}, [], {}
        for name, (flag, values) in _CONFIG_VALUES.items():
            in_file, in_flags = data.draw(st.booleans()), data.draw(st.booleans())
            if in_file:
                value = data.draw(values)
                file_doc[name] = _file_form(name, value, data)
                expected[name] = value
            if in_flags:
                value = data.draw(values)
                argv += [flag, _flag_form(value)]
                expected[name] = value
        if "init_demos" in expected:
            expected["init_demos"] = tuple(expected["init_demos"])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.json")
            with open(path, "w") as fh:
                json.dump(file_doc, fh)
            args = cli.build_parser().parse_args(["segment", "--config", path, *argv])
            merged = cli.RunConfig(**expected)
            if not merged.data_dir or not merged.output_dir or (
                merged.init_method == "weak" and not merged.init_demos
            ) or merged.fc_hz >= merged.sample_rate_hz / 2 or (
                merged.sidecar is not None and merged.mapping is None
            ) or (merged.k is not None and merged.init_method == "weak"):
                with pytest.raises(cli.ConfigError):
                    cli._validate(cli.resolve_config(args))
                return
            config = cli.resolve_config(args)
            cli._validate(config)
        assert config == merged
        for f in dataclasses.fields(config):  # the same types, not just equal
            assert type(getattr(config, f.name)) is type(getattr(merged, f.name))


# The settings that declare a range: every float, and each int with a minimum.
_RANGED = [
    f for f in dataclasses.fields(cli.RunConfig)
    if f.metadata["kind"] is float or f.metadata["minimum"] is not None
]


def _range_error(f, value):
    """The config error of a value outside the range of setting f."""
    if f.metadata["kind"] is int:
        return f"{f.name} must be >= {f.metadata['minimum']}"
    if not math.isfinite(value):
        return f"{f.name} must be finite, got {value}"
    return f"{f.name} must be positive"


class TestRanges:
    def test_declared_ranges(self):
        assert {f.name: f.metadata["minimum"] for f in _RANGED} == {
            "sample_rate_hz": None, "fc_hz": None, "subsample_factor": 1,
            "window": 0, "em_tol": None, "em_max_iter": 0, "seed": 0, "k": 1,
        }

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_value_outside_range_fails_before_loading(self, data):
        f = data.draw(st.sampled_from(_RANGED), label="field")
        if f.metadata["kind"] is float:
            outside = st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan])
        else:
            below = f.metadata["minimum"] - 1
            outside = st.just(below) | st.integers(max_value=below)
        value = data.draw(outside, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["segment", "--data-dir", os.path.join(tmp, "data"),
                    "--output-dir", os.path.join(tmp, "out"), "--init-demos", "d00"]
            if data.draw(st.booleans(), label="from config file"):
                path = os.path.join(tmp, "run.json")
                with open(path, "w") as fh:
                    json.dump({f.name: value}, fh)
                argv += ["--config", path]
            else:  # "--fc -inf" would read -inf as an option
                argv.append(f"{f.metadata['flag']}={_flag_form(value)}")
            loads, err = [], io.StringIO()

            def load(config):
                loads.append(config)
                raise OSError("loaded")

            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
                mp.setattr(cli, "load_dataset", load)
                code = main(argv)
            assert not os.path.exists(os.path.join(tmp, "out"))
        assert (code, err.getvalue()) == (
            1, f"kinseg: config error: {_range_error(f, value)}\n"
        )
        assert loads == []

    @pytest.mark.parametrize(
        "f", [f for f in _RANGED if f.metadata["kind"] is int], ids=lambda f: f.name
    )
    def test_value_on_integer_bound_passes(self, f):
        minimum = f.metadata["minimum"]
        init = ["--init", "kmeans"] if f.name == "k" else []  # k is a k-means setting
        args = cli.build_parser().parse_args([
            "segment", "--data-dir", "d", "--output-dir", "o", "--init-demos", "d00",
            *init, f"{f.metadata['flag']}={minimum}",
        ])
        config = cli.resolve_config(args)
        cli._validate(config)
        assert getattr(config, f.name) == minimum


def constant_data(data):
    """Three recordings of 60 frames x 3 constant channels, each annotated
    A then B: every component fits the same point, and one of them takes
    every fit row."""
    for sub in ("kinematics", "transcripts"):
        (data / sub).mkdir(parents=True)
    for i in range(3):
        (data / "kinematics" / f"d{i}.csv").write_text(
            serialize_kinematics(np.ones((60, 3)), "generic_csv", ["a", "b", "c"])
        )
        (data / "transcripts" / f"d{i}.txt").write_text("1 30 A\n31 60 B\n")
    return data


class TestWarnings:
    def test_small_label_warning_on_stderr(self, synth_dir, tmp_path, capsys):
        # W=9 makes 4 x 10 = 40 columns; each label of synth00 has fewer
        # annotated rows than that, so weak init warns for every label.
        assert run_segment(synth_dir, tmp_path / "out", ["--window", "9"]) == 0
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("kinseg: warning:")]
        assert lines, err
        assert all("at dimension 40" in line for line in lines)
        assert "label 'R0' has" in err

    def test_no_warning_with_enough_rows(self, weak_run, synth_dir, tmp_path, capsys):
        assert run_segment(synth_dir, tmp_path / "out") == 0
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "means, predicted, expected",
        [
            ([[0.0], [1.0], [0.0]], {"a", "b"}, ["components 'a', 'c' have equal"]),
            ([[0.0], [1.0], [2.0]], {"c"}, ["every fit row is predicted as 'c'; none as 'a', 'b'"]),
            ([[0.0], [1.0], [-0.0]], {"a", "c"}, []),  # equal, yet not bit for bit
        ],
    )
    def test_degenerate_cases(self, means, predicted, expected):
        model = GmmModel(np.array(means), np.ones((3, 1, 1)), np.full(3, 1 / 3), ("a", "b", "c"))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            cli._warn_if_degenerate(model, predicted)
        assert len(seen) == len(expected)
        for warning, text in zip(seen, expected):
            assert warning.category is RuntimeWarning
            assert f"degenerate fit: {text}" in str(warning.message)

    @pytest.mark.parametrize(
        "init, names",
        [(["weak"], "'A', 'B'"), (["kmeans"], "'cluster_0', 'cluster_1'"),
         (["kmeans", "--k", "1"], None)],
    )
    def test_degenerate_fit_warns(self, tmp_path, capsys, init, names):
        assert main([
            "segment", "--data-dir", str(constant_data(tmp_path / "data")),
            "--output-dir", str(tmp_path / "out"),
            "--subsample", "1", "--init-demos", "d0", "--init", *init,
        ]) == 0
        err = capsys.readouterr().err
        if names is None:  # one component is no degenerate mixture
            assert err == ""
            return
        lines = err.splitlines()
        assert len(lines) == 2, err
        assert lines[0].startswith(
            "kinseg: warning: degenerate fit: every fit row is predicted as "
        )
        assert lines[1] == (
            f"kinseg: warning: degenerate fit: components {names} have equal "
            "means and covariances"
        )

    def test_every_sweep_run_warns(self, tmp_path, capsys):
        # the same text from the same line, which Python shows once by default
        assert main([
            "sweep-window", "--data-dir", str(constant_data(tmp_path / "data")),
            "--output-dir", str(tmp_path / "out"),
            "--subsample", "1", "--init-demos", "d0", "--w-values", "1,2",
        ]) == 0
        assert capsys.readouterr().err.count("have equal means and covariances") == 2


def test_help_description_names_the_subcommands():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    listed = parser.description.split(":", 1)[1].rstrip(".").split(",")
    assert [name.strip() for name in listed] == list(sub.choices)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("command", ["kinseg", "segment", "sweep-window", "ablate"])
def test_help_pages_match_golden(command, monkeypatch, capsys):
    """Every flag, metavar, help text and their order, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "kinseg" else [command, "--help"]
    assert main(argv) == 0
    with open(os.path.join(GOLDEN, f"help_{command}.txt")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_per_demo_report_scores_each_demo_alone(synth_dir, tmp_path):
    """report_per_demo.json holds, per scored demonstration, the report of
    metrics.evaluate over that demonstration's frames and rows alone."""
    out = tmp_path / "out"
    assert run_segment(synth_dir, out) == 0
    args = cli.build_parser().parse_args([
        "segment", "--data-dir", str(synth_dir), "--output-dir", str(out),
        "--init", "weak", "--init-demos", "synth00", "--window", "1", "--seed", "0",
    ])
    config = cli.resolve_config(args)
    dataset, names = cli.load_dataset(config)
    result = cli.run_pipeline(
        config, dataset, cli._check_run(config, dataset, names, cli._validate(config))
    )
    expected = {}
    for demo_id in sorted(dataset):
        truth = dataset[demo_id].truth
        if demo_id in config.init_demos or truth is None:
            continue
        X = result.X[result.spans[demo_id]]
        expected[demo_id] = metrics.evaluate(
            result.predictions[demo_id],
            truth,
            X=X,
            pred_rows=result.labels[result.spans[demo_id]],
            truth_rows=labels_at_rows(truth, len(X), config.subsample_factor),
        )
    assert len(expected) == SYNTH_ARGS["n_demos"] - 1
    text = (out / "report_per_demo.json").read_text()
    assert text == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("init_demo", ["synth00", "synth01"])
def test_pooled_report_leaves_out_a_fit_demo_without_transcript(tmp_path, init_demo):
    """The pooled silhouettes run on one slice of the run's matrix, with
    synth02 (a fit demonstration without a transcript, between the scored
    synth01 and synth03) masked out: report.json equals metrics.evaluate on
    the scored demonstrations' frames and rows concatenated."""
    data, out = tmp_path / "data", tmp_path / "out"
    write_dataset(data, **{**SYNTH_ARGS, "n_demos": 4})
    (data / "transcripts" / "synth02.txt").unlink()
    assert run_segment(data, out, ["--init-demos", init_demo]) == 0
    config = cli.RunConfig(data_dir=str(data), output_dir=str(out), window=1,
                           init_demos=(init_demo,))
    dataset, names = cli.load_dataset(config)
    result = cli.run_pipeline(
        config, dataset, cli._check_run(config, dataset, names, cli._validate(config))
    )
    scored = [d for d in ("synth00", "synth01", "synth03") if d != init_demo]
    spans = [result.spans[d] for d in scored]
    truth = [dataset[d].truth for d in scored]
    expected = metrics.evaluate(
        np.concatenate([result.predictions[d] for d in scored]),
        np.concatenate(truth),
        X=np.concatenate([result.X[s] for s in spans]),
        pred_rows=np.concatenate([result.labels[s] for s in spans]),
        truth_rows=np.concatenate([
            labels_at_rows(t, s.stop - s.start, config.subsample_factor)
            for t, s in zip(truth, spans)
        ]),
    )
    assert expected["si_pred"] is not None and expected["si_truth"] is not None
    text = (out / "report.json").read_text()
    assert text == json.dumps(expected, indent=2) + "\n"


class TestErrorExits:
    def test_missing_kinematics_dir(self, tmp_path, capsys):
        code = run_segment(tmp_path / "nothing", tmp_path / "out")
        assert code == 2
        assert "kinematics" in capsys.readouterr().err

    def test_empty_kinematics_dir(self, tmp_path, capsys):
        (tmp_path / "data" / "kinematics").mkdir(parents=True)
        code = run_segment(tmp_path / "data", tmp_path / "out")
        assert code == 2
        assert "no kinematic files" in capsys.readouterr().err

    def test_malformed_kinematics_file(self, tmp_path, capsys):
        (tmp_path / "data" / "kinematics").mkdir(parents=True)
        (tmp_path / "data" / "kinematics" / "bad.txt").write_text("one two\n")
        code = run_segment(tmp_path / "data", tmp_path / "out")
        assert code == 2
        assert "bad.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("command, out", [
        (["segment"], "afile"),
        (["ablate", "--subsets", "1,8"], "afile"),
        (["sweep-window", "--w-values", "1,2"], "afile/sub"),
    ], ids=["segment", "ablate", "sweep-window"])
    def test_output_dir_that_cannot_be_one(
        self, robot_dir, tmp_path, monkeypatch, count_calls, capsys, command, out
    ):
        # it used to fail as a data error once every run was done
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").touch()
        loads = count_calls(cli, "load_dataset")
        code = main([*command, "--data-dir", str(robot_dir), "--output-dir", out,
                     "--init-demos", "run0", "--window", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"kinseg: config error: cannot make the output directory {out}: "
            "afile is not a directory\n"
        )
        assert loads == []
        assert list(tmp_path.iterdir()) == [tmp_path / "afile"]
        assert (tmp_path / "afile").read_bytes() == b""

    def test_output_dir_checked_after_the_repeated_run(
        self, robot_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").touch()
        code = main(["ablate", "--data-dir", str(robot_dir), "--output-dir", "afile",
                     "--init-demos", "run0", "--subsets", "8+29,29+8"])
        assert code == 1
        assert "name the same run" in capsys.readouterr().err

    def test_output_dir_made_with_its_parents(self, robot_dir, tmp_path, monkeypatch):
        # relative, and none of it exists yet: the nearest existing path is "."
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-window", "--data-dir", str(robot_dir), "--output-dir", "new/out",
                     "--init-demos", "run0", "--w-values", "0"]) == 0
        assert (tmp_path / "new" / "out" / "sweep_window.csv").is_file()

    def test_unknown_flag(self, synth_dir, tmp_path, capsys):
        code = run_segment(synth_dir, tmp_path / "out", ["--frobnicate"])
        assert code == 1

    @pytest.mark.parametrize("flag", [["--layout", "csv"], ["--preprocessing", "raw"]])
    def test_removed_flag(self, synth_dir, tmp_path, capsys, flag):
        # the extension picks the parser and the channel count the pipeline
        code = run_segment(synth_dir, tmp_path / "out", flag)
        assert code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_config_field(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"layout": "auto"}))
        code = run_segment(synth_dir, tmp_path / "out", ["--config", str(cfg)])
        assert code == 1
        assert "kinseg: config error: unknown config field 'layout'" in capsys.readouterr().err

    def test_bad_flag_value(self, synth_dir, tmp_path):
        code = run_segment(synth_dir, tmp_path / "out", ["--window", "wide"])
        assert code == 1

    def test_weak_without_init_demos(self, synth_dir, tmp_path, capsys):
        code = main([
            "segment",
            "--data-dir", str(synth_dir),
            "--output-dir", str(tmp_path / "out"),
            "--init", "weak",
        ])
        assert code == 1
        assert "init" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["flag", "config-list"])
    def test_repeated_init_demo(self, synth_dir, tmp_path, monkeypatch, capsys, form):
        # A repeated id would count its annotated rows twice in weak init;
        # it is a config error, raised before any recording is read.
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda config: loads.append(config))
        argv = [
            "segment",
            "--data-dir", str(synth_dir),
            "--output-dir", str(tmp_path / "out"),
            "--init", "weak",
        ]
        if form == "flag":
            argv += ["--init-demos", "synth00,synth01,synth00"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"init_demos": ["synth00", "synth01", "synth00"]}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "kinseg: config error: an init demonstration id repeats" in err
        assert "synth00" in err
        assert loads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("form", ["flag", "config-string"])
    def test_spaces_in_an_id_list(self, synth_dir, tmp_path, form):
        # "synth00, synth01" names the ids that "synth00,synth01" names
        def segment(out, init_demos, form):
            argv = ["segment", "--data-dir", str(synth_dir), "--output-dir", str(out),
                    "--window", "1"]
            if form == "flag":
                return main(argv + ["--init-demos", init_demos])
            cfg = tmp_path / f"{out.name}.json"
            cfg.write_text(json.dumps({"init_demos": init_demos}))
            return main(argv + ["--config", str(cfg)])

        plain, spaced = tmp_path / "plain", tmp_path / "spaced"
        assert segment(plain, "synth00,synth01", "flag") == 0
        assert segment(spaced, " synth00, synth01 ,", form) == 0
        assert tree_bytes(spaced) == tree_bytes(plain)

    def test_config_list_keeps_its_ids(self, synth_dir, tmp_path, capsys):
        # only a comma-separated string is split and stripped
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"init_demos": ["synth00", " synth01"]}))
        code = main(["segment", "--data-dir", str(synth_dir), "--output-dir",
                     str(tmp_path / "out"), "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == (
            "kinseg: data error: init demonstration ' synth01' not in the dataset\n"
        )

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize(
        "field, flag, value",
        [
            ("em_tol", "--em-tol", "nan"),
            ("fc_hz", "--fc", "nan"),
            ("sample_rate_hz", "--sample-rate", "inf"),
            ("fc_hz", "--fc", "-inf"),
        ],
    )
    def test_non_finite_float_rejected(
        self, synth_dir, tmp_path, count_calls, capsys, form, field, flag, value
    ):
        # a config file may spell them NaN, Infinity and -Infinity
        reads = count_calls(cli, "parse_kinematics")
        if form == "flag":
            extra = [f"{flag}={value}"]  # "-inf" alone would read as an option
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({field: float(value)}))
            extra = ["--config", str(cfg)]
        code = run_segment(synth_dir, tmp_path / "out", extra)
        assert code == 1
        assert f"kinseg: config error: {field} must be finite, got {float(value)}" \
            in capsys.readouterr().err
        assert reads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("init", [["--init", "kmeans", "--k", "3"], ["--init", "weak"]])
    def test_negative_seed_rejected_before_any_read(
        self, synth_dir, tmp_path, count_calls, capsys, init
    ):
        # k-means used to read every recording and then exit 2 from numpy's
        # seeding; weak init, which draws no random number, took it silently
        reads = count_calls(cli, "parse_kinematics")
        code = run_segment(synth_dir, tmp_path / "out", [*init, "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "kinseg: config error: seed must be >= 0\n"
        assert reads == []
        assert not (tmp_path / "out").exists()

    def test_cutoff_at_nyquist_fails_before_any_read(
        self, robot_dir, tmp_path, count_calls, capsys
    ):
        # it used to read every recording and then exit 2 from the filter
        reads = count_calls(cli, "parse_kinematics")
        code = run_segment(robot_dir, tmp_path / "out", ["--init-demos", "run0", "--fc", "20"])
        assert code == 1
        assert "kinseg: config error: fc_hz must lie below the Nyquist frequency 15.0 Hz" \
            in capsys.readouterr().err
        assert reads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fc", ["15", "99"])
    def test_cutoff_at_nyquist_on_unfiltered_data(self, synth_dir, tmp_path, capsys, fc):
        # CSV recordings that are not 38 channels are never filtered; the
        # setting is still wrong, where it used to pass unreported
        code = run_segment(synth_dir, tmp_path / "out", ["--fc", fc])
        assert code == 1
        assert "Nyquist" in capsys.readouterr().err

    def test_cutoff_below_nyquist_runs(self, robot_dir, tmp_path):
        out = tmp_path / "out"
        assert run_segment(robot_dir, out, ["--init-demos", "run0", "--fc", "14.9"]) == 0
        assert (out / "report.json").is_file()

    def test_init_demo_not_in_dataset(self, synth_dir, tmp_path, capsys):
        code = run_segment(synth_dir, tmp_path / "out",
                           ["--init-demos", "missing"])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_init_demo_without_transcript(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data"
        (data / "kinematics").mkdir(parents=True)
        (data / "transcripts").mkdir()
        for i in range(3):
            name = f"synth{i:02d}"
            (data / "kinematics" / f"{name}.csv").write_bytes(
                (synth_dir / "kinematics" / f"{name}.csv").read_bytes()
            )
            if i > 0:
                (data / "transcripts" / f"{name}.txt").write_bytes(
                    (synth_dir / "transcripts" / f"{name}.txt").read_bytes()
                )
        code = run_segment(data, tmp_path / "out")
        assert code == 2
        assert "transcript" in capsys.readouterr().err

    def test_duplicate_demo_id(self, synth_dir, tmp_path, count_calls, capsys):
        # d.csv and d.txt would both be keyed "d"; the later one used to
        # replace the earlier one without a word.
        data = copy_synth(synth_dir, tmp_path / "data")
        (data / "kinematics" / "synth01.txt").write_text("not read\n")
        parsed = count_calls(cli, "parse_kinematics")
        code = run_segment(data, tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "kinseg: data error: synth01.csv and synth01.txt share" in err
        assert parsed == []
        assert not (tmp_path / "out").exists()

    def test_transcript_past_recording_on_kmeans_init_demo(self, synth_dir, tmp_path, capsys):
        # Every transcript is expanded at load, so an init demo's is checked
        # even when k-means init never reads it.
        data = copy_synth(synth_dir, tmp_path / "data")
        with open(data / "transcripts" / "synth00.txt", "a") as fh:
            fh.write("361 400 R0\n")
        code = main([
            "segment",
            "--data-dir", str(data),
            "--output-dir", str(tmp_path / "out"),
            "--init", "kmeans",
            "--init-demos", "synth00",
            "--k", "3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "synth00.txt: " in err
        assert "exceeds trajectory length 360" in err

    @pytest.mark.parametrize("path", ["kinematics/synth01.csv", "transcripts/synth01.txt"])
    def test_undecodable_file_named(self, synth_dir, tmp_path, capsys, path):
        # a transcript's decode error used to end in a TypeError traceback
        data = copy_synth(synth_dir, tmp_path / "data")
        (data / path).write_bytes(b"\xff\xfe 1 2 R0\n")
        code = run_segment(data, tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert f"kinseg: data error: {os.path.basename(path)}: " in err
        assert "codec can't decode" in err

    def test_unmapped_label_names_transcript(self, synth_dir, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("R0 -> A\nR1 -> A\n")
        code = run_segment(synth_dir, tmp_path / "out", ["--mapping", str(rules)])
        assert code == 2
        err = capsys.readouterr().err
        assert "kinseg: data error: synth00.txt: no mapping rule for label 'R2'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["R0 -> A @ 0.5", "R0 -> > @ 0.5", "R0 -> > | A"])
    def test_rejected_mapping_line(self, synth_dir, tmp_path, capsys, line):
        # a fraction on a rename used to be dropped, and '>' next to anything
        # else used to be read as a label named '>'
        rules = tmp_path / "rules.txt"
        rules.write_text(f"R1 -> B\nR2 -> B\n{line}\n")
        code = run_segment(synth_dir, tmp_path / "out", ["--mapping", str(rules)])
        assert code == 2
        assert f"kinseg: data error: {rules}: mapping line 3: " in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        [],
        {"bondaries": {}},
        {"boundaries": {"synth01": [1]}},
        {"boundaries": {"synth01": {"0": 5}}},
        {"overrides": {"synth01": {"0": ["L1"]}}},
    ])
    def test_malformed_sidecar(self, synth_dir, tmp_path, capsys, doc):
        # each used to end in a traceback or to be read as if well formed
        sidecar = tmp_path / "sidecar.json"
        sidecar.write_text(json.dumps(doc))
        rules = tmp_path / "rules.txt"
        rules.write_text("R0 -> A\nR1 -> A\nR2 -> B\n")
        extra = ["--mapping", str(rules), "--sidecar", str(sidecar)]
        code = run_segment(synth_dir, tmp_path / "out", extra)
        assert code == 2
        assert f"kinseg: data error: {sidecar}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, entry, reason", [
        ({"boundaries": {"synth09": {"1": [90]}}},
         "sidecar 'boundaries' of 'synth09'", "no transcript of that demonstration"),
        ({"overrides": {"synth01": {"99": "Z"}}},
         "sidecar 'overrides' of 'synth01', segment 99", "the transcript has 6 segments"),
        ({"boundaries": {"synth01": {"0": [30]}}},
         "sidecar 'boundaries' of 'synth01', segment 0", "the rule for 'R0' is not a split"),
        ({"overrides": {"synth01": {"1": "Z"}}},
         "sidecar 'overrides' of 'synth01', segment 1",
         "the rule for 'R1' is not the context rule"),
    ], ids=["unknown-demo", "index-past-transcript", "boundaries-on-rename",
            "override-on-split"])
    def test_unused_sidecar_entry(self, synth_dir, tmp_path, capsys, doc, entry, reason):
        # each used to be ignored, leaving the run as if it had no sidecar
        sidecar = tmp_path / "sidecar.json"
        sidecar.write_text(json.dumps(doc))
        extra = ["--mapping", str(write_split_rules(tmp_path)), "--sidecar", str(sidecar)]
        code = run_segment(synth_dir, tmp_path / "out", extra)
        assert code == 2
        err = capsys.readouterr().err
        assert f"kinseg: data error: {sidecar}: {entry}: {reason}" in err
        assert not (tmp_path / "out").exists()

    def test_sidecar_checked_before_any_remap(self, synth_dir, tmp_path, count_calls, capsys):
        # synth00's transcript runs past its recording, which shows only once
        # it is remapped and laid on the frames; the unread entry comes first
        def extend(name, text):
            return text + "361 400 R0\n" if name == "synth00" else text

        data = copy_synth(synth_dir, tmp_path / "data", extend)
        sidecar = tmp_path / "sidecar.json"
        sidecar.write_text(json.dumps({"boundaries": {"synth01": {"0": [30]}}}))
        remaps = count_calls(cli._dictionary, "apply_mapping")
        extra = ["--mapping", str(write_split_rules(tmp_path)), "--sidecar", str(sidecar)]
        code = run_segment(data, tmp_path / "out", extra)
        assert code == 2
        assert (
            f"kinseg: data error: {sidecar}: sidecar 'boundaries' of 'synth01', "
            "segment 0: the rule for 'R0' is not a split"
        ) in capsys.readouterr().err
        assert remaps == []

    def test_sidecar_without_mapping(self, synth_dir, tmp_path, count_calls, capsys):
        sidecar = tmp_path / "sidecar.json"
        sidecar.write_text("{}")
        reads = count_calls(cli, "parse_kinematics")
        code = run_segment(synth_dir, tmp_path / "out", ["--sidecar", str(sidecar)])
        assert code == 1
        assert "--sidecar needs --mapping" in capsys.readouterr().err
        assert reads == []

    @pytest.mark.parametrize("extra, message", [
        ([], "--sidecar needs --mapping"),
        (["--fc", "20"], "fc_hz must lie below the Nyquist frequency"),
    ], ids=["sidecar", "nyquist-first"])
    def test_sidecar_rule_is_a_settings_rule(self, synth_dir, tmp_path, capsys,
                                             extra, message):
        # found with the other settings rules, after them and before the
        # output directory is checked
        out = tmp_path / "file"
        out.write_text("")
        code = run_segment(synth_dir, out, ["--sidecar", str(tmp_path / "x.json"), *extra])
        assert code == 1
        assert f"kinseg: config error: {message}" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_recording_with_other_width(self, synth_dir, tmp_path, count_calls, capsys):
        data = copy_synth(synth_dir, tmp_path / "data")
        wide = tmp_path / "wide"
        write_dataset(wide, n_demos=1, dim=6, segments=6, segment_frames=60)
        (data / "kinematics" / "synth01.csv").write_bytes(
            (wide / "kinematics" / "synth00.csv").read_bytes()
        )
        fits = count_calls(cli._gmm, "em_fit")
        code = run_segment(data, tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "kinseg: data error: synth01.csv: its feature channels differ " \
            "from those of synth00.csv (6 channels against 4)" in err
        assert fits == []
        assert not (tmp_path / "out").exists()

    def test_recording_with_reordered_columns(self, synth_dir, tmp_path, capsys):
        # same width, so the rows would stack; the columns would not line up
        data = copy_synth(synth_dir, tmp_path / "data")
        path = data / "kinematics" / "synth02.csv"
        header, body = path.read_text().split("\n", 1)
        names = header.split(",")
        path.write_text(",".join([names[1], names[0], *names[2:]]) + "\n" + body)
        code = run_segment(data, tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "synth02.csv: its feature channels differ from those of synth00.csv" in err

    def test_rotation_error_names_recording(self, robot_dir, tmp_path, capsys):
        data = with_run2(copy_tree(robot_dir, tmp_path / "data"))
        path = data / "kinematics" / "run1.txt"
        lines = path.read_text().splitlines(keepends=True)
        tokens = lines[9].split()
        tokens[38 + 3] = "25.0"  # psm1 rot_11
        lines[9] = " ".join(tokens) + "\n"
        path.write_text("".join(lines))
        code = run_segment(data, tmp_path / "out", ["--init-demos", "run0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "kinseg: data error: run1.txt: matrix is not orthonormal" in err
        assert "(frame 9)" in err

    def test_short_robot_recording_names_recording(self, robot_dir, tmp_path, capsys):
        data = with_run2(copy_tree(robot_dir, tmp_path / "data"))
        path = data / "kinematics" / "run1.txt"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
        (data / "transcripts" / "run1.txt").unlink()
        code = run_segment(data, tmp_path / "out", ["--init-demos", "run0"])
        assert code == 2
        assert "kinseg: data error: run1.txt: signal too short to filter" \
            in capsys.readouterr().err

    def test_non_finite_csv_value_names_recording(self, synth_dir, tmp_path, capsys):
        data = copy_synth(synth_dir, tmp_path / "data")
        path = data / "kinematics" / "synth02.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[1] = "nan"
        lines[5] = ",".join(cells)
        path.write_text("".join(lines))
        code = run_segment(data, tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "kinseg: data error: synth02.csv: line 6: non-finite value" in err
        assert not (tmp_path / "out").exists()

    def test_filter_overflow_names_recording(self, robot_dir, tmp_path, capsys):
        # finite positions whose distance and filter overflow to inf and nan
        data = with_run2(copy_tree(robot_dir, tmp_path / "data"))
        path = data / "kinematics" / "run1.txt"
        lines = []
        for line in path.read_text().splitlines():
            tokens = line.split()
            tokens[38:41] = ["1e307"] * 3  # psm1 position
            tokens[57:60] = ["-1e307"] * 3  # psm2 position
            lines.append(" ".join(tokens) + "\n")
        path.write_text("".join(lines))
        code = run_segment(data, tmp_path / "out", ["--init-demos", "run0"])
        assert code == 2
        assert "kinseg: data error: run1.txt: values contain non-finite entries" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_variance_names_recording(self, tmp_path, capsys):
        # both arms' positions alternate between +-1e307: the distances and
        # the filter output stay finite, but the z-score variance overflows
        data = write_jigsaws(tmp_path / "data", 1, 3, 300)
        path = data / "kinematics" / "d02.txt"
        lines = []
        for i, line in enumerate(path.read_text().splitlines()):
            tokens = line.split()
            tokens[38:41] = tokens[57:60] = ["1e307" if i % 2 == 0 else "-1e307"] * 3
            lines.append(" ".join(tokens) + "\n")
        path.write_text("".join(lines))
        code = main([
            "segment",
            "--data-dir", str(data),
            "--output-dir", str(tmp_path / "out"),
            "--init-demos", "d00",
            "--window", "1",
            "--em-max-iter", "3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "kinseg: data error: d02.txt: the variance of column 0 overflows" in err
        assert "warning" not in err
        assert not (tmp_path / "out").exists()

    def test_transcript_error_before_feature_error(self, robot_dir, tmp_path, capsys):
        # every recording and transcript is read before any feature is built
        data = copy_tree(robot_dir, tmp_path / "data")
        path = data / "kinematics" / "run0.txt"
        lines = path.read_text().splitlines(keepends=True)
        tokens = lines[9].split()
        tokens[38 + 3] = "25.0"  # psm1 rot_11
        lines[9] = " ".join(tokens) + "\n"
        path.write_text("".join(lines))
        (data / "transcripts" / "run1.txt").write_text("1 500 slow\n")
        code = run_segment(data, tmp_path / "out", ["--init-demos", "run0"])
        assert code == 2
        assert "kinseg: data error: run1.txt: segment" in capsys.readouterr().err

    def test_recording_shorter_than_window_names_demo(self, synth_dir, tmp_path, capsys):
        # 12 frames at subsample 3 leave 4 rows, too few for W=5
        data = copy_synth(synth_dir, tmp_path / "data")
        path = data / "kinematics" / "synth02.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:13]))
        (data / "transcripts" / "synth02.txt").unlink()
        code = run_segment(data, tmp_path / "out", ["--window", "5"])
        assert code == 2
        assert "kinseg: data error: synth02: need more than 5 rows, got 4" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_csv_beside_robot_files(self, robot_dir, tmp_path):
        # a 38-column CSV takes the kinematic pipeline, like the robot files
        data = copy_tree(robot_dir, tmp_path / "data")
        robot = data / "kinematics" / "run1.txt"
        frames, _ = parse_kinematics(robot.read_text(), "jigsaws")
        names = [f"c{j}" for j in range(38)]  # any header: the width decides
        (data / "kinematics" / "run1.csv").write_text(
            serialize_kinematics(frames, "generic_csv", names)
        )
        robot.unlink()
        assert main([
            "segment",
            "--data-dir", str(data),
            "--output-dir", str(tmp_path / "out"),
            "--init", "weak",
            "--init-demos", "run0",
            "--window", "1",
        ]) == 0

    def test_numerical_failure_maps_to_three(self, synth_dir, tmp_path, monkeypatch, capsys):
        import kinseg.cli as cli_mod

        def boom(config, dataset, names):
            raise NumericalError("covariance collapsed")

        monkeypatch.setattr(cli_mod, "run_pipeline", boom)
        code = run_segment(synth_dir, tmp_path / "out")
        assert code == 3
        assert "numerical" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_oversized_csv_cell_names_file_and_line(self, synth_dir, tmp_path, capsys):
        # csv.reader raises csv.Error, which main does not catch, for a cell
        # over csv.field_size_limit(); it must exit 2 naming file and line.
        data = copy_synth(synth_dir, tmp_path / "data")
        path = data / "kinematics" / "synth01.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "1" + "0" * 140_000 + lines[2][lines[2].index(","):]
        path.write_text("".join(lines))
        code = run_segment(data, tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "kinseg: data error: synth01.csv: line 3: field larger than field limit" in err
        assert not (tmp_path / "out").exists()


def cut_synth00(data, line):
    """Replace synth00's transcript with one line."""
    (data / "transcripts" / "synth00.txt").write_text(line)
    return data


class TestLoadedDemo:
    """load_dataset makes each demonstration's record once, whole; every run
    of the command reads it."""

    def test_frozen(self, synth_dir):
        dataset, _ = cli.load_dataset(cli.RunConfig(data_dir=str(synth_dir)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            dataset["synth00"].truth = None

    @pytest.mark.parametrize("subsample", [1, 3, 7])
    def test_rows_label_each_feature_row(self, synth_dir, tmp_path, subsample):
        data = copy_synth(synth_dir, tmp_path / "data")
        (data / "transcripts" / "synth02.txt").unlink()
        config = cli.RunConfig(data_dir=str(data), subsample_factor=subsample)
        dataset, _ = cli.load_dataset(config)
        for demo_id in ("synth00", "synth01"):
            item = dataset[demo_id]
            expected = labels_at_rows(item.truth, len(item.features), subsample)
            assert item.rows.dtype == object
            assert list(item.rows) == list(expected) == list(item.truth[::subsample])
        item = dataset["synth02"]
        assert item.truth is None
        assert item.rows.dtype == object
        assert list(item.rows) == [UNANNOTATED] * len(item.features)

    @pytest.mark.parametrize(
        "data, init_demo, window, subset",
        [("synth_dir", "synth01", 0, "all"), ("synth_dir", "synth01", 2, "all"),
         ("robot_dir", "run1", 1, "8,29")],
        ids=["W0", "W2", "subset"],
    )
    def test_X_is_each_demonstration_augmented_in_layout_order(
        self, request, tmp_path, data, init_demo, window, subset
    ):
        config = cli.RunConfig(
            data_dir=str(request.getfixturevalue(data)), output_dir=str(tmp_path),
            window=window, feature_subset=subset, init_demos=(init_demo,),
        )
        dataset, names = cli.load_dataset(config)
        result = cli.run_pipeline(
            config, dataset, cli._check_run(config, dataset, names, cli._validate(config))
        )
        ids = [init_demo, *(d for d in dataset if d != init_demo)]
        keep = [7, 28] if subset == "8,29" else list(range(len(names)))
        expected = np.concatenate([
            preprocess.augment(dataset[d].features[:, keep], window) for d in ids
        ])
        assert list(result.spans) == ids
        assert result.X.shape == expected.shape
        assert result.X.tobytes() == expected.tobytes()


class TestRunPreconditions:
    """Each precondition of a run on its data exits 2 with its message; the
    session data has 360 frames, so 119 rows at W=1 anchored up to frame
    355 (1-based)."""

    @pytest.mark.parametrize(
        "init_demos, prepare, message",
        [
            ("missing", None, "init demonstration 'missing' not in the dataset"),
            ("synth00,synth01,synth02", None,
             "every demonstration is an init demonstration; nothing to fit"),
            ("synth00", lambda d: (d / "transcripts" / "synth00.txt").unlink(),
             "init demonstration 'synth00' has no transcript"),
            ("synth00", lambda d: cut_synth00(d, "356 360 R1\n"),
             "init demonstration 'synth00' has no annotated rows"),
        ],
    )
    def test_message_and_exit(self, synth_dir, tmp_path, capsys, init_demos, prepare, message):
        data = copy_synth(synth_dir, tmp_path / "data")
        if prepare:
            prepare(data)
        code = run_segment(data, tmp_path / "out", ["--init-demos", init_demos])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"kinseg: data error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_first_failing_precondition_wins(self, synth_dir, tmp_path, capsys):
        # nothing to fit comes before synth00's missing transcript
        data = copy_synth(synth_dir, tmp_path / "data")
        (data / "transcripts" / "synth00.txt").unlink()
        code = run_segment(data, tmp_path / "out",
                           ["--init-demos", "synth00,synth01,synth02"])
        assert code == 2
        assert "nothing to fit" in capsys.readouterr().err

    def test_annotated_row_at_the_last_anchor(self, synth_dir, tmp_path, capsys):
        # frame 355 anchors row 118 at W=1: one annotated row is enough to
        # pass that check, and the next one asks for two rows of the label
        data = cut_synth00(copy_synth(synth_dir, tmp_path / "data"), "355 360 R1\n")
        assert run_segment(data, tmp_path / "out") == 2
        assert "label 'R1' has only 1 row(s); need at least 2" in capsys.readouterr().err

    def test_checked_before_any_work(self, synth_dir, tmp_path, count_calls):
        data = cut_synth00(copy_synth(synth_dir, tmp_path / "data"), "356 360 R1\n")
        augmented = count_calls(cli._preprocess, "augment")
        assert run_segment(data, tmp_path / "out") == 2
        assert augmented == []

    def test_row_labels_made_once_per_run(self, synth_dir, tmp_path, count_calls):
        made = count_calls(cli._preprocess, "labels_at_rows")
        assert run_segment(synth_dir, tmp_path / "out") == 0
        assert len(made) == 3  # the init demonstration's and both scored ones

    def test_sweep_checks_each_run_once(self, synth_dir, tmp_path, count_calls):
        # the check before the first run lays out each run for its fit, from
        # row labels the load made once per transcribed demonstration
        made = count_calls(cli._preprocess, "labels_at_rows")
        checked = count_calls(cli, "_check_run")
        assert main([
            "sweep-window", "--data-dir", str(synth_dir), "--output-dir", str(tmp_path / "out"),
            "--init-demos", "synth00", "--w-values", "0,1,2",
        ]) == 0
        assert len(checked) == 3
        assert len(made) == 3  # three transcribed demonstrations, whatever the runs

    def test_ablate_checks_each_subset_once(self, robot_dir, tmp_path, count_calls):
        made = count_calls(cli._preprocess, "labels_at_rows")
        checked = count_calls(cli, "_check_run")
        assert main([
            "ablate", "--data-dir", str(robot_dir), "--output-dir", str(tmp_path / "out"),
            "--init-demos", "run0", "--window", "1", "--subsets", "all,1,8+29",
        ]) == 0
        assert [args[0].feature_subset for args, _ in checked] == ["all", "1", "8,29"]
        assert len(made) == 2  # run0's and run1's, at load, whatever the subsets

    @staticmethod
    def sweep_w_0_5(tmp_path, capsys, transcript, message):
        # a check made only when each run starts would print the W=0 line
        # before failing
        data = tmp_path / "data"
        write_dataset(data, n_demos=3, seed=1)
        cut_synth00(data, transcript)
        out = tmp_path / "sweep"
        code = main([
            "sweep-window",
            "--data-dir", str(data),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "synth00",
            "--w-values", "0,5",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"kinseg: data error: {message}\n"
        assert not (out / "sweep_window.csv").exists()

    def test_sweep_fails_before_its_first_run(self, tmp_path, capsys):
        # synth00's only annotated frames, 1784-1800, fall past the last
        # anchor at W=5 (frame 1783) but not at W=0, where each label has
        # two or more rows
        self.sweep_w_0_5(tmp_path, capsys, "1784 1790 R0\n1791 1800 R1\n",
                         "init demonstration 'synth00' has no annotated rows")

    def test_sweep_fails_on_a_label_with_one_row(self, tmp_path, capsys):
        # R1 anchors 6 rows at W=0 and one, frame 1783, at W=5
        self.sweep_w_0_5(tmp_path, capsys, "1 600 R0\n1783 1800 R1\n",
                         "label 'R1' has only 1 row(s); need at least 2")

    def test_sweep_fails_on_more_kmeans_components_than_fit_rows(self, tmp_path, capsys):
        # 3 x 1800 frames leave 1800 fit rows at W=0 and 3 x 10 at W=590
        data, out = tmp_path / "data", tmp_path / "sweep"
        write_dataset(data, n_demos=3, seed=1)
        code = main([
            "sweep-window", "--data-dir", str(data), "--output-dir", str(out),
            "--init", "kmeans", "--k", "100", "--w-values", "0,590",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "kinseg: data error: k-means init needs at least k=100 fit rows, got 30\n"
        )
        assert not (out / "sweep_window.csv").exists()

    def test_more_kmeans_components_than_fit_rows_fails_before_the_run(
        self, tmp_path, capsys, count_calls
    ):
        data = tmp_path / "data"
        write_dataset(data, n_demos=3, seed=1)
        runs = count_calls(cli, "run_pipeline")
        code = main([
            "segment", "--data-dir", str(data), "--output-dir", str(tmp_path / "out"),
            "--init", "kmeans", "--k", "2000", "--window", "0",
        ])
        assert code == 2
        assert runs == []
        assert capsys.readouterr().err == (
            "kinseg: data error: k-means init needs at least k=2000 fit rows, got 1800\n"
        )

    def test_kmeans_component_count(self, synth_dir):
        # --k, or the label count; synth01 and synth02 leave 2 x 119 fit rows
        config = cli.RunConfig(data_dir=str(synth_dir), output_dir="out", window=1,
                               init_method="kmeans", init_demos=("synth00",))
        dataset, names = cli.load_dataset(config)
        assert cli._check_run(config, dataset, names, cli._validate(config))[3] == 3
        config = dataclasses.replace(config, k=238)
        assert cli._check_run(config, dataset, names, cli._validate(config))[3] == 238
        with pytest.raises(ValueError, match="at least k=239 fit rows, got 238"):
            cli._check_run(dataclasses.replace(config, k=239), dataset, names,
                           cli._validate(config))

    def test_kmeans_label_count_above_the_fit_rows(self, synth_dir, tmp_path, capsys):
        # without --k the count is the three annotated labels; W=119 leaves
        # one row in each of synth01 and synth02
        code = run_segment(synth_dir, tmp_path / "out", ["--init", "kmeans", "--window", "119"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "kinseg: data error: k-means init needs at least k=3 fit rows, got 2\n"
        )
        assert not (tmp_path / "out").exists()

    def test_window_check_comes_before_the_kmeans_row_check(self, synth_dir, tmp_path, capsys):
        code = run_segment(synth_dir, tmp_path / "out",
                           ["--init", "kmeans", "--k", "5000", "--window", "120"])
        assert code == 2
        assert capsys.readouterr().err == (
            "kinseg: data error: synth00: need more than 120 rows, got 120\n"
        )

    @pytest.mark.parametrize("command", [
        ["segment", "--window", "1"],
        ["sweep-window", "--w-values", "0,1"],
        ["ablate", "--window", "1", "--subsets", "all"],
    ], ids=["segment", "sweep-window", "ablate"])
    def test_every_command_checks_the_kmeans_rows(
        self, synth_dir, tmp_path, capsys, count_calls, command
    ):
        # 3 x 119 fit rows at W=1 and 3 x 120 at W=0
        runs = count_calls(cli, "run_pipeline")
        code = main([*command, "--data-dir", str(synth_dir),
                     "--output-dir", str(tmp_path / "out"), "--init", "kmeans", "--k", "358"])
        captured = capsys.readouterr()
        assert code == 2
        assert runs == []
        assert captured.out == ""
        assert captured.err == (
            "kinseg: data error: k-means init needs at least k=358 fit rows, got 357\n"
        )
        assert not (tmp_path / "out").exists()

    def test_weak_init_with_one_label(self, tmp_path, capsys):
        # one distinct init label would fit a one-component mixture and put
        # every frame on it
        data = tmp_path / "data"
        write_dataset(data, n_demos=3, seed=1)
        cut_synth00(data, "1 600 R0\n")
        code = run_segment(data, tmp_path / "out")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "kinseg: data error: weak init needs at least two labels among the init "
            "rows, got ['R0']\n"
        )
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- whole commands
# on generated datasets

_ERROR_LINE = re.compile(r"kinseg( \S+)?: (config error|data error|numerical failure|error): ")


@st.composite
def generated_datasets(draw):
    """(files, frames, transcripts): 1-4 recordings of 5-200 frames, all CSV
    or all robot text, each with a transcript or none. A transcript cuts
    the frames into runs, one-frame runs included, each labelled or a gap.
    files maps relative paths to text, frames each id's frame count, and
    transcripts each transcribed id's segments."""
    robot = draw(st.booleans())
    width = 3 if robot else draw(st.integers(1, 3))  # of a random walk
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    files, frames, transcripts = {}, {}, {}
    for i in range(draw(st.integers(1, 4))):
        demo_id, T = f"g{i}", draw(st.integers(5, 200))
        frames[demo_id] = T
        walk = np.cumsum(rng.normal(size=(T, width)), axis=0)
        if robot:  # each arm: position, rotation, velocities and grip
            arms = [
                np.hstack([
                    walk + arm,
                    rotvec_matrices(0.3 * walk[:, ::-1]).reshape(T, 9),
                    rng.normal(size=(T, 7)),
                ])
                for arm in range(2)
            ]
            text = serialize_kinematics(np.hstack(arms), "jigsaws")
            files[f"kinematics/{demo_id}.txt"] = text
        else:
            names = [f"c{j}" for j in range(width)]
            files[f"kinematics/{demo_id}.csv"] = serialize_kinematics(walk, names=names)
        if draw(st.integers(0, 4)) == 2:  # 0 and 4 come up more often
            continue  # no transcript
        cuts = sorted(set(draw(st.lists(st.integers(1, T - 1), max_size=6))))
        segments = []
        for start, end in zip([1] + [c + 1 for c in cuts], cuts + [T]):
            label = draw(st.sampled_from(["A", "B", "C", None]))
            if label is not None:
                segments.append(Segment(start, end, label))
        files[f"transcripts/{demo_id}.txt"] = serialize_transcript(segments)
        transcripts[demo_id] = segments
    return files, frames, transcripts


@st.composite
def generated_argv(draw, ids):
    """A segment command's settings: window, subsample, init method, init
    demos (ids of the dataset, now and then one it lacks), k, and now and
    then a label mapping of renames, splits and context rules; returns
    (argv, the init demos in the dataset, each label's rule target or None)."""
    init = draw(st.sampled_from(["weak", "kmeans"]))
    demos = draw(st.lists(
        st.sampled_from(ids), min_size=init == "weak",
        max_size=max(1, min(2, len(ids) - 1)), unique=True,
    ))
    if draw(st.integers(0, 7)) == 3:  # now and then an id it lacks, or none
        demos = draw(st.sampled_from([demos + ["absent"], []]))
    argv = [
        "--window", str(draw(st.integers(0, 3))),
        "--subsample", str(draw(st.integers(1, 3))),
        "--init", init,
        "--em-max-iter", "8",
    ]
    if demos:
        argv += ["--init-demos", ",".join(demos)]
    if init == "kmeans" and draw(st.booleans()):
        argv += ["--k", str(draw(st.integers(1, 3)))]
    rules = None
    if draw(st.booleans()):
        targets = st.sampled_from(["X", "Y", "X | Y @ 0.5", ">"])
        rules = {label: draw(targets) for label in "ABC"}
    return argv, [d for d in demos if d in ids], rules


@st.composite
def generated_sidecar(draw, rules, transcripts, ids):
    """(text, unread): a sidecar for the rules, with boundaries for some
    segments of the split rule and overrides for some of the context rule,
    and now and then one entry that nothing reads (unread is then True): its
    demonstration has no transcript, its segment index lies past the
    transcript, or its segment's rule is not of its kind."""
    doc = {"boundaries": {}, "overrides": {}}
    unread = [(kind, d, 0) for d in ["absent", *ids] if d not in transcripts for kind in doc]
    for demo_id, segments in transcripts.items():
        unread += [(kind, demo_id, len(segments)) for kind in doc]
        for idx, s in enumerate(segments):
            split, context = "|" in rules[s.label], rules[s.label] == ">"
            if split and s.end > s.start and draw(st.booleans()):
                frame = draw(st.integers(s.start, s.end - 1))
                doc["boundaries"].setdefault(demo_id, {})[str(idx)] = [frame]
            if context and draw(st.booleans()):
                label = draw(st.sampled_from("XYZ"))
                doc["overrides"].setdefault(demo_id, {})[str(idx)] = label
            unread += [("boundaries", demo_id, idx)] * (not split)
            unread += [("overrides", demo_id, idx)] * (not context)
    has_unread = draw(st.integers(0, 4)) == 2
    if has_unread:
        kind, demo_id, idx = draw(st.sampled_from(unread))
        doc[kind].setdefault(demo_id, {})[str(idx)] = [1] if kind == "boundaries" else "Z"
    return json.dumps(doc), has_unread


@st.composite
def corrupted(draw, files):
    """Make one drawn file of files unreadable and return its relative path:
    a recording gets a non-numeric cell, a transcript or the mapping a line
    that is no segment or rule, and the sidecar loses its closing brace."""
    kinds = ("rules.txt", "sidecar.json", "transcripts", "kinematics")
    kind = draw(st.sampled_from([k for k in kinds if any(r.startswith(k) for r in files)]))
    rel = draw(st.sampled_from(sorted(r for r in files if r.startswith(kind))))
    lines = files[rel].splitlines(keepends=True)
    if rel.startswith("kinematics/"):
        sep = "," if rel.endswith(".csv") else " "
        i = draw(st.integers(sep == ",", len(lines) - 1))  # a CSV's header is kept
        cells = lines[i].rstrip("\n").split(sep)
        cells[draw(st.integers(0, len(cells) - 1))] = "x"
        lines[i] = sep.join(cells) + "\n"
    elif rel == "sidecar.json":
        lines = [files[rel][:-1]]
    else:
        i = draw(st.integers(0, len(lines)))
        lines[i : i + 1] = ["x\n"]
    files[rel] = "".join(lines)
    return rel


def run_main(argv):
    """main(argv) with its stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGeneratedDatasets:
    """segment on drawn recordings, transcripts, mappings, sidecars and
    settings: it exits 0 with outputs that cover the data, or 1-3 with one
    error line; nothing escapes main. A run on a corrupted file, or on a
    sidecar entry that nothing reads, exits 2 naming that file. The example
    count comes from the hypothesis profile."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_segment(self, data):
        files, frames, transcripts = data.draw(generated_datasets())
        argv, init_demos, rules = data.draw(generated_argv(sorted(frames)))
        unread = False
        if rules is not None:
            files["rules.txt"] = "".join(f"{a} -> {b}\n" for a, b in rules.items())
            files["sidecar.json"], unread = data.draw(
                generated_sidecar(rules, transcripts, sorted(frames))
            )
        broken = data.draw(corrupted(files)) if data.draw(st.integers(0, 2)) == 1 else None
        # the file the run must fail on; weak init without ids fails first,
        # as a config error, before any file is read
        culprit = broken or ("sidecar.json" if unread else None)
        if "--init-demos" not in argv and "kmeans" not in argv:
            culprit = None
        with tempfile.TemporaryDirectory() as tmp:
            if rules is not None:
                argv += ["--mapping", os.path.join(tmp, "rules.txt"),
                         "--sidecar", os.path.join(tmp, "sidecar.json")]
            for rel, text in files.items():
                os.makedirs(os.path.dirname(os.path.join(tmp, rel)), exist_ok=True)
                with open(os.path.join(tmp, rel), "w") as fh:
                    fh.write(text)
            outs = [os.path.join(tmp, "out1"), os.path.join(tmp, "out2")]
            base = ["segment", "--data-dir", tmp, "--seed", "0"] + argv
            code, out, err = run_main(base + ["--output-dir", outs[0]])
            assert code in (0, 1, 2, 3)
            event(f"exit {code}")  # shown by --hypothesis-show-statistics
            errors = [line for line in err.splitlines() if _ERROR_LINE.match(line)]
            if culprit is not None:
                event(f"fails on {culprit.split('/')[0]}")
                # named by its file name, or as the command line gave it
                name = os.path.basename(culprit) if "/" in culprit else os.path.join(tmp, culprit)
                assert code == 2 and errors[0].startswith(f"kinseg: data error: {name}: "), err
            if code:
                assert len(errors) == 1, err
                return
            for demo_id, T in frames.items():
                with open(os.path.join(outs[0], "predictions", f"{demo_id}.txt")) as fh:
                    predicted = parse_transcript(fh)
                assert [s.start for s in predicted] == [1] + [s.end + 1 for s in predicted[:-1]]
                assert predicted[-1].end == T
            with open(os.path.join(outs[0], "report.json")) as fh:
                report = json.load(fh)
            scored = [d for d in transcripts if d not in init_demos]
            assert report["n_frames_evaluated"] == sum(
                s.end - s.start + 1 for d in scored for s in transcripts[d]
            )
            again = run_main(base + ["--output-dir", outs[1]])
            assert again == (0, out.replace(outs[0], outs[1]), err)
            assert tree_bytes(outs[1]) == tree_bytes(outs[0])
