import functools

import numpy as np
import pytest
from hypothesis import settings

from kinseg import cli, gmm, metrics, preprocess
from kinseg.ingest import Segment, serialize_transcript
from synth import rotvec_matrices, serialize_kinematics

# A larger run of the properties that take their example count from the
# profile (the whole-command property in test_cli.py):
#     pytest tests/test_cli.py::TestGeneratedDatasets --hypothesis-profile=ci
settings.register_profile("ci", max_examples=400)


def _record(patch, module, name):
    """Wrap module.name through patch (a MonkeyPatch) and return the list
    that collects the (args, kwargs) of each call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    patch.setattr(module, name, counted)
    return calls


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name and returns the list that
    collects the (args, kwargs) of each call."""
    return functools.partial(_record, monkeypatch)


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


# The layers below cli take the arrays it builds as given. These are the
# functions whose arguments a run records, so that each layer's tests can
# check that cli gives what the layer assumes.
RECORDED = {
    cli: ["parse_kinematics", "expand_labels"],
    gmm: ["weak_init", "em_fit", "predict_labels"],
    metrics: ["evaluate", "confusion_matrix", "silhouette_samples"],
    preprocess: ["rotmat_to_quat", "distance_features", "zscore", "rows_to_frames"],
}


@pytest.fixture(scope="session")
def pipeline_calls(robot_dir, tmp_path_factory):
    """The (args, kwargs) of every call that one segment run on robot_dir
    (weak init from run0, window 1) makes to each function of RECORDED, by name."""
    with pytest.MonkeyPatch.context() as patch:
        calls = {
            name: _record(patch, module, name)
            for module, names in RECORDED.items() for name in names
        }
        assert cli.main([
            "segment", "--data-dir", str(robot_dir),
            "--output-dir", str(tmp_path_factory.mktemp("recorded")),
            "--init", "weak", "--init-demos", "run0",
            "--window", "1",
        ]) == 0
    assert all(calls.values()), [name for name, made in calls.items() if not made]
    return calls
