import numpy as np
import pytest

from kinseg.ingest import Segment, parse_kinematics, parse_transcript
from synth import (
    SwitchedLds,
    cycling_schedule,
    generate,
    make_random_regimes,
    regime_label,
    schedule_transcript,
    write_dataset,
)

DATASET_ARGS = dict(n_demos=3, regimes=3, dim=4, segments=6, segment_frames=60, seed=7)


def constant_model(A, n_frames, x0, **kw):
    p = A.shape[0]
    return SwitchedLds(
        regimes=(A,),
        noise_cov=np.zeros((p, p)),
        schedule=((n_frames, 0),),
        x0=np.asarray(x0, dtype=float),
        **kw,
    )


class TestSwitchedLds:
    def test_identity_zero_noise_holds_state(self):
        model = constant_model(np.eye(3), 50, [1.0, -2.0, 0.5])
        frames, labels = generate(model)
        assert frames.shape == (50, 3)
        assert np.allclose(frames, np.tile([1.0, -2.0, 0.5], (50, 1)))
        assert labels == ["R0"] * 50

    def test_contraction_geometric_decay(self):
        model = constant_model(0.5 * np.eye(2), 20, [8.0, -4.0])
        frames, _ = generate(model)
        t = np.arange(20)
        expected = np.outer(0.5**t, [8.0, -4.0])
        assert np.max(np.abs(frames - expected)) < 1e-12

    def test_deterministic(self):
        model = SwitchedLds(
            regimes=make_random_regimes(2, 3, seed=4),
            noise_cov=0.01 * np.eye(3),
            schedule=((30, 0), (30, 1)),
            x0=np.zeros(3),
            seed=11,
        )
        a, la = generate(model)
        b, lb = generate(model)
        assert np.array_equal(a, b)
        assert la == lb

    def test_noise_changes_trajectory(self):
        quiet = constant_model(0.9 * np.eye(2), 40, [1.0, 1.0])
        noisy = SwitchedLds(
            regimes=quiet.regimes,
            noise_cov=0.1 * np.eye(2),
            schedule=quiet.schedule,
            x0=quiet.x0,
            seed=3,
        )
        dq, _ = generate(quiet)
        dn, _ = generate(noisy)
        assert not np.allclose(dq, dn)

    def test_labels_follow_schedule(self):
        model = SwitchedLds(
            regimes=make_random_regimes(3, 2, seed=0),
            noise_cov=np.zeros((2, 2)),
            schedule=((5, 2), (3, 0), (4, 1)),
            x0=np.ones(2),
        )
        _, labels = generate(model)
        assert labels == ["R2"] * 5 + ["R0"] * 3 + ["R1"] * 4

    def test_divergence_raises(self):
        model = constant_model(np.array([[1.04]]), 2000, [100.0])
        with pytest.raises(FloatingPointError):
            generate(model)

    def test_spectral_radius_cap(self):
        with pytest.raises(ValueError, match="spectral radius"):
            constant_model(np.array([[1.2]]), 10, [0.0])

    def test_bad_regime_index(self):
        with pytest.raises(ValueError):
            SwitchedLds(
                regimes=(np.eye(2),),
                noise_cov=np.zeros((2, 2)),
                schedule=((10, 1),),
                x0=np.zeros(2),
            )

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            constant_model(np.eye(2), 0, [0.0, 0.0])

    def test_mismatched_regime_shape(self):
        with pytest.raises(ValueError):
            SwitchedLds(
                regimes=(np.eye(2), np.eye(3)),
                noise_cov=np.zeros((2, 2)),
                schedule=((5, 0),),
                x0=np.zeros(2),
            )

    def test_properties(self):
        model = SwitchedLds(
            regimes=(np.eye(4),),
            noise_cov=np.zeros((4, 4)),
            schedule=((7, 0), (5, 0)),
            x0=np.zeros(4),
        )
        assert model.dim == 4
        assert model.n_frames == 12


class TestScheduleTranscript:
    def test_segments_one_based(self):
        t = schedule_transcript(((5, 0), (3, 2)))
        assert t == (Segment(1, 5, "R0"), Segment(6, 8, "R2"))

    def test_matches_generated_labels(self):
        sched = ((4, 1), (6, 0), (2, 1))
        model = SwitchedLds(
            regimes=make_random_regimes(2, 2, seed=1),
            noise_cov=np.zeros((2, 2)),
            schedule=sched,
            x0=np.ones(2),
        )
        _, labels = generate(model)
        t = schedule_transcript(sched)
        for seg in t:
            for frame in range(seg.start - 1, seg.end):
                assert labels[frame] == seg.label


class TestMakeRandomRegimes:
    def test_exact_spectral_radius(self):
        for A in make_random_regimes(4, 6, seed=2, contraction=0.95):
            radius = max(abs(np.linalg.eigvals(A)))
            assert abs(radius - 0.95) < 1e-9

    def test_pairwise_distinct(self):
        regimes = make_random_regimes(5, 4, seed=0)
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(regimes[i] - regimes[j]) >= 0.1

    def test_seeded_repeatable(self):
        a = make_random_regimes(3, 5, seed=9)
        b = make_random_regimes(3, 5, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_scalar_edge_case(self):
        (A,) = make_random_regimes(1, 1, seed=0, contraction=1.0)
        assert abs(abs(A[0, 0]) - 1.0) < 1e-12

    def test_exhaustion(self):
        # five scalar regimes of magnitude 0.01 cannot be pairwise 0.1 apart
        with pytest.raises(RuntimeError):
            make_random_regimes(5, 1, seed=0, contraction=0.01)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            make_random_regimes(0, 2, seed=0)
        with pytest.raises(ValueError):
            make_random_regimes(2, 0, seed=0)
        with pytest.raises(ValueError):
            make_random_regimes(2, 2, seed=0, contraction=0.0)
        with pytest.raises(ValueError):
            make_random_regimes(2, 2, seed=0, contraction=1.2)


class TestCyclingSchedule:
    def test_cycles(self):
        assert cycling_schedule(3, 5, 10) == (
            (10, 0),
            (10, 1),
            (10, 2),
            (10, 0),
            (10, 1),
        )

    def test_all_regimes_visited(self):
        sched = cycling_schedule(4, 12, 150)
        assert {idx for _, idx in sched} == {0, 1, 2, 3}
        assert sum(d for d, _ in sched) == 12 * 150


def test_regime_label():
    assert regime_label(0) == "R0"
    assert regime_label(11) == "R11"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synthdata")
    write_dataset(d, **DATASET_ARGS)
    return d


class TestWriteDataset:
    def test_writes_parseable_dataset(self, synth_dir):
        for i in range(3):
            kin = synth_dir / "kinematics" / f"synth{i:02d}.csv"
            tr = synth_dir / "transcripts" / f"synth{i:02d}.txt"
            assert kin.is_file() and tr.is_file()
        frames, names = parse_kinematics(
            (synth_dir / "kinematics" / "synth00.csv").read_text(), "generic_csv"
        )
        assert frames.shape == (360, 4)
        assert names == ["s0", "s1", "s2", "s3"]
        t = parse_transcript((synth_dir / "transcripts" / "synth00.txt").read_text())
        assert t[-1].end == 360
        assert {s.label for s in t} == {"R0", "R1", "R2"}

    def test_seed_repeat_identical_bytes(self, synth_dir, tmp_path):
        other = tmp_path / "again"
        write_dataset(other, **DATASET_ARGS)
        for rel in ("kinematics/synth01.csv", "transcripts/synth01.txt"):
            assert (other / rel).read_bytes() == (synth_dir / rel).read_bytes()

    def test_demos_differ(self, synth_dir):
        a = (synth_dir / "kinematics" / "synth00.csv").read_bytes()
        b = (synth_dir / "kinematics" / "synth01.csv").read_bytes()
        assert a != b
