import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

import kinseg.preprocess as pp
from kinseg.preprocess import (
    FULL_CHANNEL_NAMES,
    augment,
    augmented_names,
    build_features,
    distance_features,
    labels_at_rows,
    resolve_subset,
    rotmat_to_quat,
    rows_to_frames,
    select_channels,
    zscore,
)


def rodrigues(axis, angle):
    # Independent rotation construction for the quaternion oracle.
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


class TestRotmatToQuat:
    def test_identity(self):
        assert np.allclose(rotmat_to_quat(np.eye(3)), [1, 0, 0, 0], atol=1e-12)

    def test_pi_about_z(self):
        R = rodrigues([0, 0, 1], np.pi)
        assert np.allclose(rotmat_to_quat(R), [0, 0, 0, 1], atol=1e-9)

    def test_matches_axis_angle_quaternion(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            axis = rng.normal(size=3)
            angle = rng.uniform(0, np.pi)
            q = rotmat_to_quat(rodrigues(axis, angle))
            ref = quat_from_axis_angle(axis, angle)
            if ref[0] < 0:
                ref = -ref
            # w ~ 0 leaves the overall sign ambiguous
            err = min(np.abs(q - ref).max(), np.abs(q + ref).max())
            assert err < 1e-9

    def test_round_trip_100_rotations(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            R = rodrigues(rng.normal(size=3), rng.uniform(0, np.pi))
            q = rotmat_to_quat(R)
            back = Rotation.from_quat(q[..., [1, 2, 3, 0]]).as_matrix()
            worst = max(worst, np.abs(back - R).max())
        assert worst < 1e-9

    def test_near_pi_pivot_branches(self):
        rng = np.random.default_rng(2)
        for axis in ([1, 0, 0], [0, 1, 0], [0, 0, 1], rng.normal(size=3)):
            R = rodrigues(axis, np.pi - 1e-7)
            q = rotmat_to_quat(R)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12
            assert np.abs(Rotation.from_quat(q[..., [1, 2, 3, 0]]).as_matrix() - R).max() < 1e-9

    def test_unit_norm_and_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rotmat_to_quat(rodrigues(rng.normal(size=3), rng.uniform(0, np.pi)))
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12
            assert q[0] >= 0

    def test_non_orthonormal_rejected(self):
        R = np.eye(3)
        R[0, 1] = 1e-4
        with pytest.raises(ValueError, match="orthonormal"):
            rotmat_to_quat(R)

    def test_small_perturbation_tolerated(self):
        R = rodrigues([1, 1, 0], 0.7)
        R[0, 0] += 1e-8
        rotmat_to_quat(R)

    def test_reflection_rejected(self):
        with pytest.raises(ValueError, match="reflection"):
            rotmat_to_quat(np.diag([1.0, 1.0, -1.0]))

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            rotmat_to_quat(np.eye(4))


def near_pi_rotations(rng, n):
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    gap = 10.0 ** rng.uniform(-9, -1, size=(n, 1))
    return Rotation.from_rotvec(axes * (np.pi - gap)).as_matrix()


def rotation_stack(seed, n):
    """Random rotations, near-pi rotations, and the exact pi rotations."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            Rotation.random(n, random_state=seed).as_matrix(),
            near_pi_rotations(rng, n),
            Rotation.from_rotvec(np.pi * np.eye(3)).as_matrix(),
            np.eye(3)[None],
        ]
    )


def scipy_quat(R):
    # scipy orders (x, y, z, w); reorder and make w >= 0 like rotmat_to_quat
    q = Rotation.from_matrix(R).as_quat()[:, [3, 0, 1, 2]]
    q[q[:, 0] < 0] *= -1.0
    return q


class TestBatchedRotmatToQuat:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_batch_equals_single_calls_bitwise(self, seed, n):
        R = rotation_stack(seed, n)
        single = np.array([rotmat_to_quat(m) for m in R])
        assert np.array_equal(rotmat_to_quat(R), single)

    def test_leading_dimensions_kept(self):
        R = rotation_stack(0, 10).reshape(2, 12, 3, 3)
        q = rotmat_to_quat(R)
        assert q.shape == (2, 12, 4)
        assert np.array_equal(q[1], rotmat_to_quat(R[1]))
        assert rotmat_to_quat(np.empty((0, 3, 3))).shape == (0, 4)

    def test_matches_scipy_on_every_pivot_branch(self):
        R = rotation_stack(4, 2000)
        q = rotmat_to_quat(R)
        ref = scipy_quat(R)
        # exact pi rotations have w = 0, so the overall sign is free
        err = np.minimum(np.abs(q - ref).max(axis=1), np.abs(q + ref).max(axis=1))
        assert err.max() <= 1e-15
        # the largest |q_i| is the largest-pivot branch taken
        pivots = np.bincount(np.argmax(np.abs(q), axis=1), minlength=4)
        assert np.all(pivots > 0)
        # near-pi rotations take the x, y and z branches
        near_pi = np.argmax(np.abs(q[2000:4000]), axis=1)
        assert set(near_pi.tolist()) == {1, 2, 3}

    @pytest.mark.parametrize("frame", [0, 7, 19])
    def test_one_non_orthonormal_frame_rejected(self, frame):
        R = rotation_stack(5, 10)[:20].copy()
        R[frame, 0, 1] += 1e-4
        with pytest.raises(ValueError, match=f"orthonormal.*frame {frame}"):
            rotmat_to_quat(R)

    @pytest.mark.parametrize("frame", [0, 11, 19])
    def test_one_reflection_rejected(self, frame):
        R = rotation_stack(6, 10)[:20].copy()
        R[frame] = -R[frame]
        with pytest.raises(ValueError, match=f"reflection.*frame {frame}"):
            rotmat_to_quat(R)

    def test_first_bad_frame_reported(self):
        R = rotation_stack(7, 10)[:20].copy()
        R[4] = -R[4]
        R[9, 2, 2] += 1e-3
        with pytest.raises(ValueError, match="reflection.*frame 4"):
            rotmat_to_quat(R)


def warped_double_pass_gain(f, fc, fs):
    # Analytic magnitude of the forward-backward 2nd-order Butterworth
    # designed by bilinear transform with prewarping.
    ratio = np.tan(np.pi * f / fs) / np.tan(np.pi * fc / fs)
    return 1.0 / (1.0 + ratio**4)


def sinusoid_amplitude(y, f, fs, crop):
    # Projection onto the quadrature pair over an integer period count.
    y = y[crop : len(y) - crop]
    period = int(round(fs / f))
    n = (len(y) // period) * period
    y = y[:n]
    t = np.arange(n) / fs
    c = 2.0 / n * np.sum(y * np.cos(2 * np.pi * f * t))
    s = 2.0 / n * np.sum(y * np.sin(2 * np.pi * f * t))
    return np.hypot(c, s)


def lowpass_filter(signal, fc_hz, fs_hz):
    """One 1-D or T x p signal through the batched filter, as a batch of one."""
    x = np.asarray(signal, dtype=float)
    columns = x.reshape(len(x), -1)
    (y,) = pp._lowpass_batch([columns.shape], [columns], fc_hz, fs_hz)
    return y.reshape(x.shape)


class TestLowpassFilter:
    def test_constant_unchanged(self):
        x = np.full(200, 3.7)
        y = lowpass_filter(x, 1.5, 30.0)
        assert np.abs(y - 3.7).max() < 1e-6

    def test_dc_gain(self):
        rng = np.random.default_rng(4)
        x = 5.0 + 0.0 * rng.normal(size=500)
        y = lowpass_filter(x, 1.5, 30.0)
        assert np.abs(y.mean() - 5.0) < 1e-6

    def test_5hz_attenuation_matches_analytic(self):
        fs, fc, f = 30.0, 1.5, 5.0
        t = np.arange(1800) / fs
        y = lowpass_filter(np.sin(2 * np.pi * f * t), fc, fs)
        measured = sinusoid_amplitude(y, f, fs, crop=300)
        expected = warped_double_pass_gain(f, fc, fs)
        assert abs(measured - expected) / expected < 0.10

    def test_low_frequency_passes(self):
        fs, fc, f = 30.0, 1.5, 0.1
        t = np.arange(3000) / fs
        y = lowpass_filter(np.sin(2 * np.pi * f * t), fc, fs)
        measured = sinusoid_amplitude(y, f, fs, crop=300)
        assert measured >= 0.99
        # far below warping, the analog-prototype formula applies too
        analog = 1.0 / (1.0 + (f / fc) ** 4)
        assert abs(measured - analog) < 0.01

    def test_zero_phase(self):
        # a slow gaussian bump keeps its peak position
        fs = 30.0
        t = np.arange(600) / fs
        x = np.exp(-0.5 * ((t - 10.0) / 1.0) ** 2)
        y = lowpass_filter(x, 1.5, fs)
        assert abs(int(np.argmax(y)) - int(np.argmax(x))) <= 1

    def test_length_preserved(self):
        assert lowpass_filter(np.ones(57), 1.5, 30.0).shape == (57,)

    def test_minimum_length(self):
        lowpass_filter(np.array([1.0, 2.0, 1.0, 2.0]), 1.5, 30.0)
        with pytest.raises(ValueError, match="too short"):
            lowpass_filter(np.array([1.0, 2.0, 1.0]), 1.5, 30.0)

    def test_cutoff_above_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            lowpass_filter(np.ones(10), 15.0, 30.0)
        with pytest.raises(ValueError, match="Nyquist"):
            lowpass_filter(np.ones(10), 0.0, 30.0)


def scipy_filtfilt(x, fc, fs):
    """The reference the filter reproduces: scipy's butter + filtfilt."""
    from scipy import signal

    b, a = signal.butter(2, fc, fs=fs)
    padlen = min(6, len(x) - 1)
    return signal.filtfilt(b, a, x, axis=0, padtype="even", padlen=padlen)


@st.composite
def cutoffs(draw):
    """(fc, fs) with fc strictly inside (0, Nyquist)."""
    fs = draw(st.floats(1.0, 1000.0))
    fc = draw(st.floats(1e-3, 0.999)) * fs / 2
    return fc, fs


class TestScipyReference:
    """The filter is bit for bit scipy.signal's butter/filtfilt."""

    def test_pinned_coefficients(self):
        b, a = pp._butter(1.5, 30.0)
        assert [v.hex() for v in b] == [
            "0x1.490bbd92ae7cap-6", "0x1.490bbd92ae7cap-5", "0x1.490bbd92ae7cap-6",
        ]
        assert [v.hex() for v in a] == [
            "0x1.0000000000000p+0", "-0x1.8f9ee17007683p+0", "0x1.485f3a92649ffp-1",
        ]

    @settings(max_examples=100, deadline=None)
    @given(pair=cutoffs())
    def test_coefficients_equal_scipy(self, pair):
        from scipy import signal

        b, a = pp._butter(*pair)
        ref_b, ref_a = signal.butter(2, pair[0], fs=pair[1])
        assert np.array_equal(b, ref_b) and np.array_equal(a, ref_a)

    @settings(max_examples=60, deadline=None)
    @given(
        pair=cutoffs(),
        n=st.one_of(st.integers(4, 12), st.integers(13, 4000)),
        p=st.one_of(st.none(), st.integers(1, 8)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-6, 1e6),
    )
    def test_filter_equals_scipy_bitwise(self, pair, n, p, seed, scale):
        rng = np.random.default_rng(seed)
        shape = (n,) if p is None else (n, p)
        x = scale * rng.normal(size=shape) + rng.normal(size=shape[1:])
        y = lowpass_filter(x, *pair)
        assert y.shape == x.shape
        assert np.array_equal(y, scipy_filtfilt(x, *pair))

    @settings(max_examples=60, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            st.one_of(st.tuples(st.integers(4, 40)), st.tuples(st.integers(4, 40), st.integers(1, 4))),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        pair=cutoffs(),
    )
    def test_drawn_values_equal_scipy_bitwise(self, x, pair):
        assert np.array_equal(lowpass_filter(x, *pair), scipy_filtfilt(x, *pair))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 3000, 6000])
    def test_benchmark_shapes(self, n):
        x = np.random.default_rng(n).normal(size=(n, 32))
        assert np.array_equal(lowpass_filter(x, 1.5, 30.0), scipy_filtfilt(x, 1.5, 30.0))


class TestBatchedFilter:
    """One recurrence over many signals' columns gives each signal its own
    filtfilt, bit for bit, whatever the lengths and widths beside it."""

    @settings(max_examples=60, deadline=None)
    @given(
        pair=cutoffs(),
        shapes=st.lists(
            st.tuples(
                st.one_of(st.integers(4, 7), st.integers(8, 600)), st.integers(1, 5)
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_signal_equals_scipy_alone(self, pair, shapes, seed):
        rng = np.random.default_rng(seed)
        signals = [rng.normal(size=shape) * rng.uniform(1e-3, 1e3) for shape in shapes]
        filtered = pp._lowpass_batch(shapes, iter(signals), *pair)
        assert len(filtered) == len(signals)
        for x, y in zip(signals, filtered):
            assert np.array_equal(y, scipy_filtfilt(x, *pair))

    def test_short_signal_rejected_before_any_is_read(self):
        def signals():
            raise AssertionError("read before the lengths were checked")
            yield

        with pytest.raises(ValueError, match="too short"):
            pp._lowpass_batch([(100, 2), (3, 1)], signals(), 1.5, 30.0)


def signal_matrices(min_rows):
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(min_rows, 80), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )


class TestMatrixFilterAndZscore:
    @settings(max_examples=60, deadline=None)
    @given(x=signal_matrices(4), fc=st.floats(0.1, 14.0))
    def test_lowpass_columns_equal_1d_bitwise(self, x, fc):
        y = lowpass_filter(x, fc, 30.0)
        assert y.shape == x.shape
        for c in range(x.shape[1]):
            assert np.array_equal(y[:, c], lowpass_filter(x[:, c], fc, 30.0))

    @settings(max_examples=60, deadline=None)
    @given(x=signal_matrices(2))
    def test_zscore_columns_equal_1d_bitwise(self, x):
        y = zscore(x)
        assert y.shape == x.shape
        for c in range(x.shape[1]):
            assert np.array_equal(y[:, c], zscore(x[:, c]))

    def test_constant_column_maps_to_zeros(self):
        rng = np.random.default_rng(8)
        # 50 x 4.2 has a rounded mean, so its computed sd is ~9e-16, not 0
        x = np.column_stack([rng.normal(size=50), np.full(50, 4.2), rng.normal(size=50)])
        y = zscore(x)
        assert np.array_equal(y[:, 1], np.zeros(50))
        assert np.allclose(y[:, [0, 2]].std(axis=0), 1.0)

    def test_underflowing_sd_maps_to_zeros(self):
        x = np.array([[0.0, 1.0], [5e-324, 2.0], [0.0, 3.0]])
        assert np.array_equal(zscore(x)[:, 0], np.zeros(3))

    def test_rejects_higher_rank(self):
        with pytest.raises(ValueError, match="1-D or a T x p"):
            zscore(np.ones((4, 2, 2)))

    def test_matrix_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            lowpass_filter(np.ones((3, 5)), 1.5, 30.0)


class TestZscore:
    def test_basic(self):
        y = zscore(np.array([1.0, 2.0, 3.0]))
        assert abs(y.mean()) < 1e-9
        assert abs(y.std() - 1.0) < 1e-9

    def test_constant_to_zeros(self):
        assert np.array_equal(zscore(np.array([5.0] * 4)), np.zeros(4))

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=100)
        assert np.allclose(zscore(3.2 * x + 7.0), zscore(x), atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            zscore(np.array([1.0]))

    def test_overflowing_variance_rejected(self):
        # finite values whose squares overflow used to give sd = inf and zeros
        x = np.column_stack([np.arange(6.0), np.tile([1e307, -1e307], 3)])
        with pytest.raises(ValueError, match="variance of column 1 overflows"):
            zscore(x)


class TestDistanceFeatures:
    def test_coincident(self):
        p = np.ones((5, 3))
        assert np.array_equal(distance_features(p, p), np.zeros((5, 4)))

    def test_pythagorean(self):
        right = np.array([[1.0, 2.0, 2.0]])
        left = np.zeros((1, 3))
        assert np.allclose(distance_features(right, left), [[1, 2, 2, 3]])

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, 20, 3))
        d1 = distance_features(a, b)
        d2 = distance_features(b, a)
        assert np.allclose(d1[:, :3], -d2[:, :3])
        assert np.allclose(d1[:, 3], d2[:, 3])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distance_features(np.ones((3, 3)), np.ones((4, 3)))


def make_fm(T=9, p=2):
    return np.arange(T * p, dtype=float).reshape(T, p)


class TestResolveSubset:
    def test_named_sizes(self):
        for name, size in [
            ("all", 32),
            ("no-pose", 18),
            ("no-velocity", 20),
            ("no-distance", 28),
        ]:
            kept = resolve_subset(name)
            assert len(kept) == size

    def test_no_velocity_drops_expected(self):
        kept = resolve_subset("no-velocity")
        dropped = sorted(set(range(1, 33)) - {i + 1 for i in kept})
        assert dropped == [8, 9, 10, 11, 12, 13, 22, 23, 24, 25, 26, 27]

    def test_no_distance_drops_tail(self):
        kept = resolve_subset("no-distance")
        assert max(kept) == 27  # 0-based; channels 29-32 gone

    def test_explicit_indices(self):
        kept = resolve_subset("3,1,2")
        assert kept == [0, 1, 2]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            resolve_subset("0,5")
        with pytest.raises(ValueError):
            resolve_subset("33")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            resolve_subset("everything")


# The reference operating point: 1.5 Hz cutoff, 30 Hz recordings, every
# third frame kept.
FEATURES = dict(fc_hz=1.5, fs_hz=30.0, stride=3)


def build_one(frames, **kwargs):
    """build_features on a batch of one recording."""
    return build_features({"rec.txt": frames}, **kwargs)["rec.txt"]


def make_robot_frames(T=90, seed=0):
    """Synthetic 38-channel two-arm recording with valid rotation columns."""
    rng = np.random.default_rng(seed)
    t = np.arange(T) / 30.0
    arms = []
    for arm in range(2):
        pos = np.column_stack(
            [np.sin(2 * np.pi * 0.3 * t + arm + k) for k in range(3)]
        )
        rots = []
        for ti in t:
            angle = 0.5 * np.sin(2 * np.pi * 0.2 * ti + arm)
            rots.append(rodrigues([1.0, arm + 0.5, 0.3], angle).reshape(9))
        vel = np.column_stack(
            [np.cos(2 * np.pi * 0.4 * t + arm + k) for k in range(3)]
        )
        angvel = 0.1 * rng.normal(size=(T, 3))
        grip = np.sin(2 * np.pi * 0.1 * t + arm)[:, None]
        arms.append(np.hstack([pos, np.array(rots), vel, angvel, grip]))
    return np.hstack(arms)


class TestBuildFeatures:
    def test_full_shape(self):
        fm = build_one(make_robot_frames(), **FEATURES)
        assert fm.shape == (30, 32)  # 90 frames / subsample 3
        assert np.all(np.isfinite(fm))
        assert len(FULL_CHANNEL_NAMES) == 32

    def test_subset_shapes(self):
        base = build_one(make_robot_frames(), **FEATURES)
        assert select_channels(base, "no-pose").shape[1] == 18
        assert select_channels(base, "no-velocity").shape[1] == 20
        assert select_channels(base, "no-distance").shape[1] == 28

    def test_wrong_channel_count(self):
        with pytest.raises(ValueError, match="38"):
            build_one(np.ones((10, 4)), **FEATURES)

    def test_column_wiring(self):
        # channel 1 must be the right arm's x position run through
        # filter -> zscore -> subsample in that order
        frames = make_robot_frames()
        fm = build_one(frames, **FEATURES)
        expected = zscore(lowpass_filter(frames[:, 0], 1.5, 30.0))[::3]
        assert np.array_equal(fm[:, 0], expected)

    def test_distances_from_raw_positions(self):
        frames = make_robot_frames()
        fm = build_one(frames, **FEATURES)
        raw = distance_features(frames[:, 0:3], frames[:, 19:22])
        for j in range(4):
            expected = zscore(lowpass_filter(raw[:, j], 1.5, 30.0))[::3]
            assert np.array_equal(fm[:, 28 + j], expected)

    def test_quaternion_channels(self):
        frames = make_robot_frames()
        fm = build_one(frames, **FEATURES)
        quats = np.array(
            [rotmat_to_quat(row[3:12].reshape(3, 3)) for row in frames]
        )
        expected = zscore(lowpass_filter(quats[:, 0], 1.5, 30.0))[::3]
        assert np.array_equal(fm[:, 3], expected)

    def test_recordings_consumed(self):
        # each recording's frames are dropped as soon as they are filtered
        recordings = {"a.txt": make_robot_frames(), "b.txt": make_robot_frames(T=60)}
        features = build_features(recordings, **FEATURES)
        assert recordings == {}
        assert [v.shape for v in features.values()] == [(30, 32), (20, 32)]

    def test_copies_kept_rows(self):
        # a strided view would keep the full-rate matrix alive
        fm = build_one(make_robot_frames(), **FEATURES)
        assert fm.flags.c_contiguous
        assert fm.base is None

    def test_pipeline_order_trace(self, monkeypatch):
        calls = []

        real_filter, real_zscore = pp._lowpass_batch, pp.zscore

        def traced(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(pp, "_lowpass_batch", traced("filter", real_filter))
        monkeypatch.setattr(pp, "zscore", traced("zscore", real_zscore))
        build_one(make_robot_frames(), **FEATURES)
        assert calls.index("zscore") > calls.index("filter")
        assert max(i for i, c in enumerate(calls) if c == "filter") < calls.index(
            "zscore"
        )

    def test_custom_cutoff_and_factor(self):
        fm = build_one(make_robot_frames(), fc_hz=3.0, fs_hz=30.0, stride=1)
        assert fm.shape == (90, 32)


class TestSelectChannels:
    def test_columns_follow_indices(self):
        # every kept column is the base column of its index, in base order
        base = build_one(make_robot_frames(), **FEATURES)
        for subset in ("no-pose", "no-velocity", "no-distance", "1,8,29", "all"):
            got = select_channels(base, subset)
            columns = resolve_subset(subset)
            assert columns == sorted(columns)
            assert np.array_equal(got, base[:, columns])

    def test_all_returns_input(self):
        base = build_one(make_robot_frames(), **FEATURES)
        assert select_channels(base, "all") is base

    def test_names_follow_indices(self):
        base = build_one(make_robot_frames(), **FEATURES)
        assert np.array_equal(select_channels(base, "32,1"), base[:, [0, 31]])
        names = [FULL_CHANNEL_NAMES[i] for i in resolve_subset("32,1")]
        assert names == ["right_pos_x", "dist"]

    def test_needs_32_channels(self):
        with pytest.raises(ValueError, match="32"):
            select_channels(make_fm(p=4), "1,2")


class TestAugment:
    def test_window_zero_identity(self):
        fm = make_fm(T=5)
        assert np.array_equal(augment(fm, 0), fm)
        assert all(name.endswith("_t0") for name in augmented_names(["a", "b"], 0))

    def test_direct_construction(self):
        v = make_fm(T=5, p=2)
        X = augment(v, 2)
        assert X.shape == (3, 6)
        assert np.array_equal(X[0], np.concatenate([v[0], v[1], v[2]]))
        assert np.array_equal(X[2], np.concatenate([v[2], v[3], v[4]]))

    def test_three_block_layout(self):
        X = augment(np.random.default_rng(7).normal(size=(40, 32)), 2)
        assert X.shape[1] == 96
        names = augmented_names([f"c{i}" for i in range(32)], 2)
        assert names[31:33] == ["c31_t0", "c0_t1"]

    def test_row_count_property(self):
        for w in range(4):
            fm = make_fm(T=9)
            assert len(augment(fm, w)) + w == len(fm)

    def test_too_short(self):
        with pytest.raises(ValueError):
            augment(make_fm(T=3), 3)

    def test_channel_names(self):
        assert augmented_names(["a", "b"], 1) == ["a_t0", "b_t0", "a_t1", "b_t1"]


class TestFrameAlignment:
    def test_label_alignment(self):
        labels = [f"L{i}" for i in range(9)]
        assert list(labels_at_rows(labels, 3, 3)) == ["L0", "L3", "L6"]

    def test_labels_at_rows_on_augmented(self):
        labels = [f"L{i}" for i in range(12)]
        X = augment(make_fm(T=12)[::3], 1)
        assert list(labels_at_rows(labels, len(X), 3)) == ["L0", "L3", "L6"]

    def test_rows_to_frames_nearest_previous(self):
        out = rows_to_frames(["a", "b", "c"], 3, 12)
        assert list(out) == ["a", "a", "a", "b", "b", "b", "c", "c", "c", "c", "c", "c"]

    def test_rows_to_frames_empty(self):
        with pytest.raises(ValueError):
            rows_to_frames([], 1, 5)

    @settings(max_examples=80, deadline=None)
    @given(
        stride=st.integers(1, 6),
        window=st.integers(0, 5),
        rows_past_window=st.integers(1, 30),
    )
    def test_alignment_round_trip(self, stride, window, rows_past_window):
        # any frame grid with T > W rows: every augmented row reads the label
        # of its anchor frame, and rows_to_frames writes it back there
        T = window + rows_past_window
        n_frames = T * stride
        X = augment(np.zeros((T, 2)), window)
        anchors = range(0, len(X) * stride, stride)
        picked = labels_at_rows([f"f{i}" for i in range(n_frames)], len(X), stride)
        assert len(picked) == len(X) == T - window
        assert list(picked) == [f"f{f}" for f in anchors]
        row_labels = [f"r{i}" for i in range(len(X))]
        frames = rows_to_frames(row_labels, stride, n_frames)
        assert len(frames) == n_frames
        assert [frames[f] for f in anchors] == row_labels
