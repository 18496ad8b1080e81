"""Seeded generator of JIGSAWS-shaped suturing recordings.

Each demonstration is a 76-column whitespace text file (two master arms,
then the two patient-side arms the parser keeps, 19 variables per arm) at
30 Hz plus a "start end label" transcript over ten suturing gestures.

A switched linear dynamical system drives every arm. The active gesture g
selects the regime:

    v(t+1) = v(t) + dt * (k_g * (p*_g - p(t)) - c_g * v(t)) + noise
    p(t+1) = p(t) + dt * v(t+1)
    w(t+1) = a_w * w(t) + (1 - a_w) * k_r * log(R(t)^T R*_g) + noise
    R(t+1) = R(t) @ expm(dt * [w(t+1)]x)
    q(t+1) = a_q * q(t) + (1 - a_q) * q*_g + noise      (gripper angle)

Rotations come from integrating the angular velocity through the
exponential map (Rodrigues' formula) and are re-orthonormalized every
RENORM_EVERY frames, so every written matrix passes the parser's 1e-6
orthonormality check.

The task model (per-gesture targets, gains and noise levels) is fixed, as
the suturing task is fixed across the trials of the real dataset; the seed
draws each trial's gesture schedule, segment lengths, start state and
noise. Two gestures are rare and short, as in the real recordings, but each
still occurs often enough in every trial that a weak initialization from
two trials sees more rows of it than the window-2 feature dimension (96).
"""

import os

import numpy as np

GESTURES = ("G1", "G2", "G3", "G4", "G5", "G6", "G8", "G9", "G10", "G11")
RARE = ("G9", "G10")
RATE_HZ = 30.0
DT = 1.0 / RATE_HZ
TASK_SEED = 1907  # fixes the task model; trials vary with the caller's seed
HEAD_FRAMES = 30  # unannotated frames before the first gesture, as in the dataset
# Every trial performs each gesture the same number of times, as each
# suturing trial repeats the same stitches; order and lengths vary.
COMMON_COUNT = 3
RARE_COUNT = 3
COMMON_FRAMES = (200, 280)  # segment length range of a common gesture
RARE_FRAMES = (60, 100)
RENORM_EVERY = 50
ROT_GAIN = 1.5  # 1/s, pull of the angular velocity toward the gesture's orientation
LINE_DIGITS = 9  # significant digits written; rotations stay orthonormal to ~1e-8


def _task_model():
    rng = np.random.default_rng(TASK_SEED)
    g, arms = len(GESTURES), 2
    return {
        "target_pos": rng.uniform(-0.05, 0.05, size=(g, arms, 3)),
        "stiffness": rng.uniform(2.0, 6.0, size=(g, arms, 1)),
        "damping": rng.uniform(2.0, 5.0, size=(g, arms, 1)),
        "target_rot": _expmap(rng.normal(0.0, 0.6, size=(g, arms, 3))),
        "target_grip": rng.uniform(-0.8, 0.8, size=(g, arms)),
        "vel_noise": rng.uniform(0.001, 0.003, size=(g, arms, 1)),
        "angvel_noise": rng.uniform(0.02, 0.06, size=(g, arms, 1)),
        "grip_noise": rng.uniform(0.01, 0.03, size=(g, arms)),
    }


def _schedule(rng, n_frames):
    """Per-frame gesture index (-1 in the unannotated head) of one trial."""
    common = [i for i, name in enumerate(GESTURES) if name not in RARE]
    rare = [i for i, name in enumerate(GESTURES) if name in RARE]
    order = common * COMMON_COUNT + rare * RARE_COUNT
    while True:  # no gesture directly follows itself
        rng.shuffle(order)
        if all(a != b for a, b in zip(order, order[1:])):
            break
    lengths = np.array(
        [
            rng.uniform(*(RARE_FRAMES if g in rare else COMMON_FRAMES))
            for g in order
        ]
    )
    common_mask = np.array([g not in rare for g in order])
    budget = n_frames - HEAD_FRAMES - lengths[~common_mask].sum()
    lengths[common_mask] *= budget / lengths[common_mask].sum()
    bounds = np.round(np.cumsum(lengths)).astype(int) + HEAD_FRAMES
    bounds[-1] = n_frames
    labels = np.full(n_frames, -1)
    start = HEAD_FRAMES
    for g, end in zip(order, bounds):
        labels[start:end] = g
        start = end
    return labels


def _skew(w):
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -w[..., 2], w[..., 1]
    out[..., 1, 0], out[..., 1, 2] = w[..., 2], -w[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -w[..., 1], w[..., 0]
    return out


def _expmap(phi):
    """Rotation matrices exp([phi]x) for a batch of rotation vectors."""
    theta = np.linalg.norm(phi, axis=-1)[..., None, None]
    safe = np.where(theta > 0, theta, 1.0)
    K = _skew(phi) / safe
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def _logmap(R):
    """Rotation vectors of a batch of rotations (angles below pi)."""
    cos = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos)[..., None]
    vec = np.stack(
        [R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0], R[..., 1, 0] - R[..., 0, 1]],
        axis=-1,
    )
    scale = np.where(theta > 1e-8, theta / (2.0 * np.sin(np.maximum(theta, 1e-8))), 0.5)
    return scale * vec


def _orthonormalize(R):
    U, _, Vt = np.linalg.svd(R)
    return U @ Vt


def simulate(seed, n_demos, n_frames):
    """Arm trajectories (n_demos x n_frames x 2 x 19) and per-frame gestures."""
    task = _task_model()
    rng = np.random.default_rng(seed)
    labels = np.stack([_schedule(rng, n_frames) for _ in range(n_demos)])
    g_all = np.where(labels < 0, 0, labels)  # the head moves like G1
    arms = np.arange(2)

    p = task["target_pos"][g_all[:, 0]].copy()
    v = np.zeros((n_demos, 2, 3))
    w = np.zeros((n_demos, 2, 3))
    grip = task["target_grip"][g_all[:, 0]].copy()
    R = task["target_rot"][g_all[:, 0]].copy()
    eps_v = rng.standard_normal((n_frames, n_demos, 2, 3))
    eps_w = rng.standard_normal((n_frames, n_demos, 2, 3))
    eps_q = rng.standard_normal((n_frames, n_demos, 2))

    out = np.empty((n_demos, n_frames, 2, 19))
    for t in range(n_frames):
        g = g_all[:, t][:, None]  # n_demos x 1, broadcast over arms
        k = task["stiffness"][g, arms]
        c = task["damping"][g, arms]
        v = v + DT * (k * (task["target_pos"][g, arms] - p) - c * v)
        v = v + task["vel_noise"][g, arms] * eps_v[t]
        p = p + DT * v
        err = _logmap(np.swapaxes(R, -1, -2) @ task["target_rot"][g, arms])
        w = 0.9 * w + 0.1 * ROT_GAIN * err
        w = w + task["angvel_noise"][g, arms] * eps_w[t]
        R = R @ _expmap(DT * w)
        if t % RENORM_EVERY == 0:
            R = _orthonormalize(R)
        grip = 0.95 * grip + 0.05 * task["target_grip"][g, arms]
        grip = grip + task["grip_noise"][g, arms] * eps_q[t]
        out[:, t, :, 0:3] = p
        out[:, t, :, 3:12] = R.reshape(n_demos, 2, 9)
        out[:, t, :, 12:15] = v
        out[:, t, :, 15:18] = w
        out[:, t, :, 18] = grip
    return out, labels


def _transcript_lines(labels):
    lines = []
    start = None
    for i in range(len(labels) + 1):
        cur = labels[i] if i < len(labels) else -2
        prev = labels[i - 1] if i > 0 else -2
        if cur != prev:
            if prev >= 0:
                lines.append(f"{start + 1} {i} {GESTURES[prev]}\n")
            start = i
    return "".join(lines)


def write_dataset(out_dir, seed, n_demos, n_frames):
    """Write kinematics/d<NN>.txt and transcripts/d<NN>.txt; return the ids."""
    arms, labels = simulate(seed, n_demos, n_frames)
    kin_dir = os.path.join(out_dir, "kinematics")
    tr_dir = os.path.join(out_dir, "transcripts")
    os.makedirs(kin_dir, exist_ok=True)
    os.makedirs(tr_dir, exist_ok=True)
    line = " ".join([f"%.{LINE_DIGITS}g"] * 76) + "\n"
    ids = []
    for d in range(n_demos):
        psm = arms[d].reshape(n_frames, 38)
        # The parser drops the master arms; they repeat the patient-side
        # values so each file has the dataset's width and byte size.
        rows = np.hstack([psm, psm])
        demo_id = f"d{d:02d}"
        with open(os.path.join(kin_dir, f"{demo_id}.txt"), "w") as fh:
            fh.write((line * n_frames) % tuple(rows.ravel()))
        with open(os.path.join(tr_dir, f"{demo_id}.txt"), "w") as fh:
            fh.write(_transcript_lines(labels[d]))
        ids.append(demo_id)
    return ids
