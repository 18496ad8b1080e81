"""Release gate: one test per shipping criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines. Thresholds
are fixed; a red test here means the package does not meet its contract.
"""

import json
import math
import os
import time
from collections import Counter

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import synth
from kinseg import gmm, metrics, preprocess
from kinseg.cli import main
from test_cli import write_jigsaws
from test_preprocess import lowpass_filter


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- 1: EM trace


def test_em_trace_monotone():
    start = time.perf_counter()
    worst = -np.inf
    for i in range(100):
        rng = np.random.default_rng(i)
        p = (2, 4)[i % 2]
        K = (2, 3)[(i // 2) % 2]
        T = int(rng.integers(200, 2001))
        means = rng.normal(0, 4, (K, p))
        data = []
        for k in range(K):
            A = rng.normal(0, 1, (p, p))
            cov = A @ A.T + 0.1 * np.eye(p)
            nk = T // K + (1 if k < T % K else 0)
            data.append(rng.multivariate_normal(means[k], cov, nk))
        X = np.vstack(data)
        init = gmm.kmeans_init(X, K, seed=i)
        model = gmm.em_fit(X, init, tol=1e-6, max_iter=300)
        trace = model.fit_trace
        for a, b in zip(trace, trace[1:]):
            worst = max(worst, a - b)
    elapsed = time.perf_counter() - start
    _criterion(
        "em-monotonicity",
        worst <= 1e-8 and elapsed < 60.0,
        f"worst log-likelihood drop {worst:.3e} (limit 1e-8) "
        f"over 100 problems in {elapsed:.1f}s (limit 60s)",
    )


# ------------------------------------------------- 2 and 3: synthetic recovery


def _run_pair(seed, *, window=1, sigma=0.05, n_regimes=4, p=6, contraction=0.95,
              segments=12, segment_frames=150):
    """Fit on one run of a switched LDS, score on rows of that same run;
    weak statistics come from a disjoint run of the same system."""
    regimes = synth.make_random_regimes(n_regimes, p, seed, contraction)
    sched = synth.cycling_schedule(n_regimes, segments, segment_frames)
    cov = sigma**2 * np.eye(p)

    def make(run_seed):
        model = synth.SwitchedLds(
            tuple(regimes), cov, sched, np.zeros(p), seed=run_seed
        )
        frames, labels = synth.generate(model)
        X = preprocess.augment(frames, window)
        row_labels = preprocess.labels_at_rows(labels, len(X), 1)
        return X, row_labels

    Xa, la = make(seed * 1000 + 1)
    Xb, lb = make(seed * 1000 + 2)
    init = gmm.weak_init(Xa, la)
    model = gmm.em_fit(Xb, init, tol=1e-6, max_iter=300)
    report = metrics.evaluate(gmm.predict_labels(model, Xb), lb)

    km = gmm.kmeans_init(Xb, init.n_components, seed)
    km_model = gmm.em_fit(Xb, km, tol=1e-6, max_iter=300)
    km_report = metrics.evaluate(gmm.predict_labels(km_model, Xb), lb)
    return report["accuracy"], report["nmi"], km_report["nmi"]


def test_regime_recovery():
    start = time.perf_counter()
    accs, nmis = [], []
    for seed in range(10):
        acc, score, _ = _run_pair(seed)
        accs.append(acc)
        nmis.append(score)
    elapsed = time.perf_counter() - start
    mean_acc = float(np.mean(accs))
    mean_nmi = float(np.mean(nmis))
    _criterion(
        "regime-recovery",
        mean_acc >= 0.90 and mean_nmi >= 0.75 and elapsed < 120.0,
        f"mean accuracy {mean_acc:.4f} (floor 0.90), mean NMI {mean_nmi:.4f} "
        f"(floor 0.75) over 10 seeds in {elapsed:.1f}s (limit 120s)",
    )


def test_weak_init_vs_kmeans():
    weak, km = [], []
    for seed in range(20):
        _, weak_nmi, km_nmi = _run_pair(seed)
        weak.append(weak_nmi)
        km.append(km_nmi)
    mean_weak = float(np.mean(weak))
    mean_km = float(np.mean(km))
    _criterion(
        "weak-init-ordering",
        mean_weak >= mean_km,
        f"mean NMI weak {mean_weak:.4f} >= kmeans {mean_km:.4f} over 20 seeds",
    )


# --------------------------------------------------------- 4: metric oracles


def _brute_nmi(x, y):
    n = len(x)
    cx, cy, cxy = Counter(x), Counter(y), Counter(zip(x, y))
    hx = -sum((c / n) * math.log(c / n) for c in cx.values() if c)
    hy = -sum((c / n) * math.log(c / n) for c in cy.values() if c)
    if hx == 0.0 or hy == 0.0:
        return 1.0 if hx == hy else 0.0
    mi = sum(
        (c / n) * math.log((c / n) / ((cx[a] / n) * (cy[b] / n)))
        for (a, b), c in cxy.items()
    )
    return min(max(mi / math.sqrt(hx * hy), 0.0), 1.0)


def _brute_silhouette(X, labels):
    X = np.asarray(X, dtype=float)
    names = sorted(set(labels))
    means = {
        name: X[[i for i, lab in enumerate(labels) if lab == name]].mean(axis=0)
        for name in names
    }
    total = 0.0
    for i in range(len(labels)):
        a = float(np.linalg.norm(X[i] - means[labels[i]]))
        b = min(
            float(np.linalg.norm(X[i] - means[name]))
            for name in names
            if name != labels[i]
        )
        s = 0.0 if max(a, b) == 0.0 else (b - a) / max(a, b)
        total += (s + 1.0) / 2.0
    return total / len(labels)


def test_metric_brute_force():
    rng = np.random.default_rng(42)
    worst_nmi = 0.0
    worst_si = 0.0
    for _ in range(60):
        n = int(rng.integers(4, 21))
        x = [f"a{v}" for v in rng.integers(0, 4, n)]
        y = [f"b{v}" for v in rng.integers(0, 3, n)]
        worst_nmi = max(worst_nmi, abs(metrics.evaluate(x, y)["nmi"] - _brute_nmi(x, y)))

        labels = [f"c{v}" for v in rng.integers(0, 3, n)]
        if len(set(labels)) < 2:
            labels[0] = "c_extra"
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        worst_si = max(
            worst_si,
            abs(metrics.silhouette_index(X, labels) - _brute_silhouette(X, labels)),
        )

    worst_perm = 0.0
    x = [f"a{v}" for v in rng.integers(0, 5, 200)]
    y = [f"b{v}" for v in rng.integers(0, 4, 200)]
    base = metrics.evaluate(x, y)["nmi"]
    names = sorted(set(x))
    for _ in range(50):
        perm = rng.permutation(len(names))
        renamed = {name: f"z{perm[i]}" for i, name in enumerate(names)}
        renamed_nmi = metrics.evaluate([renamed[v] for v in x], y)["nmi"]
        worst_perm = max(worst_perm, abs(renamed_nmi - base))

    _criterion(
        "metric-oracles",
        worst_nmi <= 1e-10 and worst_si <= 1e-10 and worst_perm <= 1e-10,
        f"NMI vs brute force {worst_nmi:.2e}, silhouette vs brute force "
        f"{worst_si:.2e}, relabeling drift {worst_perm:.2e} (limits 1e-10)",
    )


# ------------------------------------------------------------- 5: numerics


def test_quaternion_and_filter():
    rng = np.random.default_rng(5)
    worst_rt = 0.0
    for _ in range(100):
        R = Rotation.random(random_state=rng).as_matrix()
        q = preprocess.rotmat_to_quat(R)
        back = Rotation.from_quat(q[..., [1, 2, 3, 0]]).as_matrix()
        worst_rt = max(worst_rt, float(np.max(np.abs(back - R))))

    fs, fc = 30.0, 1.5
    t = np.arange(3000) / fs
    const = np.full(3000, 2.5)
    dc_gain = float(np.mean(lowpass_filter(const, fc, fs)[500:-500])) / 2.5

    f = 5.0
    y = lowpass_filter(np.sin(2 * np.pi * f * t), fc, fs)
    crop = y[500:-500]
    tc = t[500:-500]
    amp = 2.0 * math.hypot(
        float(np.mean(crop * np.sin(2 * np.pi * f * tc))),
        float(np.mean(crop * np.cos(2 * np.pi * f * tc))),
    )
    expected = 1.0 / (1.0 + (math.tan(math.pi * f / fs) / math.tan(math.pi * fc / fs)) ** 4)
    ratio = amp / expected

    _criterion(
        "numeric-oracles",
        worst_rt < 1e-9 and abs(dc_gain - 1.0) <= 1e-6 and abs(ratio - 1.0) <= 0.10,
        f"quaternion round-trip {worst_rt:.2e} (limit 1e-9), DC gain off by "
        f"{abs(dc_gain - 1.0):.2e} (limit 1e-6), 5 Hz gain {amp:.3e} vs "
        f"analytic {expected:.3e} (ratio {ratio:.3f}, limit 0.90..1.10)",
    )


# ------------------------------------------------------------ 6: shapes


def _robot_frames(T=120):
    rng = np.random.default_rng(0)
    t = np.arange(T) / 30.0
    arms = []
    for arm in range(2):
        pos = np.column_stack(
            [np.sin(2 * np.pi * 0.3 * t + arm + k) for k in range(3)]
        )
        angles = 0.4 * np.sin(2 * np.pi * 0.2 * t + arm)
        rots = Rotation.from_rotvec(
            np.outer(angles, [0.0, 0.6, 0.8])
        ).as_matrix().reshape(T, 9)
        vel = np.column_stack(
            [np.cos(2 * np.pi * 0.4 * t + arm + k) for k in range(3)]
        )
        angvel = 0.1 * rng.normal(size=(T, 3))
        grip = np.sin(2 * np.pi * 0.1 * t + arm)[:, None]
        arms.append(np.hstack([pos, rots, vel, angvel, grip]))
    return np.hstack(arms)


def test_feature_shapes():
    full = preprocess.build_features(
        {"demo.txt": _robot_frames()}, fc_hz=1.5, fs_hz=30.0, stride=3
    )["demo.txt"]
    no_pose = full[:, preprocess.resolve_subset("no-pose")]
    no_vel = full[:, preprocess.resolve_subset("no-velocity")]
    no_dist = full[:, preprocess.resolve_subset("no-distance")]
    augmented = preprocess.augment(full, 2)
    shapes = (
        full.shape[1],
        no_pose.shape[1],
        no_vel.shape[1],
        no_dist.shape[1],
        augmented.shape[1],
    )
    _criterion(
        "feature-shapes",
        shapes == (32, 18, 20, 28, 96),
        f"(full, no-pose, no-velocity, no-distance, W=2 columns) = {shapes}, "
        "expected (32, 18, 20, 28, 96)",
    )


# -------------------------------------------------------- 7: determinism


def test_segment_determinism(tmp_path):
    data = tmp_path / "data"
    synth.write_dataset(
        data, n_demos=3, regimes=3, dim=4, segments=6, segment_frames=60, seed=7
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main([
            "segment",
            "--data-dir", str(data),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", "synth00",
            "--window", "1",
            "--seed", "0",
        ]) == 0
        outputs.append(out)
    same = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("report.json", "report_per_demo.json", "model.json")
    )
    _criterion(
        "determinism",
        same,
        "two identically configured runs wrote byte-identical reports"
        if same
        else "reports differ between identically configured runs",
    )


# ----------------------------------------- 8: real-data benchmark (optional)


JIGSAWS_DIR = os.environ.get("JIGSAWS_DIR")


def jigsaws_accuracies(root, tmp_path):
    """Accuracy of the gate's three runs on the expert demonstrations of the
    Suturing tree at root: (original, remapped, remapped without velocity).
    Skips when the tree does not hold what the runs need."""
    meta = os.path.join(root, "meta_file_Suturing.txt")
    kin_src = os.path.join(root, "kinematics", "AllGestures")
    tr_src = os.path.join(root, "transcriptions")
    if not (os.path.isfile(meta) and os.path.isdir(kin_src) and os.path.isdir(tr_src)):
        pytest.skip("JIGSAWS_DIR does not have the expected Suturing layout")

    experts = []
    with open(meta) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 2 and parts[1].upper().startswith("E"):
                experts.append(parts[0])
    if len(experts) < 2:
        pytest.skip("need at least two expert demonstrations")

    data = tmp_path / "expert_data"
    (data / "kinematics").mkdir(parents=True)
    (data / "transcripts").mkdir()
    loaded = []
    for demo_id in experts:
        kin = os.path.join(kin_src, f"{demo_id}.txt")
        tr = os.path.join(tr_src, f"{demo_id}.txt")
        if not (os.path.isfile(kin) and os.path.isfile(tr)):
            continue
        with open(kin) as fh:
            (data / "kinematics" / f"{demo_id}.txt").write_text(fh.read())
        with open(tr) as fh:
            (data / "transcripts" / f"{demo_id}.txt").write_text(fh.read())
        loaded.append(demo_id)
    if len(loaded) < 2:
        pytest.skip("expert demonstrations listed in the meta file are missing")

    init_demo = loaded[0]

    def accuracy_of(out_name, extra):
        out = tmp_path / out_name
        code = main([
            "segment",
            "--data-dir", str(data),
            "--output-dir", str(out),
            "--init", "weak",
            "--init-demos", init_demo,
            "--seed", "0",
        ] + extra)
        assert code == 0, f"run {out_name} failed with exit {code}"
        return json.loads((out / "report.json").read_text())["accuracy"]

    return (
        accuracy_of("original", []),
        accuracy_of("proposed", ["--mapping", "builtin"]),
        accuracy_of("no_velocity", ["--mapping", "builtin", "--subset", "no-velocity"]),
    )


@pytest.mark.skipif(
    not JIGSAWS_DIR, reason="set JIGSAWS_DIR to run the real-data benchmark"
)
def test_jigsaws_benchmarks(tmp_path):
    acc_original, acc_proposed, acc_no_velocity = jigsaws_accuracies(
        os.path.join(JIGSAWS_DIR, "Suturing"), tmp_path
    )
    acc_all = acc_proposed

    ok = (
        acc_proposed > acc_original
        and acc_no_velocity >= acc_all
        and abs(acc_proposed - 0.83) <= 0.10
        and abs(acc_original - 0.58) <= 0.10
        and abs(acc_no_velocity - 0.85) <= 0.10
    )
    _criterion(
        "real-data-benchmark",
        ok,
        f"accuracy remapped {acc_proposed:.3f} (ref 0.83±0.10) vs original "
        f"{acc_original:.3f} (ref 0.58±0.10); no-velocity {acc_no_velocity:.3f} "
        f"(ref 0.85±0.10) >= all {acc_all:.3f}",
    )


def test_jigsaws_benchmark_plumbing(tmp_path):
    # The gate's runs on a Suturing tree written from the JIGSAWS-shaped
    # generator; its accuracies say nothing about the paper's claims.
    root = tmp_path / "Suturing"
    write_jigsaws(tmp_path / "gen", 1, 5, 900)
    (root / "kinematics").mkdir(parents=True)
    os.rename(tmp_path / "gen" / "kinematics", root / "kinematics" / "AllGestures")
    os.rename(tmp_path / "gen" / "transcripts", root / "transcriptions")
    levels = dict(d00="E", d01="N", d02="E", d03="I", d04="E")
    (root / "meta_file_Suturing.txt").write_text(
        "".join(f"{demo_id}\t{level}\t10\n" for demo_id, level in levels.items())
    )
    try:
        accuracies = jigsaws_accuracies(str(root), tmp_path)
    except pytest.skip.Exception as exc:
        pytest.fail(f"the gate skipped a complete tree: {exc}")
    assert all(math.isfinite(acc) for acc in accuracies)
