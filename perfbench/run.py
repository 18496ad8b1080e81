"""Offline benchmark of the kinseg command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It runs the unmodified CLI
(`python -m kinseg ...` with PYTHONPATH=src) as a subprocess, one command at
a time: a closed loop with one client. Inputs are generated from the seed
once per run under .perfbench/, never timed, and deleted at the end.

For --seconds a run alternates timing `python -c "import kinseg.cli"`
(setup_s) with the workload's command on the same inputs, and checks every
output: exit code 0, every expected file present and parsable,
predictions covering every frame, and digests of the deterministic outputs
equal to the first command's. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.

The end-to-end metrics are medians over the commands: wall_s (spawn to
exit), peak_rss_mb (from wait4), setup_s, accuracy, nmi. --trace 1
alternates plain commands with commands run through traced_cli.py, which
records spans around the calls into each kinseg module, and adds the
per-layer metrics: the layers' self times, counts and rates, and the
tracing overhead (traced minus plain wall_s). Every metric of the mode is
printed by name with its unit; the JSON line carries the end-to-end metrics
with --trace 0 and the per-layer metrics with --trace 1. The full record,
with the machine facts, goes to .perfbench/results/.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

MIN_COMMANDS = 2  # the digest check needs a second run of the same inputs
COMMAND_TIMEOUT_S = 60  # with a 50-s window this keeps a run under 180 s
# EM meets this tolerance only when two log-likelihoods are bitwise equal,
# so on the workloads' inputs every fit runs the workload's em_iters
# iterations. At the CLI's default tolerance (and even at 1e-12) the count
# varies with the seed, which made wall_s spread across seeds.
EM_TOL = "1e-300"
INIT_DEMOS = "d00,d01"


@dataclasses.dataclass(frozen=True)
class Workload:
    demos: int  # JIGSAWS-shaped demonstrations; INIT_DEMOS seed the weak init
    frames: int  # frames per demonstration
    em_iters: int  # EM iterations of every fit
    subsets: tuple  # ablate's feature subsets; empty for segment
    why: str


# segment-jigsaws fits six of its eight demonstrations, so EM (D=96) is most
# of the wall time. With that many fit rows every seed tried ran all its EM
# iterations; with two fit demonstrations some seeds reached a bitwise fixed
# point, which ends EM whatever the tolerance, after 12.
# ablate-channels repeats feature building per subset, so preprocessing
# dominates and EM (D=3) is cheap. A k-means
# workload on `kinseg synth` data was tried and left out: its accuracy and
# nmi are bimodal in the seed (matched accuracy 0.42-0.98 over 20 seeds).
WORKLOADS = {
    "segment-jigsaws": Workload(
        8, 3000, 20,
        (),
        "weak-init segment at W=2, D=96, K=10 on 76-column robot text, "
        "with EM (E-step solves, M-step covariance GEMMs) the largest layer",
    ),
    "ablate-channels": Workload(
        4, 6000, 12,
        ("1", "8", "29"),  # right pos_x, right vel_x, dist_x
        "ablate over single-channel subsets: feature building repeats per "
        "subset and dominates, EM at D=3 is cheap",
    ),
}

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "accuracy": "fraction",
    "nmi": "fraction",
}

PER_LAYER = {
    "cli.load_dataset_s": "s",
    "cli.run_pipeline_s": "s",
    "cli.main_self_s": "s",
    "ingest.parse_kinematics_s": "s",
    "ingest.parse_mb_per_s": "MB/s",
    "ingest.files": "count",
    "preprocess.features_s": "s",
    "preprocess.features_calls": "count",
    "preprocess.augment_s": "s",
    "preprocess.rows_to_frames_s": "s",
    "gmm.init_s": "s",
    "gmm.em_s": "s",
    "gmm.em_iters": "count",
    "gmm.em_s_per_iter": "s",
    "gmm.em_gflop_per_iter_computed": "GFLOP",
    "gmm.em_gflops_computed": "GFLOP/s",
    "gmm.predict_s": "s",
    "gmm.fit_rows": "count",
    "gmm.dim": "count",
    "gmm.components": "count",
    "metrics.evaluate_s": "s",
    "metrics.silhouette_s": "s",
    "metrics.silhouette_rows": "count",
    "cli.self_s": "s",
    "ingest.self_s": "s",
    "preprocess.self_s": "s",
    "gmm.self_s": "s",
    "metrics.self_s": "s",
    "trace.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}
LAYERS = ("cli", "ingest", "preprocess", "gmm", "metrics")


class Checkout:
    """Paths of the source checkout the benchmark runs in."""

    def __init__(self, root):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".perfbench")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, env.get("PYTHONPATH")) if p
        )
        self.env = env

    def has_program(self):
        return os.path.isfile(os.path.join(self.src, "kinseg", "cli.py"))


# ---------------------------------------------------------------- inputs


def make_inputs(wl, seed, data_dir):
    """Generate the seed's dataset into data_dir; return frames by demo id."""
    import jigsaws_data

    shutil.rmtree(data_dir, ignore_errors=True)
    ids = jigsaws_data.write_dataset(data_dir, seed, wl.demos, wl.frames)
    return {demo_id: wl.frames for demo_id in ids}


def cli_args(wl, data_dir, out_dir, seed):
    args = ["--data-dir", data_dir, "--output-dir", out_dir, "--seed", str(seed),
            "--init", "weak", "--init-demos", INIT_DEMOS, "--window", "2",
            "--em-tol", EM_TOL, "--em-max-iter", str(wl.em_iters)]
    if wl.subsets:
        return ["ablate", *args, "--subsets", ",".join(wl.subsets)]
    return ["segment", *args]


# ------------------------------------------------------------- processes


def spawn(co, argv, log_path):
    """Run argv to completion; return (wall seconds, peak RSS in MB, exit code)."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, env=co.env, cwd=co.root
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def time_import(co):
    """Seconds of `import kinseg.cli` in a fresh interpreter, None on failure."""
    argv = [sys.executable, "-c", "import kinseg.cli"]
    wall, _, code = spawn(co, argv, os.path.join(co.work, "logs", "setup.log"))
    return wall if code == 0 else None


# --------------------------------------------------------- output checks


class CheckError(Exception):
    pass


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"{os.path.basename(path)}: {exc}")


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _segments(path):
    segs = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                start, end, label = line.split()
                segs.append((int(start), int(end), label))
    return segs


def _check_covers(path, n_frames):
    try:
        segs = _segments(path)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: {exc}")
    expected = 1
    for start, end, _ in segs:
        if start != expected or end < start:
            raise CheckError(f"{path}: frames {expected}.. not covered")
        expected = end + 1
    if expected != n_frames + 1:
        raise CheckError(f"{path}: covers {expected - 1} of {n_frames} frames")


def _fraction(value, what):
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        raise CheckError(f"{what} is {value!r}, not a number in [0, 1]")
    return float(value)


def check_outputs(wl, out_dir, frames):
    """Validate one command's outputs; return (digest, accuracy, nmi, EM
    iterations of the segment fit or None)."""
    if wl.subsets:
        path = os.path.join(out_dir, "ablate.csv")
        try:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            raise CheckError(str(exc))
        if tuple(r.get("subset") for r in rows) != wl.subsets:
            raise CheckError(f"ablate.csv rows are {[r.get('subset') for r in rows]}")
        try:
            acc = [_fraction(float(r["accuracy"]), "accuracy") for r in rows]
            nmi = [_fraction(float(r["nmi"]), "nmi") for r in rows]
        except (KeyError, ValueError) as exc:
            raise CheckError(f"ablate.csv: {exc}")
        return _digest([path]), statistics.fmean(acc), statistics.fmean(nmi), None

    report = _read_json(os.path.join(out_dir, "report.json"))
    _read_json(os.path.join(out_dir, "report_per_demo.json"))
    model = _read_json(os.path.join(out_dir, "model.json"))
    if model.get("format") != "kinseg-gmm" or len(model.get("fit_trace", [])) < 1:
        raise CheckError("model.json is not a fitted kinseg-gmm model")
    for demo_id, n in frames.items():
        _check_covers(os.path.join(out_dir, "predictions", f"{demo_id}.txt"), n)
        path = os.path.join(out_dir, "transitions", f"{demo_id}.csv")
        try:
            with open(path, newline="") as fh:
                header = next(csv.reader(fh))
        except (OSError, StopIteration) as exc:
            raise CheckError(f"{path}: {exc!r}")
        if header[:3] != ["row_index", "from_label", "to_label"]:
            raise CheckError(f"{path}: unexpected header")
    acc = _fraction(report.get("accuracy"), "accuracy")
    nmi = _fraction(report.get("nmi"), "nmi")
    digest = _digest(
        [os.path.join(out_dir, "report.json"), os.path.join(out_dir, "model.json")]
    )
    return digest, acc, nmi, len(model["fit_trace"])


# ---------------------------------------------------------------- traces


def em_flops(rows, dim, k, iters, max_iter):
    """Computed FLOPs of em_fit: per component, an E-step is a Cholesky, a
    triangular solve and the squared norms; an M-step is the weighted mean,
    centering and the covariance GEMM. The last E-step of a converged fit
    is not followed by an M-step."""
    n, d = rows, dim
    e_step = k * (n * d * d + 3 * n * d + d**3 / 3)
    m_step = k * (2 * n * d * d + 4 * n * d)
    m_steps = iters if iters == max_iter else iters - 1
    return e_step + m_step, iters * e_step + m_steps * m_step


def layer_metrics(doc, traced_wall):
    """Per-layer metrics of one traced command from its spans."""
    spans = doc["spans"]
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    self_time = defaultdict(float)
    for s in spans:
        self_time[s["name"].split(".")[0]] += dur(s) - covered[s["id"]]
    main = named("cli.main")[0]
    parses = named("ingest.parse_kinematics")
    parse_s = total("ingest.parse_kinematics")
    fits = [s["counts"] for s in named("gmm.em_fit")]
    em_s = total("gmm.em_fit")
    iters = sum(f["iters"] for f in fits)
    per_iter, flops = 0.0, 0.0
    for f in fits:
        per_iter, fit_flops = em_flops(
            f["rows"], f["dim"], f["components"], f["iters"], f["max_iter"]
        )
        flops += fit_flops
    features = named("preprocess.build_features")
    silhouettes = named("metrics.silhouette_index")
    m = {
        "cli.load_dataset_s": total("cli.load_dataset"),
        "cli.run_pipeline_s": total("cli.run_pipeline"),
        "cli.main_self_s": dur(main) - covered[main["id"]],
        "ingest.parse_kinematics_s": parse_s,
        "ingest.parse_mb_per_s": sum(s["counts"]["bytes"] for s in parses) / 1e6 / parse_s,
        "ingest.files": len(parses),
        "preprocess.features_s": sum(dur(s) for s in features),
        "preprocess.features_calls": len(features),
        "preprocess.augment_s": total("preprocess.augment"),
        "preprocess.rows_to_frames_s": total("preprocess.rows_to_frames"),
        "gmm.init_s": total("gmm.init"),
        "gmm.em_s": em_s,
        "gmm.em_iters": iters,
        "gmm.em_s_per_iter": em_s / iters,
        "gmm.em_gflop_per_iter_computed": per_iter / 1e9,
        "gmm.em_gflops_computed": flops / 1e9 / em_s,
        "gmm.predict_s": total("gmm.predict_labels"),
        "gmm.fit_rows": max(f["rows"] for f in fits),
        "gmm.dim": max(f["dim"] for f in fits),
        "gmm.components": max(f["components"] for f in fits),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.silhouette_s": sum(dur(s) for s in silhouettes),
        "metrics.silhouette_rows": sum(s["counts"]["rows"] for s in silhouettes),
        "trace.import_s": doc["import_s"],
        "trace.wall_s": traced_wall,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.unaccounted_s"] = (
        traced_wall - doc["import_s"] - sum(self_time[layer] for layer in LAYERS)
    )
    return m


# ---------------------------------------------------------- machine facts


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load_avg_1m": os.getloadavg()[0],
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ------------------------------------------------------------------- run


def measure(co, args, data_dir, frames):
    """Alternate import timings and commands for args.seconds; return the
    command samples and the import walls (None for a failed import)."""
    wl = WORKLOADS[args.workload]
    time_import(co)  # compiles bytecode, which users pay only once
    out_dir = os.path.join(co.work, "out", args.workload)
    spans_path = os.path.join(co.work, "out", f"{args.workload}-spans.json")
    cli = cli_args(wl, data_dir, out_dir, args.seed)
    plain = [sys.executable, "-m", "kinseg", *cli]
    traced = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *cli]

    # Import timings (setup_s) interleave with the commands, so both
    # medians sample the same stretch of machine time.
    samples, setup_walls = [], []
    first_digest = None
    start = time.perf_counter()
    while True:
        setup_walls.append(time_import(co))
        is_traced = bool(args.trace) and len(samples) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        log = os.path.join(co.work, "logs", f"{args.workload}-{len(samples)}.log")
        wall, rss, code = spawn(co, traced if is_traced else plain, log)
        sample = {"traced": is_traced, "wall_s": wall, "peak_rss_mb": rss, "exit": code}
        try:
            if code != 0:
                raise CheckError(f"exit code {code}, see {log}")
            digest, sample["accuracy"], sample["nmi"], sample["em_iters"] = check_outputs(
                wl, out_dir, frames
            )
            first_digest = first_digest or digest
            if digest != first_digest:
                raise CheckError("outputs differ from the first command's")
            if is_traced:
                with open(spans_path) as fh:
                    sample["layers"] = layer_metrics(json.load(fh), wall)
        except CheckError as exc:
            sample["error"] = str(exc)
        samples.append(sample)
        elapsed = time.perf_counter() - start
        if len(samples) >= MIN_COMMANDS and elapsed * (1 + 1 / len(samples)) > args.seconds:
            break
    return samples, setup_walls, plain[1:]


def _median(values):
    """Median, or 0.0 when nothing succeeded (the result is not correct then)."""
    return statistics.median(values) if values else 0.0


def run(co, args):
    load_at_start = os.getloadavg()[0]
    for sub in ("logs", "out", "results"):
        os.makedirs(os.path.join(co.work, sub), exist_ok=True)
    data_dir = os.path.join(co.work, "inputs", args.workload)
    try:
        frames = make_inputs(WORKLOADS[args.workload], args.seed, data_dir)
        samples, setup_walls, command = measure(co, args, data_dir, frames)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)  # tens of MB per dataset

    ok = [s for s in samples if "error" not in s]
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    e2e = {
        "wall_s": _median([s["wall_s"] for s in plain]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
        "setup_s": _median([w for w in setup_walls if w is not None]),
        "accuracy": _median([s["accuracy"] for s in plain]),
        "nmi": _median([s["nmi"] for s in plain]),
    }
    layers = {
        name: _median([s["layers"][name] for s in traced])
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]

    facts = machine_facts()
    facts["load_avg_1m"] = load_at_start
    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": dataclasses.asdict(WORKLOADS[args.workload]),
        "command": command,
        "machine": facts,
        "setup_walls_s": setup_walls,
        "samples": samples,
        "end_to_end": e2e,
        "per_layer": layers if args.trace else {},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(co.work, "results", name), "w") as fh:
        json.dump(record, fh, indent=2)

    failed = len(samples) - len(ok) + setup_walls.count(None)
    print("machine " + json.dumps(facts))
    print(f"{args.workload} seed={args.seed}: {len(samples)} command(s) and "
          f"{len(setup_walls)} import(s), {failed} failed")
    for s in samples:
        if "error" in s:
            print(f"  failed: {s['error']}")
    shown = {n: (e2e[n], u) for n, u in END_TO_END.items()}
    if args.trace:
        shown.update({n: (layers[n], u) for n, u in PER_LAYER.items()})
    for n, (value, unit) in shown.items():
        print(f"  {n} = {value:.6g} {unit}")
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(samples) + len(setup_walls),
        "failed": failed,
        "metrics": {n: {"value": shown[n][0], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    co = Checkout(os.getcwd())
    if not co.has_program():
        sys.exit(f"no kinseg sources under {co.src}; run from the root of a checkout")
    run(co, args)


if __name__ == "__main__":
    main()
