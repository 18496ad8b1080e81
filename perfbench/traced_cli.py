"""Run the kinseg CLI with spans around the calls into each module.

    python traced_cli.py SPANS_JSON kinseg-arguments...

The program is not modified: before main() runs, the module attributes the
CLI looks up at call time are replaced by wrappers that record a span
(name, start, end, parent) and a few counts. Spans stay in memory and are
written to SPANS_JSON when the command returns. The exit code is the CLI's.
"""

import json
import os
import sys
import time

T_START = time.perf_counter()

import kinseg.cli  # noqa: E402  (import time is measured)
import kinseg.gmm  # noqa: E402
import kinseg.metrics  # noqa: E402
import kinseg.preprocess  # noqa: E402

T_IMPORTED = time.perf_counter()

_spans = []  # dicts: id, name, parent, start, end, counts
_stack = []


def _span(name, fn, counts=None):
    """Wrap fn so each call records a span; counts(args, kwargs, result) -> dict."""

    def wrapper(*args, **kwargs):
        span = {"id": len(_spans), "name": name, "parent": _stack[-1] if _stack else None}
        _spans.append(span)
        _stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            _stack.pop()
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result

    return wrapper


def _file_bytes(args, kwargs, result):
    return {"bytes": os.fstat(args[0].fileno()).st_size}


def _em_counts(args, kwargs, result):
    data = getattr(args[0], "values", args[0])
    return {
        "rows": int(data.shape[0]),
        "dim": int(data.shape[1]),
        "components": result.n_components,
        "iters": len(result.fit_trace),
        "max_iter": kwargs.get("max_iter"),
    }


def _rows(args, kwargs, result):
    return {"rows": int(getattr(args[0], "values", args[0]).shape[0])}


# (module, attribute, span name, counts). The CLI imports the ingest
# functions by name, so those are replaced in kinseg.cli's namespace.
WRAPPED = [
    (kinseg.cli, "load_dataset", "cli.load_dataset", None),
    (kinseg.cli, "run_pipeline", "cli.run_pipeline", None),
    (kinseg.cli, "parse_kinematics", "ingest.parse_kinematics", _file_bytes),
    (kinseg.cli, "parse_transcript", "ingest.parse_transcript", None),
    (kinseg.cli, "expand_labels", "ingest.expand_labels", None),
    (kinseg.cli, "compress_labels", "ingest.compress_labels", None),
    (kinseg.preprocess, "build_features", "preprocess.build_features", None),
    (kinseg.preprocess, "augment", "preprocess.augment", None),
    (kinseg.preprocess, "labels_at_rows", "preprocess.labels_at_rows", None),
    (kinseg.preprocess, "rows_to_frames", "preprocess.rows_to_frames", None),
    (kinseg.gmm, "weak_init", "gmm.init", None),
    (kinseg.gmm, "em_fit", "gmm.em_fit", _em_counts),
    (kinseg.gmm, "predict_labels", "gmm.predict_labels", None),
    (kinseg.gmm, "transition_points", "gmm.transition_points", None),
    (kinseg.gmm, "save_model", "gmm.save_model", None),
    (kinseg.metrics, "evaluate", "metrics.evaluate", None),
    (kinseg.metrics, "silhouette_index", "metrics.silhouette_index", _rows),
]


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    for module, attr, name, counts in WRAPPED:
        setattr(module, attr, _span(name, getattr(module, attr), counts))
    code = _span("cli.main", kinseg.cli.main)(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "import_s": T_IMPORTED - T_START,
                "exit_code": code,
                "spans": _spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
