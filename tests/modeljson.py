"""model.json read back with json and numpy: the rebuild that README's
"model.json" section shows, as a GmmModel. It does no validation; it reads
only what save_model wrote, every array bit for bit (a NaN comes back as the
NaN json reads).

    PYTHONPATH=tests python -c "import modeljson; print(modeljson.read_model('out/model.json'))"
"""

import json

import numpy as np

from kinseg.gmm import GmmModel


def read_model(path) -> GmmModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    parts, dim = doc["components"], doc["dimension"]
    upper, covariances = np.triu_indices(dim), np.empty((len(parts), dim, dim))
    covariances[:, upper[0], upper[1]] = covariances[:, upper[1], upper[0]] = [
        c["covariance"] for c in parts
    ]
    return GmmModel(
        means=np.array([c["mean"] for c in parts], dtype=float),
        covariances=covariances,
        weights=np.array([c["weight"] for c in parts], dtype=float),
        labels=tuple(c["label"] for c in parts),
        fit_trace=doc["fit_trace"],
    )
