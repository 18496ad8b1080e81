"""Gesture segmentation of robot kinematic trajectories.

Segments multi-channel kinematic recordings into gesture classes by
fitting a Gaussian mixture over sliding-window-augmented states,
initialized from a handful of annotated demonstrations.
"""

import os
import sys

# BLAS runs one thread: EM splits its kernels across Python threads instead
# (kinseg.gmm), and one-thread BLAS keeps the bits of every sum over rows
# independent of the core count. The variables only act before numpy loads
# its BLAS, so they are set only if numpy is not imported yet; a value the
# caller set is kept either way.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for _var in _BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")
# Whether the pin holds; without it the EM kernels stay on the calling thread.
BLAS_PINNED = all(os.environ.get(var) == "1" for var in _BLAS_THREAD_VARS)

from kinseg.ingest import (  # noqa: E402  (after the pin)
    Segment,
    parse_kinematics,
    parse_transcript,
)

__all__ = [
    "Segment",
    "parse_kinematics",
    "parse_transcript",
]

__version__ = "0.1.0"
