"""Reference kernel that measures how fast the machine runs right now.

On a shared machine the same command takes up to 1.8 times as long in one
minute as in another, because other tenants load the cores, caches and
memory that this process uses.  The per-run medians of raw command wall
times spread by 4-35 % between runs (quartile distance over median), too
much to tell a 10 % change from noise.

So every timed command runs between two calls of this fixed kernel, and its
wall time is scaled by ``REFERENCE_S / t_ref``, with ``t_ref`` the mean of the
two kernel times around it.  A scaled time reads as the time the command
would take on a machine where the kernel takes ``REFERENCE_S``.  The kernel
mixes interpreter work, small numpy array operations, a cumulative-sum
search and JSON encoding, as the program's commands do, so the two slow down
together.  It uses nothing from smcmix, so a change to the program cannot
move it.  Raw wall times are kept in the results file.

A set-up is mostly the import of Python modules and extension libraries in
a fresh process, which this kernel, running in a warm process, does not
track: scaled by it, set-up times spread more than unscaled ones, and a
reference that imports standard-library modules tracks them little better,
because most of a set-up is loading numpy, scipy and jsonschema from disk or
page cache.  So each set-up probe runs between two reference import
processes, fresh interpreters that import the program's third-party
dependencies (numpy, scipy.linalg, scipy.special, jsonschema) and nothing
from smcmix, and its time is scaled by ``IMPORT_REFERENCE_S`` over their
mean.  In ten groups of seven probes, the median set-up time spread by 17 %
(quartile distance over median) unscaled, 9 % scaled by the standard-
library reference and 2.5 % scaled so.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.030  # the kernel's time on an idle core of the reference machine
IMPORT_REFERENCE_S = 0.45  # the reference import's time on the reference machine

_IMPORT_REFERENCE = """
import time
t0 = time.perf_counter()
import numpy, scipy.linalg, scipy.special, jsonschema
print(repr(time.perf_counter() - t0))
"""


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1024, 2))
    rotation = np.array([[0.9, 0.1], [-0.1, 0.9]])
    total = 0.0
    t0 = time.perf_counter()
    for i in range(300):
        y = x @ rotation
        w = np.exp(-0.5 * np.sum(y * y, axis=1))
        idx = np.searchsorted(np.cumsum(w) / w.sum(), rng.random(64))
        total += float(w[idx].mean())
        json.dumps({"step": i, "values": [total, i * 0.5]})
        x = y + 0.01 * rng.standard_normal(x.shape)
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two kernel runs into scaled time."""
    return REFERENCE_S / (0.5 * (before + after))


def import_reference_seconds() -> float:
    """Import time of the program's dependencies in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_REFERENCE], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)
