"""Machine-speed reference for the end-to-end timings.

On a shared host the same op can take 1.75x longer for tens of seconds at a
time, on both cores, with no steal time: the physical core simply runs the
guest slower.  Raw wall-clock figures of two runs then differ by more than
any useful regression bound.  The benchmark therefore times a fixed
reference kernel next to the measured ops, on the same (pinned) core, and
scales each wall-clock time by ``REFERENCE_S / kernel seconds``: a time at
reference speed, where the kernel takes exactly ``REFERENCE_S``.

The kernel does the kind of work cqss ops do at small widths (small numpy
products and reductions, Python dict and list work) and calls no cqss code,
so a change to cqss moves the scaled times and a change of machine speed
does not.  The raw wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import time

REFERENCE_S = 2.0e-3
_ROUNDS = 300


def kernel_seconds() -> float:
    """Run the reference kernel once and return its wall-clock seconds."""
    import numpy as np

    mat = np.ones((4, 4), dtype=complex)
    vec = np.ones(64, dtype=complex)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(_ROUNDS):
        out = mat @ vec.reshape(4, -1)
        acc += float((abs(out) ** 2).sum())
        table = {j: 2 * j for j in range(20)}
        acc += sum(table.values())
    return time.perf_counter() - t0
