"""Fixed reference work that gauges how fast the machine runs right now.

The benchmark times this work every quarter second between ops and reports
op costs in units of its median duration in the run ("ref"), both in CPU
time of the process.  On a shared two-core machine the speed drifts: the
same construct op took 50 ms in one five-second window and 94 ms fifteen
seconds later, and CPU time drifts with it.  The ratio of op time to this
reference drifts much less, because both slow down together.  The work is
the two kinds the package spends its time on -- interpreter-bound loops and
numpy arithmetic over a 512 x 512 grid -- and uses nothing from the package,
so a change to the program cannot move it.
"""

import numpy as np

_AXIS = np.linspace(-1.5, 1.5, 512)
_GRID = _AXIS[None, :] + 1j * _AXIS[:, None]


def reference_work():
    """Run the fixed work once; returns a checksum so nothing is skipped."""
    counts = {}
    total = 0
    for i in range(40000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += i * i % 13

    w = np.ones_like(_GRID)
    for c in (1.0, -0.5, 0.25):
        w = w * _GRID + c
    return total + len(counts), float(np.abs(w).sum())
