"""The machine-speed probes that times are scaled by.

On a shared host the speed of one core drifts by up to 2x within minutes,
as other tenants load it, and the drift moves every timing of a run
together. The benchmark therefore times fixed kernels between commands (and
in every set-up interpreter) and scales each time by a nominal kernel time
over the kernel's median time near that command. A change to the program
leaves the kernels alone, so it moves the scaled time one for one.

Work of different kinds slows by different amounts under the same load, so
there are two kernels, and each scales the work it resembles:

- ``interp`` scales everything but dense solves. It is floats in lists and
  tuples with ``.17g`` formatting, plus a small dense solve, because the
  program's own interpreted work mixes Python with small numpy calls and
  slows less than pure Python does.
- ``dense`` scales the time spent inside ``numpy.linalg.solve``. It is a
  dense 500 x 500 solve. Large dense solves slow far less than interpreted
  work: under the same load, an N = 1000 solve slowed by 1.40x while the
  Python half of ``interp`` slowed by 1.68x.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel times, in seconds, at the speed the scaled figures refer to: about
# their times on the 2-vCPU Xeon host the reference figures come from when
# that host is quiet.
NOMINAL_S = {"interp": 2.5e-3, "dense": 5.0e-3}

_SMALL = np.diag(np.linspace(1.0, 2.0, 300)) + 0.01 * np.ones((300, 300))
_LARGE = np.diag(np.linspace(1.0, 2.0, 500)) + 0.01 * np.ones((500, 500))


def _interp() -> None:
    pairs = [(i * 0.001, i * 0.001 + 1.0) for i in range(3000)]
    ",".join(format(a * b, ".17g") for a, b in pairs[:800])
    np.linalg.solve(_SMALL, _SMALL[0])


def _dense() -> None:
    np.linalg.solve(_LARGE, _LARGE[0])


KERNELS = {"interp": _interp, "dense": _dense}


def probe(kind: str, repeats: int = 1) -> list[tuple[float, float]]:
    """(midpoint, seconds) of ``repeats`` consecutive runs of one kernel."""
    kernel = KERNELS[kind]
    out = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        out.append((0.5 * (t0 + t1), t1 - t0))
    return out
