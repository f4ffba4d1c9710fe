"""Host speed probe: a fixed piece of work timed right after every measured run.

The benchmark runs on a few cores shared with other tenants, and their load
changes how fast the same instructions run by a third or more within a few
minutes, for the fastest runs as much as for the median ones. The probe
times work of the kinds a crackfind run does -- a sparse LU factorization
and solve, small dense products, and interpreted loops over tuples and dicts
-- on fixed inputs built from numpy and scipy alone, so no change to
crackfind changes it. The benchmark divides each run's times by the probe
time measured right after that run and multiplies by ``REFERENCE_S``: its
end-to-end times read as seconds on a host where the probe takes
``REFERENCE_S``, near its time on a 2-CPU cloud host when the neighbours are
quiet. The raw times are printed beside them.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REFERENCE_S = 0.1
UNITS = 20

_N = 40
_T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_K = (sp.kron(sp.identity(_N), _T) + sp.kron(_T, sp.identity(_N))
      + 1e-3 * sp.identity(_N * _N)).tocsc()
_B = np.random.default_rng(0).standard_normal((_N * _N, 16))


def _unit():
    x = spla.splu(_K).solve(_B)
    total = float(np.sum(x.T @ _B))
    for i in range(4000):
        total += i * i % 7
    table = {}
    for i in range(2000):
        table[(i, i % 13)] = [i, float(i)]
    return total + len(table)


def measure():
    """Seconds the probe's fixed work takes now."""
    t0 = time.perf_counter()
    for _ in range(UNITS):
        _unit()
    return time.perf_counter() - t0
