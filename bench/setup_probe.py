"""Set-up cost of a fresh process: ``import catwalk``, then the first LAPACK call.

Usage: python3 bench/setup_probe.py DIM   (with catwalk importable)

Prints one JSON line with ``import_s``, ``lapack_first_s`` (one
``np.linalg.eigh`` of a DIM x DIM complex Hermitian matrix, DIM being the
Fock oracle's 2 * cutoff) and the path catwalk was imported from.
"""

import json
import sys
import time

t0 = time.perf_counter()
import catwalk  # noqa: E402
t1 = time.perf_counter()

import numpy as np  # noqa: E402  (already loaded by catwalk)

dim = int(sys.argv[1])
rng = np.random.default_rng(0)
m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
h = m + m.conj().T
t2 = time.perf_counter()
np.linalg.eigh(h)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "lapack_first_s": t3 - t2,
                  "catwalk": catwalk.__file__}))
