"""The requests a benchmark run makes, derived from the workload seed.

A request is one (surface, choice) pair.  ``sweep`` walks the fixed
criterion-4 box through ``oracles.sweep_surfaces`` inside the program, so
its requests do not depend on the seed.  ``high_level`` and ``big_gamma``
draw from the surfaces and candidate choices stored in ``expected.json``
(written by ``make_expected.py`` with the closed-form digest of every
candidate): the seed picks the choices on each surface and their order.
The surfaces themselves are fixed so that every seed costs the same;
drawing levels and labels per seed moved the median latency by 10-20 %
between seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("sweep", "high_level", "big_gamma")
SIZES = ("full", "smoke")

# (max_k, max_r, max_h) of the sweep box; gamma_cap keeps its default 2^9.
SWEEP_BOX = {"full": (20, 5, 2), "smoke": (6, 3, 1)}

# Per pool workload and size: (surfaces used, choices drawn per surface).
POOL_SHAPE = {
    "high_level": {"full": (None, 1), "smoke": (4, 1)},
    "big_gamma": {"full": (None, 48), "smoke": (1, 4)},
}


# The cold start timed as setup_s: ``verlinde quantize`` on one request, all paths.
SETUP_ARGV = ("-m", "verlinde", "quantize", "--level", "4", "--labels", "2,2",
              "--psi", "0,0", "--path", "both", "--reduced", "--format", "json")


def package_env(root: Path) -> dict:
    """The environment for child interpreters: the checkout's ``src`` only."""
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def coeff_digest(coeffs) -> str:
    """Digest of one closed-form coefficient vector."""
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()[:16]


def sequence_digest(digests: list[str]) -> str:
    """Digest of a whole pass's closed-form vectors, in request order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def pool_requests(pool: list[dict], workload: str, size: str, seed: int) -> list[tuple]:
    """(key, level, genus, labels, psi_bits) for every request of a pass.

    ``key`` is "<surface index>.<choice index>" into ``pool``.  Surfaces keep
    their pool order, so the heap the program builds up grows the same way
    for every seed.
    """
    n_surfaces, per_surface = POOL_SHAPE[workload][size]
    rng = random.Random(f"{workload}/{seed}")
    requests = []
    for s, surface in enumerate(pool[:n_surfaces]):
        for c in rng.sample(range(len(surface["choices"])), per_surface):
            psi = tuple(int(b) for b in surface["choices"][c]["psi"])
            requests.append((f"{s}.{c}", surface["level"], surface["genus"],
                              tuple(surface["labels"]), psi))
    return requests
