"""Write ``expected.json``: the request pools and the seed-state answers.

Usage (from the repository root): python3 bench/make_expected.py

Run this only at a commit whose closed-form results are trusted, and only
when a workload's definition changes: the benchmark refuses to time a run
whose closed-form coefficient vectors differ from the digests stored here.
The surfaces are drawn once from fixed generator seeds.  For every candidate
request it stores the closed-form digest and the failure classes the float
paths showed at the commit that wrote the file, so that later changes to the
error rate read against a known base.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from workloads import (EXPECTED_PATH, SETUP_ARGV, SWEEP_BOX, coeff_digest, package_env,
                       sequence_digest)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from verlinde import oracles, prequant, quantization  # noqa: E402

from worker import run_request  # noqa: E402

# high_level: one surface per level stratum of 4*[16..100]; the (genus, star
# count, random label count) triples are a shuffled walk through h <= 2,
# r <= 4, n in 1..4.  Surface counts are odd here and in big_gamma, so the
# median request sits inside one surface's cluster of latencies rather than
# in the gap between two.
HIGH_LEVEL_SURFACES = 25
HIGH_LEVEL_CHOICES = 8

# big_gamma: (level, genus, star count) with |Gamma| = 2^(2h+r-1) from 2^12
# to 2^16; up to two random non-star labels are added to each.
BIG_GAMMA_SHAPES = ((4, 4, 5), (8, 3, 8), (12, 6, 3), (4, 5, 6), (8, 7, 3))
BIG_GAMMA_CHOICES = 96


def candidates(surface, choices) -> list[dict]:
    out = []
    for choice in choices:
        _, reference, failures = run_request(quantization, surface, choice)
        out.append({"psi": "".join(map(str, choice.psi_bits)),
                    "digest": coeff_digest(reference.element.coeffs),
                    "seed_state": failures})
    return out


def random_labels(rng: random.Random, k: int, n: int) -> list[int]:
    return [rng.choice([m for m in range(k + 1) if 2 * m != k]) for _ in range(n)]


def surface_entry(rng, k, h, labels, n_choices) -> dict:
    surface = prequant.SurfaceData(k, h, tuple(sorted(labels)))
    choices = prequant.enumerate_choices(surface)
    picked = rng.sample(choices, min(n_choices, len(choices)))
    return {"level": k, "genus": h, "labels": list(surface.labels),
            "choices": candidates(surface, picked)}


def high_level_pool() -> list[dict]:
    rng = random.Random("high_level/pool")
    levels = list(range(16, 101))
    shapes = [(h, r, n) for h in range(3) for r in range(5) for n in range(1, 5)]
    rng.shuffle(shapes)
    pool = []
    for i in range(HIGH_LEVEL_SURFACES):
        stratum = levels[len(levels) * i // HIGH_LEVEL_SURFACES:
                         len(levels) * (i + 1) // HIGH_LEVEL_SURFACES]
        h, r, n = shapes[i]
        k = 4 * rng.choice(stratum)
        labels = [k // 2] * r + random_labels(rng, k, n)
        pool.append(surface_entry(rng, k, h, labels, HIGH_LEVEL_CHOICES))
        print(f"high_level surface {i}: k={k} h={h} r={r} n={n}", file=sys.stderr)
    return pool


def big_gamma_pool() -> list[dict]:
    rng = random.Random("big_gamma/pool")
    pool = []
    for k, h, r in BIG_GAMMA_SHAPES:
        labels = [k // 2] * r + random_labels(rng, k, rng.randrange(3))
        pool.append(surface_entry(rng, k, h, labels, BIG_GAMMA_CHOICES))
        quantization._fs_gamma_data.cache_clear()
        print(f"big_gamma surface: k={k} h={h} r={r}", file=sys.stderr)
    return pool


def sweep_entry(size: str) -> dict:
    digests = []
    failures = Counter()
    for surface in oracles.sweep_surfaces(*SWEEP_BOX[size]):
        for choice in prequant.enumerate_choices(surface):
            _, reference, failed = run_request(quantization, surface, choice)
            digests.append(coeff_digest(reference.element.coeffs))
            failures.update(failed)
    return {"requests": len(digests), "digest": sequence_digest(digests),
            "seed_state_failures": dict(failures)}


def pool_entry(surfaces: list[dict]) -> dict:
    failures = Counter(f for s in surfaces for c in s["choices"] for f in c["seed_state"])
    return {"candidates": sum(len(s["choices"]) for s in surfaces),
            "seed_state_failures": dict(sorted(failures.items())),
            "surfaces": surfaces}


def main() -> None:
    setup = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, check=True,
                           capture_output=True, text=True, env=package_env(ROOT))
    expected = {
        "setup_stdout": setup.stdout,
        "sweep": {size: sweep_entry(size) for size in SWEEP_BOX},
        "high_level": pool_entry(high_level_pool()),
        "big_gamma": pool_entry(big_gamma_pool()),
    }
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
