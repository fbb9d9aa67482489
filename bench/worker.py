"""One benchmark pass in a fresh interpreter, so the package caches start cold.

Usage: python3 bench/worker.py '<json spec>'

The spec names the checkout root, workload, size, seed, whether to trace,
and where to write the spans.  The pass prints one JSON object: for each
request its latency, the time since the previous request ended (the
program's own enumeration, for the sweep), its closed-form digest and its
failure classes; the speed probes taken between requests, the wall time,
peak resident memory, and with tracing the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import PROBE_REFERENCE_S, probe_s
from tracer import Tracer
from workloads import SWEEP_BOX, coeff_digest, load_expected, pool_requests


# Seconds between speed probes; a probe takes about PROBE_REFERENCE_S.
PROBE_EVERY_S = 0.25


def requests(spec: dict, prequant, oracles):
    """(key, surface, choice) in request order.  Pool requests are built up
    front; the sweep enumerates lazily inside the program, exactly as
    ``verlinde verify`` does, so its enumeration counts in the pass."""
    workload, size = spec["workload"], spec["size"]
    if workload == "sweep":
        return ((None, surface, choice)
                for surface in oracles.sweep_surfaces(*SWEEP_BOX[size])
                for choice in prequant.enumerate_choices(surface))
    pool = load_expected()[workload]["surfaces"]
    return [(key, prequant.SurfaceData(k, h, labels), prequant.PrequantChoice(psi))
            for key, k, h, labels, psi in pool_requests(pool, workload, size, spec["seed"])]


def run_request(quantization, surface, choice):
    """All three paths on one request, as ``quantize --path both --reduced``.

    Returns (latency in s, closed-form result or None, failure classes).
    A path fails when it raises or disagrees with the closed form.
    """
    failures = []
    reference = None
    start = time.perf_counter()
    try:
        reference = quantization.quantize_surface(surface, choice)
    except Exception as exc:  # recorded by class; the pass keeps going
        failures.append(f"quantize_surface:{type(exc).__name__}")
    try:
        through_s = quantization.fs_formula(surface, choice)
        if reference is not None and through_s.element != reference.element:
            failures.append("fs_formula:mismatch")
    except Exception as exc:
        failures.append(f"fs_formula:{type(exc).__name__}")
    try:
        reduced = quantization.reduced_quantization(surface, choice)
        if reference is not None and reduced != reference.reduced:
            failures.append("reduced_quantization:mismatch")
    except Exception as exc:
        failures.append(f"reduced_quantization:{type(exc).__name__}")
    return time.perf_counter() - start, reference, failures


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import verlinde.cli  # noqa: F401  (cold import of the whole package)
    import_s = time.perf_counter() - start
    import numpy
    import verlinde
    from verlinde import oracles, prequant, quantization
    if src.resolve() not in Path(verlinde.__file__).resolve().parents:
        raise SystemExit(f"imported verlinde from {verlinde.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    latencies, gaps, digests, keys, failures = [], [], [], [], {}
    probes = [probe_s()]
    todo = requests(spec, prequant, oracles)
    start = previous_end = last_probe = time.perf_counter()
    for i, (key, surface, choice) in enumerate(todo):
        gaps.append(time.perf_counter() - previous_end)
        if tracer is not None:
            tracer.op_id = i
        latency, reference, failed = run_request(quantization, surface, choice)
        if tracer is not None:
            tracer.op_id = -1
        latencies.append(latency)
        digests.append(coeff_digest(reference.element.coeffs) if reference else "error")
        keys.append(key)
        if failed:
            failures[i] = failed
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe_s())
            last_probe = time.perf_counter()
        # The gap to the next request excludes this bookkeeping and the probe.
        previous_end = time.perf_counter()
    wall_s = time.perf_counter() - start
    probes.append(probe_s())
    # One factor per pass: the median probe follows the host's speed regime,
    # while a single probe right after a large allocation runs slow for
    # reasons of the program's own heap.
    scale = PROBE_REFERENCE_S / statistics.median(probes)

    out = {
        "import_s": import_s,
        "wall_s": wall_s,
        "latencies_ms": [t * scale * 1e3 for t in latencies],
        "gaps_ms": [t * scale * 1e3 for t in gaps],
        "raw_latencies_ms": [t * 1e3 for t in latencies],
        "probes_s": probes,
        "digests": digests,
        "keys": keys,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        layers = tracer.layer_metrics(quantization)
        layers["cli.import_s"] = import_s
        out["layers"] = layers
        out["spans"] = tracer.write_spans(Path(spec["spans_path"]))
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
