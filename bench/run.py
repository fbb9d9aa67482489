"""Layered benchmark of the verlinde package.

Usage, from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

An operation (op) is one request for a (surface, choice) pair, answered along
all three paths as ``verlinde quantize --path both --reduced`` does: the
closed form (``quantize_surface``) is the reference, and ``fs_formula`` and
``reduced_quantization`` are compared against it.  An op fails when a path
raises or disagrees; each failure is recorded as "<path>:<class>".  Load is
a closed loop: one caller in one process, the next op after the previous
one completes.  Every pass runs in a fresh interpreter (``worker.py``), so
the package's lru caches start cold, as in each CLI or library session.

Workloads (requests in ``workloads.py``, candidates in ``expected.json``):

* ``sweep``: the criterion-4 box, k <= 20, r <= 5, h <= 2, labels from
  {0, 1, k/2, k}, every choice, |Gamma| <= 2^9, in ``sweep_surfaces``
  order: 31,324 ops over 1,141 surfaces, the traffic of ``verlinde
  verify``.  Validation (prequant) and per-surface S-matrix tables dominate.
* ``high_level``: one op on each of 25 surfaces with k in 4*[16..100],
  h <= 2, up to 4 star labels and 1-4 random labels.  The exact fusion
  product at large k dominates; the float paths cross their precision
  frontier, so most ops fail at the seed commit, and are counted as such.
* ``big_gamma``: 48 choices on each of 5 surfaces with k in {4, 8, 12} and
  |Gamma| from 2^12 to 2^16.  Building the per-surface Gamma tables
  (``enumerate_gamma``, ``phase_factor``, dense |Gamma| x (k+1) rows) sets
  time and memory; many choices share one table.

With ``--trace 0`` a run makes round(seconds / nominal pass time) passes,
each over the same requests, and takes for every request the median of its
times over the passes.  Times are reported at a fixed reference speed
(``speed.py``): the CPU speed of the shared host drifts by up to 1.7x in
regimes lasting seconds to minutes, so each pass's times are scaled by the
median of the speed probes taken during it; the result file and the
printout keep the times as measured too.  The end-to-end metrics: ``ops_per_s`` (successful requests
per wall second; a request's wall time is its latency plus the gap before
it, which holds the sweep's own enumeration), ``op_p50_ms``,
``op_tail_ms`` (the latency with exactly ten requests above it; its
percentile and the sample count are printed), ``peak_rss_mb`` (largest over
the passes) and ``setup_s`` (median cold start of ``python -m verlinde
quantize`` on one request, sampled before every pass).  It prints
``error_rate`` too, failed over attempted ops, which is 0 on ``sweep``.

With ``--trace 1`` a run makes one untraced and one traced pass over the
same requests.  The traced pass wraps the public functions of each module
(``tracer.py``) and reports per-layer calls, self time and failures, extra
counters, cache hit ratios, ``cli.import_s`` and the tracing overhead
(traced minus untraced wall time).  Self times are as measured in the traced
pass; the two wall times and the overhead are at the reference speed.  Which end-to-end metric each layer
metric should move:

* prequant validation self time -> sweep ops_per_s; barely high_level.
* fusion_ring.multiply_coeff_vectors -> high_level ops_per_s, op_p50_ms and
  op_tail_ms; barely sweep and big_gamma.
* enumerate_gamma, phase_factor and the fs cache -> big_gamma ops_per_s and
  peak_rss_mb.
* round_to_integer failures and worst_margin -> error_rate on high_level
  and big_gamma.
* cli.import_s -> setup_s.

Before timing anything is reported, every closed-form coefficient vector is
checked against the digests in ``expected.json``, and the op count against
the expected count; a mismatch exits with status 3 and prints no result.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a result file with the machine,
versions, commit and seed goes to ``bench/results/`` (spans too, when
tracing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

from speed import PROBE_REFERENCE_S, probe_s
from tracer import per_layer_units
from workloads import (BENCH_DIR, SETUP_ARGV, SIZES, WORKLOADS, load_expected,
                       package_env, pool_requests, sequence_digest)

ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

# Seconds one pass takes at the seed commit on a quiet 2-core x86-64
# container; they set the number of passes a run makes, never their size.
NOMINAL_PASS_S = {"sweep": 9.0, "high_level": 6.0, "big_gamma": 5.0}
SETUP_SAMPLES_PER_PASS = 2
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The benchmark could not run (no package, a crashed pass, a timeout)."""


class GateError(RuntimeError):
    """A closed-form result or the op count differs from ``expected.json``."""


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
    return left


def cold_start(expected: dict, deadline: float) -> tuple[float, float]:
    """Wall time of one fresh ``python -m verlinde quantize``, as measured and
    at the reference speed; the output is checked."""
    before = probe_s()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=package_env(ROOT),
                          capture_output=True, text=True, timeout=remaining(deadline))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout != expected["setup_stdout"]:
        raise GateError(f"cold start exited {proc.returncode} with unexpected output: "
                        f"{proc.stdout!r} {proc.stderr[-500:]!r}")
    return elapsed, elapsed * 2 * PROBE_REFERENCE_S / (before + probe_s())


def run_pass(spec: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
                          cwd=ROOT, env=package_env(ROOT), capture_output=True, text=True,
                          timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} pass exited {proc.returncode}: "
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def gate(spec: dict, result: dict, expected: dict) -> Counter:
    """Check the pass's closed-form digests and op count; return the failure
    classes the seed commit showed on the same requests."""
    workload, size = spec["workload"], spec["size"]
    digests = result["digests"]
    if workload == "sweep":
        want = expected["sweep"][size]
        if len(digests) != want["requests"]:
            raise GateError(f"sweep made {len(digests)} requests, expected {want['requests']}")
        if sequence_digest(digests) != want["digest"]:
            raise GateError("sweep closed-form digest differs from expected.json")
        return Counter(want["seed_state_failures"])
    pool = expected[workload]["surfaces"]
    keys = [r[0] for r in pool_requests(pool, workload, size, spec["seed"])]
    if result["keys"] != keys:
        raise GateError(f"{workload} made {len(result['keys'])} requests, expected {len(keys)}")
    seed_state = Counter()
    for key, digest in zip(keys, digests):
        s, c = map(int, key.split("."))
        candidate = pool[s]["choices"][c]
        if digest != candidate["digest"]:
            raise GateError(f"{workload} request {key}: closed-form digest {digest}, "
                            f"expected {candidate['digest']}")
        seed_state.update(candidate["seed_state"])
    return seed_state


def latency_summary(latencies: list[float]) -> dict:
    """Median, and the highest percentile with at least ten ops beyond it
    (the maximum when there are ten ops or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail_index = n - 11 if n > 10 else n - 1
    return {"samples": n, "p50_ms": statistics.median(ordered),
            "tail_ms": ordered[tail_index], "tail_percentile": 100.0 * (tail_index + 1) / n}


def read_commit() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, first_pass: dict) -> dict:
    uname = os.uname()
    return {"machine": {"system": uname.sysname, "release": uname.release,
                        "arch": uname.machine, "cpus": os.cpu_count()},
            "nproc": len(os.sched_getaffinity(0)),
            "python": first_pass["python"], "numpy": first_pass["numpy"],
            "commit": read_commit(), "source_sha256": source_digest(),
            "workload": args.workload, "size": args.size, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def spec_for(args, trace: bool) -> dict:
    return {"root": str(ROOT), "workload": args.workload, "size": args.size,
            "seed": args.seed, "trace": trace,
            "spans_path": str(RESULTS_DIR / f"spans-{args.workload}-{args.size}"
                                            f"-seed{args.seed}.bin")}


def run_passes(args, expected: dict, deadline: float):
    """Make the passes, gating each one as it ends, and sample the set-up time
    before each untraced pass.  Returns (passes, set-up samples, seed-state
    failure classes on the same requests)."""
    if args.trace:
        plan = [spec_for(args, False), spec_for(args, True)]
    else:
        count = 1 if args.size == "smoke" else \
            max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        plan = [spec_for(args, False)] * count
    passes, setup_samples, seed_state = [], [], Counter()
    for spec in plan:
        if not args.trace:
            setup_samples += [cold_start(expected, deadline)
                              for _ in range(SETUP_SAMPLES_PER_PASS)]
        result = run_pass(spec, deadline)
        seed_state.update(gate(spec, result, expected))
        passes.append(result)
    return passes, setup_samples, seed_state


def per_request_median(passes: list[dict], field: str) -> list[float]:
    """Per request, the median of ``field`` over the passes."""
    return [statistics.median(values) for values in zip(*(p[field] for p in passes))]


def scaled_wall_s(result: dict) -> float:
    """A pass's wall time at the reference speed: its requests' latencies and
    the gaps before them."""
    return (sum(result["gaps_ms"]) + sum(result["latencies_ms"])) / 1e3


def end_to_end(passes: list[dict], setup_samples: list[tuple[float, float]],
               lat: dict) -> dict:
    for p in passes:
        p["slot_ms"] = [gap + t for gap, t in zip(p["gaps_ms"], p["latencies_ms"])]
    slots = per_request_median(passes, "slot_ms")
    failed = set().union(*(p["failures"] for p in passes))
    return {"ops_per_s": (len(slots) - len(failed)) / (sum(slots) / 1e3),
            "op_p50_ms": lat["p50_ms"], "op_tail_ms": lat["tail_ms"],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(scaled for _, scaled in setup_samples)}


def per_layer(passes: list[dict]) -> dict:
    untraced, traced = (scaled_wall_s(p) for p in passes)
    values = dict(passes[1]["layers"])
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke: tiny inputs for checking the benchmark itself")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        if not (ROOT / "src" / "verlinde" / "__init__.py").is_file():
            raise BenchError(f"no verlinde package under {ROOT / 'src'}")
        expected = load_expected()
        passes, setup_samples, seed_state = run_passes(args, expected, deadline)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 3
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p["digests"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    classes = Counter(c for p in passes for fs in p["failures"].values() for c in fs)
    lat = latency_summary(per_request_median(passes, "latencies_ms"))
    raw_lat = latency_summary(per_request_median(passes, "raw_latencies_ms"))
    if args.trace:
        values, units = per_layer(passes), per_layer_units()
    else:
        values, units = end_to_end(passes, setup_samples, lat), END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "environment": environment(args, passes[0]),
        "passes": [{"wall_s": p["wall_s"], "scaled_wall_s": scaled_wall_s(p),
                    "probe_median_s": statistics.median(p["probes_s"]),
                    "import_s": p["import_s"], "peak_rss_mb": p["peak_rss_mb"],
                    "requests": len(p["digests"]), "failed": len(p["failures"])}
                   for p in passes],
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failure_classes": dict(sorted(classes.items())),
        "seed_state_failure_classes": dict(sorted(seed_state.items())),
        "latency": lat, "latency_as_measured": raw_lat,
        "setup_samples_s": setup_samples, "metrics": metrics,
    }
    if args.trace:
        record["spans"] = passes[1]["spans"]
    RESULTS_DIR.mkdir(exist_ok=True)
    result_path = RESULTS_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, {len(passes)} pass(es), "
          f"{attempted} ops, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'error_rate':<52} {failed / attempted:>14.6g} ratio ({failed} / {attempted})")
        print(f"  op_tail_ms is p{lat['tail_percentile']:.4g} of {lat['samples']} ops")
        print(f"  as measured, before scaling to the reference speed: op_p50_ms "
              f"{raw_lat['p50_ms']:.6g}, op_tail_ms {raw_lat['tail_ms']:.6g}, setup_s "
              f"{statistics.median(raw for raw, _ in setup_samples):.6g}, pass walls "
              f"{[round(p['wall_s'], 3) for p in passes]} s")
    print(f"  failure classes {dict(classes)}; at the seed commit {dict(seed_state)}")
    print(f"  result file {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
