"""ggsfc benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload {label,train,eval} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  The run
sets up the workload's inputs from the seed several times (setup_s is the
median), then repeats the workload's fixed pass until S seconds have
passed, timing every chunk on the reference-host clock (see REFERENCE_S).
Outputs are checked (see workloads.py), and the last line of stdout is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 a separate run wraps the layer entry points (tracing.py) and
reports the per-layer ones.  Metric names, units and directions live in
BENCHMARK.json only.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # matrices are at most 16x32: pin BLAS to one thread before numpy loads
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse
import hashlib
import heapq
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 0
SETUP_REPEATS = 9
# The host's speed drifts by up to 1.6x within minutes while steal time
# stays near zero (shared cores), and a fixed loop slows by the same factor
# as the program.  End-to-end times are therefore reported in seconds of a
# reference host, on which calibration() takes REFERENCE_S; the wall-clock
# figures are printed alongside.
REFERENCE_S = 0.005

# sha256 of one pass's outputs at DEFAULT_SEED and default sizes: the
# dataset text (label), the trained parameters and histories (train), the
# report CSVs (eval).  Any change to them means outputs are no longer
# bit-identical.
PINNED_DIGESTS = {
    "label": "db0f92b5fb8546a018953e3a0d2453b77a9e4d54280d1c9b03a724889ba3aa58",
    "train": "62bf7d271fe52af084ed9cfdf3e999ba62467ea28ce594bf7824d16c3089383b",
    "eval": "b1aae3fffb8b79e6cf2abf0ee832914f98a3c32632ff189da6424c6ac665564b",
}


class BenchError(Exception):
    pass


def import_program():
    """Import ggsfc from this checkout's src/, never from anywhere else."""
    if not (SRC / "ggsfc" / "__init__.py").is_file():
        raise BenchError(f"no ggsfc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ggsfc

    if Path(ggsfc.__file__).resolve().parent != (SRC / "ggsfc").resolve():
        raise BenchError(f"imported ggsfc from {ggsfc.__file__}, not from {SRC}")


def load_definitions() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def provenance() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((SRC / "ggsfc").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"{blas.get('openblas configuration', '')}".strip(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def calibration() -> float:
    """Seconds that one fixed loop of small numpy products and heap, set and
    tuple work takes right now.  It calls nothing of the program."""
    rng = np.random.default_rng(0)
    w, x = rng.standard_normal((32, 32)), rng.standard_normal(32)
    heap, seen = [], set()
    t0 = time.perf_counter()
    for i in range(1200):
        y = np.tanh(x @ w)
        seen.add((i % 97, i % 13))
        heapq.heappush(heap, (float(y[i % 32]), i))
        if len(heap) > 40:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def host_seconds(dt: float, before: float, after: float) -> float:
    """An interval in seconds of the reference host: scaled by how much
    slower than REFERENCE_S the calibration loop ran around it."""
    return dt * REFERENCE_S / ((before + after) / 2)


def measure_passes(wl, state, seconds: float, pass_fn=None, min_passes: int = 1,
                   calibrate: bool = True):
    """Repeat the workload's pass until `seconds` have passed and at least
    `min_passes` passes ran.

    Returns (per-pass wall times, chunk records of every pass, outputs of
    the first pass, digest of every pass).  A chunk record is (seconds,
    reference-host seconds, ops, kind); with `calibrate` the calibration
    loop runs between chunks, outside their times.
    """
    run_pass = pass_fn or wl.run_pass
    walls, chunks, digests = [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        records = []
        cal = [calibration() if calibrate else REFERENCE_S]
        resume = [time.perf_counter()]

        def mark(ops: int, kind: str) -> None:
            dt = time.perf_counter() - resume[0]
            cal.append(calibration() if calibrate else REFERENCE_S)
            records.append((dt, host_seconds(dt, cal[-2], cal[-1]), ops, kind))
            resume[0] = time.perf_counter()

        t0 = time.perf_counter()
        out = run_pass(state, mark)
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        chunks.append(records)
        digests.append(wl.digest(out))
        if first is None:
            first = out
        if t1 >= deadline and len(walls) >= min_passes:
            return walls, chunks, first, digests


def throughput(wl, chunks, column: int) -> tuple[float, dict[str, float]]:
    """Ops per second of one pass, overall and by kind of chunk, from chunk
    times in `column` (0: wall seconds, 1: reference-host seconds).

    Every pass runs the same chunks, so each chunk's time is its median over
    passes, which drops passes slowed by the host, and the pass time is the
    sum of those medians.
    """
    ops, secs = {}, {}
    for position in zip(*chunks):
        n, kind = position[0][2:]
        ops[kind] = ops.get(kind, 0) + n
        secs[kind] = secs.get(kind, 0.0) + statistics.median(c[column] for c in position)
    rate = sum(ops.values()) / sum(secs.values())
    return rate, {wl.kinds[k]: ops[k] / secs[k] for k in ops}


def run(argv: list[str] | None = None, sizes=None, spans_dir: Path = SPANS_DIR) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    definitions = load_definitions()
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")
    sizes = sizes or workloads.DEFAULT_SIZES
    wl = workloads.WORKLOADS[args.workload]
    print("provenance " + json.dumps(provenance(), sort_keys=True))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = calibration()
        t0 = time.perf_counter()
        try:
            state = wl.setup(args.seed, sizes)
        except workloads.CheckpointMismatch as exc:
            raise BenchError(str(exc)) from None
        dt = time.perf_counter() - t0
        setup_times.append((dt, host_seconds(dt, before, calibration())))

    failed = 0
    if args.trace:
        metrics, out, digests, ops, failed = traced_run(wl, state, args, sizes, spans_dir)
    else:
        walls, chunks, out, digests = measure_passes(wl, state, args.seconds)
        ops = wl.ops(state) * len(walls)
        rate, by_kind = throughput(wl, chunks, 1)
        wall_rate, _ = throughput(wl, chunks, 0)
        metrics = {
            "setup_s": statistics.median(s for _, s in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_per_s": rate,
        }
        print(f"passes {len(walls)} chunks {sum(map(len, chunks))}")
        print(f"detail wall_clock setup_s {statistics.median(d for d, _ in setup_times):.6g} "
              f"ops_per_s {wall_rate:.6g}")
        for name, value in by_kind.items():
            print(f"detail {name} {value:.6g} 1/s")

    # every pass must reproduce the first one bit for bit
    per_pass = wl.ops(state)
    failed += per_pass * sum(d != digests[0] for d in digests)
    checks = wl.check(state, out)
    failed += checks.failed
    print(f"checks {checks.checked - checks.failed}/{checks.checked} outputs verified")
    for name, value in wl.quality(state, out).items():
        print(f"quality {name} {value:.6g}")
    if args.seed == DEFAULT_SEED and sizes == workloads.DEFAULT_SIZES:
        pinned = PINNED_DIGESTS[wl.name]
        print(f"digest {wl.name} {digests[0]} "
              f"{'matches' if digests[0] == pinned else 'DIFFERS from pinned ' + pinned}")
        failed += per_pass if digests[0] != pinned else 0
    failed = min(failed, ops)
    print(f"detail error_rate {failed / ops:.6g} ratio")

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in definitions[kind]}
    if set(metrics) != set(declared):
        raise BenchError(f"computed {kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {declared[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": declared[n]} for n, v in metrics.items()},
    }))
    return 0


def traced_run(wl, state, args, sizes, spans_dir: Path):
    """Untraced passes for a third of the time, then traced passes.

    Traced counts must repeat exactly on every pass and equal the counts
    implied by the untraced outputs.  The tracing overhead compares warm
    passes only (the first is cold), each phase on the reference-host clock
    of the calibrations around it; calibrating between chunks would land
    inside the traced pass span.
    """
    import tracing
    import workloads

    cal = [calibration()]
    untraced, _, ref_out, ref_digests = measure_passes(
        wl, state, args.seconds / 3, min_passes=2, calibrate=False)
    cal.append(calibration())
    expected = wl.expected_counts(state, ref_out)

    setup_tracer = tracing.Tracer()
    with setup_tracer.installed():
        wl.setup(args.seed, sizes)
    nid, _, dur, _, _ = setup_tracer.arrays()
    pool = [i for i, n in enumerate(setup_tracer.names) if n == "topology.generate_pool"]
    pool_ms = float(dur[nid == pool[0]].sum()) * 1e3 if pool else 0.0

    tracer = tracing.Tracer()
    with tracer.installed():
        pass_fn = tracer.wrap(wl.run_pass, tracing.PASS_SPAN)
        walls, _, out, digests = measure_passes(
            wl, state, args.seconds - sum(untraced), pass_fn, calibrate=False)
    cal.append(calibration())
    if tracer.missing:
        print("trace: binding sites not found: " + ", ".join(tracer.missing))
    counts, first_pass_spans = tracing.pass_counts(tracer)
    tracer.save(spans_dir / f"spans-{wl.name}-seed{args.seed}.npz", first_pass_spans)

    ops = wl.ops(state) * len(walls)
    failed = 0
    if any(c != counts[0] for c in counts):
        print("trace: span counts differ between passes")
        failed += ops
    for name, want in expected.items():
        got = counts[0].get(name.removesuffix(".calls"), 0)
        if got != want:
            print(f"trace: {name} traced {got}, untraced outputs imply {want}")
            failed += wl.ops(state)

    metrics = tracing.layer_metrics(tracer, len(walls), wl.test_requests(state))
    metrics["topology.generate_pool.ms"] = pool_ms
    metrics["trace.overhead_ratio"] = (host_seconds(statistics.median(walls), *cal[1:])
                                       / host_seconds(statistics.median(untraced[1:]), *cal[:2]))
    quality = wl.quality(state, out)
    metrics.update({name: quality.get(name, 0.0) for name in workloads.QUALITY_METRICS})
    print(f"passes {len(untraced)} untraced, {len(walls)} traced; "
          f"{len(tracer.name_id)} spans, first pass written")
    # tracing must not change outputs either
    return metrics, out, ref_digests + digests, ops, failed


def main() -> int:
    try:
        return run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
