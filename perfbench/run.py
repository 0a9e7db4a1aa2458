"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every round runs in a fresh interpreter (worker.py), one process at a
time, so shadiv's in-process caches start cold in each, as for a user of
the command line.  Rounds repeat while the next one is expected to end
within --seconds; at least one runs, and with --trace 1 at least one
untraced and one traced round.  Set-up is also timed in extra processes
that stop after it.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The lines above it give
the same figures for a reader, with sample counts and the tail latency.
Results and spans go to perfbench/out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170  # every worker is stopped by then, so the run ends within 180 s
SETUP_SAMPLES = 4  # set-up-only processes per untraced run, next to one per round
MIN_ROUNDS = 2  # so every slice of a round has a repetition; traced runs: one of each kind

sys.path.insert(0, str(HERE))
import probe  # noqa: E402
import workloads  # noqa: E402


class WorkerFailed(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one process, no extra threads
    return env


def run_worker(args, deadline, cpu):
    """Start worker.py on one CPU, wait for it, return (set-up seconds, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--cpu", str(cpu)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"worker {' '.join(args)} ran past the run's time limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    before, after = result["setup_probes_s"]
    setup = (result["ready"] - start - before) * 2 * probe.REFERENCE_S / (before + after)
    return setup, result


def scaled(r, key):
    """A round's slices or latencies at the reference speed, by the probes around each slice."""
    around = r["probes_s"]
    return [x * 2 * probe.REFERENCE_S / (around[i] + around[i + 1]) for i, x in enumerate(r[key])]


def fastest(rounds, key):
    """Position by position, the minimum over the rounds; they repeat the same operations."""
    return [min(values) for values in zip(*(scaled(r, key) for r in rounds))]


def tail(latencies):
    """The highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(latencies)
    if n < 40:
        return None
    q = math.floor(100 * (n - 10) / n)
    rank = math.ceil(q * n / 100)
    return q, sorted(latencies)[rank - 1]


def measure(workload, seed, seconds, traced, deadline):
    base = ["--workload", workload.name, "--seed", str(seed), "--primes", ",".join(map(str, workload.primes))]
    # Each CPU's speed drifts on its own (see probe.py), so successive
    # processes alternate between the CPUs allowed, each pinned to one.
    cpus = sorted(os.sched_getaffinity(0))
    setups = []
    run_worker(base + ["--setup-only"], deadline, cpus[0])  # compiles bytecode once; not measured
    if not traced:
        for i in range(SETUP_SAMPLES):
            setups.append(run_worker(base + ["--setup-only"], deadline, cpus[i % len(cpus)])[0])
    rounds = []
    start = time.monotonic()
    longest = 0.0
    while True:
        trace_this = traced and len(rounds) % 2 == 1
        args = list(base)
        if trace_this:
            args += ["--trace", "--spans", str(OUT / f"{workload.name}-seed{seed}-round{len(rounds)}.spans.json")]
        t = time.monotonic()
        setup, result = run_worker(args, deadline, cpus[len(rounds) % len(cpus)])
        result["total_s"] = time.monotonic() - t
        result["setup_s"] = setup
        result["traced"] = trace_this
        longest = max(longest, result["total_s"])
        rounds.append(result)
        if len(rounds) >= MIN_ROUNDS and time.monotonic() - start + longest > seconds:
            return setups, rounds


def end_to_end(setups, rounds):
    """Timings repeat-and-min over the untraced rounds; set-up and memory as medians."""
    plain = [r for r in rounds if not r["traced"]]
    wall = sum(fastest(plain, "segments_s"))
    ops = fastest(plain, "latencies_s")
    return {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": statistics.median(ops) * 1000,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(spec, rounds):
    """Each layer value from the fastest traced round; overhead against the fastest untraced one."""
    traced = min((r for r in rounds if r["traced"]), key=lambda r: r["wall_s"])
    plain = [r for r in rounds if not r["traced"]]
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = sum(scaled(traced, "segments_s")) - sum(fastest(plain, "segments_s"))
        else:
            values[name] = traced["layers"].get(name, 0)
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shadiv" / "__init__.py").is_file():
        print(f"no shadiv sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    try:
        setups, rounds = measure(workload, args.seed, args.seconds, bool(args.trace), deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(spec, rounds)
        metrics = spec["per_layer"]
    else:
        values = end_to_end(setups, rounds)
        metrics = spec["end_to_end"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    errors = sorted({e for r in rounds for e in r["errors"] + r["exceptions"]})
    report = {
        "correct": not any(r["errors"] for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }

    plain = [r for r in rounds if not r["traced"]]
    print(
        f"{workload.name}  seed {args.seed}  rounds {len(plain)} untraced, {len(rounds) - len(plain)} traced"
        f"  set-up samples {len(setups) + len(plain)}  operations {attempted} attempted, {failed} failed"
    )
    for m in metrics:
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    probes = [x for r in plain for x in r["probes_s"]]
    print(
        f"  unscaled: wall_s {min(r['wall_s'] for r in plain):.6g} s (fastest round),"
        f" probe median {statistics.median(probes) * 1000:.4g} ms against {probe.REFERENCE_S * 1000:.4g} ms"
    )
    ops = fastest(plain, "latencies_s")
    tail_ms = tail(ops)
    if tail_ms is None:
        print(f"  op_tail_ms: not reported, {len(ops)} operations a round (fewer than 40)")
    else:
        print(f"  op_tail_ms: p{tail_ms[0]} over {len(ops)} operations = {tail_ms[1] * 1000:.6g} ms")
    for key in sorted({k for r in rounds for k in r["info"]}):
        seen = sorted({str(r["info"][key]) for r in rounds})
        print(f"  {key}: {', '.join(seen)}")
    for e in errors:
        print(f"  error: {e}")
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "setups_s": setups, "rounds": rounds}, indent=1)
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
