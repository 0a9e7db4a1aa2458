"""One round of one workload, in a fresh interpreter.  run.py starts it.

The worker first does the set-up every start of the program pays: it
imports shadiv and builds the GL2 tables of the workload's primes.  It
notes the monotonic clock when that is done; the clock is system-wide, so
the parent measures set-up from the moment it started the process.  The
probe (probe.py) is timed just before and just after set-up.  Then the
worker builds the seeded inputs, runs the timed round, reads its own peak
resident set, checks the outputs and prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--primes 5,7]
        [--trace] [--spans PATH] [--setup-only] [--cpu K]
"""

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    # from run.py: workloads.py, which knows them, is imported only after set-up
    ap.add_argument("--primes", default="", help="GL2 tables built during set-up")
    ap.add_argument("--trace", action="store_true", help="record spans around shadiv's functions")
    ap.add_argument("--spans", help="where a traced round writes its spans")
    ap.add_argument("--setup-only", action="store_true", help="exit after set-up")
    ap.add_argument("--cpu", type=int, help="run on this CPU only")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    import probe

    probe_before, _ = probe.timed()
    import shadiv

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    for p in (int(x) for x in args.primes.split(",") if x):
        shadiv.gl2.ambient(p)
    ready = time.monotonic()
    probe_after, _ = probe.timed()
    setup = {"ready": ready, "setup_probes_s": [probe_before, probe_after]}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inp = workload.inputs(args.seed)
    cache_before = shadiv.elliptic.trace_at.cache_info()
    rnd = workload.run(shadiv, inp, tracer or tracing.NullTracer())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        **setup,
        "wall_s": rnd.wall,
        "segments_s": rnd.segments,
        "probes_s": rnd.probes,
        "latencies_s": rnd.latencies,
        "peak_rss_mb": rss_mb,
        "info": rnd.info,
    }
    if tracer is not None:
        tracer.uninstall()
        cache_after = shadiv.elliptic.trace_at.cache_info()
        layers = tracer.layer_values()
        layers["elliptic.trace_at.hits"] = cache_after.hits - cache_before.hits
        layers["elliptic.trace_at.misses"] = cache_after.misses - cache_before.misses
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    failed, errors = workload.check(shadiv, inp, rnd)
    result["attempted"] = len(rnd.outputs)
    result["failed"] = sorted(failed)
    result["errors"] = errors
    result["exceptions"] = [
        f"operation {i}: {type(out).__name__}: {out}"
        for i, out in enumerate(rnd.outputs)
        if isinstance(out, Exception)
    ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
