"""SCAN index benchmark: one workload per run, closed loop, one client.

Usage (from the root of a checkout):

    python3 scanbench/run.py --workload orkut-query --seed 0 --seconds 15 --trace 0

Each operation is issued only after the previous one returns, from one
driver process on ``local[nproc]``. With ``--trace 0`` the run times the
workload end to end; with ``--trace 1`` it runs the per-layer profile
instead. Every operation is checked against the sequential GS*-Index
oracle outside the timed regions. Human-readable lines go first; the
last line of standard output is the JSON result. Run records (with the
spans of a traced run) are written to ``scanbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import session
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    run_id = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / "tmp" / f"{run_id}-{os.getpid()}"
    session.prepare_environment(ROOT, scratch)

    t0 = time.perf_counter()
    spark = session.start_session()
    session_s = time.perf_counter() - t0
    try:
        env = session.environment(ROOT, spark)
        g, warm_s, gen_s = workloads.setup(spark, wl, args.seed)
        setup_s = session_s + warm_s + statistics.median(gen_s)
        edges = g.to_pandas()
        env["graph"] = {
            "dataset": wl.graph.dataset, "n": g.num_vertices, "m": g.num_edges(),
        }
        spans, layer_map, counts = [], {}, {}
        if args.trace:
            import layers
            from spans import Tracer

            tracer = Tracer(spark, wl.name, run_id)
            metrics, counts, ops = layers.profile(
                spark, wl, g, edges, args.seed, tracer, gen_s, scratch
            )
            spans = tracer.records()
            layer_map = {name: moves for name, _, moves in layers.METRICS}
        else:
            measure = workloads.measure_approx if wl.approx else workloads.measure_query
            ops = measure(spark, wl, g, edges, args.seed, args.seconds)
            metrics = workloads.end_to_end(ops, setup_s)
        peak_rss_mb, cpu_s = session.peak_rss_mb(), session.cpu_seconds()
        g.unpersist()
    finally:
        session.stop_session(spark)
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "run_id": run_id, "env": env, "setup": {
            "session_s": session_s, "warm_up_s": warm_s, "generate_s": gen_s,
        },
        "ops_attempted": ops.attempted, "ops_failed": ops.failed,
        "peak_rss_mb": peak_rss_mb, "cpu_s": cpu_s, "times": ops.times, "aris": ops.aris,
        "metrics": metrics, "counts": counts, "layer_map": layer_map, "spans": spans,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1))

    print(f"# env {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    for name, m in counts.items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']} (row count, not a metric)")
    print(f"{wl.name} peak_rss_mb {peak_rss_mb:.6g} MB (driver and JVM)")
    if ops.aris:
        print(f"{wl.name} approx_ari_min {min(ops.aris):.6g} 1 "
              f"(at the Figure-10 point, over {len(ops.aris)} queries)")
    print(f"{wl.name} failed_frac {ops.failed / max(ops.attempted, 1):.6g} 1 "
          f"(ops_attempted {ops.attempted})")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
