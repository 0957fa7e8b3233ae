#!/usr/bin/env python3
"""The repo benchmark: simulated ISS behaviour and the host cost of producing it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the simulator from source with dune,
then drives perfbench/iss_bench.exe, one fresh process per simulated run.

--trace 0  timed runs, tracing off: constructs the cluster in a few fresh
           processes, then repeats the seeded run as often as the S-second
           budget allows (at least twice), checks that every repeat produced
           bit-identical simulated outputs, and reports the end-to-end
           metrics (host times and heap as medians over the repeats, host
           times scaled to a reference host speed).
--trace 1  one untraced run with GC timing, one traced run (lifecycle
           tracer, metric registry, conformance checker), per-call costs
           of the leaf layers and the engine microbenchmark's mixes;
           reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A failed build or check exits 1 without printing it.
See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "_build", "default")
BENCH_EXE = os.path.join(BUILD, "perfbench", "iss_bench.exe")
ENGINE_EXE = os.path.join(BUILD, "bench", "engine_bench.exe")

WORKLOADS = ["iss-pbft-32", "iss-raft-128", "iss-hotstuff-16-crash"]

# Fresh processes that only construct the cluster; each timed run adds one
# more construction to the setup_s median.
SETUP_PROCS = 3
# Host seconds of one reference chunk (iss_bench.ml, reference_chunk) on the
# 2-core x86-64 container the README's figures come from.  Every host time
# is scaled by REFERENCE_S / the median chunk time measured where that host
# time was taken, so wall_s and setup_s read as seconds on that container at
# its usual speed, whatever the shared host's speed was during the run.
REFERENCE_S = 0.00055
MIN_REPEATS = 2
MAX_REPEATS = 8
# Scale of bench/engine_bench.exe's two mixes (1.0 = 4M events each).
ENGINE_SCALE = "0.1"
CHILD_TIMEOUT_S = 150


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child(args, env=None):
    """Run a child to completion; return its last stdout line as JSON."""
    try:
        proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{' '.join(args)} timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise CheckFailed(f"{' '.join(args[1:3])} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise CheckFailed(f"{' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        raise CheckFailed("no dune-project: run from the root of a full checkout")
    # No shared dune cache: the build reads and writes only this checkout.
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "perfbench/iss_bench.exe", "bench/engine_bench.exe"],
        cwd=ROOT, capture_output=True, text=True, timeout=870)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise CheckFailed("build failed")


def bench(*args, env=None):
    return child([BENCH_EXE, *map(str, args)], env=env)


def check_sim(sim, what):
    """Per-run output checks shared by timed and traced runs."""
    if sim["failed"] != 0:
        raise CheckFailed(f"{what}: {sim['failed']} requests neither delivered nor given up")
    if sim["probe_completed"] != sim["delivered"]:
        raise CheckFailed(f"{what}: the benchmark's delivery observer counted "
                          f"{sim['probe_completed']} quorum deliveries, "
                          f"the cluster {sim['delivered']}")
    if sim["lat_samples"] != sim["delivered"]:
        raise CheckFailed(f"{what}: {sim['lat_samples']} latency samples for "
                          f"{sim['delivered']} delivered requests")


def same_sim(a, b, what):
    """Every simulated output must repeat bit-identically for a seed."""
    diff = [k for k in a if a[k] != b[k]]
    if diff:
        raise CheckFailed(f"{what}: simulated outputs differ in {diff}: "
                          f"{[(a[k], b[k]) for k in diff]}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled(host_s, ref_s):
    """host_s at the reference speed, given the reference chunk times taken with it."""
    return host_s * REFERENCE_S / statistics.median(ref_s)


def timed(workload, seed, seconds):
    start = time.monotonic()
    setups = []
    for _ in range(SETUP_PROCS):
        s = bench("setup", workload, seed)
        setups.append(scaled(s["setup_s"], s["setup_ref_s"]))
    setup_spent = time.monotonic() - start
    runs = []

    def another_fits():
        # Start another repeat only if it should end within the budget.
        spent = time.monotonic() - start
        return spent + (spent - setup_spent) / len(runs) <= seconds

    while len(runs) < MIN_REPEATS or (len(runs) < MAX_REPEATS and another_fits()):
        r = bench("run", workload, seed)
        check_sim(r["sim"], f"timed run {len(runs) + 1}")
        if runs:
            same_sim(runs[0]["sim"], r["sim"], f"timed run {len(runs) + 1} vs run 1")
            if r["alloc_words_per_event"] != runs[0]["alloc_words_per_event"]:
                raise CheckFailed(
                    "allocated words per event differ between repeats: "
                    f"{runs[0]['alloc_words_per_event']} vs {r['alloc_words_per_event']}")
        runs.append(r)
        setups.append(scaled(r["setup_s"], r["setup_ref_s"]))
    sim = runs[0]["sim"]
    wall = [scaled(r["run_s"], r["ref_s"]) for r in runs]
    heap = [r["peak_heap_mb"] for r in runs]
    print(f"{workload} seed={seed}: {len(runs)} timed runs, "
          f"host run_s={['%.3f' % r['run_s'] for r in runs]} "
          f"host speed={['%.3f' % (REFERENCE_S / statistics.median(r['ref_s'])) for r in runs]}")
    print(f"  scaled: wall_s={['%.3f' % w for w in wall]} setup_s={['%.3f' % s for s in setups]}")
    print(f"  sim: submitted={sim['submitted']} delivered={sim['delivered']} "
          f"events={sim['events']} msgs={sim['net_msgs']} simulated_end={sim['end_s']}s")
    print(f"  sim_lat_p999_s={sim['lat_p999_s']:.6f} over n={sim['lat_samples']} samples")
    metrics = {
        "wall_s": metric(statistics.median(wall), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_heap_mb": metric(statistics.median(heap), "MB"),
        "sim_goodput_req_s": metric(sim["goodput_req_s"], "req/s"),
        "sim_lat_p50_s": metric(sim["lat_p50_s"], "s"),
        "sim_lat_p999_s": metric(sim["lat_p999_s"], "s"),
        "sim_outage_s": metric(sim["outage_s"], "s"),
        "terminal_frac": metric(sim["terminal_frac"], "frac"),
    }
    return sim, metrics


def engine_ns_per_event():
    """bench/engine_bench.exe's timer-heavy and message-heavy mixes, pooled."""
    proc = subprocess.run([ENGINE_EXE, "--scale", ENGINE_SCALE], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed("engine_bench failed")
    events = wall = 0.0
    for line in proc.stdout.splitlines():
        # "<mix>  <events> events in  <wall>s  =  <rate> events/s ..."
        parts = line.split()
        if len(parts) > 7 and parts[2:4] == ["events", "in"] and parts[7] == "events/s":
            events += int(parts[1])
            wall += int(parts[1]) / float(parts[6])
    if events == 0:
        raise CheckFailed("could not parse engine_bench output")
    return wall / events * 1e9


def traced(workload, seed):
    events_dir = os.path.join(ROOT, "_build", "perfbench-events")
    os.makedirs(events_dir, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events_dir)
    base = bench("run", workload, seed, "--gc", env=env)
    check_sim(base["sim"], "untraced run")
    tr = bench("traced", workload, seed)
    check_sim(tr["sim"], "traced run")
    same_sim(base["sim"], tr["sim"], "traced run vs untraced run")
    if tr["conform_violation"] is not None:
        raise CheckFailed(f"conformance checker: {tr['conform_violation']}")
    if tr["tracer_dropped"] != 0:
        raise CheckFailed(f"tracer dropped {tr['tracer_dropped']} events")
    if tr["quorum_requests"] != tr["sim"]["delivered"]:
        raise CheckFailed("conformance checker and cluster disagree on quorum deliveries")
    if base["gc_lost_events"] != 0:
        log(f"warning: {base['gc_lost_events']} runtime events lost; GC times are lower bounds")

    sim = base["sim"]
    n = tr["n"]
    submitted = sim["submitted"]
    batches = tr["batches"]
    reqs_per_batch = tr["requests"] / max(1, batches)
    msg_bytes = sim["net_bytes"] / max(1, sim["net_msgs"])
    micro = bench("micro", workload, round(reqs_per_batch), tr["epoch_sns"],
                  max(1, tr["policy_bytes"]), round(msg_bytes))
    engine_ns = engine_ns_per_event()

    run_s = base["run_s"]
    epochs = tr["epochs"]
    # The network microbenchmark's cost per message includes the engine
    # events a message takes, so the engine share counts only the others.
    net_events = sim["net_msgs"] * micro["net_events_per_msg"]
    engine_share = max(0.0, sim["events"] - net_events) * engine_ns * 1e-9 / run_s
    net_share = sim["net_msgs"] * micro["net_ns_per_msg"] * 1e-9 / run_s
    # Batch digests, per-node checkpoint Merkle roots, and checkpoint
    # signatures (each node signs once and verifies every node's).
    crypto_s = (batches * micro["batch_digest_us"]
                + n * epochs * micro["merkle_root_us"]
                + (n * n + n) * epochs * micro["verify_us"]) * 1e-6
    crypto_share = crypto_s / run_s
    gc_share = (base["gc_minor_s"] + base["gc_major_s"]) / run_s
    ph = tr["phases"]
    gm = tr["gauge_max"]

    def phase(name, label):
        return {f"phase.{name}_p50_s": metric(ph[f"{label} p50"], "s"),
                f"phase.{name}_p99_s": metric(ph[f"{label} p99"], "s")}

    metrics = {
        "sim.events": metric(sim["events"], "count"),
        "sim.events_per_req": metric(sim["events"] / submitted, "count"),
        "sim.engine_ns_per_event": metric(engine_ns, "ns"),
        "sim.engine_share": metric(engine_share, "frac"),
        "net.msgs_per_req": metric(sim["net_msgs"] / submitted, "count"),
        "net.bytes_per_req": metric(sim["net_bytes"] / submitted, "B"),
        "net.ns_per_msg": metric(micro["net_ns_per_msg"], "ns"),
        "net.share": metric(net_share, "frac"),
        "net.max_node_bytes_share": metric(tr["max_node_bytes"] / max(1, tr["node_bytes"]), "frac"),
        "net.tx_backlog_max_s": metric(gm["node.nic.tx_backlog_s"], "s"),
        "crypto.batch_digest_us": metric(micro["batch_digest_us"], "us"),
        "crypto.merkle_root_us": metric(micro["merkle_root_us"], "us"),
        "crypto.verify_us": metric(micro["verify_us"], "us"),
        "crypto.share": metric(crypto_share, "frac"),
        "core.req_deliveries": metric(tr["req_deliveries"], "count"),
        "core.batches": metric(batches, "count"),
        "core.reqs_per_batch": metric(reqs_per_batch, "count"),
        "core.bucket_queue_max": metric(tr["bucket_queue_max"], "count"),
        "core.commit_queue_max": metric(gm["node.commit_queue.depth"], "count"),
        "core.ckpt_lag_max_epochs": metric(gm["node.checkpoint.lag_epochs"], "count"),
        "core.orderer_instances_max": metric(gm["node.orderer.instances"], "count"),
        **phase("submit_enqueue", "submit -> enqueue"),
        **phase("enqueue_cut", "enqueue -> cut"),
        **phase("cut_sbcast", "cut -> sb_broadcast"),
        **phase("sbcast_commit", "sb_broadcast -> commit"),
        **phase("commit_deliver", "commit -> deliver"),
        **phase("deliver_reply", "deliver -> reply"),
        "runner.gave_up": metric(sim["gave_up"], "count"),
        "core.shed": metric(tr["shed"], "count"),
        "conform.check_s": metric(tr["conform_check_s"], "s"),
        "conform.ns_per_delivery": metric(
            tr["conform_check_s"] * 1e9 / max(1, tr["req_deliveries"]), "ns"),
        "obs.trace_overhead": metric(tr["run_s"] / run_s, "ratio"),
        "obs.tracer_dropped": metric(tr["tracer_dropped"], "count"),
        "gc.alloc_words_per_event": metric(base["alloc_words_per_event"], "words"),
        "gc.minor_collections": metric(base["gc_minor_collections"], "count"),
        "gc.major_collections": metric(base["gc_major_collections"], "count"),
        "gc.minor_s": metric(base["gc_minor_s"], "s"),
        "gc.major_s": metric(base["gc_major_s"], "s"),
        "gc.share": metric(gc_share, "frac"),
        "host.setup_s": metric(base["setup_s"], "s"),
        "host.run_s": metric(run_s, "s"),
        "host.report_s": metric(base["report_s"], "s"),
        "host.residual_share": metric(
            1.0 - engine_share - net_share - crypto_share - gc_share, "frac"),
    }
    print(f"{workload} seed={seed}: traced run checked against the untraced run; "
          f"conformance checker OK over {tr['conform_deliveries']} batch deliveries; "
          f"{tr['tracer_events']} tracer events")
    print(f"  host attribution of run_s={run_s:.3f}s: engine={engine_share:.3f} "
          f"net={net_share:.3f} crypto={crypto_share:.4f} gc={gc_share:.3f} "
          f"residual={metrics['host.residual_share']['value']:.3f}")
    return sim, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        build()
        if not bench("selftest").get("selftest"):
            raise CheckFailed("self-test did not pass")
        if args.trace:
            sim, metrics = traced(args.workload, args.seed)
        else:
            sim, metrics = timed(args.workload, args.seed, args.seconds)
    except CheckFailed as e:
        log(f"FAILED: {e}")
        return 1
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": sim["submitted"],
                      "failed": sim["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
