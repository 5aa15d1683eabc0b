#!/usr/bin/env python3
"""SEED simulator benchmark: storm1k, metro10k and table4.

Builds perfbench/seedbench from the repository sources, runs each pass
of a workload in its own process, checks the simulated outputs and
prints every metric by name with its unit and sample count. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of the e2e pass;
with --trace 1 (the default) the traced and obs-off passes run as well,
the end-to-end metrics are printed for reading, and the JSON metrics are
the per-layer ones, also written to <build>/results/.

Usage (from the repository root):
    python3 perfbench/run.py [--workload storm1k|metro10k|table4|all]
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--record]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("storm1k", "metro10k", "table4")
STORMS = ("storm1k", "metro10k")
DEFAULT_SEED = 0
WORKLOAD_BUDGET_S = 170  # all passes of one workload, after the build
BUILD_TIMEOUT_S = 850

# Simulated counters gated against expected.json for the default seed.
GATED = ("injections", "sim_events", "attempted", "ok", "disruption_p75_us",
         "disruption_p90_us", "healthy", "cache_hits", "cache_misses")

# name -> (unit, end-to-end metric and workload it should move)
LAYER_METRICS = {
    "simcore.events_per_failure": ("count", "failures_per_s, all"),
    "simcore.dispatch_ns_per_event": ("ns", "sim_events_per_s, metro10k"),
    "simcore.dispatch_unattributed_share": ("ratio", "ledger gap"),
    "simcore.queue_depth_p50": ("count", "step_us_p99, metro10k"),
    "simcore.queue_depth_max": ("count", "step_us_p99, metro10k"),
    "simcore.fleet.busy_share": ("ratio", "failures_per_s, table4"),
    "simcore.fleet.scaling_2w": ("ratio", "diagnostic only"),
    "testbed.bringup_us_per_ue": ("us", "setup_s, metro10k and table4"),
    "testbed.inject_us_p50": ("us", "step_us_p50, storm1k"),
    "nas.encode.calls_per_failure": ("count", "cpu_us_per_failure, storms"),
    "nas.decode.calls_per_failure": ("count", "cpu_us_per_failure, storms"),
    "nas.encode.ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "nas.decode.ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "crypto.eea2.ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "crypto.eia2.ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "crypto.eea2.bytes_per_call": ("B", "cpu_us_per_failure, storms"),
    "crypto.aka_per_failure": ("count", "cpu_us_per_failure, storms"),
    "crypto.aka_in_setup": ("count", "setup_s, metro10k and table4"),
    "seedproto.fragment.ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "seedproto.reassemble.ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "seedproto.fragment.calls_per_failure": ("count",
                                             "cpu_us_per_failure, storms"),
    "seedproto.reassemble.calls_per_failure": ("count",
                                               "cpu_us_per_failure, storms"),
    "seed.diagcache.hit_ratio": ("ratio", "cpu_us_per_failure, storms"),
    "seed.diagcache.invalidations_per_failure": ("count",
                                                 "cpu_us_per_failure, storms"),
    "seed.diagcache.lookup_ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "seed.diagcache.digest_ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "corenet.nas_rx_per_failure": ("count", "cpu_us_per_failure, all"),
    "corenet.rejects_per_failure": ("count", "cpu_us_per_failure, all"),
    "corenet.diag_downlinks_per_failure": ("count", "cpu_us_per_failure, all"),
    "corenet.collab_tx.ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "corenet.collab_rx.ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "modem.collab_rx.ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "modem.collab_tx.ns_per_call": ("ns", "cpu_us_per_failure, storms"),
    "modem.registrations_per_failure": ("count",
                                        "cpu_us_per_failure and ok_share"),
    "simapplet.diagnoses_per_failure": ("count", "ok_share and disruption"),
    "simapplet.resets_per_failure": ("count", "ok_share and disruption"),
    "simapplet.reset_ok_ratio": ("ratio", "ok_share and disruption"),
    "simapplet.retries_per_failure": ("count", "ok_share and disruption"),
    "simapplet.escalations_per_failure": ("count", "ok_share and disruption"),
    "simapplet.rate_limited": ("count", "ok_share and disruption"),
    "simapplet.conflicts_suppressed": ("count", "ok_share and disruption"),
    "android.detections_per_failure": ("count", "disruption, table4"),
    "obs.events_per_failure": ("count", "cpu_us_per_failure, storms"),
    "obs.retained_share": ("ratio", "peak_rss_mb, storms"),
    "obs.trace_bytes_per_ue": ("B", "peak_rss_mb, storms"),
    "obs.ues_promoted": ("count", "peak_rss_mb, storms"),
    "obs.series_dropped": ("count", "peak_rss_mb, storms"),
    "obs.cost_share": ("ratio", "cpu_us_per_failure, storms"),
    "obs.rss_mb": ("MB", "peak_rss_mb, storm1k"),
    "bench.trace_overhead_share": ("ratio", "traced pass vs e2e pass"),
}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures (once) and builds seedbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("repository sources (src/) not found next to "
                         "perfbench/; nothing to build")
    bdir = os.path.join(build_dir(), "cmake")
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(build_dir(), "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "seedbench",
                  "-j", jobs])
    with open(logpath, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(logpath) as f:
                    tail = f.read()[-2000:]
                raise BenchError(f"build failed (see {logpath}):\n{tail}")
    return os.path.join(bdir, "seedbench")


def run_pass(binary, workload, seed, seconds, pass_name, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--pass", pass_name]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {pass_name} pass timed out")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {pass_name} pass exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


EXPECTED = os.path.join(HERE, "expected.json")


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def record_expected(workload, sim):
    """Stores the gated counters of the default seed (--record)."""
    exp = load_expected() if os.path.isfile(EXPECTED) else {}
    exp[workload] = {key: sim[key] for key in GATED}
    with open(EXPECTED, "w") as f:
        json.dump(exp, f, indent=1, sort_keys=True)
        f.write("\n")


def check(workload, seed, passes, problems):
    """Cross-pass and recorded-value checks on the simulated counters."""
    ref = passes["e2e"]
    for name, p in passes.items():
        if name == "e2e":
            continue
        for key, value in ref["sim"].items():
            if p["sim"].get(key) != value:
                problems.append(f"{workload}: sim.{key} differs between the "
                                f"e2e ({value}) and {name} "
                                f"({p['sim'].get(key)}) passes")
        if ref.get("cells") != p.get("cells"):
            problems.append(f"{workload}: table cells differ between the "
                            f"e2e and {name} passes")
    sim = ref["sim"]
    if sim["attempted"] < 1 or sim["ok"] < 1 or sim["healthy"] < 1:
        problems.append(f"{workload}: degenerate run: {sim}")
    if seed == DEFAULT_SEED:
        exp = load_expected()[workload]
        for key in GATED:
            if sim[key] != exp[key]:
                problems.append(f"{workload}: sim.{key} = {sim[key]}, "
                                f"recorded value for seed {seed} is "
                                f"{exp[key]}")


def beyond(n, pct):
    """Samples above the nearest-rank pct-th percentile of n samples."""
    return n - max(1, -(-n * pct // 100))


def e2e_metrics(p):
    """End-to-end metrics of one e2e pass: name -> (value, unit, samples).

    Host-time metrics are medians over the pass's rounds, each round's
    value taken over all of its timed failures or steps.
    """
    sim, tm = p["sim"], p["timing"]
    rounds = p["rounds"]
    n = sim["injections"]  # timed failures per round
    med = statistics.median
    per_round = (f"median of {rounds} rounds x {n} "
                 f"{'steps' if p['workload'] in STORMS else 'scenarios'}")
    storm = p["workload"] in STORMS
    ok_n = sim["ok"] if storm else sim["seed_ok"]
    ues = p["ues"] if storm else sim["attempted"]
    return {
        "setup_s": (med(p["setup_s"]), "s", f"median of {rounds} set-ups"),
        "failures_per_s": (med(n / w for w in p["round_wall_s"]), "1/s",
                           per_round),
        "sim_events_per_s": (med(sim["sim_events"] / w
                                 for w in p["round_wall_s"]), "1/s",
                             f"{per_round}, {sim['sim_events']} events "
                             f"per round"),
        "cpu_us_per_failure": (med(c / n * 1e6 for c in p["round_cpu_s"]),
                               "us", per_round),
        "step_us_p50": (med(p["round_step_p50_us"]), "us", per_round),
        "step_us_p99": (med(p["round_step_p99_us"]), "us",
                        f"{per_round}, {beyond(n, 99)} beyond per round"),
        "peak_rss_mb": (tm["peak_rss_mb"], "MB", "1 process, first round"),
        "rss_bytes_per_ue": (tm["rss_growth_bytes"] / p["ues"], "B",
                             f"{p['ues']} UEs" if storm else
                             "256 held single-UE harnesses"),
        "ok_share": (sim["ok"] / sim["attempted"], "ratio",
                     f"{sim['attempted']} attempted"),
        "disruption_p75_sim_s": (sim["disruption_p75_us"] * 1e-6, "sim_s",
                                 f"{ok_n} recoveries, {beyond(ok_n, 75)} "
                                 f"beyond"),
        "disruption_p90_sim_s": (sim["disruption_p90_us"] * 1e-6, "sim_s",
                                 f"{ok_n} recoveries, {beyond(ok_n, 90)} "
                                 f"beyond"),
        "healthy_share": (sim["healthy"] / ues, "ratio", f"{ues} UEs"),
    }


def per_failure_cpu(p):
    return sum(p["round_cpu_s"]) / (p["sim"]["injections"] * p["rounds"])


def layer_metrics(passes):
    """Per-layer metrics from the traced pass (plus e2e/obs-off)."""
    t = passes["traced"]
    e = passes["e2e"]
    sim, lay, tm = t["sim"], t["layers"], t["timing"]
    rounds = t["rounds"]
    f = sim["injections"] * rounds  # failures covered by zones and events
    storm = t["workload"] in STORMS
    zones = lay["zones"]
    ev = lay["events"]

    def zone(name):
        return zones.get(name, {"calls": 0, "incl_ns": 0, "excl_ns": 0,
                                "bytes": 0})

    def ns_per_call(name):
        z = zone(name)
        return z["incl_ns"] / z["calls"] if z["calls"] else 0.0

    def per_failure(count):
        return count / f if f else 0.0

    disp = zone("sim.dispatch")
    hits, misses = sim.get("cache_hits_timed", 0), sim.get(
        "cache_misses_timed", 0)
    completed = ev.get("modem.reset_completed", 0)
    obs_info = t.get("obs", {})
    retained = obs_info.get("events_retained", 0)
    aged = obs_info.get("events_aged_out", 0)
    if storm:
        bringup_us = statistics.median(t["bringup_s"]) / t["ues"] * 1e6
        busy = scaling = 0.0
        o = passes["obsoff"]
        cost = 1.0 - per_failure_cpu(o) / per_failure_cpu(e)
        rss = e["timing"]["peak_rss_mb"] - o["timing"]["peak_rss_mb"]
    else:
        span = lay["spans"]["testbed.bring_up"]
        bringup_us = span["incl_ns"] / span["count"] * 1e-3
        wall1 = statistics.median(t["round_wall_s"])
        busy = tm["busy_s"] / sum(t["round_wall_s"])
        scaling = wall1 / tm["wall_2w_s"] if tm["wall_2w_s"] else 0.0
        cost = rss = 0.0
    total_events = sum(v for k, v in ev.items() if not k.startswith("ok."))
    return {
        "simcore.events_per_failure": sim["sim_events"] / sim["injections"],
        "simcore.dispatch_ns_per_event": ns_per_call("sim.dispatch"),
        "simcore.dispatch_unattributed_share":
            disp["excl_ns"] / disp["incl_ns"] if disp["incl_ns"] else 0.0,
        "simcore.queue_depth_p50": sim["queue_p50"],
        "simcore.queue_depth_max": sim["queue_max"],
        "simcore.fleet.busy_share": busy,
        "simcore.fleet.scaling_2w": scaling,
        "testbed.bringup_us_per_ue": bringup_us,
        "testbed.inject_us_p50": statistics.median(t["round_inject_p50_us"]),
        "nas.encode.calls_per_failure": per_failure(zone("nas.encode")["calls"]),
        "nas.decode.calls_per_failure": per_failure(zone("nas.decode")["calls"]),
        "nas.encode.ns_per_call": ns_per_call("nas.encode"),
        "nas.decode.ns_per_call": ns_per_call("nas.decode"),
        "crypto.eea2.ns_per_call": ns_per_call("crypto.eea2"),
        "crypto.eia2.ns_per_call": ns_per_call("crypto.eia2"),
        "crypto.eea2.bytes_per_call":
            zone("crypto.eea2")["bytes"] / zone("crypto.eea2")["calls"]
            if zone("crypto.eea2")["calls"] else 0.0,
        "crypto.aka_per_failure": sim["aka_timed"] / sim["injections"],
        "crypto.aka_in_setup": sim["aka_setup"],
        "seedproto.fragment.ns_per_call": ns_per_call("seedproto.fragment"),
        "seedproto.reassemble.ns_per_call": ns_per_call("seedproto.reassemble"),
        "seedproto.fragment.calls_per_failure":
            per_failure(zone("seedproto.fragment")["calls"]),
        "seedproto.reassemble.calls_per_failure":
            per_failure(zone("seedproto.reassemble")["calls"]),
        "seed.diagcache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "seed.diagcache.invalidations_per_failure":
            sim.get("cache_invalidations_timed", 0) / sim["injections"],
        "seed.diagcache.lookup_ns_per_call": ns_per_call("diagcache.lookup"),
        "seed.diagcache.digest_ns_per_call": ns_per_call("diagcache.digest"),
        "corenet.nas_rx_per_failure": sim["nas_rx_timed"] / sim["injections"],
        "corenet.rejects_per_failure": sim["rejects_timed"] / sim["injections"],
        "corenet.diag_downlinks_per_failure":
            sim["diag_downlinks_timed"] / sim["injections"],
        "corenet.collab_tx.ns_per_call": ns_per_call("core.collab_tx"),
        "corenet.collab_rx.ns_per_call": ns_per_call("core.collab_rx"),
        "modem.collab_rx.ns_per_call": ns_per_call("modem.collab_rx"),
        "modem.collab_tx.ns_per_call": ns_per_call("modem.collab_tx"),
        "modem.registrations_per_failure":
            sim["registrations_timed"] / sim["injections"],
        "simapplet.diagnoses_per_failure":
            per_failure(ev.get("sim.diagnosis_made", 0)),
        "simapplet.resets_per_failure":
            per_failure(ev.get("modem.reset_issued", 0)),
        "simapplet.reset_ok_ratio":
            ev.get("ok.reset_completed", 0) / completed if completed else 0.0,
        "simapplet.retries_per_failure":
            per_failure(ev.get("sim.action_retry", 0)),
        "simapplet.escalations_per_failure":
            per_failure(ev.get("sim.tier_escalated", 0)),
        "simapplet.rate_limited": ev.get("sim.rate_limited", 0) / rounds,
        "simapplet.conflicts_suppressed":
            ev.get("sim.conflict_suppressed", 0) / rounds,
        "android.detections_per_failure":
            per_failure(ev.get("os.failure_detected", 0)),
        "obs.events_per_failure": per_failure(total_events),
        "obs.retained_share":
            retained / (retained + aged) if retained + aged else 0.0,
        "obs.trace_bytes_per_ue":
            obs_info.get("bytes_retained", 0) / rounds / t["ues"],
        "obs.ues_promoted": obs_info.get("ues_retained", 0) / rounds,
        "obs.series_dropped": obs_info.get("series_dropped", 0) / rounds,
        "obs.cost_share": cost,
        "obs.rss_mb": rss,
        "bench.trace_overhead_share":
            per_failure_cpu(t) / per_failure_cpu(e) - 1.0,
    }


def ledger(t):
    """Where the traced pass's timed host time went, by exclusive zone."""
    zones = t["layers"]["zones"]
    total_ns = sum(t["round_wall_s"]) * 1e9
    rows = []
    for name, z in zones.items():
        label = ("sim.dispatch (unattributed)" if name == "sim.dispatch"
                 else name)
        rows.append((label, z["excl_ns"], z["calls"]))
    rows.append(("outside any zone",
                 max(0.0, total_ns - sum(r[1] for r in rows)), 0))
    rows.sort(key=lambda r: -r[1])
    return total_ns, rows


def format_layers(workload, t, metrics):
    total_ns, rows = ledger(t)
    out = [f"== {workload}: per-layer view (traced pass, "
           f"{t['rounds']} rounds) ==",
           f"time ledger of the timed phase ({total_ns * 1e-9:.3f} s host "
           f"time), by exclusive time share:",
           f"  {'zone':34s} {'share':>7s} {'excl_ms':>10s} {'calls':>10s}"]
    for name, ns, calls in rows:
        out.append(f"  {name:34s} {ns / total_ns:7.1%} {ns * 1e-6:10.1f} "
                   f"{calls:10d}")
    out.append("benchmark spans (calls into each layer):")
    out.append(f"  {'span':34s} {'count':>10s} {'incl_ms':>10s} "
               f"{'self_ms':>10s}")
    for name, s in sorted(t["layers"]["spans"].items(),
                          key=lambda kv: -kv[1]["incl_ns"]):
        out.append(f"  {name:34s} {s['count']:10d} "
                   f"{s['incl_ns'] * 1e-6:10.1f} {s['self_ns'] * 1e-6:10.1f}")
    out.append(f"tracing overhead: traced pass CPU per failure is "
               f"{metrics['bench.trace_overhead_share']:+.1%} against the "
               f"e2e pass")
    out.append("per-layer metrics:")
    for name, value in metrics.items():
        unit, moves = LAYER_METRICS[name]
        out.append(f"  {name:42s} {value:14.4f} {unit:6s} -> {moves}")
    return "\n".join(out)


def write_dump(workload, seed, t, metrics):
    rdir = os.path.join(build_dir(), "results")
    os.makedirs(rdir, exist_ok=True)
    total_ns, rows = ledger(t)
    doc = {
        "workload": workload, "seed": seed, "rounds": t["rounds"],
        "timed_host_s": total_ns * 1e-9,
        "ledger": [{"name": n, "excl_ns": int(ns), "calls": c,
                    "share": ns / total_ns} for n, ns, c in rows],
        "spans": t["layers"]["spans"],
        "events": t["layers"]["events"],
        "metrics": {k: {"value": v, "unit": LAYER_METRICS[k][0],
                        "moves": LAYER_METRICS[k][1]}
                    for k, v in metrics.items()},
    }
    path = os.path.join(rdir, f"{workload}.layers.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def format_cells(p):
    out = [f"  {'Failures':14s} {'Handling':8s} {'n':>5s} {'recovered':>9s} "
           f"{'median':>8s} {'90th':>8s}   paper med/90th"]
    for c in p["cells"]:
        out.append(f"  {c['klass']:14s} {c['scheme']:8s} {c['n']:5d} "
                   f"{c['recovered']:9d} {c['p50_s']:8.2f} {c['p90_s']:8.2f}"
                   f"   {c['paper']}")
    return "\n".join(out)


def run_workload(binary, workload, seed, seconds, trace, record, problems):
    """Runs the passes; returns (metrics, attempted)."""
    names = ["e2e"]
    if trace:
        # Up to three passes share the time budget of one e2e run.
        names += ["traced", "obsoff"] if workload in STORMS else ["traced"]
        seconds /= 2
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    passes = {n: run_pass(binary, workload, seed, seconds, n, deadline)
              for n in names}
    if record:
        record_expected(workload, passes["e2e"]["sim"])
    check(workload, seed, passes, problems)
    e = passes["e2e"]
    attempted = e["sim"]["injections"] * e["rounds"]
    print(f"== {workload}: seed {seed}, e2e pass, {e['rounds']} rounds ==")
    e2e = e2e_metrics(e)
    for name, (value, unit, samples) in e2e.items():
        print(f"  {name:22s} {value:14.6g} {unit:6s} ({samples})")
    if workload == "table4":
        print("Table 4 cells (recovered runs, simulated seconds; for "
              "reading, not gated):")
        print(format_cells(e))
    if not trace:
        return {k: (v, u) for k, (v, u, _) in e2e.items()}, attempted
    layers = layer_metrics(passes)
    print(format_layers(workload, passes["traced"], layers))
    print(f"per-layer dump: "
          f"{write_dump(workload, seed, passes['traced'], layers)}")
    return {k: (v, LAYER_METRICS[k][0]) for k, v in layers.items()}, attempted


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=1, choices=(0, 1),
                    help="1 (default) adds the traced and obs-off passes "
                         "and reports per-layer metrics")
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from this run (default "
                         "seed only)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.record and args.seed != DEFAULT_SEED:
        ap.error(f"--record needs the default seed {DEFAULT_SEED}")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        binary = build()
        problems = []
        metrics = {}
        attempted = 0
        for w in workloads:
            m, n = run_workload(binary, w, args.seed, args.seconds,
                                args.trace, args.record, problems)
            attempted += n
            prefix = "" if len(workloads) == 1 else w + "."
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as e:
        log(f"run.py: {e}")
        return 2
    for p in problems:
        log(f"run.py: CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
