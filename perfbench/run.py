#!/usr/bin/env python3
"""The repo benchmark: one command, four campaign workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Builds perfbench_driver (and the scamv libraries it links) from this
checkout, runs one workload for --seconds, checks the program's
outputs, and prints a human-readable report followed by one JSON
result line.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer split from a separate traced
run.  See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time

# Leave nothing but the build tree behind in the checkout.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("mpart_prefetch", "spec_siscloak", "corpus_kernels",
             "svc_tenants")
DEFAULT_SEED = 1
# Never used while the benchmark was tuned; use it to confirm a claim.
HELD_OUT_SEED = 2718

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# Per-layer metrics.  Span-derived `_ms` values are summed self time
# per repetition; every value is the median over the traced
# repetitions.
LAYER_SPANS = {
    "smt.encode_ms": ("smt.encode",),
    "smt.search_ms": ("smt.search",),
    "smt.model_ms": ("smt.model",),
    "harness.experiment_ms": ("harness.experiment",),
    "triage.screen_ms": ("triage.screen",),
    "gen.next_ms": ("gen.next",),
    "bir.instrument_ms": ("bir.instrument",),
    "sym.execute_ms": ("sym.execute",),
    "rel.synth_ms": ("rel.synth", "rel.training", "rel.coverage"),
    "core.merge_ms": ("core.merge",),
    "front.compile_ms": ("front.compile",),
    "shard.worker_ms": ("shard.worker",),
    "shard.merge_ms": ("shard.merge",),
    "qcache.fold_ms": ("qcache.fold",),
}

# Untraced phase histogram -> spans measuring the same calls.  The
# smt phase also holds the coverage draws and model symmetrisation,
# but not the training-input solves (spans under core.training).
SMT_PHASE = ("smt.encode", "smt.search", "smt.model", "rel.coverage",
             "core.symmetrize")
PHASE_SPANS = {
    "phase.generate_seconds": ("gen.next", "bir.instrument"),
    "phase.triage_screen_seconds": ("triage.screen",),
    "phase.symbolic_exec_seconds": ("sym.execute",),
    "phase.relation_synthesis_seconds": ("rel.synth",),
    "phase.smt_seconds": SMT_PHASE,
    "phase.hw_run_seconds": ("harness.experiment",),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(m["name"], m["unit"]) for m in bench["per_layer"]])


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure and build perfbench_driver; @return its path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    logf = os.path.join(bdir, "build.log")
    deadline = time.time() + BUILD_TIMEOUT_S
    # Concurrent runs in one checkout share the build tree.
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(logf, "w") as out:
            for cmd in (["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=Release"] + gen,
                        ["cmake", "--build", bdir, "--target",
                         "perfbench_driver", "-j", jobs]):
                left = max(1, deadline - time.time())
                rc = subprocess.run(cmd, stdout=out,
                                    stderr=subprocess.STDOUT,
                                    timeout=left).returncode
                if rc != 0:
                    raise RuntimeError("build failed (%s): see %s"
                                       % (" ".join(cmd[:2]), logf))
    return os.path.join(bdir, "perfbench_driver")


def read_first(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def environment(build_info):
    """Host and build facts recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            level = read_first(os.path.join(d, "level"), "")
            kind = read_first(os.path.join(d, "type"), "")
            size = read_first(os.path.join(d, "size"), "")
            if level and size:
                caches.append("L%s%s %s" % (
                    level, {"Data": "d", "Instruction": "i"}.get(kind, ""),
                    size))
    sha = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    flags = build_info.get("flags", "")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "caches": ", ".join(caches) or "unknown",
        "kernel": platform.release(),
        "compiler": build_info.get("compiler", "unknown"),
        "flags": flags,
        "build_type": build_info.get("type", "unknown"),
        "git_sha": sha or "unknown (not a git checkout)",
        "optimised": bool(re.search(r"-O[123s]\b", flags)),
    }


def rep_rates(reps, key):
    return [r[key] / r["wall_s"] for r in reps if r["wall_s"] > 0]


def end_to_end(raw):
    """Every end-to-end metric of an untraced run: name -> (value, unit)."""
    reps = raw["reps"]
    if "submissions" in raw:
        first = raw.get("first_timed_batch", 0)
        latencies = [s["ms"] for s in raw["submissions"]
                     if s["batch"] >= first]
    else:
        # A campaign workload serves one submission per repetition.
        latencies = [r["wall_s"] * 1e3 for r in reps]
    programs = sum(r["programs"] for r in reps)
    with_cex = sum(r["programs_with_cex"] for r in reps)
    return {
        "setup_s": (stats.median(raw["setup_s"]), "s"),
        "wall_s": (stats.median([r["wall_s"] for r in reps]), "s"),
        "cpu_s": (stats.median([r["cpu_s"] for r in reps]), "s"),
        "experiments_per_s": (stats.median(rep_rates(reps, "experiments")),
                              "1/s"),
        "counterexamples_per_s": (
            stats.median(rep_rates(reps, "counterexamples")), "1/s"),
        "cex_program_share": (with_cex / programs if programs else 0.0,
                              "share"),
        "submission_p50_ms": (stats.median(latencies), "ms"),
        "submission_p90_ms": (stats.percentile(latencies, 90.0), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }, latencies


def load_spans(path):
    """Spans of a traced run: rep -> {id: (parent, start, end, name, key)}."""
    by_rep = {}
    with open(path) as f:
        next(f)
        for line in f:
            rep, sid, parent, name, start, end, key = line.rstrip(
                "\n").split("\t")
            by_rep.setdefault(int(rep), {})[int(sid)] = (
                int(parent), int(start), int(end), name, int(key))
    return by_rep


def span_split(by_rep):
    """Per repetition: name -> summed self ms, name -> count, the
    program durations (ms), and the smt self ms outside training."""
    out = []
    for rep in sorted(by_rep):
        spans = by_rep[rep]
        selfs = stats.self_times(
            {sid: (s[0], s[1], s[2]) for sid, s in spans.items()})
        self_ms, count, programs = {}, {}, []
        smt_pipeline_ms = 0.0
        for sid, s in spans.items():
            name = s[3]
            ms = selfs[sid] / 1e6
            self_ms[name] = self_ms.get(name, 0.0) + ms
            count[name] = count.get(name, 0) + 1
            if name == "core.program":
                programs.append((s[2] - s[1]) / 1e6)
            parent = spans.get(s[0])
            if name in SMT_PHASE and not (
                    parent and parent[3] == "core.training"):
                smt_pipeline_ms += ms
        out.append({"self_ms": self_ms, "count": count,
                    "programs": programs, "smt_pipeline_ms": smt_pipeline_ms})
    return out


def med(xs):
    return stats.median(xs) if xs else 0.0


def per_layer(raw):
    """Every per-layer metric of a traced run: name -> (value, unit)."""
    tr = raw["trace"]
    spans = span_split(load_spans(tr["spans"]))
    m = {}
    for name, sources in LAYER_SPANS.items():
        m[name] = (med([sum(r["self_ms"].get(s, 0.0) for s in sources)
                        for r in spans]), "ms")
    programs = [d for r in spans for d in r["programs"]]
    m["core.program_p90_ms"] = (stats.percentile(programs, 90.0)
                                if programs else 0.0, "ms")
    m["harness.experiments"] = (med([r["count"].get("harness.experiment", 0)
                                     for r in spans]), "count")
    m["front.kernels"] = (tr.get("front_kernels", 0), "count")

    counters = [r["registry"] for r in tr.get("traced_reps", [])]
    driver = tr.get("traced_reps", [])

    def cmed(key):
        return med([c.get(key, 0) for c in counters])

    for key in ("smt.queries", "smt.unknown", "sat.decisions",
                "sat.conflicts", "sat.propagations", "hw.runs"):
        m[key] = (cmed(key), "count")
    m["hw.cycles"] = (cmed("hw.cycles"), "cycles")
    m["smt.sat_share"] = (med([c["smt.sat"] / c["smt.queries"]
                               for c in counters if c.get("smt.queries")]),
                          "share")
    m["triage.screened_share"] = (
        med([c["triage.screened"] / c["pipeline.programs"]
             for c in counters if c.get("pipeline.programs")]), "share")
    hw_runs = m["hw.runs"][0]
    m["harness.us_per_hw_run"] = (
        m["harness.experiment_ms"][0] * 1e3 / hw_runs if hw_runs else 0.0,
        "us")
    m["bir.stmts"] = (med([d.get("driver.stmts", 0) for d in driver]),
                      "count")
    m["sym.paths"] = (med([d.get("driver.paths", 0) for d in driver]),
                      "count")
    m["rel.pairs"] = (med([d.get("driver.pairs", 0) for d in driver]),
                      "count")

    hits, misses = tr.get("qcache_hits", 0), tr.get("qcache_misses", 0)
    m["qcache.hit_share"] = (hits / (hits + misses) if hits + misses
                             else 0.0, "share")
    m["qcache.checkpoint_bytes"] = (tr.get("checkpoint_bytes", 0), "bytes")
    states = tr.get("states", [])
    for key in ("queued_ms", "running_ms", "merging_ms"):
        m["svc." + key] = (med([s[key] for s in states]), "ms")

    untraced = tr["untraced_wall_s"]
    traced = tr["traced_wall_s"]
    overhead_ms = (med(traced) - med(untraced)) * 1e3
    m["trace.overhead_ms"] = (overhead_ms, "ms")
    exact, notes = cross_checks(raw, spans, overhead_ms)
    m["trace.counts_match"] = (1 if exact else 0, "bool")
    # The campaign's yield, from the untraced half of the run (see
    # README: too seed-dependent on svc_tenants to carry a bound).
    e2e, _ = end_to_end(raw)
    m["core.counterexamples_per_s"] = e2e["counterexamples_per_s"]
    m["core.cex_program_share"] = e2e["cex_program_share"]
    return m, notes


def cross_checks(raw, spans, overhead_ms):
    """Driver work counts vs the campaign's own counters, and span
    sums vs the in-program phase histograms.  @return (exact, lines)."""
    tr = raw["trace"]
    lines = []
    if raw["workload"] == "svc_tenants":
        exact = tr["replica_exact"]
        lines.append(
            "counts: replica experiments=%d smt.queries=%d "
            "sat.solve_calls=%d over %d submissions; %d of the %d whose "
            "seed the service also ran are byte-identical to its campaign"
            % (tr["replica_experiments"], tr["replica_smt_queries"],
               tr["replica_sat_calls"], tr["replica_submissions"],
               tr["replica_matching_service"], tr["replica_compared"]))
        lines.append("phases: n/a (service campaigns run on the "
                     "deterministic metrics clock)")
    else:
        reg = tr["untraced_counters"]
        exact = tr["replica_exact"]
        for rep in tr["traced_reps"]:
            pairs = (("experiments", rep["driver.experiments"],
                      reg["pipeline.experiments"]),
                     ("smt queries", rep["driver.smt_queries"],
                      reg["smt.queries"]),
                     ("sat calls", rep["registry"]["sat.solve_calls"],
                      reg["sat.solve_calls"]))
            for what, got, want in pairs:
                if got != want:
                    exact = False
                    lines.append("counts: %s driver=%d campaign=%d"
                                 % (what, got, want))
        rep = tr["traced_reps"][0]
        lines.append("counts: driver experiments=%d smt queries=%d "
                     "sat calls=%d; campaign pipeline.experiments=%d "
                     "smt.queries=%d sat.solve_calls=%d"
                     % (rep["driver.experiments"], rep["driver.smt_queries"],
                        rep["registry"]["sat.solve_calls"],
                        reg["pipeline.experiments"], reg["smt.queries"],
                        reg["sat.solve_calls"]))
        if tr.get("replica_mismatch"):
            lines.append("replica: " + tr["replica_mismatch"])
        # Spans and phase histograms sum thread time, so the wall
        # overhead counts once per worker thread.
        slack_ms = abs(overhead_ms) * raw["threads"]
        phases = tr["untraced_phase_s"]
        for phase, names in PHASE_SPANS.items():
            want = phases.get(phase, 0.0) * 1e3
            if names == SMT_PHASE:
                got = med([r["smt_pipeline_ms"] for r in spans])
            else:
                got = med([sum(r["self_ms"].get(n, 0.0) for n in names)
                           for r in spans])
            if want == 0 and got == 0:
                continue
            lines.append("phase %-34s %10.2f ms  spans %10.2f ms  %s" % (
                phase, want, got,
                "agrees" if abs(got - want) <= max(slack_ms, 0.1 * want)
                else "differs by more than the %.1f ms tracing overhead"
                % slack_ms))
    lines.insert(0, "split: %s" % ("exact (driver counts equal the "
                                   "campaign counters)" if exact else
                                   "APPROXIMATE (counts differ)"))
    return exact, lines


def fmt(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %d; held-out seed %d)"
                    % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    for need in ("src/CMakeLists.txt", "examples/corpus", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("perfbench: %s is missing; run from a full checkout" % need)
            return 2
    declared_e2e, declared_layer = load_declared()

    t0 = time.time()
    try:
        driver = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 2
    log("perfbench: driver ready in %.1f s" % (time.time() - t0))

    work = os.path.join(build_dir(), "work-%s-%d" % (args.workload,
                                                     os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")
    spans_path = os.path.join(work, "spans.tsv")
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCAMV_")}
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work", os.path.join(work, "campaigns"),
           "--out", raw_path, "--spans", spans_path]
    try:
        rc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                            timeout=RUN_TIMEOUT_S).returncode
        if rc != 0:
            log("perfbench: driver exited with %d" % rc)
            return 2
        with open(raw_path) as f:
            raw = json.load(f)
        if args.trace:
            # Parse the spans now; keep the latest dump per workload.
            layers, notes = per_layer(raw)
            os.replace(spans_path, os.path.join(
                build_dir(), "spans-%s.tsv" % args.workload))
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    envinfo = environment(raw["build"])
    print("perfbench %s seed=%d seconds=%g trace=%d threads=%d"
          % (args.workload, args.seed, args.seconds, args.trace,
             raw["threads"]))
    sizes = ["%s=%s" % (k, raw[k]) for k in (
        "programs_per_rep", "tests_per_program", "clients",
        "submissions_per_client_per_rep", "programs_per_submission")
        if k in raw]
    print("  campaign: " + " ".join(sizes))
    for k, v in envinfo.items():
        print("  env.%-10s %s" % (k, v))
    if not envinfo["optimised"]:
        print("  WARNING: the driver was not built with optimisation; "
              "timings are not representative")

    metrics, latencies = end_to_end(raw)
    failed_share = raw["failed"] / raw["attempted"]
    p, tail, n = stats.tail_summary(latencies)
    print("end-to-end (median of %d repetitions after one warm-up):"
          % len(raw["reps"]))
    bounded = {name for name, _ in declared_e2e}
    for name, (value, unit) in metrics.items():
        print("  %-24s %14s %-6s%s" % (
            name, fmt(value), unit,
            "" if name in bounded else " (unbounded: see README)"))
    print("  %-24s %14s %-6s (%d of %d operations failed)"
          % ("failed_share", fmt(failed_share), "share", raw["failed"],
             raw["attempted"]))
    print("  submissions: n=%d, tail rule reports %s" % (
        n, "p%g = %.3f ms" % (p, tail) if p is not None
        else "no percentile (fewer than 20 samples)"))
    print("checks:")
    for c in raw["checks"]["summary"]:
        print("  %-40s %d run, %d failed" % (c["name"], c["runs"],
                                            c["failed"]))
    for c in raw["checks"]["failures"]:
        print("  FAILED %s: %s" % (c["name"], c["detail"]))

    if args.trace:
        print("per-layer (traced run; _ms = summed self time per "
              "repetition, median of %d):" % len(raw["trace"]
                                                  ["traced_wall_s"]))
        for name, _ in declared_layer:
            value, unit = layers[name]
            print("  %-24s %14s %s" % (name, fmt(value), unit))
        for line in notes:
            print("  " + line)
        out_metrics, declared = layers, declared_layer
    else:
        out_metrics, declared = metrics, declared_e2e
    correct = raw["failed"] == 0
    sys.stdout.flush()
    print(stats.result_line(correct, raw["attempted"], raw["failed"],
                            out_metrics, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
