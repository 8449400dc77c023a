#!/usr/bin/env python3
"""wmodal benchmark runner (stdlib only).

    python3 bench/run.py --workload sweep --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16

Workloads: sweep, queries, countermodel, oneshot (see NOTES.md), or
`all` to run the four in turn.  Each measured run happens in a fresh
interpreter (bench/worker.py), so caches start cold; set-up time is the
median of several more fresh interpreters that only set up.  With
--trace 1 the workload runs twice, untraced and traced, for half the time
each, then the layer probes run in a third fresh interpreter; the run
reports the per-layer metrics of the probes, the self time per layer of
the traced half and the tracing overhead.

Timings are scaled to a reference speed of the machine (calib.py); the
values as measured are printed beside them as `wall_*`.  Every metric is
printed by name with its unit and sample count; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record,
including the machine and the theorem-count digest, goes to
.bench_out/BENCH_<workload>_s<seed>_t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

import calib  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("sweep", "queries", "countermodel", "oneshot")
SETUP_PROBES = 7
WORKER_GRACE_S = 150

# Names of the operation, its tail percentile and the cache state per
# workload.  The tail is p95: p99 sits in the steep part of the `queries`
# latency tail, where it moved by 0.38 of its median across ten seeds;
# `oneshot` makes about 100 calls, enough for p90 only.
OPS = {
    "sweep": ("decisions", "decision", 95,
              "cold at start; engine caches shared within a pass"),
    "queries": ("requests", "request", 95, "cold for every request"),
    "countermodel": ("searches", "search", 95,
                     "cold at start; search keeps no cache"),
    "oneshot": ("cli_calls", "cli", 90, "cold for every call (fresh interpreter)"),
}


class RunError(RuntimeError):
    pass


def worker_cmd(workload, inputs, extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--inputs", inputs] + extra


def setup_seconds(workload, inputs):
    """Fresh interpreter to `ready`: launch, import, catalogue, parse.
    Returns each probe's time as measured and scaled by reference samples
    the probe takes after `ready` (calib.py)."""
    out, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_cmd(workload, inputs, ["--setup-only"]),
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        out.append(time.perf_counter() - t0)
        rest = proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=WORKER_GRACE_S) != 0 or line.strip() != "ready":
            raise RunError("set-up probe failed for %s" % workload)
        ref = statistics.median(json.loads(rest.strip().splitlines()[-1]))
        scaled.append(out[-1] * calib.NOMINAL_S / ref)
    return out, scaled


def run_worker(workload, inputs, seconds, extra=()):
    cmd = worker_cmd(workload, inputs, ["--seconds", str(seconds),
                                        "--workdir", workdir()] + list(extra))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("%s worker timed out" % workload)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("%s worker exited with %s" % (workload, proc.returncode))
    return json.loads(lines[-1])


def workdir():
    path = os.path.join(OUT, "work")
    os.makedirs(path, exist_ok=True)
    return path


def environment():
    return {"machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor(), "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "git_sha": git_sha()}


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit, samples, label):
    return {"value": value, "unit": unit, "samples": samples, "label": label}


def end_to_end(workload, res, setups, setups_scaled):
    """The contract's metrics, every timing scaled to the reference speed
    (calib.py); the measured values follow as `wall_*`."""
    ops, op, tail, _ = OPS[workload]
    n = res["samples"]
    tail_ms = "p%d_ms" % tail
    if tail_ms not in res:
        raise RunError("%d %ss are too few for a p%d" % (n, op, tail))
    out = {
        "setup_s": metric(statistics.median(setups_scaled), "s", len(setups),
                          "setup_s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB", 1, "peak_rss_mb"),
        "ops_per_s": metric(res["ops"] / res["op_time_s"], "1/s", n,
                            "%s_per_s" % ops),
        "op_p50_ms": metric(res["p50_ms"], "ms", n, "%s_p50_ms" % op),
        "op_tail_ms": metric(res[tail_ms], "ms", n, "%s_%s" % (op, tail_ms)),
    }
    if "p99_ms" in res and tail != 99:
        out["%s_p99_ms" % op] = metric(res["p99_ms"], "ms", n, "unbounded")
    wall = {"setup_s": statistics.median(setups),
            "ops_per_s": res["ops"] / res["wall_op_time_s"],
            "op_p50_ms": res["wall"]["p50_ms"],
            "op_tail_ms": res["wall"][tail_ms]}
    for name, value in wall.items():
        out["wall_" + name] = metric(value, out[name]["unit"],
                                     out[name]["samples"], "unbounded")
    out["ref_scale"] = metric(res["ref_scale"], "ratio", res["ref_samples"],
                              "unbounded")
    if "over_cap" in res:
        out["over_cap"] = metric(res["over_cap"], "count", n, "unbounded")
    return out


def run_once(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    inp = gen.inputs(workload, seed)
    inp["seed"] = seed
    inputs = os.path.join(OUT, "inputs-%s-%d.json" % (workload, seed))
    with open(inputs, "w") as fh:
        json.dump(inp, fh)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "cache_state": OPS[workload][3],
              "environment": environment()}
    if not trace:
        setups, setups_scaled = setup_seconds(workload, inputs)
        res = run_worker(workload, inputs, seconds)
        metrics = end_to_end(workload, res, setups, setups_scaled)
        results = [res]
    else:
        half = seconds / 2.0
        # The traced run reports neither a tail nor memory, so both halves
        # stop at their time.
        plain = run_worker(workload, inputs, half, ["--partial"])
        spans = os.path.join(OUT, "trace-%s-%d.json" % (workload, seed))
        traced = run_worker(workload, inputs, half,
                            ["--partial", "--trace", spans])
        layers = run_worker(workload, inputs, 0, ["--probes"])["layers"]
        metrics = {k: metric(m["value"], m["unit"], 1, k)
                   for k, m in layers.items()}
        # Same inputs in the same order: the ratio of median operation
        # times is the cost of the spans.
        metrics["trace.overhead_ratio"] = metric(
            traced["p50_ms"] / plain["p50_ms"], "ratio",
            traced["samples"] + plain["samples"], "trace.overhead_ratio")
        total = sum(traced["self_s"].values())
        record["self_time_s"] = traced["self_s"]
        record["self_share"] = {k: v / total for k, v in traced["self_s"].items()}
        record["spans_file"] = os.path.relpath(spans, ROOT)
        results = [plain, traced]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics["fail_rate"] = metric(failed / max(1, attempted), "share", attempted,
                                  "fail_rate")
    record.update({"correct": all(r["correct"] for r in results),
                   "attempted": attempted, "failed": failed,
                   "over_cap": sum(r.get("over_cap", 0) for r in results),
                   "metrics": metrics, "results": results})
    path = os.path.join(OUT, "BENCH_%s_s%d_t%d.json" % (workload, seed, trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(rec):
    print("== %s  seed=%d  seconds=%g  trace=%d  caches: %s"
          % (rec["workload"], rec["seed"], rec["seconds"], rec["trace"],
             rec["cache_state"]))
    env = rec["environment"]
    print("   %s, nproc=%d, Python %s, git %s" % (env["platform"], env["nproc"],
                                                  env["python"], env["git_sha"]))
    for name, m in rec["metrics"].items():
        alias = "" if m["label"] == name else "  (%s)" % m["label"]
        print("   %-40s %14.6g %-6s n=%d%s" % (name, m["value"], m["unit"],
                                               m["samples"], alias))
    for r in rec["results"]:
        if r.get("digest"):
            for k, counts in r["digest"].items():
                print("   theorems %-15s %s" % (k, " ".join(
                    "%s=%d" % kv for kv in sorted(counts.items()))))
        if r.get("unconfirmed"):
            print("   unconfirmed non-theorems (no 2-world countermodel): %d"
                  % r["unconfirmed"])
        for w in r.get("wrong", []):
            print("   WRONG: %s" % (w,))
    if rec.get("self_share"):
        print("   self time per layer (traced half): " + ", ".join(
            "%s %.1f%%" % (k, 100 * v) for k, v in
            sorted(rec["self_share"].items(), key=lambda kv: -kv[1])))
    print("   correct=%s attempted=%d failed=%d over_cap=%d"
          % (rec["correct"], rec["attempted"], rec["failed"], rec["over_cap"]))


def contract_line(records, prefix):
    metrics = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            if m["label"] in ("fail_rate", "unbounded"):
                continue
            key = "%s.%s" % (rec["workload"], name) if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wmodal", "__init__.py")):
        print("error: src/wmodal not found under %s" % ROOT, file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_once(name, args.seed, args.seconds, args.trace)
            report(rec)
            records.append(rec)
    except (RunError, OSError, ValueError, KeyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(contract_line(records, args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
