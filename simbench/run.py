#!/usr/bin/env python3
"""Runs the wireless-network simulator benchmark.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `simbench` binary from source
(release, offline; `CARGO_TARGET_DIR` is honoured), then repeats the
workload for about `--seconds` seconds, one process per repetition, so
each repetition has its own peak resident set. Every repetition uses
the same seed, hence the same inputs: its output checks must pass and
its event count and digests must equal the first repetition's, or it
counts as failed.

With `--trace 0` the last stdout line reports the end-to-end metrics
(medians over the repetitions). With `--trace 1` it reports the
per-layer metrics: the first half of the time runs untraced
repetitions as the base, the rest traced ones; layer values are
medians over the traced repetitions and `bench.trace_overhead` is the
traced median wall over the untraced median wall, minus 1. The spans
of the last traced repetition are written to `simbench/out/`.
End-to-end runs give the city's executor one worker; traced runs and
their base give it every core.

Exits 2 without a result when the build fails, and 1 without a result
when every repetition of a phase failed; a printed result exits 0 and
reports failed repetitions in `failed` and `correct`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("saturated-bss", "city-shards", "qos-obss")
# (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("events_per_s", "1/s"), ("peak_rss_mb", "MB"))
# Fewest repetitions a run makes, whatever --seconds says.
MIN_REPS = 3
# A repetition that takes longer than this is killed and counts as failed.
REP_TIMEOUT_S = 150


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr)
    except OSError as err:
        print(f"simbench: cannot run cargo: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "simbench")
    return exe if os.path.isfile(exe) else None


def repetition(exe, workload, seed, trace, one_worker):
    """Runs one repetition; returns its record, or None if it failed."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0"]
    if one_worker:
        cmd += ["--workers", "1"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"simbench: repetition timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = None
    if done.returncode != 0 or rec is None or not rec.get("ok"):
        print(f"simbench: repetition failed (exit {done.returncode})", file=sys.stderr)
        print(done.stderr[-4000:], file=sys.stderr)
        if rec is not None:
            print(f"simbench: checks {rec.get('checks')}", file=sys.stderr)
        return None
    return rec


def fingerprint(rec):
    return (rec["events"], rec["trace_fnv"], rec["metrics_fnv"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    traced = args.trace == "1"

    exe = build()
    if exe is None:
        print("simbench: build failed", file=sys.stderr)
        return 2

    # End-to-end runs execute the city's components on one worker: with
    # one per core, a neighbour loading either core of a small shared host
    # stalls the whole parallel phase, and events_per_s spread ~20% across
    # runs on 2 cores. Traced runs, base included, use every core (the
    # binary's default), so the exec.* metrics and the trace overhead
    # describe the parallel executor.
    start = time.monotonic()
    state = {"first": None, "failed": 0}

    def collect(trace, until, at_least):
        """Repeats until the next repetition would end past `until`."""
        recs, last_s = [], 0.0
        while len(recs) < at_least or time.monotonic() - start + last_s <= until:
            if state["failed"] > MIN_REPS:
                break
            t = time.monotonic()
            rec = repetition(exe, args.workload, args.seed, trace, not traced)
            last_s = time.monotonic() - t
            first = state["first"]
            if rec is not None and first is not None and fingerprint(rec) != fingerprint(first):
                print(f"simbench: same seed, different output: "
                      f"{fingerprint(rec)} != {fingerprint(first)}", file=sys.stderr)
                rec = None
            if rec is None:
                state["failed"] += 1
                continue
            state["first"] = first or rec
            recs.append(rec)
        return recs

    # Traced runs spend the first half of the time on the untraced base.
    untraced = collect(False, args.seconds / 2 if traced else args.seconds, MIN_REPS)
    traced_recs = collect(True, args.seconds, 1) if traced else []
    first, failed = state["first"], state["failed"]

    attempted = len(untraced) + len(traced_recs) + failed
    if not untraced or (traced and not traced_recs):
        print(f"simbench: {failed} of {attempted} repetitions failed; no result", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced + "
          f"{len(traced_recs)} traced repetitions, {failed} failed")
    print(f"events {first['events']} shards {first['shards']} "
          f"trace_fnv {first['trace_fnv']} metrics_fnv {first['metrics_fnv']}")
    print("model outputs (simulated time, checked, not regression metrics): " +
          ", ".join(f"{k}={v['value']} {v['unit']}" for k, v in first["outputs"].items()))
    print("checks: " + ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in first["checks"].items()))
    for rec in untraced + traced_recs:
        print(f"  {'traced  ' if rec['traced'] else 'untraced'} wall_s {rec['wall_s']:.4f} "
              f"setup_s {rec['setup_s']:.4f} loop_s {rec['loop_s']:.4f} "
              f"peak_rss_mb {rec['peak_rss_mb']:.1f}")

    metrics = {}
    if not traced:
        per_rep = {
            "wall_s": [r["wall_s"] for r in untraced],
            "setup_s": [r["setup_s"] for r in untraced],
            "events_per_s": [r["events"] / r["loop_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(per_rep[name]), "unit": unit}
    else:
        for name, first_metric in traced_recs[0]["layers"].items():
            values = [r["layers"][name]["value"] for r in traced_recs]
            metrics[name] = {"value": statistics.median(values), "unit": first_metric["unit"]}
        base = statistics.median([r["wall_s"] for r in untraced])
        traced_wall = statistics.median([r["wall_s"] for r in traced_recs])
        metrics["bench.trace_overhead"] = {"value": traced_wall / base - 1, "unit": "ratio"}
        metrics["bench.trace_base_wall_s"] = {"value": base, "unit": "s"}
        print(f"trace overhead: traced wall {traced_wall:.4f} s / untraced median {base:.4f} s "
              f"over {len(untraced)} runs - 1 = {traced_wall / base - 1:+.4f}")
        write_spans(args.workload, args.seed, traced_recs[-1]["spans"])

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_spans(workload, seed, spans):
    """Writes the spans and prints self time per span name."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{workload}-{seed}.json")
    with open(path, "w") as f:
        json.dump(spans, f)
    totals = {}
    for s in spans:
        t = totals.setdefault(s["name"], [0, 0.0, 0.0])
        t[0] += 1
        t[1] += s["end_s"] - s["start_s"]
        t[2] += s["self_s"]
    print(f"spans written to {os.path.relpath(path)}; per name: count, total s, self s")
    for name, (n, total, own) in totals.items():
        print(f"  {name:28s} {n:5d} {total:10.4f} {own:10.4f}")


if __name__ == "__main__":
    sys.exit(main())
