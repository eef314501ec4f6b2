"""The tropnp benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout: tropnp is imported from its ``src/``.
Workloads (each generated from --seed; see worker.py):

  compute-planar  random planar maps through ``tropnp compute``
  compute-3d      the map3d fixture, then random n = 3 maps, through
                  ``tropnp compute`` and ``tropnp newton --tnp``
  oracle-grid     ``grid_compare`` grids and ``in_tnp`` point verdicts on
                  the map2d and map3d fixtures

With --trace 0 the workload runs untraced for --seconds of program time (and
at least the jobs after which peak RSS is read) and the end-to-end metrics
are reported.  With --trace 1 a fixed prefix of the same stream (half of
--seconds' worth at the rates of the baseline commit, so that the counts of
a seed repeat exactly) runs once with the external tracer and once without
it, and the per-layer metrics are reported with the tracing overhead.  Every
pass is a fresh process, and TNP_THREADS is removed from the environment so
that the program runs with its default thread count.

Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compute-planar", "compute-3d", "oracle-grid")

# (name, unit) of the metrics printed with --trace 0.  On the compute
# workloads a job is one map; on oracle-grid throughput is the median over
# rounds of grid points per second and latency is per point-path verdict.
END_TO_END = [
    ("throughput_per_s", "1/s"),
    ("latency_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_RUNS = 5
# Untraced jobs per second at the baseline commit (2 cores, Python 3.11):
# sizes the traced pass to about half of --seconds.
BASELINE_JOBS_PER_S = {"compute-planar": 12.0, "compute-3d": 0.8,
                       "oracle-grid": 0.17}
DEADLINE_S = 170.0          # a whole run stays under three minutes


class BenchError(RuntimeError):
    pass


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k], len(sorted_values) - k - 1


class Runner:
    def __init__(self, args):
        self.args = args
        self.t_start = time.monotonic()
        self.tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.pop("TNP_THREADS", None)
        self.passes = 0

    def worker(self, mode, jobs=0, spans=None):
        """Run one worker process; (result dict, wall seconds)."""
        self.passes += 1
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--mode", mode,
               "--jobs", str(jobs), "--tmp", str(self.tmp / f"p{self.passes}")]
        if spans:
            cmd += ["--spans", str(spans)]
        budget = DEADLINE_S - (time.monotonic() - self.t_start)
        if budget <= 0:
            raise BenchError("out of time before the " + mode + " pass")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=budget)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass exceeded {budget:.0f} s") from exc
        wall = time.perf_counter() - t0
        shutil.rmtree(self.tmp / f"p{self.passes}", ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n"
                             + proc.stderr[-3000:])
        if mode == "setup":
            return None, wall
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), wall
        except (IndexError, ValueError) as exc:
            raise BenchError(f"{mode} pass printed no result:\n"
                             + proc.stderr[-3000:]) from exc


def describe_checks(res, lines):
    lines += [f"checked: {c}" for c in res["checks"]]
    if res["pool_exhausted"]:
        lines.append("note: the generated input pool ran out before --seconds")
    lines += [f"FAILED {f}" for f in res["stats"]["failures"]]


def measured_run(runner, args, lines):
    setups = [runner.worker("setup")[1] for _ in range(SETUP_RUNS)]
    res, _ = runner.worker("measure")
    st = res["stats"]
    secs = st["seconds"]
    if not secs:
        raise BenchError("no job completed")
    p50, _ = percentile(secs, 0.5)
    p90, beyond = percentile(secs, 0.9)
    setup_s = statistics.median(setups)
    if args.workload == "oracle-grid":
        rates = st["round_grid_rates"]
        if not rates:
            raise BenchError("no round completed its grids")
        throughput = statistics.median(rates)
        lines += [
            f"points_per_s      {throughput:10.3f} points/s  (grid path, "
            f"median of {len(rates)} rounds: {st['grid_points']} points in "
            f"{st['grids']} grids, {st['grid_s']:.2f} s)",
            f"verdict_s.p50     {p50:10.4f} s         (point path, n={len(secs)})",
            f"verdict_s.p90     {p90:10.4f} s         (point path, n={len(secs)}, "
            f"{beyond} samples beyond)",
            f"members           grid {st['grid_members']} of {st['grid_points']}, "
            f"point path {st['point_members']} of {len(secs)}",
        ]
    else:
        throughput = st["jobs"] / st["program_s"]
        lines += [
            f"maps_per_s        {throughput:10.3f} maps/s    "
            f"(n={st['jobs']} maps in {st['program_s']:.2f} s)",
            f"map_s.p50         {p50:10.4f} s         (n={len(secs)})",
        ]
        if beyond >= 10:
            lines.append(f"map_s.p90         {p90:10.4f} s         "
                         f"(n={len(secs)}, {beyond} samples beyond)")
        else:
            lines.append(f"map_s.p90         not reported: {beyond} samples "
                         f"beyond it, fewer than 10 (max {secs[-1]:.3f} s)")
        lines.append(f"refusals (exit 2)  {st['refusals']} of {st['jobs']} maps")
        lines.append(f"nonempty outputs   {st['nonempty']} of {st['jobs']} maps"
                     + (f"; newton --tnp ran on {st['newton']}, skipped on "
                        f"{st['newton_skipped']} with more than "
                        f"{st['newton_max_pieces']} pieces" if args.workload == "compute-3d" else ""))
    lines += [
        f"setup_s           {setup_s:10.4f} s         (median of "
        f"{SETUP_RUNS} set-up processes: {', '.join(f'{s:.3f}' for s in setups)})",
        f"peak_rss_mb       {res['peak_rss_mb']:10.2f} MB        (measured "
        f"process, high-water mark after its first {res['rss_jobs']} jobs)",
        f"failed_frac       {res['failed'] / max(res['attempted'], 1):10.4f}           "
        f"({res['failed']} of {res['attempted']} attempted)",
        "gated in the JSON line as throughput_per_s = "
        + ("points_per_s, latency_s.p50 = verdict_s.p50"
           if args.workload == "oracle-grid" else
           "maps_per_s, latency_s.p50 = map_s.p50")
        + ", setup_s, peak_rss_mb",
    ]
    describe_checks(res, lines)
    metrics = {"throughput_per_s": throughput, "latency_s.p50": p50,
               "setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"]}
    return res, metrics


def traced_run(runner, args, lines):
    jobs = max(1, round(args.seconds / 2 * BASELINE_JOBS_PER_S[args.workload]))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced, _ = runner.worker("trace", jobs=jobs, spans=spans)
    plain, _ = runner.worker("replay", jobs=jobs)
    values = traced["per_layer"]
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.overhead_s"] = values["trace.wall_s"] - plain["wall_s"]
    if traced["negative_self_spans"]:
        raise BenchError(f"{traced['negative_self_spans']} spans with "
                         f"negative self time")
    wall = values["trace.wall_s"]
    lines += [
        f"traced jobs        {values['trace.jobs']} (the first jobs of the "
        f"seed's stream), {traced['spans']} spans written to "
        f"{spans.relative_to(ROOT)}",
        f"tracing overhead   {values['trace.overhead_s']:.3f} s: traced "
        f"{wall:.3f} s - untraced {plain['wall_s']:.3f} s",
        f"self-time sum      {values['trace.self_sum_s']:.3f} s of "
        f"{wall:.3f} s traced wall time "
        f"({100 * values['trace.self_sum_s'] / wall:.1f}%)",
    ]
    describe_checks(traced, lines)
    return traced, plain, values


def main(argv=None):
    ap = argparse.ArgumentParser(description="tropnp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tropnp" / "cli.py").is_file():
        print(f"perfbench: no tropnp sources under {ROOT / 'src'}; run it "
              f"from the root of a tropnp checkout", file=sys.stderr)
        return 2

    runner = Runner(args)
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        f"environment: Python {platform.python_version()}, "
        f"os.cpu_count()={os.cpu_count()}, TNP_THREADS unset (program default)",
    ]
    try:
        if args.trace:
            traced, plain, values = traced_run(runner, args, lines)
            metrics = {}
            for name, unit, moves in traced["per_layer_table"]:
                metrics[name] = {"value": values[name], "unit": unit}
                lines.append(f"{name:36s} {values[name]:14.6g} {unit:6s} "
                             f"-> {moves}")
            attempted = traced["attempted"] + plain["attempted"]
            failed = traced["failed"] + plain["failed"]
            if traced["ref_entries"] != plain["ref_entries"]:
                failed += 1
                lines.append("FAILED traced and untraced passes disagree")
        else:
            res, values = measured_run(runner, args, lines)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            attempted, failed = res["attempted"], res["failed"]
    except BenchError as exc:
        print("\n".join(lines), flush=True)
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)

    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
