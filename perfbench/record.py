"""Record reference outputs for the shipped seeds.

    python3 perfbench/record.py --workload W --seed N --jobs K

Runs the first K jobs of the workload's stream for seed N, untraced, and
stores each job's checked outcome in perfbench/references/W.json: for the
compute workloads the exit code and digests of the piece geometry and the
recovered fan, for oracle-grid each grid's point and member counts and each
point-path verdict.  While recording, every nonempty compute output is also
checked against the oracle.  Record only on a commit whose outputs are
trusted; run.py then compares every later run of that seed against them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def dump(refs) -> str:
    """The references as JSON with one job per line."""
    out = ["{"]
    if "fixture" in refs:
        out.append(f'"fixture": {json.dumps(refs["fixture"])},')
    out.append('"seeds": {')
    seeds = sorted(refs["seeds"].items(), key=lambda kv: int(kv[0]))
    for k, (seed, entries) in enumerate(seeds):
        out.append(f'"{seed}": [')
        out.append(",\n".join(json.dumps(e, separators=(",", ":"))
                              for e in entries))
        out.append("]," if k < len(seeds) - 1 else "]")
    out.append("}}")
    return "\n".join(out) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description="record benchmark references")
    ap.add_argument("--workload", required=True,
                    choices=("compute-planar", "compute-3d", "oracle-grid"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    args = ap.parse_args(argv)

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as tmp:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--mode", "replay", "--jobs",
             str(args.jobs), "--tmp", tmp, "--record"],
            cwd=ROOT, capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["failed"]:
        sys.exit(f"record: {res['failed']} failed jobs: {res['stats']['failures']}")
    entries = res["ref_entries"]

    path = HERE / "references" / f"{args.workload}.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    if args.workload == "compute-3d":
        refs["fixture"] = entries.pop(0)
    refs.setdefault("seeds", {})[str(args.seed)] = entries
    tmp_path = path.with_suffix(".tmp")
    tmp_path.write_text(dump(refs))
    tmp_path.replace(path)
    print(f"{path.relative_to(ROOT)}: seed {args.seed}, {len(entries)} jobs")


if __name__ == "__main__":
    main()
