#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--workdir <dir>]

The build goes to .bench_build/perfbench (configured on every call, which
is quick once configured, and rebuilt incrementally).  Working files go to
--workdir, by default a fresh directory under .bench_work/ in the checkout,
removed after the run; pass a directory on a memory-backed file system
(tmpfs) to keep the device out of the numbers.  Traced runs leave their
span dump in .bench_work/traces/.

Build output goes to stderr.  The binary's comment lines are passed on, and
the last line of stdout is the result, checked against BENCHMARK.json: an
untraced run must report every end-to-end metric; a traced run must report
every per-layer metric of the layers the workload enters (LAYERS), and
gets 0 for the metrics of the layers it never enters.  Exits non-zero,
printing no result, when the build or the run fails or a metric is
missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# The layers each workload enters, by metric-name prefix.
LAYERS = {
    "replay_lu": ("io", "trace"),
    "managed_kernels": ("io", "vm", "apps", "trace"),
    "serve_native": ("io", "net", "trace"),
}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build() -> Path:
    build_dir = ROOT / ".bench_build" / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def complete(result, workload, trace):
    """Orders the metrics as BENCHMARK.json lists them and checks units.

    Raises ValueError on a missing end-to-end metric, a missing per-layer
    metric of a layer the workload enters, an unlisted metric or a unit
    that differs from the listing.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    measured = dict(result["metrics"])
    metrics = {}
    for m in listed:
        got = measured.pop(m["name"], None)
        if got is None:
            layer = m["name"].split(".", 1)[0]
            if not trace or layer in LAYERS[workload]:
                raise ValueError(f"missing metric {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got['unit']}, "
                             f"listed as {m['unit']}")
        metrics[m["name"]] = got
    if measured:
        raise ValueError(f"unlisted metrics {sorted(measured)}")
    result["metrics"] = metrics
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(LAYERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, default=None)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    work_root = ROOT / ".bench_work"
    workdir = args.workdir or work_root / f"{args.workload}-{os.getpid()}"
    trace_out = work_root / "traces" / f"{args.workload}-seed{args.seed}.csv"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 2
    try:
        result = complete(json.loads(lines[-1]), args.workload,
                          args.trace == 1)
    except (ValueError, KeyError) as e:
        print(f"perfbench: bad result: {e}", file=sys.stderr)
        return 5
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
