"""limitset-lab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src``.  Each workload runs in fresh single-threaded processes
(see child.py): first set-up-only processes, then one process that measures
with tracing off (``--trace 0``, end-to-end metrics) or one that traces every
layer (``--trace 1``, per-layer metrics).  Human-readable lines come first;
the last line of standard output is the JSON result.  A full record of the
run is written to ``.perfbench_out/`` in the checkout.  README.md has the
workloads, items and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "omega", "semicontinuity", "requests")
SETUP_PROCESSES = 2   # set-up-only processes; the measuring one adds a sample
TIME_LIMIT_S = 170    # whole run, every process included


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": git_commit(), "source_sha256": src.hexdigest()}


def git_commit():
    """HEAD of the checkout's own .git, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child(workload: str, seed: int, seconds: float, mode: str,
          deadline: float) -> dict:
    """Run child.py in a fresh process and return its JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0", LIMITSET_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(ROOT), workload,
         str(seed), str(seconds), mode],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} process for {workload} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, deadline) -> tuple:
    runs = [child(args.workload, args.seed, 0, "setup", deadline)
            for _ in range(SETUP_PROCESSES)]
    res = child(args.workload, args.seed, args.seconds, "measure", deadline)
    runs.append(res)
    setups = [r["setup_s"] for r in runs]
    raw_setups = [r["raw_setup_s"] for r in runs]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "items_per_s": metric(res["items"] / res["busy_s"], "1/s"),
        "latency_p50_ms": metric(res["latency_p50_s"] * 1e3, "ms"),
        "latency_p99_ms": metric(res["latency_p99_s"] * 1e3, "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    counts = {"setup_s": len(setups), "items_per_s": res["items"],
              "latency_p50_ms": res["samples"], "latency_p99_ms": res["samples"],
              "peak_rss_mb": 1}
    raw = {"setup_s": statistics.median(raw_setups),
           "items_per_s": res["items"] / res["raw_busy_s"],
           "latency_p50_ms": res["raw_latency_p50_s"] * 1e3,
           "latency_p99_ms": res["raw_latency_p99_s"] * 1e3,
           "peak_rss_mb": res["peak_rss_mb"]}
    lines = [f"metric {k} = {m['value']:.6g} {m['unit']} (n={counts[k]}; "
             f"raw {raw[k]:.6g})" for k, m in metrics.items()]
    lines.append(f"metric failed_ratio = {res['failed'] / res['attempted']:.6g} "
                 f"({res['failed']} of {res['attempted']} attempted)")
    res["setup_samples_s"] = setups
    res["raw_setup_samples_s"] = raw_setups
    return metrics, counts, res, lines


def trace(args, deadline) -> tuple:
    res = child(args.workload, args.seed, args.seconds, "trace", deadline)
    units = dict(tracing.per_layer_metric_names())
    metrics = {k: metric(v, units[k]) for k, v in res["metrics"].items()}
    lines = [f"trace overhead {res['metrics']['trace.overhead_ratio']:.3f}x "
             f"({res['traced_s']:.3f} s traced / {res['untraced_s']:.3f} s untraced)"]
    lines += [f"missing {name}" for name in res["missing"]]
    lines += [f"zero calls {name} (expected on {args.workload})"
              for name in res["zero_calls"]]
    lines.append(f"{'self_s':>10} {'calls':>9}  span <- parent")
    for row in res["spans"][:20]:
        lines.append(f"{row['self_s']:10.4f} {row['calls']:9d}  "
                     f"{row['name']} <- {row['parent']}")
    lines += [f"metric {k} = {m['value']:.6g} {m['unit']}"
              for k, m in metrics.items() if m["value"]]
    return metrics, {}, res, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "limitset_lab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no limitset_lab sources under {ROOT / 'src'}\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = environment()
    metrics, counts, res, lines = (trace if args.trace else measure)(args, deadline)
    correct = res["failed"] == 0 and res["attempted"] > 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: closed loop, one client, one process")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"items {res['items']} attempted {res['attempted']} failed {res['failed']}")
    for note in res["notes"]:
        print(f"failure {note}")
    print(f"digest sha256={res['digest']} (canonical outputs, first pass)")
    for line in lines:
        print(line)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "correct": correct, "metrics": metrics, "sample_counts": counts,
              "run": res}
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
