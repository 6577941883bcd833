"""One fresh, single-threaded workload process; prints one JSON line.

    python3 perfbench/child.py ROOT WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (import the package and build the inputs, nothing else),
``measure`` (set up, then run whole or partial passes over the items for
SECONDS; tracing off) or ``trace`` (one untraced pass, then one traced pass
over a second copy of the inputs; their call-time ratio is the tracing
overhead).  Set-up and measured calls are timed under ``speed.SpeedProbe``
and reported both raw and at the reference speed.  ``run.py`` starts these
processes; see README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

import speed
import tracing
import workloads

SETUP_BURST_S = 0.1  # reference samples around set-up, which may be short


def import_package(root: Path):
    """Import the package from the checkout's ``src`` and nowhere else."""
    src = root / "src"
    if not (src / "limitset_lab" / "__init__.py").is_file():
        raise SystemExit(f"no limitset_lab package under {src}")
    sys.path.insert(0, str(src))
    import limitset_lab
    import limitset_lab.cli
    import limitset_lab.pseudometric_core
    import limitset_lab.setvalued_maps
    if Path(limitset_lab.__file__).resolve().parent != (src / "limitset_lab").resolve():
        raise SystemExit(f"limitset_lab imported from {limitset_lab.__file__}")
    return limitset_lab


def run_pass(work, seconds, state, tracer=None, probe=None):
    """Run passes over the items until ``seconds`` have gone by.

    At least one whole pass runs; workloads with many shuffled items may
    stop after any later item.  ``state`` accumulates counted items,
    attempts, failures and the first pass's outputs; an output that differs
    from the first pass's is a failure, and so is an exception, after which
    the run goes on.  Returns arrays of the start, end and duration of every
    timed call; durations leave out the time ``probe`` took inside the call.
    Arrays keep the bookkeeping small, so it hardly moves peak RSS.
    """
    clock = time.perf_counter
    outputs = state["outputs"]
    starts, ends, durations = array("d"), array("d"), array("d")
    start = clock()
    passes = 0
    while True:
        for i, (run, check) in enumerate(work.items):
            stolen = probe.stolen if probe else 0.0
            t0 = clock()
            try:
                raw, error = (tracer.item(i, "item", run) if tracer else run()), None
            except Exception as exc:  # a failed item; the run goes on
                raw, error = None, exc
            t1 = clock()
            starts.append(t0)
            ends.append(t1)
            durations.append(t1 - t0 - ((probe.stolen if probe else 0.0) - stolen))
            if error is None:
                try:
                    out, ok, n = check(raw)
                except Exception as exc:
                    error = exc
            if error is not None:
                out, ok, n = f"{type(error).__name__}: {error}".encode(), False, 0
            if i == len(outputs):
                outputs.append(out)
            elif out != outputs[i]:
                ok, out = False, b"output differs from the first pass"
            state["attempted"] += 1
            state["items"] += n
            if not ok:
                state["failed"] += 1
                if len(state["notes"]) < 5:
                    state["notes"].append(f"item {i}: {out[:300]!r}")
            if passes and not work.whole_passes and clock() - start >= seconds:
                return starts, ends, durations
        passes += 1
        if clock() - start >= seconds:
            return starts, ends, durations


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(len(out).to_bytes(8, "big"))
        h.update(out)
    return h.hexdigest()


def traced(lab, name, seed, workdir, work, state) -> dict:
    """One untraced pass, then one traced pass over freshly built inputs."""
    untraced = sum(run_pass(work, 0, state)[2])
    tracer = tracing.Tracer()
    tracer.install()
    (workdir / "b").mkdir()
    work_b = tracer.item(-1, "setup", lambda: workloads.BUILD[name](
        lab, seed, workdir / "b"))
    traced_s = sum(run_pass(work_b, 0, state, tracer)[2])
    return {
        "metrics": tracer.layer_metrics(traced_s / untraced,
                                        work.extras(state["outputs"])),
        "missing": tracer.missing,
        "zero_calls": tracer.zero_call_flags(name),
        "untraced_s": untraced,
        "traced_s": traced_s,
        "spans": tracer.span_table(),
        "item_spans": tracer.items,
    }


def measured(work, timings, probe) -> dict:
    """Latency and throughput, raw and at the probe's reference speed.

    A latency sample is one call, or one whole pass for workloads that run
    whole passes.
    """
    starts, ends, raw = timings
    factors = probe.factors(zip(starts, ends))
    norm = [d * f for d, f in zip(raw, factors)]
    raw = list(raw)
    if work.whole_passes:
        k = len(work.items)
        raw = [sum(raw[i:i + k]) for i in range(0, len(raw), k)]
        norm = [sum(norm[i:i + k]) for i in range(0, len(norm), k)]
    raw.sort()
    norm.sort()
    return {"samples": len(raw), "busy_s": sum(norm), "raw_busy_s": sum(raw),
            "latency_p50_s": statistics.median(norm),
            "latency_p99_s": percentile(norm, 0.99),
            "raw_latency_p50_s": statistics.median(raw),
            "raw_latency_p99_s": percentile(raw, 0.99),
            "speed_samples": len(probe.costs)}


def main(argv):
    root, name, seed, seconds, mode = Path(argv[0]), argv[1], int(argv[2]), \
        float(argv[3]), argv[4]
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    (workdir / "a").mkdir()
    state = {"items": 0, "attempted": 0, "failed": 0, "outputs": [], "notes": []}
    try:
        with speed.SpeedProbe() as probe:
            probe.burst(SETUP_BURST_S)
            stolen, t0 = probe.stolen, time.perf_counter()
            lab = import_package(root)
            work = workloads.BUILD[name](lab, seed, workdir / "a")
            t1 = time.perf_counter()
            setup_raw = t1 - t0 - (probe.stolen - stolen)
            probe.burst(SETUP_BURST_S)
            if mode == "measure":
                timings = run_pass(work, seconds, state, probe=probe)
        result = measured(work, timings, probe) if mode == "measure" else {}
        if mode == "trace":
            result = traced(lab, name, seed, workdir, work, state)
        result.update(setup_s=setup_raw * probe.factors([(t0, t1)])[0],
                      raw_setup_s=setup_raw)
        if mode != "setup":
            result.update(items=state["items"], attempted=state["attempted"],
                          failed=state["failed"], notes=state["notes"],
                          digest=digest(state["outputs"]))
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
