"""End-to-end and per-layer benchmark for `ghsel select` and `ghsel replicate`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are defined in
`workloads.py`; each run generates its inputs from --seed, issues a fixed
list of CLI commands whose length --seconds sets (closed loop, one command at
a time), checks the outputs and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 runs each command as its own process and reports the end-to-end
metrics.  --trace 1 runs the same commands inside this process, once
untraced and once traced, and reports the per-layer metrics of the traced
pass with the tracing overhead.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process: with two pool workers the replicate workload
# then uses no more threads than the two cores the reference machine has.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_process(argv: list, log: Path) -> dict:
    """Run one command to completion.  wait4 gives the CPU time and peak RSS
    of the process together with every descendant it waited for."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"{' '.join(argv[2:5])} exited {proc.returncode}:\n{tail}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def ghsel(*args) -> list:
    return [sys.executable, "-m", "ghsel.cli", *map(str, args)]


SETUP_PROBES = 3


def run_untraced(wl, case):
    # Each probe is a cold set-up in a fresh process; a single one varies by a
    # third from run to run on a shared machine, so the run reports the median.
    probe = [sys.executable, "-c", wl.setup_code(case)]
    setup_s = statistics.median(timed_process(probe, case.work / "setup.log")["wall_s"]
                                for _ in range(SETUP_PROBES))
    samples = [timed_process(ghsel(*argv), case.work / f"cmd{i}.log")
               for i, argv in enumerate(case.commands)]
    # The mean command, not the median: how many models a chain scores can
    # fall in two clusters over a workload's datasets (about 25 or 45 on
    # gh-n5000-p4-robustg), and a median of a dozen commands jumps between them.
    print("command wall_s:", [round(s["wall_s"], 3) for s in samples], file=sys.stderr)
    return {
        "wall_s": {"value": statistics.fmean(s["wall_s"] for s in samples), "unit": "s"},
        "cpu_s": {"value": statistics.fmean(s["cpu_s"] for s in samples), "unit": "s"},
        "peak_rss_mb": {"value": max(s["peak_rss_mb"] for s in samples), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def run_traced(wl, case):
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    from ghsel import cli

    def in_process():
        wall = 0.0
        for i, argv in enumerate(case.commands):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main([str(a) for a in argv])
            wall += time.perf_counter() - t0
            (case.work / f"cmd{i}.log").write_text(buf.getvalue(), encoding="utf-8")
            if code != 0:
                raise RuntimeError(f"{' '.join(map(str, argv[:3]))} exited {code}:\n"
                                   f"{buf.getvalue()}")
        return wall

    os.environ[tracing.TRACE_DIR_ENV] = str(case.work)
    untraced = in_process()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = in_process()
    finally:
        tracer.uninstall()
    tracer.merge_worker_files(case.work)
    layers = tracer.metrics(wall_s=traced, workers=wl.workers,
                            trace_bytes=wl.trace_bytes(case))
    metrics = {name: {"value": value, "unit": tracing.UNITS[name]}
               for name, value in layers.items()}
    metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.traced_wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ghsel" / "cli.py").is_file():
        print(f"error: no ghsel sources under {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    case = wl.prepare(args.seed, work, args.seconds)
    run = run_traced if args.trace else run_untraced
    metrics = run(wl, case)
    case.attempted += len(case.commands)

    def runner(argv):
        case.attempted += 1
        timed_process(ghsel(*argv), work / f"check{case.attempted}.log")

    wl.check(case, runner)
    for msg in case.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if not case.failures:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not case.failures, "attempted": case.attempted,
              "failed": case.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
