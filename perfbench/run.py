"""freemax benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run builds the workload's inputs from
the seed under ``.perfbench/``, times ``SETUP_PROBES`` fresh
interpreters until ``freemax.cli`` is imported and the job list is
loaded, then runs the workload in one more interpreter (``worker.py``)
and, once that has ended, checks the outputs it left (``checks.py``).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from worker import MAX_FAILURES_SHOWN

SETUP_PROBES = 5
# time a run may take beyond --seconds: input files, set-up probes, the
# worker's warm-up pass and its last pass, which may end after --seconds
SLACK_S = 140.0
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _environment(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env.pop("FREEMAX_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _setup_seconds(env: dict, manifest: str) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "probe", "--manifest", manifest],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return seconds


def _work(env: dict, args, manifest: str, spans: str, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "run", "--manifest", manifest, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _check_outputs(jobs: list[dict], result: dict) -> None:
    """Check each job's output in this process, after the worker has ended.

    A job whose output fails its check counts as failed in every pass in
    which it gave that output.
    """
    import checks

    for job, returned in zip(jobs, result["returned"]):
        if not returned:
            continue  # it raised in the warm-up pass: already counted
        try:
            checks.check(job, checks.read_output(job))
        except Exception as exc:
            result["failed"] += returned
            if len(result["failures"]) < MAX_FAILURES_SHOWN:
                result["failures"].append(f"{job['id']}: check: {type(exc).__name__}: {exc}")


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "freemax", "cli.py")):
        sys.stderr.write("perfbench: run from the root of a freemax checkout (src/freemax)\n")
        return 2
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        manifest = os.path.join(workdir, "jobs.json")
        jobs = workloads.build(args.workload, args.seed, workdir)
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        env = _environment(root)
        setup = statistics.median(_setup_seconds(env, manifest) for _ in range(SETUP_PROBES))
        spans = os.path.join(out_dir, f"spans-{args.workload}.jsonl")
        result = _work(env, args, manifest, spans, started + args.seconds + SLACK_S)
        _check_outputs(jobs, result)
    except (RuntimeError, OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result["failures"]:
        sys.stderr.write(f"perfbench: failed {line}\n")
    if args.trace:
        from tracer import LAYER_METRICS

        units = {k: unit for k, (unit, _) in LAYER_METRICS.items()}
        units.update({"trace.jobs_per_s": "1/s", "trace.overhead_pct": "%"})
        values = result.get("layers", {})
    else:
        units = END_TO_END
        values = dict(result["metrics"], peak_rss_mb=result["peak_rss_mb"], setup_s=setup)
    missing = [k for k in units if k not in values]
    if missing:
        sys.stderr.write(f"perfbench: no value for {', '.join(missing)}\n")
        return 1
    sys.stderr.write(f"perfbench: {args.workload} seed {args.seed}: {result['jobs']} jobs, "
                     f"{result['passes']} measured passes\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
