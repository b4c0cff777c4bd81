"""One workload in one fresh interpreter: a closed loop, one job at a time.

    python3 perfbench/worker.py probe --manifest M
    python3 perfbench/worker.py run --manifest M --seconds S --trace 0|1 [--spans F]

``run.py`` starts this with ``PYTHONPATH=src``, BLAS pinned to one
thread and ``FREEMAX_THREADS`` unset; started by hand, it keeps the
environment it is given, which is how the thread reference passes in the
README are made.

``probe`` imports ``freemax.cli``, loads the job list, prints ``ready``
and exits: the parent times it as set-up.  ``run`` makes a warm-up pass,
then repeats whole passes until ``--seconds`` have gone by, at least
two.  Outputs are left in the job's output files (library jobs: an
``.npz`` written after the warm-up run) for ``run.py`` to check once
this process has ended, so the checker's own imports and reference
matrices never count in this process's memory or time.  Each repeat's
output must equal the warm-up output byte for byte.  A job's cost is the
median of its measured repeats, whatever its check will say, so the
timed job set does not depend on which checks pass.  With ``--trace 1``
measured passes alternate untraced and traced; traced passes give the
per-layer metrics and the tracing overhead.  The last stdout line is one
JSON object.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

MIN_PASSES = 2
MAX_FAILURES_SHOWN = 5


def _load(manifest: str) -> list[dict]:
    with open(manifest, encoding="utf-8") as fh:
        return json.load(fh)


def _probe(args) -> None:
    import freemax.cli  # noqa: F401

    _load(args.manifest)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


class Runner:
    def __init__(self, jobs: list[dict]):
        import freemax.cli

        import libjobs

        self.cli = freemax.cli
        self.calls = libjobs.CALLS
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []
        self.reference: list = [None] * len(jobs)
        self.returned = [0] * len(jobs)  # passes in which each job gave its warm-up output
        self.keep_spans = None  # list that collects each traced job's spans

    def _execute(self, job):
        """Run one job; return (seconds, output) or raise."""
        if job["kind"] == "cli":
            t0 = time.perf_counter()
            code = self.cli.dispatch(job["argv"])
            seconds = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            output = []
            for path in job["outputs"]:
                with open(path, encoding="utf-8") as fh:
                    output.append(fh.read())
            return seconds, output
        t0 = time.perf_counter()
        output = self.calls[job["call"]](job["params"])
        return time.perf_counter() - t0, output

    @staticmethod
    def _fingerprint(output):
        if isinstance(output, list):
            return tuple(output)
        return tuple((k, v.dtype.str, v.shape, v.tobytes()) for k, v in sorted(output.items()))

    def _fail(self, job, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(f"{job['id']}: {message}")

    def run_pass(self, warm: bool, tracer=None, sums=None) -> list:
        """One pass over the job list; returns each job's seconds (None: failed)."""
        if tracer is not None:
            from tracer import job_sums

        costs = []
        for i, job in enumerate(self.jobs):
            self.attempted += 1
            try:
                seconds, output = self._execute(job)
            except Exception as exc:  # a raising job is a failed operation
                seconds, output = None, f"{type(exc).__name__}: {exc}"
            if tracer is not None:
                spans = tracer.take()
                for key, value in job_sums(spans).items():
                    sums[key] = sums.get(key, 0) + value
                if self.keep_spans is not None:
                    self.keep_spans.append((job["id"], spans))
            costs.append(seconds)
            if seconds is None:
                self._fail(job, output)
                continue
            if warm:
                self.reference[i] = self._fingerprint(output)
                if job["kind"] == "lib":
                    np.savez(job["outputs"][0], **output)
            elif self.reference[i] is None:
                costs[-1] = None
                self._fail(job, "its warm-up run raised")
                continue
            elif self._fingerprint(output) != self.reference[i]:
                # an output changed on a repeat: reports are not reproducible
                self.correct = False
                costs[-1] = None
                self._fail(job, "output differs from the warm-up output")
                continue
            self.returned[i] += 1
        return costs


def _job_costs(passes: list[list]) -> list[float]:
    """Each job's cost: the median of its measured repeats."""
    costs = []
    for repeats in zip(*passes):
        done = [c for c in repeats if c is not None]
        costs.append(statistics.median(done) if done else None)
    return costs


def _end_to_end(costs: list) -> dict:
    done = [c for c in costs if c is not None]
    if not done:
        return {}
    return {
        "jobs_per_s": len(done) / sum(done),
        "job_p50_ms": 1e3 * statistics.median(done),
        "job_p90_ms": 1e3 * statistics.quantiles(done, n=10, method="inclusive")[-1],
    }


def _single_threaded() -> bool:
    env = os.environ
    return env.get("FREEMAX_THREADS", "1") == "1" and all(
        env.get(var) == "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"))


def _run(args) -> None:
    runner = Runner(_load(args.manifest))
    runner.run_pass(warm=True)
    gc.collect()
    gc.freeze()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    plain, traced, layer_passes = [], [], []
    kept = []  # spans of the first traced pass, written out when the run ends
    # On a shared VM each vCPU slows down on its own, for seconds at a
    # time; rotating measured passes over the CPUs this process may use
    # gives every job repeats on each, so no job's cost is taken from one
    # CPU alone.  Only a single-threaded configuration is pinned: threads
    # of FREEMAX_THREADS or of BLAS need every CPU.
    cpus = sorted(os.sched_getaffinity(0)) if _single_threaded() else []
    start = time.perf_counter()
    while len(plain) + len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        traced_next = tracer is not None and len(traced) < len(plain)
        if cpus:
            os.sched_setaffinity(0, {cpus[len(traced if traced_next else plain) % len(cpus)]})
        if traced_next:
            sums = {}
            runner.keep_spans = kept if not traced else None
            tracer.install()
            try:
                traced.append(runner.run_pass(warm=False, tracer=tracer, sums=sums))
            finally:
                tracer.uninstall()
            layer_passes.append(tracing.layer_metrics(sums))
        else:
            plain.append(runner.run_pass(warm=False))

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "correct": runner.correct,
        "failures": runner.failures,
        "returned": runner.returned,
        "jobs": len(runner.jobs),
        "passes": len(plain) + len(traced),
        "metrics": _end_to_end(_job_costs(plain)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        _write_spans(args.spans, kept)
        layers = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
        untraced = result["metrics"].get("jobs_per_s")
        with_trace = _end_to_end(_job_costs(traced)).get("jobs_per_s")
        if untraced and with_trace:
            layers["trace.jobs_per_s"] = with_trace
            layers["trace.overhead_pct"] = 100.0 * (untraced / with_trace - 1.0)
        result["layers"] = layers
    sys.stdout.write(json.dumps(result) + "\n")


def _write_spans(path, kept) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        for job_id, spans in kept:
            for sid, parent, name, t0, t1, self_s, attr in spans:
                fh.write(json.dumps({"job": job_id, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "self": self_s,
                                     "attr": attr}) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "probe":
        _probe(args)
    else:
        _run(args)


if __name__ == "__main__":
    main()
