"""sha256 of every benchmark job output: four workloads, seeds 1-3.

    python3 tools/output_hashes.py > hashes.txt

Runs each job of ``perfbench/workloads.build`` once, in this process,
against the ``src/freemax`` of the checkout this file sits in: CLI jobs
through ``freemax.cli.dispatch``, library jobs through
``libjobs.CALLS``.  Prints one line per output,
``workload/seed/job/output sha256``, with ``exit=<code>`` after each CLI
output.  A library job's output is hashed over its sorted array names,
dtypes, shapes and bytes.

Reports name their input files, so every run works in one fixed
directory under the temp dir; two checkouts then differ only where their
outputs do.  To compare a change with its parent, copy this file into a
checkout of the parent, run both copies one after the other and ``diff``
the listings.
"""
import os

# BLAS threads can change the last bits of an eigensolve
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import freemax.cli  # noqa: E402
import libjobs  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
WORKDIR = os.path.join(tempfile.gettempdir(), "freemax-output-hashes")


def _file_hash(path: str) -> str:
    if not os.path.exists(path):
        return "missing"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _arrays_hash(arrays: dict) -> str:
    digest = hashlib.sha256()
    for name, value in sorted(arrays.items()):
        digest.update(f"{name}|{value.dtype.str}|{value.shape}|".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _run(job: dict) -> list[str]:
    """One ``output sha256`` entry per output of ``job``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if job["kind"] == "lib":
            return [f"{os.path.basename(job['outputs'][0])} "
                    f"{_arrays_hash(libjobs.CALLS[job['call']](job['params']))}"]
        code = freemax.cli.dispatch(job["argv"])
    return [f"{os.path.basename(path)} {_file_hash(path)} exit={code}" for path in job["outputs"]]


def main() -> None:
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            shutil.rmtree(WORKDIR, ignore_errors=True)
            os.makedirs(WORKDIR)
            for job in workloads.build(workload, seed, WORKDIR):
                for entry in _run(job):
                    print(f"{workload}/{seed}/{job['id']}/{entry}")
    shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    main()
