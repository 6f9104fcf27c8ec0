"""Run a workload's jobs in one process through ``hodgewalk.cli.run``.

Usage: PYTHONPATH=src python3 perfbench/inproc.py INPUT_DIR WORKLOAD {plain,traced} OUT_JSON

Stdout and stderr of each job are captured.  In traced mode the tracer is
installed first, and its spans and counters are written to OUT_JSON with
the job outputs once every job has run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def run_jobs(workload, input_dir: Path, tracer=None) -> dict:
    from hodgewalk import cli

    jobs = []
    wall0 = time.perf_counter()
    for index, job in enumerate(workload.jobs):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(job.argv(str(input_dir / f"{job.input}.cx")))
            except Exception:
                traceback.print_exc()
                code = None
        jobs.append({
            "id": job.id,
            "code": code,
            "seconds": time.perf_counter() - t0,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
        })
    result = {"wall": time.perf_counter() - wall0, "jobs": jobs}
    if tracer is not None:
        tracer.job = -1
        result.update(tracer.dump())
    return result


def main(argv) -> int:
    input_dir, workload_name, mode, out_path = argv
    from workloads import WORKLOADS

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = run_jobs(WORKLOADS[workload_name], Path(input_dir), tracer)
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
