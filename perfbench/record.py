"""Record the output checker's references: python3 perfbench/record.py

Runs every job of every workload once at benchmark seed 0 and writes the
relabeling-invariant summary of each output to perfbench/references.json.
Run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import sys

from check import summarize
from inputs import write_inputs
from run import JOB_LIMIT_S, REFERENCES, ROOT, child_env, spawn
from workloads import WORKLOADS


def main() -> int:
    work = ROOT / ".bench_build" / "perfbench" / "record"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env(0)
    refs = {}
    for workload in WORKLOADS.values():
        inputs = write_inputs(workload.inputs, 0, work / "inputs")
        for job in workload.jobs:
            argv = [sys.executable, "-m", "hodgewalk.cli", *job.argv(str(inputs[job.input][0]))]
            res = spawn(argv, env, work / "out", work / "err", JOB_LIMIT_S)
            stdout = (work / "out").read_text(encoding="utf-8")
            refs[job.id] = summarize(job.verb, res["code"], stdout)
            print(f"{res['seconds']:8.2f} s  exit {res['code']}  {job.id}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
