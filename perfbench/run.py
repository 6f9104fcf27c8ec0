"""hodgewalk benchmark: CLI jobs timed from spawn to exit, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload {identities,cuts,large} \
        [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 each job runs as its own ``python3 -m hodgewalk.cli``
process, one at a time, and the end-to-end metrics are reported.  With
--trace 1 the same jobs run in one process through ``hodgewalk.cli.run``,
once plain and once under the tracer, and the per-layer metrics are
reported.  The last line of stdout is one JSON object.  Inputs, outputs
and traces are written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

from check import check_job
from inputs import write_inputs
from tracer import SPANNED, root_time, self_times
from workloads import JOB_VERBS, MODULES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

SETUP_SAMPLES = 9  # set-up children per run, spread over the gaps between jobs
JOB_LIMIT_S = 60.0  # a job running longer than this is killed and fails
RUN_BUDGET_S = 170.0  # work still running this long after the start is killed


def child_env(seed: int) -> dict:
    """Environment of every child: source tree on the path, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, env, stdout_path: Path, stderr_path: Path, limit: float) -> dict:
    """Run one child to exit; wall time from spawn to exit and its own rusage."""
    reaped: dict = {}
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        def reap():
            reaped["wait"] = os.wait4(proc.pid, 0)
            reaped["t1"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(max(limit, 0.0))
        finally:
            # not is_alive(): it can misreport after a join cut short by a signal
            timed_out = "wait" not in reaped
            if timed_out:  # over its limit, or this process is stopping
                proc.kill()
                waiter.join()
    _pid, status, usage = reaped["wait"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": None if timed_out else proc.returncode,
        "seconds": reaped["t1"] - t0,
        "rss_kib": usage.ru_maxrss,
        "timed_out": timed_out,
    }


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics in one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.exists() else {}


class SetupTimer:
    """Times children that import hodgewalk and load the workload's inputs."""

    def __init__(self, paths, env, work: Path):
        self.argv = [sys.executable, str(HERE / "setup_child.py"), *map(str, paths)]
        self.env, self.work = env, work
        self.times: list[float] = []

    def once(self) -> float:
        res = spawn(self.argv, self.env, self.work / "setup.out", self.work / "setup.err",
                    JOB_LIMIT_S)
        if res["code"] != 0:
            raise RuntimeError("set-up child failed: " + (self.work / "setup.err").read_text())
        return res["seconds"]

    def sample(self, n: int) -> None:
        self.times += [self.once() for _ in range(n)]


def run_batches(workload, inputs, env, seed, seconds, deadline, work, references, setup):
    """Whole batches of child-process jobs until --seconds is used up.

    Set-up samples are taken between the jobs of the first batch, so that
    they see the same machine as the jobs.
    """
    batches, records = [], []
    measured = 0.0
    per_gap = -(-SETUP_SAMPLES // (len(workload.jobs) + 1))
    while True:
        batch = []
        for index, job in enumerate(workload.jobs):
            if not batches:
                setup.sample(per_gap)
            path, faces = inputs[job.input]
            rec = {"job": job.id, "faces": faces, "batch": len(batches)}
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                rec.update(code=None, seconds=0.0, rss_kib=0,
                           problems=["not started: run time budget used up"])
            else:
                out, err = work / f"job{index}.out", work / f"job{index}.err"
                argv = [sys.executable, "-m", "hodgewalk.cli", *job.argv(str(path))]
                rec.update(spawn(argv, env, out, err, min(JOB_LIMIT_S, remaining)))
                if rec["timed_out"]:
                    rec["problems"] = ["killed at its time limit"]
                else:
                    rec["problems"] = check_job(
                        references.get(job.id), job.verb, rec["code"],
                        out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"),
                        seed)
            batch.append(rec)
        if not batches:
            setup.sample(per_gap)
        records += batch
        took = sum(r["seconds"] for r in batch)
        batches.append(took)
        measured += took
        if measured + took > seconds or time.monotonic() + took > deadline:
            return batches, records


def run_inproc(workload, input_dir, env, mode, work, deadline) -> dict:
    out_json = work / f"inproc-{mode}.json"
    argv = [sys.executable, str(HERE / "inproc.py"), str(input_dir), workload.name, mode,
            str(out_json)]
    res = spawn(argv, env, work / f"inproc-{mode}.out", work / f"inproc-{mode}.err",
                deadline - time.monotonic())
    if res["timed_out"]:
        return {"jobs": [], "error": "killed at the end of the run time budget"}
    if res["code"] != 0:
        return {"jobs": [], "error": (work / f"inproc-{mode}.err").read_text()[-2000:]}
    return json.loads(out_json.read_text(encoding="utf-8"))


def source_lines() -> dict[str, int]:
    pkg = ROOT / "src" / "hodgewalk"

    def loc(path: Path) -> int:
        return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())

    out = {f"{m}.loc": loc(pkg / f"{m}.py") for m in MODULES}
    out["src.loc"] = sum(loc(p) for p in pkg.rglob("*.py"))
    return out


def layer_metrics(workload, plain: dict, traced: dict, names) -> dict:
    """Per-layer metrics from the traced run, verb times from the plain run.

    Every name in ``names`` that is not computed here is a tracer counter.
    """
    counters = traced.get("counters", {})
    spans = traced.get("spans", [])
    selfs = self_times(traced.get("layers", []), spans)
    m: dict[str, float] = {}
    for layer in dict.fromkeys(layer for _mod, _attr, layer in SPANNED):
        m[f"{layer}_s"] = selfs.get(layer, 0.0)
    mults = counters.get("exact.matmul_mults", 0)
    m["exact.matmul_useful_share"] = counters.get("exact.matmul_useful", 0) / mults if mults else 0.0
    wall = traced.get("wall", 0.0)
    m["trace.unattributed_s"] = wall - root_time(spans)
    m["trace.overhead_share"] = wall / plain["wall"] if plain.get("wall") else 0.0
    by_id = {j["id"]: j["seconds"] for j in plain.get("jobs", [])}
    m["job.batch_s"] = plain.get("wall", 0.0)
    for name, verbs in JOB_VERBS.items():
        m[name] = sum(by_id.get(j.id, 0.0) for j in workload.jobs if j.verb in verbs)
    walk_s = sum(by_id.get(j.id, 0.0) for j in workload.jobs if j.steps)
    steps = sum(j.steps for j in workload.jobs)
    m["job.walk_steps_per_s"] = steps / walk_s if walk_s else 0.0
    m.update(source_lines())
    for name in names:
        m.setdefault(name, counters.get(name, 0))
    return m


def env_line() -> str:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return (f"env: nproc={os.cpu_count()} affinity={affinity} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # when terminated, still kill and reap the running child (see spawn)
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not (ROOT / "src" / "hodgewalk" / "cli.py").is_file():
        print(f"error: no hodgewalk source tree under {ROOT}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_build" / "perfbench" / f"{workload.name}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    inputs = write_inputs(workload.inputs, args.seed, work / "inputs")
    env = child_env(args.seed)
    references = load_references()
    env_info = env_line()
    print(env_info)
    print("inputs: " + ", ".join(f"{name} ({faces} faces)" for name, (_p, faces) in inputs.items()))
    setup = SetupTimer([p for p, _f in inputs.values()], env, work)
    setup.once()  # compiles bytecode and warms the file cache; not timed

    if args.trace == 0:
        batches, records = run_batches(workload, inputs, env, args.seed, args.seconds,
                                       deadline, work, references, setup)
        for r in records:
            status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
            print(f"job  {r['seconds']:9.3f} s  {r['rss_kib'] / 1024:7.1f} MiB  "
                  f"{r['faces']:4d} faces  {r['job']}  {status}")
        attempted = len(records)
        failed = sum(1 for r in records if r["problems"])
        metrics = {
            "setup_s": statistics.median(setup.times),
            "batch_s": statistics.median(batches),
            "peak_rss_mb": max(r["rss_kib"] for r in records) / 1024,
        }
        units = metric_units("end_to_end")
        detail = {"env": env_info, "batches": batches, "setups": setup.times, "jobs": records}
    else:
        plain = run_inproc(workload, work / "inputs", env, "plain", work, deadline)
        traced = run_inproc(workload, work / "inputs", env, "traced", work, deadline)
        records = []
        for mode, run in (("plain", plain), ("traced", traced)):
            if "error" in run:
                print(f"{mode} run failed:\n{run['error']}", file=sys.stderr)
            got = {j["id"]: j for j in run.get("jobs", [])}
            for job in workload.jobs:
                j = got.get(job.id)
                problems = ["job did not run"] if j is None else check_job(
                    references.get(job.id), job.verb, j["code"], j["stdout"], j["stderr"],
                    args.seed)
                records.append({"mode": mode, "job": job.id, "problems": problems,
                                "seconds": j["seconds"] if j else 0.0})
        attempted = len(records)
        failed = sum(1 for r in records if r["problems"])
        units = metric_units("per_layer")
        metrics = layer_metrics(workload, plain, traced, units)
        metrics["job.failed_share"] = failed / attempted
        for r in records:
            status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
            print(f"{r['mode']:6s} {r['seconds']:9.3f} s  {r['job']}  {status}")
        top = sorted((v, k) for k, v in metrics.items()
                     if k.endswith("_s") and k.split(".")[0] in MODULES)[::-1][:3]
        print("largest layers by self time: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))
        detail = {"env": env_info, "jobs": records, "metrics": metrics}

    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for name in units:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"run took {time.monotonic() - started:.1f} s")
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
