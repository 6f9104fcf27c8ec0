"""Tests of the benchmark itself, on the smallest inputs.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import check_job, compare, summarize  # noqa: E402
from inproc import run_jobs  # noqa: E402
from inputs import FIXTURES, make_input, write_inputs  # noqa: E402
from tracer import Tracer, root_time, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


# -- inputs -------------------------------------------------------------------


def test_annulus_face_counts_match_the_roadmap():
    assert make_input("annulus_4x3", 0)[1] == 56
    assert make_input("annulus_8x5", 5)[1] == 208


def test_same_seed_same_inputs_and_seed_zero_keeps_labels():
    assert make_input("triangle_ring", 7) == make_input("triangle_ring", 7)
    assert make_input("triangle_ring", 7) != make_input("triangle_ring", 8)
    text, _ = make_input("triangle_ring", 0)
    assert text.splitlines()[1:] == FIXTURES["triangle_ring"]


# -- checker ------------------------------------------------------------------

SPECTRUM = "operator\ti\tvalue\nfull-quotient\t0\t-0.5\nfull-quotient\t1\t0.25\n" \
           "full-quotient\t2\t1\nmin-eigenvalue-bound\t-1 + 2/3\tyes\n"
CHEEGER = "direction\tcomponent\tsize\th_quotient\th_signed\tcut\tsigned_cut\n" \
          "up\t0\t16\t1/3\t0\tx0 x1\t+x0 x1\ndown\t0\t16\t7/18\t7/18\tx0 x1\t+x0 -x1\n"


def test_checker_accepts_relabeled_output_within_tolerance():
    ref = summarize("spectrum", 0, SPECTRUM)
    shuffled = SPECTRUM.replace("0\t-0.5", "0\t-0.500000000001")
    assert compare(ref, summarize("spectrum", 0, shuffled), seed=3) == []
    relabeled = CHEEGER.replace("x0", "x9")
    assert compare(summarize("cheeger", 0, CHEEGER), summarize("cheeger", 0, relabeled), 3) == []


def test_checker_rejects_a_perturbed_eigenvalue():
    ref = summarize("spectrum", 0, SPECTRUM)
    bad = SPECTRUM.replace("1\t0.25", "1\t0.2500001")
    assert compare(ref, summarize("spectrum", 0, bad), seed=3)


def test_checker_rejects_a_perturbed_h_value():
    ref = summarize("cheeger", 0, CHEEGER)
    bad = CHEEGER.replace("7/18\t7/18", "7/18\t7/17")
    assert compare(ref, summarize("cheeger", 0, bad), seed=3)


def test_checker_rejects_exit_codes_and_tracebacks():
    ref = summarize("cheeger", 0, CHEEGER)
    assert check_job(ref, "cheeger", 2, "", "guard: capped", 1)
    assert check_job(ref, "cheeger", 0, CHEEGER, "Traceback (most recent call last):", 1)
    assert check_job(ref, "cheeger", 0, CHEEGER, "", 1) == []


def test_walk_output_is_compared_byte_for_byte_only_at_seed_zero():
    walk = "node\tempirical\tstationary\tabs_diff\n+x0\t0.5\t1/2\t0.0\n" \
           "total-variation\t0.004\t\t\n"
    ref = summarize("walk-sim", 0, walk)
    moved = walk.replace("+x0", "+x1")
    assert compare(ref, summarize("walk-sim", 0, moved), seed=0)
    assert compare(ref, summarize("walk-sim", 0, moved), seed=4) == []
    high = walk.replace("0.004", "0.03")
    assert compare(ref, summarize("walk-sim", 0, high), seed=4)


# -- traced run ---------------------------------------------------------------


@pytest.fixture()
def traced_smoke(tmp_path):
    workload = WORKLOADS["smoke"]
    write_inputs(workload.inputs, 3, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        return run_jobs(workload, tmp_path, tracer)
    finally:
        tracer.uninstall()


def test_tracer_uninstalls_cleanly(traced_smoke):
    from hodgewalk import cheeger, cli, operators
    from hodgewalk.exact import ScaledMatrix

    assert not hasattr(cli.run, "__wrapped__")
    assert not hasattr(cheeger.build_conditional, "__wrapped__")
    assert cheeger.eigen is operators.eigen
    assert not hasattr(ScaledMatrix.__matmul__, "__wrapped__")


def test_traced_self_times_and_remainder_sum_to_wall(traced_smoke):
    run = traced_smoke
    assert all(j["code"] == 0 for j in run["jobs"])
    selfs = self_times(run["layers"], run["spans"])
    assert min(selfs.values()) > -1e-9
    remainder = run["wall"] - root_time(run["spans"])
    assert remainder >= 0
    assert math.isclose(sum(selfs.values()) + remainder, run["wall"], rel_tol=1e-9)


def test_names_rebound_by_from_import_are_traced(traced_smoke):
    layers = traced_smoke["layers"]
    counters = traced_smoke["counters"]
    # report calls cheeger's own copies of build_conditional and eigen
    for layer in ("operators.build", "operators.eigen", "exact.matmul", "cheeger.signed",
                  "walks.simulate", "laplacians.hodge", "cli.emit"):
        assert layer in layers
    assert counters["walks.steps"] == 200000
    assert counters["graded_cover.pair_scans"] > 0
    assert 0 < counters["exact.matmul_useful"] <= counters["exact.matmul_mults"]


# -- whole runs ---------------------------------------------------------------


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = bench("--workload", "smoke", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS["smoke"].jobs)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_batches_repeat_until_the_seconds_are_used_up():
    # a smoke batch takes about 3 s, so 12 s leaves room for two or more
    proc = bench("--workload", "smoke", "--seed", "5", "--seconds", "12", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    jobs = len(WORKLOADS["smoke"].jobs)
    assert result["correct"] and result["attempted"] % jobs == 0
    detail = json.loads(
        (ROOT / ".bench_build/perfbench/smoke-seed5/result-trace0.json").read_text())
    batches = detail["batches"]
    assert len(batches) >= 2 and result["attempted"] == len(batches) * jobs
    # each batch starts only if one more like the last still fits in 12 s
    assert all(sum(batches[:i + 1]) + batches[i] <= 12 for i in range(len(batches) - 1))
    assert sum(batches) + batches[-1] > 12
    assert result["metrics"]["batch_s"]["value"] == statistics.median(batches)


def test_every_layer_metric_is_printed_with_its_unit():
    proc = bench("--workload", "smoke", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cuts", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
