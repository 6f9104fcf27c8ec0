import argparse
import collections
import functools
import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hodgewalk
from hodgewalk import cheeger, exact, graded_cover, laplacians
from hodgewalk.cli import _path_count_oracle, build_parser, run

from conftest import FIXTURES, load_cover

TET = str(FIXTURES / "tetrahedron.cx")
BRANCHED = str(FIXTURES / "branched.cx")
EDGE = str(FIXTURES / "single_edge.cx")
RING = str(FIXTURES / "triangle_ring.cx")
NONSTRONG = str(FIXTURES / "nonstrong.cover")


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lp_branched(capsys):
    code, out = run_cli(capsys, "lp", BRANCHED)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t")[:3] == ["k", "face", "lp"]
    assert len(lines) == 27  # header + 26 faces
    values = {ln.split("\t")[1]: ln.split("\t")[2] for ln in lines[1:]}
    assert values["x3"] == "8"
    assert values["x2"] == "5"
    assert values["x1 x2"] == "2"
    assert values["x3 x4 x5 x6"] == "1"


def test_lp_cover_spec_input(capsys):
    code, out = run_cli(capsys, "lp", NONSTRONG)
    assert code == 0
    assert "a\t2\t1\t2\troot" in out


BOUND_TABLES = """\
table\tk\td_down\th_up\th_down\tlower_up\tlower_down\tgap\tupper_up\tupper_down
quotient\t1\t4/3\t2/3\t2/3\t1/9\t1/12\t0.666666666667\t2/3\t2/3
quotient\t2\t3/2\t1\t1\t1/12\t1/9\t0.666666666667\t2/3\t2/3
signed\t1\t4/3\t1/3\t4/9\t1/36\t1/27\t0.333333333333\t1/3\t4/9
signed\t2\t3/2\t2/3\t1/2\t1/27\t1/36\t0.333333333333\t4/9\t1/3
"""


def test_report_paper_tables_verbatim(capsys):
    code, out = run_cli(capsys, "report", "--paper-tables", TET)
    assert code == 0
    assert out == BOUND_TABLES


# unequal sides, and two quotient k=2 rows (one with a coherent signed row)
BRANCHED_TABLES = """\
table\tk\td_down\th_up\th_down\tlower_up\tlower_down\tgap\tupper_up\tupper_down
quotient\t1\t67/40\t3/11\t33/98\t9/484\t5445/321734\t0.158364793432\t3/11\t33/98
quotient\t2\t1/2\t1\t1/2\t1/12\t1/12\t0.333333333333\t2/3\t1/3
quotient\t2\t3/2\t1\t1\t1/12\t1/9\t0.666666666667\t2/3\t2/3
signed\t1\t67/40\t6/19\t89/228\t9/361\t39605/1741464\t0.247663434548\t6/19\t89/228
signed\t2\t1/2\t0\t0\t0\t0\t0\t0\t0
signed\t2\t3/2\t2/3\t1/2\t1/27\t1/36\t0.333333333333\t4/9\t1/3
"""


def test_report_paper_tables_branched_verbatim(capsys):
    code, out = run_cli(capsys, "report", "--paper-tables", BRANCHED)
    assert code == 0
    assert out == BRANCHED_TABLES


@pytest.mark.parametrize("path", [TET, BRANCHED, RING])
def test_paper_tables_gap_is_the_report_gap(capsys, path):
    """The tables print the float gap exactly as `report` prints gap_q and gap_s."""
    code, tables = run_cli(capsys, "report", "--paper-tables", path)
    assert code == 0
    code, plain = run_cli(capsys, "report", path)
    assert code == 0
    printed = set()
    for line in plain.splitlines()[1:]:
        cells = line.split("\t")
        printed |= {(cells[0], cells[4]), (cells[0], cells[8])}
    rows = [line.split("\t") for line in tables.splitlines()[1:]]
    assert rows
    for row in rows:
        assert (row[1], row[7]) in printed


def test_report_plain(capsys):
    code, out = run_cli(capsys, "report", EDGE, "--k", "1")
    assert code == 0
    assert "coherent" in out


def test_walk_sim_deterministic(capsys):
    args = ("walk-sim", TET, "--steps", "20000", "--seed", "7")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3 = run_cli(capsys, "walk-sim", TET, "--steps", "20000", "--seed", "8")
    assert out3 != out1


def test_walk_sim_start_flag(capsys):
    code, out = run_cli(capsys, "walk-sim", EDGE, "--steps", "100", "--seed", "1", "--start", "-x0 x1")
    assert code == 0
    code, _ = run_cli(capsys, "walk-sim", EDGE, "--steps", "100", "--seed", "1", "--start", "zzz")
    assert code == 1


def test_walk_sim_prints_the_lifts_of_the_start_component(tmp_path, capsys):
    spec = tmp_path / "two.cover"
    spec.write_text(
        "node a 0\nnode b 0\nnode c 1\nedge a c +1\nedge b c -1\n"
        "node d 0\nnode e 0\nnode f 0\nnode g 1\nnode h 1\n"
        "edge d g +1\nedge e g +1\nedge e h -1\nedge f h +1\n"
    )
    code, out = run_cli(capsys, "walk-sim", str(spec), "--steps", "2000", "--start=-g")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    lifts = [s + q for s in "+-" for q in "defgh"]
    assert [r[0] for r in rows] == lifts + ["total-variation"]
    assert sum(Fraction(r[2]) for r in rows[:-1]) == 1


def test_spectrum_and_rate(capsys):
    code, out = run_cli(capsys, "spectrum", TET, "--k", "0", "--direction", "up", "--rate")
    assert code == 0
    assert "convergence-rate\t\t0.666666666667" in out


def test_json_format(capsys):
    code, out = run_cli(capsys, "hodge", TET, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["header"][0] == "k"
    assert payload["rows"][0] == ["0", "4", "3", "0", "1"]


def test_coherent_and_partition_verbs(capsys):
    code, out = run_cli(capsys, "coherent", RING, "--k", "2", "--direction", "down")
    assert code == 0
    assert "\tyes\t" in out
    code, out = run_cli(capsys, "partition", RING, "--k", "2")
    assert code == 0
    assert "none" in out


def test_coherent_witness_column_is_detect_coherent(capsys):
    """Each component's witness column is its sorted detect_coherent witness."""
    path = str(FIXTURES / "two_triangles_bridged.cx")
    code, out = run_cli(capsys, "coherent", path, "--k", "1", "--direction", "up")
    assert code == 0
    cov = load_cover("two_triangles_bridged")
    comps = graded_cover.components(cov, "quotient-up", 1)
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert len(rows) == len(comps)
    witnesses = [graded_cover.detect_coherent(cov, comp, "up") for comp in comps]
    assert {w is None for w in witnesses} == {True, False}
    for ci, (row, comp, witness) in enumerate(zip(rows, comps, witnesses)):
        column = "" if witness is None else " ".join(
            ("-" if flip else "+") + cov.labels[q] for q, flip in sorted(witness.items())
        )
        assert row == [str(ci), str(len(comp)), "no" if witness is None else "yes", column]


def test_hodge_ranks_each_boundary_once(monkeypatch, capsys):
    """branched has three nonempty boundaries, each ranked once per run."""
    ranked = []

    def counting(mat):
        ranked.append(mat.shape)
        return exact.rational_rank(mat)

    monkeypatch.setattr(laplacians, "rational_rank", counting)
    code, out = run_cli(capsys, "hodge", BRANCHED)
    assert code == 0
    assert out.splitlines()[-1] == "betti\t\t\t\t1 1 0 0"
    assert sorted(ranked) == [(6, 1), (7, 12), (12, 6)]


def test_cheeger_verb(capsys):
    code, out = run_cli(capsys, "cheeger", TET, "--k", "1", "--direction", "down")
    assert code == 0
    assert "2/3\t4/9" in out


def test_stationary_verb_conditional(capsys):
    code, out = run_cli(capsys, "stationary", TET, "--k", "1", "--direction", "up", "--view", "cover")
    assert code == 0
    assert "+x0 x1" in out


def test_laplacian_verb(capsys):
    code, out = run_cli(capsys, "laplacian", TET, "--k", "1", "--normalized")
    assert code == 0
    assert "up\tx0 x1\tx0 x1\t0.333333333333" in out


def test_verify_ok_and_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", EDGE)
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("TOTAL\tyes")


def test_invalid_input_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.cx"
    bad.write_text("x0 x0 x1\n")
    code, _ = run_cli(capsys, "lp", str(bad))
    assert code == 1
    code, _ = run_cli(capsys, "lp", str(tmp_path / "missing.cx"))
    assert code == 1
    code, _ = run_cli(capsys, "nonsense", str(bad))
    assert code == 1


def test_guard_exit_two(tmp_path, capsys, monkeypatch):
    from hodgewalk import cheeger

    # a flower of 25 triangles sharing one edge: dim-2 down-component of 25;
    # a small budget trips on it at once, as the default one does in seconds
    monkeypatch.setattr(cheeger, "SEARCH_BUDGET", 1000)
    lines = [f"x0 x1 y{i}" for i in range(25)]
    big = tmp_path / "big.cx"
    big.write_text("\n".join(lines))
    code = run(["cheeger", str(big), "--k", "2", "--direction", "down"])
    assert code == 2
    assert "exceeds its budget of 1000 search nodes" in capsys.readouterr().err


def test_nonstrong_guard(capsys):
    code, _ = run_cli(capsys, "coherent", NONSTRONG, "--k", "0", "--direction", "up")
    assert code == 2


@pytest.mark.parametrize("k", ["9", "-1"])
@pytest.mark.parametrize(
    "verb",
    [
        ["stationary"],
        ["spectrum"],
        ["laplacian"],
        ["coherent", "--direction", "up"],
        ["partition"],
        ["cheeger"],
        ["report"],
    ],
)
def test_k_out_of_range_exit_one(verb, k, capsys):
    code = run([verb[0], TET, "--k", k, *verb[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: k={k} out of range 0..3\n"


def test_partition_long_cycle(tmp_path, capsys):
    cycle = tmp_path / "cycle1200.cx"
    cycle.write_text("\n".join(f"c{i} c{(i + 1) % 1200}" for i in range(1200)))
    code, out = run_cli(capsys, "partition", str(cycle), "--k", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("0\t1200\tc0 c10 c100 c1000 ")


def test_eigen_residual_failure_is_a_guard_exit(monkeypatch, capsys):
    def wrong_eigenpairs(mat):
        n = len(mat)
        return np.zeros(n), np.eye(n)

    monkeypatch.setattr(np.linalg, "eigh", wrong_eigenpairs)
    code = run(["spectrum", TET])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("guard: residual ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_float_mirror_overflow_is_a_guard_exit(tmp_path, capsys):
    # two nodes per layer, each joined to both nodes of the next layer:
    # a bottom node has H = 2**1029, beyond the float range
    layers = 1030
    spec = [f"node n{i}_{j} {i}" for i in range(layers) for j in (0, 1)]
    spec += [
        f"edge n{i}_{a} n{i + 1}_{b} +1"
        for i in range(layers - 1) for a in (0, 1) for b in (0, 1)
    ]
    path = tmp_path / "layers.cover"
    path.write_text("\n".join(spec))
    code = run(["spectrum", str(path), "--k", "0", "--direction", "up"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("guard: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def loaded_by_cli_import(module):
    probe = f"import sys, hodgewalk.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(hodgewalk.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout
    return out == "True\n"


def test_cli_import_leaves_multiprocessing_unloaded():
    assert not loaded_by_cli_import("multiprocessing")


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, about 3.7 MiB of resident memory; only the
    # walk simulator needs it
    assert not loaded_by_cli_import("hashlib")


def test_path_count_oracle_long_chain():
    n = 1100
    spec = [f"node n{i} {i}" for i in range(n)]
    spec += [f"edge n{i} n{i + 1} +1" for i in range(n - 1)]
    cover = graded_cover.parse_cover_spec("\n".join(spec))
    assert _path_count_oracle(cover)


# two 0-nodes sharing two 1-nodes, which share the 2-node t
SHARED_MID = """\
node a 0
node b 0
node e 1
node f 1
node t 2
edge a e +1
edge b e -1
edge a f +1
edge b f -1
edge e t +1
edge f t -1
"""


@pytest.mark.parametrize("argv", [["cheeger", "--k", "1"], ["report", "--k", "1"]])
def test_shared_mid_node_is_a_guard_exit(argv, tmp_path, capsys):
    spec = tmp_path / "shared.cover"
    spec.write_text(SHARED_MID)
    code = run([argv[0], str(spec), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("guard: auxiliary weights need a unique shared mid-node")
    assert captured.err.count("\n") == 1


def test_shared_mid_node_verify_skips_cheeger(tmp_path, capsys):
    spec = tmp_path / "shared.cover"
    spec.write_text(SHARED_MID)
    code = run(["verify", str(spec)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "\ncheeger_k1\tyes\tskipped: auxiliary weights need a unique shared mid-node" in (
        captured.out
    )
    assert captured.out.splitlines()[-1].startswith("TOTAL\t")


def test_child_count_other_than_k_plus_one_is_a_guard_exit(tmp_path, capsys):
    # t has two children, where the combined bounds' constants assume three
    spec = tmp_path / "shared.cover"
    spec.write_text(SHARED_MID)
    code = run(["report", str(spec), "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "guard: combined bounds need 3 children per 2-dimensional node: t has 2\n"
    )
    assert run(["verify", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "\ncheeger_k2\tyes\tskipped: combined bounds need 3 children" in out
    # the auxiliary Laplacian identity holds with t's actual child count
    assert "\naux_laplacian_identity_up_1_2\tyes\tfactor 2\n" in out


def test_child_counts_differing_in_a_component_skip_the_identity(tmp_path, capsys):
    # t has three children and s two; they share g, so no single factor fits
    spec = tmp_path / "mixed.cover"
    spec.write_text(
        "node e 1\nnode f 1\nnode g 1\nnode h 1\nnode t 2\nnode s 2\n"
        "edge e t +1\nedge f t -1\nedge g t +1\nedge g s +1\nedge h s -1\n"
    )
    assert run(["verify", str(spec)]) == 0
    out = capsys.readouterr().out
    skipped = "\tyes\tskipped: child counts differ across the component\n"
    assert "\naux_laplacian_identity_up_1_0" + skipped in out
    assert "\naux_laplacian_identity_down_2_4" + skipped in out


# e and g share a and b; f is a root; t's children e, f, g have RP 2, 1, 2
UNEVEN_RP = """\
node a 0
node b 0
node e 1
node g 1
node f 1
node t 2
edge a e +1
edge b e -1
edge a g +1
edge b g -1
edge e t +1
edge f t -1
edge g t +1
"""


def test_uneven_child_rp_skips_the_identity(tmp_path, capsys):
    # the up identity's off-diagonal needs RP(t) = 3*sqrt(RP(a)*RP(b)) for
    # each pair a, b of t's children, which fails when their RP differ
    spec = tmp_path / "uneven.cover"
    spec.write_text(UNEVEN_RP)
    assert run(["verify", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "\naux_laplacian_identity_up_1_2\tyes\tskipped: the children of t differ in RP\n" in out
    assert out.splitlines()[-1].startswith("TOTAL\tyes\t")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["cheeger", TET, "--k", "1", "--threads", "2"],
            "error: unrecognized arguments: --threads 2",
        ),
        (["frobnicate", TET], "error: argument verb: invalid choice: 'frobnicate'"),
        (["hodge", TET, "--normalized"], "error: unrecognized arguments: --normalized"),
    ],
)
def test_usage_error_is_one_line(argv, message, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["cheeger", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert run(argv) == 0
    assert "usage:" in capsys.readouterr().out


def test_search_budget_is_a_guard_exit(monkeypatch, capsys):
    monkeypatch.setattr(cheeger, "SEARCH_BUDGET", 100)
    code = run(["cheeger", RING, "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "guard: cut search exceeds its budget of 100 search nodes\n"


# every memoized builder, by module and public name
MEMOIZED = (
    ("graded_cover", "cover_from_complex"),
    ("graded_cover", "compute_path_weights"),
    ("graded_cover", "components"),
    ("graded_cover", "component_correspondence"),
    ("operators", "build_bundle"),
    ("operators", "build_conditional"),
    ("laplacians", "normalization_weights"),
    ("laplacians", "hodge"),
    ("laplacians", "boundary_rank"),
    ("cheeger", "build_aux"),
)

VERB_RUNS = (
    ["lp"],
    ["stationary"],
    ["stationary", "--k", "1", "--direction", "down", "--view", "cover"],
    ["walk-sim", "--steps", "1000"],
    ["spectrum"],
    ["spectrum", "--k", "1", "--direction", "up", "--flavor", "cover", "--rate"],
    ["laplacian", "--k", "1", "--normalized"],
    ["hodge"],
    ["coherent", "--k", "1", "--direction", "down"],
    ["partition", "--k", "1"],
    ["cheeger", "--k", "1"],
    ["report"],
    ["report", "--paper-tables"],
    ["verify"],
)


def test_verb_runs_cover_every_subcommand():
    subcommands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert {argv[0] for argv in VERB_RUNS} == set(subcommands)


@pytest.mark.parametrize("verb", VERB_RUNS, ids=" ".join)
@pytest.mark.parametrize("name", ["tetrahedron", "branched", "triangle_ring"])
def test_each_build_runs_once_per_key(name, verb, monkeypatch, capsys):
    runs = collections.Counter()

    def counting(fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            owner, *rest = bound.arguments.values()
            # one CLI run parses one input: equal arguments on another cover
            # or complex object would be a rebuild as well
            runs[(fn.__name__, type(owner).__name__, repr(rest))] += 1
            return fn(*args, **kwargs)

        return wrapper

    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "hodgewalk"]
    for mod_name, attr in MEMOIZED:
        builder = getattr(importlib.import_module(f"hodgewalk.{mod_name}"), attr)
        fresh = graded_cover.memoized(counting(builder.uncached))
        for mod in package:
            for alias, value in list(vars(mod).items()):
                if value is builder:
                    monkeypatch.setattr(mod, alias, fresh)
    assert run([verb[0], str(FIXTURES / f"{name}.cx"), *verb[1:]]) == 0
    capsys.readouterr()
    assert ("cover_from_complex", 1) in {(key[0], n) for key, n in runs.items()}
    assert {key: n for key, n in runs.items() if n > 1} == {}
