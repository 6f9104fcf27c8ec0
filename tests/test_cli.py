import argparse
import collections
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import hodgewalk
from hodgewalk import cheeger, exact, graded_cover, laplacians, operators
from hodgewalk.cli import _path_count_oracle, build_parser, run

from conftest import FIXTURES, benchmark_input, load_cover
from oracles import dense_of, dense_to_float

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


@pytest.mark.parametrize(
    "name, k, direction, dims",
    [
        ("tetrahedron", "0", "down", "-1/0"),
        ("tetrahedron", "3", "up", "3/4"),
        ("single_vertex", "0", "up", "0/1"),
    ],
)
def test_spectrum_rate_at_an_end_dimension_is_undefined(name, k, direction, dims, capsys):
    argv = ("spectrum", str(FIXTURES / f"{name}.cx"), "--k", k, "--direction", direction)
    code, rows = run_cli(capsys, *argv)
    assert code == 0
    code, out = run_cli(capsys, *argv, "--rate")
    assert code == 0
    undefined = f"undefined: no paired components in dimensions {dims}"
    assert out == rows + f"convergence-rate\t\t{undefined}\n"


def test_spectrum_rate_on_a_nonstrong_spec_is_a_guard_exit(capsys):
    assert run(["spectrum", NONSTRONG, "--k", "0", "--rate"]) == 2
    assert capsys.readouterr().err.startswith("guard: ")


@pytest.mark.parametrize("flavor, n", [("quotient", 6), ("signed", 6), ("cover", 12)])
def test_spectrum_operator_column(flavor, n, capsys):
    code, out = run_cli(capsys, "spectrum", TET, "--k", "1", "--direction", "down",
                        "--flavor", flavor)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["operator", "i", "value"]
    assert [r[:2] for r in rows[1:]] == [[f"A-down-1-{flavor}", str(i)] for i in range(n)]


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


def test_directory_input_is_one_error_line(tmp_path, capsys):
    code = run(["lp", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


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
    assert "exceeds its budget of 1000 search steps" in capsys.readouterr().err


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


def cli_env(**changes) -> dict:
    """The environment with this tree's package first on the path; a change
    to None removes that variable."""
    env = {**os.environ, "PYTHONPATH": str(Path(hodgewalk.__file__).parents[1])}
    env.update(changes)
    return {key: value for key, value in env.items() if value is not None}


def loaded_by_cli_import(module):
    probe = f"import sys, hodgewalk.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=cli_env()
    ).stdout
    return out == "True\n"


def test_cli_import_leaves_multiprocessing_unloaded():
    assert not loaded_by_cli_import("multiprocessing")


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, about 3.7 MiB of resident memory; only the
    # walk simulator needs it
    assert not loaded_by_cli_import("hashlib")


@pytest.mark.parametrize("module", ["dataclasses", "inspect", "json"])
def test_cli_import_leaves_start_up_modules_unloaded(module):
    # dataclasses pulls in inspect, about 23 ms of every start; the records
    # are NamedTuples, and only a json table imports json
    assert not loaded_by_cli_import(module)


# the verbs that make no float, with the flags the probe runs them with;
# the rest import numpy at their first eigensolve or RNG block
NUMPY_FREE_RUNS = (
    ["lp"],
    ["stationary"],
    ["coherent", "--k", "1", "--direction", "up"],
    ["partition", "--k", "1"],
    ["cheeger", "--k", "1"],
    ["laplacian", "--k", "1", "--normalized"],
    ["hodge"],
    ["verify"],
    ["report"],
    ["report", "--k", "1"],
    ["report", "--paper-tables"],
)


def test_numpy_free_verbs_leave_numpy_unloaded():
    # numpy's import is about half of the start-up of a short job; one
    # probe runs every numpy-free verb on every fixture and names the
    # first step after which numpy is loaded
    runs = [[verb, str(path), *flags] for verb, *flags in NUMPY_FREE_RUNS
            for path in sorted(FIXTURES.iterdir())]
    probe = (
        "import contextlib, io, sys\n"
        "import hodgewalk, hodgewalk.cli\n"
        "def loaded(step):\n"
        "    if 'numpy' in sys.modules:\n"
        "        print(step)\n"
        "        sys.exit()\n"
        "loaded('import hodgewalk')\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        hodgewalk.cli.run(argv)\n"
        "    loaded(' '.join(argv))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=cli_env()
    ).stdout
    assert out == "", f"numpy loaded by: {out.strip()}"


# the package's public names by the submodule that owns them
PUBLIC = {
    "complex_core": "ComplexFormatError Face SimplicialComplex adjacency boundary_matrix "
    "incidence_sign parse_complex",
    "graded_cover": "CoverSpecError GradedSignedDoubleCover NonStrongGradingError PathWeights "
    "component_correspondence components compute_path_weights cover_from_complex "
    "detect_coherent expected_path_length find_partition leaves_and_roots parse_cover_spec",
    "walks": "StationaryDistribution convergence_rate simulate stationary total_variation "
    "transition_conditional transition_full",
    "operators": "EigenResidualError OperatorBundle build_bundle build_conditional "
    "coherent_spectrum_check eigen min_eigenvalue_bound on_component verify_split",
    "laplacians": "HodgeReport betti_numbers check_laplacian_walk_identity hodge "
    "hodge_decomposition normalization_weights normalized_coboundary verify_hodge_properties",
    "cheeger": "AuxiliaryGraph BruteForceGuardError CheegerReport build_aux aux_laplacian "
    "cheeger_quotient cheeger_signed combined_report",
    "exact": "",
    "rng": "",
}


def test_package_exports_every_public_name_and_submodule():
    names = [name for names in PUBLIC.values() for name in names.split()]
    assert len(names) == 52
    assert hodgewalk.__all__ == sorted([*PUBLIC, *names])
    for module, owned in PUBLIC.items():
        assert getattr(hodgewalk, module) is sys.modules[f"hodgewalk.{module}"]
        for name in owned.split():
            assert getattr(hodgewalk, name) is getattr(getattr(hodgewalk, module), name), name
    with pytest.raises(AttributeError):
        hodgewalk.no_such_name


def test_cli_import_registers_every_submodule():
    # rebinding tools (tracers, monkeypatching) find every module, compiled
    # or not, in sys.modules
    probe = "import sys, hodgewalk.cli; print(*sorted(n for n in sys.modules if 'hodgewalk.' in n))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=cli_env()
    ).stdout
    assert out.split() == sorted(f"hodgewalk.{m}" for m in [*PUBLIC, "cli"])


# the submodules a run has compiled, by verb form; `import hodgewalk.cli`
# compiles the first three
BASE = {"cli", "complex_core", "graded_cover"}
COMPILED_BY = (
    (["lp"], BASE),
    (["stationary", "--k", "1", "--direction", "down", "--view", "cover"], BASE | {"walks"}),
    (["walk-sim", "--steps", "1000"], BASE | {"rng", "walks"}),
    (["spectrum"], BASE | {"exact", "operators"}),
    (["spectrum", "--k", "1", "--direction", "up", "--flavor", "cover", "--rate"],
     BASE | {"exact", "operators", "walks"}),
    (["laplacian", "--k", "1", "--normalized"], BASE | {"exact", "laplacians"}),
    (["hodge"], BASE | {"exact", "laplacians"}),
    (["coherent", "--k", "1", "--direction", "down"], BASE),
    (["partition", "--k", "1"], BASE),
    (["cheeger", "--k", "1"], BASE | {"cheeger", "exact", "operators"}),
    (["report"], BASE | {"cheeger", "exact", "operators"}),
    (["verify"], BASE | {"cheeger", "exact", "laplacians", "operators", "walks"}),
)


def test_each_verb_compiles_only_the_modules_it_touches():
    # one forked child per verb form, from one process that has imported
    # the CLI; a module not yet compiled is still a lazy module object
    argvs = [[verb, TET, *flags] for (verb, *flags), _ in COMPILED_BY]
    probe = (
        "import contextlib, io, os, sys, types\n"
        "import hodgewalk.cli\n"
        f"for argv in {argvs!r}:\n"
        "    if os.fork() == 0:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            code = hodgewalk.cli.run(argv)\n"
        "        names = [n.split('.')[1] for n, m in sys.modules.items()\n"
        "                 if n.startswith('hodgewalk.') and type(m) is types.ModuleType]\n"
        "        print(code, *sorted(names), flush=True)\n"
        "        os._exit(0)\n"
        "    os.wait()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=cli_env()
    ).stdout
    assert out.splitlines() == [f"0 {' '.join(sorted(mods))}" for _, mods in COMPILED_BY]


@pytest.mark.parametrize("argv, code", [
    (["lp", TET], 0),
    (["laplacian", TET, "--k", "1", "--normalized", "--format", "json"], 0),
    (["--help"], 0),
    (["lp", str(FIXTURES / "missing.cx")], 1),
    (["walk-sim", "{deep}", "--steps", "10"], 2),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_process_exit_matches_run(argv, code, unbuffered, tmp_path, capsys, monkeypatch):
    """`main` ends the process with os._exit: the files it leaves and its
    exit code are what in-process `run` prints and returns."""
    from test_walks import layered_spec

    monkeypatch.setenv("COLUMNS", "80")  # one help width on both sides
    deep = tmp_path / "deep.cover"
    deep.write_text(layered_spec(70, 35))
    argv = [str(deep) if a == "{deep}" else a for a in argv]
    assert run(argv) == code
    want = capsys.readouterr()
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("wb") as fout, err.open("wb") as ferr:
        proc = subprocess.run([sys.executable, "-m", "hodgewalk.cli", *argv],
                              stdout=fout, stderr=ferr, env=cli_env(PYTHONUNBUFFERED=unbuffered))
    assert proc.returncode == code
    assert out.read_text() == want.out
    assert err.read_text() == want.err
    assert len(want.err.splitlines()) == (code in (1, 2))
    assert want.err.startswith({0: "", 1: "error: ", 2: "guard: "}[code])


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_closed_stdout_pipe_is_one_error_line(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hodgewalk.cli", "lp", TET],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=cli_env(PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")


def test_verify_solves_no_spectrum(monkeypatch, capsys):
    """Every spectral row of `verify` is an exact eigenvalue count, and
    `spectrum` solves the full quotient spectrum once, for printing."""
    calls = []
    real = operators.eigen

    def counting(op):
        calls.append(op)
        return real(op)

    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "hodgewalk"]:
        for alias, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, alias, counting)
    for path in sorted(FIXTURES.iterdir()):
        assert run(["verify", str(path)]) == 0
        assert calls == [], path.name
    assert run(["spectrum", TET]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_spectrum_builds_only_the_quotient_operator(monkeypatch, capsys):
    """`spectrum` with no --k prints the full quotient spectrum and the
    min-eigenvalue bound without building the operator bundle."""
    def no_bundle(cover):
        raise AssertionError("spectrum built the operator bundle")

    for name in ("tetrahedron", "branched", "single_edge"):
        path = str(FIXTURES / f"{name}.cx")
        want = run_cli(capsys, "spectrum", path)
        with monkeypatch.context() as patch:
            patch.setattr(operators, "build_bundle", no_bundle)
            assert run_cli(capsys, "spectrum", path) == want


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
    assert captured.err == "guard: cut search exceeds its budget of 100 search steps\n"


# every memoized builder, by module and public name
MEMOIZED = (
    ("graded_cover", "cover_from_complex"),
    ("graded_cover", "compute_path_weights"),
    ("graded_cover", "components"),
    ("graded_cover", "component_correspondence"),
    ("operators", "quotient_operator"),
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


def subcommands() -> set[str]:
    """The verbs `build_parser` accepts."""
    return set(next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ))


def test_verb_runs_cover_every_subcommand():
    assert {argv[0] for argv in VERB_RUNS} == subcommands()
    assert {argv[0] for argv in verb_argvs("input.cx")} == subcommands()


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


def test_walk_sim_start_takes_a_one_token_flipped_lift(tmp_path, capsys):
    spec = tmp_path / "two.cover"
    spec.write_text("node a 0\nnode b 0\nnode c 1\nedge a c +1\nedge b c -1\n")
    base = ("walk-sim", str(spec), "--steps", "500", "--seed", "3")
    code, out = run_cli(capsys, *base, "--start", "-a")
    assert code == 0
    # the same walk as the `=` form, and not the one from the unflipped lift
    assert run_cli(capsys, *base, "--start=-a") == (0, out)
    assert run_cli(capsys, *base, "--start", "+a")[1] != out


def fixtures_and_annuli(tmp_path):
    """{file name: path} of every fixture and of annuli 3x2 and 4x2 from the
    benchmark's generator at seed 0, written to tmp_path."""
    paths = {p.name: p for p in FIXTURES.iterdir()}
    for name in ("annulus_3x2", "annulus_4x2"):
        paths[f"{name}.cx"] = tmp_path / f"{name}.cx"
        paths[f"{name}.cx"].write_text(benchmark_input(name))
    return paths


def test_laplacian_prints_the_float_mirror(tmp_path, capsys):
    """`laplacian` rounds each stored entry without numpy; the dense oracle
    `dense_to_float`, which shares no code with it, is its reference on
    every complex input."""
    header = ["part", "row", "col", "value"]
    for name, path in sorted(fixtures_and_annuli(tmp_path).items()):
        if path.suffix != ".cx":
            continue
        cx = hodgewalk.parse_complex(path.read_text())
        for k in range(cx.dimension + 1):
            labels = [str(f) for f in cx.faces_by_dim[k]]
            for normalized in ((), ("--normalized",)):
                lap = laplacians.hodge(cx, k, normalized=bool(normalized))
                rows = []
                for which, mat in zip(("up", "down"), lap):
                    fl = dense_to_float(dense_of(mat))
                    rows += [
                        [which, labels[i], labels[j], f"{float(fl[i, j]):.12g}"]
                        for i, row in enumerate(mat.rows)
                        for j in sorted(row)
                    ]
                argv = ("laplacian", str(path), "--k", str(k), *normalized)
                tsv = "".join("\t".join(r) + "\n" for r in [header] + rows)
                assert run_cli(capsys, *argv) == (0, tsv), (name, k, normalized)
                as_json = json.dumps({"header": header, "rows": rows}) + "\n"
                assert run_cli(capsys, *argv, "--format", "json") == (0, as_json)


def test_verify_rows_are_pinned(tmp_path, capsys):
    """The (check, ok) column of `verify`, TOTAL included, on every fixture
    and on annuli 3x2 and 4x2 from the benchmark's generator at seed 0;
    only the detail column may change."""
    golden = collections.defaultdict(list)
    lines = (Path(__file__).resolve().parent / "verify_rows.tsv").read_text().splitlines()
    for line in lines[1:]:
        name, check, ok = line.split("\t")
        golden[name].append((check, ok))
    paths = fixtures_and_annuli(tmp_path)
    assert set(golden) == set(paths)
    for name, path in sorted(paths.items()):
        code, out = run_cli(capsys, "verify", str(path))
        assert code == 0, name
        rows = [tuple(line.split("\t")[:2]) for line in out.splitlines()[1:]]
        assert rows == golden[name], name


# -- every verb on random small inputs ends in a defined exit -----------------


def verb_argvs(path):
    """Every verb, with --k 0-2 and both directions where it takes them
    (`cheeger` without --direction runs both)."""
    yield from (["lp", path], ["hodge", path], ["verify", path], ["spectrum", path],
                ["stationary", path], ["report", path], ["walk-sim", path, "--steps", "200"])
    for k in ("0", "1", "2"):
        yield from (["laplacian", path, "--k", k], ["partition", path, "--k", k],
                    ["report", path, "--k", k], ["cheeger", path, "--k", k])
        for direction in ("up", "down"):
            dk = ["--k", k, "--direction", direction]
            yield from (["stationary", path, *dk], ["spectrum", path, *dk, "--rate"],
                        ["coherent", path, *dk])


@st.composite
def random_input(draw):
    """(file text, suffix, is a complex): a complex on at most 6 vertices, or
    a strong or non-strong cover spec with at most 7 nodes in dimensions 0-3."""
    if draw(st.booleans()):
        faces = draw(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4),
                              min_size=1, max_size=5))
        text = "\n".join(" ".join(f"v{i}" for i in sorted(f)) for f in faces)
        return text + "\n", ".cx", True
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=7))
    strong = draw(st.booleans())
    lines = [f"node n{i} {d}" for i, d in enumerate(dims)]
    for c, dc in enumerate(dims):
        for p, dp in enumerate(dims):
            if (dp == dc + 1 if strong else dp > dc) and draw(st.booleans()):
                lines.append(f"edge n{c} n{p} {draw(st.sampled_from(['+1', '-1']))}")
    return "\n".join(lines) + "\n", ".cover", False


# a verb call that runs this long has hung: every verb call of the tests
# below ends well inside one second
VERB_SECONDS = 20


class VerbTimeout(BaseException):
    """Raised into a verb call that outlives VERB_SECONDS; a BaseException,
    so that no handler of the CLI takes it for a failed input."""


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise VerbTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_every_verb_ends(text, suffix, is_complex):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_text(text)
        for argv in verb_argvs(str(path)):
            out, err = io.StringIO(), io.StringIO()
            try:
                with (
                    contextlib.redirect_stdout(out),
                    contextlib.redirect_stderr(err),
                    time_limit(VERB_SECONDS),
                ):
                    code = run(argv)
            except VerbTimeout:
                pytest.fail(f"{argv} ran past {VERB_SECONDS} s on {text[:200]!r}")
            assert code in (0, 1, 2, 3), (argv, text)
            if code in (1, 2):
                lines = err.getvalue().splitlines()
                prefix = "error: " if code == 1 else "guard: "
                assert len(lines) == 1 and lines[0].startswith(prefix), (argv, text, lines)
            if is_complex:
                assert code != 3, (argv, text)


@seed(20261018)
@settings(max_examples=20, deadline=None)
@given(random_input())
def test_every_verb_ends_in_a_defined_exit(case):
    assert_every_verb_ends(*case)


@pytest.mark.parametrize("layers, wide", [(65, 32), (70, 35)])
def test_every_verb_ends_on_deep_layered_specs(layers, wide):
    """Past 64 layers the largest draw total exceeds 2**64 (3 * 2**63 at 65
    layers, 3 * 2**68 at 70), which `walk-sim` refuses with exit 2; the
    random specs above have at most 7 nodes, so no draw total of theirs
    comes near that limit."""
    from test_walks import layered_spec

    assert_every_verb_ends(layered_spec(layers, wide), ".cover", False)


def test_verify_transition_rows_catch_a_broken_walk(monkeypatch, capsys):
    """The transition rows read the sparse integer rows of P: moving mass
    within a quotient row keeps it stochastic but breaks detailed balance
    and the stationary fixed point; adding mass to one cover row breaks its
    sum and the flip symmetry."""
    from hodgewalk import walks
    from hodgewalk.exact import ScaledMatrix

    real = walks.transition_full

    def broken(cover, view="quotient"):
        m = real(cover, view)
        body = [{j: Fraction(v, m.den) for j, v in row.items()} for row in m.rows]
        b1, b2 = sorted(body[0])[:2]
        eps = body[0][b2] / 2
        body[0][b1] += eps
        if view == "quotient":
            body[0][b2] -= eps
        return ScaledMatrix(m.row_scale, m.col_scale, body)

    monkeypatch.setattr(walks, "transition_full", broken)
    code, out = run_cli(capsys, "verify", TET)
    assert code == 3
    ok = dict(line.split("\t")[:2] for line in out.splitlines()[1:])
    assert ok["row_stochastic_quotient"] == "yes"
    assert ok["row_stochastic_cover"] == "no"
    assert ok["detailed_balance_quotient"] == "no"
    assert ok["flip_commutation"] == "no"
    assert ok["stationary_fixed_point_0"] == "no"
