import json

import numpy as np
import pytest

from hodgewalk import graded_cover, operators
from hodgewalk.cli import _path_count_oracle, run

from conftest import FIXTURES

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
quotient\t1\t4/3\t2/3\t2/3\t1/9\t1/12\t2/3\t2/3\t2/3
quotient\t2\t3/2\t1\t1\t1/12\t1/9\t2/3\t2/3\t2/3
signed\t1\t4/3\t1/3\t4/9\t1/36\t1/27\t1/3\t1/3\t4/9
signed\t2\t3/2\t2/3\t1/2\t1/27\t1/36\t1/3\t4/9\t1/3
"""


def test_report_paper_tables_verbatim(capsys):
    code, out = run_cli(capsys, "report", "--paper-tables", TET)
    assert code == 0
    assert out == BOUND_TABLES


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


def test_guard_exit_two(tmp_path, capsys):
    # a flower of 25 triangles sharing one edge: dim-2 down-component of 25
    lines = [f"x0 x1 y{i}" for i in range(25)]
    big = tmp_path / "big.cx"
    big.write_text("\n".join(lines))
    code, _ = run_cli(capsys, "cheeger", str(big), "--k", "2", "--direction", "down")
    assert code == 2


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

    monkeypatch.setattr(operators, "jacobi_eigh", wrong_eigenpairs)
    code = run(["spectrum", TET])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("guard: residual ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_path_count_oracle_long_chain():
    n = 1100
    spec = [f"node n{i} {i}" for i in range(n)]
    spec += [f"edge n{i} n{i + 1} +1" for i in range(n - 1)]
    cover = graded_cover.parse_cover_spec("\n".join(spec))
    assert _path_count_oracle(cover, graded_cover.compute_path_weights(cover))
