"""The benchmark's tracer must find every function it wraps in the package,
every benchmark job must be a command line the CLI accepts, and the CLI
entry points the benchmark calls must keep their contracts."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hodgewalk import cli
from hodgewalk.cli import build_parser

from test_cli import TET, VERB_RUNS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is created
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


@pytest.mark.parametrize(
    "mod_name, attr",
    [(mod, attr) for mod, attr, _layer in tracer.SPANNED + tracer.COUNTED],
)
def test_tracer_target_resolves(mod_name, attr):
    module = importlib.import_module(f"hodgewalk.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer replaces the entry in the class's own namespace
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_tracer_hooks_count_the_smoke_jobs(capsys):
    """The hooks read `.body` of each product's factors, `AuxiliaryGraph.n`,
    `simulate(steps=)` and `emit(rows=)`: every smoke job runs traced, exits
    0 and moves the counter each hook keeps."""
    from hodgewalk import cli

    fixtures = PERFBENCH.parent / "fixtures"
    traced = tracer.Tracer()
    traced.install()
    try:
        codes = [
            cli.run(job.argv(str(fixtures / f"{job.input}.cx")))
            for job in workloads.WORKLOADS["smoke"].jobs
        ]
    finally:
        traced.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(codes)
    for counter in (
        "exact.matmul_calls",
        "operators.eigen_calls",
        "cheeger.aux_nodes_max",
        "walks.steps",
        "cli.rows",
    ):
        assert traced.counters[counter] > 0, counter


@pytest.mark.parametrize(
    "job",
    [job for w in workloads.WORKLOADS.values() for job in w.jobs],
    ids=lambda job: job.id,
)
def test_benchmark_job_parses(job):
    # parsing only: a flag the CLI no longer takes raises ValueError here
    args = build_parser().parse_args(job.argv(f"{job.input}.cx"))
    assert args.verb == job.verb


def test_setup_child_loads_every_fixture():
    # the benchmark's setup_s is measured through cli.load_input(path)
    fixtures = sorted(str(p) for p in (PERFBENCH.parent / "fixtures").iterdir())
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_child.py"), *fixtures],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("verb", VERB_RUNS, ids=" ".join)
def test_verb_returns_its_table_and_prints_nothing(verb, capsys):
    # cli.run loads the input and prints the table; the verb only computes it
    args = build_parser().parse_args([verb[0], TET, *verb[1:]])
    header, rows = args.func(*cli.load_input(args.input, args.k), args)
    assert capsys.readouterr().out == ""
    assert isinstance(header, tuple) and isinstance(rows, list) and rows
    assert all(len(row) == len(header) for row in rows)


def test_readme_lists_the_numpy_verbs():
    import re

    from test_cli import NUMPY_FREE_RUNS, subcommands

    readme = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    match = re.search(r"The verbs that load numpy are\s+([^.:]*)", readme)
    assert match, "README no longer lists the verbs that load numpy"
    listed = set(re.findall(r"`([\w-]+)`", match.group(1)))
    assert listed == subcommands() - {verb for verb, *_flags in NUMPY_FREE_RUNS}


def test_readme_states_the_search_budget():
    import re

    from hodgewalk import cheeger

    readme = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    # the statement may wrap onto the next line
    match = re.search(r"`cheeger\.SEARCH_BUDGET` = ([\d,]+)\s+(search \w+)", readme)
    assert match, "README no longer states cheeger.SEARCH_BUDGET"
    value, unit = match.groups()
    assert int(value.replace(",", "")) == cheeger.SEARCH_BUDGET
    assert str(cheeger._over_budget()).endswith(f"budget of {cheeger.SEARCH_BUDGET} {unit}")


def test_readme_states_the_closure_budget():
    import re

    from hodgewalk import complex_core

    readme = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    match = re.search(r"`complex_core\.CLOSURE_BUDGET` = ([\d,]+)\s+(\w+)", readme)
    assert match, "README no longer states complex_core.CLOSURE_BUDGET"
    value, unit = match.groups()
    assert int(value.replace(",", "")) == complex_core.CLOSURE_BUDGET
    # one face whose closure is over the budget
    labels = " ".join(f"v{i}" for i in range(complex_core.CLOSURE_BUDGET.bit_length() + 1))
    with pytest.raises(complex_core.GuardError) as refused:
        complex_core.parse_complex(labels)
    assert str(refused.value).endswith(f"budget of {complex_core.CLOSURE_BUDGET} {unit}")


def test_cli_names_no_exception_class_of_another_module():
    """cli decides exit 2 on graded_cover.GuardError alone and leaves every
    other refusal to the module that raises it: no name or attribute in
    cli.py resolves to another hodgewalk module's exception class."""
    import ast

    import hodgewalk

    found = []
    local_modules = {}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    local_modules[alias.asname or alias.name] = alias.name
                else:
                    # a class imported by name is named there
                    found.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in local_modules:
            found.append((local_modules[node.value.id], node.attr))
    classes = {
        f"{module}.{name}"
        for module, name in found
        if isinstance(obj := getattr(getattr(hodgewalk, module), name, None), type)
        and issubclass(obj, BaseException)
    }
    assert classes == {"graded_cover.GuardError"}


def test_cmd_verify_only_concatenates_the_module_sections():
    """Each row family of `verify` is computed by the module that owns it:
    the body of cli.cmd_verify calls only <module>.verify_* functions and
    builtins, and cli.py keeps none of the old helpers, nor reads a
    matrix's integer body."""
    import ast
    import builtins

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    local_modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_path_count_oracle", "_adjacency_consistent", "_verify_checks"}
    (cmd_verify,) = [node for node in tree.body if getattr(node, "name", None) == "cmd_verify"]
    calls = []
    for node in ast.walk(cmd_verify):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            allowed = hasattr(builtins, func.id)
        else:
            allowed = (
                isinstance(func, ast.Attribute)
                and getattr(func.value, "id", None) in local_modules
                and func.attr.startswith("verify_")
            )
        if not allowed:
            calls.append(ast.unparse(func))
    assert calls == []
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not attrs & {"rows", "den"}


def test_both_cheeger_constants_share_one_cut_search():
    """The quotient and signed constants run one branch-and-bound loop:
    neither public search holds a ``while`` loop of its own, and exactly
    one function of cheeger.py besides the orientation search does."""
    import ast

    from hodgewalk import cheeger

    tree = ast.parse(Path(cheeger.__file__).read_text(encoding="utf-8"))
    looping = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(inner, ast.While) for inner in ast.walk(node))
    }
    assert not looping & {"cheeger_quotient", "cheeger_signed"}
    assert len(looping - {"_signed_best_orientation"}) == 1


def test_spectral_predicates_read_no_tolerance():
    """Every predicate of the package is exact: no module calls ``allclose``
    or ``isclose``, and the one float literal in (0, 1e-6] is the
    eigensolver's residual bound EIGEN_TOL, the one slack left."""
    import ast

    src = PERFBENCH.parent / "src" / "hodgewalk"
    found = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                tolerant = name in ("allclose", "isclose")
            else:
                tolerant = isinstance(node, ast.Constant) and type(node.value) is float and (
                    0 < node.value <= 1e-6 and lines[node.lineno - 1].strip() != "EIGEN_TOL = 1e-9"
                )
            if tolerant:
                found.append(f"{path.name}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    assert found == []


def test_walk_makes_no_python_call_per_step():
    """The walk loop reads the words of each RNG block inline, with a few
    calls per block: 20,000 steps (about 8 blocks) make fewer than 100 more
    Python-level calls than 2,000 steps, where a call per step or per draw
    would make thousands.  Both walks visit every state of the fixture, so
    they build the same number of empirical Fractions."""
    from hodgewalk import walks

    from conftest import load_cover

    cov = load_cover("branched")

    def calls(steps):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        sys.setprofile(profile)
        try:
            walks.simulate(cov, 0, steps, seed=1)
        finally:
            sys.setprofile(None)
        return count

    calls(1)  # warm the builder caches
    assert calls(20_000) - calls(2_000) < 100
