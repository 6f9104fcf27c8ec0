"""Every CLI output that LAPACK does not produce keeps its bytes.

``output_digests.tsv`` holds one line per invocation: the SHA-256 of its
exit code, stdout and stderr, then its argument list.  The runs cover
every verb form except ``spectrum`` (whose floats come from LAPACK and
may differ across builds) on every fixture, with the fixture named
relative to ``fixtures/``.  A change that means to alter an output
re-records the file with ``python tests/test_output_digests.py`` and
says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

from hodgewalk.cli import run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DIGESTS = Path(__file__).resolve().parent / "output_digests.tsv"

PLAIN_FORMS = (
    ["lp"],
    ["lp", "--format", "json"],
    ["stationary"],
    ["stationary", "--view", "cover"],
    ["walk-sim", "--steps", "3000", "--seed", "3"],
    ["hodge"],
    ["report"],
    ["report", "--paper-tables"],
    ["verify"],
    ["verify", "--format", "json"],
)


def k_forms(k: str):
    yield from (
        ["stationary", "--k", k, "--direction", d, "--view", v]
        for d in ("up", "down")
        for v in ("quotient", "cover")
    )
    yield from (["coherent", "--k", k, "--direction", d] for d in ("up", "down"))
    yield ["cheeger", "--k", k]
    yield from (["cheeger", "--k", k, "--direction", d] for d in ("up", "down"))
    yield ["partition", "--k", k]
    yield ["laplacian", "--k", k]
    yield ["laplacian", "--k", k, "--normalized"]
    yield ["report", "--k", k]


def invocations():
    forms = [*PLAIN_FORMS, *(f for k in ("-1", "0", "1", "2", "3") for f in k_forms(k))]
    for path in sorted(FIXTURES.iterdir()):
        for verb, *flags in forms:
            yield [verb, path.name, *flags]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def current() -> dict[str, str]:
    """Digest per invocation, run from ``fixtures/`` so no path is printed."""
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        return {" ".join(argv): digest(argv) for argv in invocations()}
    finally:
        os.chdir(cwd)


def recorded() -> dict[str, str]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {argv: sha for sha, argv in (line.split("\t") for line in lines)}


def test_every_non_lapack_output_keeps_its_bytes():
    want, got = recorded(), current()
    assert got.keys() == want.keys(), "the invocation list changed; re-record the digests"
    differ = [argv for argv in want if got[argv] != want[argv]]
    assert not differ, f"{len(differ)} outputs changed: " + "; ".join(differ[:20])


if __name__ == "__main__":
    DIGESTS.write_text(
        "".join(f"{sha}\t{argv}\n" for argv, sha in current().items()), encoding="utf-8"
    )
    print(f"recorded {sum(1 for _ in invocations())} digests in {DIGESTS}", file=sys.stderr)
