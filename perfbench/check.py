"""Output checker: compares each job's output with a reference summary.

A summary keeps only what relabeling the input's vertices cannot change:
exit codes, the verify TOTAL row, multisets of exact Cheeger values and
bounds with their sandwich flags, sorted eigenvalues, ranks and Betti
numbers, the Laplacian's nonzero count and multiset of absolute values,
and the walk's total variation.  The walk output is also compared byte
for byte at benchmark seed 0, where the labels are the unpermuted ones.
"""

from __future__ import annotations

import hashlib

EIGEN_TOL = 1e-8  # README: multiset matching of eigenvalues
TV_LIMIT = 0.02  # README: Monte Carlo threshold at 10^6 steps


def _rows(stdout: str) -> list[list[str]]:
    lines = stdout.splitlines()
    return [line.split("\t") for line in lines[1:]]


def summarize(verb: str, code, stdout: str) -> dict:
    """Relabeling-invariant summary of one job's output."""
    summary: dict = {"code": code}
    if code != 0:
        return summary
    rows = _rows(stdout)
    if verb == "verify":
        total = [r for r in rows if r[0] == "TOTAL"]
        summary["total"] = total[-1] if total else None
    elif verb == "cheeger":
        # direction, size, h_quotient, h_signed; witness cuts carry labels
        summary["exact"] = sorted([r[0], r[2], r[3], r[4]] for r in rows)
    elif verb == "report":
        # every column but the float gaps is exact; gaps match within EIGEN_TOL
        summary["exact"] = sorted(r[:4] + r[5:8] + r[9:] for r in rows)
        summary["floats"] = sorted(float(r[i]) for r in rows for i in (4, 8) if r[i])
    elif verb == "spectrum":
        values = [r for r in rows if r[1].isdigit()]
        summary["operators"] = sorted({r[0] for r in values})
        summary["floats"] = sorted(float(r[2]) for r in values)
        summary["exact"] = sorted(r for r in rows if not r[1].isdigit())
    elif verb == "laplacian":
        parts: dict[str, int] = {}
        for r in rows:
            parts[r[0]] = parts.get(r[0], 0) + 1
        summary["exact"] = [[part, n] for part, n in sorted(parts.items())]
        summary["floats"] = sorted(abs(float(r[3])) for r in rows)
    elif verb == "hodge":
        summary["exact"] = rows
    elif verb == "walk-sim":
        tv = [r for r in rows if r[0] == "total-variation"]
        summary["nodes"] = len(rows) - 1
        summary["tv"] = float(tv[0][1]) if tv else None
        summary["sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
    else:
        raise ValueError(f"no checker for verb {verb!r}")
    return summary


def compare(reference: dict, got: dict, seed: int) -> list[str]:
    """Mismatches between a reference summary and a job's summary."""
    problems = []
    for key, want in reference.items():
        have = got.get(key)
        if key == "floats":
            if have is None or len(have) != len(want) or any(
                abs(a - b) > EIGEN_TOL for a, b in zip(have, want)
            ):
                problems.append(f"{key}: values differ beyond {EIGEN_TOL}")
        elif key == "tv":
            if have is None or have > TV_LIMIT:
                problems.append(f"total variation {have} above {TV_LIMIT}")
        elif key == "sha256":
            if seed == 0 and have != want:
                problems.append("walk output differs at the default seed")
        elif have != want:
            problems.append(f"{key}: expected {want!r}, got {have!r}")
    return problems


def check_job(reference: dict | None, verb: str, code, stdout: str, stderr: str,
              seed: int) -> list[str]:
    """All problems with one job: exit code, traceback, output mismatch."""
    if reference is None:
        return ["no reference recorded"]
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    try:
        problems += compare(reference, summarize(verb, code, stdout), seed)
    except (ValueError, IndexError) as exc:
        problems.append(f"unparsable output: {exc}")
    return problems
