"""Workloads and jobs of the benchmark.

A job is one ``hodgewalk <verb> <input> [flags]`` call.  Each workload
lists its jobs; its inputs (by generator name) follow from them.  Why each
workload was chosen, and every metric's name, unit and direction, are in
BENCHMARK.json; which end-to-end metric each per-layer metric should move
is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    verb: str
    input: str
    flags: tuple[str, ...] = ()

    @property
    def id(self) -> str:
        return " ".join((self.verb, self.input) + self.flags)

    def argv(self, path: str) -> list[str]:
        return [self.verb, path, *self.flags]

    @property
    def steps(self) -> int:
        """Walk steps the job simulates (walk-sim only)."""
        if self.verb != "walk-sim":
            return 0
        flags = list(self.flags)
        return int(flags[flags.index("--steps") + 1]) if "--steps" in flags else 100000


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]

    @property
    def inputs(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(job.input for job in self.jobs))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "identities",
            (
                Job("verify", "tetrahedron"),
                Job("verify", "branched"),
                Job("verify", "two_triangles_bridged"),
                Job("verify", "annulus_3x2"),
            ),
        ),
        Workload(
            "cuts",
            (
                Job("cheeger", "triangle_ring", ("--k", "1")),
                Job("report", "annulus_4x2", ("--k", "1")),
            ),
        ),
        Workload(
            "large",
            (
                Job("spectrum", "annulus_6x4"),
                Job("spectrum", "annulus_8x5", ("--k", "1", "--direction", "down",
                                                "--flavor", "cover")),
                Job("laplacian", "annulus_8x5", ("--k", "1", "--normalized")),
                Job("hodge", "annulus_12x6"),
                Job("walk-sim", "annulus_8x5", ("--steps", "1000000")),
            ),
        ),
        # Every verb once on the smallest inputs, in seconds: for the
        # benchmark's own tests, not a measured workload.
        Workload(
            "smoke",
            (
                Job("verify", "hollow_triangle"),
                Job("cheeger", "tetrahedron", ("--k", "1")),
                Job("report", "tetrahedron", ("--k", "1")),
                Job("spectrum", "tetrahedron"),
                Job("laplacian", "tetrahedron", ("--k", "1", "--normalized")),
                Job("hodge", "tetrahedron"),
                Job("walk-sim", "tetrahedron", ("--steps", "200000")),
            ),
        ),
    )
}

# Verb-level times of the untraced in-process run, keyed by metric name;
# hodge_s sums the hodge and laplacian jobs.
JOB_VERBS = {
    "job.verify_s": ("verify",),
    "job.cheeger_s": ("cheeger",),
    "job.report_s": ("report",),
    "job.spectrum_s": ("spectrum",),
    "job.hodge_s": ("hodge", "laplacian"),
}

MODULES = (
    "complex_core", "graded_cover", "exact", "operators", "laplacians",
    "walks", "cheeger", "rng", "cli",
)
