"""Span tracing of hodgewalk from outside the library.

The tracer wraps public functions and ScaledMatrix methods of the
``hodgewalk`` package.  Every module-level name bound to a wrapped
function is rebound, so names copied by ``from ... import`` are traced
too.  Each call records a span (layer, start, end, parent, job); spans stay
in memory until the run writes them out.  Counters are kept at the same
boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from types import ModuleType

import numpy as np

# (module, attribute or Class.method, layer)
SPANNED = (
    ("cli", "run", "cli.run"),
    ("cli", "emit", "cli.emit"),
    ("complex_core", "parse_complex", "complex_core.parse"),
    ("graded_cover", "cover_from_complex", "graded_cover.cover"),
    ("graded_cover", "parse_cover_spec", "graded_cover.cover"),
    ("graded_cover", "compute_path_weights", "graded_cover.cover"),
    ("graded_cover", "leaves_and_roots", "graded_cover.cover"),
    ("graded_cover", "components", "graded_cover.components"),
    ("graded_cover", "component_correspondence", "graded_cover.components"),
    ("graded_cover", "detect_coherent", "graded_cover.components"),
    ("graded_cover", "find_partition", "graded_cover.components"),
    ("exact", "ScaledMatrix.__matmul__", "exact.matmul"),
    ("exact", "ScaledMatrix.equals", "exact.algebra"),
    ("exact", "ScaledMatrix.__add__", "exact.algebra"),
    ("exact", "ScaledMatrix.__sub__", "exact.algebra"),
    ("exact", "ScaledMatrix.__neg__", "exact.algebra"),
    ("exact", "ScaledMatrix.rebase", "exact.algebra"),
    ("exact", "ScaledMatrix.scale", "exact.algebra"),
    ("exact", "ScaledMatrix.T", "exact.algebra"),
    ("exact", "ScaledMatrix.restrict", "exact.algebra"),
    ("exact", "ScaledMatrix.is_zero", "exact.algebra"),
    ("exact", "ScaledMatrix.to_float", "exact.to_float"),
    ("exact", "rational_rank", "exact.rank"),
    ("operators", "build_bundle", "operators.build"),
    ("operators", "build_conditional", "operators.build"),
    ("operators", "eigen", "operators.eigen"),
    ("operators", "verify_split", "operators.verify_split"),
    ("laplacians", "hodge", "laplacians.hodge"),
    ("laplacians", "hodge_decomposition", "laplacians.hodge"),
    ("laplacians", "betti_numbers", "laplacians.hodge"),
    ("laplacians", "normalization_weights", "laplacians.hodge"),
    ("laplacians", "normalized_coboundary", "laplacians.hodge"),
    ("laplacians", "verify_hodge_properties", "laplacians.verify"),
    ("laplacians", "check_laplacian_walk_identity", "laplacians.verify"),
    ("walks", "transition_full", "walks.transition"),
    ("walks", "transition_conditional", "walks.transition"),
    ("walks", "stationary", "walks.transition"),
    ("walks", "expected_path_length", "walks.transition"),
    ("walks", "total_variation", "walks.transition"),
    ("walks", "convergence_rate", "walks.transition"),
    ("walks", "simulate", "walks.simulate"),
    ("cheeger", "cheeger_signed", "cheeger.signed"),
    ("cheeger", "cheeger_quotient", "cheeger.quotient"),
    ("cheeger", "build_aux", "cheeger.aux"),
    ("cheeger", "aux_laplacian", "cheeger.aux"),
    ("cheeger", "combined_report", "cheeger.report"),
)

# Hot helpers that only count calls: a span per call would swamp the run.
COUNTED = (
    ("graded_cover", "GradedSignedDoubleCover.shared_parents", "graded_cover.pair_scans"),
    ("graded_cover", "GradedSignedDoubleCover.shared_children", "graded_cover.pair_scans"),
)


def _nonzeros(body: np.ndarray, axis: int) -> np.ndarray:
    return (body != 0).sum(axis=axis) if body.size else np.zeros(body.shape[1 - axis], int)


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        # span: [layer id, start, end, parent span index or -1, job index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1
        self.counters: dict[str, float] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- hooks: counts recorded inside the span of the call -------------

    def _after(self, layer: str, bound, result) -> None:
        c = self.counters
        if layer == "complex_core.parse":
            c["complex_core.faces"] += len(result.all_faces)
        elif layer == "exact.matmul":
            a, b = bound.args[0].body, bound.args[1].body
            rows, inner = a.shape
            cols = b.shape[1]
            c["exact.matmul_calls"] += 1
            c["exact.matmul_mults"] += rows * inner * cols
            c["exact.matmul_useful"] += int(np.dot(_nonzeros(a, 0), _nonzeros(b, 1)))
        elif layer == "operators.build":
            c["operators.build_calls"] += 1
        elif layer == "operators.eigen":
            op = getattr(bound.args[0], "sm", bound.args[0])
            n = op.shape[0] if hasattr(op, "shape") else len(op)
            c["operators.eigen_calls"] += 1
            c["operators.eigen_dim_cubed"] += n ** 3
        elif layer in ("cheeger.signed", "cheeger.quotient"):
            n = bound.args[0].n
            c["cheeger.subsets"] += 2 ** n
            c["cheeger.aux_nodes_max"] = max(c["cheeger.aux_nodes_max"], n)
        elif layer == "walks.simulate":
            c["walks.steps"] += bound.arguments["steps"]
        elif layer == "cli.emit":
            c["cli.rows"] += len(bound.arguments["rows"]) + 1

    def _failed(self, layer: str, exc: BaseException) -> None:
        """Count an exception once, at the innermost traced call it leaves."""
        if getattr(exc, "_perfbench_counted", False):
            return
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass
        self.counters[layer.split(".")[0] + ".errors"] += 1
        name = type(exc).__name__
        if name == "EigenResidualError":
            self.counters["operators.eigen_failures"] += 1
        elif name == "BruteForceGuardError":
            self.counters["cheeger.guard_trips"] += 1

    # -- wrappers --------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def spanned(self, fn, layer: str):
        lid = self._layer_id(layer)
        sig = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hooked = layer in (
            "complex_core.parse", "exact.matmul", "operators.build", "operators.eigen",
            "cheeger.signed", "cheeger.quotient", "walks.simulate", "cli.emit",
        )

        def wrapper(*args, **kwargs):
            span = [lid, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if hooked:
                    self._after(layer, sig.bind(*args, **kwargs), result)
                return result
            except Exception as exc:
                self._failed(layer, exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, counter: str):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; rebinds each module-level alias of a function."""
        importlib.import_module("hodgewalk.cli")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if isinstance(m, ModuleType) and (name == "hodgewalk" or name.startswith("hodgewalk."))
        ]
        for targets, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for mod_name, attr, layer in targets:
                mod = sys.modules[f"hodgewalk.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    if isinstance(orig, property):
                        self._set(cls, meth, property(make(orig.fget, layer)))
                    else:
                        self._set(cls, meth, make(orig, layer))
                    continue
                orig = getattr(mod, attr)
                wrapped = make(orig, layer)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, name, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def dump(self) -> dict:
        return {
            "layers": self.layers,
            "spans": self.spans,
            "counters": dict(self.counters),
        }


def self_times(layers: list[str], spans: list[list]) -> dict[str, float]:
    """Self time per layer: span time minus the time of its child spans."""
    child = [0.0] * len(spans)
    for _lid, start, end, parent, _job in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {layer: 0.0 for layer in layers}
    for (lid, start, end, _parent, _job), inner in zip(spans, child):
        out[layers[lid]] += (end - start) - inner
    return out


def root_time(spans: list[list]) -> float:
    """Total duration of the top-level spans."""
    return sum(end - start for _lid, start, end, parent, _job in spans if parent < 0)
