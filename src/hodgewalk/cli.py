"""Command-line front end.

Every verb runs through one pipeline, written once in ``run``: parse the
arguments, load the input (``load_input``: a complex lifted to its graded
signed double cover, or a cover spec), call the verb's
``cmd_*(cover, cx, args)`` for its table ``(header, rows)``, and print
that table (``emit``).  Tables are deterministic: rationals in lowest
terms, floats with 12 significant digits, no timestamps.  Exit codes:
0 ok, 1 invalid input, 2 computation guard, 3 a failed ``verify`` TOTAL
row; codes 1 and 2 print one ``error:`` or ``guard:`` line to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import cheeger as cheeger_mod
from . import complex_core, exact, graded_cover, laplacians, operators, walks
from .graded_cover import NonStrongGradingError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_GUARD = 2
EXIT_VERIFY = 3


def fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit(rows, header, fmt_name: str) -> None:
    if fmt_name == "json":
        import json  # imported only where a table is printed as json

        text = json.dumps({"header": header, "rows": [[fmt(v) for v in r] for r in rows]})
    else:
        text = "\n".join("\t".join(map(fmt, row)) for row in (header, *rows))
    # one write per table: unbuffered, each print is two system calls
    sys.stdout.write(text + "\n")


def load_input(path: str, k: int | None = None):
    """Parse a complex file or a cover-spec file (detected by line syntax).

    A given dimension ``k`` must be one that has nodes.  Returns (cover,
    complex_or_None).
    """
    text = Path(path).read_text(encoding="utf-8")
    body = [
        ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")
    ]
    if body and all(ln.split()[0] in ("node", "edge") for ln in body):
        cover, cx = graded_cover.parse_cover_spec(text), None
    else:
        cx = complex_core.parse_complex(text)
        cover = graded_cover.cover_from_complex(cx)
    if k is not None and k not in cover.nodes_by_dim:
        raise ValueError(f"k={k} out of range {min(cover.dims)}..{max(cover.dims)}")
    return cover, cx


def cmd_lp(cover, cx, args):
    pw = graded_cover.compute_path_weights(cover)
    leaves, roots = graded_cover.leaves_and_roots(cover)
    rows = []
    for q in range(cover.n_quotient):
        role = "leaf" if q in leaves else ""
        if q in roots:
            role = (role + "+root").lstrip("+") if role else "root"
        rows.append((cover.dims[q], cover.labels[q], pw.lp[q], pw.rp[q], pw.h(q), role))
    return ("k", "face", "lp", "rp", "h", "role"), rows


def cmd_stationary(cover, cx, args):
    kind = "quotient" if args.k is None else f"quotient-{args.direction}"
    rows = []
    for ci, comp in enumerate(graded_cover.components(cover, kind, args.k)):
        pi = walks.stationary(cover, comp, args.view)
        # the mean path length belongs to the full walk's components only
        e_len = graded_cover.expected_path_length(cover, comp) if args.k is None else ""
        for node in pi.support:
            label = cover.labels[node] if args.view == "quotient" else cover.cover_label(node)
            rows.append((ci, label, pi.weights[node], pi.normalizer, e_len))
    return ("component", "node", "pi", "normalizer", "expected_len"), rows


def cmd_walk_sim(cover, cx, args):
    start = 0
    if args.start is not None:
        labels = [cover.cover_label(u) for u in range(cover.n_cover)]
        if args.start not in labels:
            raise ValueError(f"unknown start node {args.start!r}")
        start = labels.index(args.start)
    _digest, empirical = walks.simulate(cover, start, args.steps, args.seed)
    # the cover component of the start is the lift of its quotient component
    comp = next(
        c for c in graded_cover.components(cover, "quotient") if start % cover.n_quotient in c
    )
    pi = walks.stationary(cover, comp, "cover")
    rows = []
    for u in pi.support:
        emp = empirical.get(u, Fraction(0))
        target = pi.weights[u]
        rows.append((cover.cover_label(u), float(emp), target, f"{abs(float(emp - target)):.6f}"))
    tv = walks.total_variation(empirical, pi.weights)
    rows.append(("total-variation", float(tv), "", ""))
    return ("node", "empirical", "stationary", "abs_diff"), rows


def cmd_spectrum(cover, cx, args):
    rows = []
    if args.k is None:
        ev = operators.eigen(operators.quotient_operator(cover))
        rows.extend(("full-quotient", i, v) for i, v in enumerate(ev))
        bound, holds = operators.min_eigenvalue_bound(cover)
        rows.append(("min-eigenvalue-bound", "-1 + " + str(bound), holds))
    else:
        op = operators.build_conditional(cover, args.k, args.direction, args.flavor)
        name = f"A-{args.direction}-{args.k}-{args.flavor}"
        rows.extend((name, i, v) for i, v in enumerate(operators.eigen(op)))
        if args.rate:
            # the rate pairs the dim-k up-walk with the dim-(k+1) down-walk
            rate_k = args.k + 1 if args.direction == "up" else args.k
            try:
                rate = walks.convergence_rate(cover, rate_k)
            except ValueError as exc:
                # a coherent pair, or no pair at an end dimension
                rate = f"undefined: {exc}"
            rows.append(("convergence-rate", "", rate))
    return ("operator", "i", "value"), rows


def cmd_laplacian(cover, cx, args):
    if cx is None:
        raise ValueError("laplacian requires a simplicial complex input")
    labels = [str(f) for f in cx.faces_by_dim[args.k]]
    rows = []
    for which, mat in zip(("up", "down"), laplacians.hodge(cx, args.k, normalized=args.normalized)):
        rows.extend((which, labels[i], labels[j], x) for i, j, x in mat.float_entries())
    return ("part", "row", "col", "value"), rows


def cmd_hodge(cover, cx, args):
    if cx is None:
        raise ValueError("hodge requires a simplicial complex input")
    rows = []
    for k in range(cx.dimension + 1):
        rep = laplacians.hodge_decomposition(cx, k)
        rows.append((k, rep.n_k, rep.rank_up, rep.rank_down, rep.harmonic))
    rows.append(("betti", "", "", "", " ".join(map(str, laplacians.betti_numbers(cx)))))
    return ("k", "n_k", "rank_up", "rank_down", "harmonic"), rows


def cmd_coherent(cover, cx, args):
    comps = graded_cover.components(cover, f"quotient-{args.direction}", args.k)
    rows = []
    for ci, comp in enumerate(comps):
        witness = graded_cover.detect_coherent(cover, comp, args.direction)
        if witness is None:
            rows.append((ci, len(comp), False, ""))
            continue
        desc = " ".join(
            ("-" if flip else "+") + cover.labels[q] for q, flip in sorted(witness.items())
        )
        rows.append((ci, len(comp), True, desc))
    return ("component", "size", "coherent", "witness"), rows


def cmd_partition(cover, cx, args):
    if cx is None:
        raise ValueError("partition requires a simplicial complex input")
    comps = graded_cover.components(cover, "quotient-down", args.k)
    rows = []
    for ci, comp in enumerate(comps):
        classes = graded_cover.find_partition(cover, comp)
        if classes is None:
            rows.append((ci, len(comp), "none"))
        else:
            rows.append((ci, len(comp), " | ".join(" ".join(cls) for cls in classes)))
    return ("component", "size", "partition"), rows


def cmd_cheeger(cover, cx, args):
    rows = []
    for direction in ("up", "down") if args.direction is None else (args.direction,):
        comps = graded_cover.components(cover, f"quotient-{direction}", args.k)
        for ci, comp in enumerate(comps):
            try:
                aux = cheeger_mod.build_aux(cover, comp, direction)
            except cheeger_mod.SharedMidNodeError:
                raise
            except ValueError:
                rows.append((direction, ci, len(comp), "", "", "", ""))
                continue
            hq = wq = ""
            if aux.n >= 2:
                hq, wit = cheeger_mod.cheeger_quotient(aux)
                wq = " ".join(cover.labels[q] for q in wit)
            hs, (wnodes, worient) = cheeger_mod.cheeger_signed(aux)
            ws = " ".join(("-" if worient[q] else "+") + cover.labels[q] for q in wnodes)
            rows.append((direction, ci, len(comp), hq, hs, wq, ws))
    return ("direction", "component", "size", "h_quotient", "h_signed", "cut", "signed_cut"), rows


def _bound_table_rows(cover):
    """Bound-table rows, one pair of tables over all k with complete pairs.

    Degenerate pairs (a singleton down-component) are omitted: the
    combined inequality does not apply to them.
    """

    def row(k, d_down, h_up, h_down, gap):
        lower_up, upper_up = cheeger_mod.side_bounds(h_up, k, k)
        lower_down, upper_down = cheeger_mod.side_bounds(h_down, d_down, k)
        return (k, d_down, h_up, h_down, lower_up, lower_down, gap, upper_up, upper_down)

    quotient_rows, signed_rows = [], []
    for k in range(1, max(cover.dims) + 1):
        for rep in cheeger_mod.combined_report(cover, k):
            if rep.h_quotient_down is None:
                continue
            quotient_rows.append(
                row(k, rep.d_down, rep.h_quotient_up, rep.h_quotient_down, rep.gap_quotient)
            )
            if rep.coherent:
                signed_rows.append((k, rep.d_down, 0, 0, 0, 0, 0, 0, 0))
            else:
                signed_rows.append(
                    row(k, rep.d_down, rep.h_signed_up, rep.h_signed_down, rep.gap_signed)
                )
    return quotient_rows, signed_rows


def cmd_report(cover, cx, args):
    if args.paper_tables:
        qrows, srows = _bound_table_rows(cover)
        header = (
            "table", "k", "d_down", "h_up", "h_down",
            "lower_up", "lower_down", "gap", "upper_up", "upper_down",
        )
        return header, [("quotient",) + r for r in qrows] + [("signed",) + r for r in srows]
    ks = [args.k] if args.k is not None else list(range(1, max(cover.dims) + 1))
    rows = [
        (
            k,
            f"up:{len(rep.up_component)} down:{len(rep.down_component)}",
            "coherent" if rep.coherent else "",
            rep.lower_quotient, rep.gap_quotient, rep.upper_quotient,
            rep.sandwich_quotient_ok,
            rep.lower_signed, rep.gap_signed, rep.upper_signed,
            rep.sandwich_signed_ok,
            rep.rate_lower, rep.rate_upper,
        )
        for k in ks
        for rep in cheeger_mod.combined_report(cover, k)
    ]
    header = (
        "k", "pair", "flags",
        "lower_q", "gap_q", "upper_q", "ok_q",
        "lower_s", "gap_s", "upper_s", "ok_s",
        "rate_lower", "rate_upper",
    )
    return header, rows


def _verify_checks(cover, cx):
    """The full invariant suite for one input; yields (name, ok, detail)."""
    pw = graded_cover.compute_path_weights(cover)
    # transition structure, decided on the sparse integer rows of each P
    # (entry (a, b) is rows[a][b] / den)
    full = {view: walks.transition_full(cover, view) for view in ("quotient", "cover")}
    for view, P in full.items():
        yield f"row_stochastic_{view}", all(sum(row.values()) == P.den for row in P.rows), ""
    rows, den = full["quotient"].rows, full["quotient"].den
    # each stored entry against its mirror covers every pair with a nonzero side
    balanced = all(
        pw.through(a) * v == pw.through(b) * rows[b].get(a, 0)
        for a, row in enumerate(rows)
        for b, v in row.items()
    )
    yield "detailed_balance_quotient", balanced, ""
    n = cover.n_quotient
    flip = lambda u: (u + n) % (2 * n)
    cover_rows = full["cover"].rows
    yield "flip_commutation", all(
        {flip(v): x for v, x in row.items()} == cover_rows[flip(u)]
        for u, row in enumerate(cover_rows)
    ), ""
    for comp in graded_cover.components(cover, "quotient"):
        pi = walks.stationary(cover, comp, "quotient")
        image: dict[int, Fraction] = {}
        for a, w in pi.weights.items():
            for b, v in rows[a].items():
                image[b] = image.get(b, 0) + w * v
        fixed = all(image.get(b, 0) == pi.weights.get(b, 0) * den for b in range(n))
        yield f"stationary_fixed_point_{comp[0]}", fixed, ""
    # path-count oracle (brute force) on small covers
    total_paths = sum(pw.lp[q] for q in range(n) if cover.is_root(q))
    if total_paths <= 10**4:
        ok = _path_count_oracle(cover)
        yield "path_count_oracle", ok, f"{total_paths} root-to-leaf paths"
    # operator identities and spectra
    for name, (ok, detail) in operators.verify_split(cover).items():
        yield name, ok, detail
    bound, holds = operators.min_eigenvalue_bound(cover)
    yield "min_eigenvalue_bound", holds, f"lambda_min <= -1 + {bound}"
    if cx is not None:
        for name, (ok, detail) in laplacians.verify_hodge_properties(cx).items():
            yield name, ok, detail
        yield "complex_adjacency_consistent", _adjacency_consistent(cover, cx), ""
    if cover.strong:
        yield from _verify_cheeger_checks(cover)


def _path_count_oracle(cover) -> bool:
    """LP/RP against a walk of every path up to a leaf and down to a root,
    one explicit stack entry per partial path (no recursion)."""
    pw = graded_cover.compute_path_weights(cover)

    def count_paths(q, step, at_end):
        total, stack = 0, [q]
        while stack:
            x = stack.pop()
            if at_end(x):
                total += 1
            else:
                stack.extend(step[x])
        return total

    return all(
        pw.lp[q] == count_paths(q, cover.parents, cover.is_leaf)
        and pw.rp[q] == count_paths(q, cover.children, cover.is_root)
        for q in range(cover.n_quotient)
    )


def _adjacency_consistent(cover, cx) -> bool:
    for k in range(cx.dimension + 1):
        for direction in ("up", "down"):
            mine = cover.adjacency(k, direction)
            theirs = complex_core.adjacency(cx, k, direction)
            for face, neighbors in theirs.items():
                q = cx.index_of(face)
                if {cx.index_of(g) for g in neighbors} != mine[q]:
                    return False
    return True


def _verify_cheeger_checks(cover):
    dim = max(cover.dims)
    for k in range(1, dim + 1):
        try:
            reports = cheeger_mod.combined_report(cover, k)
        except (cheeger_mod.BruteForceGuardError, cheeger_mod.SharedMidNodeError) as exc:
            yield f"cheeger_k{k}", True, f"skipped: {exc}"
            continue
        except cheeger_mod.ChildCountError as exc:
            # only the bounds need k+1 children; the identities below do not
            yield f"cheeger_k{k}", True, f"skipped: {exc}"
            reports = []
        for rep in reports:
            tag = f"k{k}_comp{rep.down_component[0]}"
            yield f"sandwich_quotient_{tag}", rep.sandwich_quotient_ok, ""
            yield f"sandwich_signed_{tag}", rep.sandwich_signed_ok, ""
            coherent = rep.coherent
            if rep.h_signed_down is not None:
                yield (
                    f"signed_zero_iff_coherent_{tag}",
                    (rep.h_signed_down == 0) == coherent,
                    f"h_signed_down = {rep.h_signed_down}",
                )
        # auxiliary Laplacian affine identities, per eligible component: the
        # factor c is the child count of the mid-nodes (up) or of the
        # component's own nodes (down), m+2 and m+1 in dimension m of a
        # simplicial complex; the identities also need those nodes' children
        # to share one RP (up: RP(v) = c*sqrt(RP(a)*RP(b)) for a, b under v)
        pw = graded_cover.compute_path_weights(cover)
        for direction, kk in (("up", k - 1), ("down", k)):
            comps = graded_cover.components(cover, f"quotient-{direction}", kk)
            quot = operators.build_conditional(cover, kk, direction, "quotient")
            sgn = operators.build_conditional(cover, kk, direction, "signed")
            for comp in comps:
                try:
                    aux = cheeger_mod.build_aux(cover, comp, direction)
                except ValueError:
                    continue
                name = f"aux_laplacian_identity_{direction}_{kk}_{comp[0]}"
                mids = sorted({v for q in comp for v in cover.parents[q]})
                owners = mids if direction == "up" else comp
                counts = {len(cover.children[v]) for v in owners}
                if len(counts) != 1:
                    yield name, True, "skipped: child counts differ across the component"
                    continue
                uneven = [v for v in owners if len({pw.rp[t] for t in cover.children[v]}) > 1]
                if uneven:
                    detail = f"skipped: the children of {cover.labels[uneven[0]]} differ in RP"
                    yield name, True, detail
                    continue
                factor = Fraction(counts.pop())
                eye = exact.ScaledMatrix.identity(aux.n)
                a_q = operators.on_component(cover, quot, comp)
                a_s = operators.on_component(cover, sgn, comp)
                lap_q = cheeger_mod.aux_laplacian(aux, "quotient")
                lap_s = cheeger_mod.aux_laplacian(aux, "signed")
                ok = lap_q.equals((eye - a_q).scale(factor)) and lap_s.equals(
                    (eye + a_s).scale(factor)
                )
                yield name, ok, f"factor {factor}"


def cmd_verify(cover, cx, args):
    rows = list(_verify_checks(cover, cx))
    failures = sum(not ok for _name, ok, _detail in rows)
    rows.append(("TOTAL", failures == 0, f"{len(rows)} checks, {failures} failures"))
    return ("check", "ok", "detail"), rows


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError: one `error:` line and exit 1."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hodgewalk",
        description="Root-to-leaf walks, normalized Hodge Laplacians and Cheeger bounds",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func):
        p = sub.add_parser(name)
        p.add_argument("input", help="complex (.cx) or cover-spec file")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        p.set_defaults(func=func, k=None)
        return p

    add("lp", cmd_lp)
    p = add("stationary", cmd_stationary)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--direction", choices=("up", "down"), default="up")
    p.add_argument("--view", choices=("quotient", "cover"), default="quotient")
    p = add("walk-sim", cmd_walk_sim)
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", default=None)
    p = add("spectrum", cmd_spectrum)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--direction", choices=("up", "down"), default="up")
    p.add_argument("--flavor", choices=("quotient", "signed", "cover"), default="quotient")
    p.add_argument("--rate", action="store_true", help="also print the convergence rate")
    p = add("laplacian", cmd_laplacian)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--normalized", action="store_true")
    add("hodge", cmd_hodge)
    p = add("coherent", cmd_coherent)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--direction", choices=("up", "down"), required=True)
    p = add("partition", cmd_partition)
    p.add_argument("--k", type=int, required=True)
    p = add("cheeger", cmd_cheeger)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--direction", choices=("up", "down"), default=None)
    p = add("report", cmd_report)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--paper-tables", action="store_true", dest="paper_tables",
                   help="reproduce the worked-example bound tables")
    add("verify", cmd_verify)
    return parser


def _attach_start(argv) -> list[str]:
    """argparse reads `-a`, a flipped lift with a one-token label, as an
    option, so `--start -a` is passed on as `--start=-a`."""
    out = []
    for token in argv:
        if out and out[-1] == "--start" and token.startswith("-") and token[1:2] != "-":
            out[-1] = f"--start={token}"
        else:
            out.append(token)
    return out


def run(argv) -> int:
    try:
        try:
            args = build_parser().parse_args(_attach_start(argv))
            cover, cx = load_input(args.input, args.k)
            header, rows = args.func(cover, cx, args)
            emit(rows, header, args.format)
        finally:
            # before main's os._exit, --help's text included; a closed
            # pipe fails here, as one error line
            sys.stdout.flush()
    except SystemExit:
        # only --help exits from the parser; its usage errors raise ValueError
        return EXIT_OK
    except (
        cheeger_mod.BruteForceGuardError,
        cheeger_mod.ChildCountError,
        cheeger_mod.SharedMidNodeError,
        NonStrongGradingError,
        operators.EigenResidualError,
        OverflowError,
    ) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    # only verify's TOTAL row can fail
    return EXIT_VERIFY if args.verb == "verify" and not rows[-1][1] else EXIT_OK


def main() -> None:
    code = run(sys.argv[1:])
    sys.stderr.flush()
    # run has flushed stdout; the interpreter's teardown frees what a
    # finished job no longer needs, in about 10 ms, 40 ms with numpy loaded
    os._exit(code)


if __name__ == "__main__":
    main()
