"""Command-line frontend.

Exit codes: 0 = a verdict/report was computed (Not-Certified included),
1 = input error (bad file, bad arguments, unmet operation precondition),
2 = internal invariant violation (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import datasets
from .certify import certify_from_charpoly, certify_tree
from .errors import InternalInvariantError, ResourceGuardError, SgdgsError
from .intpoly import IntPolynomial, format_poly, format_poly_line, parse_poly
from .linalg import IntMatrix, RatMatrix, charpoly, complement_matrix, det, parse_matrix
from .numberfield import verify_bipartite_eigen_properties
from .search import all_signed_trees, exhaustive_dgs_check, find_gc_mates
from .sgraph import SignedGraph, format_sg, is_balanced, read_sg, write_sg
from .spectra import classify_q, recover_q, verify_structure_theorem, walk_matrix

DEFAULT_MAX_N = 10


def _guard_order(n: int, args) -> None:
    """The one resource guard: no enumeration of order above --max-n."""
    if n > args.max_n:
        raise ResourceGuardError(f"order {n} exceeds the resource guard --max-n {args.max_n}")


def _load_graph(spec: str) -> SignedGraph:
    if spec.startswith("dataset:"):
        return datasets.resolve_graph_spec(spec)
    return read_sg(spec)


def _emit(payload: dict, as_json: bool, render) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        render()


def _matrix_rows(q: RatMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in q.data]


def _print_rat_matrix(q: RatMatrix) -> None:
    cells = _matrix_rows(q)
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("  [" + " ".join(c.rjust(width) for c in row) + "]")


def _poly_report(p: IntPolynomial) -> dict:
    return {"coefficients": list(p.coeffs), "rendered": format_poly(p)}


# -- subcommands -----------------------------------------------------------------


def _cmd_certify(args) -> int:
    if args.dataset:
        if args.dataset == "example1-poly":
            cert = certify_from_charpoly(datasets.example1_polynomial())
        elif args.dataset in ("remark1", "remark1-a", "remark1-b", "remark2", "remark2-a", "remark2-b"):
            cert = certify_tree(datasets.resolve_graph_spec(
                "dataset:" + (args.dataset if "-" in args.dataset else args.dataset + "-a")
            ))
        else:
            raise ValueError(f"unknown dataset {args.dataset!r}")
    elif args.poly:
        with open(args.poly, "r", encoding="utf-8") as fh:
            cert = certify_from_charpoly(parse_poly(fh.read()))
    elif args.graph:
        cert = certify_tree(_load_graph(args.graph))
    else:
        raise ValueError("certify needs a graph file, --poly or --dataset")

    def render():
        print(f"order n          : {cert.n}")
        print(f"charpoly         : {format_poly(cert.charpoly)}")
        print(f"  (ascending)    : {format_poly_line(cert.charpoly)}")
        print(f"irreducible      : {cert.irreducible.irreducible}"
              + (f" (via {cert.irreducible.method})" if cert.irreducible.method else ""))
        print(f"discriminant     : {cert.delta}")
        print(f"s = 2^(-n/2)*sqrt: {cert.s}")
        if cert.s_factorization is not None:
            print(f"s factorization  : {cert.s_factorization}")
            print(f"s odd            : {cert.s_odd}")
            print(f"s square-free    : {cert.s_squarefree}")
        if cert.probabilistic:
            print("note             : a primality check was only probabilistic")
        print(f"verdict          : {cert.verdict}")

    _emit(cert.to_json_dict(), args.json, render)
    return 0


def _cmd_spectra(args) -> int:
    if args.matrix:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            a = parse_matrix(fh.read())
        if not isinstance(a, IntMatrix):
            raise ValueError("--matrix expects integer entries for spectral analysis")
        g = None
    else:
        if not args.graph:
            raise ValueError("spectra needs a .sg file or --matrix")
        g = _load_graph(args.graph)
        a = g.adjacency()
    phi = charpoly(a)
    phi_comp = charpoly(complement_matrix(a))
    w = walk_matrix(a)
    wd = det(w)
    bal = is_balanced(g) if g is not None else None
    payload = {
        "n": a.rows,
        "edges": [list(e) for e in g.edges] if g is not None else None,
        "adjacency_charpoly": _poly_report(phi),
        "complement_charpoly": _poly_report(phi_comp),
        "walk_matrix_det": wd,
        "controllable": wd != 0,
        "balanced": bal.balanced if bal is not None else None,
    }

    def render():
        print(f"n = {a.rows}" + (f", m = {g.m}" if g is not None else " (matrix input)"))
        print(f"charpoly(A)       : {format_poly(phi)}")
        print(f"  (ascending)     : {format_poly_line(phi)}")
        print(f"charpoly(J-I-A)   : {format_poly(phi_comp)}")
        print(f"  (ascending)     : {format_poly_line(phi_comp)}")
        print(f"det W             : {wd}")
        print(f"controllable      : {wd != 0}")
        if bal is not None:
            print(f"balanced          : {bal.balanced}")

    _emit(payload, args.json, render)
    return 0


def _cmd_recover_q(args) -> int:
    g = _load_graph(args.graph_a)
    h = _load_graph(args.graph_b)
    rec = recover_q(g.adjacency(), h.adjacency())
    split = g.n // 2 if g.n % 2 == 0 else None
    cls = classify_q(rec.scaled, rec.level, split=split)
    payload = {
        "n": g.n,
        "orthogonal": rec.orthogonal,
        "regular": rec.regular,
        "conjugates": rec.conjugates,
        "valid": rec.valid,
        "classification": cls.tag,
        "split": split,
        "q": _matrix_rows(rec.q),
    }

    def render():
        print(f"flags: orthogonal={rec.orthogonal} regular={rec.regular} conjugates={rec.conjugates}")
        print(f"classification (split {split}): {cls.tag}")
        print("Q =")
        _print_rat_matrix(rec.q)

    _emit(payload, args.json, render)
    return 0


def _cmd_verify_structure(args) -> int:
    g = _load_graph(args.graph_a)
    h = _load_graph(args.graph_b)
    rep = verify_structure_theorem(g, h)
    payload = {
        "passed": rep.passed,
        "failures": list(rep.failures),
        "split": rep.split,
        "classification": rep.classification.tag if rep.classification else None,
        "q1_regular_orthogonal": rep.q1_regular_orthogonal,
        "q2_regular_orthogonal": rep.q2_regular_orthogonal,
    }

    def render():
        print(f"passed: {rep.passed}")
        for f in rep.failures:
            print(f"precondition failure: {f}")
        if rep.classification is not None:
            print(f"classification (split {rep.split}): {rep.classification.tag}")
            print(f"Q1 regular orthogonal: {rep.q1_regular_orthogonal}")
            print(f"Q2 regular orthogonal: {rep.q2_regular_orthogonal}")
        if rep.recovery is not None:
            print("Q =")
            _print_rat_matrix(rep.recovery.q)

    _emit(payload, args.json, render)
    return 0


def _cmd_verify_lemma34(args) -> int:
    g = _load_graph(args.graph)
    rep = verify_bipartite_eigen_properties(g)
    payload = {
        "passed": rep.passed,
        "failures": list(rep.failures),
        "gram_charpolys_equal": rep.gram_charpolys_equal,
        "gram_charpoly_irreducible": rep.gram_charpoly_irreducible,
        "eigenvector_verified": rep.eigenvector_verified,
        "length_equality": rep.length_equality,
        "even_structure": rep.even_structure,
    }

    def render():
        print(f"passed: {rep.passed}")
        for f in rep.failures:
            print(f"precondition failure: {f}")
        if not rep.failures:
            print(f"charpoly(MM^T) == charpoly(M^T M) : {rep.gram_charpolys_equal}")
            print(f"charpoly(MM^T) irreducible        : {rep.gram_charpoly_irreducible}")
            print(f"symbolic eigenvector verified     : {rep.eigenvector_verified}")
            print(f"length equality (u vs v)          : {rep.length_equality}")
            print(f"charpoly(A) = charpoly(M^T M)(x^2): {rep.even_structure}")

    _emit(payload, args.json, render)
    return 0


def _cmd_search_mates(args) -> int:
    g = _load_graph(args.graph)
    _guard_order(g.n, args)
    report = find_gc_mates(
        g,
        all_signed_trees(g.n),
        descriptor=f"all signings of all trees on {g.n} vertices",
    )
    payload = {
        "query_edges": [list(e) for e in g.edges],
        "descriptor": report.descriptor,
        "candidates_scanned": report.candidates_scanned,
        "mates": [
            {
                "edges": [list(e) for e in entry.mate.edges],
                "recovery_valid": entry.recovery.valid if entry.recovery else None,
                "classification": entry.classification.tag if entry.classification else None,
            }
            for entry in report.mates
        ],
    }

    def render():
        print(f"searched: {report.descriptor} ({report.candidates_scanned} candidates)")
        print(f"generalized-cospectral non-isomorphic mates: {len(report.mates)}")
        for entry in report.mates:
            tag = entry.classification.tag if entry.classification else "n/a"
            print(f"  mate edges={list(entry.mate.edges)} classification={tag}")

    _emit(payload, args.json, render)
    return 0


def _cmd_exhaustive_check(args) -> int:
    n = args.n
    _guard_order(n, args)
    reports = exhaustive_dgs_check(n)
    payload = {
        "n": n,
        "certified_trees": len(reports),
        "results": [
            {
                "edges": [list(e) for e in rep.tree.edges],
                "ok": rep.ok,
                "signings_scanned": rep.signings_scanned,
                "spectrum_groups": rep.spectrum_groups,
                "gc_pairs": len(rep.gc_pairs),
            }
            for rep in reports
        ],
        "all_ok": all(rep.ok for rep in reports),
    }

    def render():
        if not reports:
            print(f"no certified trees on {n} vertices; nothing to check")
            return
        for rep in reports:
            print(
                f"tree {list(rep.tree.edges)}: ok={rep.ok} "
                f"(signings={rep.signings_scanned}, groups={rep.spectrum_groups})"
            )
        print(f"all_ok: {all(rep.ok for rep in reports)}")

    _emit(payload, args.json, render)
    return 0


def _cmd_dataset(args) -> int:
    ds = datasets.get_dataset(args.name)
    if ds.kind == "polynomial":
        poly = datasets.example1_polynomial()
        payload = {
            "name": ds.name,
            "kind": ds.kind,
            "description": ds.description,
            "polynomial": _poly_report(poly),
        }

        def render():
            print(f"{ds.name}: {ds.description}")
            print(f"polynomial : {format_poly(poly)}")
            print(f"(ascending): {format_poly_line(poly)}")

        _emit(payload, args.json, render)
        if args.emit:
            path = f"{ds.name}.poly"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_poly_line(poly) + "\n")
            print(f"wrote {path}", file=sys.stderr)
        return 0

    pair = datasets.remark1_pair() if ds.name == "remark1" else datasets.remark2_pair()
    payload = {
        "name": ds.name,
        "kind": ds.kind,
        "description": ds.description,
        "graphs": {
            f"{ds.name}-a": format_sg(pair[0]).splitlines(),
            f"{ds.name}-b": format_sg(pair[1]).splitlines(),
        },
    }

    def render():
        print(f"{ds.name}: {ds.description}")
        for tag, g in ((f"{ds.name}-a", pair[0]), (f"{ds.name}-b", pair[1])):
            print(f"--- {tag} (n={g.n}, m={g.m})")
            sys.stdout.write(format_sg(g))

    _emit(payload, args.json, render)
    if args.emit:
        for tag, g in ((f"{ds.name}-a", pair[0]), (f"{ds.name}-b", pair[1])):
            path = f"{tag}.sg"
            write_sg(path, g)
            print(f"wrote {path}", file=sys.stderr)
    return 0


# -- parser -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    # argparse applies type=int to a string default, so a bad SPECTRAL_MAX_N
    # is a usage error of the two enumerating commands only
    guarded = argparse.ArgumentParser(add_help=False)
    guarded.add_argument("--max-n", type=int,
                         default=os.environ.get("SPECTRAL_MAX_N", str(DEFAULT_MAX_N)),
                         help="largest order to enumerate (env SPECTRAL_MAX_N, "
                              "default %(default)s)")
    parser = argparse.ArgumentParser(
        prog="sgdgs",
        description="Decide whether signed trees are determined by their generalized spectrum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sub(name, help_text, *extra):
        return sub.add_parser(name, help=help_text, parents=[common, *extra])

    p = add_sub("certify", "run the spectral-determinacy certificate")
    p.add_argument("graph", nargs="?", help=".sg file or dataset:<name>-<a|b>")
    p.add_argument("--poly", help="file with one line of ascending coefficients")
    p.add_argument("--dataset", help="embedded dataset name")
    p.set_defaults(func=_cmd_certify)

    p = add_sub("spectra", "charpolys, walk determinant, controllability")
    p.add_argument("graph", nargs="?")
    p.add_argument("--matrix", help="exact matrix file ('rows cols' header) instead of a graph")
    p.set_defaults(func=_cmd_spectra)

    p = add_sub("recover-q", "recover the rational orthogonal conjugator")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.set_defaults(func=_cmd_recover_q)

    p = add_sub("verify-structure", "check the bipartite block structure of Q")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.set_defaults(func=_cmd_verify_structure)

    p = add_sub("verify-lemma34", "verify the bipartite eigen-structure symbolically")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_verify_lemma34)

    p = add_sub("search-mates", "search signed trees for generalized-cospectral mates", guarded)
    p.add_argument("graph")
    p.set_defaults(func=_cmd_search_mates)

    p = add_sub("exhaustive-check", "confirm all certified trees of one order", guarded)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_exhaustive_check)

    p = add_sub("dataset", "show or emit an embedded dataset")
    p.add_argument("name")
    p.add_argument("--emit", action="store_true", help="write .sg/.poly files")
    p.set_defaults(func=_cmd_dataset)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (SgdgsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
