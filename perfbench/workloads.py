"""The four benchmark workloads.

Each workload has three parts that run in different processes:

* ``make_inputs(seed)`` runs in the benchmark process, off the clock.  It
  turns the seed into plain JSON inputs, so the program under test receives
  only generated inputs.
* ``execute(inputs)`` runs in a fresh worker interpreter.  It times the
  calls into sgdgs and returns per-item times and the raw outputs.
* ``check(result, inputs)`` runs in the benchmark process.  It compares the
  outputs with pinned results and with the benchmark's own oracles and
  returns the number of failed items plus any run-level problems.

The per-item oracles here (tree charpolys from the matching polynomial, the
pinned certified-polynomial tables in ``expected.json``) share no code with
sgdgs, so a wrong result counts as a failed item rather than being trusted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())
CERTIFIED_S = {
    n: {tuple(entry["charpoly"]): entry["s"] for entry in EXPECTED[f"certified_n{n}"]}
    for n in (10, 12, 14)
}

CERTIFIED = "Certified-DGS"

CENSUS_N = 14
CENSUS_CERTIFIED = 36

MATES_N = 10
MATES_CANDIDATES = 54_272

EXHAUSTIVE_N = 12
EXHAUSTIVE_ARGV = ["exhaustive-check", "--n", "12", "--max-n", "12", "--json"]
EXHAUSTIVE_TREES = 3
EXHAUSTIVE_SIGNINGS = 2048

PAIRS_N = 18
PAIRS_COUNT = 40
EXAMPLE1_S = 5 * 11 * 4754599
# (label, argv, check of the parsed --json output)
PAIRS_COMMANDS = (
    (
        "certify example1-poly",
        ["certify", "--dataset", "example1-poly", "--json"],
        lambda out: out["verdict"] == CERTIFIED
        and out["s"] == EXAMPLE1_S
        and out["s_factors"] == [[5, 1], [11, 1], [4754599, 1]],
    ),
    (
        "recover-q remark1",
        ["recover-q", "dataset:remark1-a", "dataset:remark1-b", "--json"],
        lambda out: out["valid"] is True and out["classification"] == "BlockDiagonal",
    ),
    (
        "verify-structure remark1",
        ["verify-structure", "dataset:remark1-a", "dataset:remark1-b", "--json"],
        lambda out: out["passed"] is True and out["classification"] == "BlockDiagonal",
    ),
    (
        "verify-structure remark2",
        ["verify-structure", "dataset:remark2-a", "dataset:remark2-b", "--json"],
        lambda out: out["passed"] is False
        and out["failures"] == ["characteristic polynomial is reducible"],
    ),
    (
        "verify-lemma34 remark1-a",
        ["verify-lemma34", "dataset:remark1-a", "--json"],
        lambda out: out["passed"] is True,
    ),
)


def digest(outputs) -> str:
    """sha256 of the canonical JSON form of a workload's outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _edges(g) -> list[list[int]]:
    return [list(e) for e in g.edges]


def _graph(n: int, edges):
    from sgdgs.sgraph import SignedGraph

    return SignedGraph(n, tuple(tuple(e) for e in edges))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from sgdgs import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


# -- oracles owned by the benchmark ---------------------------------------------------


def _polymul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polyadd(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def tree_charpoly(n: int, edges) -> list[int]:
    """Ascending coefficients of det(xI - A) for a signed tree.

    A tree's characteristic polynomial is its matching polynomial
    sum_k (-1)^k m_k x^(n-2k), whatever the signs (Sachs), with m_k the
    number of k-edge matchings.  A rooted DP counts them, independently of
    the program's Berkowitz kernel.
    """
    adj = [[] for _ in range(n + 1)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [0] * (n + 1)
    order = [1]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    if len(order) != n:
        raise ValueError("edges do not form a tree")
    free: dict[int, list[int]] = {}  # matchings of the subtree leaving v unmatched
    every: dict[int, list[int]] = {}  # all matchings of the subtree, by size
    for v in reversed(order):
        kids = [w for w in adj[v] if w != parent[v]]
        unmatched = [1]
        for w in kids:
            unmatched = _polymul(unmatched, every[w])
        total = unmatched
        for w in kids:
            term = [0] + free[w]
            for x in kids:
                if x != w:
                    term = _polymul(term, every[x])
            total = _polyadd(total, term)
        free[v], every[v] = unmatched, total
    coeffs = [0] * (n + 1)
    for k, count in enumerate(every[1]):
        if count:
            coeffs[n - 2 * k] = (-1) ** k * count
    return coeffs


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labeled tree on 1..n decoded from a random Pruefer sequence."""
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = (w for w in range(1, n + 1) if degree[w] == 1)
    edges.append((u, v))
    return edges


def _relabel(edges, rng: random.Random, signs: bool = False) -> list[tuple[int, int, int]]:
    """The edges under a random vertex relabeling, sorted; with `signs`,
    every edge also gets a random sign."""
    labels = list(range(1, len(edges) + 2))
    rng.shuffle(labels)
    return sorted(
        (min(labels[u - 1], labels[v - 1]), max(labels[u - 1], labels[v - 1]),
         rng.choice((1, -1)) if signs else s)
        for u, v, s in edges
    )


def _has_perfect_matching(n: int, edges) -> bool:
    """Match leaves to their neighbours until none is left; exact on forests."""
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = set(range(1, n + 1))
    while remaining:
        leaf = next(v for v in remaining if len(adj[v]) <= 1)
        if not adj[leaf]:
            return False
        (partner,) = adj[leaf]
        for x in (leaf, partner):
            for w in adj[x]:
                adj[w].discard(x)
            adj[x] = set()
            remaining.discard(x)
    return True


# -- census-n14: certify_tree on every free tree with 14 vertices ---------------------


def fixed_inputs(seed: int) -> dict:
    """census-n14 and exhaustive-n12 have no random input; the seed is only
    recorded."""
    return {}


def census_execute(inputs: dict) -> dict:
    from sgdgs import certify, search

    clock = time.perf_counter
    start = clock()
    trees = search.enumerate_trees(CENSUS_N).trees
    item_s, certs = [], []
    for tree in trees:
        t0 = clock()
        try:
            certs.append(certify.certify_tree(tree))
        except Exception as exc:  # a raising item is a failed item, not a crash
            certs.append(exc)
        item_s.append(clock() - t0)
    wall = clock() - start
    outputs = [
        _error(c) if isinstance(c, Exception) else c.to_json_dict() for c in certs
    ]
    return {
        "wall_s": wall,
        "item_s": item_s,
        "items": len(trees),
        "outputs": outputs,
        "trees": [_edges(t) for t in trees],
        # certificates are labeling-invariant, so sorting makes the digest
        # independent of the enumeration order
        "digest": digest(sorted(json.dumps(o, sort_keys=True) for o in outputs)),
    }


def census_check(result: dict, inputs: dict) -> tuple[int, list[str]]:
    charpolys = [tree_charpoly(CENSUS_N, edges) for edges in result["trees"]]
    if digest(sorted(charpolys)) != EXPECTED["census_n14_charpolys_sha256"]:
        # wrong or missing trees cannot be matched to items: all count as failed
        return result["items"], ["tree enumeration differs from the 3,159 free trees"]
    table = CERTIFIED_S[CENSUS_N]
    failed = 0
    for phi, out in zip(charpolys, result["outputs"]):
        expect_s = table.get(tuple(phi))
        failed += not (
            "error" not in out
            and out["charpoly"] == phi
            and (out["verdict"] == CERTIFIED) == (expect_s is not None)
            and (expect_s is None or out["s"] == expect_s)
        )
    certified = sum(1 for o in result["outputs"] if o.get("verdict") == CERTIFIED)
    problems = []
    if certified != CENSUS_CERTIFIED:
        problems.append(f"{certified} certified trees, expected {CENSUS_CERTIFIED}")
    return failed, problems


# -- mates-n10: the criterion-4 spot check -------------------------------------------


def mates_inputs(seed: int) -> dict:
    """One signing of a certified 10-vertex tree, with random labels."""
    from sgdgs import search

    rng = random.Random(seed)
    table = CERTIFIED_S[MATES_N]
    certified = [
        t for t in search.enumerate_trees(MATES_N).trees
        if tuple(tree_charpoly(MATES_N, t.edges)) in table
    ]
    return {"query": _relabel(rng.choice(certified).edges, rng, signs=True)}


def mates_execute(inputs: dict) -> dict:
    from sgdgs import search

    query = _graph(MATES_N, inputs["query"])
    clock = time.perf_counter
    start = clock()
    try:
        report = search.find_gc_mates(query, search.all_signed_trees(MATES_N))
    except Exception as exc:  # every candidate of a raising scan failed
        report = exc
    wall = clock() - start
    if isinstance(report, Exception):
        outputs = _error(report)
    else:
        outputs = {
            "candidates_scanned": report.candidates_scanned,
            "mates": [_edges(entry.mate) for entry in report.mates],
        }
    return {"wall_s": wall, "item_s": None, "items": MATES_CANDIDATES,
            "outputs": outputs, "digest": digest(outputs)}


def mates_check(result: dict, inputs: dict) -> tuple[int, list[str]]:
    out = result["outputs"]
    if "error" in out:
        return MATES_CANDIDATES, [out["error"]]
    scanned = out["candidates_scanned"]
    failed = min(MATES_CANDIDATES, len(out["mates"]) + abs(MATES_CANDIDATES - scanned))
    problems = []
    if scanned != MATES_CANDIDATES:
        problems.append(f"{scanned} candidates scanned, expected {MATES_CANDIDATES}")
    if out["mates"]:
        problems.append(f"{len(out['mates'])} mates reported, expected none")
    return failed, problems


# -- exhaustive-n12: `sgdgs exhaustive-check --n 12`, in-process -----------------------


def exhaustive_execute(inputs: dict) -> dict:
    clock = time.perf_counter
    start = clock()
    try:
        code, text = _run_cli(EXHAUSTIVE_ARGV)
        outputs = {"exit_code": code, "stdout": json.loads(text) if code == 0 else text}
    except Exception as exc:
        outputs = _error(exc)
    wall = clock() - start
    items = EXHAUSTIVE_TREES * EXHAUSTIVE_SIGNINGS
    return {"wall_s": wall, "item_s": None, "items": items,
            "outputs": outputs, "digest": digest(outputs)}


def exhaustive_check(result: dict, inputs: dict) -> tuple[int, list[str]]:
    items = result["items"]
    out = result["outputs"]
    if "error" in out or out["exit_code"] != 0:
        return items, [f"exhaustive-check failed: {out}"]
    report = out["stdout"]
    table = CERTIFIED_S[EXHAUSTIVE_N]
    good = 0
    for entry in report["results"]:
        if (
            entry["ok"]
            and entry["signings_scanned"] == EXHAUSTIVE_SIGNINGS
            and entry["spectrum_groups"] == EXHAUSTIVE_SIGNINGS
            and tuple(tree_charpoly(EXHAUSTIVE_N, entry["edges"])) in table
        ):
            good += entry["signings_scanned"]
    problems = []
    if report["certified_trees"] != EXHAUSTIVE_TREES or not report["all_ok"]:
        problems.append(
            f"certified_trees={report['certified_trees']} all_ok={report['all_ok']}"
        )
    return max(0, items - good), problems


# -- pairs-n18: planted relabeled pairs plus the dataset CLI commands ---------------------


def pairs_inputs(seed: int) -> dict:
    """Signed 18-vertex trees with irreducible charpoly, each with a random
    relabeling of itself.

    Rejection sampling stays here, off the clock: a perfect matching
    (needed for constant term +-1) is checked first, then phi(x) = psi(x^2)
    with psi irreducible (necessary), then phi irreducible.
    """
    from sgdgs.intpoly import IntPolynomial, is_irreducible

    rng = random.Random(seed)
    pairs = []
    while len(pairs) < PAIRS_COUNT:
        edges = _random_tree_edges(PAIRS_N, rng)
        if not _has_perfect_matching(PAIRS_N, edges):
            continue
        phi = tree_charpoly(PAIRS_N, [(u, v, 1) for u, v in edges])
        if not is_irreducible(IntPolynomial(phi[::2])).irreducible:
            continue
        if not is_irreducible(IntPolynomial(phi)).irreducible:
            continue
        signed = sorted((u, v, rng.choice((1, -1))) for u, v in edges)
        pairs.append({"g": signed, "h": _relabel(signed, rng)})
    return {"pairs": pairs}


def _pair_output(structure, lemma) -> dict:
    rec = structure.recovery
    return {
        "passed": structure.passed,
        "failures": list(structure.failures),
        "classification": structure.classification.tag if structure.classification else None,
        "q_valid": rec.valid if rec is not None else None,
        "q": [[str(x) for x in row] for row in rec.q.data] if rec is not None else None,
        "lemma34_passed": lemma.passed,
        "lemma34_failures": list(lemma.failures),
    }


def pairs_execute(inputs: dict) -> dict:
    from sgdgs import numberfield, spectra

    graphs = [(_graph(PAIRS_N, p["g"]), _graph(PAIRS_N, p["h"])) for p in inputs["pairs"]]
    clock = time.perf_counter
    start = clock()
    item_s, raw = [], []
    for g, h in graphs:
        t0 = clock()
        try:
            raw.append((spectra.verify_structure_theorem(g, h),
                        numberfield.verify_bipartite_eigen_properties(g)))
        except Exception as exc:
            raw.append(exc)
        item_s.append(clock() - t0)
    for _, argv, _ in PAIRS_COMMANDS:
        t0 = clock()
        try:
            raw.append(_run_cli(argv))
        except Exception as exc:
            raw.append(exc)
        item_s.append(clock() - t0)
    wall = clock() - start
    outputs = []
    for item in raw:
        if isinstance(item, Exception):
            outputs.append(_error(item))
        elif isinstance(item[0], int):
            code, text = item
            outputs.append({"exit_code": code, "stdout": json.loads(text) if code == 0 else text})
        else:
            outputs.append(_pair_output(*item))
    return {"wall_s": wall, "item_s": item_s, "items": len(raw),
            "outputs": outputs, "digest": digest(outputs)}


def pairs_check(result: dict, inputs: dict) -> tuple[int, list[str]]:
    outputs = result["outputs"]
    planted, commands = outputs[:PAIRS_COUNT], outputs[PAIRS_COUNT:]
    problems = []
    failed = 0
    for out in planted:
        ok = (
            "error" not in out
            and out["passed"]
            and out["q_valid"]
            and out["classification"] == "Permutation"
            and out["lemma34_passed"]
        )
        failed += not ok
    bad_pairs = failed
    for (label, _, accept), out in zip(PAIRS_COMMANDS, commands):
        if "error" in out or out["exit_code"] != 0 or not accept(out["stdout"]):
            failed += 1
            problems.append(f"{label}: unexpected output")
    if bad_pairs:
        problems.append(f"{bad_pairs} of {PAIRS_COUNT} planted pairs failed")
    missing = PAIRS_COUNT + len(PAIRS_COMMANDS) - len(outputs)
    return failed + max(0, missing), problems


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what one item is, for the report
    make_inputs: Callable[[int], dict]
    execute: Callable[[dict], dict]
    check: Callable[[dict, dict], tuple[int, list[str]]]
    # traced metrics that must read non-zero (a traced function name stands
    # for its .calls and .self_s): the layers this workload exercises
    moves: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-n14", "tree certified", fixed_inputs, census_execute, census_check,
            moves=(
                "kernels.charpoly_coeffs", "kernels.det_int", "linalg.charpoly",
                "intpoly.is_irreducible", "intpoly.discriminant", "intpoly.resultant",
                "intpoly.factorization_fallbacks", "factorint.factor_integer",
                "factorint.is_prime", "sgraph.tree_canonical_form", "sgraph.bipartition",
                "search.enumerate_trees", "certify.certify_tree",
                "certify.certify_from_charpoly", "certify.certified_ratio",
            ),
        ),
        Workload(
            "mates-n10", "candidate signed tree scanned", mates_inputs, mates_execute,
            mates_check,
            moves=(
                "kernels.charpoly_coeffs", "kernels.charpoly_coeffs.mults", "linalg.charpoly",
                "sgraph.tree_canonical_form", "search.enumerate_trees",
                "search.enumerate_signings", "search.enumerate_signings.items",
                "search.find_gc_mates",
            ),
        ),
        Workload(
            "exhaustive-n12", "signing bucketed", fixed_inputs, exhaustive_execute,
            exhaustive_check,
            moves=(
                "kernels.charpoly_coeffs", "kernels.charpoly_coeffs.mults", "linalg.charpoly",
                "intpoly.is_irreducible", "sgraph.tree_canonical_form",
                "search.enumerate_trees", "search.enumerate_signings",
                "search.enumerate_signings.items", "search.exhaustive_dgs_check",
                "certify.certify_tree", "certify.certify_from_charpoly",
                "certify.certified_ratio", "cli.main",
            ),
        ),
        Workload(
            "pairs-n18", "pair verified or CLI command run", pairs_inputs, pairs_execute,
            pairs_check,
            moves=(
                "kernels.charpoly_coeffs", "kernels.det_int", "linalg.charpoly",
                "linalg.rat_inverse", "linalg.RatMatrix.matmul", "intpoly.is_irreducible",
                "intpoly.irreducible_modp_ratio", "intpoly.discriminant", "intpoly.resultant", "factorint.factor_integer",
                "sgraph.bipartition", "spectra.walk_matrix", "spectra.recover_q",
                "spectra.classify_q", "spectra.verify_structure_theorem",
                "numberfield.symbolic_eigenvector",
                "numberfield.verify_bipartite_eigen_properties",
                "certify.certify_from_charpoly", "cli.main",
            ),
        ),
    )
}
