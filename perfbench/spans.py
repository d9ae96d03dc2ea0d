"""Layer tracing from outside the package.

``Tracer.install`` wraps the sgdgs functions named in ``TARGETS``.  Each
wrapped call records one span (name, start, end, parent span) in memory and
bumps the counters kept at the same boundary; ``metrics`` turns them into
per-layer figures and ``dump`` writes the spans out when the pass ends.

Modules bind names with ``from .linalg import charpoly`` and the like, so
wrapping the defining module alone would miss most calls.  ``install``
rebinds every attribute of every loaded sgdgs module that holds the original
function, then checks that no such binding is left.  Nothing under ``src/``
knows about the tracer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict


def berkowitz_mults(n: int) -> int:
    """Multiplications in the Berkowitz kernel on an n x n matrix.

    Step k does k dot products and k-1 matrix-vector products of length k
    (k^3 in all) and a convolution of k+1 by k+2 coefficients.
    """
    return sum(k**3 + (k + 1) * (k + 2) // 2 + (k + 1) for k in range(n))


def _observe_charpoly_coeffs(counts, args, result):
    counts["kernels.charpoly_coeffs.mults"] += berkowitz_mults(len(args[0]))


def _observe_is_irreducible(counts, args, result):
    if result.method in ("mod-p", "factorization") or result.status == "unknown":
        counts["intpoly.nonzero_disc_calls"] += 1
    if result.method == "mod-p":
        counts["intpoly.modp_verdicts"] += 1
    elif result.method == "factorization":
        counts["intpoly.factorization_fallbacks"] += 1


def _observe_factor_integer(counts, args, result):
    counts["factorint.probable_only"] += bool(result.probable_only)


def _observe_certify_from_charpoly(counts, args, result):
    counts["certify.certified"] += bool(result.certified)


# (metric name, module, attribute path, observer of (counts, args, result) or None)
TARGETS = (
    ("kernels.charpoly_coeffs", "sgdgs.kernels", "charpoly_coeffs", _observe_charpoly_coeffs),
    ("kernels.det_int", "sgdgs.kernels", "det_int", None),
    ("linalg.charpoly", "sgdgs.linalg", "charpoly", None),
    ("linalg.rat_inverse", "sgdgs.linalg", "rat_inverse", None),
    ("linalg.RatMatrix.matmul", "sgdgs.linalg", "RatMatrix.__matmul__", None),
    ("intpoly.is_irreducible", "sgdgs.intpoly", "is_irreducible", _observe_is_irreducible),
    ("intpoly.discriminant", "sgdgs.intpoly", "discriminant", None),
    ("intpoly.resultant", "sgdgs.intpoly", "resultant", None),
    ("factorint.factor_integer", "sgdgs.factorint", "factor_integer", _observe_factor_integer),
    ("factorint.is_prime", "sgdgs.factorint", "is_prime", None),
    ("sgraph.tree_canonical_form", "sgdgs.sgraph", "tree_canonical_form", None),
    ("sgraph.are_isomorphic", "sgdgs.sgraph", "are_isomorphic", None),
    ("sgraph.bipartition", "sgdgs.sgraph", "bipartition", None),
    ("search.enumerate_trees", "sgdgs.search", "enumerate_trees", None),
    ("search.enumerate_signings", "sgdgs.search", "enumerate_signings", None),
    ("search.find_gc_mates", "sgdgs.search", "find_gc_mates", None),
    ("search.exhaustive_dgs_check", "sgdgs.search", "exhaustive_dgs_check", None),
    ("spectra.walk_matrix", "sgdgs.spectra", "walk_matrix", None),
    ("spectra.recover_q", "sgdgs.spectra", "recover_q", None),
    ("spectra.classify_q", "sgdgs.spectra", "classify_q", None),
    ("spectra.verify_structure_theorem", "sgdgs.spectra", "verify_structure_theorem", None),
    ("numberfield.symbolic_eigenvector", "sgdgs.numberfield", "symbolic_eigenvector", None),
    ("numberfield.verify_bipartite_eigen_properties", "sgdgs.numberfield",
     "verify_bipartite_eigen_properties", None),
    ("certify.certify_tree", "sgdgs.certify", "certify_tree", None),
    ("certify.certify_from_charpoly", "sgdgs.certify", "certify_from_charpoly",
     _observe_certify_from_charpoly),
    ("cli.main", "sgdgs.cli", "main", None),
)

# counters published as they are, next to every target's calls and self_s
COUNTERS = (
    "kernels.charpoly_coeffs.mults",
    "intpoly.factorization_fallbacks",
    "factorint.probable_only",
    "search.enumerate_signings.items",
)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.absent: list[str] = []  # targets the code under test no longer has
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[int] = []
        self._stack = [-1]

    # -- spans ------------------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1])
        self._ends.append(0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self._ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, observe):
        counts = self.counts
        calls = name + ".calls"
        if inspect.isgeneratorfunction(fn):
            items = name + ".items"

            def traced_generator(*args, **kwargs):
                counts[calls] += 1
                return self._spanned_items(name, items, fn(*args, **kwargs))

            return traced_generator

        def traced(*args, **kwargs):
            counts[calls] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def _spanned_items(self, name, items, it):
        """Yield from a generator, one span around each resumption."""
        while True:
            idx = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts[items] += 1
            yield item

    # -- installation -------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site; raise if one is missed."""
        resolved = []
        for name, module_name, attr, observe in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                resolved.append((name, owner, leaf, bool(path), getattr(owner, leaf), observe))
            except (ImportError, AttributeError):
                self.absent.append(name)
        modules = [m for k, m in sys.modules.items() if k == "sgdgs" or k.startswith("sgdgs.")]
        originals = set()
        for name, owner, leaf, is_method, original, observe in resolved:
            wrapper = self._wrap(name, original, observe)
            setattr(owner, leaf, wrapper)
            if is_method:
                continue  # the class attribute is the only binding of a method
            originals.add(id(original))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        missed = [
            f"{module.__name__}.{key}"
            for module in modules
            for key, value in vars(module).items()
            if id(value) in originals
        ]
        if missed:
            raise RuntimeError(f"tracer left unwrapped bindings: {missed}")

    # -- results ------------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0] * len(self._names)
        for idx, parent in enumerate(self._parents):
            if parent >= 0:
                child[parent] += self._ends[idx] - self._starts[idx]
        totals: dict[str, float] = defaultdict(float)
        for idx, name in enumerate(self._names):
            totals[name] += (self._ends[idx] - self._starts[idx] - child[idx]) / 1e9
        return totals

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; zero for targets that were not called."""
        c = self.counts
        self_s = self.self_times()
        out: dict[str, float] = {}
        for name, *_ in TARGETS:
            out[name + ".calls"] = c[name + ".calls"]
            out[name + ".self_s"] = self_s.get(name, 0.0)
        for key in COUNTERS:
            out[key] = c[key]
        out["intpoly.irreducible_modp_ratio"] = _ratio(
            c["intpoly.modp_verdicts"], c["intpoly.nonzero_disc_calls"]
        )
        out["certify.certified_ratio"] = _ratio(
            c["certify.certified"], c["certify.certify_from_charpoly.calls"]
        )
        return out

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and
        [name index, start ns, end ns, parent index] per span."""
        table = {name: i for i, name in enumerate(dict.fromkeys(self._names))}
        origin = self._starts[0] if self._starts else 0
        spans = [
            [table[n], s - origin, e - origin, p]
            for n, s, e, p in zip(self._names, self._starts, self._ends, self._parents)
        ]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": list(table), "spans": spans}, fh, separators=(",", ":"))
