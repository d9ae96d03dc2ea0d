#!/usr/bin/env python3
"""Benchmark one sgdgs workload: time it end to end, or trace it layer by
layer, and check every output.

Run from the repository root:

    python3 perfbench/run.py --workload census-n14 --seed 1 --seconds 27 --trace 0

Workloads: census-n14, mates-n10, exhaustive-n12, pairs-n18 (see README.md).
Inputs are generated from the seed before any clock starts.  Each pass runs
the whole workload once in a fresh interpreter, in one process (``jobs`` is
left at its default of 1); passes repeat until the next one would end after
``--seconds``.  With ``--trace 0`` the passes are untraced and the end-to-end metrics are
reported.  With ``--trace 1`` the first pass is untraced and the others are
traced, and the per-layer metrics plus the tracing overhead are reported.

Stdout ends with two JSON lines: a report (environment, per-pass figures,
output digests, problems found) and the result
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every output is correct, 1 when one is not, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 8  # import-only interpreters per run, after one untimed warm-up
PASS_TIMEOUT_S = 150
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)
SPANS_DIR = ".perfbench-out"

E2E_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- environment -----------------------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root: Path) -> str:
    """Digest of the package sources, which names the code under test even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "sgdgs").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int, backend: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backend": backend,
        "commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
        "seed": seed,
    }


# -- worker processes --------------------------------------------------------------------


def spawn(root: Path, spec: dict) -> dict:
    """Run worker.py once in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    stdin = json.dumps(spec)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=root,
            env=env,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {PASS_TIMEOUT_S} s") from exc
    end = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1])
    expected_src = root / "src" / "sgdgs"
    if Path(result["sgdgs_file"]).resolve().parent != expected_src.resolve():
        raise BenchError(f"worker imported sgdgs from {result['sgdgs_file']}")
    result["setup_s"] = result["ready"] - start
    result["pass_s"] = end - start
    return result


def run_passes(root: Path, name: str, inputs: dict, seed: int, seconds: float,
               trace: bool) -> list[dict]:
    """Cold passes until the next one would end after `seconds`; with
    tracing, the first pass is untraced and at least one is traced."""
    spans_path = root / SPANS_DIR / f"spans-{name}-seed{seed}.json.gz"
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and bool(passes)
        spec = {"workload": name, "inputs": inputs, "trace": traced,
                "spans_path": str(spans_path)}
        result = spawn(root, spec)
        result["traced"] = traced
        passes.append(result)
        same_kind = [p["pass_s"] for p in passes if p["traced"] == traced]
        if len(passes) >= 1 + trace and (
            time.perf_counter() - start + statistics.median(same_kind) > seconds
        ):
            return passes


# -- metrics -------------------------------------------------------------------------------


def tail_percentile(n_items: int) -> float:
    """The highest of PERCENTILES with at least ten items beyond it."""
    return max((p for p in PERCENTILES if n_items * (100 - p) / 100 >= 10), default=50)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def pass_figures(p: dict) -> dict:
    """Per-pass end-to-end figures.  Where items are not separate calls
    (item_s is None), each item is given the pass's mean time."""
    times = p["item_s"] or [p["wall_s"] / p["items"]]
    tail = tail_percentile(p["items"])
    return {
        "wall_s": p["wall_s"],
        "items_per_s": p["items"] / p["wall_s"],
        "item_p50_ms": 1000 * percentile(times, 50),
        "item_tail_ms": 1000 * percentile(times, tail),
        "tail_percentile": tail,
        "peak_rss_mb": p["peak_rss_mb"],
    }


def end_to_end(passes: list[dict], setup_samples: list[float]) -> dict:
    figures = [pass_figures(p) for p in passes]
    values = {
        name: statistics.median(f[name] for f in figures)
        for name in E2E_UNITS
        if name != "setup_s"
    }
    values["setup_s"] = statistics.median(setup_samples)
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    names = traced[0]["layers"]
    metrics = {
        name: {"value": statistics.median(p["layers"][name] for p in traced),
               "unit": _layer_unit(name)}
        for name in names
    }
    overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in untraced
    )
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics


def trace_problems(workload: workloads.Workload, passes: list[dict]) -> list[str]:
    """Layers the prediction table says this workload moves must read non-zero."""
    problems = []
    for p in passes:
        absent = set(p["absent"])
        for name in workload.moves:
            if name in absent:
                continue  # deleted from the code under test
            keys = [name] if name in p["layers"] else [name + ".calls", name + ".self_s"]
            problems += [f"traced {key} is zero" for key in keys if not p["layers"][key]]
    return sorted(set(problems))


# -- main --------------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sgdgs" / "__init__.py").is_file():
        print("error: run from the repository root (src/sgdgs not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    if trace:
        (root / SPANS_DIR).mkdir(exist_ok=True)

    try:
        inputs = workload.make_inputs(args.seed)
        spawn(root, {})  # warm-up: compiles bytecode caches, untimed
        setup_runs = [spawn(root, {}) for _ in range(SETUP_SPAWNS)]
        passes = run_passes(root, workload.name, inputs, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        f, probs = workload.check(p, inputs)
        attempted += p["items"]
        failed += f
        problems += probs
    digests = sorted({p["digest"] for p in passes})
    if len(digests) != 1:
        problems.append(f"output digests differ between passes: {digests}")
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace:
        problems += trace_problems(workload, traced)
        metrics = per_layer(traced, untraced)
    else:
        setup_samples = [r["setup_s"] for r in setup_runs + passes]
        metrics = end_to_end(passes, setup_samples)
    problems = sorted(set(problems))
    correct = not problems and failed == 0

    report = {
        "workload": workload.name,
        "item": workload.item,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(root, args.seed, passes[0]["backend"]),
        "digest": digests[0] if len(digests) == 1 else digests,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "setup_samples_s": [r["setup_s"] for r in setup_runs],
        "passes": [
            {"traced": p["traced"], "pass_s": p["pass_s"], "setup_s": p["setup_s"],
             "digest": p["digest"], **pass_figures(p)}
            for p in passes
        ],
        "absent_targets": traced[0]["absent"] if traced else [],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
