"""One cold benchmark pass, in a fresh interpreter.

``run.py`` starts this file once per pass with ``src`` on PYTHONPATH, writes
a JSON spec to its stdin and reads one JSON result from the last line of its
stdout.  A new interpreter per pass keeps module state such as
``search._POOL_CACHE`` from carrying over.  A spec without a workload only
reports when the import completed, for the set-up time.  The import is that
of ``sgdgs.cli``, which loads every module a CLI invocation loads, so work
moved into module import time shows in the set-up time.
"""

import time

import sgdgs.cli

READY = time.perf_counter()  # CLOCK_MONOTONIC on Linux: comparable across processes

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    spec = json.load(sys.stdin)
    kernels = getattr(sgdgs, "kernels", None)  # without it only pure Python is left
    backend = kernels.backend() if kernels is not None else "pure"
    result = {"ready": READY, "sgdgs_file": sgdgs.__file__, "backend": backend}
    if spec.get("workload"):
        tracer = None
        if spec["trace"]:
            tracer = spans.Tracer()
            tracer.install()
        result.update(workloads.WORKLOADS[spec["workload"]].execute(spec["inputs"]))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["absent"] = tracer.absent
            tracer.dump(spec["spans_path"])
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
