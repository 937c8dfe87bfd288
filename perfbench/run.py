"""The repository benchmark: run one workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload annotated_reads --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``annotated_reads``, ``curation_writes``, ``served_mixed`` (see
``perfbench/README.md``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  The line before it carries the host, the engine defaults,
the seed and the per-run details (tail quantiles, sample counts, raw
wall-clock p50s beside the scaled ones, the host's median slowdown, the
hypervisor's steal while measuring, totals of the final reopen).  Times
are scaled to a reference host speed; see ``perfbench/README.md``.  Exit
status is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = ".perfbench_work"


def _load_workloads():
    # The program under test comes from the checkout's own sources.
    sources = os.path.join(ROOT, "src")
    sys.path.insert(0, sources)
    sys.path.insert(0, ROOT)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import the program under test from {sources}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(sources + os.sep):
        sys.exit(f"imported repro from {repro.__file__}, not from {sources}")
    from perfbench.annotated_reads import AnnotatedReads
    from perfbench.curation_writes import CurationWrites
    from perfbench.served_mixed import ServedMixed
    return {workload.name: workload
            for workload in (AnnotatedReads, CurationWrites, ServedMixed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads)}")
    from perfbench.common import WrongAnswer, engine_meta, host_meta
    from perfbench.harness import run_workload

    with open(os.path.join(HERE, "params.json"), encoding="utf-8") as handle:
        params = json.load(handle)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(WORK_DIR, "traces"), exist_ok=True)
        trace_path = os.path.join(
            WORK_DIR, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "traced": bool(args.trace),
            "host": host_meta(), "engine": engine_meta()}
    try:
        outcome = run_workload(workloads[args.workload], params, args.seed,
                               args.seconds, bool(args.trace), workdir,
                               trace_path)
    except WrongAnswer as exc:
        meta["wrong_answer"] = str(exc)
        print(json.dumps({"meta": meta}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta.update(outcome["meta"])
    print(json.dumps({"meta": meta}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
