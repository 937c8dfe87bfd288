"""Self-checks of the benchmark itself (not of the program under test).

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It checks that

1. the tail-percentile rule picks, for every sample count, the highest
   quantile up to the cap with at least ten samples beyond it;
2. a latency is divided by the speed reading taken before it, or, for a
   program in another process, by the run's median reading; ``ops_per_s``
   is the callers over the mean scaled latency;
3. every metric name the command prints is declared in ``BENCHMARK.json``
   with the same unit and direction, and every declared name is printed;
4. a tiny-size run of every workload, untraced and traced, passes its
   correctness checks and prints exactly the declared metrics;
5. ``run.py`` ends with a result line from a checkout, and fails without
   one in a directory holding only ``BENCHMARK.json`` and the benchmark.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench.common import (  # noqa: E402
    TAIL_MIN_BEYOND,
    Samples,
    quantile,
    slowdown,
    tail_quantile,
)
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.run import WORK_DIR, _load_workloads  # noqa: E402

TINY = {
    "annotated_reads": {"genes": 60, "cell_note_every": 20, "warmup_ops": 10},
    "curation_writes": {"genes": 60, "warmup_ops": 20},
    "served_mixed": {"genes": 60, "cell_note_every": 20, "warmup_ops": 10},
}


def check_tail_rule() -> None:
    for cap in (0.5, 0.9, 0.99):
        for count in range(1, 5000):
            q = tail_quantile(count, cap)
            if count < 2 * TAIL_MIN_BEYOND:
                assert q == 0.5, (count, q)  # the median stands in
                continue
            # Samples are 1..count, so the value read is its own rank.
            rank = quantile(range(1, count + 1), q)
            assert count - rank >= TAIL_MIN_BEYOND, (count, cap, q, rank)
            assert q <= cap, (count, cap, q)
            # Maximal: one rank higher would leave fewer than ten beyond.
            if q < cap:
                assert count - (rank + 1) < TAIL_MIN_BEYOND, (count, cap, q)
    assert tail_quantile(1000, 0.99) == 0.99
    assert tail_quantile(200, 0.99) == 0.95
    assert tail_quantile(100, 0.90) == 0.90
    assert tail_quantile(50, 0.90) == 0.80


def _close(got: dict, expected: dict) -> bool:
    return got.keys() == expected.keys() and all(
        len(got[key]) == len(expected[key])
        and all(abs(a - b) < 1e-12 for a, b in zip(got[key], expected[key]))
        for key in got)


def check_scaling() -> None:
    samples = Samples()
    for kind, seconds, speed in (("lookup", 0.004, 2.0), ("lookup", 0.003, 1.0),
                                 ("write", 0.010, 1.25)):
        samples.add(kind, seconds, speed)
    assert _close(samples.scaled(),
                  {"lookup": [0.002, 0.003], "write": [0.008]})
    assert abs(samples.ops_per_s(1) - 3 / 0.013) < 1e-9
    per_run = Samples(per_run=True)
    per_run.merge(samples)
    assert per_run.median_slowdown() == 1.25
    assert _close(per_run.scaled(),
                  {"lookup": [0.0032, 0.0024], "write": [0.008]})
    assert abs(per_run.ops_per_s(2) - 2 * 3 / 0.0136) < 1e-9
    assert 0.05 < slowdown() < 20, "reference work is far off its scale"


def check_declarations() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {entry["name"]: (entry["unit"], entry["better"])
                  for entry in declared[key]}
        assert listed == catalogue, (key, set(listed) ^ set(catalogue))
    names = {entry["name"] for entry in declared["workloads"]}
    assert names == set(_load_workloads()), names
    assert any(entry["name"] == "setup_s" and entry["bound"] == max(
        other["bound"] for other in declared["end_to_end"])
        for entry in declared["end_to_end"]), "setup_s needs the largest bound"


def check_tiny_runs() -> None:
    from perfbench.harness import run_workload
    with open(os.path.join(HERE, "params.json"), encoding="utf-8") as handle:
        params = json.load(handle)
    for name, overrides in TINY.items():
        params[name].update(copy.deepcopy(overrides))
    workloads = _load_workloads()
    os.makedirs(WORK_DIR, exist_ok=True)
    for name, workload in sorted(workloads.items()):
        for trace, catalogue in ((False, END_TO_END), (True, PER_LAYER)):
            workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=WORK_DIR)
            try:
                outcome = run_workload(workload, params, 7, 1.0, trace,
                                       workdir,
                                       os.path.join(workdir, "spans.jsonl"))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            result = outcome["result"]
            assert result["correct"] and result["failed"] == 0, (name, result)
            assert set(result["metrics"]) == set(catalogue), name
            print(f"  {name} trace={int(trace)}: {result['attempted']} ops ok")


def check_command() -> None:
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", "annotated_reads", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(END_TO_END)

    os.makedirs(WORK_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(command, cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "ran without the program's sources"
    assert '"correct"' not in done.stdout, "printed a result without sources"


def main() -> int:
    for check in (check_tail_rule, check_scaling, check_declarations,
                  check_tiny_runs, check_command):
        print(f"{check.__name__} ...", flush=True)
        check()
    print("all self-checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
