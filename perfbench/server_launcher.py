"""Run the repro server in its own process for the ``served_mixed`` workload.

Started by ``served_mixed.py`` as::

    python3 perfbench/server_launcher.py --path DB [--spans FILE]

It serves ``DB`` with the default ``ServerConfig`` on an ephemeral port and
prints ``{"port": N}`` as its first line.  It then obeys one command per
line on standard input, answering each with one JSON line:

* ``trace on``  - install the layer probes and start recording;
* ``trace off`` - stop, answer with the trace aggregate and the server
  database's counter deltas, and write the spans to ``--spans``;
* ``stop``      - shut the server down (closing the database) and answer
  with this process's peak memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reply(message) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="serve one benchmark database")
    parser.add_argument("--path", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench.common import peak_rss_mb
    from perfbench.harness import counter_delta, program_counters
    from perfbench.trace import Tracer, install_layer_probes
    from repro.server import start_server

    server = start_server(path=args.path)
    _reply({"port": server.port})
    tracer = None
    before = {}
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer = Tracer()
                install_layer_probes(tracer)
                before = program_counters(server.database)
                tracer.enabled = True
                _reply({"ok": True})
            elif command == "trace off" and tracer is not None:
                tracer.enabled = False
                tracer.uninstall()
                if args.spans:
                    tracer.write_spans(args.spans)
                _reply({"aggregate": tracer.aggregate(),
                        "stats": counter_delta(
                            program_counters(server.database), before)})
            elif command == "stop":
                break
    finally:
        server.shutdown()
    _reply({"peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
