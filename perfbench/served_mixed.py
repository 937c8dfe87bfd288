"""Workload ``served_mixed``: the annotated catalog behind the network server.

The server runs in its own process (``server_launcher.py``) with the default
``ServerConfig``.  This process is the one load generator: ``connections``
clients, each a closed loop on its own connection over ``repro.client``,
send the ``annotated_reads`` mix of PK lookups, annotated PK reads and
single-row renames, so the reader-writer lock is taken in both modes.  Each
client owns a disjoint share of the genes, which keeps every gene's history
sequential and every answer exactly checkable.

One connection is the default (``params.json``): with two, client and
server each need a vCPU at once, and on a 2-vCPU host whose hypervisor takes
a vCPU away for seconds at a time (steal, recorded in the metadata line)
the latency medians of unchanged code moved by 20-70% between runs.
``ops_per_s`` is the capacity the callers get; with more than one, a
request's latency includes its wait behind the others.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

from perfbench.common import Clock, ProgramError, Samples
from perfbench.gene_catalog import GeneCatalog, RequestSource, execute
from perfbench.harness import Measurement
from perfbench.trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
PROCESS_TIMEOUT_S = 60.0


class ServerProcess:
    """The launcher subprocess and its line protocol."""

    def __init__(self, path: str, spans_path: Optional[str]):
        command = [sys.executable, os.path.join(HERE, "server_launcher.py"),
                   "--path", path]
        if spans_path:
            command += ["--spans", spans_path]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._read()["port"]
        except BaseException:
            self.kill()
            raise

    def _read(self) -> Dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("benchmark server exited unexpectedly")
        return json.loads(line)

    def command(self, text: str) -> Dict[str, Any]:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> Dict[str, Any]:
        reply = self.command("stop")
        self.process.stdin.close()
        self.process.wait(timeout=PROCESS_TIMEOUT_S)
        return reply

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=PROCESS_TIMEOUT_S)


class Client:
    """One closed-loop caller with its own connection and gene share."""

    def __init__(self, port: int, requests: RequestSource):
        import repro.client
        self.connection = repro.client.connect(port=port, user="admin")
        self.cursor = self.connection.cursor()
        self.requests = requests
        self.samples = Samples()
        self.error: Optional[BaseException] = None

    def run(self, deadline: float, tracer: Optional[Tracer]) -> None:
        clock = Clock(self.samples)
        try:
            while time.perf_counter() < deadline:
                request = self.requests.next()
                try:
                    with tracer.span("op") if tracer is not None \
                            else nullcontext():
                        answer = clock(request.kind,
                                       lambda: execute(self.cursor, request))
                except ProgramError:
                    continue  # counted as failed by Clock
                request.verify(answer)
        except BaseException as exc:  # re-raised by the measuring thread
            self.error = exc

    def refused(self) -> int:
        """Requests and connections the server refused so far (``stats``)."""
        stats = self.connection.request({"op": "stats"})["stats"]
        return stats["queries_rejected"] + stats["connections_rejected"]

    def close(self) -> None:
        self.connection.close()


class ServedMixed:
    name = "served_mixed"

    def __init__(self, settings: Dict[str, Any], seed: int, path: str):
        from repro import Database
        self.settings = settings
        self.path = path
        self.catalog = GeneCatalog(settings["genes"],
                                   settings["cell_note_every"], seed)
        self.db = Database(path)
        self.cursor = self.db.connect().cursor()
        self.embedded_open = True
        genes = range(len(self.catalog))
        self.warmup_requests = RequestSource(
            self.catalog, genes, settings["mix"], f"{self.name}/warm-up", seed)
        clients = settings["connections"]
        self.client_requests = [
            RequestSource(self.catalog, genes[number::clients],
                          settings["mix"], f"{self.name}/client{number}", seed)
            for number in range(clients)]
        #: Where a traced run writes spans; the server's go beside them.
        self.trace_path: Optional[str] = None

    # -- phases -----------------------------------------------------------------
    def setup(self) -> None:
        self.catalog.load(self.cursor)

    def warm_up(self) -> None:
        """A fixed history of the mix, run embedded before the server starts."""
        self.catalog.tag_names(self.cursor)
        for _ in range(self.settings["warmup_ops"]):
            request = self.warmup_requests.next()
            request.verify(execute(self.cursor, request))

    def counters(self) -> Dict[str, float]:
        return {}  # the server process reports its own counters

    def user_bytes(self) -> int:
        return self.catalog.user_bytes

    def verify_reopened(self, db) -> int:
        self.catalog.verify_table(db.connect().cursor())
        return 0  # this workload keeps no approval or outdated state

    def close(self) -> None:
        if self.embedded_open:
            self.db.close()
            self.embedded_open = False

    def final_check(self) -> Dict[str, Any]:
        from repro import Database
        db = Database(self.path)
        try:
            self.catalog.verify_table(db.connect().cursor())
        finally:
            db.close()
        return {"verified_rows": len(self.catalog)}

    # -- measurement ---------------------------------------------------------------
    def measure(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        self.close()  # the server process owns the database from here on
        spans = None
        if tracer is not None and self.trace_path is not None:
            spans = self.trace_path.replace(".jsonl", ".server.jsonl")
        server = ServerProcess(self.path, spans)
        clients: List[Client] = []
        try:
            clients = [Client(server.port, requests)
                       for requests in self.client_requests]
            if tracer is not None:
                server.command("trace on")
            refused_before = clients[0].refused()
            deadline = time.perf_counter() + seconds
            threads = [threading.Thread(target=client.run,
                                        args=(deadline, tracer))
                       for client in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            refused = clients[0].refused() - refused_before
            remote = server.command("trace off") if tracer is not None else {}
        except BaseException:
            for client in clients:
                client.close()
            server.kill()
            raise
        for client in clients:
            client.close()
        stopped = server.stop()

        samples = Samples(per_run=True)
        for client in clients:
            if client.error is not None:
                raise client.error
            samples.merge(client.samples)
        stats = dict(remote.get("stats", {}))
        stats["server.busy_rejects"] = refused
        return Measurement(samples, samples.ops_per_s(len(clients)),
                           stats=stats, remote_aggregate=remote.get("aggregate"),
                           peak_rss_mb=stopped["peak_rss_mb"],
                           meta={"served": {"clients": len(clients),
                                            "busy_rejects": refused}})
