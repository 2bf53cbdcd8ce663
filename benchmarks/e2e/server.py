"""The program under test: the stock serving stack over a fresh catalog.

    PYTHONPATH=src python3 benchmarks/e2e/server.py --workdir DIR \\
        --employees N [--trace]

Builds ``Catalog(wal=DIR/db.wal)`` (fsync on every append), populates it
through ``new_object`` and ``define_class``, and serves it the way
``repro-server`` does: ``Server(cat, config=ServerConfig())`` behind a
default ``ProtocolServer`` on an ephemeral localhost port.  Prints
``ready HOST PORT`` once it serves, then runs until SIGTERM, or until
the process that started it exits.

``--trace`` installs the outside-in wrappers of ``tracing.py`` after
population and before serving, and writes the spans to
``DIR/spans.jsonl`` on SIGTERM.
"""

from __future__ import annotations

import argparse
import os
import signal
import threading
from pathlib import Path


def populate(catalog, employees: int) -> None:
    """Employee ``e<k>`` has ``Salary = 2000 + k``; class ``Emp`` holds
    them all."""
    for k in range(employees):
        catalog.new_object(f"e{k}", Name=f"emp{k}",
                           mutable={"Salary": 2000 + k, "Bonus": 0})
    catalog.define_class("Emp", own=[f"e{k}" for k in range(employees)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--employees", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.db.catalog import Catalog
    from repro.server import ProtocolServer, Server, ServerConfig

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    parent = os.getppid()

    catalog = Catalog(wal=str(args.workdir / "db.wal"))
    populate(catalog, args.employees)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install_server(tracer, catalog)
    server = Server(catalog, config=ServerConfig())
    front = ProtocolServer(server)
    host, port = front.start()
    print(f"ready {host} {port}", flush=True)
    try:
        while not stop.wait(0.5):
            if os.getppid() != parent:
                break
    finally:
        front.close()
        server.close()
        catalog.wal.close()
    if tracer is not None:
        tracer.dump(args.workdir / "spans.jsonl")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
