"""Server throughput and OCC overhead on the §3.3 employee/view workload.

Two claims are measured:

* **the OCC gate** — running a single client's transactions through the
  server's concurrency machinery (read tracking, staged writes, commit
  validation and install) costs at most **15%** over the same statements
  on a bare session.  ``test_occ_single_client_overhead_envelope`` enforces this
  the same way ``bench_runtime_overhead`` enforces the journaling
  envelope: alternating best-of-rounds samples.

* **throughput under concurrency** — requests/second and p99 latency at
  1, 4 and 16 client threads, each request a §3.3-shaped transaction
  (read ``Income`` through a salary view, write the bonus back).  The
  series is printed and written to ``BENCH_server.json`` for
  EXPERIMENTS.md-style tables.
"""

import json
import threading
import time
from pathlib import Path

from repro.db.catalog import Catalog
from repro.server import Server, ServerConfig
from repro.server.occ import OCCTransaction
from repro.server.service import ClientTransaction

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_server.json"

#: Employees in the served database; clients spread over them so the
#: multi-client runs measure throughput, not pure conflict retries.
EMPLOYEES = 16
#: Transactions per timed sample (gate) / per client (throughput).
BATCH = 30
CLIENTS = (1, 4, 16)


def _view_src(name):
    return (f"({name} as fn x => [Name = x.Name, Income = x.Salary, "
            f"Bonus := extract(x, Bonus)])")


def _populate(cat):
    for i in range(EMPLOYEES):
        cat.new_object(f"e{i}", Name=f"emp{i}",
                       mutable={"Salary": 2000 + i, "Bonus": 0})
    cat.define_class("Emp", own=[f"e{i}" for i in range(EMPLOYEES)])


def _transaction_body(txn, name):
    income = txn.eval_py(f"query(fn v => v.Income, {_view_src(name)})")
    txn.update_object(name, "Bonus", income * 3)
    return income


# -- the OCC gate -----------------------------------------------------------

def _run_bare(session, name):
    for _ in range(BATCH):
        session.eval_py(f"query(fn v => v.Income, {_view_src(name)})")
        with session.transaction():
            session.eval(
                f"query(fn x => update(x, Bonus, x.Salary * 3), {name})")


def _run_occ(server, name):
    # The same two statements as _run_bare, through the full OCC path:
    # tracked reads, staged writes, commit-time validation and install.
    for _ in range(BATCH):
        txn = OCCTransaction()
        handle = ClientTransaction(server, txn, None)
        handle.eval_py(f"query(fn v => v.Income, {_view_src(name)})")
        handle.exec(f"query(fn x => update(x, Bonus, x.Salary * 3), {name})")
        server._commit(txn, handle)


def _sample(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_occ_single_client_overhead_envelope():
    cat = Catalog()
    _populate(cat)
    server = Server(cat, config=ServerConfig(workers=0))
    try:
        session = server.session
        _run_bare(session, "e0")
        _run_occ(server, "e0")
        best = float("inf")
        for _attempt in range(4):
            bare = occ = float("inf")
            for _round in range(7):
                bare = min(bare, _sample(_run_bare, session, "e0"))
                occ = min(occ, _sample(_run_occ, server, "e0"))
            ratio = occ / bare
            print(f"\nbare {bare * 1e3:.2f} ms  occ {occ * 1e3:.2f} ms"
                  f"  overhead {100 * (ratio - 1):+.1f}%")
            best = min(best, ratio)
            if best <= 1.15:
                break
        assert best <= 1.15, (
            f"OCC tracking + validation overhead {100 * (best - 1):.1f}% "
            "exceeds the 15% single-client envelope")
    finally:
        server.close()


# -- throughput and tail latency --------------------------------------------

def _p99(latencies):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]


def _throughput_run(server, clients):
    latencies = []
    lock = threading.Lock()

    def client_thread(c):
        client = server.connect()
        mine = []
        for i in range(BATCH):
            name = f"e{(c * BATCH + i) % EMPLOYEES}"
            t0 = time.perf_counter()
            client.run(lambda txn, n=name: _transaction_body(txn, n),
                       timeout=120)
            mine.append(time.perf_counter() - t0)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client_thread, args=(c,))
               for c in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    requests = clients * BATCH
    return {
        "clients": clients,
        "requests": requests,
        "req_per_s": round(requests / wall, 1),
        "p99_ms": round(_p99(latencies) * 1e3, 3),
        "mean_ms": round(sum(latencies) / len(latencies) * 1e3, 3),
    }


def test_throughput_series():
    cat = Catalog()
    _populate(cat)
    rows = []
    with Server(cat, config=ServerConfig(workers=8, queue_size=1024)) as srv:
        srv.connect().eval_py("query(fn v => v.Income, " +
                              _view_src("e0") + ")")  # warm up
        for clients in CLIENTS:
            row = _throughput_run(srv, clients)
            row["conflicts"] = srv.stats.conflicts
            rows.append(row)
            print(f"\n{row['clients']:>2} clients: "
                  f"{row['req_per_s']:>7.1f} req/s  "
                  f"p99 {row['p99_ms']:.2f} ms  mean {row['mean_ms']:.2f} ms")
        stats = srv.stats.snapshot()
    BENCH_JSON.write_text(json.dumps(
        {"workload": "section33-view-update",
         "employees": EMPLOYEES,
         "batch_per_client": BATCH,
         "series": rows,
         "server_stats": stats}, indent=2) + "\n")
    assert all(row["req_per_s"] > 0 for row in rows)
    assert stats["failed"] == 0  # every conflict retried to success
