"""The server always plans: set queries are served through the planner.

There is no switch: a fresh ``Server`` turns its session's planner on, a
repeated ``c-query`` is served from a materialized view, and every served
statement still makes exactly one ``CompileEngine.decide`` call, so the
compile cache's hit count (the traced benchmark's hit-ratio denominator)
keeps counting.
"""

from __future__ import annotations

import inspect

import pytest

from repro.client import Client
from repro.compile.engine import CompileEngine
from repro.db.catalog import Catalog
from repro.server import ProtocolServer, Server, ServerConfig
from repro.server.protocol import main as server_main

_SCAN = "fn S => size(filter(fn o => query(fn v => v.Salary > 150, o), S))"


def _catalog() -> Catalog:
    cat = Catalog()
    for k in range(8):
        cat.new_object(f"e{k}", Name=f"emp{k}",
                       mutable={"Salary": 100 + 10 * k})
    cat.define_class("Emp", own=[f"e{k}" for k in range(8)])
    return cat


def test_the_server_has_no_planner_switch(capsys):
    assert "optimize" not in inspect.signature(Server).parameters
    with pytest.raises(TypeError):
        Server(Catalog(), optimize=False)
    with pytest.raises(SystemExit):
        server_main(["--help"])
    assert "--optimize" not in capsys.readouterr().out


def test_a_fresh_server_serves_a_repeated_query_from_a_view():
    cat = _catalog()
    assert cat.session.optimize is False
    with Server(cat, config=ServerConfig(workers=2)) as server:
        client = server.connect()
        for _ in range(4):
            assert client.run(lambda txn: txn.query("Emp", _SCAN)) == 2
        stats = server.session.planner.stats.snapshot()
    assert stats["mv_builds"] == 1 and stats["mv_hits"] == 2


def test_a_wire_query_served_from_a_view_decides_once(monkeypatch):
    decided = []
    decide = CompileEngine.decide

    def counted(engine, stmt, env):
        decided.append(stmt)
        return decide(engine, stmt, env)

    monkeypatch.setattr(CompileEngine, "decide", counted)
    with Server(_catalog(), config=ServerConfig(workers=2)) as server, \
            ProtocolServer(server) as front, \
            Client(*front.address) as client:
        hits = []
        for n in range(1, 6):
            assert client.query("Emp", _SCAN) == 2
            assert len(decided) == n
            hits.append(server.compile_snapshot()["compile_cache_hits"])
        planner = server.session.planner.stats.snapshot()
    assert planner["planned"] == 5 and planner["mv_hits"] == 3
    # Every run after the first found the statement's program.
    assert hits == [hits[0] + i for i in range(5)]
