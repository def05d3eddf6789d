"""The ``server_mixed`` server process.

Started by the harness as ``server_child.py <workdir> <seed> <smoke>``.
It generates its own copy of the seeded data, says ``ready``, and then
obeys one-line JSON commands on stdin, answering each with one line on
stdout:

* ``setup`` - DDL, CREATE FUNCTION, bulk load, checkpoint, start the
  server; answers ``{"port": ...}``.  The harness times this.
* ``checkpoint`` - ``db.checkpoint()``; answers its duration.
* ``stats`` - the engine's own counters, for the per-layer metrics.
* ``stop`` - stop the server and close the database.
"""

import json
import os
import sys
import time

import engine_api
from server_workload import ServerMixed
from workloads import Workload


def _probe(stats: dict, key: str, read) -> None:
    try:
        stats[key] = read()
    except engine_api.ProbeUnavailable as exc:
        stats.setdefault("unavailable", []).append(str(exc))


def main() -> int:
    workdir, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    plan = ServerMixed(seed, smoke)
    loader = Workload(plan)
    db = server = None

    def reply(**fields) -> None:
        sys.stdout.write(json.dumps(fields) + "\n")
        sys.stdout.flush()

    reply(ready=True)
    for line in sys.stdin:
        op = json.loads(line)["op"]
        if op == "setup":
            db = loader.open(workdir)
            loader.load(db)
            db.checkpoint()
            server = engine_api.server_class()(db)
            server.start()
            reply(port=server.port, kind=type(server).__name__)
        elif op == "checkpoint":
            started = time.perf_counter()
            db.checkpoint()
            reply(checkpoint_ms=(time.perf_counter() - started) * 1000.0)
        elif op == "stats":
            stats = {}
            _probe(stats, "pool", lambda: engine_api.pool_counters(db))
            _probe(stats, "wal", lambda: engine_api.wal_stats(db))
            _probe(stats, "mvcc", lambda: engine_api.mvcc_stats(db))
            _probe(stats, "plan_cache",
                   lambda: engine_api.plan_cache_stats(db))
            _probe(stats, "admission",
                   lambda: engine_api.admission_stats(server))
            reply(stats=stats)
        elif op == "stop":
            break
    if server is not None:
        server.stop()
    if db is not None:
        db.close()
    reply(stopped=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
