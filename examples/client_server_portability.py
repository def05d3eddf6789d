#!/usr/bin/env python3
"""Section 6.4 end-to-end: develop at the client, test, migrate, run.

    "Our goal is to be able to allow users to easily define new Java
    UDFs, test them at the client, and migrate them to the server ...
    At both client and server, Java UDFs are invoked using the
    identical protocol ... This allows UDF code to be run without
    change at either site."

This script starts a real TCP server, connects a client, compiles a UDF
locally, verifies and unit-tests it in the client's own JaguarVM, then
ships the *identical*
classfile bytes to the server and uses it from SQL.  It also shows the
server refusing what an untrusted web client must not do: register
native code into the server process.

Run:  python examples/client_server_portability.py
"""

from repro import Database, DatabaseServer
from repro.server.client import Client, LocalUDFHarness, ServerReportedError

# The user's UDF: a clipped exponential moving average of a series.
SOURCE = """
def ema_last(history: farr, alpha_pct: int) -> float:
    if len(history) == 0:
        return 0.0
    alpha: float = float(alpha_pct) / 100.0
    value: float = history[0]
    for i in range(1, len(history)):
        value = alpha * history[i] + (1.0 - alpha) * value
    return value
"""


def main() -> None:
    database = Database()
    database.execute("CREATE TABLE series (id INT, h TIMESERIES)")
    table = database.catalog.get_table("series")
    database.insert_row(table, [1, [10.0, 12.0, 11.0, 15.0, 18.0]])
    database.insert_row(table, [2, [5.0, 5.0, 5.0, 5.0, 5.0]])

    with DatabaseServer(database) as server:
        print(f"server listening on {server.host}:{server.port}")
        with Client(server.host, server.port) as client:
            print(f"connected; session {client.session_id}, "
                  f"trusted={client.trusted}")

            # 1. Develop & test locally — same compiler, same verifier,
            #    same execution semantics as the server.
            harness = LocalUDFHarness()
            print("compiling and unit-testing locally ...")
            classfile = harness.develop(
                SOURCE,
                "ema_last",
                test_vectors=[
                    (([10.0, 10.0, 10.0], 50), 10.0),
                    (([], 50), 0.0),
                ],
            )
            print(f"  classfile: {len(classfile)} bytes, tests green")

            # 2. Migrate: the identical bytes go to the server, which
            #    re-verifies before admitting them.
            client.register_udf_classfile(
                "ema_last", ["farr", "int"], "float", classfile
            )
            print("  migrated to the server (re-verified there)")

            # 3. Use from SQL over the wire.
            result = client.execute(
                "SELECT id, ema_last(h, 40) AS ema FROM series ORDER BY id"
            )
            for row in result:
                print(f"  id={row[0]}  ema={row[1]:.3f}")

            # 4. What an untrusted client may NOT do.
            print("attempting to register native code (should fail) ...")
            try:
                client.register_udf_classfile(
                    "backdoor", ["int"], "int",
                    b"os:system", design="native_integrated", entry="system",
                )
            except ServerReportedError as exc:
                print(f"  refused: {exc}")

    database.close()


if __name__ == "__main__":
    main()
