#!/usr/bin/env python3
"""Every attack from Section 1, launched against the server.

    "the DBMS must be wary of UDFs that might crash the database
    system, that modify its files or memory directly, circumventing the
    authorization mechanisms, or that monopolize CPU, memory or disk
    resources leading to a reduction in DBMS performance (i.e., denial
    of service)."

Each attack is attempted under the design that *stops* it (and the
narration notes which designs would not).

Run:  python examples/malicious_udfs.py
"""

from repro import Database
from repro.errors import (
    FuelExhausted,
    MemoryQuotaExceeded,
    SecurityViolation,
    UDFCrashed,
    UDFInvocationError,
    VerifyError,
)


def attack(title):
    print(f"\n=== {title} ===")


def main() -> None:
    db = Database()
    db.execute("CREATE TABLE victims (id INT)")
    db.execute("INSERT INTO victims VALUES (1), (2), (3)")

    attack("CPU denial of service (infinite loop)")
    db.execute(
        "CREATE FUNCTION cpu_bomb(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX FUEL 200000 AS "
        "'def cpu_bomb(x: int) -> int:\n    while True:\n        pass\n'"
    )
    try:
        db.execute("SELECT cpu_bomb(id) FROM victims")
    except FuelExhausted as exc:
        print(f"  stopped: {exc}")
    print("  (a 1998 JVM had no such quota — Section 6.2; Design 1/2 still don't)")

    attack("memory denial of service (input-dependent allocation bomb)")
    # The allocation size depends on the argument, so no static bound
    # exists; the runtime quota is the defense that fires.
    db.execute(
        "CREATE FUNCTION mem_bomb(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX MEMORY 4194304 AS "
        "'def mem_bomb(x: int) -> int:\n"
        "    total: int = 0\n"
        "    for i in range(1000000):\n"
        "        a: bytes = bytearray(x * 1048576)\n"
        "        total = total + len(a)\n"
        "    return total\n'"
    )
    try:
        db.execute("SELECT mem_bomb(id) FROM victims")
    except MemoryQuotaExceeded as exc:
        print(f"  stopped: {exc}")

    attack("memory denial of service (provable allocation bomb)")
    # Here every quantity is a compile-time constant, so the bounds
    # certifier can *prove* the minimum heap consumption (1 TiB) exceeds
    # the quota before the UDF ever runs: the registration itself is
    # rejected, with a static:bounds entry in the audit log.
    try:
        db.execute(
            "CREATE FUNCTION alloc_bomb(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX MEMORY 4194304 AS "
            "'def alloc_bomb(x: int) -> int:\n"
            "    total: int = 0\n"
            "    for i in range(1000000):\n"
            "        a: bytes = bytearray(1048576)\n"
            "        total = total + len(a)\n"
            "    return total\n'"
        )
    except SecurityViolation as exc:
        print(f"  stopped at CREATE FUNCTION: {exc}")

    attack("unauthorized data access (callback without permission)")
    # The static analyzer sees the CALLBACK instruction in the verified
    # bytecode, so the security manager rejects the registration itself:
    # the snoop never reaches the catalog, let alone a query.
    try:
        db.execute(
            "CREATE FUNCTION snoop(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX AS "   # note: no CALLBACKS grant
            "'def snoop(x: int) -> int:\n    return cb_lob_length(x)\n'"
        )
    except SecurityViolation as exc:
        print(f"  stopped at CREATE FUNCTION: {exc}")

    attack("forged bytecode (type confusion via hand-built classfile)")
    from repro.vm.classfile import ClassFile, FunctionDef
    from repro.vm.opcodes import Instr, Op
    from repro.vm.values import VMType

    forged = ClassFile(name="udf_forged")
    forged.add_function(
        FunctionDef(
            name="forged",
            param_types=(VMType.INT,),
            ret_type=VMType.INT,
            local_types=(VMType.INT,),
            code=(
                Instr(Op.LOAD, 0),
                Instr(Op.ICONST, 0),
                Instr(Op.ALOAD, None),  # treat an int as an array!
                Instr(Op.RET, None),
            ),
        )
    )
    from repro.core.designs import Design
    from repro.core.udf import UDFDefinition, UDFSignature

    try:
        db.register_udf(
            UDFDefinition(
                name="forged",
                signature=UDFSignature(("int",), "int"),
                design=Design.SANDBOX_JIT,
                payload=forged.to_bytes(),
                entry="forged",
            )
        )
    except VerifyError as exc:
        print(f"  stopped by the verifier: {exc}")

    attack("hard crash of native code (Design 2 containment)")
    # ``os._exit`` is the closest Python analog of a C++ segfault.  In
    # Design 1 this would take the whole server down; Design 2 loses
    # only the executor process.
    db.execute(
        "CREATE FUNCTION crasher(int) RETURNS int LANGUAGE NATIVE "
        "DESIGN ISOLATED AS 'examples.malicious_udfs:hard_crash'"
    )
    try:
        db.execute("SELECT crasher(id) FROM victims")
    except UDFCrashed as exc:
        print(f"  contained: {exc}")
    print(
        "  server still answering queries:",
        db.execute("SELECT count(*) FROM victims").scalar(), "rows",
    )

    attack("data exfiltration (tuple values into a logging sink)")
    # The registration legitimately grants cb_log — logging callbacks
    # get handed out freely.  But cb_log is a policy-declared *sink*:
    # whatever reaches its argument leaves the confinement boundary
    # (log files are world-readable in a way tuples are not).  The
    # information-flow pass proves the tuple-derived parameter reaches
    # the sink argument — through the arithmetic disguise — so the
    # registration is refused with a static:flows audit entry, even
    # though every instruction is individually permitted.
    try:
        db.execute(
            "CREATE FUNCTION leak(int) RETURNS int LANGUAGE JAGUAR "
            "DESIGN SANDBOX CALLBACKS 'cb_log' AS "
            "'def leak(x: int) -> int:\n"
            "    disguised: int = x * 31 + 7\n"
            "    logged: int = cb_log(disguised)\n"
            "    return logged\n'"
        )
    except SecurityViolation as exc:
        print(f"  stopped at CREATE FUNCTION: {exc}")
    # The same callback with untainted arguments is fine: the flow
    # certifier refuses data-dependent sink traffic, not logging itself.
    db.execute(
        "CREATE FUNCTION heartbeat(int) RETURNS int LANGUAGE JAGUAR "
        "DESIGN SANDBOX CALLBACKS 'cb_log' AS "
        "'def heartbeat(x: int) -> int:\n"
        "    ok: int = cb_log(1)\n"
        "    return ok\n'"
    )
    print("  (constant-argument cb_log UDF accepted: the sink gate is flow-based)")

    attack("code smuggled out of the executor (Design 2's boundary)")
    # The worker returns an object whose pickle would run a call when
    # unpickled.  Every message from the executor is adtstream data,
    # which can express SQL values and nothing else, and the worker
    # conforms each result to its RETURNS type before encoding it, so
    # the object is refused in the worker: the statement fails with an
    # error naming the UDF, and nothing runs in the server.
    db.execute(
        "CREATE FUNCTION smuggler(int) RETURNS int LANGUAGE NATIVE "
        "DESIGN ISOLATED AS 'examples.malicious_udfs:smuggle'"
    )
    try:
        db.execute("SELECT smuggler(id) FROM victims")
    except UDFInvocationError as exc:
        print(f"  stopped: {exc}")

    db.close()
    print("\nAll eight attacks neutralized.")


def hard_crash(x):
    import os

    os._exit(77)


class _Smuggled:
    def __reduce__(self):
        return (print, ("  HARMED: smuggled code ran in the server",))


def smuggle(x):
    return _Smuggled()


if __name__ == "__main__":
    import os
    import sys

    # Make this module importable as `examples.malicious_udfs` for the
    # isolated worker (it resolves the payload by module path).
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    main()
