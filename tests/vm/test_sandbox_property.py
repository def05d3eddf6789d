"""The sandbox safety property, as a property-based test.

The core claim of the verify-then-trust architecture: **no classfile —
however constructed — can make the VM misbehave**.  Either the decoder
rejects it, the verifier rejects it, or it runs and any fault it raises
is a :class:`~repro.errors.VMError` confined to the sandbox.  Nothing
else (no host exceptions, no corruption) may escape.

Hypothesis attacks the pipeline with mutated real classfiles; mutations
that survive decode + verify + load-time analysis are then *executed*
under a small fuel budget, every function is JIT-compiled, and every
function eligible for a tier-1 kernel is compiled to one and run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClassFormatError, LinkError, VerifyError, VMError
from repro.vm import compile_source, run_function, single_class_context
from repro.vm.classloader import SystemClassLoader
from repro.vm.jit import JitCompiler, invoke_jit
from repro.vm.kernels import KernelDeopt, KernelUnsupported, compile_batch_kernel
from repro.vm.resources import ResourceAccount
from repro.vm.tier import kernel_eligibility
from repro.vm.values import VMType

SOURCE = '''
def helper(a: int) -> int:
    return a * 3 - 1

def entry(data: bytes, n: int) -> int:
    s: int = 0
    for i in range(n):
        s = helper(s) + i
    for i in range(len(data)):
        s = s + data[i]
    if s > 1000:
        return s % 1000
    return s

def table(data: bytes) -> int:
    s: int = 0
    for i in range(4):
        for j in range(3, 0, -1):
            if i == j:
                continue
            if i + j == 5:
                return s
            s = s + i * j
    return s
'''

_BASE = compile_source(SOURCE, "Victim").to_bytes()

ARGS = (b"\x01\x02\x03", 5)

#: A kernel argument per parameter type, for eligible functions.
KERNEL_ARGS = {VMType.INT: 5, VMType.ARR: b"\x01\x02\x03"}


def exercise(data: bytes) -> None:
    """Decode -> verify -> analyse -> execute; only sandbox errors may
    surface."""
    try:
        cls = SystemClassLoader().define_class(data)
    except (ClassFormatError, LinkError, VerifyError):
        # ClassFormatError can surface from pool-kind checks at link time.
        return
    for runner in (run_function, invoke_jit):
        func = cls.functions.get("entry")
        if func is None or len(func.param_types) != 2:
            continue
        ctx = single_class_context(cls)
        ctx.account = ResourceAccount(fuel=50_000, memory=1 << 20)
        try:
            runner(cls, func, list(ARGS), ctx)
        except VMError:
            pass  # confined fault: allowed
    for func in cls.functions.values():
        ctx = single_class_context(cls)
        ctx.account = ResourceAccount(fuel=50_000, memory=1 << 20)
        compiler = JitCompiler(lambda name: cls)
        compiler.get(cls, func, ctx)   # every function compiles
        if kernel_eligibility(func) is not None:
            continue
        try:
            kernel = compile_batch_kernel(cls, func, ctx, compiler)
        except KernelUnsupported:
            continue
        if all(t in KERNEL_ARGS for t in func.param_types):
            row = [KERNEL_ARGS[t] for t in func.param_types]
            try:
                kernel([row], ctx, [])
            except (KernelDeopt, VMError):
                pass  # the tier-0 rerun handles it


@settings(max_examples=300, deadline=None)
@given(
    position=st.integers(min_value=0, max_value=len(_BASE) - 1),
    junk=st.binary(min_size=1, max_size=6),
)
def test_byte_mutations_cannot_escape_sandbox(position, junk):
    mutated = bytearray(_BASE)
    mutated[position:position + len(junk)] = junk
    exercise(bytes(mutated))


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=0, max_size=300))
def test_random_blobs_cannot_escape_sandbox(data):
    exercise(data)


@settings(max_examples=100, deadline=None)
@given(
    cut=st.integers(min_value=0, max_value=len(_BASE)),
    extra=st.binary(max_size=20),
)
def test_truncation_with_padding_cannot_escape_sandbox(cut, extra):
    exercise(_BASE[:cut] + extra)
