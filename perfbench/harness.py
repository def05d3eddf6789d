"""The measuring loop: the timed window of epochs and rounds, the
quiet-host filter, and the six end-to-end metrics.

Noise method (README, "Noise method").  This host runs in phases: for
seconds to tens of minutes at a time everything, CPU time included, takes
1.3-1.7x as long, and short bursts come on top.  So between rounds the
harness times a fixed ~1 ms pure-Python kernel, and

* the harness and every child it starts run on one CPU, the one that ran
  the kernel fastest when the epoch began, so that the probe sees the CPU
  the work uses (:func:`pin_to_quietest_cpu`);
* a round is *quiet* when the kernel samples on its two sides agree within
  ``QUIET_FACTOR`` - no burst hit either probe, so the host's speed around
  the round is known; only quiet rounds enter the metrics;
* a quiet round's wall and CPU time are divided by its *host factor*, the
  mean of its two samples over ``NOMINAL_KERNEL_MS``: times are reported as
  on a host whose kernel takes exactly 1 ms, whichever phase the run met.

Whatever the engine itself does inside a round (GC, eviction, checkpoint)
is kept.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import struct
import time

perf_counter = time.perf_counter

QUIET_FACTOR = 1.20
NOMINAL_KERNEL_MS = 1.0
#: Fewest quiet rounds a run may report from.  p95 then has >= 10 samples
#: beyond it, the least the choosing-metrics guide accepts.
MIN_QUIET_ROUNDS = 200
#: The window may run this much past ``--seconds`` to reach
#: MIN_QUIET_ROUNDS before the run gives up and exits non-zero.
HARD_STOP_FACTOR = 1.5
#: Rounds run on one engine instance before the workload is set up afresh
#: (off the round clock).  The engine as shipped keeps ~0.16 MiB and ~1000
#: objects per ``udf_invoke`` round, and its rounds grow from 33 to 44 ms
#: over 500 of them (slower forks, longer GC passes).  On one long-lived
#: instance the median round would depend on how many rounds the host's
#: speed let into the window, and a faster engine would look slower.
#: Renewing the engine bounds the drift (33 -> 34.5 ms) and makes every
#: epoch the same work; each renewal is also one more timed set-up.  Peak
#: memory is read at the end of the first epoch, for the same reason.
EPOCH_ROUNDS = 100

_KERNEL_N = 3700
_KERNEL_TABLE = {i: i & 7 for i in range(4096)}
_KERNEL_RECORD = struct.Struct("<qq16s")
_KERNEL_BUFFER = bytes(_KERNEL_RECORD.size * 256)
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class TooNoisy(Exception):
    """The hard stop came with too few quiet rounds to report from."""


def kernel_ms() -> float:
    """Time ~1 ms of fixed interpreter work; the host-speed probe.

    The mix (dict lookups, struct unpacking, integer arithmetic) was
    chosen by measurement: when the host slows, a purely arithmetic loop
    slows less than the engine does (it read 1.25x where rounds took
    1.45x), while this mix tracked the rounds of all three embedded
    workloads within a few per cent up to 1.45x.
    """
    table, unpack, buffer = _KERNEL_TABLE, _KERNEL_RECORD.unpack_from, \
        _KERNEL_BUFFER
    started = perf_counter()
    s = 0
    for i in range(_KERNEL_N):
        s += table[(i * 7) & 4095]
        s += unpack(buffer, (i & 255) * 32)[0]
        s += (i * i) & 0xFF
    return (perf_counter() - started) * 1000.0


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from /proc/<pid>/stat."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b") ", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def cpu_seconds(live_pids) -> float:
    """CPU so far of the harness, its reaped children and live children."""
    times = os.times()
    total = time.process_time() + times.children_user + times.children_system
    for pid in live_pids:
        total += _proc_cpu_s(pid)
    return total


def _proc_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reaped_children_kib() -> int:
    """Largest peak RSS among the children this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mib(live_pids, inherited_kib: int) -> float:
    """Peak RSS of the harness plus that of its largest child.

    ``inherited_kib`` is :func:`reaped_children_kib` as it was when the run
    began: the figure survives ``exec``, so a launching shell's own
    children would otherwise count as ours.  VmHWM, not ``ru_maxrss``, for
    the harness itself, for the same reason.
    """
    own = _proc_hwm_kib(os.getpid())
    child = reaped_children_kib()
    if child <= inherited_kib:
        child = 0
    for pid in live_pids:
        child = max(child, _proc_hwm_kib(pid))
    return (own + child) / 1024.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def host_factor(before: float, after: float):
    """How many times slower than nominal the host ran between two kernel
    samples, or ``None`` when they disagree (a burst hit one of them) and
    what lies between is not quiet."""
    if max(before, after) > QUIET_FACTOR * min(before, after):
        return None
    return slowdown(before, after)


def slowdown(before: float, after: float) -> float:
    """Mean of two kernel samples over the nominal kernel time: divide a
    time measured between them by this to get it at nominal host speed."""
    return (before + after) / (2.0 * NOMINAL_KERNEL_MS)


def usable_cpus():
    """The CPUs this process may run on (before any pinning)."""
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return set()


def pin_to_quietest_cpu(cpus) -> None:
    """Pin this process, and so every child it starts from now on, to the
    one of ``cpus`` that runs the kernel fastest right now.

    With the two vCPUs free to both, a fork-heavy round slowed by 25-38 %
    in phases where the single-threaded kernel read 6 %: the other vCPU
    was busy and every cross-CPU wake-up (worker hand-offs, the server's
    replies) waited for it.  On one CPU the probe and the work share a
    fate.  The closed loops lose nothing: a caller and its callee never
    run at the same time.
    """
    if len(cpus) < 2 or not hasattr(os, "sched_setaffinity"):
        return
    speed = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = probe_host()
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def probe_host(repeats: int = 5) -> float:
    """Median of a few kernel samples: the host's speed right now."""
    return statistics.median(kernel_ms() for __ in range(repeats))


class Window:
    """What the timed window recorded, one entry per round."""

    def __init__(self):
        self.walls = []        # seconds
        self.cpus = []         # seconds, harness + children
        self.factors = []      # host factor of the round, None if not quiet
        self.samples = []      # every kernel sample, ms
        self.setups = []       # seconds at nominal speed, one per epoch
        self.rss_mib = 0.0     # peak RSS at the end of the first epoch
        self.attempted = 0     # statements and epilogue checks
        self.failed = 0

    def quiet_count(self) -> int:
        return sum(f is not None for f in self.factors)


def timed_setup(make_workload, workdir: str):
    """One set-up in a fresh directory, bracketed by host probes and
    divided by its host factor like a round.  Returns the workload and
    the seconds it took at nominal speed."""
    os.makedirs(workdir)
    workload = make_workload()
    try:
        workload.prepare(workdir)
        before = probe_host()
        started = perf_counter()
        workload.setup(workdir)
        elapsed = perf_counter() - started
    except BaseException:
        workload.teardown()             # leave no server child behind
        raise
    return workload, elapsed / slowdown(before, probe_host())


def run_window(make_workload, scratch: str, seconds: float, report,
               min_quiet: int = MIN_QUIET_ROUNDS,
               epoch_rounds: int = EPOCH_ROUNDS) -> Window:
    """The timed window: epochs of ``epoch_rounds`` rounds, each on a
    freshly set-up engine, until ``seconds`` have passed; then on, to the
    hard stop, while fewer than ``min_quiet`` rounds were quiet.

    Every epoch replays rounds 0 (the warm-up, part of set-up) to
    ``epoch_rounds`` of the same schedule.  See EPOCH_ROUNDS for why the
    engine is renewed, and the module docstring for the noise method.
    Results are judged by the oracle at the end of each epoch, off the
    clock; the last epoch's engine also goes through the epilogue.
    """
    window = Window()
    hard_stop = seconds * HARD_STOP_FACTOR
    cpus = usable_cpus()
    inherited_kib = reaped_children_kib()
    started = perf_counter()
    epoch = 0
    done = False
    while not done:
        pin_to_quietest_cpu(cpus)
        workload, setup_s = timed_setup(
            make_workload, os.path.join(scratch, f"epoch-{epoch}"))
        window.setups.append(setup_s)
        try:
            pids = workload.live_pids()
            logs = [(0, workload.warmup_results)]
            before = kernel_ms()
            window.samples.append(before)
            for index in range(1, epoch_rounds + 1):
                cpu0 = cpu_seconds(pids)
                t0 = perf_counter()
                results = workload.round(index)
                t1 = perf_counter()
                cpu1 = cpu_seconds(pids)
                workload.after_round()
                after = kernel_ms()
                window.walls.append(t1 - t0)
                window.cpus.append(cpu1 - cpu0)
                window.factors.append(host_factor(before, after))
                window.samples.append(after)
                logs.append((index, results))
                before = after
                elapsed = perf_counter() - started
                if elapsed >= seconds and (
                        elapsed >= hard_stop
                        or window.quiet_count() >= min_quiet):
                    done = True
                    break
            if epoch == 0:
                window.rss_mib = peak_rss_mib(pids, inherited_kib)
            if done:
                checks, lost = workload.epilogue()
                window.attempted += checks
                window.failed += lost
        finally:
            workload.teardown()
        window.attempted += len(logs) * workload.plan.statements_per_round
        window.failed += workload.verify(logs, report)
        epoch += 1
    return window


def end_to_end_metrics(window: Window, statements_per_round: int,
                       min_quiet: int = MIN_QUIET_ROUNDS) -> dict:
    walls = [w / f for w, f in zip(window.walls, window.factors)
             if f is not None]
    cpus = [c / f for c, f in zip(window.cpus, window.factors)
            if f is not None]
    if len(walls) < min_quiet:
        raise TooNoisy(
            f"{len(walls)} quiet rounds of {len(window.walls)} at the hard "
            f"stop; {min_quiet} needed"
        )
    statements = statements_per_round * len(walls)
    return {
        "round_p50_ms": statistics.median(walls) * 1000.0,
        "round_p95_ms": quantile(walls, 0.95) * 1000.0,
        "stmts_per_s": statements / sum(walls),
        "cpu_ms_per_stmt": sum(cpus) * 1000.0 / statements,
        "peak_rss_mb": window.rss_mib,
        "setup_s": min(window.setups),
    }


def harness_metrics(window: Window) -> dict:
    quiet = [f for f in window.factors if f is not None]
    return {
        "harness.quiet_share": len(quiet) / len(window.walls),
        "harness.kernel_ref_ms": quantile(window.samples, 0.10),
        "harness.host_factor": statistics.median(quiet) if quiet else 0.0,
        "harness.rounds_measured": float(len(quiet)),
        "harness.round_p50_raw_ms": statistics.median(window.walls) * 1000.0,
    }


def fresh_scratch(base: str) -> str:
    """An empty run-private directory under ``perfbench/out``."""
    scratch = os.path.join(base, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    return scratch
