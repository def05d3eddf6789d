"""perfbench: one command, every metric by name and unit, as JSON.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/run.py                  # all four workloads
    python3 perfbench/run.py --smoke          # all of it, small, < 20 s
    python3 perfbench/run.py --aa N           # two sets of N full runs

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace
1``).  Exit status: 0 on success; 1 when any result was wrong, lost or
refused; 2 when the benchmark could not run; 3 when the host was too noisy
to report from (too few quiet rounds at the hard stop).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("udf_invoke", "udf_compute", "sql_read", "server_mixed")
#: The same number as ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 24
SMOKE_SECONDS = 0.6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed window "
                             f"(default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and windows; checks the plumbing")
    parser.add_argument("--min-quiet", type=int, default=None,
                        help="fewest quiet rounds a run may report from")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="run two sets of N full runs on this code and "
                             "write perfbench/AA.json")
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-execute under PYTHONHASHSEED=0, like every child, so that dict
    and set orders inside the engine do not differ from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def build(workload: str, seed: int, smoke: bool):
    """``(plan, workload class)`` with everything generated from the seed."""
    import workloads

    if workload == "server_mixed":
        import server_workload

        return (server_workload.ServerMixed(seed, smoke),
                server_workload.ServerWorkload)
    return workloads.PLANS[workload](seed, smoke), workloads.Workload


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, min_quiet) -> dict:
    """One run of one workload; the contract's result object, plus
    ``schedule_hash`` and ``shape`` for the self-check."""
    import harness
    import layer_trace

    plan, workload_class = build(workload, seed, smoke)
    if min_quiet is None:
        min_quiet = 3 if smoke else harness.MIN_QUIET_ROUNDS
    # Statement texts and expected UDF results exist before any clock runs.
    plan.build_schedule(
        layer_trace.SCHEDULE_ROUNDS if trace else harness.EPOCH_ROUNDS + 1)
    scratch = harness.fresh_scratch(OUT)
    report = []
    try:
        if trace:
            result = traced_run(plan, workload_class, seconds, scratch,
                                smoke, report)
        else:
            result = timed_run(plan, workload_class, seconds, scratch,
                               smoke, min_quiet, report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in report:
        print(f"perfbench: wrong result: {line}", file=sys.stderr)
    result["correct"] = result["failed"] == 0
    result["schedule_hash"] = plan.schedule_hash()
    result["shape"] = plan.work_shape()
    return result


def timed_run(plan, workload_class, seconds, scratch, smoke, min_quiet,
              report) -> dict:
    import harness

    window = harness.run_window(
        lambda: workload_class(plan), scratch, seconds, report,
        min_quiet=min_quiet,
        epoch_rounds=10 if smoke else harness.EPOCH_ROUNDS,
    )
    print("perfbench: harness", json.dumps(harness.harness_metrics(window)),
          file=sys.stderr)
    return {
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": harness.end_to_end_metrics(
            window, plan.statements_per_round, min_quiet),
    }


def traced_run(plan, workload_class, seconds, scratch, smoke, report) -> dict:
    import layer_trace

    if plan.name == "server_mixed":
        layers, recorder, logs, workload, (checks, lost) = (
            layer_trace.trace_server(
                plan, workload_class, seconds, scratch, smoke))
    else:
        layers, recorder, logs, workload, lost = layer_trace.trace_embedded(
            plan, workload_class, seconds, scratch, smoke)
        checks = lost
    wrong = workload.verify(logs, report)
    values = layers.complete()
    os.makedirs(OUT, exist_ok=True)
    recorder.dump(
        os.path.join(OUT, f"trace-{plan.name}.json"),
        {"workload": plan.name, "seed": plan.seed, "metrics": values,
         "unavailable": layers.unavailable},
    )
    return {
        "attempted": len(logs) * plan.statements_per_round + checks,
        "failed": wrong + lost,
        "metrics": values,
    }


def contract_object(result: dict) -> dict:
    import metrics

    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in result["metrics"].items()
        },
    }


def main(argv) -> int:
    args = parse_args(argv)
    pin_hash_seed()
    try:
        import engine_api  # noqa: F401  (fails here if the engine is absent)
        import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the engine: {exc}", file=sys.stderr)
        return 2
    if args.aa:
        import aa

        return aa.main(args.aa, args.seconds or DEFAULT_SECONDS)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else DEFAULT_SECONDS)
    try:
        if args.workload:
            result = run_one(args.workload, args.seed, seconds,
                             bool(args.trace), args.smoke, args.min_quiet)
            print(json.dumps(contract_object(result)))
            return 0 if result["correct"] else 1
        # Every workload, both kinds of run: every metric by name.
        document = {}
        status = 0
        for workload in WORKLOADS:
            entry = document[workload] = {}
            for trace in (False, True):
                result = run_one(workload, args.seed, seconds, trace,
                                 args.smoke, args.min_quiet)
                entry["traced" if trace else "end_to_end"] = (
                    contract_object(result))
                entry["schedule_hash"] = result["schedule_hash"]
                entry["shape"] = result["shape"]
                status = status or (0 if result["correct"] else 1)
        print(json.dumps(document))
        return status
    except harness.TooNoisy as exc:
        print(f"perfbench: too noisy to report: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
