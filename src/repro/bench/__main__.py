"""Run the full reproduction suite: ``python -m repro.bench``.

Prints every table/figure of the paper in text form and a shape-check
summary comparing the measured trends against the paper's claims.
"""

from __future__ import annotations

import argparse
import sys

from ..core.designs import Design
from .figures import run_fig4, run_fig5, run_fig6, run_fig7, run_fig8, run_table1
from .harness import Timer
from .report import render
from .workload import BenchmarkWorkload

#: The names ``--figures`` accepts, in the order they print.
FIGURES = ("table1", "4", "5", "6", "7", "8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "--cardinality", type=int, default=2000,
        help="relation cardinality (paper: 10000)",
    )
    parser.add_argument(
        "--invocations", type=int, default=None,
        help="override per-figure invocation counts",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions"
    )
    parser.add_argument(
        "--figures", type=str, default=",".join(FIGURES),
        help=f"comma-separated subset of {','.join(FIGURES)}, e.g. '5,8'",
    )
    args = parser.parse_args(argv)
    wanted = {piece.strip() for piece in args.figures.split(",")}
    unknown = sorted(wanted - set(FIGURES))
    if unknown:
        parser.error(
            f"unknown figure(s): {', '.join(unknown)} "
            f"(choose from {', '.join(FIGURES)})"
        )
    timer = Timer(repeat=args.repeat)

    if "table1" in wanted:
        print(render(run_table1()))
        print()

    if not wanted - {"table1"}:
        return 0

    print(
        f"building workload: cardinality={args.cardinality}, "
        "sizes=(1, 100, 10000) ...",
        flush=True,
    )
    with BenchmarkWorkload(cardinality=args.cardinality) as workload:
        kwargs = {}
        if args.invocations:
            kwargs["invocations"] = args.invocations
        if "4" in wanted:
            print(render(run_fig4(workload, timer=timer)))
            print()
        for name, run in (
            ("5", run_fig5), ("6", run_fig6), ("7", run_fig7), ("8", run_fig8),
        ):
            if name not in wanted:
                continue
            result = run(workload, timer=timer, **kwargs)
            print(render(result))
            if name != "5":
                native = Design.NATIVE_INTEGRATED.paper_label
                print(render(result.relative_to(native)))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
